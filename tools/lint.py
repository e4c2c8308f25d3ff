#!/usr/bin/env python
"""The repo's lint gate: style (ruff or fallback) + invariants (reprolint).

Two independent layers run by default:

* **Style** — ruff when installed (CI installs it and gets the full
  E/F/W/I rule set from ``[tool.ruff]``); otherwise a conservative
  built-in fallback (syntax, line length, tabs, trailing whitespace,
  final newline) that only flags things ruff would also flag.
* **Invariants** — reprolint (``src/repro/lintkit``): the AST checks
  for determinism, sim-clock purity, columnar-core discipline, and
  env-var hygiene (incl. RPL007: no environment reads in simulation
  code), followed by the whole-program pass (RPL102-RPL103:
  fork-safety, import-time env reads).
  See docs/LINTING.md.

reprolint is stdlib-only and is loaded here *without executing the
numpy-heavy ``repro`` package init*, so development containers without
network access — and the dependency-free CI lint job — still get full
invariant checking: ``python tools/lint.py --invariants-only`` needs
nothing but a Python interpreter.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import shutil
import subprocess
import sys
import types

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT_DIRS = ("src", "tests", "tools", "examples")
LINE_LENGTH = 100  # keep in sync with [tool.ruff] in pyproject.toml

#: Directory names every walker prunes (compiled/pycache noise).
SKIP_DIRS = ("__pycache__", ".git", ".hypothesis", ".pytest_cache")


def load_lintkit():
    """Import ``repro.lintkit`` without running ``repro/__init__``.

    The package init pulls in numpy/scipy, which the lint environments
    cannot assume.  Registering a namespace-style parent module first
    makes ``import repro.lintkit`` resolve through ``__path__`` while
    skipping the parent's ``__init__`` body entirely.
    """
    try:
        import repro.lintkit as lintkit  # already importable? use it

        return lintkit
    except ImportError:
        pass
    src = os.path.join(REPO, "src")
    if "repro" not in sys.modules:
        parent = types.ModuleType("repro")
        parent.__path__ = [os.path.join(src, "repro")]
        parent.__spec__ = importlib.util.spec_from_loader(
            "repro", loader=None, is_package=True
        )
        sys.modules["repro"] = parent
    if src not in sys.path:
        sys.path.insert(0, src)
    import repro.lintkit as lintkit

    return lintkit


def run_ruff() -> int:
    """Delegate to ruff (binary or module), pyproject-configured."""
    argv = None
    if shutil.which("ruff"):
        argv = ["ruff"]
    else:
        try:
            import ruff  # noqa: F401

            argv = [sys.executable, "-m", "ruff"]
        except ImportError:
            return -1
    dirs = [d for d in LINT_DIRS if os.path.isdir(os.path.join(REPO, d))]
    return subprocess.call(argv + ["check"] + dirs, cwd=REPO)


def iter_python_files():
    for base in LINT_DIRS:
        root_dir = os.path.join(REPO, base)
        for dirpath, dirnames, filenames in os.walk(root_dir):
            dirnames[:] = [
                d
                for d in dirnames
                if d not in SKIP_DIRS and not d.startswith(".")
            ]
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def check_file(path: str) -> list:
    """Fallback checks for one file; returns ``(line, message)`` pairs."""
    problems = []
    with open(path, "rb") as handle:
        raw = handle.read()
    try:
        source = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [(0, "not valid UTF-8: %s" % exc)]
    try:
        compile(source, path, "exec")
    except SyntaxError as exc:
        return [(exc.lineno or 0, "syntax error: %s" % exc.msg)]
    lines = source.split("\n")
    for lineno, line in enumerate(lines, start=1):
        if len(line) > LINE_LENGTH:
            problems.append(
                (lineno, "line too long (%d > %d)" % (len(line), LINE_LENGTH))
            )
        stripped = line.rstrip("\n")
        if stripped != stripped.rstrip():
            problems.append((lineno, "trailing whitespace"))
        indent = line[: len(line) - len(line.lstrip())]
        if "\t" in indent:
            problems.append((lineno, "tab in indentation"))
    if raw and not raw.endswith(b"\n"):
        problems.append((len(lines), "no newline at end of file"))
    elif raw.endswith(b"\n\n"):
        problems.append((len(lines), "trailing blank lines at end of file"))
    return problems


def run_fallback() -> int:
    total = 0
    for path in iter_python_files():
        for lineno, message in check_file(path):
            rel = os.path.relpath(path, REPO)
            print("%s:%d: %s" % (rel, lineno, message))
            total += 1
    if total:
        print("lint (fallback): %d problem(s)" % total, file=sys.stderr)
        return 1
    print("lint (fallback): clean", file=sys.stderr)
    return 0


def run_style() -> int:
    """Ruff when available, else the built-in fallback."""
    status = run_ruff()
    if status >= 0:
        return status
    print(
        "lint: ruff not installed; running built-in fallback checks",
        file=sys.stderr,
    )
    return run_fallback()


def run_reprolint(json_out=None) -> int:
    """Invariant checks via reprolint; see docs/LINTING.md."""
    lintkit = load_lintkit()
    argv = ["--root", REPO]
    if json_out:
        argv += ["--json", json_out]
    return lintkit.cli_main(argv)


def run_reprolint_project(json_out=None) -> int:
    """Whole-program pass (RPL102-RPL103); see docs/LINTING.md."""
    lintkit = load_lintkit()
    argv = ["--root", REPO, "--project"]
    if json_out:
        argv += ["--json", json_out]
    return lintkit.cli_main(argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Style gate (ruff/fallback) + invariant gate (reprolint)."
    )
    parser.add_argument(
        "--style-only",
        action="store_true",
        help="run only the style layer (ruff or fallback)",
    )
    parser.add_argument(
        "--invariants-only",
        action="store_true",
        help="run only reprolint (needs no third-party packages)",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="write reprolint's JSON findings report to FILE",
    )
    parser.add_argument(
        "--project-json",
        metavar="FILE",
        default=None,
        help="write the whole-program pass's JSON findings report to FILE",
    )
    args = parser.parse_args(argv)

    status = 0
    if not args.invariants_only:
        status = run_style()
    if not args.style_only:
        invariant_status = run_reprolint(json_out=args.json)
        status = status or invariant_status
        project_status = run_reprolint_project(json_out=args.project_json)
        status = status or project_status
    return status


if __name__ == "__main__":
    raise SystemExit(main())
