"""The reprolint engine: parse, suppress, dispatch to rules.

Stdlib-only on purpose (``ast`` + ``tokenize``): the engine has to run
in environments where the simulator's numpy/scipy stack is not
installed — the dedicated CI lint job and bare development containers.

The unit of work is a :class:`SourceModule`: one parsed file plus the
derived facts every rule needs — the dotted module name (when the file
lives under a ``repro`` package directory), the import aliasing maps
used to resolve call targets like ``np.random.default_rng`` to their
canonical ``numpy.random.default_rng`` spelling, module-level string
constants (so ``os.environ.get(ENV_TRACE)`` resolves through the
constant), and the suppression comments.
"""

from __future__ import annotations

import ast
import dataclasses
import io
import os
import re
import tokenize
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Directories scanned by default, mirroring ``tools/lint.py``.
DEFAULT_SCAN_DIRS = ("src", "tests", "tools", "examples")

#: Directory names never descended into.
SKIP_DIRS = ("__pycache__", ".git", ".hypothesis", ".pytest_cache")

#: Code reserved for files that do not parse (not suppressible).
PARSE_ERROR_CODE = "RPL000"

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)"
)


@dataclasses.dataclass
class Finding:
    """One rule violation at a specific source location.

    Attributes:
        code: rule code (``RPL001`` ... / :data:`PARSE_ERROR_CODE`).
        path: file path relative to the scan root, ``/``-separated.
        line / col: 1-based line and 0-based column of the anchor node.
        message: human-readable explanation.
        content: the stripped source line — the baseline fingerprint
            component that survives line-number churn.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    content: str = ""

    def location(self) -> str:
        return "%s:%d:%d" % (self.path, self.line, self.col)


@dataclasses.dataclass
class SourceModule:
    """One parsed source file plus the facts rules need (see module doc)."""

    path: str
    relpath: str
    text: str
    lines: List[str]
    tree: ast.Module
    #: Dotted module name when under a ``repro`` package dir, else None.
    module: Optional[str]
    #: ``import numpy as np`` -> {"np": "numpy"}.
    import_aliases: Dict[str, str]
    #: ``from numpy.random import default_rng as rng`` -> {"rng": "numpy.random.default_rng"}.
    imported_names: Dict[str, str]
    #: Module-level ``NAME = "literal"`` string constants.
    constants: Dict[str, str]
    #: line number -> set of suppressed codes ("all" suppresses everything).
    line_suppressions: Dict[int, Set[str]]
    #: codes suppressed for the whole file.
    file_suppressions: Set[str]

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, if resolvable.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` when the module did ``import numpy
        as np``; a bare ``default_rng`` resolves through ``from
        numpy.random import default_rng``.  Chains rooted in anything
        other than a plain name (calls, subscripts) do not resolve.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = node.id
        parts.reverse()
        base = self.import_aliases.get(root)
        if base is None:
            base = self.imported_names.get(root, root)
        return ".".join([base] + parts)

    def is_suppressed(self, finding: Finding) -> bool:
        for scope in (
            self.file_suppressions,
            self.line_suppressions.get(finding.line, ()),
        ):
            if finding.code in scope or "all" in scope:
                return True
        return False


@dataclasses.dataclass
class LintResult:
    """Outcome of one engine run.

    Attributes:
        findings: violations not suppressed and not in the baseline.
        baselined: count of findings absorbed by the baseline.
        suppressed: count of findings silenced by disable comments.
        stale_baseline: baseline entries that matched nothing (the
            violation was fixed — regenerate with ``--write-baseline``).
        files: number of files checked.
    """

    findings: List[Finding]
    baselined: int = 0
    suppressed: int = 0
    stale_baseline: List[Tuple[str, str, str]] = dataclasses.field(
        default_factory=list
    )
    files: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def module_name_for(relpath: str) -> Optional[str]:
    """Dotted module name of a path under a ``repro`` package directory.

    ``src/repro/core/afr.py`` -> ``repro.core.afr``;
    ``src/repro/obs/__init__.py`` -> ``repro.obs``; paths with no
    ``repro`` component (tests, tools) -> ``None``.
    """
    parts = relpath.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    start = len(parts) - 1 - parts[::-1].index("repro")
    tail = parts[start:]
    if not tail[-1].endswith(".py"):
        return None
    tail[-1] = tail[-1][: -len(".py")]
    if tail[-1] == "__init__":
        tail = tail[:-1]
    return ".".join(tail)


def _collect_suppressions(
    text: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Parse ``# reprolint: disable[-file]=...`` comments.

    Uses :mod:`tokenize` so comment-looking text inside string
    literals is ignored; falls back to a line scan when the file does
    not tokenize (the AST parse will report the real error).
    """
    comments: List[Tuple[int, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(text.split("\n"), start=1):
            if "#" in line:
                comments.append((lineno, line[line.index("#"):]))
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, comment in comments:
        match = _SUPPRESS_RE.search(comment)
        if not match:
            continue
        codes = {
            code.strip()
            for code in match.group(2).split(",")
            if code.strip()
        }
        if match.group(1) == "disable-file":
            per_file |= codes
        else:
            per_line.setdefault(lineno, set()).update(codes)
    return per_line, per_file


def _collect_imports(
    tree: ast.Module,
) -> Tuple[Dict[str, str], Dict[str, str]]:
    aliases: Dict[str, str] = {}
    names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                names[alias.asname or alias.name] = "%s.%s" % (
                    node.module,
                    alias.name,
                )
    return aliases, names


def _collect_constants(tree: ast.Module) -> Dict[str, str]:
    constants: Dict[str, str] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if not isinstance(value, ast.Constant) or not isinstance(
            value.value, str
        ):
            continue
        for target in targets:
            if isinstance(target, ast.Name):
                constants[target.id] = value.value
    return constants


def parse_source(
    text: str, relpath: str, path: Optional[str] = None
) -> Tuple[Optional[SourceModule], Optional[Finding]]:
    """Parse one file's text; returns ``(module, None)`` or ``(None, parse error)``."""
    relpath = relpath.replace(os.sep, "/")
    try:
        tree = ast.parse(text, filename=relpath)
    except SyntaxError as exc:
        return None, Finding(
            code=PARSE_ERROR_CODE,
            path=relpath,
            line=exc.lineno or 0,
            col=(exc.offset or 1) - 1,
            message="file does not parse: %s" % exc.msg,
        )
    per_line, per_file = _collect_suppressions(text)
    aliases, names = _collect_imports(tree)
    module = SourceModule(
        path=path or relpath,
        relpath=relpath,
        text=text,
        lines=text.split("\n"),
        tree=tree,
        module=module_name_for(relpath),
        import_aliases=aliases,
        imported_names=names,
        constants=_collect_constants(tree),
        line_suppressions=per_line,
        file_suppressions=per_file,
    )
    return module, None


def check_source(
    text: str,
    relpath: str,
    select: Optional[Sequence[str]] = None,
) -> Tuple[List[Finding], int]:
    """Check one in-memory source; returns ``(findings, suppressed count)``."""
    from repro.lintkit.rules import RULES

    module, parse_error = parse_source(text, relpath)
    if parse_error is not None:
        return [parse_error], 0
    assert module is not None
    findings: List[Finding] = []
    suppressed = 0
    for code in sorted(RULES):
        if select is not None and code not in select:
            continue
        rule = RULES[code]
        if not rule.applies(module):
            continue
        for finding in rule.check(module):
            finding.content = module.line_text(finding.line)
            if module.is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, suppressed


def check_file(
    path: str, root: str, select: Optional[Sequence[str]] = None
) -> Tuple[List[Finding], int]:
    """Check one on-disk file (see :func:`check_source`)."""
    relpath = os.path.relpath(path, root)
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return (
            [
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=relpath.replace(os.sep, "/"),
                    line=0,
                    col=0,
                    message="unreadable: %s" % exc,
                )
            ],
            0,
        )
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return (
            [
                Finding(
                    code=PARSE_ERROR_CODE,
                    path=relpath.replace(os.sep, "/"),
                    line=0,
                    col=0,
                    message="not valid UTF-8: %s" % exc,
                )
            ],
            0,
        )
    return check_source(text, relpath, select=select)


def iter_python_files(root: str, paths: Sequence[str]) -> Iterable[str]:
    """Yield ``.py`` files under ``paths`` (files or directories).

    ``__pycache__`` (and other :data:`SKIP_DIRS`) are pruned and only
    real ``.py`` sources are yielded, so compiled ``.pyc`` droppings
    never reach the parser.
    """
    for base in paths:
        target = base if os.path.isabs(base) else os.path.join(root, base)
        if os.path.isfile(target):
            if target.endswith(".py"):
                yield target
            continue
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def run(
    root: str,
    paths: Optional[Sequence[str]] = None,
    baseline: Optional[Dict[Tuple[str, str, str], int]] = None,
    select: Optional[Sequence[str]] = None,
) -> LintResult:
    """Check a tree and apply the baseline; the engine's main entry.

    Args:
        root: directory findings are reported relative to.
        paths: files/dirs to scan (default: the
            :data:`DEFAULT_SCAN_DIRS` that exist under ``root``).
        baseline: loaded baseline multiset (see
            :mod:`repro.lintkit.baseline`); ``None`` skips filtering.
        select: restrict to these rule codes.
    """
    from repro.lintkit.baseline import apply_baseline
    from repro.lintkit.rules import RULES

    if paths is None:
        paths = [
            d
            for d in DEFAULT_SCAN_DIRS
            if os.path.isdir(os.path.join(root, d))
        ]
    result = LintResult(findings=[])
    scanned: Set[str] = set()
    for path in iter_python_files(root, paths):
        scanned.add(os.path.relpath(path, root).replace(os.sep, "/"))
        findings, suppressed = check_file(path, root, select=select)
        result.findings.extend(findings)
        result.suppressed += suppressed
        result.files += 1
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    if baseline is not None:
        # A baseline entry can only be proven stale by a run that
        # executed its rule over its file: explicit-path invocations
        # must not report entries of unscanned files, and the per-file
        # pass must not report project-rule (RPL1xx) entries.
        executed = set(select) if select is not None else set(RULES)
        executed.add(PARSE_ERROR_CODE)
        kept, baselined, stale = apply_baseline(
            result.findings,
            baseline,
            relevant=lambda key: key[0] in executed and key[1] in scanned,
        )
        result.findings = kept
        result.baselined = baselined
        result.stale_baseline = stale
    return result


def run_project(
    root: str,
    baseline: Optional[Dict[Tuple[str, str, str], int]] = None,
    select: Optional[Sequence[str]] = None,
    package_dirs: Optional[Sequence[str]] = None,
):
    """Run the whole-program pass (RPL102-RPL103) over ``root``.

    Builds the module graph and dataflow summaries (see
    :mod:`repro.lintkit.modgraph` and :mod:`repro.lintkit.dataflow`),
    runs the project rules, and applies the shared baseline scoped to
    the executed project codes.
    """
    from repro.lintkit.baseline import apply_baseline
    from repro.lintkit.modgraph import ModuleGraph
    from repro.lintkit.project_rules import PROJECT_RULES, run_project_rules

    graph = ModuleGraph.load(root, package_dirs=package_dirs)
    findings, suppressed = run_project_rules(graph, select=select)
    for error in graph.parse_errors:
        findings.append(error)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    result = LintResult(
        findings=findings,
        suppressed=suppressed,
        files=len(graph.modules) + len(graph.parse_errors),
    )
    if baseline is not None:
        executed = (
            set(select) if select is not None else set(PROJECT_RULES)
        )
        executed.add(PARSE_ERROR_CODE)
        analyzed = {
            info.source.relpath for info in graph.modules.values()
        }
        kept, baselined, stale = apply_baseline(
            result.findings,
            baseline,
            relevant=lambda key: key[0] in executed and key[1] in analyzed,
        )
        result.findings = kept
        result.baselined = baselined
        result.stale_baseline = stale
    return result
