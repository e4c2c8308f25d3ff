"""The reprolint command line (``python -m repro.lintkit``).

Exit codes: 0 clean (possibly via baseline/suppressions), 1 findings,
2 usage or baseline-format errors.  ``--write-baseline`` regenerates
the committed baseline from the current findings and always exits 0 —
pair it with a reviewed diff, never a blind run (see docs/LINTING.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.lintkit import baseline as baseline_mod
from repro.lintkit import engine, report
from repro.lintkit.rules import RULES, rule_catalog


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lintkit",
        description="AST-based invariant checks for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to check (default: %s under --root)"
        % (", ".join(engine.DEFAULT_SCAN_DIRS)),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repo root findings are reported relative to (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline file (default: <root>/%s)"
        % baseline_mod.DEFAULT_BASELINE_RELPATH.replace(os.sep, "/"),
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report grandfathered findings too",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="regenerate the baseline from current findings and exit 0",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="run the whole-program pass (RPL102-RPL103) over src/repro "
        "instead of the per-file rules",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        default=None,
        help="also write the JSON report document to FILE ('-' = stdout)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings still print)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.lintkit.project_rules import PROJECT_RULES

    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for code, title, _rationale in rule_catalog():
            print("%s  %s" % (code, title))
        return 0

    if args.project and args.paths:
        print(
            "reprolint: --project analyzes the whole package; explicit "
            "paths only apply to the per-file pass",
            file=sys.stderr,
        )
        return 2

    select: Optional[List[str]] = None
    if args.select:
        select = [code.strip() for code in args.select.split(",") if code.strip()]
        unknown = [
            code
            for code in select
            if code not in RULES and code not in PROJECT_RULES
        ]
        if unknown:
            print(
                "reprolint: unknown rule code(s): %s" % ", ".join(unknown),
                file=sys.stderr,
            )
            return 2

    root = os.path.abspath(args.root)
    baseline_path = args.baseline or os.path.join(
        root, baseline_mod.DEFAULT_BASELINE_RELPATH
    )

    if args.write_baseline:
        # Both passes share one baseline file: regenerate from the
        # union so writing from either entry point never drops the
        # other pass's grandfathered entries.
        result = engine.run(
            root, paths=args.paths or None, baseline=None, select=select
        )
        project_result = engine.run_project(
            root, baseline=None, select=select
        )
        findings = result.findings + project_result.findings
        entries = baseline_mod.write_baseline(baseline_path, findings)
        print(
            "reprolint: wrote %d baseline entr(ies) covering %d finding(s) "
            "to %s" % (entries, len(findings), baseline_path),
            file=sys.stderr,
        )
        return 0

    baseline = None
    if not args.no_baseline:
        try:
            baseline = baseline_mod.load_baseline(baseline_path)
        except ValueError as exc:
            print("reprolint: %s" % exc, file=sys.stderr)
            return 2

    if args.project:
        result = engine.run_project(root, baseline=baseline, select=select)
    else:
        result = engine.run(
            root, paths=args.paths or None, baseline=baseline, select=select
        )

    if args.json:
        document = json.dumps(report.render_json(result), indent=2) + "\n"
        if args.json == "-":
            sys.stdout.write(document)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(document)

    text = report.render_text(result, verbose=not args.quiet)
    if text:
        print(text)
    return 0 if result.clean else 1


if __name__ == "__main__":
    raise SystemExit(main())
