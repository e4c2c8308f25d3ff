"""reprolint — AST-based invariant checking for this repository.

Ruff (or the ``tools/lint.py`` fallback) guards *style*; reprolint
guards *invariants* — the properties the reproduction's correctness
actually rests on and that no general-purpose linter knows about:

* determinism: every RNG is seeded (RPL001) and float reductions never
  iterate unordered ``set``/``dict`` containers (RPL005);
* sim-clock purity: simulation code never reads the wall clock
  (RPL002) — the only time axis is :mod:`repro.simulate.clock`;
* columnar-core discipline: analysis modules in :mod:`repro.core`
  aggregate over ``.table`` columns, never by re-materializing
  ``.events`` lists (RPL003);
* configuration hygiene: every ``REPRO_*`` environment variable is
  read through the :mod:`repro.envvars` registry (RPL004) under a
  registered name (RPL006), and simulation code reads none at all —
  the hazard backend arrives as a
  :class:`~repro.runconfig.RunConfig` (RPL007);
* generic footguns: mutable default arguments (RPL901) and bare
  ``except`` (RPL902).

A second, *whole-program* pass (``--project``) builds a module graph
and dataflow summaries over ``src/repro`` to check the cross-module
invariants no single file can witness: fork-safety of worker-reachable
module state (RPL102) and import-time environment reads (RPL103).  See
:mod:`repro.lintkit.project_rules`.

The engine is stdlib-only (``ast`` + ``tokenize``): it runs in a CI
job with no dependencies installed, and ``tools/lint.py`` can load it
without importing the numpy-heavy ``repro`` package init.  Findings
are suppressible per line (``# reprolint: disable=RPL003``) or per
file (``# reprolint: disable-file=RPL002``), and grandfathered
findings live in a committed content-fingerprint baseline
(``tools/reprolint_baseline.json``).  See docs/LINTING.md for the
rule catalog and workflows.

Entry points::

    python -m repro.lintkit                 # check the repo, exit 1 on findings
    python -m repro.lintkit src/repro/core  # explicit paths (pre-commit)
    python -m repro.lintkit --project       # whole-program pass (RPL102-104)
    python -m repro.lintkit --json out.json # machine-readable report
    python -m repro.lintkit --write-baseline
    make lint / make lint-baseline
"""

from repro.lintkit.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    render_baseline,
    write_baseline,
)
from repro.lintkit.cli import main as cli_main
from repro.lintkit.dataflow import ProjectSummary, analyze_project
from repro.lintkit.engine import (
    Finding,
    LintResult,
    SourceModule,
    check_file,
    check_source,
    iter_python_files,
    module_name_for,
    run,
    run_project,
)
from repro.lintkit.modgraph import ModuleGraph
from repro.lintkit.project_rules import (
    PROJECT_RULES,
    ProjectRule,
    run_project_rules,
)
from repro.lintkit.report import render_json, render_text
from repro.lintkit.rules import RULES, Rule, rule_catalog

__all__ = [
    "Finding",
    "LintResult",
    "ModuleGraph",
    "PROJECT_RULES",
    "ProjectRule",
    "ProjectSummary",
    "RULES",
    "Rule",
    "SourceModule",
    "analyze_project",
    "apply_baseline",
    "check_file",
    "check_source",
    "cli_main",
    "fingerprint",
    "iter_python_files",
    "load_baseline",
    "module_name_for",
    "render_baseline",
    "render_json",
    "render_text",
    "rule_catalog",
    "run",
    "run_project",
    "run_project_rules",
    "write_baseline",
]
