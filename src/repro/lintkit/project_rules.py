"""Cross-module rules (RPL102-RPL103): whole-program invariants.

These rules consume the :class:`~repro.lintkit.modgraph.ModuleGraph`
and the :mod:`~repro.lintkit.dataflow` summaries — facts no single
file can provide.  They guard two cross-module contracts:

* **RPL102 fork-safety** — module-level mutable state in any module a
  worker task can import must be fork-aware (``os.register_at_fork``
  or reset in an ``adopt``/``fork``-named hook) or allowlisted with a
  rationale; otherwise state mutated in the parent leaks into forked
  workers nondeterministically.
* **RPL103 import-time environment reads** — ``envvars.get*`` at
  module scope freezes the value at import; tests that patch the
  environment afterwards are silently ignored.

Cache-key soundness needs no rule: the run configuration is one
explicit :class:`~repro.runconfig.RunConfig` that both cache keys
embed, and per-file rule RPL007 keeps simulation code from reading
the environment around it.

Allowlists are deliberate: every entry names its rationale, and new
entries are a reviewed diff, exactly like the fingerprint baseline.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lintkit.dataflow import (
    ProjectSummary,
    analyze_project,
    is_fork_hook_name,
)
from repro.lintkit.engine import Finding
from repro.lintkit.modgraph import ModuleGraph

#: code -> rule instance; populated by :func:`register_project`.
PROJECT_RULES: Dict[str, "ProjectRule"] = {}

#: Module-level mutable globals that are fork-safe by design.
FORK_SAFE_GLOBALS: Dict[str, str] = {
    "repro.runtime.jobs._WORKER_RUNTIMES": (
        "per-process memo keyed by the full runtime config; a forked "
        "child either finds the right entry or rebuilds it"
    ),
    "repro.failures.backends._CACHE": (
        "resolve() memo keyed by the backend spec string plus, for "
        "trace/fitted, the file's digest; values are immutable "
        "backends, so inherited entries stay correct"
    ),
    "repro.experiments.base.EXPERIMENTS": (
        "experiment registry written only by import-time decorators"
    ),
    "repro.obs.OBSERVER": (
        "process-wide observer slot; workers install their own via "
        "Tracer.adopt on fork"
    ),
}

class ProjectContext:
    """Everything a project rule consumes, built once per run."""

    def __init__(self, graph: ModuleGraph) -> None:
        self.graph = graph
        self.summary: ProjectSummary = analyze_project(graph)

    def finding(
        self, code: str, module: str, line: int, col: int, message: str
    ) -> Optional[Finding]:
        """A finding anchored in ``module``, or None if unlocatable."""
        info = self.graph.modules.get(module)
        if info is None:
            return None
        return Finding(
            code=code,
            path=info.source.relpath,
            line=line,
            col=col,
            message=message,
            content=info.source.line_text(line),
        )


def register_project(cls: Type["ProjectRule"]) -> Type["ProjectRule"]:
    rule = cls()
    if rule.code in PROJECT_RULES:
        raise ValueError("duplicate project rule code %s" % rule.code)
    PROJECT_RULES[rule.code] = rule
    return cls


class ProjectRule:
    """Base class: one cross-module invariant, one code."""

    code: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError


@register_project
class ForkSafety(ProjectRule):
    """RPL102: fork-hostile module state reachable from worker tasks."""

    code = "RPL102"
    title = "mutable module state reachable from worker tasks is not fork-aware"
    rationale = (
        "WorkerPool forks; module-level mutable state importable from "
        "a worker task is copied at fork time and then diverges "
        "silently.  Such state must be reset via os.register_at_fork "
        "or an adopt/fork hook, or allowlisted with a rationale."
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        summary = ctx.summary
        tasks = summary.worker_tasks()
        if not tasks:
            return
        task_modules = {
            module
            for module in (
                ctx.graph.module_of(task) for task in tasks
            )
            if module is not None
        }
        candidates = ctx.graph.reachable_modules(sorted(task_modules))
        for module in sorted(candidates):
            ms = summary.modules.get(module)
            if ms is None or ms.fork_aware:
                continue
            for name in sorted(ms.globals):
                var = ms.globals[name]
                if var.qualname in FORK_SAFE_GLOBALS:
                    continue
                mutations = [
                    (line, fn)
                    for line, fn in ms.mutations.get(var.qualname, [])
                    if not is_fork_hook_name(fn.rsplit(".", 1)[-1])
                ]
                if var.kind == "handle":
                    message = (
                        "module-level %s is a lock/handle; forked workers "
                        "inherit a broken copy — create it lazily per "
                        "process or reset it via os.register_at_fork"
                        % var.name
                    )
                elif mutations:
                    lines = ", ".join(
                        "%s:%d" % (fn.rsplit(".", 1)[-1], line)
                        for line, fn in sorted(mutations)[:3]
                    )
                    message = (
                        "module-level %s is mutated at runtime (%s) and is "
                        "importable from worker tasks (%s); reset it via "
                        "os.register_at_fork / an adopt hook or allowlist "
                        "it with a rationale"
                        % (var.name, lines, ", ".join(sorted(tasks)))
                    )
                else:
                    continue
                finding = ctx.finding(
                    self.code, module, var.line, var.col, message
                )
                if finding is not None:
                    yield finding


@register_project
class ImportTimeEnvRead(ProjectRule):
    """RPL103: ``envvars.get*`` executed at module scope."""

    code = "RPL103"
    title = "environment variable read at import time"
    rationale = (
        "A module-scope envvars.get*() freezes the value when the "
        "module is first imported; environment changes made later (a "
        "test's monkeypatch, a caller's export) are silently ignored.  "
        "Read inside the function that needs the value."
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        for module in sorted(ctx.summary.modules):
            ms = ctx.summary.modules[module]
            for read in ms.module_env_reads:
                finding = ctx.finding(
                    self.code,
                    module,
                    read.line,
                    read.col,
                    "%s is read at module scope; the value freezes at "
                    "import and overrides never apply — move the read "
                    "into the consuming function" % read.name,
                )
                if finding is not None:
                    yield finding


def project_rule_catalog() -> List[Tuple[str, str, str]]:
    """(code, title, rationale) rows, sorted by code."""
    return [
        (rule.code, rule.title, rule.rationale)
        for code, rule in sorted(PROJECT_RULES.items())
    ]


def run_project_rules(
    graph: ModuleGraph,
    select: Optional[List[str]] = None,
) -> Tuple[List[Finding], int]:
    """Run the project rules over ``graph``.

    Returns ``(findings, suppressed count)``.
    """
    ctx = ProjectContext(graph)
    by_relpath = {
        info.source.relpath: info.source for info in graph.modules.values()
    }
    findings: List[Finding] = []
    suppressed = 0
    for code in sorted(PROJECT_RULES):
        if select is not None and code not in select:
            continue
        rule = PROJECT_RULES[code]
        for finding in rule.check(ctx):
            source = by_relpath.get(finding.path)
            if source is not None and source.is_suppressed(finding):
                suppressed += 1
            else:
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings, suppressed


__all__ = [
    "FORK_SAFE_GLOBALS",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "project_rule_catalog",
    "register_project",
    "run_project_rules",
]
