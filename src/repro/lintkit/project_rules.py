"""Cross-module rules (RPL101-RPL104): whole-program invariants.

These rules consume the :class:`~repro.lintkit.modgraph.ModuleGraph`,
the :mod:`~repro.lintkit.dataflow` summaries, and the
:class:`~repro.lintkit.callgraph.CallGraph` — facts no single file can
provide.  They guard the reproduction's three load-bearing
cross-module contracts:

* **RPL101 cache-key soundness** — every config attribute and
  environment variable that can influence a simulation result must be
  folded into ``Job.canonical()``; otherwise two differently-configured
  runs share a cache address and silently cross-serve results (the
  PR 7 engine-token and PR 10 hazard-token bug class).
* **RPL102 fork-safety** — module-level mutable state in any module a
  worker task can import must be fork-aware (``os.register_at_fork``
  or reset in an ``adopt``/``fork``-named hook) or allowlisted with a
  rationale; otherwise state mutated in the parent leaks into forked
  workers nondeterministically.
* **RPL103 import-time environment reads** — ``envvars.get*`` at
  module scope freezes the value at import; workers and tests never
  see later overrides.
* **RPL104 engine-dispatch discipline** — the two simulation engines
  are statistically, not byte, equivalent; every construction must go
  through ``make_engine`` so the ``REPRO_VECTOR_ENGINE`` switch (and
  its cache token) stays authoritative.

Allowlists are deliberate: every entry names its rationale, and new
entries are a reviewed diff, exactly like the fingerprint baseline.
"""

from __future__ import annotations

import re
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lintkit.callgraph import CallGraph, find_entry_points
from repro.lintkit.dataflow import (
    ProjectSummary,
    analyze_project,
    is_fork_hook_name,
)
from repro.lintkit.engine import Finding
from repro.lintkit.modgraph import ModuleGraph

#: code -> rule instance; populated by :func:`register_project`.
PROJECT_RULES: Dict[str, "ProjectRule"] = {}

#: Bare names that anchor the RPL101 reachability analysis.  Matching
#: by name (not path) keeps the anchor through file moves; losing every
#: anchor is itself reported, so the rule can never silently go blind.
ENTRY_POINT_NAMES = ("run_scenario", "execute_job")

#: Environment variables that may be read on the simulation path
#: without appearing in ``Job.canonical()`` — each with the reason it
#: cannot change a cached result's *content*.
CACHE_NEUTRAL_ENVVARS: Dict[str, str] = {
    "REPRO_CACHE_DIR": "where results are stored, not what they contain",
    "REPRO_SHARD_SPILL_DIR": "spill location for shard merge scratch files",
    "REPRO_TRACE_WORKERS": (
        "whether forked workers emit trace spans; telemetry only, "
        "never feeds the simulation"
    ),
}

#: Module-level mutable globals that are fork-safe by design.
FORK_SAFE_GLOBALS: Dict[str, str] = {
    "repro.runtime.jobs._WORKER_RUNTIMES": (
        "per-process memo keyed by the full runtime config; a forked "
        "child either finds the right entry or rebuilds it"
    ),
    "repro.failures.backends._CACHE": (
        "resolve() memo keyed by the backend spec string; values are "
        "immutable backends, so inherited entries stay correct"
    ),
    "repro.experiments.base.EXPERIMENTS": (
        "experiment registry written only by import-time decorators"
    ),
    "repro.obs.OBSERVER": (
        "process-wide observer slot; workers install their own via "
        "Tracer.adopt on fork"
    ),
}

#: Engine / injector classes whose direct construction RPL104 polices.
ENGINE_CLASS_NAMES = (
    "SimulationEngine",
    "VectorSimulationEngine",
    "FailureInjector",
    "VectorFailureInjector",
)

#: The one blessed dispatch function.
ENGINE_FACTORY_NAME = "make_engine"

_FIELD_TOKEN_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)=")


class ProjectContext:
    """Everything a project rule consumes, built once per run."""

    def __init__(self, graph: ModuleGraph) -> None:
        self.graph = graph
        self.summary: ProjectSummary = analyze_project(graph)
        self.callgraph = CallGraph(self.summary)

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
class CacheKeySoundness(ProjectRule):
    """RPL101: config influence missing from ``Job.canonical()``."""

    code = "RPL101"
    title = "config read on the simulation path missing from Job.canonical()"
    rationale = (
        "Results are content-addressed by Job.canonical(); a config "
        "attribute or environment variable read (transitively) from a "
        "simulation entry point but absent from the canonical string "
        "lets two differently-configured runs share a cache address "
        "and cross-serve stale results."
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        summary = ctx.summary
        cache_classes = [
            cls
            for cls in summary.classes.values()
            if cls.has_method("canonical")
        ]
        if not cache_classes:
            return
        entries = find_entry_points(summary, ENTRY_POINT_NAMES)
        if not entries:
            # The anchor is load-bearing: with no entry points the rule
            # would silently pass on everything, so losing them is
            # itself a violation (re-anchor ENTRY_POINT_NAMES).
            for cls in sorted(cache_classes, key=lambda c: c.qualname):
                finding = ctx.finding(
                    self.code,
                    cls.module,
                    cls.line,
                    0,
                    "cache-key class %s found but no simulation entry "
                    "points (%s) exist; RPL101 reachability is unanchored"
                    % (cls.name, "/".join(ENTRY_POINT_NAMES)),
                )
                if finding is not None:
                    yield finding
            return
        reachable = ctx.callgraph.reachable(entries)
        # One token set per cache-key class: field names mentioned as
        # `field=` plus every string (environment names appear as the
        # envvars.get*() literal arguments inside canonical()).
        tokens: Dict[str, set] = {}
        texts: Dict[str, str] = {}
        for cls in cache_classes:
            canonical = cls.methods["canonical"]
            mentioned = set()
            for text in canonical.strings:
                mentioned.update(_FIELD_TOKEN_RE.findall(text))
            tokens[cls.qualname] = mentioned
            texts[cls.qualname] = "\n".join(canonical.strings)
        fields = {cls.qualname: set(cls.fields) for cls in cache_classes}
        seen = set()
        for qualname in sorted(reachable):
            fn = summary.functions.get(qualname)
            if fn is None:
                continue
            for read in fn.attr_reads:
                if read.cls not in tokens:
                    continue
                if read.attr not in fields[read.cls]:
                    continue  # method access, not config state
                if read.attr in tokens[read.cls]:
                    continue
                key = (read.cls, read.attr)
                if key in seen:
                    continue
                seen.add(key)
                finding = ctx.finding(
                    self.code,
                    fn.module,
                    read.line,
                    read.col,
                    "%s.%s is read on the simulation path (in %s) but "
                    "never appears as '%s=' in %s.canonical(); add it "
                    "or the cache will cross-serve results"
                    % (
                        read.cls.rsplit(".", 1)[-1],
                        read.attr,
                        qualname,
                        read.attr,
                        read.cls.rsplit(".", 1)[-1],
                    ),
                )
                if finding is not None:
                    yield finding
            for read in fn.env_reads:
                if read.name in CACHE_NEUTRAL_ENVVARS:
                    continue
                if any(read.name in text for text in texts.values()):
                    continue
                key = ("env", read.name, qualname)
                if key in seen:
                    continue
                seen.add(key)
                finding = ctx.finding(
                    self.code,
                    fn.module,
                    read.line,
                    read.col,
                    "environment variable %s is read on the simulation "
                    "path (in %s) but is neither folded into canonical() "
                    "nor allowlisted as cache-neutral"
                    % (read.name, qualname),
                )
                if finding is not None:
                    yield finding


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
        "module is first imported; envvars.override() in tests and "
        "late exports in workers are silently ignored.  Read inside "
        "the function that needs the value."
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


@register_project
class EngineDispatch(ProjectRule):
    """RPL104: engine construction outside ``make_engine``."""

    code = "RPL104"
    title = "engine constructed directly instead of via make_engine()"
    rationale = (
        "The two engines are statistically, not byte, equivalent; "
        "make_engine() is the single point where REPRO_VECTOR_ENGINE "
        "selects one and the cache token records the choice.  Direct "
        "construction elsewhere bypasses both."
    )

    def check(self, ctx: ProjectContext) -> Iterator[Finding]:
        summary = ctx.summary
        engine_classes = {
            qualname
            for qualname, cls in summary.classes.items()
            if cls.name in ENGINE_CLASS_NAMES
        }
        if not engine_classes:
            return
        emitted = set()
        for qualname in sorted(summary.functions):
            fn = summary.functions[qualname]
            module_summary = summary.modules.get(fn.module)
            if module_summary is not None and any(
                cls.name in ENGINE_CLASS_NAMES
                for cls in module_summary.classes.values()
            ):
                continue  # defining modules wire their own parts
            if (
                module_summary is not None
                and ENGINE_FACTORY_NAME in module_summary.functions
            ):
                continue  # the factory module itself
            for site in fn.calls:
                if site.target is None:
                    continue
                target = ctx.graph.canonicalize(site.target)
                if target not in engine_classes:
                    continue
                key = (fn.module, site.line)
                if key in emitted:
                    continue
                emitted.add(key)
                finding = ctx.finding(
                    self.code,
                    fn.module,
                    site.line,
                    0,
                    "%s is constructed directly in %s; route through "
                    "make_engine() so the engine switch and its cache "
                    "token stay authoritative"
                    % (target.rsplit(".", 1)[-1], qualname),
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
) -> Tuple[List[Finding], int, ProjectContext]:
    """Run the project rules over ``graph``.

    Returns ``(findings, suppressed count, context)`` — the context is
    handed back so the CLI can export the call graph without a second
    analysis pass.
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
    return findings, suppressed, ctx


__all__ = [
    "CACHE_NEUTRAL_ENVVARS",
    "ENGINE_CLASS_NAMES",
    "ENTRY_POINT_NAMES",
    "FORK_SAFE_GLOBALS",
    "PROJECT_RULES",
    "ProjectContext",
    "ProjectRule",
    "project_rule_catalog",
    "register_project",
    "run_project_rules",
]
