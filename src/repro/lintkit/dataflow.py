"""Lightweight dataflow facts per function, for the project rules.

For every function (and class body) in a :class:`ModuleGraph` this
pass records the facts the cross-module rules consume:

* **module-scope environment reads** — ``envvars.get*("REPRO_...")``
  executed at import time (RPL103: the value freezes at import);
* **module-level mutable state** and every site that mutates it from
  function scope (RPL102 fork-safety), plus whether the module is
  fork-aware (``os.register_at_fork`` / an ``adopt`` hook);
* **worker task functions** — first arguments of ``.map(fn, ...)``
  calls that resolve to project functions (the fork boundary RPL102
  measures import reachability from).

Everything is intraprocedural and name-based.  The pass never imports
the analyzed code.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Dict, List, Optional, Set, Tuple

from repro.lintkit.modgraph import ModuleGraph, ModuleInfo
from repro.lintkit.rules import ENVVAR_READERS

#: Constructors whose module-level result is mutable *container* state
#: (flagged by RPL102 only when something mutates it at runtime).
_CONTAINER_CTORS = {
    "dict",
    "list",
    "set",
    "bytearray",
    "collections.defaultdict",
    "collections.OrderedDict",
    "collections.Counter",
    "collections.deque",
}

#: Constructors that are unconditionally fork-hostile at module level
#: (a lock or handle inherited across ``fork`` is broken even if no
#: project code ever mutates the binding).
_HANDLE_CTORS = {
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Semaphore",
    "threading.Event",
    "threading.local",
    "open",
    "io.open",
}

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "remove",
    "setdefault",
    "update",
}

#: Functions whose body counts as a fork-reset hook: mutations housed
#: here make a global *fork-aware* instead of fork-hostile.
_FORK_HOOK_MARKERS = ("adopt", "fork", "reset")


@dataclasses.dataclass
class EnvRead:
    """One module-scope ``envvars.get*`` call with a known variable name."""

    name: str
    line: int
    col: int


@dataclasses.dataclass
class FunctionSummary:
    """Dataflow facts of one function / method / class body."""

    qualname: str
    module: str


@dataclasses.dataclass
class ClassSummary:
    """One class; its methods and body are indexed as functions."""

    qualname: str
    name: str


@dataclasses.dataclass
class GlobalVar:
    """One module-level mutable binding (RPL102 candidate)."""

    qualname: str
    module: str
    name: str
    line: int
    col: int
    kind: str  # "container" | "handle" | "instance"


@dataclasses.dataclass
class ModuleSummary:
    """Dataflow facts of one module."""

    module: str
    functions: Dict[str, FunctionSummary] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassSummary] = dataclasses.field(default_factory=dict)
    globals: Dict[str, GlobalVar] = dataclasses.field(default_factory=dict)
    #: canonical global qualname -> (line, enclosing function qualname).
    mutations: Dict[str, List[Tuple[int, str]]] = dataclasses.field(
        default_factory=dict
    )
    module_env_reads: List[EnvRead] = dataclasses.field(default_factory=list)
    fork_aware: bool = False
    #: Canonical names of functions handed to ``pool.map(fn, ...)``.
    worker_tasks: List[str] = dataclasses.field(default_factory=list)


@dataclasses.dataclass
class ProjectSummary:
    """The whole-program dataflow index the rules consume."""

    graph: ModuleGraph
    modules: Dict[str, ModuleSummary] = dataclasses.field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = dataclasses.field(default_factory=dict)
    classes: Dict[str, ClassSummary] = dataclasses.field(default_factory=dict)

    def worker_tasks(self) -> List[str]:
        tasks: List[str] = []
        for summary in self.modules.values():
            tasks.extend(summary.worker_tasks)
        return sorted(set(tasks))


def analyze_project(graph: ModuleGraph) -> ProjectSummary:
    """Run the dataflow pass over every module of ``graph``."""
    project = ProjectSummary(graph=graph)
    analyzer = _Analyzer(graph, project)
    for name in sorted(graph.modules):
        analyzer.analyze_module(graph.modules[name])
    return project


class _Analyzer:
    def __init__(self, graph: ModuleGraph, project: ProjectSummary) -> None:
        self.graph = graph
        self.project = project

    # -- module walk -------------------------------------------------

    def analyze_module(self, info: ModuleInfo) -> None:
        summary = ModuleSummary(module=info.name)
        self.project.modules[info.name] = summary
        for node in info.source.tree.body:
            self._module_statement(info, summary, node)
        # Facts that ignore scope: worker-task registration, fork hooks,
        # and mutations of module globals from any function body.
        for node in ast.walk(info.source.tree):
            if isinstance(node, ast.Call):
                self._check_fork_hook(info, summary, node)
                self._check_worker_task(info, summary, node)
        self._collect_mutations(info, summary)

    def _module_statement(
        self, info: ModuleInfo, summary: ModuleSummary, node: ast.stmt
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._add_function(info, summary, node, owner=None)
        elif isinstance(node, ast.ClassDef):
            self._add_class(info, summary, node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            self._module_assignment(info, summary, node)
            self._scan_module_scope(info, summary, node)
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            # Conditional module-level code still runs at import time.
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._module_statement(info, summary, child)
                else:
                    self._scan_module_scope(info, summary, child)
        else:
            self._scan_module_scope(info, summary, node)

    def _scan_module_scope(
        self, info: ModuleInfo, summary: ModuleSummary, node: ast.AST
    ) -> None:
        """Record import-time environment reads (outside any function)."""
        for child in _walk_scope(node):
            if isinstance(child, ast.Call):
                read = self._env_read(info, child)
                if read is not None:
                    summary.module_env_reads.append(read)

    # -- functions and classes ---------------------------------------

    def _add_function(
        self,
        info: ModuleInfo,
        summary: ModuleSummary,
        node: ast.AST,
        owner: Optional[ClassSummary],
    ) -> None:
        prefix = owner.qualname if owner is not None else info.name
        fn = FunctionSummary(
            qualname="%s.%s" % (prefix, node.name), module=info.name
        )
        if owner is None:
            summary.functions[node.name] = fn
        self.project.functions[fn.qualname] = fn

    def _add_class(
        self, info: ModuleInfo, summary: ModuleSummary, node: ast.ClassDef
    ) -> None:
        qualname = "%s.%s" % (info.name, node.name)
        cls = ClassSummary(qualname=qualname, name=node.name)
        body = FunctionSummary(qualname="%s.<body>" % qualname, module=info.name)
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, summary, child, owner=cls)
        self.project.functions[body.qualname] = body
        summary.classes[node.name] = cls
        self.project.classes[qualname] = cls

    def _resolve_callable(
        self, info: ModuleInfo, func: ast.expr
    ) -> Optional[str]:
        parts: List[str] = []
        probe = func
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if not isinstance(probe, ast.Name):
            return None
        parts.append(probe.id)
        parts.reverse()
        resolved = self.graph.qualify(info.name, ".".join(parts))
        if resolved == ".".join(parts) and parts[0] not in info.bindings:
            return None  # local variable or builtin
        return resolved

    def _env_read(self, info: ModuleInfo, call: ast.Call) -> Optional[EnvRead]:
        target = self._resolve_callable(info, call.func)
        if target not in ENVVAR_READERS or not call.args:
            return None
        arg = call.args[0]
        name: Optional[str] = None
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            name = arg.value
        elif isinstance(arg, ast.Name):
            name = info.source.constants.get(arg.id)
        if name is None:
            return None
        return EnvRead(name=name, line=call.lineno, col=call.col_offset)

    # -- module-level state ------------------------------------------

    def _module_assignment(
        self, info: ModuleInfo, summary: ModuleSummary, node: ast.stmt
    ) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            return
        kind = self._mutable_kind(info, value)
        if kind is None:
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            qualname = "%s.%s" % (info.name, target.id)
            summary.globals[target.id] = GlobalVar(
                qualname=qualname,
                module=info.name,
                name=target.id,
                line=node.lineno,
                col=node.col_offset,
                kind=kind,
            )

    def _mutable_kind(self, info: ModuleInfo, value: ast.expr) -> Optional[str]:
        if isinstance(
            value,
            (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp),
        ):
            return "container"
        if not isinstance(value, ast.Call):
            return None
        target = self._resolve_callable(info, value.func)
        if target is None and isinstance(value.func, ast.Name):
            target = value.func.id
        if target in _HANDLE_CTORS:
            return "handle"
        if target in _CONTAINER_CTORS:
            return "container"
        if target is not None and target in self.project.classes:
            return "instance"
        if (
            target is not None
            and self.graph.module_of(target) is not None
        ):
            return "instance"  # project call not yet indexed (forward ref)
        return None

    def _collect_mutations(
        self, info: ModuleInfo, summary: ModuleSummary
    ) -> None:
        """Find runtime mutations of module-level bindings, project-wide."""
        for node in info.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._collect_fn_mutations(info, summary, node, node.name)
            elif isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._collect_fn_mutations(
                            info,
                            summary,
                            child,
                            "%s.%s" % (node.name, child.name),
                        )

    def _collect_fn_mutations(
        self,
        info: ModuleInfo,
        summary: ModuleSummary,
        node: ast.AST,
        fn_name: str,
    ) -> None:
        fn_qualname = "%s.%s" % (info.name, fn_name)
        declared_global: Set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
        for child in ast.walk(node):
            name: Optional[str] = None
            if isinstance(child, (ast.Assign, ast.AugAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                for target in targets:
                    if isinstance(
                        target, (ast.Subscript, ast.Attribute)
                    ) and isinstance(target.value, ast.Name):
                        name = target.value.id
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        name = target.id
            elif isinstance(child, ast.Delete):
                for target in child.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        name = target.value.id
            elif (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in _MUTATOR_METHODS
                and isinstance(child.func.value, ast.Name)
            ):
                name = child.func.value.id
            if name is None:
                continue
            qualname = self.graph.qualify(info.name, name)
            if qualname == name:
                continue  # a local variable, not a module binding
            self.project.modules.setdefault(
                info.name, summary
            )
            mutations = (
                summary.mutations
                if self.graph.module_of(qualname) == info.name
                else self._foreign_mutations(qualname)
            )
            mutations.setdefault(qualname, []).append(
                (child.lineno, fn_qualname)
            )

    def _foreign_mutations(self, qualname: str):
        owner = self.graph.module_of(qualname)
        if owner is None:
            return {}  # throwaway dict: not project state
        owner_summary = self.project.modules.get(owner)
        if owner_summary is None:
            owner_summary = ModuleSummary(module=owner)
            self.project.modules[owner] = owner_summary
        return owner_summary.mutations

    # -- fork hooks and worker tasks ---------------------------------

    def _check_fork_hook(
        self, info: ModuleInfo, summary: ModuleSummary, call: ast.Call
    ) -> None:
        target = self._resolve_callable(info, call.func)
        if target == "os.register_at_fork":
            summary.fork_aware = True

    def _check_worker_task(
        self, info: ModuleInfo, summary: ModuleSummary, call: ast.Call
    ) -> None:
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "map"
            and call.args
        ):
            return
        target = self._resolve_callable(info, call.args[0])
        if target is None:
            return
        if self.graph.module_of(target) is not None:
            summary.worker_tasks.append(self.graph.canonicalize(target))


def is_fork_hook_name(name: str) -> bool:
    """Whether a function name marks a fork-reset hook (RPL102)."""
    lowered = name.lower()
    return any(marker in lowered for marker in _FORK_HOOK_MARKERS)


def _walk_scope(node: ast.AST) -> List[ast.AST]:
    """Nodes of a statement excluding nested function/lambda bodies."""
    found: List[ast.AST] = []
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        found.append(current)
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(current))
    return found


__all__ = [
    "ClassSummary",
    "EnvRead",
    "FunctionSummary",
    "GlobalVar",
    "ModuleSummary",
    "ProjectSummary",
    "analyze_project",
    "is_fork_hook_name",
]
