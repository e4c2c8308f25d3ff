"""Project module graph: import resolution over the ``repro`` package.

The whole-program rules (RPL102-RPL103, see
:mod:`repro.lintkit.project_rules`) need facts no single file can
provide: which module a name *canonically* lives in (chasing
re-exports like ``from repro.simulate import run_scenario`` back to
``repro.simulate.scenario.run_scenario``), which modules a worker
entry point transitively imports, and where a dotted call target is
defined.  :class:`ModuleGraph` supplies exactly that — built purely
from source text (``ast``), never by importing the analyzed code, so
the analyzer runs in the dependency-free CI lint job.

Name resolution is *approximate by construction*: it tracks straight
``import``/``from``-import bindings (absolute and relative), top-level
definitions, and re-export chains.  Dynamic tricks (``__getattr__``,
``globals()[...]``, star imports) resolve to nothing, which the rules
treat as "not a project symbol".
"""

from __future__ import annotations

import ast
import dataclasses
import os
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lintkit.engine import (
    Finding,
    SourceModule,
    iter_python_files,
    parse_source,
)

#: Package directories a project scan loads, relative to the root.
DEFAULT_PACKAGE_DIRS = (os.path.join("src", "repro"),)

#: Re-export chains longer than this are cycles; stop resolving.
_MAX_CHASE = 16


@dataclasses.dataclass
class ModuleInfo:
    """One project module: parsed source plus resolution tables.

    Attributes:
        name: dotted module name (``repro.simulate.scenario``).
        source: the parsed :class:`SourceModule`.
        is_package: whether the file is an ``__init__.py``.
        bindings: local name -> dotted target.  Covers imports
            (absolute and relative) and top-level definitions; a
            module's own symbol binds to itself (``f`` ->
            ``repro.mod.f``), which is the fixed point re-export
            chasing stops at.
        imports: project modules this file imports anywhere (module
            scope and function scope both count — workers resolve
            lazy imports at task time, so reachability must too).
    """

    name: str
    source: SourceModule
    is_package: bool
    bindings: Dict[str, str] = dataclasses.field(default_factory=dict)
    imports: Set[str] = dataclasses.field(default_factory=set)


class ModuleGraph:
    """All modules of one project package, with name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        #: Files that failed to parse (reported as RPL000 findings).
        self.parse_errors: List[Finding] = []

    # -- construction ------------------------------------------------

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "ModuleGraph":
        """Build a graph from in-memory ``{relpath: source}`` texts.

        The test-suite entry: seeded-mutation self-tests synthesize a
        miniature package and assert each rule fires on it.
        """
        graph = cls()
        for relpath in sorted(sources):
            graph._add_file(relpath, sources[relpath])
        graph._link()
        return graph

    @classmethod
    def load(
        cls, root: str, package_dirs: Optional[Sequence[str]] = None
    ) -> "ModuleGraph":
        """Build a graph from the package directories under ``root``."""
        graph = cls()
        dirs = [
            d
            for d in (package_dirs or DEFAULT_PACKAGE_DIRS)
            if os.path.isdir(os.path.join(root, d))
        ]
        for path in iter_python_files(root, dirs):
            relpath = os.path.relpath(path, root)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except (OSError, UnicodeDecodeError) as exc:
                graph.parse_errors.append(
                    Finding(
                        code="RPL000",
                        path=relpath.replace(os.sep, "/"),
                        line=0,
                        col=0,
                        message="unreadable: %s" % exc,
                    )
                )
                continue
            graph._add_file(relpath, text)
        graph._link()
        return graph

    def _add_file(self, relpath: str, text: str) -> None:
        module, parse_error = parse_source(text, relpath)
        if parse_error is not None:
            self.parse_errors.append(parse_error)
            return
        assert module is not None
        if module.module is None:
            return  # not under a repro package directory
        self.modules[module.module] = ModuleInfo(
            name=module.module,
            source=module,
            is_package=relpath.replace(os.sep, "/").endswith("__init__.py"),
        )

    def _link(self) -> None:
        for info in self.modules.values():
            self._collect_bindings(info)

    def _relative_base(self, info: ModuleInfo, level: int) -> Optional[str]:
        """The package ``from ...`` resolves against, for ``level`` dots."""
        parts = info.name.split(".")
        if not info.is_package:
            parts = parts[:-1]  # plain modules resolve against their package
        drop = level - 1
        if drop > len(parts):
            return None
        if drop:
            parts = parts[:-drop]
        return ".".join(parts) if parts else None

    def _collect_bindings(self, info: ModuleInfo) -> None:
        bindings = info.bindings
        # Top-level definitions first: later import statements may
        # legitimately rebind a name, and last-wins matches Python.
        for node in info.source.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bindings[node.name] = "%s.%s" % (info.name, node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bindings[target.id] = "%s.%s" % (info.name, target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                bindings[node.target.id] = "%s.%s" % (info.name, node.target.id)
        for node in ast.walk(info.source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        bindings[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        bindings.setdefault(top, top)
                    self._note_import(info, alias.name)
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._relative_base(info, node.level)
                    if base is None:
                        continue
                    if node.module:
                        base = "%s.%s" % (base, node.module)
                else:
                    base = node.module
                if base is None:
                    continue
                self._note_import(info, base)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = "%s.%s" % (base, alias.name)
                    bindings[alias.asname or alias.name] = target
                    if target in self.modules:  # `from pkg import submodule`
                        self._note_import(info, target)

    def _note_import(self, info: ModuleInfo, dotted: str) -> None:
        """Record the project module ``dotted`` refers to, if any."""
        parts = dotted.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                info.imports.add(prefix)
                return

    # -- resolution --------------------------------------------------

    def qualify(self, module: str, dotted: str) -> str:
        """Resolve a dotted usage inside ``module`` to a canonical name.

        ``run_scenario`` used under ``from repro.simulate import
        run_scenario`` resolves to
        ``repro.simulate.scenario.run_scenario``.  Names the graph
        cannot place (builtins, external packages, local variables)
        come back unchanged.
        """
        info = self.modules.get(module)
        if info is None:
            return dotted
        parts = dotted.split(".")
        target = info.bindings.get(parts[0])
        if target is None:
            return dotted
        return self.canonicalize(".".join([target] + parts[1:]))

    def canonicalize(self, qualname: str, _depth: int = 0) -> str:
        """Chase re-export chains until a defining module is reached."""
        if _depth > _MAX_CHASE:
            return qualname
        parts = qualname.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            info = self.modules.get(prefix)
            if info is None:
                continue
            rest = parts[i:]
            if not rest:
                return prefix
            bound = info.bindings.get(rest[0])
            own = "%s.%s" % (prefix, rest[0])
            if bound is not None and bound != own:
                return self.canonicalize(
                    ".".join([bound] + rest[1:]), _depth + 1
                )
            return qualname
        return qualname

    def module_of(self, qualname: str) -> Optional[str]:
        """The longest module prefix of a canonical qualname."""
        parts = qualname.split(".")
        for i in range(len(parts), 0, -1):
            prefix = ".".join(parts[:i])
            if prefix in self.modules:
                return prefix
        return None

    # -- reachability ------------------------------------------------

    def reachable_modules(self, roots: Iterable[str]) -> Set[str]:
        """Modules transitively imported from ``roots`` (inclusive)."""
        seen: Set[str] = set()
        stack = [name for name in roots if name in self.modules]
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            stack.extend(
                imported
                for imported in self.modules[name].imports
                if imported not in seen
            )
        return seen


__all__ = [
    "DEFAULT_PACKAGE_DIRS",
    "ModuleGraph",
    "ModuleInfo",
]
