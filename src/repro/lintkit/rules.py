"""The reprolint ruleset: this repository's invariants, as AST checks.

Each rule is a small object with a code, a one-line title, a rationale
(rendered into docs/LINTING.md's catalog), a path-scope predicate
(:meth:`Rule.applies`), and a :meth:`Rule.check` walking one parsed
:class:`~repro.lintkit.engine.SourceModule`.  Registration happens at
import time through :func:`register`, so adding a rule is: write the
class, decorate it, document it.

Scoping is by *dotted module name* (``repro.core.afr``), derived from
the file path, so the same rules work on synthetic trees in tests as
long as the files sit under a ``repro/`` directory.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple, Type

from repro.lintkit.engine import Finding, SourceModule

#: code -> rule instance; populated by :func:`register` at import time.
RULES: Dict[str, "Rule"] = {}

#: The ``repro.envvars`` readers; their first argument names a variable.
ENVVAR_READERS = (
    "repro.envvars.get",
    "repro.envvars.get_flag",
    "repro.envvars.get_float",
    "repro.envvars.get_int",
)


def register(cls: Type["Rule"]) -> Type["Rule"]:
    rule = cls()
    if rule.code in RULES:
        raise ValueError("duplicate rule code %s" % rule.code)
    RULES[rule.code] = rule
    return cls


class Rule:
    """Base class: one invariant, one code."""

    code: str = ""
    title: str = ""
    rationale: str = ""

    def applies(self, module: SourceModule) -> bool:
        """Whether this rule is in scope for ``module`` (default: all)."""
        return True

    def check(self, module: SourceModule) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            code=self.code,
            path=module.relpath,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def _in_repro(module: SourceModule) -> bool:
    name = module.module
    return name is not None and (
        name == "repro" or name.startswith("repro.")
    )


def _under(module: SourceModule, *prefixes: str) -> bool:
    name = module.module or ""
    return any(
        name == prefix or name.startswith(prefix + ".")
        for prefix in prefixes
    )


@register
class UnseededRng(Rule):
    """RPL001: RNG constructed without a seed."""

    code = "RPL001"
    title = "unseeded RNG construction"
    rationale = (
        "Byte-identical reruns are the repo's headline guarantee; every "
        "generator must derive from repro.rng.RandomSource or take an "
        "explicit seed. `np.random.default_rng()` / `random.Random()` "
        "with no arguments seed from the OS and break reproducibility."
    )

    #: Canonical constructors that must receive at least one argument.
    SEEDABLE = (
        "numpy.random.default_rng",
        "numpy.random.RandomState",
        "numpy.random.Generator",  # Generator(PCG64()) has args; bare is unseeded
        "random.Random",
        "random.SystemRandom",
    )

    def applies(self, module: SourceModule) -> bool:
        return _in_repro(module)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if node.args or node.keywords:
                continue
            target = module.resolve(node.func)
            if target in self.SEEDABLE:
                yield self.finding(
                    module,
                    node,
                    "%s() constructed without a seed; derive streams "
                    "from repro.rng.RandomSource (or pass an explicit "
                    "seed)" % target,
                )


@register
class WallClockRead(Rule):
    """RPL002: wall-clock read outside the instrumentation layers."""

    code = "RPL002"
    title = "wall-clock read in simulation/analysis code"
    rationale = (
        "Simulation and analysis must be pure functions of (spec, "
        "seed); the only time axis is repro.simulate.clock. Wall-clock "
        "reads are reserved to the instrumentation layers (repro.obs, "
        "repro.runtime) and explicitly suppressed timing blocks."
    )

    #: Modules allowed to read the wall clock.  Prefix-matched: the
    #: ``repro.obs`` entry deliberately covers the whole observability
    #: package — including ``repro.obs.sampler`` (resource timelines,
    #: heartbeats) and ``repro.obs.monitor`` (the live run monitor),
    #: whose clock reads are instrumentation, never simulation input —
    #: so new obs modules need no inline suppressions.
    ALLOWED_PREFIXES = ("repro.obs", "repro.runtime", "repro.lintkit")

    WALL_CLOCK = (
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    )

    def applies(self, module: SourceModule) -> bool:
        return _in_repro(module) and not _under(
            module, *self.ALLOWED_PREFIXES
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute):
                target = module.resolve(node)
            elif isinstance(node, ast.Call) and isinstance(
                node.func, ast.Name
            ):
                target = module.resolve(node.func)
            else:
                continue
            if target in self.WALL_CLOCK:
                yield self.finding(
                    module,
                    node,
                    "%s reads the wall clock; simulation code must use "
                    "repro.simulate.clock.SimulationClock (instrumentation "
                    "belongs in repro.obs / repro.runtime)" % target,
                )


@register
class EventsMaterialization(Rule):
    """RPL003: ``.events`` list walking inside repro.core analyses."""

    code = "RPL003"
    title = ".events materialization in repro.core analysis code"
    rationale = (
        "The columnar EventTable keeps analyses vectorized; touching "
        "`.events` re-materializes per-event dataclasses and silently "
        "defeats it. Analysis modules aggregate over `.table` columns; "
        "the few consumers that need the event objects themselves "
        "(export, validation, what-if edits, reports) are grandfathered "
        "in the committed baseline."
    )

    #: The modules that *implement* the event storage are exempt.
    EXEMPT = ("repro.core.dataset", "repro.core.columns")

    def applies(self, module: SourceModule) -> bool:
        return _under(module, "repro.core") and not _under(
            module, *self.EXEMPT
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Attribute) or node.attr != "events":
                continue
            # A container reading its *own* events field (e.g. Burst
            # methods) is not dataset materialization.
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                continue
            yield self.finding(
                module,
                node,
                "materializes `.events` inside a repro.core analysis "
                "module; aggregate over `.table` columns (EventTable) "
                "instead",
            )


@register
class RawEnvironRead(Rule):
    """RPL004: raw ``os.environ`` access to a ``REPRO_*`` variable."""

    code = "RPL004"
    title = "raw os.environ access to a REPRO_* variable"
    rationale = (
        "Every REPRO_* variable is declared once in repro.envvars "
        "(typed parse, documented default, generated docs table); "
        "scattered os.environ reads drift from the docs and skip the "
        "registry's typo check."
    )

    ENVIRON_CALLS = (
        "os.environ.get",
        "os.environ.setdefault",
        "os.environ.pop",
        "os.getenv",
    )

    def applies(self, module: SourceModule) -> bool:
        return _in_repro(module) and module.module != "repro.envvars"

    def _is_repro_key(
        self, module: SourceModule, node: Optional[ast.expr]
    ) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.startswith("REPRO_")
        if isinstance(node, ast.Name):
            return module.constants.get(node.id, "").startswith("REPRO_")
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        message = (
            "raw os.environ access to a REPRO_* variable; read it "
            "through the repro.envvars registry"
        )
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                target = module.resolve(node.func)
                if (
                    target in self.ENVIRON_CALLS
                    and node.args
                    and self._is_repro_key(module, node.args[0])
                ):
                    yield self.finding(module, node, message)
            elif isinstance(node, ast.Subscript):
                if module.resolve(node.value) != "os.environ":
                    continue
                key = node.slice
                # py3.8 ast.Index compatibility is not needed (>=3.9).
                if self._is_repro_key(module, key):
                    yield self.finding(module, node, message)
            elif isinstance(node, ast.Compare):
                if len(node.comparators) != 1:
                    continue
                if not isinstance(node.ops[0], (ast.In, ast.NotIn)):
                    continue
                if module.resolve(
                    node.comparators[0]
                ) == "os.environ" and self._is_repro_key(module, node.left):
                    yield self.finding(module, node, message)


@register
class UnregisteredEnvVarRead(Rule):
    """RPL006: ``repro.envvars`` read of a name missing from the registry."""

    code = "RPL006"
    title = "envvars read of an unregistered REPRO_* name"
    rationale = (
        "repro.envvars.get raises KeyError for unregistered names, but "
        "only on the code path that actually reads the variable; a "
        "misspelled name in a rarely-taken branch ships silently. This "
        "rule cross-checks every literal name passed to the get/"
        "get_flag/get_float/get_int family against the registry at "
        "lint time."
    )

    def applies(self, module: SourceModule) -> bool:
        return _in_repro(module) and module.module != "repro.envvars"

    def _registry(self):
        names = getattr(self, "_names", False)
        if names is False:
            try:
                # Stdlib-only and safe under tools/lint.py's stub parent
                # module (repro/__init__ never executes).
                from repro import envvars

                names = frozenset(envvars.REGISTRY)
            except ImportError:  # synthetic trees without the package
                names = None
            self._names = names
        return names

    def check(self, module: SourceModule) -> Iterator[Finding]:
        names = self._registry()
        if names is None:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            if module.resolve(node.func) not in ENVVAR_READERS:
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                name = arg.value
            elif isinstance(arg, ast.Name):
                name = module.constants.get(arg.id)
            else:
                continue
            if name and name not in names:
                yield self.finding(
                    module,
                    node,
                    "envvars read of %r, which is not in "
                    "repro.envvars.REGISTRY; register it (and rerun "
                    "`make docs`) or fix the name" % (name,),
                )


@register
class SimulationEnvRead(Rule):
    """RPL007: environment read inside simulation code."""

    code = "RPL007"
    title = "environment read in simulation code"
    rationale = (
        "The hazard backend reaches simulation code in one "
        "explicit RunConfig, which every cache key embeds and every "
        "worker payload carries; a value read from the environment "
        "inside simulate/failures/fleet/core/experiments bypasses both, "
        "so two differently configured runs can share a cache address. "
        "Resolve it at the CLI/API boundary (repro.runconfig) and pass "
        "it in."
    )

    PACKAGES = (
        "repro.simulate",
        "repro.failures",
        "repro.fleet",
        "repro.core",
        "repro.experiments",
    )

    def applies(self, module: SourceModule) -> bool:
        return _under(module, *self.PACKAGES)

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and module.resolve(node.func) in ENVVAR_READERS
            ):
                yield self.finding(
                    module,
                    node,
                    "simulation code reads the environment; take the "
                    "value from the run's RunConfig (repro.runconfig)",
                )


@register
class UnorderedFloatReduction(Rule):
    """RPL005: float reduction over unordered set iteration."""

    code = "RPL005"
    title = "float reduction over unordered set iteration"
    rationale = (
        "Float addition is not associative; summing over a set iterates "
        "in hash order, which PYTHONHASHSEED perturbs for strings — the "
        "same fleet can produce different low bits run to run. Reduce "
        "over a sorted or insertion-ordered sequence instead."
    )

    REDUCERS = (
        "sum",
        "math.fsum",
        "numpy.sum",
        "numpy.nansum",
        "numpy.mean",
        "numpy.prod",
    )

    def applies(self, module: SourceModule) -> bool:
        return _in_repro(module)

    def _is_unordered(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("set", "frozenset")
        if isinstance(node, (ast.GeneratorExp, ast.ListComp)):
            return self._is_unordered(node.generators[0].iter)
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            target = module.resolve(node.func)
            if target not in self.REDUCERS:
                continue
            if self._is_unordered(node.args[0]):
                yield self.finding(
                    module,
                    node,
                    "%s over a set iterates in hash order and makes the "
                    "float result run-dependent; reduce over sorted(...) "
                    "or an insertion-ordered sequence" % (target,),
                )


@register
class MutableDefaultArg(Rule):
    """RPL901: mutable default argument."""

    code = "RPL901"
    title = "mutable default argument"
    rationale = (
        "Default values are evaluated once at def time; a list/dict/set "
        "default is shared across calls and accumulates state."
    )

    def _mutable(self, node: Optional[ast.expr]) -> bool:
        if isinstance(
            node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                   ast.SetComp)
        ):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in ("list", "dict", "set", "bytearray")
        return False

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults: List[Optional[ast.expr]] = list(node.args.defaults)
            defaults.extend(node.args.kw_defaults)
            for default in defaults:
                if default is not None and self._mutable(default):
                    yield self.finding(
                        module,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and create inside the function",
                    )


@register
class BareExcept(Rule):
    """RPL902: bare ``except:`` clause."""

    code = "RPL902"
    title = "bare except clause"
    rationale = (
        "`except:` swallows KeyboardInterrupt/SystemExit and hides "
        "real defects; catch the narrowest exception that the handler "
        "can actually recover from."
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node,
                    "bare `except:` catches SystemExit/KeyboardInterrupt; "
                    "name the exception (at minimum `except Exception`)",
                )


def rule_catalog() -> List[Tuple[str, str, str]]:
    """``(code, title, rationale)`` rows, sorted by code (docs/tests).

    Covers both registries: the per-file rules here and the
    whole-program rules (RPL102-RPL103) from
    :mod:`repro.lintkit.project_rules` — one catalog, one docs page.
    """
    from repro.lintkit.project_rules import project_rule_catalog

    rows = [
        (code, RULES[code].title, RULES[code].rationale)
        for code in sorted(RULES)
    ]
    rows.extend(project_rule_catalog())
    rows.sort(key=lambda row: row[0])
    return rows
