"""Sharded scenario execution: partition, spill, merge.

A sharded run splits a fleet spec into :class:`ShardSpec` slices (whole
partition cells — see :mod:`repro.fleet.partition`), simulates each
slice as an independent job on the
:class:`~repro.runtime.pool.WorkerPool`, spills every shard's
:class:`~repro.core.columns.EventTable` to an ``.npz`` (see
:mod:`repro.core.colstore`), and merges the spills — memory-mapped, no
event objects — into one detection-sorted table that is byte-identical
to what the unsharded run produces.  Each worker also returns its slice
of the fleet's arrays, and the parent joins the slices in fleet order
into one ordinary :class:`~repro.fleet.fleet.Fleet`.

Each shard is cached individually in the runtime's
:class:`~repro.runtime.cache.ResultCache` under a content-addressed key
derived from (version, scenario, scale, seed, run config, spill schema,
cell set) — so a config change that only invalidates some shards (or a
deleted spill file) re-simulates exactly those shards, and a warm cache
re-runs nothing at all.  The run config's terms are
:meth:`~repro.runconfig.RunConfig.canonical`, the same ones
``Job.canonical()`` embeds, and the config itself travels in every
shard payload.

Restrictions: ``via_logs`` is rejected (the AutoSupport log pipeline
needs one coherent archive), and the merged result carries no injector
output (:class:`ShardedInjection`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import envvars, obs
from repro.core.colstore import (
    SPILL_SCHEMA_VERSION,
    load_table,
    merge_tables,
    save_table,
)
from repro.errors import SpecificationError
from repro.fleet.builder import system_id_for
from repro.fleet.fleet import Fleet
from repro.fleet.partition import cell_of, cells_of_shard, shard_of_cell
from repro.runconfig import RunConfig
from repro.topology.classes import SYSTEM_CLASS_ORDER, SystemClass
from repro.version import __version__


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One shard: the cells it owns and the systems they select.

    Attributes:
        index: shard position in the plan.
        n_shards: total shards in the plan.
        cells: partition cells this shard owns (ascending).
        selection: per class (by value, builder order), the global
            system indices to build — the ``selection`` handed to
            :func:`repro.fleet.builder.build_fleet`, as nested tuples so
            the spec is hashable and picklable.
    """

    index: int
    n_shards: int
    cells: Tuple[int, ...]
    selection: Tuple[Tuple[str, Tuple[int, ...]], ...]

    @property
    def n_systems(self) -> int:
        return sum(len(indices) for _, indices in self.selection)

    def selection_mapping(self) -> Dict[SystemClass, Tuple[int, ...]]:
        """The selection as the mapping ``build_fleet`` consumes."""
        return {
            SystemClass(value): indices for value, indices in self.selection
        }


@dataclasses.dataclass(frozen=True)
class ShardPlan:
    """A full partition of a fleet spec into shards.

    Built purely from system *ids* (a function of class and index —
    no fleet is materialized), so planning a paper-scale run costs
    microseconds.  Union of all shard selections = every system in the
    spec, each exactly once; with more shards than cells the surplus
    shards are empty.
    """

    n_shards: int
    shards: Tuple[ShardSpec, ...]

    @classmethod
    def build(cls, spec, n_shards: int) -> "ShardPlan":
        """Partition ``spec`` (a :class:`~repro.fleet.spec.FleetSpec`)."""
        if n_shards < 1:
            raise SpecificationError(
                "shard count must be >= 1, got %d" % n_shards
            )
        members: List[Dict[str, List[int]]] = [{} for _ in range(n_shards)]
        for system_class in SYSTEM_CLASS_ORDER:
            if system_class not in spec.class_specs:
                continue
            count = spec.scaled_systems(system_class)
            for index in range(count):
                cell = cell_of(system_id_for(system_class, index))
                shard = shard_of_cell(cell, n_shards)
                members[shard].setdefault(system_class.value, []).append(index)
        return cls(
            n_shards=n_shards,
            shards=tuple(
                ShardSpec(
                    index=index,
                    n_shards=n_shards,
                    cells=cells_of_shard(index, n_shards),
                    selection=tuple(
                        (value, tuple(indices))
                        for value, indices in by_class.items()
                    ),
                )
                for index, by_class in enumerate(members)
            ),
        )

    @property
    def n_systems(self) -> int:
        return sum(shard.n_systems for shard in self.shards)

    def non_empty(self) -> Tuple[ShardSpec, ...]:
        """The shards that actually hold systems."""
        return tuple(shard for shard in self.shards if shard.n_systems)


def shard_canonical(
    scenario: str, scale: float, seed: int, shard: ShardSpec, config: RunConfig
) -> str:
    """Canonical string a shard's cache key is derived from.

    Content-addressed by the *cells*, not the shard index or count: two
    plans that assign the same cells to a shard (e.g. a 32-shard and a
    64-shard run) share cached shard results.  Embeds the package
    version, the run config's terms (:meth:`RunConfig.canonical`, as
    ``Job.canonical()`` does), and the spill schema so any of them
    changing invalidates the entry.
    """
    terms = [
        "repro/%s shard" % __version__,
        "scenario=%s" % scenario,
        "scale=%r" % float(scale),
        "seed=%d" % int(seed),
        config.canonical(),
        "schema=%d" % SPILL_SCHEMA_VERSION,
        "cells=%s" % ",".join(str(cell) for cell in shard.cells),
    ]
    return " ".join(term for term in terms if term)


def shard_key(
    scenario: str, scale: float, seed: int, shard: ShardSpec, config: RunConfig
) -> str:
    """SHA-256 cache address of one shard's result."""
    return hashlib.sha256(
        shard_canonical(scenario, scale, seed, shard, config).encode("utf-8")
    ).hexdigest()


def spill_directory(runtime) -> str:
    """Where shard spills land: ``$REPRO_SHARD_SPILL_DIR``, else under
    the result cache (or the system temp dir for memory-only caches)."""
    env = envvars.get("REPRO_SHARD_SPILL_DIR")
    if env:
        return os.path.abspath(os.path.expanduser(env))
    if runtime.cache.persist:
        return os.path.join(runtime.cache.directory, "shards")
    return os.path.join(tempfile.gettempdir(), "repro-shards")


class ShardedInjection:
    """Placeholder for the merged result's missing injector output.

    Shard injections live and die inside the workers; consumers that
    need raw injector state (the log writer, the failure predictor) get
    a clear :class:`~repro.errors.AnalysisError` instead of an
    ``AttributeError`` on ``None``.
    """

    def __getattr__(self, name: str):
        if name.startswith("__") and name.endswith("__"):
            # Keep protocol probes (pickling, copying) on the normal
            # AttributeError path.
            raise AttributeError(name)
        from repro.errors import AnalysisError

        raise AnalysisError(
            "injection data (.%s) is not available on a sharded run: "
            "shard injections live and die in the worker processes; "
            "re-run without --shards for consumers that need raw "
            "injector output" % name
        )

    def __repr__(self) -> str:
        return "ShardedInjection()"


@dataclasses.dataclass
class ShardMeta:
    """What a shard worker hands back (and what the cache stores).

    The event table itself stays on disk at ``spill_path``; the meta
    carries the counts and the shard's slice of the fleet, which pickles
    as arrays (mostly one serial per disk).
    """

    key: str
    spill_path: str
    n_events: int
    n_recovered: int
    fleet: Fleet


def execute_shard_payload(payload: Dict[str, object]) -> ShardMeta:
    """Worker entry point: simulate one shard and spill its table.

    Module-level (picklable) for :class:`~repro.runtime.pool.WorkerPool`.
    The payload is the picklable dict :func:`run_sharded_scenario`
    builds: scenario name, scale, seed, run config, the shard's index
    and selection, and where to spill.  Wrapped in a ``runtime.shard.execute`` span
    (merged into the parent trace as this worker's lane) and bracketed
    by live-monitor heartbeats when ``$REPRO_STATUS_DIR`` is set.
    """
    from repro.obs.sampler import PROGRESS, begin_worker_task, end_worker_task
    from repro.simulate.scenario import run_scenario

    selection = {
        SystemClass(value): indices
        for value, indices in payload["selection"]  # type: ignore[union-attr]
    }
    index = payload.get("index")
    shard_index = int(index) if index is not None else -1
    n_systems = sum(len(indices) for indices in selection.values())
    begin_worker_task(shard=shard_index, role="shard", systems=n_systems)
    with obs.span(
        "runtime.shard.execute", shard=shard_index, systems=n_systems
    ):
        result = run_scenario(
            str(payload["scenario"]),
            scale=float(payload["scale"]),  # type: ignore[arg-type]
            seed=int(payload["seed"]),  # type: ignore[arg-type]
            selection=selection,
            config=payload["config"],  # type: ignore[arg-type]
        )
        table = result.dataset.table
        spill_path = str(payload["spill_path"])
        save_table(spill_path, table)
    PROGRESS.advance("shards_completed")
    end_worker_task(events=len(table))
    return ShardMeta(
        key=str(payload["key"]),
        spill_path=spill_path,
        n_events=len(table),
        n_recovered=result.injection.n_recovered(),
        fleet=result.fleet,
    )


def run_sharded_scenario(
    name: str,
    scale: float,
    seed: int,
    runtime,
    n_shards: int,
    via_logs: bool = False,
    config: Optional[RunConfig] = None,
):
    """Run a scenario sharded ``n_shards`` ways (see module docstring).

    Args:
        name: a key of :data:`repro.simulate.scenario.SCENARIOS`.
        scale / seed: as for ``run_scenario``; results match exactly.
        runtime: the :class:`~repro.runtime.context.RuntimeContext`
            providing the pool, the cache, and the metrics registry.
        n_shards: how many shards to split into (>= 1).
        via_logs: must be False; the log pipeline needs one archive.
        config: hazard backend of every shard (``RunConfig.from_env()``
            when None).

    Returns:
        A :class:`~repro.simulate.engine.SimulationResult` whose
        ``fleet`` equals the unsharded run's and whose ``injection`` is a
        :class:`ShardedInjection` placeholder (shard injections live
        and die in the workers).

    Raises:
        SpecificationError: unknown scenario, ``via_logs=True``, or a
            shard count below 1.
    """
    from repro.core.dataset import FailureDataset
    from repro.simulate.engine import SimulationResult
    from repro.simulate.scenario import SCENARIOS

    if via_logs:
        raise SpecificationError(
            "sharded runs cannot use the log pipeline (via_logs): the "
            "AutoSupport writer needs the whole fleet in one archive; "
            "re-run without --shards"
        )
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise SpecificationError(
            "unknown scenario %r (have: %s)" % (name, ", ".join(sorted(SCENARIOS)))
        ) from None
    config = config or RunConfig.from_env()
    spec = scenario.make_spec(scale)
    plan = ShardPlan.build(spec, n_shards)
    spill_dir = spill_directory(runtime)

    from repro.obs.sampler import PROGRESS

    metas: Dict[int, ShardMeta] = {}
    pending: List[Dict[str, object]] = []
    for shard in plan.non_empty():
        key = shard_key(name, scale, seed, shard, config)
        spill_path = os.path.join(spill_dir, key + ".npz")
        cached = runtime.cache.get(key)
        if isinstance(cached, ShardMeta) and os.path.exists(cached.spill_path):
            metas[shard.index] = cached
            PROGRESS.advance("shards_cached")
            continue
        # Cached meta without its spill (cleaned temp dir, pruned
        # cache): treat as a miss and re-simulate just this shard.
        pending.append(
            {
                "scenario": name,
                "scale": float(scale),
                "seed": int(seed),
                "config": config,
                "selection": shard.selection,
                "spill_path": spill_path,
                "key": key,
                "index": shard.index,
            }
        )
    with obs.span(
        "runtime.shards",
        scenario=name,
        shards=n_shards,
        executed=len(pending),
    ):
        if pending:
            results = runtime.pool().map(execute_shard_payload, pending)
            for payload, meta in zip(pending, results):
                metas[int(payload["index"])] = meta  # type: ignore[arg-type]
                runtime.cache.put(meta.key, meta)
                # One sharded scenario counts one sim.runs per shard
                # actually executed; warm re-runs stay at zero.
                runtime.metrics.increment("sim.runs")
        with obs.span("runtime.shards.merge", tables=len(metas)):
            table = merge_tables(
                load_table(metas[index].spill_path)
                for index in sorted(metas)
            )
            fleet = join_fleets(
                [metas[index].fleet for index in sorted(metas)],
                spec.duration_seconds,
            )
        dataset = FailureDataset(events=table, fleet=fleet)
    obs.inc("sim.events", len(table))
    return SimulationResult(
        spec=spec,
        seed=seed,
        fleet=fleet,
        injection=ShardedInjection(),
        dataset=dataset,
        archive=None,
    )


def join_fleets(parts: List[Fleet], duration_seconds: float) -> Fleet:
    """The shards' fleet slices as one fleet, systems in builder order.

    Exposure totals sum systems one by one in fleet order, so the order
    must be the unsharded one for the float totals to match exactly.
    """
    fleet = Fleet.concat(parts, duration_seconds)
    n = fleet.system_count
    rank = {system_class: r for r, system_class in enumerate(SYSTEM_CLASS_ORDER)}
    # Ids end in the global index within the class (system_id_for).
    index = np.fromiter(
        (int(system_id.rsplit("-", 1)[1]) for system_id in fleet.system_ids),
        dtype=np.int64,
        count=n,
    )
    classes = np.fromiter(
        (rank[system_class] for system_class in fleet.system_classes),
        dtype=np.int64,
        count=n,
    )
    return fleet.select(np.lexsort((index, classes)))


__all__ = [
    "ShardMeta",
    "ShardPlan",
    "ShardSpec",
    "ShardedInjection",
    "execute_shard_payload",
    "join_fleets",
    "run_sharded_scenario",
    "shard_canonical",
    "shard_key",
    "spill_directory",
]
