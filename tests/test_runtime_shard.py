"""Sharded runs: plan edges, byte-identity goldens, incremental caching.

The differential goldens here are the PR's acceptance gate: a sharded
run's merged event table — and every analysis computed from it — must
be *byte-identical* to the unsharded run, at multiple seeds and shard
counts.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.core.colstore import save_table
from repro.errors import AnalysisError, SpecificationError
from repro.experiments import ExperimentContext, run_experiment
from repro.fleet.partition import NUM_CELLS, cell_of, cells_of_shard, shard_of_cell
from repro.fleet.spec import FleetSpec
from repro.runconfig import RunConfig
from repro.runtime import (
    Job,
    RuntimeConfig,
    RuntimeContext,
    ShardPlan,
    run_sharded_scenario,
)
from repro.runtime.shard import ShardedInjection, shard_key
from repro.simulate.scenario import run_scenario
from tests.test_core_colstore import assert_tables_identical

SCALE = 0.01
SEEDS = (101, 202, 303)


def make_runtime(tmp_path, jobs: int = 1) -> RuntimeContext:
    return RuntimeContext(
        RuntimeConfig(jobs=jobs, cache_dir=str(tmp_path / "cache"))
    )


@pytest.fixture(autouse=True)
def isolated_spill_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_SPILL_DIR", str(tmp_path / "spills"))


class TestPartition:
    def test_cells_are_stable_hashes(self):
        assert cell_of("nl-00000") == cell_of("nl-00000")
        assert 0 <= cell_of("nl-00000") < NUM_CELLS

    def test_every_cell_lands_in_exactly_one_shard(self):
        for n_shards in (1, 2, 3, 7, NUM_CELLS, NUM_CELLS + 5):
            owners = [shard_of_cell(cell, n_shards) for cell in range(NUM_CELLS)]
            assert all(0 <= owner < n_shards for owner in owners)
            gathered = sorted(
                cell
                for shard in range(n_shards)
                for cell in cells_of_shard(shard, n_shards)
            )
            assert gathered == list(range(NUM_CELLS))

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            shard_of_cell(0, 0)


class TestShardPlan:
    def test_single_shard_holds_everything(self):
        spec = FleetSpec.paper_default(scale=SCALE)
        plan = ShardPlan.build(spec, 1)
        assert plan.n_shards == 1
        assert plan.shards[0].cells == tuple(range(NUM_CELLS))
        total = sum(
            spec.scaled_systems(system_class)
            for system_class in spec.class_specs
        )
        assert plan.n_systems == total == plan.shards[0].n_systems

    def test_shards_partition_the_fleet(self):
        spec = FleetSpec.paper_default(scale=SCALE)
        full = ShardPlan.build(spec, 1).shards[0].selection_mapping()
        plan = ShardPlan.build(spec, 4)
        seen: dict = {}
        for shard in plan.shards:
            for system_class, indices in shard.selection_mapping().items():
                assert not set(indices) & set(seen.get(system_class, ()))
                seen.setdefault(system_class, set()).update(indices)
        assert {
            system_class: set(indices) for system_class, indices in full.items()
        } == seen

    def test_more_shards_than_cells_leaves_surplus_empty(self):
        spec = FleetSpec.paper_default(scale=0.002)
        plan = ShardPlan.build(spec, NUM_CELLS + 8)
        assert len(plan.shards) == NUM_CELLS + 8
        empty = [shard for shard in plan.shards if shard.n_systems == 0]
        assert empty  # surplus shards exist and are empty
        assert plan.n_systems == ShardPlan.build(spec, 1).n_systems

    def test_more_shards_than_systems(self):
        # A tiny fleet: some shards own cells but no systems.
        spec = FleetSpec.paper_default(scale=0.0003)
        n_shards = 16
        plan = ShardPlan.build(spec, n_shards)
        assert plan.n_systems >= 1
        assert any(shard.n_systems == 0 for shard in plan.shards)
        assert sum(shard.n_systems for shard in plan.non_empty()) == plan.n_systems

    def test_zero_shards_rejected(self):
        with pytest.raises(SpecificationError):
            ShardPlan.build(FleetSpec.paper_default(scale=0.002), 0)

    def test_shard_keys_stable_across_shard_counts(self):
        # Keys are content-addressed by cells: a shard owning the same
        # cells under different plan fan-outs shares its cache entry.
        spec = FleetSpec.paper_default(scale=SCALE)
        by_cells = {}
        for n_shards in (NUM_CELLS, NUM_CELLS * 2):
            for shard in ShardPlan.build(spec, n_shards).non_empty():
                key = shard_key("paper-default", SCALE, 101, shard, RunConfig())
                if shard.cells in by_cells:
                    assert by_cells[shard.cells] == key
                by_cells[shard.cells] = key
        # And distinct cell sets never collide.
        assert len(set(by_cells.values())) == len(by_cells)

    def test_shard_keys_depend_on_seed_and_scale(self):
        spec = FleetSpec.paper_default(scale=SCALE)
        shard = ShardPlan.build(spec, 4).shards[0]
        config = RunConfig()
        baseline = shard_key("paper-default", SCALE, 101, shard, config)
        assert shard_key("paper-default", SCALE, 102, shard, config) != baseline
        assert shard_key("paper-default", SCALE * 2, 101, shard, config) != baseline
        assert shard_key("no-shocks", SCALE, 101, shard, config) != baseline


class TestShardKeyRunConfig:
    """A hazard backend change must miss every cached shard.

    The shard key once rendered no hazard term, so a ``trace:`` run on
    a cache warmed by an analytic run reused the analytic shards and
    printed the analytic result.
    """

    def test_trace_run_does_not_reuse_analytic_shards(self, tmp_path):
        trace_path = str(tmp_path / "trace.npz")
        recorded = run_scenario(
            "paper-default", scale=0.002, seed=5, config=RunConfig()
        )
        save_table(trace_path, recorded.dataset.table)
        analytic = RunConfig()
        traced = RunConfig(hazard_backend="trace:" + trace_path)

        def sharded(runtime, config):
            return run_sharded_scenario(
                "paper-default", scale=SCALE, seed=3, runtime=runtime,
                n_shards=2, config=config,
            )

        sharded(make_runtime(tmp_path), analytic)
        rerun = make_runtime(tmp_path)
        result = sharded(rerun, traced)
        assert rerun.metrics.count("sim.runs") == 2
        fresh = sharded(make_runtime(tmp_path / "fresh"), traced)
        assert (
            result.dataset.table.content_digest()
            == fresh.dataset.table.content_digest()
        )
        shard = ShardPlan.build(FleetSpec.paper_default(scale=SCALE), 2).shards[0]
        assert shard_key("paper-default", SCALE, 3, shard, analytic) != shard_key(
            "paper-default", SCALE, 3, shard, traced
        )


class TestJobSharding:
    def test_unsharded_canonical_unchanged(self):
        # Existing cache entries stay addressable: shards=1 adds no term.
        job = Job.scenario("paper-default", 0.01, 1)
        assert "shards" not in job.canonical()
        assert job.shards == 1

    def test_sharded_canonical_differs(self):
        base = Job.scenario("paper-default", 0.01, 1)
        sharded = Job.scenario("paper-default", 0.01, 1, shards=4)
        assert base.key() != sharded.key()
        assert "shards=4" in sharded.canonical()
        assert "/x4" in sharded.describe()

    def test_simulation_job_propagates_shards(self):
        job = Job.experiment("fig4a", 0.01, 1, shards=4)
        assert job.simulation_job().shards == 4

    def test_invalid_shards_rejected(self):
        with pytest.raises(SpecificationError):
            Job.scenario("paper-default", 0.01, 1, shards=0)


class TestByteIdentity:
    def test_sharded_table_matches_unsharded(self, tmp_path):
        for seed in SEEDS:
            base = run_scenario("paper-default", scale=SCALE, seed=seed)
            sharded = run_sharded_scenario(
                "paper-default",
                scale=SCALE,
                seed=seed,
                runtime=make_runtime(tmp_path),
                n_shards=4,
            )
            assert_tables_identical(base.dataset.table, sharded.dataset.table)

    def test_fleet_aggregates_match(self, tmp_path):
        seed = SEEDS[0]
        base = run_scenario("paper-default", scale=SCALE, seed=seed)
        sharded = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=seed,
            runtime=make_runtime(tmp_path),
            n_shards=4,
        )
        assert base.fleet.system_count == sharded.fleet.system_count
        assert base.fleet.shelf_count == sharded.fleet.shelf_count
        assert base.fleet.raid_group_count == sharded.fleet.raid_group_count
        assert base.fleet.disk_count_ever == sharded.fleet.disk_count_ever
        # Bit-equal float: the joined fleet sums systems in the unsharded order.
        assert (
            base.fleet.disk_exposure_seconds()
            == sharded.fleet.disk_exposure_seconds()
        )

    def test_shard_count_does_not_matter(self, tmp_path):
        seed = SEEDS[1]
        reference = None
        for n_shards in (1, 2, 8):
            sharded = run_sharded_scenario(
                "paper-default",
                scale=SCALE,
                seed=seed,
                runtime=make_runtime(tmp_path / str(n_shards)),
                n_shards=n_shards,
            )
            if reference is None:
                reference = sharded.dataset.table
            else:
                assert_tables_identical(reference, sharded.dataset.table)


class TestAnalysesGoldens:
    """Sharded == unsharded for the headline analyses, 3 seeds each."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("experiment_id", ["fig4a", "fig9a", "fig10a"])
    def test_experiment_outputs_identical(self, tmp_path, experiment_id, seed):
        base_ctx = ExperimentContext(scale=SCALE, seed=seed)
        shard_ctx = ExperimentContext(
            scale=SCALE,
            seed=seed,
            shards=4,
            runtime=make_runtime(tmp_path),
        )
        base = run_experiment(experiment_id, base_ctx)
        sharded = run_experiment(experiment_id, shard_ctx)
        assert base.text == sharded.text
        assert base.data == sharded.data
        assert base.checks == sharded.checks

    @pytest.mark.parametrize("seed", SEEDS)
    def test_findings_identical(self, tmp_path, seed):
        from repro.core.findings import evaluate_findings
        from repro.core.report import format_findings

        base = run_scenario("paper-default", scale=SCALE, seed=seed)
        sharded = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=seed,
            runtime=make_runtime(tmp_path),
            n_shards=4,
        )
        assert format_findings(evaluate_findings(base.dataset)) == (
            format_findings(evaluate_findings(sharded.dataset))
        )


class TestIncrementalCache:
    def test_warm_cache_runs_no_simulations(self, tmp_path):
        runtime = make_runtime(tmp_path)
        run_sharded_scenario(
            "paper-default", scale=SCALE, seed=7, runtime=runtime, n_shards=3
        )
        cold = runtime.metrics.snapshot()["counters"]
        assert cold.get("sim.runs") == 3
        warm_runtime = make_runtime(tmp_path)
        run_sharded_scenario(
            "paper-default", scale=SCALE, seed=7, runtime=warm_runtime, n_shards=3
        )
        warm = warm_runtime.metrics.snapshot()["counters"]
        assert warm.get("sim.runs") is None
        assert warm.get("cache.hit") == 3

    def test_deleted_spill_resimulates_exactly_that_shard(
        self, tmp_path, monkeypatch
    ):
        spill_dir = str(tmp_path / "spills")
        runtime = make_runtime(tmp_path)
        first = run_sharded_scenario(
            "paper-default", scale=SCALE, seed=7, runtime=runtime, n_shards=3
        )
        spills = sorted(glob.glob(os.path.join(spill_dir, "*.npz")))
        assert len(spills) == 3
        os.remove(spills[0])
        rerun_runtime = make_runtime(tmp_path)
        second = run_sharded_scenario(
            "paper-default", scale=SCALE, seed=7, runtime=rerun_runtime, n_shards=3
        )
        counters = rerun_runtime.metrics.snapshot()["counters"]
        # The ShardMeta entries all hit, but the shard whose spill file
        # vanished is treated as a miss and re-simulated — exactly once.
        assert counters.get("sim.runs") == 1
        assert counters.get("cache.store") == 1
        assert_tables_identical(first.dataset.table, second.dataset.table)

    def test_seed_change_invalidates_every_shard(self, tmp_path):
        runtime = make_runtime(tmp_path)
        run_sharded_scenario(
            "paper-default", scale=SCALE, seed=7, runtime=runtime, n_shards=3
        )
        other = make_runtime(tmp_path)
        run_sharded_scenario(
            "paper-default", scale=SCALE, seed=8, runtime=other, n_shards=3
        )
        assert other.metrics.snapshot()["counters"].get("sim.runs") == 3


class TestRuntimeIntegration:
    def test_run_scenario_through_context(self, tmp_path):
        runtime = make_runtime(tmp_path)
        result = runtime.run_scenario(
            "paper-default", scale=SCALE, seed=7, shards=3
        )
        base = run_scenario("paper-default", scale=SCALE, seed=7)
        assert_tables_identical(base.dataset.table, result.dataset.table)
        # The whole merged result is itself cached under the sharded key.
        again = make_runtime(tmp_path).run_scenario(
            "paper-default", scale=SCALE, seed=7, shards=3
        )
        assert_tables_identical(result.dataset.table, again.dataset.table)

    def test_via_logs_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="log pipeline"):
            run_sharded_scenario(
                "paper-default",
                scale=SCALE,
                seed=7,
                runtime=make_runtime(tmp_path),
                n_shards=2,
                via_logs=True,
            )

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(SpecificationError, match="unknown scenario"):
            run_sharded_scenario(
                "nope", scale=SCALE, seed=7,
                runtime=make_runtime(tmp_path), n_shards=2,
            )

    def test_sharded_fleet_walks_disks(self, tmp_path):
        # A sharded result holds a plain fleet: disk walks work and see
        # exactly the unsharded run's disks.
        base = run_scenario("paper-default", scale=SCALE, seed=7)
        sharded = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=7,
            runtime=make_runtime(tmp_path),
            n_shards=2,
        )
        walked = [
            (d.disk_id, d.serial, d.install_time, d.remove_time)
            for d in sharded.fleet.iter_disks()
        ]
        assert walked == [
            (d.disk_id, d.serial, d.install_time, d.remove_time)
            for d in base.fleet.iter_disks()
        ]

    def test_injection_placeholder_raises_clearly(self, tmp_path):
        sharded = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=7,
            runtime=make_runtime(tmp_path),
            n_shards=2,
        )
        assert isinstance(sharded.injection, ShardedInjection)
        with pytest.raises(AnalysisError, match="sharded run"):
            sharded.injection.fleet

    def test_parallel_shard_execution_matches_serial(self, tmp_path):
        serial = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=9,
            runtime=make_runtime(tmp_path / "serial"),
            n_shards=4,
        )
        pooled = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=9,
            runtime=make_runtime(tmp_path / "pooled", jobs=4),
            n_shards=4,
        )
        assert_tables_identical(serial.dataset.table, pooled.dataset.table)


class TestDistributedTrace:
    """A pooled sharded run exports ONE merged, clock-aligned trace."""

    @pytest.fixture(autouse=True)
    def clean_observer(self):
        from repro import obs

        obs.reset()
        yield
        obs.reset()

    def test_pooled_run_merges_worker_segments(self, tmp_path):
        from repro import obs

        trace_path = str(tmp_path / "trace.jsonl")
        obs.configure(trace=trace_path)
        result = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=11,
            runtime=make_runtime(tmp_path, jobs=4),
            n_shards=4,
        )
        assert len(result.dataset.table)
        obs.export()
        events = obs.read_trace(trace_path)
        by_name = {}
        for event in events:
            by_name.setdefault(event["name"], []).append(event)
        # Worker spans made it into the parent's trace...
        assert "runtime.shard.execute" in by_name
        assert "pool.task" in by_name
        assert "colstore.save" in by_name  # the spill, from inside workers
        assert "colstore.merge" in by_name  # the parent-side merge
        # ...every span id is unique after the remap...
        ids = [event["span_id"] for event in events]
        assert len(set(ids)) == len(ids)
        # ...every parent link resolves inside the merged trace...
        id_set = set(ids)
        assert all(
            event["parent_id"] in id_set
            for event in events
            if event["parent_id"] is not None
        )
        # ...and worker roots hang off the parent's pool.map span.
        (pool_map,) = by_name["runtime.pool.map"]
        for task in by_name["pool.task"]:
            assert task["parent_id"] == pool_map["span_id"]
            # Clock alignment keeps workers inside the parent window
            # (generous slack: epochs are captured around the fork).
            assert task["start"] >= pool_map["start"] - 0.25
        # Each executed shard traced in its own process when the pool
        # really forked (serial fallback legitimately yields one pid).
        shard_pids = {e["pid"] for e in by_name["runtime.shard.execute"]}
        parent_pid = os.getpid()
        if any(e["pid"] != parent_pid for e in by_name["pool.task"]):
            assert len(shard_pids) > 1
            assert parent_pid not in shard_pids
        # The segment directory was consumed by the export.
        assert not glob.glob(os.path.join(trace_path + ".segs", "*"))

    def test_worker_tracing_can_be_disabled(self, tmp_path, monkeypatch):
        from repro import obs

        monkeypatch.setenv("REPRO_TRACE_WORKERS", "0")
        trace_path = str(tmp_path / "trace.jsonl")
        obs.configure(trace=trace_path)
        run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=11,
            runtime=make_runtime(tmp_path, jobs=2),
            n_shards=2,
        )
        obs.export()
        events = obs.read_trace(trace_path)
        names = {event["name"] for event in events}
        assert "runtime.pool.map" in names
        assert "runtime.shard.execute" not in names  # workers stayed dark
        assert {event["pid"] for event in events} == {os.getpid()}

    def test_sharded_run_publishes_live_status(self, tmp_path, monkeypatch):
        from repro.obs.sampler import PROGRESS, read_status

        status_dir = str(tmp_path / "status")
        monkeypatch.setenv("REPRO_STATUS_DIR", status_dir)
        PROGRESS.reset()
        try:
            run_sharded_scenario(
                "paper-default",
                scale=SCALE,
                seed=12,
                runtime=make_runtime(tmp_path, jobs=2),
                n_shards=2,
            )
            status = read_status(status_dir)
            assert status["progress"]["shards_completed"] == 2
            shards = [
                w["shard"] for w in status["workers"]
                if isinstance(w.get("shard"), int)
            ]
            assert sorted(shards) == [0, 1] or len(set(shards)) >= 1
            assert all(
                w["state"] == "done"
                for w in status["workers"]
                if isinstance(w.get("shard"), int)
            )
        finally:
            PROGRESS.reset()
