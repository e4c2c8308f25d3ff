"""Tests for the job runtime: jobs, cache, metrics, pool, scheduler."""

from __future__ import annotations

import os
import time

import pytest

from repro.errors import AnalysisError, JobExecutionError, SpecificationError
from repro.runtime import (
    MISSING,
    Job,
    ResultCache,
    RuntimeConfig,
    RuntimeContext,
    RuntimeMetrics,
    Scheduler,
    WorkerPool,
)
from repro.simulate.batch import batch_run
from repro.simulate.scenario import run_scenario
from repro.version import __version__


class TestJob:
    def test_key_is_deterministic(self):
        a = Job.experiment("fig4b", scale=0.05, seed=1)
        b = Job.experiment("fig4b", scale=0.05, seed=1)
        assert a == b
        assert a.key() == b.key()

    def test_key_separates_every_field(self):
        base = Job.experiment("fig4b", scale=0.05, seed=1)
        variants = [
            Job.scenario("fig4b", scale=0.05, seed=1),
            Job.experiment("fig4a", scale=0.05, seed=1),
            Job.experiment("fig4b", scale=0.01, seed=1),
            Job.experiment("fig4b", scale=0.05, seed=2),
            Job.experiment("fig4b", scale=0.05, seed=1, via_logs=True),
        ]
        keys = {job.key() for job in variants}
        assert base.key() not in keys
        assert len(keys) == len(variants)

    def test_canonical_embeds_version(self):
        assert __version__ in Job.scenario("quick", 0.002, 3).canonical()

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecificationError):
            Job("banana", "fig4b", 0.05, 1)

    def test_simulation_job(self):
        job = Job.experiment("fig4b", scale=0.05, seed=1)
        sim = job.simulation_job()
        assert sim.kind == "scenario"
        assert sim.name == "paper-default"
        assert (sim.scale, sim.seed) == (job.scale, job.seed)
        assert sim.simulation_job() is sim

    def test_payload_roundtrip(self):
        job = Job.scenario("quick", 0.002, 9, via_logs=True)
        assert Job(**job.payload()) == job


class TestResultCache:
    def test_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        assert cache.get("k" * 64) is MISSING
        cache.put("k" * 64, {"answer": 42})
        assert cache.get("k" * 64) == {"answer": 42}
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.hits == 1 and stats.misses == 1 and stats.stores == 1

    def test_persists_across_instances(self, tmp_path):
        ResultCache(directory=str(tmp_path)).put("deadbeef", [1, 2, 3])
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get("deadbeef") == [1, 2, 3]

    def test_clear(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cache.put("aa", 1)
        cache.put("bb", 2)
        assert cache.clear() == 2
        assert cache.get("aa") is MISSING
        assert cache.stats().entries == 0

    def test_eviction_drops_oldest(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), max_entries=2)
        for index, key in enumerate(("old", "mid", "new")):
            cache.put(key, index)
            now = time.time() + index  # distinct mtimes on coarse filesystems
            os.utime(os.path.join(str(tmp_path), key + ".pkl"), (now, now))
        cache._evict()
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get("old") is MISSING
        assert fresh.get("mid") == 1
        assert fresh.get("new") == 2

    def test_disabled_cache_never_stores(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), enabled=False)
        cache.put("aa", 1)
        assert cache.get("aa") is MISSING
        assert cache.stats().entries == 0

    def test_memory_only_leaves_disk_untouched(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path), persist=False)
        cache.put("aa", 1)
        assert cache.get("aa") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_directory_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("in the way")
        from repro.runtime import RuntimeMetrics

        metrics = RuntimeMetrics()
        cache = ResultCache(directory=str(blocker), metrics=metrics)
        cache.put("aa", 1)  # must not raise
        assert cache.get("aa") == 1  # memory layer still serves it
        assert metrics.count("cache.disk_error") == 1
        assert blocker.read_text() == "in the way"

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        cache.put("aa", 1)
        path = tmp_path / "aa.pkl"
        path.write_bytes(b"not a pickle")
        fresh = ResultCache(directory=str(tmp_path))
        assert fresh.get("aa") is MISSING
        assert not path.exists()  # cleaned up best-effort


class TestRuntimeMetrics:
    def test_counters_and_default(self):
        metrics = RuntimeMetrics()
        assert metrics.count("jobs.submitted") == 0
        metrics.increment("jobs.submitted", 3)
        metrics.increment("jobs.submitted")
        assert metrics.count("jobs.submitted") == 4

    def test_histogram_and_quantiles(self):
        metrics = RuntimeMetrics()
        for seconds in (0.01, 0.01, 0.3, 1.5, 45.0):
            metrics.observe("job.latency", seconds)
        hist = metrics.histogram("job.latency")
        assert hist.count == 5
        assert hist.mean == pytest.approx(46.82 / 5)
        assert hist.quantile(0.5) == pytest.approx(0.5)
        assert hist.max == pytest.approx(45.0)

    def test_merge_snapshot(self):
        worker = RuntimeMetrics()
        worker.increment("sim.runs", 2)
        worker.observe("job.latency", 0.2)
        parent = RuntimeMetrics()
        parent.increment("sim.runs")
        parent.merge(worker.snapshot())
        assert parent.count("sim.runs") == 3
        assert parent.histogram("job.latency").count == 1

    def test_report_text(self):
        metrics = RuntimeMetrics()
        assert "(no activity recorded)" in metrics.report()
        metrics.increment("cache.hit", 7)
        metrics.observe("job.latency", 0.05)
        report = metrics.report()
        assert "cache.hit" in report and "7" in report
        assert "job.latency" in report and "n=1" in report


def _square(x):
    return x * x


def _boom(x):
    raise ValueError("boom on %r" % x)


def _sleepy(x):
    time.sleep(5.0)
    return x


class TestWorkerPool:
    def test_serial_map_preserves_order(self):
        assert WorkerPool(jobs=1).map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_matches_serial(self):
        items = list(range(12))
        assert WorkerPool(jobs=4).map(_square, items) == [
            x * x for x in items
        ]

    def test_worker_failure_raises_job_execution_error(self):
        metrics = RuntimeMetrics()
        pool = WorkerPool(jobs=2, metrics=metrics)
        with pytest.raises(JobExecutionError, match="boom"):
            pool.map(_boom, [1, 2])
        assert metrics.count("jobs.failed") == 1

    def test_serial_failure_raises_job_execution_error(self):
        with pytest.raises(JobExecutionError, match="boom"):
            WorkerPool(jobs=1).map(_boom, [1])

    def test_serial_retry_recovers(self):
        metrics = RuntimeMetrics()
        attempts = []

        def flaky(x):
            attempts.append(x)
            if len(attempts) < 3:
                raise ValueError("transient")
            return x

        pool = WorkerPool(jobs=1, retries=5, metrics=metrics)
        assert pool.map(flaky, [7]) == [7]
        assert len(attempts) == 3
        assert metrics.count("jobs.retried") == 2
        assert metrics.count("jobs.failed") == 0

    def test_retries_exhausted(self):
        with pytest.raises(JobExecutionError, match="after 3 attempt"):
            WorkerPool(jobs=1, retries=2).map(_boom, [1])

    def test_parallel_timeout(self):
        pool = WorkerPool(jobs=2, timeout=0.2)
        with pytest.raises(JobExecutionError, match="timed out"):
            pool.map(_sleepy, [1, 2])

    def test_serial_observes_zero_queue_wait(self):
        # Serial runs record pool.queue_wait (as zero) alongside
        # pool.execute, so serial and pooled snapshots diff cleanly.
        metrics = RuntimeMetrics()
        WorkerPool(jobs=1, metrics=metrics).map(_square, [1, 2, 3])
        queue = metrics.histogram("pool.queue_wait")
        assert queue.count == 3
        assert queue.total == 0.0
        assert metrics.histogram("pool.execute").count == 3


class TestRuntimeContext:
    def test_scenario_cached_between_calls(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        first = runtime.run_scenario("quick", scale=0.002, seed=3)
        second = runtime.run_scenario("quick", scale=0.002, seed=3)
        assert first is second
        assert runtime.metrics.count("sim.runs") == 1
        assert runtime.metrics.count("cache.hit") == 1

    def test_warm_disk_cache_runs_zero_simulations(self, tmp_path):
        job = Job.scenario("quick", 0.002, 3)
        cold = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        cold_result = cold.run_job(job)
        warm = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        warm_result = warm.run_job(job)
        assert warm.metrics.count("sim.runs") == 0
        assert warm.metrics.count("cache.hit") == 1
        assert len(warm_result.dataset.events) == len(cold_result.dataset.events)

    def test_experiment_job_threads_runtime_into_context(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        result = runtime.run_job(Job.experiment("table1", scale=0.004, seed=3))
        assert result.experiment_id == "table1"
        # The experiment's scenario lookup went through the cache too.
        assert runtime.metrics.count("sim.runs") == 1
        assert runtime.cache.stats().entries == 2  # sim + experiment

    def test_sweep_simulations_count_cold_and_not_warm(self, tmp_path):
        # sweep-multipath simulates three fleets of its own, outside the
        # scenario cache: each counts once; a warm rerun counts none.
        job = Job.experiment("sweep-multipath", scale=0.004, seed=3)
        cold = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        cold.run_job(job)
        assert cold.metrics.count("sim.runs") == 3
        warm = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        warm.run_job(job)
        assert warm.metrics.count("sim.runs") == 0
        assert warm.metrics.count("cache.hit") == 1


class TestScheduler:
    def test_duplicate_jobs_collapse(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        job = Job.scenario("quick", 0.002, 3)
        results = Scheduler(runtime).run([job, job, job])
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert runtime.metrics.count("jobs.submitted") == 3
        assert runtime.metrics.count("jobs.deduped") == 2
        assert runtime.metrics.count("sim.runs") == 1

    def test_shared_simulation_prewarmed_once(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        jobs = [
            Job.experiment("table1", scale=0.004, seed=3),
            Job.experiment("fig4b", scale=0.004, seed=3),
        ]
        results = Scheduler(runtime).run(jobs)
        assert [r.experiment_id for r in results] == ["table1", "fig4b"]
        assert runtime.metrics.count("scheduler.prewarmed") == 1
        assert runtime.metrics.count("sim.runs") == 1

    def test_results_preserve_submission_order(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        jobs = [
            Job.scenario("quick", 0.002, seed)
            for seed in (5, 3, 5, 4)
        ]
        results = Scheduler(runtime).run(jobs)
        assert [r.seed for r in results] == [5, 3, 5, 4]
        assert results[0] is results[2]


class TestBatchRun:
    def test_spread_matches_direct_simulation(self):
        metrics = {"events": lambda ds: float(len(ds.events))}
        spreads = batch_run(metrics, scenario="quick", scale=0.002, seeds=(1, 2))
        expected = tuple(
            float(len(run_scenario("quick", scale=0.002, seed=seed).dataset.events))
            for seed in (1, 2)
        )
        assert spreads["events"].values == expected

    def test_non_finite_metric_raises_with_name(self):
        with pytest.raises(AnalysisError, match="bad_metric"):
            batch_run(
                {"bad_metric": lambda ds: float("nan")},
                scenario="quick",
                scale=0.002,
                seeds=(1, 2),
            )

    def test_inf_metric_raises(self):
        with pytest.raises(AnalysisError, match="non-finite"):
            batch_run(
                {"worse": lambda ds: float("inf")},
                scenario="quick",
                scale=0.002,
                seeds=(1, 2),
            )

    def test_runtime_cache_reused_across_batches(self, tmp_path):
        runtime = RuntimeContext(RuntimeConfig(cache_dir=str(tmp_path)))
        metrics = {"events": lambda ds: float(len(ds.events))}
        first = batch_run(
            metrics, scenario="quick", scale=0.002, seeds=(1, 2), runtime=runtime
        )
        assert runtime.metrics.count("sim.runs") == 2
        second = batch_run(
            metrics, scenario="quick", scale=0.002, seeds=(1, 2), runtime=runtime
        )
        assert runtime.metrics.count("sim.runs") == 2  # all served from cache
        assert first["events"].values == second["events"].values
