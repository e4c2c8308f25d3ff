"""RunConfig: one explicit run configuration in every key and payload.

The design claim is that a config field cannot be left out of a cache
key and a worker cannot fall back to the environment.  These tests
check the design itself: every field reaches both keys, default keys
carry no config terms, and a run given an explicit config never calls
``RunConfig.from_env`` — in the parent or in a worker.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.afr import dataset_afr
from repro.core.colstore import SPILL_SCHEMA_VERSION
from repro.experiments import EXPERIMENTS, ExperimentContext
from repro.failures.injector import InjectorConfig
from repro.fleet.spec import FleetSpec
from repro.runconfig import HAZARD_BACKEND_ENV, RunConfig
from repro.runtime import Job, RuntimeConfig, RuntimeContext, Scheduler, ShardPlan
from repro.runtime.shard import shard_canonical, shard_key
from repro.simulate.batch import batch_run
from repro.simulate.engine import SimulationEngine
from repro.simulate.scenario import run_scenario
from repro.simulate.vector.engine import (
    VectorFailureInjector,
    vector_engine_enabled,
)
from repro.version import __version__
from tests.test_hazard_backends import write_trace


@pytest.fixture()
def trace_spec(tmp_path):
    path = tmp_path / "events.jsonl"
    write_trace(path, {"disk": np.random.default_rng(3).exponential(1e5, 60)})
    return "trace:%s" % path


def non_default_values(trace_spec):
    """One non-default value per RunConfig field."""
    values = {"hazard_backend": trace_spec}
    assert set(values) == {f.name for f in dataclasses.fields(RunConfig)}, (
        "give every RunConfig field a non-default value here"
    )
    return values


class TestResolution:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv(HAZARD_BACKEND_ENV, raising=False)
        assert RunConfig.from_env() == RunConfig()
        assert RunConfig() == RunConfig(hazard_backend="analytic")

    def test_explicit_then_env_then_default(self, monkeypatch):
        monkeypatch.setenv(HAZARD_BACKEND_ENV, "trace:x.jsonl")
        assert RunConfig.from_env() == RunConfig("trace:x.jsonl")
        # None means "not given": a CLI passes unset flags straight in.
        assert RunConfig.from_env(hazard_backend=None).hazard_backend == (
            "trace:x.jsonl"
        )
        assert RunConfig.from_env(hazard_backend="analytic") == RunConfig()

    def test_engine_applies_the_config(self, trace_spec):
        spec = FleetSpec.paper_default(scale=0.001)
        config = RunConfig(hazard_backend=trace_spec)
        engine = SimulationEngine(spec, config=config)
        assert type(engine.injector) is VectorFailureInjector
        assert engine.injector.backend.name == "trace"
        # An injector config that names its backend keeps it.
        pinned = SimulationEngine(
            spec,
            injector_config=InjectorConfig(hazard_backend="analytic"),
            config=config,
        )
        assert pinned.injector.backend.name == "analytic"


class TestKeys:
    def test_default_config_renders_no_terms(self):
        assert RunConfig().canonical() == ""

    def test_analytic_keys_keep_their_strings(self):
        assert Job.scenario(
            "paper-default", 0.01, 1, config=RunConfig()
        ).canonical() == (
            "repro/%s kind=scenario name=paper-default scale=0.01 seed=1 "
            "via_logs=0" % __version__
        )
        assert Job.experiment(
            "fig4a", 0.05, 2, shards=4, config=RunConfig()
        ).canonical() == (
            "repro/%s kind=experiment name=fig4a scale=0.05 seed=2 "
            "via_logs=0 shards=4" % __version__
        )
        shard = ShardPlan.build(FleetSpec.paper_default(scale=0.01), 2).shards[0]
        assert shard_canonical(
            "paper-default", 0.01, 1, shard, RunConfig()
        ) == (
            "repro/%s shard scenario=paper-default scale=0.01 seed=1 "
            "schema=%d cells=%s"
            % (
                __version__,
                SPILL_SCHEMA_VERSION,
                ",".join(str(cell) for cell in shard.cells),
            )
        )

    def test_every_field_reaches_both_keys(self, trace_spec):
        shard = ShardPlan.build(FleetSpec.paper_default(scale=0.01), 2).shards[0]
        default = RunConfig()
        job_key = Job.scenario("paper-default", 0.01, 1, config=default).key()
        shard_default = shard_key("paper-default", 0.01, 1, shard, default)
        for name, value in non_default_values(trace_spec).items():
            config = dataclasses.replace(default, **{name: value})
            assert (
                Job.scenario("paper-default", 0.01, 1, config=config).key()
                != job_key
            ), name
            assert (
                shard_key("paper-default", 0.01, 1, shard, config)
                != shard_default
            ), name

    def test_payload_round_trips_the_config(self, trace_spec):
        config = RunConfig(hazard_backend=trace_spec)
        job = Job.experiment("fig4a", 0.01, 1, shards=2, config=config)
        assert Job(**job.payload()) == job
        assert job.simulation_job().config == config


def test_explicit_config_never_falls_back_to_the_environment(
    tmp_path, monkeypatch
):
    """Every internal call passes the config on: with ``from_env``
    patched to raise, every experiment, a sharded scenario and a batch
    run complete on a pooled runtime (workers fork, so the patch holds
    there too)."""

    def no_env(cls, **explicit):
        raise AssertionError("RunConfig.from_env called on an explicit run")

    monkeypatch.setattr(RunConfig, "from_env", classmethod(no_env))
    config = RunConfig()
    runtime = RuntimeContext(RuntimeConfig(jobs=2, cache_dir=str(tmp_path)))
    results = Scheduler(runtime).run(
        [
            Job.experiment(name, 0.01, 1, config=config)
            for name in sorted(EXPERIMENTS)
        ]
    )
    assert len(results) == len(EXPERIMENTS)
    sharded = runtime.run_scenario(
        "paper-default", 0.01, 2, shards=2, config=config
    )
    assert len(sharded.dataset.table) > 0
    spreads = batch_run(
        {"afr": lambda dataset: dataset_afr(dataset).percent},
        scale=0.01,
        seeds=(1, 2),
        runtime=runtime,
        config=config,
    )
    assert len(spreads["afr"].values) == 2


def test_environment_default_reaches_the_benchmark_entry_points(
    trace_spec, monkeypatch
):
    """API calls given no config take ``REPRO_HAZARD_BACKEND`` from the
    environment, as the benchmark's calls rely on, and run the batched
    injector."""
    monkeypatch.setenv(HAZARD_BACKEND_ENV, trace_spec)
    traced = RunConfig(hazard_backend=trace_spec)
    assert vector_engine_enabled()
    assert ExperimentContext(scale=0.01, seed=1).config == traced
    assert ExperimentContext(scale=0.01, seed=1, via_logs=True).config == traced
    jobs = []
    runtime = RuntimeContext(RuntimeConfig(jobs=1, cache_enabled=False))
    monkeypatch.setattr(runtime, "run_job", jobs.append)
    runtime.run_scenario("paper-default", 0.6, 1, False, 4)
    assert jobs[0].config == traced and jobs[0].shards == 4
    monkeypatch.delenv(HAZARD_BACKEND_ENV)
    injected = []
    inject = VectorFailureInjector.inject

    def spy(self, fleet, random_source):
        injected.append(fleet.system_count)
        return inject(self, fleet, random_source)

    monkeypatch.setattr(VectorFailureInjector, "inject", spy)
    run_scenario("quick", 0.002, 1)
    assert injected
