"""Tests for the pluggable hazard backends (repro.failures.backends)."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SpecificationError
from repro.failures.backends import (
    DEFAULT_BACKEND,
    Hazard,
    parse_spec,
    resolve,
)
from repro.failures.backends.fitted import FittedBackend, FittedHazard
from repro.failures.backends.trace import (
    EmpiricalHazard,
    GapPool,
    TraceBackend,
    load_failure_times,
)
from repro.failures.injector import InjectorConfig
from repro.failures.types import (
    FAILURE_TYPE_ORDER,
    FailureType,
)
from repro.fleet.spec import FleetSpec
from repro.runconfig import RunConfig
from repro.simulate.engine import SimulationEngine
from repro.stats import mle


def write_trace(path, gaps_by_type, system_class="nearline", start=1e5):
    """A minimal fleet-events JSONL trace with the given per-type gaps."""
    with open(path, "w") as handle:
        handle.write(json.dumps({"type": "meta", "schema": 1}) + "\n")
        for type_value, gaps in gaps_by_type.items():
            t = start
            for gap in gaps:
                t += float(gap)
                handle.write(
                    json.dumps(
                        {
                            "type": "fleet",
                            "kind": "failure",
                            "occur_t": t,
                            "failure_type": type_value,
                            "system_class": system_class,
                        }
                    )
                    + "\n"
                )


class TestSpecParsing:
    def test_parse_bare_name(self):
        assert parse_spec("analytic") == ("analytic", None)

    def test_parse_name_with_arg(self):
        assert parse_spec("trace:/tmp/x.jsonl") == ("trace", "/tmp/x.jsonl")

    def test_arg_may_contain_colons(self):
        assert parse_spec("trace:C:/x.jsonl") == ("trace", "C:/x.jsonl")


class TestResolve:
    def test_default_is_analytic(self):
        assert DEFAULT_BACKEND == "analytic"
        assert resolve(None).name == "analytic"

    def test_resolved_backends_are_cached(self):
        assert resolve("analytic") is resolve("analytic")

    def test_env_default(self, monkeypatch):
        # The environment's backend reaches simulations through
        # RunConfig.from_env, never through resolve().
        monkeypatch.setenv("REPRO_HAZARD_BACKEND", "astrology")
        assert resolve(None).name == "analytic"

    def test_unknown_name_rejected(self):
        with pytest.raises(SpecificationError):
            resolve("astrology")

    def test_trace_needs_a_path(self):
        with pytest.raises(SpecificationError):
            resolve("trace")

    def test_missing_trace_file_rejected(self):
        with pytest.raises(SpecificationError):
            resolve("trace:/nonexistent/events.jsonl")

    def test_trace_rewritten_in_place_is_reread(self, tmp_path):
        # One process, one spec string, two file contents: the second
        # key must name the new trace, not the first one cached.
        path = tmp_path / "events.jsonl"
        write_trace(path, {"disk": np.full(8, 3600.0)})
        config = RunConfig(hazard_backend="trace:%s" % path)
        before = config.canonical()
        assert resolve(config.hazard_backend) is resolve(config.hazard_backend)
        write_trace(path, {"disk": np.full(8, 7200.0)})
        after = config.canonical()
        assert before != after
        assert after == RunConfig(hazard_backend="trace:%s" % path).canonical()


class TestAnalyticBackend:
    def test_only_disk_uses_renewal(self):
        backend = resolve("analytic")
        config = InjectorConfig()
        assert backend.uses_renewal(config, FailureType.DISK)
        for failure_type in FAILURE_TYPE_ORDER[1:]:
            assert not backend.uses_renewal(config, failure_type)

    def test_active_types_default_to_the_papers_four(self):
        backend = resolve("analytic")
        assert tuple(backend.active_types(InjectorConfig())) == FAILURE_TYPE_ORDER

    def test_operator_rate_extends_active_types(self):
        backend = resolve("analytic")
        config = InjectorConfig(operator_error_rate_per_disk_year=0.01)
        assert FailureType.OPERATOR_ERROR in backend.active_types(config)

    def test_shocks_follow_the_config(self):
        backend = resolve("analytic")
        assert backend.uses_shocks(InjectorConfig())
        assert not backend.uses_shocks(InjectorConfig(shocks_enabled=False))

    def test_disk_hazard_mean_matches_request(self):
        backend = resolve("analytic")
        hazard = backend.hazard(InjectorConfig(), FailureType.DISK, 5e6)
        assert hazard.mean == pytest.approx(5e6)


class TestHazardContract:
    def test_sample_cohort_reshapes_flat_draws(self):
        pool = GapPool(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        hazard = EmpiricalHazard(pool, 100.0)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        flat = hazard.sample_interarrivals(rng_a, 12)
        shaped = hazard.sample_cohort(rng_b, (3, 4))
        assert shaped.shape == (3, 4)
        np.testing.assert_array_equal(shaped.ravel(), flat)

    def test_base_class_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Hazard().sample_interarrivals(np.random.default_rng(0), 1)


class TestTraceBackend:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "events.jsonl"
        write_trace(
            path,
            {
                ft.value: rng.gamma(0.6, 5e4, size=200)
                for ft in FAILURE_TYPE_ORDER
            },
        )
        return str(path)

    def test_load_failure_times_roundtrip(self, trace_path):
        times, types, classes = load_failure_times(trace_path)
        assert times.size == 4 * 200
        assert set(types) == {ft.value for ft in FAILURE_TYPE_ORDER}
        assert set(classes) == {"nearline"}

    def test_cache_token_tracks_file_content(self, trace_path, tmp_path):
        token = TraceBackend(trace_path).cache_token()
        assert token.startswith("trace:")
        with open(trace_path, "a") as handle:
            handle.write("\n")
        assert TraceBackend(trace_path).cache_token() != token

    def test_resampled_gaps_keep_the_target_mean(self, trace_path):
        backend = TraceBackend(trace_path)
        hazard = backend.hazard(InjectorConfig(), FailureType.DISK, 1e6)
        draws = hazard.sample_interarrivals(np.random.default_rng(5), 20_000)
        assert float(draws.mean()) == pytest.approx(1e6, rel=0.05)

    def test_class_pool_preferred_over_fleet_pool(self, trace_path):
        backend = TraceBackend(trace_path)
        assert (None, "disk") in backend.pools
        assert ("nearline", "disk") in backend.pools

    def test_trace_disables_shocks_and_forces_renewal(self, trace_path):
        backend = TraceBackend(trace_path)
        config = InjectorConfig()
        assert not backend.uses_shocks(config)
        for failure_type in FAILURE_TYPE_ORDER:
            assert backend.uses_renewal(config, failure_type)

    def test_engine_runs_under_trace_backend(self, trace_path):
        engine = SimulationEngine(
            FleetSpec.paper_default(scale=0.005),
            config=RunConfig(hazard_backend="trace:%s" % trace_path),
        )
        result = engine.run(seed=9)
        counts = result.injection.counts_by_type()
        assert FailureType.OPERATOR_ERROR not in counts
        for failure_type in FAILURE_TYPE_ORDER:
            assert counts[failure_type] > 0


class TestFittedBackend:
    @pytest.fixture()
    def weibull_trace(self, tmp_path):
        rng = np.random.default_rng(23)
        path = tmp_path / "weibull.jsonl"
        write_trace(
            path, {"disk": 8e4 * rng.weibull(0.7, size=1_500)}
        )
        return str(path)

    def test_recovers_weibull_family_and_params(self, weibull_trace):
        backend = FittedBackend(weibull_trace)
        fit = backend.fits["disk"]
        assert fit.name == "weibull"
        assert fit.params["shape"] == pytest.approx(0.7, rel=0.1)
        assert fit.params["scale"] == pytest.approx(8e4, rel=0.1)

    def test_ks_gate_passes_at_alpha_001(self, weibull_trace):
        gate = FittedBackend(weibull_trace).ks_gate(
            FailureType.DISK, alpha=0.01, seed=0
        )
        assert gate is not None
        assert gate.family == "weibull"
        assert gate.passed

    def test_ks_gate_none_without_a_fit(self, weibull_trace):
        backend = FittedBackend(weibull_trace)
        assert backend.ks_gate(FailureType.PROTOCOL) is None

    def test_sparse_type_records_fit_error(self, tmp_path):
        path = tmp_path / "sparse.jsonl"
        write_trace(path, {"protocol": [100.0] * 6})
        backend = FittedBackend(str(path))
        assert "protocol" not in backend.fits
        assert backend.fit_errors["protocol"]

    @given(
        shape=st.floats(min_value=0.55, max_value=1.8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_fitted_roundtrips_weibull_params(self, shape, seed):
        # Fit a known Weibull, re-simulate through FittedHazard, refit:
        # the round trip must recover shape and mean within CI bounds.
        rng = np.random.default_rng(seed)
        gaps = 1e5 * rng.weibull(shape, size=1_200)
        fit = mle.fit_weibull(gaps)
        target_mean = float(gaps.mean())
        hazard = FittedHazard(fit, target_mean)
        simulated = hazard.sample_interarrivals(
            np.random.default_rng(seed + 1), 5_000
        )
        refit = mle.fit_weibull(simulated)
        assert refit.params["shape"] == pytest.approx(
            fit.params["shape"], rel=0.1
        )
        assert float(simulated.mean()) == pytest.approx(
            target_mean, rel=0.08
        )


class TestOperatorErrorScenario:
    def test_fifth_type_rides_the_engine(self):
        from repro.simulate.scenario import run_scenario

        result = run_scenario("operator-error", scale=0.01, seed=4)
        counts = result.injection.counts_by_type()
        assert counts[FailureType.OPERATOR_ERROR] > 0
        # The extended type stays a small additive stream next to the
        # paper's four.
        assert counts[FailureType.OPERATOR_ERROR] < counts[FailureType.DISK]

    def test_paper_default_carries_no_operator_errors(self):
        from repro.simulate.scenario import run_scenario

        result = run_scenario("paper-default", scale=0.005, seed=4)
        assert FailureType.OPERATOR_ERROR not in result.injection.counts_by_type()


class TestJobCacheKey:
    def test_default_canonical_has_no_hazard_term(self, monkeypatch):
        from repro.runtime.jobs import Job

        monkeypatch.delenv("REPRO_HAZARD_BACKEND", raising=False)
        assert "hazard=" not in Job.scenario("paper-default", 0.01, 1).canonical()
        monkeypatch.setenv("REPRO_HAZARD_BACKEND", "analytic")
        assert "hazard=" not in Job.scenario("paper-default", 0.01, 1).canonical()

    def test_trace_backend_appends_content_token(self, monkeypatch, tmp_path):
        from repro.runtime.jobs import Job

        rng = np.random.default_rng(2)
        path = tmp_path / "events.jsonl"
        write_trace(path, {"disk": rng.exponential(1e5, size=50)})
        monkeypatch.setenv("REPRO_HAZARD_BACKEND", "trace:%s" % path)
        canonical = Job.scenario("paper-default", 0.01, 1).canonical()
        assert " hazard=trace:" in canonical


class TestFitHazardsCli:
    def test_prints_fits_and_gates(self, tmp_path, capsys):
        from repro.cli import main

        rng = np.random.default_rng(31)
        path = tmp_path / "events.jsonl"
        write_trace(path, {"disk": 9e4 * rng.weibull(0.8, size=800)})
        status = main(["fit-hazards", str(path)])
        out = capsys.readouterr().out
        assert status == 0
        assert "best fit: weibull" in out
        assert "KS gate: PASS" in out

    def test_missing_trace_is_a_clean_error(self, capsys):
        from repro.cli import main

        assert main(["fit-hazards", "/nonexistent/events.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_jsonl_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "meta"}\nnot json at all\n')
        assert main(["fit-hazards", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "line 2" in err
        assert "Traceback" not in err

    def test_empty_trace_is_a_clean_error(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "meta", "schema": 1}\n')
        assert main(["fit-hazards", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no failure records" in err


class TestTraceLoaderErrors:
    """load_failure_times wraps malformed inputs in SpecificationError."""

    def test_non_dict_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('[1, 2, 3]\n')
        with pytest.raises(SpecificationError, match="not a JSON object"):
            load_failure_times(str(path))

    def test_non_numeric_occur_time(self, tmp_path):
        path = tmp_path / "events.jsonl"
        record = {
            "type": "fleet",
            "kind": "failure",
            "occur_t": "soon",
            "failure_type": "disk",
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(SpecificationError, match="occur_t"):
            load_failure_times(str(path))

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text('{"type": "meta"}\n{broken\n')
        with pytest.raises(SpecificationError, match="line 2"):
            load_failure_times(str(path))

    def test_truncated_npz_rejected(self, tmp_path):
        path = tmp_path / "events.npz"
        path.write_bytes(b"PK\x03\x04 definitely not a real archive")
        with pytest.raises(SpecificationError):
            load_failure_times(str(path))

    def test_resolve_fitted_missing_file(self):
        with pytest.raises(SpecificationError):
            resolve("fitted:/nonexistent/events.jsonl")
