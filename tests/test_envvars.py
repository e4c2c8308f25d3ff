"""repro.envvars: registry semantics and the generated docs table.

The registry is the single authority on ``REPRO_*`` variables; the
cross-checks here keep it honest in both directions — every registered
variable is documented (docs/ENVIRONMENT.md is generated from the
registry by ``make docs``), and every consumer routes through the
registry (enforced separately by reprolint rule RPL004 plus the repo
gate in tests/test_lintkit.py).
"""

from __future__ import annotations

import os

import pytest

from repro import envvars

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC_PATH = os.path.join(REPO_ROOT, "docs", "ENVIRONMENT.md")


def test_registry_names_are_repro_prefixed_and_typed():
    assert envvars.REGISTRY, "registry must not be empty"
    for name, var in envvars.REGISTRY.items():
        assert name == var.name
        assert name.startswith("REPRO_")
        assert var.kind in ("path", "flag", "float", "int", "string")
        assert var.description and var.consumer


def test_known_variables_registered():
    for name in (
        "REPRO_TRACE",
        "REPRO_METRICS",
        "REPRO_EVENTS",
        "REPRO_PROFILE",
        "REPRO_PROFILE_DIR",
        "REPRO_CACHE_DIR",
    ):
        assert name in envvars.REGISTRY


def test_get_unregistered_raises():
    with pytest.raises(KeyError):
        envvars.get("REPRO_NOT_A_THING")


def test_get_returns_value_or_default(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert envvars.get("REPRO_TRACE") is None
    assert envvars.get("REPRO_TRACE", "fallback") == "fallback"
    monkeypatch.setenv("REPRO_TRACE", "t.jsonl")
    assert envvars.get("REPRO_TRACE", "fallback") == "t.jsonl"
    # Empty means unset: the CLI exports REPRO_TRACE="" to disable.
    monkeypatch.setenv("REPRO_TRACE", "")
    assert envvars.get("REPRO_TRACE", "fallback") == "fallback"


@pytest.mark.parametrize(
    "raw, expected",
    [
        ("", False),
        ("0", False),
        ("false", False),
        ("No", False),
        ("1", True),
        ("true", True),
        ("yes", True),
        (" 1 ", True),
    ],
)
def test_get_flag_truthiness(monkeypatch, raw, expected):
    monkeypatch.setenv("REPRO_TRACE_WORKERS", raw)
    assert envvars.get_flag("REPRO_TRACE_WORKERS") is expected


def test_get_float(monkeypatch):
    monkeypatch.delenv("REPRO_SAMPLE_INTERVAL", raising=False)
    assert envvars.get_float("REPRO_SAMPLE_INTERVAL", 0.5) == 0.5
    monkeypatch.setenv("REPRO_SAMPLE_INTERVAL", "0.25")
    assert envvars.get_float("REPRO_SAMPLE_INTERVAL", 0.5) == 0.25
    monkeypatch.setenv("REPRO_SAMPLE_INTERVAL", "not-a-number")
    with pytest.raises(ValueError):
        envvars.get_float("REPRO_SAMPLE_INTERVAL", 0.5)


def test_get_int(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert envvars.get_int("REPRO_SHARDS", 1) == 1
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert envvars.get_int("REPRO_SHARDS", 1) == 4
    monkeypatch.setenv("REPRO_SHARDS", "not-a-number")
    with pytest.raises(ValueError):
        envvars.get_int("REPRO_SHARDS", 1)


def test_hazard_backend_registered():
    var = envvars.REGISTRY["REPRO_HAZARD_BACKEND"]
    assert var.kind == "string"
    assert var.default == "analytic"


def test_markdown_table_lists_every_variable():
    table = envvars.markdown_table()
    for name in envvars.REGISTRY:
        assert "`%s`" % name in table


def test_undocumented_cross_check():
    assert envvars.undocumented("") == sorted(envvars.REGISTRY)
    assert envvars.undocumented(envvars.markdown_table()) == []


def test_committed_docs_table_is_current():
    """docs/ENVIRONMENT.md == render_docs(): regenerate via `make docs`."""
    with open(DOC_PATH, "r", encoding="utf-8") as handle:
        committed = handle.read()
    assert envvars.undocumented(committed) == []
    assert committed == envvars.render_docs(), (
        "docs/ENVIRONMENT.md is stale; run `make docs`"
    )


def test_obs_env_constants_stay_registered():
    """The ENV_* names repro.obs exports must exist in the registry."""
    from repro import obs

    for name in (obs.ENV_TRACE, obs.ENV_METRICS, obs.ENV_PROFILE,
                 obs.ENV_EVENTS):
        assert name in envvars.REGISTRY
