"""Differential goldens: the analytic backend is byte-identical.

Replays the exact capture that produced the committed
tests/goldens/hazard_backend_goldens.json — paper-default injection
content digests plus fig4a/fig9a/fig10a text+data digests, three
seeds, under the batched engine's key ``vector`` — and compares.  Any
drift in the default hazard path fails here first.

Regenerate (only for a deliberate behavior change):

    PYTHONPATH=src python tools/capture_hazard_goldens.py
"""

import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDENS_PATH = os.path.join(
    REPO_ROOT, "tests", "goldens", "hazard_backend_goldens.json"
)


@pytest.fixture(scope="module")
def captured(request):
    """One fresh capture shared by every comparison in this module."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "tools"))
    try:
        from capture_hazard_goldens import capture

        yield capture()
    finally:
        sys.path.remove(os.path.join(REPO_ROOT, "tools"))


@pytest.fixture(scope="module")
def committed():
    with open(GOLDENS_PATH) as handle:
        return json.load(handle)


def test_goldens_cover_three_seeds(committed):
    assert sorted(committed["engines"]) == ["vector"]
    assert len(committed["seeds"]) == 3
    for per_engine in committed["engines"].values():
        assert sorted(per_engine["injection"]) == sorted(
            str(seed) for seed in committed["seeds"]
        )


@pytest.mark.parametrize("engine", ("vector",))
def test_injection_digests_match(captured, committed, engine):
    assert (
        captured["engines"][engine]["injection"]
        == committed["engines"][engine]["injection"]
    )


@pytest.mark.parametrize("engine", ("vector",))
def test_experiment_digests_match(captured, committed, engine):
    assert (
        captured["engines"][engine]["experiments"]
        == committed["engines"][engine]["experiments"]
    )
