"""The batched engine against the committed legacy-engine oracle.

tests/goldens/engine_oracle.json holds, for the per-unit (legacy)
engine at scale 0.05, seeds 1-100, the per-seed figure statistics and
shape-check verdicts that tools/capture_engine_oracle.py records.  Here
the batched engine is recorded at seeds 1-30 and every comparison must
hold at a Bonferroni-corrected level: p >= 0.01 / m over all m Welch
t-tests (means), F-tests (variances) and Fisher exact tests (per-check
failure counts).

The seeds and the bound are fixed; a failure means the batched engine's
figures drifted from the model's reference distribution, not that the
test wants new seeds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import capture_engine_oracle as oracle_tool  # noqa: E402

ORACLE = json.loads((ROOT / "tests/goldens/engine_oracle.json").read_text())
SEEDS = tuple(range(1, 31))
FAMILY_ALPHA = 0.01


@pytest.fixture(scope="module")
def comparisons():
    from repro.runconfig import RunConfig

    observed = oracle_tool.records(SEEDS, RunConfig())
    return oracle_tool.comparisons(ORACLE, observed)


def test_oracle_names_its_provenance():
    assert ORACLE["engine"] == "legacy"
    assert ORACLE["scenario"] == oracle_tool.SCENARIO
    assert ORACLE["scale"] == oracle_tool.SCALE
    assert ORACLE["seeds"] == list(oracle_tool.ORACLE_SEEDS)
    assert len(ORACLE["commit"]) == 40
    assert len(ORACLE["statistics"]) == 17
    for values in ORACLE["statistics"].values():
        assert len(values) == len(ORACLE["seeds"])


def test_every_comparison_holds_at_the_bonferroni_bound(comparisons):
    # 17 statistics x (mean, variance) plus one test per check.
    assert len(comparisons) == 2 * len(ORACLE["statistics"]) + len(
        ORACLE["failures"]
    )
    bound = FAMILY_ALPHA / len(comparisons)
    failing = [
        "%s: p=%.3g (%s)" % (name, p_value, summary)
        for p_value, name, summary in comparisons
        if p_value < bound
    ]
    assert not failing, "p < %.3g:\n%s" % (bound, "\n".join(failing))


def test_comparisons_cover_means_variances_and_checks():
    reference = {
        "seeds": [1, 2, 3],
        "statistics": {"x": [1.0, 2.0, 3.0]},
        "failures": {"c": [2]},
    }
    shifted = {
        "seeds": [1, 2, 3],
        "statistics": {"x": [101.0, 102.5, 103.0]},
        "failures": {"c": [1, 2, 3], "new": []},
    }
    rows = {name: p for p, name, _ in oracle_tool.comparisons(reference, shifted)}
    assert sorted(rows) == [
        "failures c",
        "failures new",
        "mean x",
        "variance x",
    ]
    assert rows["mean x"] < 1e-3
    assert rows["variance x"] > 0.5
    assert rows["failures c"] == pytest.approx(0.4)
    # A check the reference never produced counts as failing there.
    assert rows["failures new"] == pytest.approx(0.1)
