"""The paper's values and shapes at the reproduction scale.

Each test runs one experiment on a seed-1 paper-default fleet (scale
0.05, ~2,000 systems / ~90,000 disks; the sweeps simulate their own
fleets at 0.02) and asserts the paper's printed numbers within a band,
and the relations between them, as each experiment's docstring states
them.

Two kinds of verdict live elsewhere:

- the shape checks of the 20 experiments that
  tools/capture_engine_oracle.py records (table1, fig4a/b, fig5a-f,
  fig5-stability, fig6, fig7a/b, fig9a/b, fig9-compare, fig10a/b,
  replacement-discrepancy, availability).  tests/test_engine_oracle.py
  judges each check by its failure count over seeds 1-30, so a check
  that fails at one seed is not a defect by itself;
- every experiment's full output, pinned byte for byte at smaller
  scales by tests/test_analysis_goldens.py.

Here ``result.passed`` is asserted only for the experiments the oracle
does not record.
"""

from __future__ import annotations

import pytest

from repro.experiments import ExperimentContext, run_experiment
from repro.experiments.fig5 import PANELS
from repro.failures.types import FailureType
from repro.predict import train_failure_predictor
from repro.simulate.scenario import run_scenario

OVERALL = "Overall Storage Subsystem Failure"


@pytest.fixture(scope="module")
def ctx() -> ExperimentContext:
    return ExperimentContext(scale=0.05, seed=1)


@pytest.fixture(scope="module")
def sweep_ctx() -> ExperimentContext:
    # Sweeps simulate a fleet per parameter point: a smaller scale.
    return ExperimentContext(scale=0.02, seed=1)


# -- Figures 4-10 and Table 1 (shape checks judged by the oracle) -------------


def test_fig4b(ctx):
    """Fig. 4b: near-line ~3.4% with disks at 1.9%; low-end ~4.6% with
    disks at 0.9%; disks are 20-55% of subsystem failures (Finding 1)."""
    result = run_experiment("fig4b", ctx)
    rows = result.data["rows"]
    assert rows["Nearline"]["total"] == pytest.approx(3.4, rel=0.25)
    assert rows["Low-end"]["total"] == pytest.approx(4.6, rel=0.25)
    assert rows["Nearline"][FailureType.DISK.value] == pytest.approx(1.9, rel=0.3)
    assert rows["Low-end"][FailureType.DISK.value] == pytest.approx(0.9, rel=0.4)
    share = result.data["disk_share_range"]
    assert 0.15 <= share["min"] and share["max"] <= 0.60


@pytest.mark.parametrize("panel_id", [panel[0] for panel in PANELS])
def test_fig5_panel(ctx, panel_id):
    """Fig. 5: configurations sit at 2-4%, Disk H systems reach 8.3%."""
    result = run_experiment(panel_id, ctx)
    for row in result.data["rows"].values():
        assert 0.5 <= row["total"] <= 11.0


def test_fig6(ctx):
    """Fig. 6: the better shelf model depends on the disk model
    (Finding 6): B for Disk A-2, A for A-3, D-2 and D-3."""
    better = run_experiment("fig6", ctx).data["better_shelf"]
    assert set(better.values()) == {"A", "B"}
    assert better["A-2"] == "B"
    assert better["A-3"] == better["D-2"] == better["D-3"] == "A"


def test_fig7a_midrange(ctx):
    """Fig. 7a: mid-range single-path interconnect AFR 1.82%, cut 50-60%
    by dual paths (Finding 7)."""
    data = run_experiment("fig7a", ctx).data
    assert data["single_phys"] == pytest.approx(1.82, rel=0.3)
    assert 0.35 <= data["phys_reduction"] <= 0.75


def test_fig7b_highend(ctx):
    """Fig. 7b: high-end single-path interconnect AFR 2.13%."""
    data = run_experiment("fig7b", ctx).data
    assert data["single_phys"] == pytest.approx(2.13, rel=0.3)
    assert 0.35 <= data["phys_reduction"] <= 0.75


def test_fig9a_shelf(ctx):
    """Fig. 9a: ~48% of same-shelf gaps are under 10,000 s; gamma fits
    disk gaps better than the exponential (Findings 8 and 10)."""
    data = run_experiment("fig9a", ctx).data
    assert data["burst_fractions"][OVERALL] == pytest.approx(0.48, abs=0.15)
    fits = data["disk_fit_logliks"]
    assert fits["gamma"] > fits["exponential"]


def test_fig9b_raid_group(ctx):
    """Fig. 9b: ~30% of same-RAID-group gaps are under 10,000 s."""
    data = run_experiment("fig9b", ctx).data
    assert data["burst_fractions"][OVERALL] == pytest.approx(0.30, abs=0.15)


def test_fig9_compare(ctx):
    """Finding 9: shelves are burstier than RAID groups."""
    data = run_experiment("fig9-compare", ctx).data
    assert data["shelf_burst"] > data["raid_group_burst"]


def test_fig10a_shelf(ctx):
    """Fig. 10a: empirical P(2) exceeds the independence model's ~6x for
    disks and more for the other types, at 99.5%+ (Finding 11)."""
    data = run_experiment("fig10a", ctx).data
    disk = data["disk"]
    assert 2.5 <= disk["inflation"] <= 15.0
    for key in ("physical_interconnect", "protocol", "performance"):
        assert data[key]["inflation"] > disk["inflation"] * 0.9
        assert data[key]["p_value"] < 0.005


def test_fig10b_raid_group(ctx):
    """Fig. 10b: empirical P(2) above theoretical per RAID group."""
    for payload in run_experiment("fig10b", ctx).data.values():
        assert payload["p2_empirical"] > payload["p2_theoretical"]


def test_table1(ctx):
    """Table 1: four classes, low-end the most numerous."""
    rows = run_experiment("table1", ctx).data["rows"]
    assert len(rows) == 4
    assert rows["low_end"]["systems"] > rows["high_end"]["systems"]


def test_availability(ctx):
    """§1.1: every class lands between 2 and 5 nines."""
    for payload in run_experiment("availability", ctx).data["by_class"].values():
        assert 2.0 < payload["nines"] < 5.0


def test_replacement_discrepancy(ctx):
    """§3: replacements run 2-4x the true disk AFR (refs [14, 16])."""
    assert 1.8 <= run_experiment("replacement-discrepancy", ctx).data["ratio"] <= 4.5


# -- Extensions and ablations (no oracle: the verdict is asserted here) ------


def passing(experiment_id: str, context: ExperimentContext):
    result = run_experiment(experiment_id, context)
    assert result.passed, result.failed_checks()
    return result.data


def test_fig3(ctx):
    """Fig. 3: an interconnect failure's log cascade."""
    assert passing("fig3", ctx)["lines"] >= 5


def test_ablate_shocks(ctx):
    """Without shared shocks, burstiness falls toward independence."""
    data = passing("ablate-shocks", ctx)
    assert data["independent_burst"] < data["default_burst"]


def test_ablate_span(ctx):
    """Finding 9's counterfactual: single-shelf RAID groups are burstier."""
    data = passing("ablate-span", ctx)
    assert data["single_shelf"]["raid_group"] > data["spanning"]["raid_group"]


def test_ablate_raidloss(ctx):
    """Correlated failures lose data more often than independent ones."""
    data = passing("ablate-raidloss", ctx)
    assert data["correlated_rate"] > data["independent_rate"]


def test_target_ranking(ctx):
    """Interconnect resiliency is the top lever for low-end systems."""
    cuts = passing("target-ranking", ctx)["afr_cut"]
    assert cuts["physical_interconnect"]["low_end"] > 0.45


def test_proactive_policy(ctx):
    """Predict-and-replace beats a random policy of the same budget."""
    assert passing("proactive-policy", ctx)["lift"] > 5.0


def test_whatif_dualpath(ctx):
    passing("whatif-dualpath", ctx)


def test_sweep_multipath(sweep_ctx):
    passing("sweep-multipath", sweep_ctx)


def test_sweep_burstiness(sweep_ctx):
    passing("sweep-burstiness", sweep_ctx)


def test_sweep_scrub(sweep_ctx):
    passing("sweep-scrub", sweep_ctx)


def test_failure_prediction():
    """§7: component errors predict failures well above chance, and
    shelf-neighbour incidents carry weight (correlated failures)."""
    sim = run_scenario("paper-default", scale=0.02, seed=6)
    _, report = train_failure_predictor(sim.injection)
    assert report.auc > 0.7
    assert report.lift_top_decile > 2.0
    assert report.weights["shelf_incidents_30d"] > 0.0
