#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md: paper-vs-measured for every table/figure.

Runs the full experiment registry at scale 0.05 and renders a
markdown report.  Usage:

    python tools/generate_experiments_md.py [--scale 0.05] [--seed 1]
"""

from __future__ import annotations

import argparse
import io
import json
from pathlib import Path

import capture_engine_oracle as oracle_tool
from repro.core.findings import evaluate_findings
from repro.experiments import EXPERIMENTS, ExperimentContext, run_experiment
from repro.failures.types import FailureType

ROOT = Path(__file__).resolve().parent.parent
#: Per-seed check verdicts of the per-unit engine at scale 0.05.
ORACLE = ROOT / "tests/goldens/engine_oracle.json"
#: The tests that assert each experiment's paper values.
SHAPES = ROOT / "tests/test_paper_shapes.py"

#: What the paper reports, per experiment id (prose, quoted in the doc).
PAPER_VALUES = {
    "table1": (
        "39,000 systems; 155,000 shelves; 1,800,000 disks ever installed; "
        "~239,000 RAID groups; SATA near-line / FC primaries; dual path on "
        "mid/high-end only; tens of thousands of failure events over 44 months."
    ),
    "fig3": (
        "A cascade: FC device timeout, adapter reset, SCSI aborts and "
        "retries, 'No more paths to device', then the RAID layer's "
        "'disk ... is missing' event, spanning about three minutes."
    ),
    "fig4a": (
        "Including Disk H, every class's disk segment grows; low-end peaks "
        "near 5%+ subsystem AFR."
    ),
    "fig4b": (
        "Near-line: ~3.4% total with 1.9% disks. Low-end: ~4.6% total with "
        "0.9% disks (disks only ~20%). Disk share 20-55% across classes; "
        "interconnects 27-68%; protocol 5-10%; performance 4-8%."
    ),
    "fig5a": "Near-line/shelf C: panels sit at roughly 2-4% subsystem AFR.",
    "fig5b": "Low-end/shelf A: H-2 well above peers (Finding 3).",
    "fig5c": "Low-end/shelf B: H-2 well above peers.",
    "fig5d": "Mid-range/shelf C: H-1 elevated vs B-1/C-1/G-1.",
    "fig5e": (
        "Mid-range/shelf B: H-1/H-2 at 3.9-8.3%; D-2 below D-1 (capacity "
        "non-trend); disk AFR of D-2 varies 0.6-0.77% across environments "
        "(std ~8%) while subsystem AFR varies 2.2-4.9% (std ~127%)."
    ),
    "fig5f": "High-end/shelf B: H family elevated; others 2-4%.",
    "fig5-stability": (
        "Finding 4: average std of disk AFR across environments <11%; of "
        "subsystem AFR ~98%. Finding 5: no AFR increase with capacity."
    ),
    "fig6": (
        "Disk A-2: shelf A 2.66+/-0.23% vs shelf B 2.18+/-0.13% interconnect "
        "AFR (99.5%); A-3/D-2/D-3 flip direction (A better), at 99.5-99.9%."
    ),
    "fig7a": (
        "Mid-range: interconnect 1.82+/-0.04% single -> 0.91+/-0.09% dual "
        "(-50%); subsystem -30-40%; 99.9% significance."
    ),
    "fig7b": (
        "High-end: interconnect 2.13+/-0.07% single -> 0.90+/-0.06% dual "
        "(-58%); subsystem -30-40%; 99.9% significance."
    ),
    "fig9a": (
        "~48% of same-shelf gaps < 10^4 s; interconnect the most bursty; "
        "disk failures far less bursty, best fit by a gamma distribution "
        "(chi-square cannot reject at 0.05); none of exp/gamma/Weibull fits "
        "the bursty types."
    ),
    "fig9b": "~30% of same-RAID-group gaps < 10^4 s; all types less bursty.",
    "fig9-compare": "Shelf burstiness (48%) > RAID group burstiness (30%).",
    "fig10a": (
        "Empirical P(2) exceeds P(1)^2/2 by ~6x for disk failures, 10-25x "
        "for the others; statistically different at 99.5%."
    ),
    "fig10b": "Same conclusion per RAID group.",
    "ablate-shocks": (
        "(Design ablation; no paper artifact.) Removing shared shocks must "
        "collapse burstiness and P(2) inflation to the independence model."
    ),
    "ablate-span": (
        "(Finding 9 counterfactual.) Packing RAID groups into single "
        "shelves must raise group burstiness to shelf levels."
    ),
    "ablate-raidloss": (
        "(Implication of Finding 11.) Correlated failures must produce more "
        "RAID data-loss incidents than the independence assumption — and "
        "the classic analytic MTTDL — predict."
    ),
    "sweep-multipath": (
        "(Model sensitivity; no paper artifact.) Dual-path benefit must be "
        "monotone in failover success and saturate at the network-path "
        "share of interconnect causes."
    ),
    "sweep-burstiness": (
        "(Model sensitivity; no paper artifact.) Burstiness and P(2) "
        "inflation must be monotone in the shared-shock share."
    ),
    "predict-failures": (
        "(The paper's §7 future work, built.) Component errors must predict "
        "subsystem failures well above chance, with shelf-neighbour trouble "
        "carrying signal (correlated failures)."
    ),
    "availability": (
        "(The paper's §1.1 motivation: SLA metrics.) Availability is a "
        "per-system metric, so the per-disk AFR ordering inverts: small "
        "low-end systems deliver the best availability; dual path helps."
    ),
    "sweep-scrub": (
        "(§2.5's hourly proactive verification, varied.) Slower scrubs "
        "lengthen detection lag and widen multi-failure overlap windows, "
        "raising RAID data-loss risk."
    ),
    "target-ranking": (
        "(§7 future work: per-type resiliency.) Interconnect resiliency is "
        "the biggest AFR lever for primary classes and the biggest "
        "data-loss lever overall; disk-targeted resiliency wins only in "
        "near-line."
    ),
    "proactive-policy": (
        "(Future work, operationalized.) A budgeted predict-and-replace "
        "policy must spend its pulls far better than random — yet most "
        "subsystem failures stay unavoidable by disk swaps."
    ),
    "replacement-discrepancy": (
        "(§3's reconciliation with refs [14, 16].) Disks are replaced 2-4x "
        "more often than vendor AFRs because admins replace on observed "
        "unavailability; replacement rate approximates subsystem AFR."
    ),
    "whatif-dualpath": (
        "(Finding 7 as a fleet-planning counterfactual.) Upgrading every "
        "system to dual paths would cut fleet subsystem AFR by the masked "
        "share of single-path network faults."
    ),
}


def measured_summary(result) -> str:
    """A compact measured-numbers line per experiment."""
    data = result.data
    if result.experiment_id == "fig4b":
        rows = data["rows"]
        return (
            "Nearline %.2f%% total / %.2f%% disks; Low-end %.2f%% total / "
            "%.2f%% disks; disk share %.0f-%.0f%%."
            % (
                rows["Nearline"]["total"],
                rows["Nearline"][FailureType.DISK.value],
                rows["Low-end"]["total"],
                rows["Low-end"][FailureType.DISK.value],
                100 * data["disk_share_range"]["min"],
                100 * data["disk_share_range"]["max"],
            )
        )
    if result.experiment_id in ("fig7a", "fig7b"):
        return (
            "interconnect %.2f%% single -> %.2f%% dual (-%.0f%%); subsystem "
            "-%.0f%%; p=%.1e; idealized two-network %.4f%%."
            % (
                data["single_phys"],
                data["dual_phys"],
                100 * data["phys_reduction"],
                100 * data["total_reduction"],
                data["p_value"],
                data["idealized_dual_phys"],
            )
        )
    if result.experiment_id in ("fig9a", "fig9b"):
        burst = data["burst_fractions"]
        fits = data["disk_fit_logliks"]
        ranked = sorted(fits, key=fits.get, reverse=True)
        return "overall %.0f%% of gaps < 10^4 s; disk-gap fit ranking: %s." % (
            100 * burst["Overall Storage Subsystem Failure"],
            " > ".join(ranked),
        )
    if result.experiment_id in ("fig10a", "fig10b"):
        return "; ".join(
            "%s %.1fx (p=%.1e)" % (key, val["inflation"], val["p_value"])
            for key, val in data.items()
        )
    if result.experiment_id == "fig6":
        return "better shelf per disk model: %s." % data["better_shelf"]
    if result.experiment_id == "ablate-shocks":
        return (
            "burst %.0f%% -> %.0f%%; interconnect inflation %.1fx -> %.1fx."
            % (
                100 * data["default_burst"],
                100 * data["independent_burst"],
                data["default_inflation"]["physical_interconnect"],
                data["independent_inflation"]["physical_interconnect"],
            )
        )
    if result.experiment_id == "ablate-span":
        return (
            "group burst: spanning %.0f%% vs single-shelf %.0f%% (shelf %.0f%%)."
            % (
                100 * data["spanning"]["raid_group"],
                100 * data["single_shelf"]["raid_group"],
                100 * data["single_shelf"]["shelf"],
            )
        )
    if result.experiment_id == "ablate-raidloss":
        return (
            "loss per 1000 group-years: correlated %.2f vs independent %.2f "
            "vs analytic MTTDL %.4f."
            % (
                data["correlated_rate"],
                data["independent_rate"],
                data["analytic_rate"],
            )
        )
    if result.experiment_id == "sweep-multipath":
        return "; ".join(
            "mask %.2f -> reduction %.0f%%" % (key, 100 * value)
            for key, value in sorted(data["reductions"].items())
        )
    if result.experiment_id == "sweep-burstiness":
        return "; ".join(
            "rho x%.2f -> burst %.0f%%" % (key, 100 * value)
            for key, value in sorted(data["burst"].items())
        )
    if result.experiment_id == "sweep-scrub":
        return "; ".join(
            "%sh scrub -> loss %.2f/1000gy" % ("%g" % key, value)
            for key, value in sorted(data["loss_rate"].items())
        )
    if result.experiment_id == "target-ranking":
        cuts = data["afr_cut"]
        return "; ".join(
            "%s: best target %s"
            % (cls, max(cuts, key=lambda ft: cuts[ft][cls]))
            for cls in ("nearline", "low_end", "mid_range", "high_end")
        )
    if result.experiment_id == "proactive-policy":
        return (
            "%d pulls, %d avoided (precision %.3f, %.0fx over random), "
            "%.0f%% of disk failures covered; %.0f%% of subsystem failures "
            "unavoidable by swaps."
            % (
                data["flags"],
                data["avoided"],
                data["precision"],
                data["lift"],
                100 * data["avoided_share"],
                100 * data["unavoidable_share"],
            )
        )
    if result.experiment_id == "replacement-discrepancy":
        return (
            "ARR %.2f%% vs disk AFR %.2f%% -> %.1fx (low-end %.1fx); only "
            "%.0f%% of replacements were true disk failures."
            % (
                data["arr"],
                data["disk_afr"],
                data["ratio"],
                data["lowend_ratio"],
                100 * data["causes"].get("disk", 0.0),
            )
        )
    if result.experiment_id == "whatif-dualpath":
        return (
            "subsystem AFR %.2f%% -> %.2f%% (-%.0f%%; closed form %.0f%%)."
            % (
                data["factual_afr"],
                data["counterfactual_afr"],
                100 * data["reduction"],
                100 * data["expected_reduction"],
            )
        )
    if result.experiment_id == "availability":
        rows = data["by_class"]
        return "; ".join(
            "%s %.2f nines" % (label, payload["nines"])
            for label, payload in rows.items()
        )
    if result.experiment_id == "predict-failures":
        return (
            "AUC %.3f; precision %.2f / recall %.2f at 0.5; top-decile lift "
            "%.1fx; strongest weight: shelf neighbours' incidents."
            % (
                data["auc"],
                data["precision"],
                data["recall"],
                data["lift_top_decile"],
            )
        )
    if result.experiment_id == "table1":
        rows = data["rows"]
        return "; ".join(
            "%s: %d systems / %d shelves / %d disks"
            % (name, row["systems"], row["shelves"], row["disks_ever"])
            for name, row in rows.items()
        )
    checks = sum(result.checks.values())
    return "%d/%d shape checks hold." % (checks, len(result.checks))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="EXPERIMENTS.md")
    args = parser.parse_args()

    context = ExperimentContext(scale=args.scale, seed=args.seed)
    out = io.StringIO()

    order = [
        "table1", "fig3", "fig4a", "fig4b",
        "fig5a", "fig5b", "fig5c", "fig5d", "fig5e", "fig5f", "fig5-stability",
        "fig6", "fig7a", "fig7b",
        "fig9a", "fig9b", "fig9-compare", "fig10a", "fig10b",
        "ablate-shocks", "ablate-span", "ablate-raidloss",
        "sweep-multipath", "sweep-burstiness", "sweep-scrub",
        "predict-failures", "availability", "whatif-dualpath",
        "replacement-discrepancy", "proactive-policy", "target-ranking",
    ]
    failed = []
    for experiment_id in order:
        title, _runner = EXPERIMENTS[experiment_id]
        result = run_experiment(experiment_id, context)
        failed.extend("%s:%s" % (experiment_id, name) for name in result.failed_checks())
        verdict = "PASS" if result.passed else "FAIL (%s)" % ", ".join(
            result.failed_checks()
        )
        out.write("## `%s` — %s\n\n" % (experiment_id, title))
        out.write("- **Paper:** %s\n" % PAPER_VALUES.get(experiment_id, "-"))
        out.write("- **Measured:** %s\n" % measured_summary(result))
        out.write(
            "- **Shape checks:** %s — %s\n" % (
                verdict,
                ", ".join(sorted(result.checks)),
            )
        )
        out.write("- **Asserted by:** %s\n\n" % _asserted_by(experiment_id))

    out.write("## Findings scoreboard\n\n")
    findings = evaluate_findings(context.dataset("paper-default"))
    for finding in findings:
        out.write(
            "- **Finding %d** [%s] %s\n"
            % (finding.number, "PASS" if finding.passed else "FAIL", finding.statement)
        )
        if not finding.passed:
            failed.append("finding-%d" % finding.number)
    out.write(
        "\nOverall: %s\n"
        % (
            "SOME CHECKS FAILED - see above"
            if failed
            else "all experiments and findings reproduce the paper's shapes"
        )
    )

    with open(args.out, "w") as handle:
        handle.write(_header(args.scale, args.seed, failed) + out.getvalue())
    print("wrote %s (%d experiments)" % (args.out, len(order)))


def _header(scale: float, seed: int, failed) -> str:
    """The title and introduction, with how often the per-unit engine
    failed the checks this seed fails."""
    oracle = json.loads(ORACLE.read_text())
    rates = [
        "`%s` at %d/%d" % (name, len(oracle["failures"][name]), len(oracle["seeds"]))
        for name in failed
        if name in oracle["failures"]
    ]
    text = (
        "# EXPERIMENTS — paper vs. measured\n\n"
        "Every table and figure of the FAST '08 paper, regenerated on the\n"
        "simulated fleet (scale %.2f of the paper's 39,000 systems, seed %d;\n"
        "`python tools/generate_experiments_md.py` regenerates this file).\n"
        "Absolute numbers are not expected to match — the substrate is a\n"
        "calibrated simulator, not NetApp's field data — but the *shape*\n"
        "(who wins, by what factor, where crossovers fall) must hold, and\n"
        "each experiment's shape checks assert exactly that.\n\n"
        "At this scale a shape check is a per-seed draw: a check can fail\n"
        "at one seed and hold at the next.  `tests/test_engine_oracle.py`\n"
        "compares each check's failure rate over seeds 1-30 with that of\n"
        "the per-unit engine over seeds 1-100\n"
        "(`tests/goldens/engine_oracle.json`, scale 0.05).\n"
        % (scale, seed)
    )
    if rates:
        text += (
            "The per-unit engine failed the checks this seed fails as well:\n"
            "%s seeds.\n" % ", ".join(rates)
        )
    return text + "\n"


#: The paper-value tests of tests/test_paper_shapes.py whose names are
#: not ``test_<id>``; None where the oracle's verdicts are all there is.
SHAPE_TESTS = {
    "fig4a": None,
    "fig5-stability": None,
    "fig7a": "test_fig7a_midrange",
    "fig7b": "test_fig7b_highend",
    "fig9a": "test_fig9a_shelf",
    "fig9b": "test_fig9b_raid_group",
    "fig10a": "test_fig10a_shelf",
    "fig10b": "test_fig10b_raid_group",
    "predict-failures": "test_failure_prediction",
}
SHAPE_TESTS.update({"fig5%s" % panel: "test_fig5_panel[fig5%s]" % panel for panel in "abcdef"})


def _asserted_by(experiment_id: str) -> str:
    """The tests that assert an experiment's paper values and checks."""
    test = SHAPE_TESTS.get(experiment_id, "test_" + experiment_id.replace("-", "_"))
    if test is not None and "def %s(" % test.split("[")[0] not in SHAPES.read_text():
        raise SystemExit("tests/test_paper_shapes.py has no %s" % test)
    tests = [] if test is None else ["`tests/test_paper_shapes.py::%s`" % test]
    if experiment_id in oracle_tool.EXPERIMENTS:
        tests.append("`tests/test_engine_oracle.py` (shape checks over seeds 1-30)")
    return "; ".join(tests)


if __name__ == "__main__":
    main()
