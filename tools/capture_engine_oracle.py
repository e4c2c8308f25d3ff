"""The engine oracle: per-seed figure statistics and shape-check verdicts.

Runs ``paper-default`` at scale 0.05 (the reproduction scale of
EXPERIMENTS.md) once per seed and records, for each seed,

- 17 statistics: the four per-type AFRs; the fig5-stability capacity
  trend mean; fig5c's Disk H / other total-AFR ratio; fig9a's five
  burst fractions; fig10a's four P(2) inflations; and the
  replacement-discrepancy disk share and ARR / disk-AFR ratio;
- every shape-check verdict of table1, fig4a/b, fig5a-f,
  fig5-stability, fig6, fig7a/b, fig9a/b, fig9-compare, fig10a/b,
  replacement-discrepancy and availability, plus Findings 1-11.

tests/goldens/engine_oracle.json holds these records for the per-unit
(legacy) engine at seeds 1-100.  This script's ``capture`` command took
them at the commit the file names, the last one that had that engine;
with the engine gone, the command went too.
tests/test_engine_oracle.py records the batched engine at its own
seeds and compares the two samples with :func:`comparisons`: a Welch
t-test per statistic's mean, a two-sided F-test per statistic's
variance and a Fisher exact test per check's failure count.

Compare the engine against the committed oracle, smallest p first:

    PYTHONPATH=src python tools/capture_engine_oracle.py --seeds 1-30
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

SCENARIO = "paper-default"
SCALE = 0.05
ORACLE_SEEDS = tuple(range(1, 101))
EXPERIMENTS = (
    "table1",
    "fig4a",
    "fig4b",
    "fig5a",
    "fig5b",
    "fig5c",
    "fig5d",
    "fig5e",
    "fig5f",
    "fig5-stability",
    "fig6",
    "fig7a",
    "fig7b",
    "fig9a",
    "fig9b",
    "fig9-compare",
    "fig10a",
    "fig10b",
    "replacement-discrepancy",
    "availability",
)
ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / "tests/goldens/engine_oracle.json"


def record(seed: int, config=None) -> Tuple[Dict[str, float], Dict[str, bool]]:
    """One seed's statistics and verdicts under ``config`` (a ``RunConfig``)."""
    from repro.core.afr import afr_stack
    from repro.core.findings import evaluate_findings
    from repro.experiments import ExperimentContext, run_experiment
    from repro.runconfig import RunConfig

    context = ExperimentContext(
        scale=SCALE, seed=seed, config=config or RunConfig.from_env()
    )
    dataset = context.dataset(SCENARIO)
    results = {eid: run_experiment(eid, context) for eid in EXPERIMENTS}

    stats = {
        "afr:%s" % failure_type.value: estimate.percent
        for failure_type, estimate in afr_stack(dataset).items()
    }
    stats["fig5-stability:capacity_trend_mean"] = results["fig5-stability"].data[
        "capacity_trend"
    ]["mean"]
    rows = results["fig5c"].data["rows"]
    h_rows = [row["total"] for label, row in rows.items() if label.startswith("Disk H")]
    other_rows = [
        row["total"] for label, row in rows.items() if not label.startswith("Disk H")
    ]
    stats["fig5c:disk_h_ratio"] = statistics.mean(h_rows) / statistics.mean(other_rows)
    for series, fraction in results["fig9a"].data["burst_fractions"].items():
        stats["fig9a:burst:%s" % series] = fraction
    for failure_type, row in results["fig10a"].data.items():
        stats["fig10a:inflation:%s" % failure_type] = row["inflation"]
    discrepancy = results["replacement-discrepancy"].data
    stats["replacement-discrepancy:disk_share"] = discrepancy["causes"]["disk"]
    stats["replacement-discrepancy:ratio"] = discrepancy["ratio"]

    verdicts = {
        "%s:%s" % (eid, name): bool(ok)
        for eid, result in results.items()
        for name, ok in result.checks.items()
    }
    for finding in evaluate_findings(dataset):
        verdicts["finding-%d" % finding.number] = bool(finding.passed)
    return {name: float(value) for name, value in stats.items()}, verdicts


def records(seeds: Sequence[int], config=None) -> dict:
    """Every seed's record, in the oracle's column layout.

    ``statistics`` maps each name to its per-seed values in ``seeds``
    order; ``failures`` maps each check to the seeds where it did not
    pass (a check a seed does not produce counts as not passing).  The
    seeds run on two worker processes; each record depends only on its
    seed.
    """
    from repro.runtime.pool import WorkerPool

    rows = WorkerPool(jobs=2).map(functools.partial(record, config=config), seeds)
    stat_names = list(rows[0][0])
    check_names = sorted({name for _, verdicts in rows for name in verdicts})
    return {
        "seeds": list(seeds),
        "statistics": {
            name: [stats[name] for stats, _ in rows] for name in stat_names
        },
        "failures": {
            name: [
                seed
                for seed, (_, verdicts) in zip(seeds, rows)
                if not verdicts.get(name, False)
            ]
            for name in check_names
        },
    }


def _f_test(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sided p of the F-test for equal variances."""
    from scipy import stats as scipy_stats

    var_a, var_b = statistics.variance(a), statistics.variance(b)
    if var_a == var_b:
        return 1.0
    if var_b == 0.0:
        return 0.0
    dist = scipy_stats.f(len(a) - 1, len(b) - 1)
    ratio = var_a / var_b
    return min(1.0, 2.0 * min(dist.cdf(ratio), dist.sf(ratio)))


def comparisons(oracle: dict, observed: dict) -> List[Tuple[float, str, str]]:
    """``(p, comparison, summary)`` for every comparison, smallest p first.

    One Welch t-test (``mean``) and one F-test (``variance``) per
    statistic, one Fisher exact test (``failures``) per check.  A check
    present in only one of the two records compares as never passing
    in the other.
    """
    from scipy import stats as scipy_stats

    from repro.stats.tests import welch_t_test

    rows = []
    for name, reference in oracle["statistics"].items():
        sample = observed["statistics"][name]
        welch = welch_t_test(reference, sample)
        rows.append(
            (
                welch.p_value,
                "mean %s" % name,
                "%.4g vs %.4g" % (statistics.mean(reference), statistics.mean(sample)),
            )
        )
        rows.append(
            (
                _f_test(reference, sample),
                "variance %s" % name,
                "sd %.4g vs %.4g" % (statistics.stdev(reference), statistics.stdev(sample)),
            )
        )
    n_ref, n_obs = len(oracle["seeds"]), len(observed["seeds"])
    for name in sorted(set(oracle["failures"]) | set(observed["failures"])):
        fail_ref = len(oracle["failures"].get(name, oracle["seeds"]))
        fail_obs = len(observed["failures"].get(name, observed["seeds"]))
        _, p_value = scipy_stats.fisher_exact(
            [[fail_ref, n_ref - fail_ref], [fail_obs, n_obs - fail_obs]]
        )
        rows.append(
            (
                float(p_value),
                "failures %s" % name,
                "%d/%d vs %d/%d" % (fail_ref, n_ref, fail_obs, n_obs),
            )
        )
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def _seed_range(text: str) -> Tuple[int, ...]:
    first, _, last = text.partition("-")
    return tuple(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("1-30"))
    parser.add_argument("--oracle", default=str(DEFAULT_OUT))
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args(argv)

    oracle = json.loads(Path(args.oracle).read_text())
    rows = comparisons(oracle, records(args.seeds))
    bound = 0.01 / len(rows)
    print("m = %d comparisons, bound p >= %.3g" % (len(rows), bound))
    for p_value, name, summary in rows[: args.top]:
        print("  p=%-10.3g %-60s %s" % (p_value, name, summary))
    return 0 if rows[0][0] >= bound else 1


if __name__ == "__main__":
    sys.exit(main())
