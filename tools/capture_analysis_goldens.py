"""Capture analysis-layer goldens: digests of what each analysis returns.

Records SHA-256 digests, under the batched engine's key ``vector``, of

- per seed 3/5/7 at scale 0.005 (``paper-default``): ``counts_by_type``,
  ``afr_stack``, ``afr_by_class`` with and without the Disk H family,
  ``gaps_by_scope`` for both scopes, ``find_bursts`` (shelf),
  ``summarize_bursts`` (RAID group), ``correlation_by_type`` (shelf)
  and ``count_distribution`` (RAID group, all types);
- the dataset parsed back from the AutoSupport logs (scale 0.002,
  seed 9): counts, ``afr_stack``, shelf gaps and shelf correlation;
- the dataset methods on the seed-3 dataset: ``events_of_type`` per
  type, ``filter_systems``, ``excluding_disk_family``,
  ``deduplicated``, and the deduplication of a synthetic chain of
  near-duplicate reports;
- at scale 0.02, seed 1: ``evaluate_findings``, and the text, data and
  checks of the fig4a, fig9a and fig10a experiments, of the two that
  build datasets from event lists, ``whatif-dualpath`` and
  ``target-ranking``, and of every experiment that groups systems by
  configuration: fig4b, fig5a-f, fig5-stability, fig6, fig7a/b,
  table1, availability, replacement-discrepancy and sweep-multipath
  (which runs three simulations of its own).

Every value is digested through :func:`canonical`: dicts keep their
key order, dataclasses their field order, floats are written with
``repr``, NumPy scalars as the Python scalar they hold, arrays as dtype,
shape and raw bytes.  tests/test_analysis_goldens.py replays the same
calls and compares.

Regenerate (only when a deliberate change to an analysis's output
lands):

    PYTHONPATH=src python tools/capture_analysis_goldens.py
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

#: The goldens' engine keys: the batched (vector) engine's digests.
ENGINES = ("vector",)
SEEDS = (3, 5, 7)
SCALE = 0.005
#: The dataset the method-level cases read (the first seed's).
METHOD_SEED = SEEDS[0]
LOGS_SCALE = 0.002
LOGS_SEED = 9
MIDSIZE_SCALE = 0.02
MIDSIZE_SEED = 1
EXPERIMENTS = (
    "fig4a",
    "fig9a",
    "fig10a",
    "whatif-dualpath",
    "target-ranking",
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
    "table1",
    "availability",
    "replacement-discrepancy",
    "sweep-multipath",
)
SECTIONS = tuple("seed-%d" % seed for seed in SEEDS) + (
    "via-logs",
    "methods",
    "midsize",
)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/analysis_goldens.json"
)


def _tokens(value):
    """Yield the canonical text tokens of one analysis output."""
    import numpy as np

    if value is None or isinstance(value, (bool, np.bool_)):
        yield repr(None if value is None else bool(value))
    elif isinstance(value, enum.Enum):
        yield "%s.%s" % (type(value).__name__, value.name)
    elif isinstance(value, (int, np.integer)):
        yield "i%d" % int(value)
    elif isinstance(value, (float, np.floating)):
        yield "f" + repr(float(value))
    elif isinstance(value, str):
        yield json.dumps(value)
    elif isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        yield "array(%s,%r,%s)" % (
            data.dtype.str,
            data.shape,
            hashlib.sha256(data.tobytes()).hexdigest(),
        )
    elif dataclasses.is_dataclass(value):
        yield type(value).__name__ + "("
        for field in dataclasses.fields(value):
            yield field.name + "="
            yield from _tokens(getattr(value, field.name))
        yield ")"
    elif isinstance(value, dict):
        yield "{"
        for key, item in value.items():
            yield from _tokens(key)
            yield ":"
            yield from _tokens(item)
        yield "}"
    elif isinstance(value, (list, tuple)):
        yield type(value).__name__ + "["
        for item in value:
            yield from _tokens(item)
        yield "]"
    else:
        raise TypeError("no canonical form for %r" % type(value))


def canonical(value) -> str:
    """SHA-256 of ``value``'s canonical token stream."""
    digest = hashlib.sha256()
    for token in _tokens(value):
        digest.update(token.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def seed_outputs(dataset) -> dict:
    """The per-seed aggregates, keyed by name."""
    from repro.core.afr import afr_stack
    from repro.core.breakdown import afr_by_class
    from repro.core.bursts import find_bursts, summarize_bursts
    from repro.core.correlation import correlation_by_type, count_distribution
    from repro.core.timebetween import gaps_by_scope

    return {
        "counts": dataset.counts_by_type(),
        "afr": afr_stack(dataset),
        "by_class": afr_by_class(dataset),
        "by_class_no_h": afr_by_class(dataset.excluding_disk_family()),
        "gaps_shelf": gaps_by_scope(dataset, "shelf"),
        "gaps_rg": gaps_by_scope(dataset, "raid_group"),
        "bursts": find_bursts(dataset, "shelf"),
        "burst_summary": summarize_bursts(dataset, "raid_group"),
        "correlation": correlation_by_type(dataset, "shelf"),
        "count_dist": count_distribution(dataset, None, "raid_group"),
    }


def logs_outputs(dataset) -> dict:
    """The aggregates of the dataset parsed back from the logs."""
    from repro.core.afr import afr_stack
    from repro.core.correlation import correlation_by_type
    from repro.core.timebetween import gaps_by_scope

    return {
        "counts": dataset.counts_by_type(),
        "afr": afr_stack(dataset),
        "gaps_shelf": gaps_by_scope(dataset, "shelf"),
        "correlation": correlation_by_type(dataset, "shelf"),
    }


def synthetic_chain(dataset):
    """``dataset`` plus three near-duplicates of its first event.

    The copies are 0.6 h apart: each is within an hour of the previous
    report but only every other one within an hour of the last *kept*
    one, which is the rule deduplication must apply.
    """
    from repro.core.dataset import FailureDataset

    base = dataset.events[0]
    chain = [
        dataclasses.replace(
            base,
            occur_time=base.occur_time + offset,
            detect_time=base.detect_time + offset,
        )
        for offset in (2160.0, 4320.0, 6480.0)
    ]
    events = sorted(list(dataset.events) + chain, key=lambda e: e.detect_time)
    return FailureDataset(events=events, fleet=dataset.fleet)


def method_outputs(dataset) -> dict:
    """The ``FailureDataset`` methods' outputs, keyed by name."""
    import numpy as np

    from repro.failures.types import FAILURE_TYPE_ORDER

    outputs = {
        "events_of_type:%s" % failure_type.value: dataset.events_of_type(
            failure_type
        )
        for failure_type in FAILURE_TYPE_ORDER
    }
    picked = [system_id.endswith(("0", "1")) for system_id in dataset.fleet.system_ids]
    outputs["filter_systems"] = dataset.filter_systems(
        np.array(picked, dtype=bool)
    ).events
    outputs["excluding_disk_family"] = dataset.excluding_disk_family().events
    outputs["deduplicated"] = dataset.deduplicated().events
    outputs["dedup_synthetic_chain"] = (
        synthetic_chain(dataset).deduplicated().events
    )
    return outputs


def midsize_outputs(config) -> dict:
    """Findings and the experiments at scale 0.02, seed 1."""
    from repro.core.findings import evaluate_findings
    from repro.experiments import ExperimentContext, run_experiment

    context = ExperimentContext(
        scale=MIDSIZE_SCALE, seed=MIDSIZE_SEED, config=config
    )
    outputs = {"findings": evaluate_findings(context.dataset("paper-default"))}
    for experiment_id in EXPERIMENTS:
        result = run_experiment(experiment_id, context)
        outputs[experiment_id + ":text"] = result.text
        outputs[experiment_id + ":data"] = result.data
        outputs[experiment_id + ":checks"] = result.checks
    return outputs


def section_outputs(section: str, config=None) -> dict:
    """One section's outputs under ``config`` (a ``RunConfig``; by
    default the one the environment selects)."""
    from repro.runconfig import RunConfig
    from repro.simulate.scenario import run_scenario

    config = config or RunConfig.from_env()

    if section.startswith("seed-"):
        seed = int(section[len("seed-"):])
        return seed_outputs(
            run_scenario(
                "paper-default", scale=SCALE, seed=seed, config=config
            ).dataset
        )
    if section == "via-logs":
        return logs_outputs(
            run_scenario(
                "paper-default",
                scale=LOGS_SCALE,
                seed=LOGS_SEED,
                via_logs=True,
                config=config,
            ).dataset
        )
    if section == "methods":
        return method_outputs(
            run_scenario(
                "paper-default", scale=SCALE, seed=METHOD_SEED, config=config
            ).dataset
        )
    if section == "midsize":
        return midsize_outputs(config)
    raise ValueError("unknown section %r" % section)


def capture_section(section: str) -> dict:
    """Digests of one section's outputs at the default run config."""
    from repro.runconfig import RunConfig

    outputs = section_outputs(section, RunConfig())
    return {name: canonical(value) for name, value in outputs.items()}


def capture() -> dict:
    return {
        "engines": {
            engine: {section: capture_section(section) for section in SECTIONS}
            for engine in ENGINES
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)
    goldens = capture()
    Path(args.out).write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print("wrote %d engines to %s" % (len(goldens["engines"]), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
