"""Capture vector-engine goldens: digests of everything one injection makes.

For seeds 101/202/303 at scale 0.02, over eight cases that walk the
engine's non-default paths, records SHA-256 digests of

- the delivered event table (``EventTable.content_digest``);
- the disk lifetime table after injection (id, install, remove, serial
  per row);
- the materialized ``recovered_errors`` (time, event, disk id per
  record, in list order);
- the ``write_logs`` archive (the snapshot, then every system's log in
  fleet order);
- the table ``parse_archive`` mines from that archive against the
  injection's fleet, in strict mode (``parsed``), and, for
  ``paper-default``, leniently from the archive's own snapshot
  (``parsed_snapshot``);

plus the event and recovered-record counts.  The cases:

- the ``paper-default``, ``no-shocks``, ``no-multipath`` and
  ``operator-error`` scenarios (the last injects an extended type);
- ``infant-mortality``: ``InjectorConfig(infant_mortality_factor=3.0)``,
  which chains every bay and grows multi-generation chains;
- ``no-recovered``: ``InjectorConfig(emit_recovered_errors=False)``;
- ``trace``: the ``trace:`` hazard backend replaying the paper-default
  event table this script records at seed 101 (every type through the
  renewal path, no shocks);
- ``slice``: shard 1 of a 4-way plan, built with ``selection=``.

tests/test_vector_goldens.py replays the cases and compares.

Regenerate (only when a deliberate change to the vector engine's
output lands):

    PYTHONPATH=src python tools/capture_vector_goldens.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

SEEDS = (101, 202, 303)
SCALE = 0.02
#: The seed whose paper-default event table the ``trace`` case replays.
TRACE_SEED = 101
#: The ``slice`` case: this shard of an N-way plan.
SLICE_SHARD = (1, 4)
CASES = (
    "paper-default",
    "no-shocks",
    "no-multipath",
    "operator-error",
    "infant-mortality",
    "no-recovered",
    "trace",
    "slice",
)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/vector_engine_goldens.json"
)


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def record_trace(directory: str) -> str:
    """Write the seed-``TRACE_SEED`` paper-default event table; its path."""
    from repro.core.colstore import save_table

    _, result = inject("paper-default", TRACE_SEED, None)
    path = os.path.join(directory, "trace-events.npz")
    save_table(path, result.to_table())
    return path


def setup(case: str, trace_path=None):
    """``(spec, injector config, selection or None)`` for one case."""
    from repro.failures.injector import InjectorConfig
    from repro.fleet.spec import FleetSpec
    from repro.runtime.shard import ShardPlan
    from repro.simulate.scenario import SCENARIOS

    spec = FleetSpec.paper_default(scale=SCALE)
    if case in SCENARIOS:
        scenario = SCENARIOS[case]
        return scenario.make_spec(SCALE), scenario.make_config(), None
    if case == "infant-mortality":
        return spec, InjectorConfig(infant_mortality_factor=3.0), None
    if case == "no-recovered":
        return spec, InjectorConfig(emit_recovered_errors=False), None
    if case == "trace":
        return spec, InjectorConfig(hazard_backend="trace:%s" % trace_path), None
    if case == "slice":
        index, n_shards = SLICE_SHARD
        plan = ShardPlan.build(spec, n_shards)
        return spec, InjectorConfig(), plan.shards[index].selection_mapping()
    raise ValueError("unknown case %r" % case)


def inject(case: str, seed: int, trace_path):
    """Build the case's fleet and inject into it, as the engine does."""
    from repro.fleet.builder import build_fleet
    from repro.rng import RandomSource
    from repro.simulate.vector.engine import VectorFailureInjector

    spec, config, selection = setup(case, trace_path)
    source = RandomSource(seed)
    fleet = build_fleet(spec, source, selection=selection)
    result = VectorFailureInjector(config).inject(fleet, source)
    return fleet, result


def lifetime_lines(fleet):
    import numpy as np

    rows = np.arange(fleet.disk_count_ever)
    for disk_id, install, remove, serial in zip(
        fleet.disk_ids(rows),
        fleet.disk_install.tolist(),
        fleet.disk_remove.tolist(),
        fleet.disk_serial.tolist(),
    ):
        yield "%s %r %r %d" % (disk_id, install, remove, serial)


def recovered_lines(errors):
    for error in errors:
        yield "%r %s %s" % (error.time, error.event, error.disk_id)


def archive_lines(archive):
    yield archive.snapshot
    for system_id, text in archive.logs.items():
        yield system_id
        yield text


def case_digests(case: str, seed: int, trace_path) -> dict:
    from repro.autosupport.parser import parse_archive
    from repro.autosupport.writer import write_logs

    fleet, result = inject(case, seed, trace_path)
    errors = result.recovered_errors
    archive = write_logs(result)
    digests = {
        "events": result.n_events(),
        "recovered": len(errors),
        "table": result.to_table().content_digest(),
        "lifetimes": _sha(lifetime_lines(fleet)),
        "recovered_errors": _sha(recovered_lines(errors)),
        "logs": _sha(archive_lines(archive)),
        "parsed": parse_archive(archive, fleet=fleet, strict=True).table.content_digest(),
    }
    if case == "paper-default":
        digests["parsed_snapshot"] = parse_archive(archive).table.content_digest()
    return digests


def capture() -> dict:
    with tempfile.TemporaryDirectory() as directory:
        trace_path = record_trace(directory)
        return {
            "scale": SCALE,
            "seeds": list(SEEDS),
            "cases": {
                case: {
                    str(seed): case_digests(case, seed, trace_path)
                    for seed in SEEDS
                }
                for case in CASES
            },
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(DEFAULT_OUT))
    args = parser.parse_args(argv)
    goldens = capture()
    Path(args.out).write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print("wrote %d cases to %s" % (len(goldens["cases"]), args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
