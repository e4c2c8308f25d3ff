"""Capture fleet-build goldens: digests of what ``build_fleet`` produces.

For seeds 101/202/303 at scale 0.02, under both RAID layout policies,
plus one shard's ``selection=`` slice, records SHA-256 digests of

- every system's fields (id, class, models, path flag, deploy time,
  shelf / RAID-group / bay counts);
- every bay's RAID group id;
- every disk's id, serial and install time;
- the configuration snapshot text (``write_snapshot``);
- after injection by the batched (vector) engine: the disk lifetime
  table (install and remove per disk), the snapshot text and every
  system's exposure (disk-seconds, ``repr`` of the float).  Their keys
  keep the ``_vector`` suffix they were first captured under.

The digests only read the public fleet surface (``systems``,
``iter_slots``, ``iter_disks``), so the same script captures them from
any fleet representation.  tests/test_fleet_goldens.py replays the
cases and compares.

Regenerate (only when a deliberate change to fleet construction lands):

    PYTHONPATH=src python tools/capture_fleet_goldens.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEEDS = (101, 202, 303)
SCALE = 0.02
POLICIES = ("span_shelves", "single_shelf")
#: The slice case: this shard of an N-way plan, first seed, default layout.
SLICE_SHARD = (1, 4)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/fleet_build_goldens.json"
)


def _sha(lines) -> str:
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def cases():
    """``(name, seed, policy value, selection or None)`` per golden case."""
    from repro.fleet.spec import FleetSpec
    from repro.runtime.shard import ShardPlan

    out = [
        ("seed%d-%s" % (seed, policy), seed, policy, None)
        for seed in SEEDS
        for policy in POLICIES
    ]
    index, n_shards = SLICE_SHARD
    plan = ShardPlan.build(FleetSpec.paper_default(scale=SCALE), n_shards)
    selection = plan.shards[index].selection_mapping()
    out.append(("seed%d-slice%dof%d" % (SEEDS[0], index, n_shards),
                SEEDS[0], POLICIES[0], selection))
    return out


def build(seed, policy, selection):
    from repro.fleet.builder import build_fleet
    from repro.fleet.spec import FleetSpec
    from repro.rng import RandomSource
    from repro.topology.layout import LayoutPolicy

    spec = FleetSpec.paper_default(
        scale=SCALE, layout_policy=LayoutPolicy(policy)
    )
    return build_fleet(spec, RandomSource(seed), selection=selection)


def system_lines(fleet):
    for system in fleet.systems:
        yield "%s|%s|%s|%s|%d|%r|%d|%d|%d" % (
            system.system_id,
            system.system_class.value,
            system.shelf_model,
            system.primary_disk_model,
            int(system.dual_path),
            system.deploy_time,
            len(system.shelves),
            len(system.raid_groups),
            system.slot_count,
        )


def slot_group_lines(fleet):
    for system in fleet.systems:
        for slot in system.iter_slots():
            yield "%s %s" % (slot.slot_key, slot.raid_group_id)


def disk_lines(fleet):
    for system in fleet.systems:
        for disk in system.iter_disks():
            yield "%s %s %r" % (disk.disk_id, disk.serial, disk.install_time)


def lifetime_lines(fleet):
    for system in fleet.systems:
        for disk in system.iter_disks():
            yield "%s %r %r" % (disk.disk_id, disk.install_time, disk.remove_time)


def exposure_lines(fleet):
    end = fleet.duration_seconds
    for system in fleet.systems:
        yield "%s %r" % (system.system_id, system.disk_exposure_seconds(end))


def injected(seed, policy, selection):
    from repro.failures.injector import InjectorConfig
    from repro.rng import RandomSource
    from repro.simulate.vector.engine import VectorFailureInjector

    fleet = build(seed, policy, selection)
    VectorFailureInjector(InjectorConfig()).inject(fleet, RandomSource(seed))
    return fleet


def case_digests(seed, policy, selection) -> dict:
    from repro.autosupport.snapshot import write_snapshot

    fleet = build(seed, policy, selection)
    digests = {
        "systems": _sha(system_lines(fleet)),
        "slot_groups": _sha(slot_group_lines(fleet)),
        "disks": _sha(disk_lines(fleet)),
        "snapshot": _sha([write_snapshot(fleet)]),
        "n_systems": fleet.system_count,
        "n_disks": fleet.disk_count_ever,
    }
    fleet = injected(seed, policy, selection)
    digests["lifetimes_vector"] = _sha(lifetime_lines(fleet))
    digests["snapshot_vector"] = _sha([write_snapshot(fleet)])
    digests["exposure_vector"] = _sha(exposure_lines(fleet))
    return digests


def capture() -> dict:
    return {
        "scale": SCALE,
        "cases": {
            name: case_digests(seed, policy, selection)
            for name, seed, policy, selection in cases()
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
