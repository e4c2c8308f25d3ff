"""Fleet-build goldens: the columnar fleet against the object-built one.

tests/goldens/fleet_build_goldens.json holds digests that
tools/capture_fleet_goldens.py took from the fleet builder when every
disk was an object.  Each case is replayed twice: through the objects
the fleet builds on demand (the capture script's own walks) and
straight from the fleet's arrays.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.autosupport.snapshot import write_snapshot
from repro.fleet.fleet import serial_text

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import capture_fleet_goldens as capture  # noqa: E402

GOLDENS = json.loads((ROOT / "tests/goldens/fleet_build_goldens.json").read_text())
CASES = {name: (seed, policy, selection) for name, seed, policy, selection in capture.cases()}


def test_goldens_cover_every_case():
    assert GOLDENS["scale"] == capture.SCALE
    assert sorted(GOLDENS["cases"]) == sorted(CASES)


def _array_slot_group_lines(fleet):
    every = np.arange(fleet.slot_count)
    for key, group in zip(fleet.slot_keys(every), fleet.slot_group_ids(every)):
        yield "%s %s" % (key, group)


def _array_disk_lines(fleet):
    rows = np.arange(fleet.disk_count_ever)
    for disk_id, serial, install in zip(
        fleet.disk_ids(rows), fleet.disk_serial.tolist(), fleet.disk_install.tolist()
    ):
        yield "%s %s %r" % (disk_id, serial_text(serial), install)


def _array_lifetime_lines(fleet):
    rows = np.arange(fleet.disk_count_ever)
    for disk_id, install, remove in zip(
        fleet.disk_ids(rows), fleet.disk_install.tolist(), fleet.disk_remove.tolist()
    ):
        yield "%s %r %r" % (disk_id, install, None if remove == np.inf else remove)


@pytest.mark.parametrize("name", sorted(CASES))
class TestFleetGoldens:
    def test_build(self, name):
        want = GOLDENS["cases"][name]
        fleet = capture.build(*CASES[name])
        assert fleet.system_count == want["n_systems"]
        assert fleet.disk_count_ever == want["n_disks"]
        assert capture._sha(capture.system_lines(fleet)) == want["systems"]
        assert capture._sha(_array_slot_group_lines(fleet)) == want["slot_groups"]
        assert capture._sha(_array_disk_lines(fleet)) == want["disks"]
        assert capture._sha([write_snapshot(fleet)]) == want["snapshot"]
        # The on-demand objects say the same.
        assert capture._sha(capture.slot_group_lines(fleet)) == want["slot_groups"]
        assert capture._sha(capture.disk_lines(fleet)) == want["disks"]

    # ``engine`` names the digests' key suffix: the batched (vector)
    # engine's, the only one.
    @pytest.mark.parametrize("engine", ["vector"])
    def test_lifetimes_after_injection(self, name, engine):
        want = GOLDENS["cases"][name]
        fleet = capture.injected(*CASES[name])
        digest = "lifetimes_%s" % engine
        assert capture._sha(_array_lifetime_lines(fleet)) == want[digest]
        assert capture._sha(capture.lifetime_lines(fleet)) == want[digest]
        assert capture._sha([write_snapshot(fleet)]) == want["snapshot_%s" % engine]
        assert capture._sha(capture.exposure_lines(fleet)) == want["exposure_%s" % engine]
