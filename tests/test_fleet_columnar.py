"""The columnar fleet: exposure bit-identity, no objects on the
simulate-and-analyse path, compact pickles, subsets and sharded joins."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.dataset import FailureDataset
from repro.errors import TopologyError
from repro.experiments import ExperimentContext, run_experiment
from repro.fleet.builder import build_fleet
from repro.fleet.fleet import Fleet
from repro.fleet.spec import FleetSpec
from repro.rng import RandomSource
from repro.runtime.cache import ResultCache
from repro.runtime.context import RuntimeContext
from repro.runtime.shard import run_sharded_scenario
from repro.simulate.scenario import run_scenario
from repro.topology import components, system as system_module
from repro.topology.classes import SystemClass
from repro.units import seconds_to_years

SCALE = 0.01


@pytest.fixture(scope="module")
def simulated():
    return run_scenario("paper-default", scale=SCALE, seed=4)


def _walked_exposure(system, end):
    """What exposure always was: each disk object's service time, summed
    one by one."""
    total = 0.0
    for disk in system.iter_disks():
        total += disk.service_seconds(end)
    return total


class TestExposureBitIdentity:
    def test_column_equals_object_walk(self, simulated):
        fleet = pickle.loads(pickle.dumps(simulated.fleet))  # a private copy
        column = fleet.exposure_column()
        walked = [_walked_exposure(s, fleet.duration_seconds) for s in fleet.systems]
        assert column.tolist() == walked
        assert fleet.disk_exposure_seconds() == sum(walked)

    def test_other_window_end(self, simulated):
        fleet = pickle.loads(pickle.dumps(simulated.fleet))
        end = 0.6 * fleet.duration_seconds
        for index in (0, fleet.system_count // 2, fleet.system_count - 1):
            system = fleet.systems[index]
            assert system.disk_exposure_seconds(end) == _walked_exposure(system, end)

    def test_predicate_sums_systems_in_fleet_order(self, simulated):
        dataset = simulated.dataset
        total = 0.0
        for system, seconds in zip(
            dataset.fleet.systems, dataset.fleet.exposure_column().tolist()
        ):
            if system.system_class is SystemClass.LOW_END:
                total += seconds
        lowend = dataset.fleet.where(system_class=SystemClass.LOW_END)
        assert dataset.exposure_years(lowend) == seconds_to_years(total)

    def test_filtered_dataset_shares_the_column(self, simulated):
        dataset = simulated.dataset
        subset = dataset.excluding_disk_family()
        kept = [
            i
            for i, s in enumerate(dataset.fleet.systems)
            if not s.primary_disk_model.startswith("H-")
        ]
        assert 0 < subset.fleet.system_count == len(kept) < dataset.fleet.system_count
        assert subset.fleet.exposure_column().tolist() == [
            dataset.fleet.exposure_column()[i] for i in kept
        ]
        total = 0.0
        for system in subset.fleet.systems:
            total += _walked_exposure(system, subset.duration_seconds)
        assert subset.exposure_years() == seconds_to_years(total)

    def test_sharded_merge(self, simulated, tmp_path):
        sharded = run_sharded_scenario(
            "paper-default",
            scale=SCALE,
            seed=4,
            runtime=RuntimeContext(cache=ResultCache(directory=str(tmp_path))),
            n_shards=3,
        )
        assert sharded.fleet.system_ids == simulated.fleet.system_ids
        assert np.array_equal(
            sharded.fleet.exposure_column(), simulated.fleet.exposure_column()
        )
        assert sharded.dataset.exposure_years() == simulated.dataset.exposure_years()
        for name in ("disk_slot", "disk_gen", "disk_install", "disk_remove", "disk_serial"):
            assert np.array_equal(getattr(sharded.fleet, name), getattr(simulated.fleet, name))


@pytest.fixture
def created(monkeypatch):
    """Names of the Disk / DiskSlot / Shelf objects constructed."""
    names = []
    for cls in (components.Disk, components.DiskSlot, components.Shelf):
        original = cls.__init__

        def counting(self, *args, __original=original, **kwargs):
            names.append(type(self).__name__)
            __original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return names


class TestNoObjectsOnTheAnalysisPath:
    def test_simulate_and_paper_figures_build_no_disks(self, created):
        context = ExperimentContext(scale=SCALE, seed=11)
        for experiment_id in ("fig4a", "fig9a", "fig10a"):
            run_experiment(experiment_id, context)
        fleet = context.dataset("paper-default").fleet
        assert fleet.disk_count_ever > 0
        assert created == []
        # The hook does see objects when a consumer walks disks.
        list(fleet.systems[0].iter_disks())
        assert "Disk" in created and "Shelf" in created

    def test_log_round_trip_builds_no_disks(self, created):
        context = ExperimentContext(scale=SCALE, seed=11, via_logs=True)
        result = context.result("paper-default")
        run_experiment("fig4a", context)
        assert len(result.dataset) > 0
        assert created == []


class TestPickling:
    def test_round_trip_is_exact(self, simulated):
        fleet = simulated.fleet
        again = pickle.loads(pickle.dumps(fleet))
        for name in (
            "system_ids", "system_classes", "shelf_models", "disk_models",
        ):
            assert getattr(again, name) == getattr(fleet, name)
        for name in (
            "dual_path", "deploy_time", "system_shelf_start", "shelf_slot_start",
            "system_group_start", "group_raid_type", "slot_group", "disk_slot",
            "disk_gen", "disk_install", "disk_remove", "disk_serial",
        ):
            assert np.array_equal(getattr(again, name), getattr(fleet, name)), name
        assert again.duration_seconds == fleet.duration_seconds
        assert again.shelf_ids == fleet.shelf_ids
        assert again.group_ids == fleet.group_ids

    def test_state_holds_only_arrays(self, simulated):
        fleet = pickle.loads(pickle.dumps(simulated.fleet))
        before = len(pickle.dumps(fleet))
        list(fleet.systems[0].iter_disks())  # build one system's objects
        state = fleet.__getstate__()
        for value in state.values():
            values = value if isinstance(value, (list, tuple)) else [value]
            for item in values:
                assert not isinstance(
                    item, (system_module.StorageSystem, components.Disk)
                )
        assert len(pickle.dumps(fleet)) == before

    def test_explicit_ids_survive(self, simulated):
        from repro.autosupport.snapshot import parse_snapshot, write_snapshot

        parsed = parse_snapshot(write_snapshot(simulated.fleet))
        again = pickle.loads(pickle.dumps(parsed))
        assert write_snapshot(again) == write_snapshot(simulated.fleet)


class TestSubsetsAndPacking:
    def test_select_matches_objects(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(8))
        picked = [5, 0, 3]
        subset = fleet.select(picked)
        assert subset.system_ids == [fleet.system_ids[i] for i in picked]
        for index, system in zip(picked, subset.systems):
            twin = fleet.systems[index]
            assert [d.disk_id for d in system.iter_disks()] == [
                d.disk_id for d in twin.iter_disks()
            ]
            assert [g.slot_keys for g in system.raid_groups] == [
                g.slot_keys for g in twin.raid_groups
            ]

    def test_packing_objects_round_trips(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(8))
        packed = Fleet(systems=fleet.systems, duration_seconds=fleet.duration_seconds)
        for name in ("slot_group", "disk_slot", "disk_serial", "disk_install"):
            assert np.array_equal(getattr(packed, name), getattr(fleet, name))
        assert packed.shelf_ids == fleet.shelf_ids
        assert packed.group_ids == fleet.group_ids

    def test_packing_rejects_what_arrays_cannot_hold(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(8))
        system = fleet.systems[0]
        next(system.iter_disks()).model = "not-" + system.primary_disk_model
        with pytest.raises(TopologyError, match="differs from system"):
            Fleet(systems=[system], duration_seconds=fleet.duration_seconds)

    def test_objects_dropped_when_lifetimes_change(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(8))
        system = fleet.systems[0]
        first = next(system.iter_disks())
        fleet.record_lifetimes(
            np.array([0]), np.array([0]), np.array([1.0e7]),
            np.array([0]), np.array([1]), np.array([1.1e7]), np.array([7]),
        )
        slot = next(system.iter_slots())
        assert slot.disks[0] is not first  # rebuilt from the new table
        assert [d.disk_id for d in slot.disks] == [first.disk_id, slot.slot_key + "#1"]
        assert slot.disks[0].remove_time == 1.0e7
        assert slot.disks[1].serial == "S00000007"
        assert fleet.disk_count_ever == fleet.slot_count + 1


class TestDiskLookup:
    def test_every_id_and_pair_finds_its_row(self, simulated):
        fleet = simulated.fleet
        rows = np.arange(fleet.disk_count_ever)
        assert fleet.disk_slot.size > fleet.slot_count  # replacements present
        assert np.array_equal(fleet.disk_rows(fleet.disk_ids(rows)), rows)
        assert np.array_equal(fleet.bay_rows(fleet.disk_slot, fleet.disk_gen), rows)
        assert fleet.find_disk(fleet.disk_ids(rows[-1:])[0]) == rows[-1]

    def test_what_names_no_disk(self, simulated):
        fleet = simulated.fleet
        disk_id = fleet.disk_ids(np.array([0]))[0]
        slot_key, _, _ = disk_id.rpartition("#")
        shelf_id, _, _ = slot_key.rpartition("/")
        stray = [
            "",
            "#0",
            "no-such-shelf/00#0",
            disk_id + "9",  # a generation the bay never held
            slot_key + "#00",
            slot_key + "#-1",
            slot_key + "#" + "9" * 30,
            shelf_id + "/0#0",
            shelf_id + "/%02d#0" % fleet.shelf_n_slots[0],
            shelf_id + "/" + "9" * 30 + "#0",
            shelf_id + "/\u0660\u0660#0",  # Arabic-Indic digits
        ]
        assert fleet.disk_rows(stray).tolist() == [-1] * len(stray)
        assert fleet.disk_rows([]).tolist() == []
        assert fleet.bay_rows(
            np.array([-1, 0, 0, fleet.slot_count]), np.array([0, 99, -1, 0])
        ).tolist() == [-1, -1, -1, -1]

    def test_an_unsorted_table_finds_the_first_row(self):
        fleet = build_fleet(FleetSpec.paper_default(scale=0.002), RandomSource(8))
        order = np.arange(fleet.disk_count_ever)[::-1]
        columns = {
            name: getattr(fleet, name)[order]
            for name in ("disk_slot", "disk_gen", "disk_install", "disk_remove", "disk_serial")
        }
        reversed_fleet = Fleet.from_columns(
            fleet.duration_seconds,
            **{
                name: getattr(fleet, name)
                for name in (
                    "system_ids", "system_classes", "shelf_models", "disk_models",
                    "dual_path", "deploy_time", "system_shelf_start", "shelf_slot_start",
                    "system_group_start", "group_raid_type", "slot_group",
                )
            },
            **columns,
        )
        ids = fleet.disk_ids(np.arange(fleet.disk_count_ever))
        assert np.array_equal(reversed_fleet.disk_rows(ids), order)


def test_dataset_round_trips_through_pickle(simulated):
    dataset = FailureDataset(events=simulated.dataset.table, fleet=simulated.fleet)
    again = pickle.loads(pickle.dumps(dataset))
    assert again.exposure_years() == dataset.exposure_years()
