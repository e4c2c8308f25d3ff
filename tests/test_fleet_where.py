"""System masks: ``Fleet.where`` and the dataset methods that take one.

A mask is a bool array over a fleet's rows.  These tests pin it to the
per-system view predicates it replaced, check how a dataset turns it
into an event mask, and check that malformed masks are refused.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.core.afr import afr_stack, dataset_afr
from repro.core.dataset import FailureDataset
from repro.errors import AnalysisError
from repro.topology.classes import SystemClass


def _cases(fleet):
    """``(where keywords, the view predicate they replace)`` for every
    class, shelf model, disk model, disk family and path value, plus
    values no system has."""
    models = sorted(set(fleet.disk_models)) + ["Z-9"]
    families = sorted({model.partition("-")[0] for model in models})
    cases = [
        ({"system_class": c}, lambda s, c=c: s.system_class is c) for c in SystemClass
    ]
    cases += [
        ({"shelf_model": m}, lambda s, m=m: s.shelf_model == m)
        for m in sorted(set(fleet.shelf_models)) + ["Z"]
    ]
    cases += [
        ({"disk_model": m}, lambda s, m=m: s.primary_disk_model == m) for m in models
    ]
    cases += [
        ({"disk_family": f}, lambda s, f=f: s.primary_disk_model.startswith(f + "-"))
        for f in families
    ]
    cases += [
        ({"dual_path": d}, lambda s, d=d: s.dual_path == d) for d in (False, True)
    ]
    return cases


@pytest.fixture(params=["fleet", "selected"])
def fleet(request, small_dataset):
    fleet = small_dataset.fleet
    if request.param == "selected":
        # Every third system, in reverse: rows move, so a stale cached
        # column would show.
        return fleet.select(np.arange(fleet.system_count)[::3][::-1])
    return fleet


class TestWhere:
    def test_matches_the_view_predicate(self, fleet):
        for keywords, predicate in _cases(fleet):
            want = [bool(predicate(s)) for s in fleet.systems]
            got = fleet.where(**keywords)
            assert got.dtype == bool
            assert got.tolist() == want, keywords

    def test_arguments_combine_with_and(self, fleet):
        system = fleet.systems[0]
        keywords = {
            "system_class": system.system_class,
            "shelf_model": system.shelf_model,
            "disk_model": system.primary_disk_model,
            "disk_family": system.primary_disk_model.partition("-")[0],
            "dual_path": system.dual_path,
        }
        want = np.ones(fleet.system_count, dtype=bool)
        for name, value in keywords.items():
            want &= fleet.where(**{name: value})
        assert np.array_equal(fleet.where(**keywords), want)
        assert fleet.where().all()

    def test_sizes_follow_the_fleet(self, fleet):
        assert fleet.where().shape == (fleet.system_count,)


class TestEventMask:
    def test_filtered_dataset_matches_id_membership(self, small_dataset):
        subset = small_dataset.filter_systems(
            small_dataset.fleet.where(system_class=SystemClass.MID_RANGE)
        )
        # The table shares its vocabulary with the parent dataset, so it
        # still names the systems the filter dropped.
        assert set(subset.table.system_ids.values) - set(subset.fleet.system_ids)
        systems = subset.fleet.where(dual_path=True) | subset.fleet.where(shelf_model="C")
        kept = {
            system_id
            for system_id, inside in zip(subset.fleet.system_ids, systems.tolist())
            if inside
        }
        want = [event.system_id in kept for event in subset.events]
        assert 0 < sum(want) < len(want)
        assert subset.event_mask(systems).tolist() == want

    def test_systems_outside_the_fleet_never_match(self, small_dataset):
        subset = small_dataset.excluding_disk_family()
        # Every event of the full table, over the filtered fleet.
        foreign = FailureDataset(events=small_dataset.table, fleet=subset.fleet)
        held = set(subset.fleet.system_ids)
        want = [event.system_id in held for event in small_dataset.events]
        assert not all(want)
        everything = np.ones(subset.fleet.system_count, dtype=bool)
        assert foreign.event_mask(everything).tolist() == want


class TestMalformedMasks:
    @pytest.fixture
    def calls(self, small_dataset):
        return [
            small_dataset.exposure_years,
            small_dataset.filter_systems,
            small_dataset.event_mask,
            functools.partial(dataset_afr, small_dataset, None),
            functools.partial(afr_stack, small_dataset),
        ]

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: np.ones(n - 1, dtype=bool),
            lambda n: np.ones(n + 1, dtype=bool),
            lambda n: np.ones((n, 1), dtype=bool),
            lambda n: np.ones(n, dtype=np.int8),
            lambda n: np.arange(n),
        ],
        ids=["short", "long", "2-d", "int8", "indices"],
    )
    def test_rejected(self, small_dataset, calls, make):
        bad = make(small_dataset.fleet.system_count)
        for call in calls:
            with pytest.raises(AnalysisError):
                call(bad)
