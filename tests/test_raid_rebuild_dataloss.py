"""Tests for the rebuild model and data-loss estimator."""

import dataclasses

import pytest

from repro.errors import RaidError
from repro.failures.types import FailureType
from repro.fleet.catalog import disk_model
from repro.fleet.fleet import RAID_TYPES
from repro.raid.dataloss import estimate_dataloss
from repro.raid.rebuild import RebuildModel
from repro.simulate.scenario import run_scenario
from repro.topology.raidgroup import RaidType


class TestRebuildModel:
    def test_window_grows_with_capacity(self):
        model = RebuildModel()
        assert model.window_seconds(300.0) > model.window_seconds(72.0)

    def test_window_components(self):
        model = RebuildModel(
            rebuild_mb_per_second=100.0,
            degraded_load_factor=1.0,
            spare_acquisition_seconds=0.0,
        )
        # 100 GB at 100 MB/s = 1024 seconds.
        assert model.window_seconds(100.0) == pytest.approx(1024.0)

    def test_degraded_factor_scales_copy_time(self):
        slow = RebuildModel(degraded_load_factor=2.0, spare_acquisition_seconds=0.0)
        fast = RebuildModel(degraded_load_factor=1.0, spare_acquisition_seconds=0.0)
        assert slow.window_seconds(100.0) == pytest.approx(
            2.0 * fast.window_seconds(100.0)
        )

    def test_hours_conversion(self):
        model = RebuildModel()
        assert model.window_hours(100.0) == pytest.approx(
            model.window_seconds(100.0) / 3600.0
        )

    def test_validation(self):
        with pytest.raises(RaidError):
            RebuildModel(rebuild_mb_per_second=0.0)
        with pytest.raises(RaidError):
            RebuildModel(degraded_load_factor=0.5)
        with pytest.raises(RaidError):
            RebuildModel(spare_acquisition_seconds=-1.0)
        with pytest.raises(RaidError):
            RebuildModel().window_seconds(0.0)


class TestDataLoss:
    @pytest.fixture(scope="class")
    def correlated(self):
        return run_scenario("paper-default", scale=0.02, seed=1).dataset

    def test_report_shape(self, correlated):
        report = estimate_dataloss(correlated)
        assert report.group_years > 0.0
        assert set(report.loss_incidents_by_type) == set(RaidType)
        assert report.total_loss_incidents == sum(
            report.loss_incidents_by_type.values()
        )

    def test_groups_sorted_by_losses(self, correlated):
        report = estimate_dataloss(correlated)
        losses = [group.loss_incidents for group in report.groups]
        assert losses == sorted(losses, reverse=True)

    def test_max_concurrent_at_least_events_imply(self, correlated):
        report = estimate_dataloss(correlated)
        for group in report.groups:
            assert 1 <= group.max_concurrent <= group.events

    def test_correlated_losses_exceed_independent(self, correlated):
        independent = run_scenario("no-shocks", scale=0.02, seed=1).dataset
        corr = estimate_dataloss(correlated)
        indep = estimate_dataloss(independent)
        assert (
            corr.loss_rate_per_1000_group_years()
            > indep.loss_rate_per_1000_group_years()
        )

    def test_disk_only_mode_sees_fewer_losses(self, correlated):
        everything = estimate_dataloss(correlated, include_transient=True)
        disks_only = estimate_dataloss(correlated, include_transient=False)
        assert (
            disks_only.total_loss_incidents <= everything.total_loss_incidents
        )

    def test_longer_outages_more_losses(self, correlated):
        short = estimate_dataloss(correlated, transient_outage_seconds=60.0)
        long = estimate_dataloss(correlated, transient_outage_seconds=7200.0)
        assert short.total_loss_incidents <= long.total_loss_incidents

    def test_transient_outage_validated(self, correlated):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            estimate_dataloss(correlated, transient_outage_seconds=0.0)

    def test_zero_rate_when_no_groups(self, correlated):
        report = estimate_dataloss(correlated)
        assert report.loss_rate_per_1000_group_years() == pytest.approx(
            1000.0 * report.total_loss_incidents / report.group_years
        )

    @pytest.mark.parametrize("include_transient", [True, False])
    def test_sweep_matches_a_group_by_group_loop(self, correlated, include_transient):
        report = estimate_dataloss(
            correlated, include_transient=include_transient, transient_outage_seconds=86_400.0
        )
        assert [dataclasses.astuple(g) for g in report.groups] == _looped_groups(
            correlated, include_transient, 86_400.0
        )


def _looped_groups(dataset, include_transient, transient_seconds):
    """Per-group loss summaries by a sweep over each group's sorted
    (time, +1/-1) boundaries, groups in first-event order, then stably
    by losses."""
    rebuild = RebuildModel()
    fleet = dataset.fleet
    raid_types = dict(
        zip(fleet.group_ids, (RAID_TYPES[code] for code in fleet.group_raid_type.tolist()))
    )
    spans = {}
    for event in dataset.deduplicated().events:
        if event.raid_group_id not in raid_types:
            continue
        if event.failure_type is FailureType.DISK:
            window = rebuild.window_seconds(float(disk_model(event.disk_model).capacity_gb))
        elif include_transient:
            window = transient_seconds
        else:
            continue
        spans.setdefault(event.raid_group_id, []).append(
            (event.occur_time, event.detect_time + window)
        )
    rows = []
    for group_id, intervals in spans.items():
        raid_type = raid_types[group_id]
        boundaries = sorted(
            [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals]
        )
        concurrent = peak = losses = 0
        for _, delta in boundaries:
            before = concurrent
            concurrent += delta
            peak = max(peak, concurrent)
            tolerated = raid_type.tolerated_failures
            losses += before <= tolerated < concurrent
        rows.append((group_id, raid_type, len(intervals), peak, losses))
    return sorted(rows, key=lambda row: -row[4])
