"""The columnar event core: the event table, and the analyses over it.

Every analysis aggregates over the structure-of-arrays ``EventTable``,
and its outputs are pinned byte for byte in
tests/goldens/analysis_goldens.json (same counts, same float AFRs, same
pooled gap arrays in the same order, same findings, same rendered
experiment text).  tests/test_analysis_goldens.py replays the whole
capture on both engines; the tests here check the same goldens method
by method through the shared session datasets, on the engine the
environment selects, so a drift names the method that moved.
"""

from __future__ import annotations

import json
import pickle
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.columns import EventTable, StringTable, first_occurrence_ranks
from repro.core.dataset import FailureDataset
from repro.core.findings import evaluate_findings
from repro.errors import AnalysisError
from repro.experiments import ExperimentContext, run_experiment
from repro.failures.types import FAILURE_TYPE_ORDER

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import capture_analysis_goldens as capture  # noqa: E402

GOLDENS = json.loads((ROOT / "tests/goldens/analysis_goldens.json").read_text())


def _assert_golden(section, outputs):
    """``outputs`` digest to the golden entries in ``section``."""
    want = GOLDENS["engines"]["vector"][section]
    got = {name: capture.canonical(value) for name, value in outputs.items()}
    assert got == {name: want[name] for name in got}


@pytest.fixture(scope="module")
def method_outputs(small_dataset):
    """The dataset methods' outputs on the session dataset."""
    return capture.method_outputs(small_dataset)


@pytest.fixture(scope="module")
def midsize_context():
    """One experiment context at the goldens' scale 0.02, seed 1."""
    return ExperimentContext(
        scale=capture.MIDSIZE_SCALE, seed=capture.MIDSIZE_SEED
    )


class TestEventTable:
    def test_round_trip_preserves_events(self, small_dataset):
        table = EventTable.from_events(small_dataset.events, keep_view=False)
        rebuilt = [table.row(i) for i in range(len(table))]
        assert rebuilt == small_dataset.events

    def test_view_reuses_original_objects(self, small_dataset):
        table = EventTable.from_events(small_dataset.events)
        assert table.row(0) is small_dataset.events[0]
        picked = table.select(np.arange(3))
        assert picked.row(2) is small_dataset.events[2]

    def test_select_by_mask_and_indices(self, small_dataset):
        table = small_dataset.table
        mask = table.type_mask(FAILURE_TYPE_ORDER[0])
        subset = table.select(mask)
        assert len(subset) == int(np.count_nonzero(mask))
        assert np.all(subset.type_codes == 0)
        assert subset.is_sorted_by_detect

    def test_counts_match_event_loop(self, small_dataset):
        table = small_dataset.table
        counts = table.counts_by_type()
        for code, failure_type in enumerate(FAILURE_TYPE_ORDER):
            expected = sum(
                1
                for e in small_dataset.events
                if e.failure_type is failure_type
            )
            assert int(counts[code]) == expected

    def test_pickle_drops_dataclasses(self, small_dataset):
        blob = pickle.dumps(small_dataset.table)
        assert b"FailureEvent" not in blob
        restored = pickle.loads(blob)
        assert restored.events() == tuple(small_dataset.events)

    def test_scope_codes_rejects_bad_scope(self, small_dataset):
        with pytest.raises(AnalysisError):
            small_dataset.table.scope_codes("bay")

    def test_string_table_interning(self):
        table = StringTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.code("missing") == -1
        assert table.values == ["a", "b"]

    def test_first_occurrence_ranks(self):
        codes = np.array([7, 2, 7, 5, 2, 9])
        ranks = first_occurrence_ranks(codes)
        assert list(ranks) == [0, 1, 0, 2, 1, 3]


class TestDatasetColumnarEquivalence:
    """Method-level outputs on the shared session dataset."""

    def test_counts_by_type(self, small_dataset):
        _assert_golden(
            "seed-%d" % capture.METHOD_SEED,
            {"counts": small_dataset.counts_by_type()},
        )

    def test_events_of_type(self, method_outputs):
        _assert_golden(
            "methods",
            {
                name: value
                for name, value in method_outputs.items()
                if name.startswith("events_of_type:")
            },
        )

    def test_filter_systems(self, method_outputs):
        _assert_golden(
            "methods", {"filter_systems": method_outputs["filter_systems"]}
        )

    def test_excluding_disk_family(self, method_outputs):
        name = "excluding_disk_family"
        _assert_golden("methods", {name: method_outputs[name]})

    def test_deduplicated(self, method_outputs):
        _assert_golden("methods", {"deduplicated": method_outputs["deduplicated"]})

    def test_dedup_synthetic_chain(self, small_dataset):
        """A chain of near-duplicates exercises the last-KEPT window rule."""
        chained = capture.synthetic_chain(small_dataset)
        assert len(chained) == len(small_dataset) + 3
        _assert_golden(
            "methods",
            {"dedup_synthetic_chain": chained.deduplicated().events},
        )


class TestAnalysisEquivalence:
    """Aggregation-level outputs across seeds and pipelines."""

    @pytest.mark.parametrize("seed", capture.SEEDS)
    def test_direct_simulation(self, seed):
        section = "seed-%d" % seed
        _assert_golden(section, capture.section_outputs(section))

    def test_via_logs_pipeline(self, logged_sim):
        _assert_golden("via-logs", capture.logs_outputs(logged_sim.dataset))

    def test_findings_report(self, midsize_context):
        findings = evaluate_findings(midsize_context.dataset("paper-default"))
        _assert_golden("midsize", {"findings": findings})

    @pytest.mark.parametrize("experiment_id", ["fig4a", "fig9a", "fig10a"])
    def test_figure_experiments(self, experiment_id, midsize_context):
        result = run_experiment(experiment_id, midsize_context)
        _assert_golden(
            "midsize",
            {
                experiment_id + ":text": result.text,
                experiment_id + ":data": result.data,
                experiment_id + ":checks": result.checks,
            },
        )


class TestSerialization:
    def test_dataset_pickle_is_columnar_and_lossless(self, small_dataset):
        blob = pickle.dumps(small_dataset)
        assert b"FailureEvent" not in blob
        restored = pickle.loads(blob)
        assert restored.events == small_dataset.events
        assert restored.counts_by_type() == small_dataset.counts_by_type()

    def test_injection_pickle_round_trip(self, small_sim):
        blob = pickle.dumps(small_sim.injection)
        restored = pickle.loads(blob)
        assert restored.events == small_sim.injection.events
        assert restored.counts_by_type() == small_sim.injection.counts_by_type()
        assert restored.recovered_errors == small_sim.injection.recovered_errors
        # The recovered incidents travel as arrays, not as dataclasses.
        assert b"ComponentError" not in blob


class TestSortedness:
    def test_sorted_input_list_not_copied(self, small_dataset):
        events = list(small_dataset.events)
        dataset = FailureDataset(events=events, fleet=small_dataset.fleet)
        assert dataset.events == events

    def test_shuffled_list_is_sorted_then_interned(self, small_dataset):
        events = list(small_dataset.events)
        random.Random(11).shuffle(events)
        dataset = FailureDataset(events=events, fleet=small_dataset.fleet)
        ordered = sorted(events, key=lambda e: e.detect_time)
        # The digest covers the string tables, so it fixes interning order.
        assert (
            dataset.table.content_digest()
            == EventTable.from_events(ordered).content_digest()
        )
        assert all(a is b for a, b in zip(dataset.events, ordered))

    def test_unsorted_input_sorted_once(self, small_dataset):
        events = list(reversed(small_dataset.events))
        dataset = FailureDataset(events=events, fleet=small_dataset.fleet)
        detect = [e.detect_time for e in dataset.events]
        assert detect == sorted(detect)

    def test_filtered_table_stays_marked_sorted(self, small_dataset):
        table = small_dataset.table
        assert table.is_sorted_by_detect
        subset = table.select(table.type_mask(FAILURE_TYPE_ORDER[0]))
        # Sortedness is carried, not recomputed: the flag is already set.
        assert subset._sorted is True
