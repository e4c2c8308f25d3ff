"""Analysis-layer goldens: every aggregate the figures read, byte for byte.

tests/goldens/analysis_goldens.json holds digests that
tools/capture_analysis_goldens.py took on the batched engine: per-seed AFR
stacks and breakdowns, pooled gap arrays, bursts, correlation panels
and count distributions; the same over the dataset parsed back from the
AutoSupport logs; the ``FailureDataset`` methods (type selection,
system filters, deduplication); the findings report, the two
experiments that build datasets from event lists and every experiment
that groups systems by configuration (Figs. 4b-7, Table 1,
availability, the replacement discrepancy and the multipath sweep).
Each section is
replayed here and compared name by name.

Regenerate (only for a deliberate change to an analysis's output):

    PYTHONPATH=src python tools/capture_analysis_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import capture_analysis_goldens as capture  # noqa: E402

GOLDENS = json.loads((ROOT / "tests/goldens/analysis_goldens.json").read_text())


def test_goldens_cover_every_section():
    assert sorted(GOLDENS["engines"]) == sorted(capture.ENGINES)
    for sections in GOLDENS["engines"].values():
        assert sorted(sections) == sorted(capture.SECTIONS)


@pytest.mark.parametrize("section", capture.SECTIONS)
@pytest.mark.parametrize("engine", capture.ENGINES)
def test_section_matches_golden(engine, section):
    want = GOLDENS["engines"][engine][section]
    assert capture.capture_section(section) == want


def test_canonical_digest_tells_containers_order_and_dtypes_apart():
    import numpy as np

    assert capture.canonical([1, 2.0]) != capture.canonical((1, 2.0))
    assert capture.canonical({"a": 1, "b": 2}) != capture.canonical(
        {"b": 2, "a": 1}
    )
    assert capture.canonical(np.zeros(2)) != capture.canonical(
        np.zeros(2, dtype=np.float32)
    )
    assert capture.canonical(np.int64(3)) == capture.canonical(3)
    with pytest.raises(TypeError):
        capture.canonical(object())
