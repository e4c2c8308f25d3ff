"""Vector-engine goldens: one injection's every output, byte for byte.

tests/goldens/vector_engine_goldens.json holds digests that
tools/capture_vector_goldens.py took from the vector engine: the event
table, the lifetime table, the materialized recovered errors, the
written log archive and the tables mined back from it, for eight cases
(four scenarios, infant mortality, no recovered errors, the ``trace:``
backend, one shard slice) at three seeds.  Each case is replayed here
and compared.

Regenerate (only for a deliberate change to the engine's output):

    PYTHONPATH=src python tools/capture_vector_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

import capture_vector_goldens as capture  # noqa: E402

GOLDENS = json.loads(
    (ROOT / "tests/goldens/vector_engine_goldens.json").read_text()
)


def test_goldens_cover_every_case():
    assert GOLDENS["scale"] == capture.SCALE
    assert GOLDENS["seeds"] == list(capture.SEEDS)
    assert sorted(GOLDENS["cases"]) == sorted(capture.CASES)


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    """The trace the ``trace`` case replays, recorded as the capture does."""
    return capture.record_trace(str(tmp_path_factory.mktemp("vector-trace")))


@pytest.mark.parametrize("seed", capture.SEEDS)
@pytest.mark.parametrize("case", capture.CASES)
def test_case_matches_golden(case, seed, trace_path):
    want = GOLDENS["cases"][case][str(seed)]
    assert capture.case_digests(case, seed, trace_path) == want
