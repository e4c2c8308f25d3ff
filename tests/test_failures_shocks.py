"""Tests for shared shock processes.

The injector draws shelf-scoped shocks in batches
(:func:`repro.simulate.vector.sampling.sample_shock_candidates`): Poisson
onsets per shelf, a Bernoulli hit per bay, an exponential spread delay
per hit, and for interconnect shocks one cause and one masking decision
shared by every disk the shock afflicts.  These tests draw the shocks
of one shelf and check them.
"""

import numpy as np
import pytest

from repro.core.columns import CAUSE_ORDER
from repro.failures.multipath import MultipathModel
from repro.failures.types import FailureType, InterconnectCause
from repro.fleet.calibration import SHOCK_PARAMS, ShockParams
from repro.simulate.vector.sampling import sample_shock_candidates
from tests.conftest import one_shelf_cohort

PHYS = FailureType.PHYSICAL_INTERCONNECT
DEPLOY = 5.0e6


def shocks(
    seed=7,
    rate=1e-8,
    params=SHOCK_PARAMS[PHYS],
    window_end=1e8,
    n_slots=14,
    dual_path=False,
    multipath=MultipathModel(),
):
    return sample_shock_candidates(
        [np.random.default_rng(seed)],
        one_shelf_cohort(n_slots, DEPLOY, dual_path),
        PHYS,
        np.asarray([rate]),
        params,
        window_end,
        multipath,
    )


def by_onset(candidates):
    """Candidate rows grouped by shock, for shocks spread over < 1 s and
    spaced far apart: the rows of one shock share their whole second."""
    _, first, inverse = np.unique(
        np.floor(candidates.time), return_index=True, return_inverse=True
    )
    return [np.flatnonzero(inverse == group) for group in range(first.size)]


#: Shocks whose hits all land within milliseconds of their onset.
TIGHT = ShockParams(rho=0.8, hit_prob=0.3, window_mean_seconds=1e-3)


class TestShockRate:
    def test_zero_rho_means_no_shocks(self):
        params = ShockParams(rho=0.0, hit_prob=0.5, window_mean_seconds=100.0)
        assert len(shocks(params=params)) == 0
        assert len(shocks(rate=0.0)) == 0
        assert params.rho == 0.0  # constructed fine with rho exactly 0


class TestGenerateShocks:
    def test_shocks_in_window(self):
        out = shocks()
        assert len(out) > 0
        assert np.all((out.time >= DEPLOY) & (out.time < 1e8))

    def test_hit_slots_valid(self):
        out = shocks()
        assert np.all((out.slot >= 0) & (out.slot < 14))
        assert np.all(out.cohort == 0)

    def test_delays_positive(self):
        # Every hit lands at or after its shock's onset, and onsets
        # start at the shelf's deployment.
        out = shocks(params=TIGHT, rate=7.5e-7)
        for rows in by_onset(out):
            assert np.ptp(out.time[rows]) < 0.1
        assert np.all(out.time >= DEPLOY)

    def test_mean_hits_match_hit_prob(self):
        out = shocks(seed=1, params=TIGHT, rate=7.5e-7)
        groups = by_onset(out)
        mean_hits = np.mean([rows.size for rows in groups])
        # Shocks that hit nothing leave no candidates, so the mean over
        # the shocks seen is conditioned on >= 1 hit.
        expected = 14 * TIGHT.hit_prob / (1 - (1 - TIGHT.hit_prob) ** 14)
        assert len(groups) > 50
        assert mean_hits == pytest.approx(expected, rel=0.15)

    def test_delivered_per_disk_rate(self):
        # Hits per bay over a long window approximate the shock share of
        # the delivered rate.
        rate = 2e-8
        params = SHOCK_PARAMS[PHYS]
        window = 5e8
        out = shocks(seed=2, rate=rate, window_end=DEPLOY + window)
        per_disk = len(out) / (14 * window)
        # Compound-Poisson variance is large: ~40 onsets of ~3 hits each
        # gives ~18% relative noise, hence the loose tolerance.
        assert per_disk == pytest.approx(params.rho * rate, rel=0.4)

    def test_empty_window(self):
        assert len(shocks(window_end=DEPLOY)) == 0
        assert len(shocks(n_slots=0)) == 0  # a shelf with no bays


class TestShockLevelMasking:
    def test_one_cause_and_one_mask_decision_per_shock(self):
        out = shocks(
            seed=5,
            params=TIGHT,
            rate=7.5e-7,
            dual_path=True,
            multipath=MultipathModel(mask_probability=0.5),
        )
        groups = [rows for rows in by_onset(out) if rows.size > 1]
        assert len(groups) > 20
        for rows in groups:
            assert np.unique(out.cause[rows]).size == 1
            assert np.unique(out.masked[rows]).size == 1
        network = out.cause == CAUSE_ORDER.index(InterconnectCause.NETWORK_PATH)
        assert out.masked[network].any() and not out.masked[network].all()
        assert not out.masked[~network].any()
