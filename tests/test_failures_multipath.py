"""Tests for multipath masking.

Masking is drawn by the injector's batched samplers; these tests draw
interconnect faults on one-shelf cohorts and check which ones the
second path masked.
"""

import numpy as np
import pytest

from repro.core.columns import CAUSE_ORDER
from repro.failures.multipath import MultipathModel
from repro.failures.types import FailureType, InterconnectCause
from repro.simulate.vector.sampling import sample_independent
from tests.conftest import one_shelf_cohort


def faults(mask_probability, dual_path=True, n=5_000, seed=11):
    """About ``n`` independent interconnect faults on one 14-bay shelf."""
    window = 1.0e8
    return sample_independent(
        [np.random.default_rng(seed)],
        one_shelf_cohort(dual_path=dual_path),
        FailureType.PHYSICAL_INTERCONNECT,
        np.asarray([n / (14 * window)]),
        window,
        MultipathModel(mask_probability=mask_probability),
    )


def cause_code(cause):
    return CAUSE_ORDER.index(cause)


class TestMasking:
    def test_single_path_never_masks(self):
        out = faults(1.0, dual_path=False, n=200)
        assert len(out) > 0
        assert not out.masked.any()

    def test_backplane_never_masked(self):
        out = faults(1.0)
        backplane = out.cause == cause_code(InterconnectCause.BACKPLANE)
        assert backplane.any()
        assert not out.masked[backplane].any()

    def test_shared_hba_never_masked(self):
        out = faults(1.0)
        shared = out.cause == cause_code(InterconnectCause.SHARED_HBA)
        assert shared.any()
        assert not out.masked[shared].any()

    def test_network_path_masked_at_probability(self):
        out = faults(0.7, seed=3)
        network = out.cause == cause_code(InterconnectCause.NETWORK_PATH)
        assert network.sum() > 1_000
        assert out.masked[network].mean() == pytest.approx(0.7, abs=0.03)

    def test_zero_probability_masks_nothing(self):
        out = faults(0.0, n=200)
        assert len(out) > 0
        assert not out.masked.any()

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            MultipathModel(mask_probability=1.5)
        with pytest.raises(ValueError):
            MultipathModel(mask_probability=-0.1)


class TestExpectedReduction:
    def test_paper_band(self):
        # 60% network share x 0.9 masking = 54%: Finding 7's 50-60%.
        model = MultipathModel()
        assert 0.5 <= model.expected_reduction(0.6) <= 0.6

    def test_linear_in_share(self):
        model = MultipathModel(mask_probability=0.5)
        assert model.expected_reduction(0.4) == pytest.approx(0.2)

    def test_share_validated(self):
        with pytest.raises(ValueError):
            MultipathModel().expected_reduction(1.2)
