"""Active/passive multipathing: masking of physical interconnect faults.

Mid-range and high-end systems can connect shelves to two independent FC
networks (§4.3).  When the active network fails, I/O is redirected over
the passive one, so the fault never surfaces as a subsystem failure.
Masking is imperfect for three reasons the paper discusses: shelf
backplane/power faults have no redundant path, the two "logical" HBAs
may share one physical adapter, and failover itself can fail — which is
why dual-path AFR stays well above the idealized two-independent-network
product.
"""

from __future__ import annotations

import dataclasses

from repro.fleet.calibration import MULTIPATH_MASK_PROBABILITY


@dataclasses.dataclass(frozen=True)
class MultipathModel:
    """Whether an interconnect fault is masked by the second path.

    Single-path systems never mask; dual-path systems mask network-path
    faults with ``mask_probability``, and can never mask backplane or
    shared-physical-HBA faults
    (:attr:`~repro.failures.types.InterconnectCause.maskable_by_multipath`).
    The injector draws those decisions in batches
    (:mod:`repro.simulate.vector.sampling`).

    Attributes:
        mask_probability: probability a *maskable* fault on a dual-path
            system is tolerated by failover (default from calibration).
    """

    mask_probability: float = MULTIPATH_MASK_PROBABILITY

    def __post_init__(self) -> None:
        if not 0.0 <= self.mask_probability <= 1.0:
            raise ValueError("mask probability must be in [0, 1]")

    def expected_reduction(self, network_path_share: float) -> float:
        """Expected fractional reduction of interconnect AFR on dual path.

        With 60% of faults on the network path and 0.9 masking this is
        0.54 — the paper's 50-60% (Finding 7).
        """
        if not 0.0 <= network_path_share <= 1.0:
            raise ValueError("share must be in [0, 1]")
        return network_path_share * self.mask_probability
