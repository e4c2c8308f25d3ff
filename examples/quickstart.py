#!/usr/bin/env python3
"""Quickstart: simulate a fleet and reproduce the paper's headline result.

The FAST '08 study's headline: disks are NOT the dominant contributor to
storage subsystem failures — physical interconnects, protocol stacks,
and performance faults together often outweigh them.  This example
simulates a 1:100-scale fleet (about 390 systems / 18,000 disks over 44
months), prints the Table 1 overview and the Figure 4(b) AFR breakdown,
and highlights the low-end paradox: the class with the *most reliable
disks* has the *least reliable storage subsystem*.

Run:
    python examples/quickstart.py
"""

import repro
from repro.core.breakdown import afr_by_class, row_by_label
from repro.core.report import class_overview, format_breakdown, format_overview
from repro.failures.types import FailureType
from repro.topology.classes import SystemClass


def main() -> None:
    # One call runs the whole pipeline: build the fleet, inject
    # failures over the 44-month window, and wrap the result in an
    # analysis-ready dataset.
    result = repro.run_scenario("paper-default", scale=0.01, seed=7)
    dataset = result.dataset

    summary = dataset.summary()
    print(
        "Simulated %d systems / %d shelves / %d disks; "
        "%d subsystem failures over %.0f disk-years.\n"
        % (
            summary["systems"],
            summary["shelves"],
            summary["disks_ever"],
            summary["events"],
            summary["exposure_disk_years"],
        )
    )

    print(format_overview(class_overview(dataset)))
    print()

    rows = afr_by_class(dataset, exclude_problematic_family=True)
    print(format_breakdown("AFR by system class (excluding Disk H)", rows))
    print()

    # The headline: disk failures are a minority share in most classes.
    for row in rows:
        share = row.share(FailureType.DISK)
        print(
            "  %-10s disk failures are %4.0f%% of subsystem failures"
            % (row.label, 100.0 * share)
        )

    nearline = row_by_label(rows, SystemClass.NEARLINE.label)
    low_end = row_by_label(rows, SystemClass.LOW_END.label)
    print(
        "\nThe low-end paradox: near-line disks fail at %.1f%%/yr vs "
        "low-end's %.1f%%/yr,\nyet the near-line subsystem AFR (%.1f%%) is "
        "LOWER than low-end's (%.1f%%)."
        % (
            nearline.percent(FailureType.DISK),
            low_end.percent(FailureType.DISK),
            nearline.total_percent,
            low_end.total_percent,
        )
    )


if __name__ == "__main__":
    main()
