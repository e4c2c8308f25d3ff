"""Runtime observability: named counters and latency histograms.

The runtime records *what it did* (jobs submitted/completed/failed,
cache hits and misses, simulations actually run) as named counters and
*how long jobs took* as bucketed latency histograms.  Both serialize to
plain dicts so worker processes can ship their metrics back to the
parent for merging, and :meth:`RuntimeMetrics.report` renders the
merged state as the text footer the CLI prints after ``repro run all``.

Since the :mod:`repro.obs` observability subsystem absorbed this
module's original implementation, :class:`RuntimeMetrics` is a thin
veneer over :class:`repro.obs.MetricsRegistry` — it inherits labels,
gauges, the label-cardinality cap, thread-safe recording, and
Prometheus export (``repro.obs.render_prometheus``) for free, while
keeping the historical wire format: snapshots taken by pre-obs
versions still merge cleanly.
"""

from __future__ import annotations

from repro.obs.registry import DEFAULT_BOUNDS, MetricsRegistry


class RuntimeMetrics(MetricsRegistry):
    """Counter + histogram registry for one runtime context.

    Counter names are dotted (``jobs.submitted``, ``cache.hit``,
    ``sim.runs``); histograms hold job latencies.  Worker processes
    accumulate into their own instance and return :meth:`snapshot`;
    the parent folds those in with :meth:`merge`.
    """

    def report(self, title: str = "runtime metrics") -> str:
        """Render counters and latency summaries as an aligned text block."""
        return super().report(title)


__all__ = ["DEFAULT_BOUNDS", "RuntimeMetrics"]
