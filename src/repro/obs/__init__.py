"""repro.obs — process-wide tracing, metrics, and profiling.

One observer per process, off by default.  Library code instruments
itself unconditionally through the module-level helpers — a disabled
observer reduces every call to a single attribute check::

    from repro import obs

    with obs.span("simulate.fleet", scenario=name):
        ...
    obs.inc("sim.events", len(events))
    obs.observe("pool.execute", seconds)

Enable it explicitly (the CLI does this from ``--trace`` /
``--metrics``, or the ``REPRO_TRACE`` / ``REPRO_METRICS`` env vars)::

    obs.configure(trace="t.jsonl", metrics="m.prom")
    ...
    obs.export()        # flush the JSONL trace + Prometheus textfile

Components with their own registries (the runtime's
:class:`~repro.runtime.RuntimeMetrics`) call
:func:`register_metrics`; :func:`export` folds their snapshots into
the exported textfile, so one ``m.prom`` carries cache hit rates and
span timings alike.  Profiling: set ``REPRO_PROFILE=<span prefix>``
(e.g. ``REPRO_PROFILE=simulate.``) and matching spans dump per-span
``.pstats`` files.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import os
import tempfile
from typing import Dict, List, Optional

from repro import envvars
from repro.obs.events import (
    EVENTS_SCHEMA_VERSION,
    FleetEventLog,
    read_events,
    read_events_meta,
)
from repro.obs.exporters import (
    load_metrics,
    load_trace_summary,
    parse_prometheus,
    percentile,
    read_trace,
    read_traces,
    render_prometheus,
    render_trace_summary,
    summarize_trace,
    write_metrics,
)
from repro.obs.registry import (
    DEFAULT_BOUNDS,
    DEFAULT_MAX_LABEL_SETS,
    Histogram,
    LABELS_DROPPED,
    MetricsRegistry,
    OVERFLOW_LABEL,
    merged,
    parse_series_key,
    series_key,
)
from repro.obs.trace import NULL_SPAN, NullSpan, Span, TraceContext, Tracer

#: Environment variables the CLI and :func:`configure` honor.
ENV_TRACE = "REPRO_TRACE"
ENV_METRICS = "REPRO_METRICS"
ENV_PROFILE = "REPRO_PROFILE"
ENV_EVENTS = "REPRO_EVENTS"
#: Ship a TraceContext into pool workers (default on; set 0 to keep
#: worker processes dark and trace only the parent's pool spans).
ENV_TRACE_WORKERS = "REPRO_TRACE_WORKERS"


class Observer:
    """The process-wide observability state: tracer, registry, event log.

    Attributes:
        tracer: span collector (``tracer.enabled`` is the master
            tracing switch the hot-path guard checks).
        registry: the observer's own metrics registry.
        fleet_events: the domain event stream (failures / repairs /
            rebuilds from the simulation engine and failure injector).
        trace_path / metrics_path / events_path: where :meth:`export`
            writes.
    """

    def __init__(self) -> None:
        self.tracer = Tracer(enabled=False)
        self.registry = MetricsRegistry(enabled=False)
        self.fleet_events = FleetEventLog(enabled=False)
        self.trace_path: Optional[str] = None
        self.metrics_path: Optional[str] = None
        self.events_path: Optional[str] = None
        self._segment_dir: Optional[str] = None
        # Strong references on purpose: the CLI exports in a ``finally``
        # after the owning RuntimeContext has gone out of scope, so a
        # weak set would drop its metrics right before the write.
        # Registration only happens while the observer is enabled, and
        # :meth:`reset` clears the list, so this cannot grow unbounded.
        self._extra: List[MetricsRegistry] = []

    @property
    def enabled(self) -> bool:
        """Whether any instrumentation is live."""
        return (
            self.tracer.enabled
            or self.registry.enabled
            or self.fleet_events.enabled
        )

    def configure(
        self,
        trace: Optional[str] = None,
        metrics: Optional[str] = None,
        enable: Optional[bool] = None,
        profile: Optional[str] = None,
        events: Optional[str] = None,
    ) -> "Observer":
        """Enable and target the observer.

        Args:
            trace: JSONL trace destination (enables tracing).
            metrics: Prometheus textfile destination (enables metrics).
            enable: force all switches regardless of paths.
            profile: span-name prefix for cProfile dumps (defaults to
                ``$REPRO_PROFILE``).
            events: fleet event stream destination (enables domain
                event emission; defaults to ``$REPRO_EVENTS``).
        """
        trace = trace if trace is not None else envvars.get(ENV_TRACE)
        metrics = (
            metrics if metrics is not None else envvars.get(ENV_METRICS)
        )
        profile = (
            profile if profile is not None else envvars.get(ENV_PROFILE)
        )
        events = events if events is not None else envvars.get(ENV_EVENTS)
        if trace:
            self.trace_path = trace
            self.tracer.enabled = True
        if metrics:
            self.metrics_path = metrics
            self.registry.enabled = True
        if events:
            self.events_path = events
            self.fleet_events.enabled = True
        if profile:
            self.tracer.profile_prefix = profile
        if enable is not None:
            self.tracer.enabled = enable
            self.registry.enabled = enable
            self.fleet_events.enabled = enable
        return self

    def segment_dir(self) -> str:
        """The directory worker trace segments land in (created lazily).

        Lives next to the configured trace file (``<trace>.segs``) so
        segments survive a crashed parent for post-mortems; falls back
        to a fresh temp directory when no trace path is set.
        """
        if self._segment_dir is None:
            if self.trace_path:
                self._segment_dir = os.path.abspath(self.trace_path) + ".segs"
            else:
                self._segment_dir = tempfile.mkdtemp(prefix="repro-trace-segs-")
        os.makedirs(self._segment_dir, exist_ok=True)
        return self._segment_dir

    def register_metrics(self, registry: MetricsRegistry) -> None:
        """Fold ``registry`` into future :meth:`export` calls."""
        if not any(existing is registry for existing in self._extra):
            self._extra.append(registry)

    def merged_registry(self) -> MetricsRegistry:
        """The observer registry plus every registered one, merged."""
        return merged([self.registry] + list(self._extra))

    def export(
        self,
        trace_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        events_path: Optional[str] = None,
    ) -> Dict[str, str]:
        """Write the configured artifacts; returns ``{kind: path}``."""
        written: Dict[str, str] = {}
        trace_path = trace_path or self.trace_path
        metrics_path = metrics_path or self.metrics_path
        events_path = events_path or self.events_path
        if trace_path and self.tracer.enabled:
            if self._segment_dir is not None:
                self.tracer.absorb_segments(self._segment_dir)
                try:
                    os.rmdir(self._segment_dir)
                except OSError:
                    pass  # foreign leftovers keep the dir alive; harmless
            self.tracer.flush(trace_path)
            written["trace"] = trace_path
        if events_path and self.fleet_events.enabled:
            self.fleet_events.flush(events_path)
            written["events"] = events_path
        if metrics_path:
            registry = self.merged_registry()
            if self.fleet_events.enabled and self.fleet_events.count():
                # Fold the fleet-health gauges (rolling AFR, burst
                # inflation, top shelf models) into the same textfile.
                from repro.obs.health import FleetHealth

                health = FleetHealth().ingest_all(self.fleet_events.events())
                health.publish(registry)
            write_metrics(metrics_path, registry)
            written["metrics"] = metrics_path
        return written

    def reset(self) -> None:
        """Back to the disabled, empty boot state (tests)."""
        self.tracer = Tracer(enabled=False)
        self.registry = MetricsRegistry(enabled=False)
        self.fleet_events = FleetEventLog(enabled=False)
        self.trace_path = None
        self.metrics_path = None
        self.events_path = None
        self._segment_dir = None
        self._extra = []


#: The process-wide observer instance the helpers below act on.
OBSERVER = Observer()


def configure(
    trace: Optional[str] = None,
    metrics: Optional[str] = None,
    enable: Optional[bool] = None,
    profile: Optional[str] = None,
    events: Optional[str] = None,
) -> Observer:
    """Configure the process-wide observer (see :meth:`Observer.configure`)."""
    return OBSERVER.configure(
        trace=trace, metrics=metrics, enable=enable, profile=profile,
        events=events,
    )


def enabled() -> bool:
    """Whether the process-wide observer records anything at all."""
    return OBSERVER.enabled


def span(name: str, /, **attrs: object):
    """A timing span over the process tracer; no-op when disabled."""
    tracer = OBSERVER.tracer
    if not tracer.enabled:
        return NULL_SPAN
    return tracer.span(name, attrs)


def traced(name: str, /, **attrs: object):
    """Decorator form of :func:`span` (checked at call time)."""

    def decorate(fn):
        def wrapper(*args: object, **kwargs: object):
            tracer = OBSERVER.tracer
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name, dict(attrs)):
                return fn(*args, **kwargs)

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    return decorate


def inc(name: str, n: int = 1, /, **labels: object) -> None:
    """Increment a counter on the process registry (no-op when disabled)."""
    OBSERVER.registry.increment(name, n, **labels)


def observe(name: str, seconds: float, /, **labels: object) -> None:
    """Record a latency on the process registry (no-op when disabled)."""
    OBSERVER.registry.observe(name, seconds, **labels)


def set_gauge(name: str, value: float, /, **labels: object) -> None:
    """Set a gauge on the process registry (no-op when disabled)."""
    OBSERVER.registry.set_gauge(name, value, **labels)


def register_metrics(registry: MetricsRegistry) -> None:
    """Include another registry in exports (see :meth:`Observer.register_metrics`)."""
    OBSERVER.register_metrics(registry)


def export(
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    events_path: Optional[str] = None,
) -> Dict[str, str]:
    """Write the configured trace/metrics artifacts (see :meth:`Observer.export`)."""
    return OBSERVER.export(
        trace_path=trace_path, metrics_path=metrics_path, events_path=events_path
    )


def events() -> List[Dict[str, object]]:
    """Snapshot of the buffered span events."""
    return OBSERVER.tracer.events()


def worker_trace_context() -> Optional[TraceContext]:
    """The :class:`TraceContext` to ship into pool workers.

    ``None`` — meaning workers stay untraced — when tracing is off or
    ``$REPRO_TRACE_WORKERS`` is explicitly disabled.
    """
    tracer = OBSERVER.tracer
    if not tracer.enabled:
        return None
    if not envvars.get_flag(ENV_TRACE_WORKERS, default=True):
        return None
    return tracer.context(OBSERVER.segment_dir())


def enter_worker_trace(context: TraceContext) -> None:
    """Adopt ``context`` on this process's tracer (worker side).

    Idempotent per (process, trace): a worker that already adopted this
    trace keeps accumulating spans across tasks instead of wiping its
    buffer on every payload.
    """
    tracer = OBSERVER.tracer
    adopted = tracer.adopted
    if (
        adopted is not None
        and adopted.trace_id == context.trace_id
        and tracer.pid == os.getpid()
    ):
        return
    tracer.adopt(context)


def flush_worker_segment() -> int:
    """Write this worker's segment file; returns spans written."""
    return OBSERVER.tracer.flush_segment()


def emit(kind: str, t: float, /, **fields: object) -> None:
    """Emit one fleet event on the process log (no-op when disabled)."""
    OBSERVER.fleet_events.emit(kind, t, **fields)


def fleet_events() -> List[Dict[str, object]]:
    """Snapshot of the buffered fleet events."""
    return OBSERVER.fleet_events.events()


def reset() -> None:
    """Reset the process-wide observer to its disabled boot state."""
    OBSERVER.reset()


__all__ = [
    "DEFAULT_BOUNDS",
    "DEFAULT_MAX_LABEL_SETS",
    "ENV_EVENTS",
    "ENV_METRICS",
    "ENV_PROFILE",
    "ENV_TRACE",
    "ENV_TRACE_WORKERS",
    "EVENTS_SCHEMA_VERSION",
    "FleetEventLog",
    "Histogram",
    "LABELS_DROPPED",
    "MetricsRegistry",
    "NULL_SPAN",
    "NullSpan",
    "OBSERVER",
    "OVERFLOW_LABEL",
    "Observer",
    "Span",
    "TraceContext",
    "Tracer",
    "configure",
    "emit",
    "enabled",
    "enter_worker_trace",
    "events",
    "export",
    "flush_worker_segment",
    "fleet_events",
    "inc",
    "load_metrics",
    "load_trace_summary",
    "merged",
    "observe",
    "parse_prometheus",
    "parse_series_key",
    "percentile",
    "read_events",
    "read_events_meta",
    "read_trace",
    "read_traces",
    "register_metrics",
    "render_prometheus",
    "render_trace_summary",
    "reset",
    "series_key",
    "set_gauge",
    "span",
    "summarize_trace",
    "traced",
    "worker_trace_context",
    "write_metrics",
]
