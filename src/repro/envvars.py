"""Central registry of ``REPRO_*`` environment variables.

Every environment variable the library honors is declared here, once,
with its default, parse kind, and consumer.  Library code reads the
environment exclusively through :func:`get` / :func:`get_flag` /
:func:`get_float`; raw ``os.environ`` access to a ``REPRO_*`` name
anywhere else under ``repro`` is a reprolint violation (rule RPL004,
see docs/LINTING.md).  Centralizing the reads buys three things:

* one authoritative list — ``make docs`` renders the markdown table
  committed at docs/ENVIRONMENT.md from this registry, and a unit test
  cross-checks that every registered variable appears there;
* typo safety — :func:`get` raises ``KeyError`` for names nobody
  registered, so a misspelled variable fails loudly instead of
  silently falling back to a default;
* consistent parsing — flag variables share one truthiness rule
  (:func:`get_flag`) instead of per-call-site reimplementations.

This module must stay stdlib-only: it is imported by ``repro.obs``
during package init, and by tooling that runs without numpy installed.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict, List, Optional

#: Flag values parsed as "off" (everything else, e.g. ``1``, is "on").
_FALSY = ("", "0", "false", "no")


@dataclasses.dataclass(frozen=True)
class EnvVar:
    """One registered environment variable.

    Attributes:
        name: the ``REPRO_*`` variable name.
        kind: ``path`` | ``flag`` | ``float`` | ``int`` | ``string`` —
            how consumers parse the raw value.
        default: human-readable default shown in docs (``None`` when
            the variable is simply unset by default).
        consumer: the module that acts on the value.
        description: one-line purpose, rendered into the docs table.
    """

    name: str
    kind: str
    default: Optional[str]
    consumer: str
    description: str


#: Every environment variable the library and its tooling honor.
REGISTRY: Dict[str, EnvVar] = {
    var.name: var
    for var in (
        EnvVar(
            name="REPRO_TRACE",
            kind="path",
            default=None,
            consumer="repro.obs",
            description="Default JSONL trace destination; enables tracing "
            "(same as the CLI's --trace).",
        ),
        EnvVar(
            name="REPRO_METRICS",
            kind="path",
            default=None,
            consumer="repro.obs",
            description="Default Prometheus textfile destination; enables "
            "metrics (same as --metrics).",
        ),
        EnvVar(
            name="REPRO_EVENTS",
            kind="path",
            default=None,
            consumer="repro.obs",
            description="Default fleet event stream destination; enables "
            "domain event emission (same as --events).",
        ),
        EnvVar(
            name="REPRO_PROFILE",
            kind="string",
            default=None,
            consumer="repro.obs.trace",
            description="Span-name prefix; matching spans dump per-span "
            "cProfile .pstats files.",
        ),
        EnvVar(
            name="REPRO_PROFILE_DIR",
            kind="path",
            default=".",
            consumer="repro.obs.trace",
            description="Directory where per-span profile dumps land.",
        ),
        EnvVar(
            name="REPRO_CACHE_DIR",
            kind="path",
            default="~/.cache/repro",
            consumer="repro.runtime.cache",
            description="On-disk location of the content-addressed result "
            "cache (same as --cache-dir).",
        ),
        EnvVar(
            name="REPRO_BENCH_ANALYSIS_SCALE",
            kind="float",
            default="0.5",
            consumer="benchmarks.test_bench_analysis",
            description="Fleet scale for the analysis benchmark suite "
            "(CI shrinks it to fit the job budget).",
        ),
        EnvVar(
            name="REPRO_BENCH_SIMULATE_SCALE",
            kind="float",
            default="0.4",
            consumer="benchmarks.test_bench_simulate",
            description="Fleet scale for the simulation benchmark suite "
            "(CI shrinks it to fit the job budget).",
        ),
        EnvVar(
            name="REPRO_SHARDS",
            kind="int",
            default="1",
            consumer="repro.cli",
            description="Default shard count for simulations (same as "
            "--shards); 1 runs unsharded, N>1 partitions the fleet into "
            "N spill-to-disk shards merged byte-identically.",
        ),
        EnvVar(
            name="REPRO_SHARD_SPILL_DIR",
            kind="path",
            default=None,
            consumer="repro.runtime.shard",
            description="Where sharded runs spill per-shard EventTable "
            ".npz files (default: a shards/ directory under the result "
            "cache).",
        ),
        EnvVar(
            name="REPRO_TRACE_WORKERS",
            kind="flag",
            default="1",
            consumer="repro.obs",
            description="When tracing is on, ship a TraceContext into "
            "pool workers so they flush per-process trace segments the "
            "parent merges into one clock-aligned trace; set 0 to trace "
            "only the parent's pool spans.",
        ),
        EnvVar(
            name="REPRO_SAMPLE_INTERVAL",
            kind="float",
            default="0.5",
            consumer="repro.obs.sampler",
            description="Seconds between resource-sampler ticks (RSS/CPU "
            "timeline) and the minimum spacing of throttled progress "
            "heartbeats.",
        ),
        EnvVar(
            name="REPRO_MONITOR_PORT",
            kind="int",
            default="8765",
            consumer="repro.cli",
            description="Default TCP port for `repro obs serve`, the live "
            "run monitor (/status JSON + /metrics Prometheus textfile).",
        ),
        EnvVar(
            name="REPRO_HAZARD_BACKEND",
            kind="string",
            default="analytic",
            consumer="repro.runconfig",
            description="Default hazard backend spec of "
            "`RunConfig.from_env()` (--hazard-backend wins): `analytic`, "
            "`trace:<events>`, or `fitted:<events>`.",
        ),
        EnvVar(
            name="REPRO_STATUS_DIR",
            kind="path",
            default=None,
            consumer="repro.obs.sampler",
            description="Directory for live heartbeat-<pid>.json status "
            "records; setting it enables progress heartbeats from the "
            "driver and every worker, which `repro obs watch`/`serve` "
            "read while the run is in flight.",
        ),
    )
}


def get(name: str, default: Optional[str] = None) -> Optional[str]:
    """The raw environment value of a *registered* variable.

    Args:
        name: a key of :data:`REGISTRY`.
        default: returned when the variable is unset or empty.

    Raises:
        KeyError: when ``name`` was never registered — add it to
            :data:`REGISTRY` (and docs/ENVIRONMENT.md) first.
    """
    if name not in REGISTRY:
        raise KeyError(
            "unregistered environment variable %r; add it to "
            "repro.envvars.REGISTRY" % (name,)
        )
    value = os.environ.get(name)
    if value is None or value == "":
        return default
    return value


def get_flag(name: str, default: bool = False) -> bool:
    """Parse a registered variable as an on/off flag.

    ``0``, ``false``, and ``no`` (any case) are off; anything else is
    on; unset or empty falls back to ``default`` (off unless the
    variable is registered default-on, like ``REPRO_TRACE_WORKERS``).
    """
    value = get(name)
    if value is None:
        return default
    return value.strip().lower() not in _FALSY


def get_float(name: str, default: float) -> float:
    """Parse a registered variable as a float, falling back on absence."""
    value = get(name)
    if value is None:
        return default
    return float(value)


def get_int(name: str, default: int) -> int:
    """Parse a registered variable as an int, falling back on absence."""
    value = get(name)
    if value is None:
        return default
    return int(value)


def markdown_table() -> str:
    """The authoritative ``REPRO_*`` table (docs/ENVIRONMENT.md body)."""
    rows: List[str] = [
        "| Variable | Kind | Default | Consumer | Purpose |",
        "| --- | --- | --- | --- | --- |",
    ]
    for name in sorted(REGISTRY):
        var = REGISTRY[name]
        default = "`%s`" % var.default if var.default is not None else "unset"
        rows.append(
            "| `%s` | %s | %s | `%s` | %s |"
            % (var.name, var.kind, default, var.consumer, var.description)
        )
    return "\n".join(rows)


def undocumented(doc_text: str) -> List[str]:
    """Registered variables missing from ``doc_text`` (docs cross-check)."""
    return [name for name in sorted(REGISTRY) if name not in doc_text]


def render_docs() -> str:
    """The full generated docs/ENVIRONMENT.md contents."""
    return (
        "# Environment variables\n"
        "\n"
        "<!-- Generated from src/repro/envvars.py by `make docs`; do "
        "not edit by hand. -->\n"
        "\n"
        "Every `REPRO_*` environment variable the library honors, "
        "generated from the\n"
        "single authoritative registry in `src/repro/envvars.py`.  "
        "Library code may\n"
        "only read these through `repro.envvars.get` / `get_flag` / "
        "`get_float`;\n"
        "reprolint rule RPL004 (see [LINTING.md](LINTING.md)) enforces "
        "this.\n"
        "\n" + markdown_table() + "\n"
    )


__all__ = [
    "EnvVar",
    "REGISTRY",
    "get",
    "get_flag",
    "get_float",
    "get_int",
    "markdown_table",
    "render_docs",
    "undocumented",
]


if __name__ == "__main__":
    print(render_docs(), end="")
