#!/usr/bin/env python
"""Measure tracing overhead on the full experiment suite.

Runs ``repro run all`` in subprocesses — bare, traced (``--trace``,
``--metrics`` and ``--events``) and sampled (traced plus the resource
sampler and progress heartbeats) — and reports each telemetry leg's
wall-time overhead.  The obs design budget (see docs/OBSERVABILITY.md)
is **< 5%**; exit status is non-zero when either leg exceeds it.

Usage::

    PYTHONPATH=src python tools/obs_overhead.py [--scale 0.02] [--repeats 6]

Each round runs bare, traced and sampled back to back.  Each telemetry
leg is judged by the median, over rounds, of its overhead against the
same round's bare run: pairing cancels the drift a shared host adds to
all three runs of a round, and the median keeps one lucky or unlucky
round from deciding the verdict.  The quartiles of the paired
overheads are printed beside it.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUDGET = 0.05


def run_once(scale: float, trace_dir: str = "", status_dir: str = "") -> float:
    """One ``repro run all`` subprocess; returns wall seconds."""
    command = [
        sys.executable,
        "-m",
        "repro",
        "run",
        "all",
        "--scale",
        str(scale),
        "--no-cache",
    ]
    if trace_dir:
        command += [
            "--trace",
            os.path.join(trace_dir, "t.jsonl"),
            "--metrics",
            os.path.join(trace_dir, "m.prom"),
            "--events",
            os.path.join(trace_dir, "e.jsonl"),
        ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    if status_dir:
        # Full telemetry: the background resource sampler plus live
        # progress heartbeats ride on top of tracing.
        env["REPRO_STATUS_DIR"] = status_dir
    else:
        env.pop("REPRO_STATUS_DIR", None)
    start = time.perf_counter()
    completed = subprocess.run(
        command,
        cwd=REPO,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    elapsed = time.perf_counter() - start
    if completed.returncode not in (0, 1):  # 1 = shape-check noise
        raise SystemExit("repro run all failed (%d)" % completed.returncode)
    return elapsed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=0.02)
    parser.add_argument("--repeats", type=int, default=6)
    args = parser.parse_args()
    if args.repeats < 2:
        parser.error("--repeats must be at least 2 (quartiles need two rounds)")

    bare: list = []
    traced: list = []
    sampled: list = []
    with tempfile.TemporaryDirectory() as trace_dir:
        status_dir = os.path.join(trace_dir, "status")
        for round_index in range(args.repeats):
            bare.append(run_once(args.scale))
            traced.append(run_once(args.scale, trace_dir))
            sampled.append(run_once(args.scale, trace_dir, status_dir))
            print(
                "round %d: bare %.2fs, traced %.2fs, sampled %.2fs"
                % (round_index + 1, bare[-1], traced[-1], sampled[-1])
            )

    failed = False
    for label, timings in (("traced", traced), ("sampled", sampled)):
        paired = [(run - base) / base for run, base in zip(timings, bare)]
        overhead = statistics.median(paired)
        low, _, high = statistics.quantiles(paired, n=4)
        print(
            "%s: median paired overhead %+.1f%% (quartiles %+.1f%% .. %+.1f%%) "
            "over %d rounds (budget %.0f%%)"
            % (label, 100 * overhead, 100 * low, 100 * high, len(paired), 100 * BUDGET)
        )
        if overhead > BUDGET:
            print(
                "FAIL: %s overhead exceeds budget" % label, file=sys.stderr
            )
            failed = True
    if failed:
        return 1
    print("PASS: telemetry overhead within budget")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
