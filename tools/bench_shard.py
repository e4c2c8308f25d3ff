#!/usr/bin/env python
"""Peak-RSS and wall-time comparison: sharded vs unsharded fleet runs.

The sharded runtime exists so a paper-scale fleet never has to be
resident all at once: each shard builds only its slice of the object
fleet, simulates it, and spills the resulting ``EventTable`` to disk;
the merge then works over memory-mapped columns.  This tool measures
that claim directly — it runs the same scenario unsharded and sharded
in *separate child processes* (``ru_maxrss`` is per-process and never
shrinks, so the two configurations must not share an interpreter),
prints the pair and, with ``--out``, writes it as JSON.

Usage::

    python tools/bench_shard.py --scale 1.0 --shards 4 --out bench-shard.json

The nightly CI job runs this at scale 1.0 and uploads the JSON as an
artifact.  Exit status is non-zero when the sharded peak RSS is not
below the unsharded peak, so the job doubles as a regression gate for
the spill path.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _child(mode: str, scale: float, seed: int, shards: int, workdir: str) -> int:
    """Run one configuration and print its measurements as JSON."""
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    started = time.perf_counter()
    if mode == "unsharded":
        from repro.simulate.scenario import run_scenario

        result = run_scenario("paper-default", scale=scale, seed=seed)
    else:
        from repro.runtime import RuntimeConfig, RuntimeContext, run_sharded_scenario

        runtime = RuntimeContext(
            RuntimeConfig(cache_dir=os.path.join(workdir, "cache"))
        )
        result = run_sharded_scenario(
            "paper-default", scale=scale, seed=seed,
            runtime=runtime, n_shards=shards,
        )
    elapsed = time.perf_counter() - started
    n_events = len(result.dataset.table)
    # Linux reports ru_maxrss in KiB.
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump(
        {
            "mode": mode,
            "events": n_events,
            "seconds": round(elapsed, 3),
            "peak_rss_mib": round(peak_kib / 1024.0, 1),
        },
        sys.stdout,
    )
    print()
    return 0


def _measure(mode: str, args: argparse.Namespace, workdir: str) -> dict:
    env = dict(os.environ)
    env["REPRO_SHARD_SPILL_DIR"] = os.path.join(workdir, "spills")
    command = [
        sys.executable, os.path.abspath(__file__), "--child-mode", mode,
        "--scale", repr(args.scale), "--seed", str(args.seed),
        "--shards", str(args.shards), "--workdir", workdir,
    ]
    output = subprocess.run(
        command, env=env, cwd=REPO_ROOT, check=True,
        stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(output.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="fleet scale (default: 1.0)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--out", default=None,
                        help="write the run's measurements here as JSON")
    # Internal: re-entry point for the measured child process.
    parser.add_argument("--child-mode", choices=("unsharded", "sharded"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child_mode:
        return _child(args.child_mode, args.scale, args.seed, args.shards,
                      args.workdir)

    with tempfile.TemporaryDirectory(prefix="repro-bench-shard-") as workdir:
        unsharded = _measure("unsharded", args, workdir)
        sharded = _measure("sharded", args, workdir)

    ratio = sharded["peak_rss_mib"] / max(unsharded["peak_rss_mib"], 0.1)
    run = {
        "scale": args.scale,
        "seed": args.seed,
        "shards": args.shards,
        "events": sharded["events"],
        "unsharded": {"peak_rss_mib": unsharded["peak_rss_mib"],
                      "seconds": unsharded["seconds"]},
        "sharded": {"peak_rss_mib": sharded["peak_rss_mib"],
                    "seconds": sharded["seconds"]},
        "rss_ratio": round(ratio, 3),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(run, handle, indent=2, sort_keys=True)
            handle.write("\n")

    print("scale %s, %d shards: unsharded %.1f MiB / %.1fs -> "
          "sharded %.1f MiB / %.1fs (rss ratio %.2f)"
          % (args.scale, args.shards,
             unsharded["peak_rss_mib"], unsharded["seconds"],
             sharded["peak_rss_mib"], sharded["seconds"], ratio))

    if sharded["events"] != unsharded["events"]:
        print("ERROR: event counts differ (sharded %d vs unsharded %d)"
              % (sharded["events"], unsharded["events"]), file=sys.stderr)
        return 1
    if ratio >= 1.0:
        print("ERROR: sharded peak RSS is not below unsharded "
              "(ratio %.2f)" % ratio, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
