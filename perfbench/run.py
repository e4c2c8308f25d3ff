"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-figures --seed 1 --seconds 10 --trace 0

Every measurement runs in a fresh child process (``workloads.py``) with
its own cache, spill and temp directories under ``.perfbench-work/``,
which is removed afterwards.  The child imports ``repro`` from ``src``
with the vector engine selected, and any worker it leaves behind is
killed with its process group.

``--trace 0`` runs the workload in children until ``--seconds`` have
passed (at least one), adds set-up-only children until there are
three set-up samples, and reports the end-to-end metrics: times in
reference-host seconds (see :class:`HostSpeed`), the median section of
each fleet summed over the fleets, and the median set-up time and peak
RSS.  ``--trace 1``
runs one untraced child, which also runs the cross-workload gates, and
one traced child, and reports the per-layer metrics of
``layers.json`` plus the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat every metric by name with its unit, and ``ops_failed_ratio``.
The exit status is 0 when every operation succeeded, 1 when one failed
and 2 when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Sequence

from workloads import ROOT, SRC, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "workloads.py")
WORK_BASE = os.path.join(ROOT, ".perfbench-work")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("disk_years_per_s", "disk-years/s"),
    ("warm_s", "s"),
)
AGGREGATE = {
    "setup_s": statistics.median,
    "wall_s": min,
    "peak_rss_mib": statistics.median,
    "disk_years_per_s": max,
    "warm_s": min,
}
MIN_SETUP_SAMPLES = 3
#: Every child must end this many seconds after the run started.
RUN_DEADLINE_S = 170.0

#: CPU seconds one :func:`host_kernel` call takes on the baseline
#: machine when no other tenant contends for it (README, "Host noise").
HOST_KERNEL_REFERENCE_S = 0.004
HOST_SAMPLE_PERIOD_S = 0.2


def host_kernel() -> int:
    """Fixed work the benchmark owns: strings, a dict and a sort."""
    table = {str(i): i for i in range(8000)}
    ordered = sorted(table.items(), key=lambda item: item[1] % 97)
    return sum(value for _, value in ordered)


class HostSpeed:
    """Samples, in a thread, how much CPU time :func:`host_kernel` takes.

    On a shared host, other tenants slow every process by up to half
    for tens of seconds at a time, and the slowdown shows in CPU time,
    not as waiting.  The kernel slows with it.  :meth:`slowdown` gives
    the kernel's mean CPU time over an interval relative to the
    reference, so a time divided by it reads as on the uncontended
    baseline machine.  The thread uses about 2% of one core.
    """

    def __init__(self) -> None:
        self.samples: List[tuple] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.is_set():
            start = time.thread_time()
            host_kernel()
            self.samples.append((time.monotonic(), time.thread_time() - start))
            self._stop.wait(HOST_SAMPLE_PERIOD_S)

    def slowdown(self, interval: Sequence[float]) -> float:
        start, end = interval
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        if not inside:  # a section shorter than the sample period
            nearest = min(self.samples, key=lambda sample: abs(sample[0] - end))
            inside = [nearest[1]]
        return statistics.fmean(inside) / HOST_KERNEL_REFERENCE_S

    def seconds(self, interval: Sequence[float]) -> float:
        """The interval's length at the reference host speed."""
        return (interval[1] - interval[0]) / self.slowdown(interval)


def layer_units() -> Dict[str, str]:
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as handle:
        return {layer["name"]: layer["unit"] for layer in json.load(handle)["layers"]}


def child_env(rundir: str) -> Dict[str, str]:
    """The child's environment: no inherited ``REPRO_*`` knobs, the
    vector engine, private cache/spill/temp dirs, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=SRC,
        REPRO_VECTOR_ENGINE="1",
        REPRO_CACHE_DIR=os.path.join(rundir, "cache"),
        REPRO_SHARD_SPILL_DIR=os.path.join(rundir, "spill"),
        TMPDIR=os.path.join(rundir, "tmp"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def stop_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of the child's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    give_up = time.monotonic() + 5.0
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(args: argparse.Namespace, workdir: str, deadline: float, *flags: str) -> dict:
    """Run one child to completion; returns its record.

    A child that exits non-zero or times out counts as one failed
    operation on top of whatever it recorded.
    """
    rundir = tempfile.mkdtemp(prefix="child-", dir=workdir)
    env = child_env(rundir)
    os.makedirs(env["TMPDIR"])
    result_path = os.path.join(rundir, "result.json")
    command = [
        sys.executable, CHILD, "--workload", args.workload,
        "--seed", str(args.seed), "--result", result_path,
    ]
    if args.scale is not None:
        command += ["--scale", repr(args.scale)]
    if args.break_digests:
        command.append("--break-digests")
    command += list(flags) + ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(
        command, env=env, cwd=ROOT, stdout=sys.stderr, start_new_session=True
    )
    try:
        status = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        status = "timeout"
    finally:
        stop_group(proc)
    record: dict = {"attempted": 0, "failed": 0, "failures": []}
    if os.path.exists(result_path):
        with open(result_path, "r", encoding="utf-8") as handle:
            record.update(json.load(handle))
    shutil.rmtree(rundir, ignore_errors=True)
    if status != 0:
        record["attempted"] += 1
        record["failed"] += 1
        record["failures"].append("child exit %s" % status)
    return record


def measure(args: argparse.Namespace, workdir: str):
    """Run the children; returns (metrics, attempted, failed, notes)."""
    start = time.monotonic()
    deadline = start + RUN_DEADLINE_S
    with HostSpeed() as host:
        if args.trace:
            # The untraced child also runs the gates that repeat another
            # workload's simulation; they cost too much for every run.
            runs = [
                spawn(args, workdir, deadline, "--cross-check"),
                spawn(args, workdir, deadline, "--trace"),
            ]
        else:
            runs = [spawn(args, workdir, deadline)]
            while time.monotonic() - start < args.seconds:
                runs.append(spawn(args, workdir, deadline))
            while sum("setup_interval" in run for run in runs) < MIN_SETUP_SAMPLES:
                runs.append(spawn(args, workdir, deadline, "--setup-only"))

    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    notes = [failure for run in runs for failure in run["failures"]]
    measured = [run for run in runs if "cold_intervals" in run]
    # Same seed, same inputs: every child must produce the same table.
    for run in measured[1:]:
        attempted += 1
        if run.get("digest") != measured[0].get("digest"):
            failed += 1
            notes.append("digest differs between children")

    def timed_seconds(run: dict) -> float:
        return sum(map(host.seconds, run["cold_intervals"] + run["warm_intervals"]))

    def per_fleet(run: dict, kind: str, seconds=host.seconds) -> float:
        """The median ``kind`` section of each fleet, summed over fleets.

        A short section's correction rests on a few kernel samples, and
        the fastest corrected section is often one the correction
        flattered; the median spread less (README, "Host noise").
        """
        times: Dict[int, List[float]] = {}
        for fleet, interval in zip(run[kind + "_fleets"], run[kind + "_intervals"]):
            times.setdefault(fleet, []).append(seconds(interval))
        return sum(statistics.median(fleet_times) for fleet_times in times.values())

    def raw_seconds(interval: Sequence[float]) -> float:
        return interval[1] - interval[0]

    metrics: Dict[str, dict] = {}
    if args.trace:
        units = layer_units()
        if len(measured) == 2 and "layers" in measured[1]:
            plain, traced = measured
            layers = dict(traced["layers"])
            layers["trace.wall_s"] = traced["timed_s"]
            layers["trace.overhead_s"] = timed_seconds(traced) - timed_seconds(plain)
            for name, unit in units.items():
                metrics[name] = {"value": layers.get(name, 0.0), "unit": unit}
    elif measured:
        # Host contention only ever slows a child down, so times take
        # the fastest child; set-up and memory the median.
        walls = [(run["disk_years"], per_fleet(run, "cold")) for run in measured]
        samples = {
            "setup_s": [host.seconds(run["setup_interval"]) for run in runs
                        if "setup_interval" in run],
            "wall_s": [wall for _, wall in walls],
            "peak_rss_mib": [run["peak_rss_mib"] for run in measured],
            "disk_years_per_s": [years / wall for years, wall in walls],
            "warm_s": [per_fleet(run, "warm") for run in measured],
        }
        for name, unit in END_TO_END:
            value = AGGREGATE[name](samples[name])
            metrics[name] = {"value": value, "unit": unit}
        notes.append(
            "%d workload children, %d set-up samples, digest %s, %d events"
            % (len(measured), len(samples["setup_s"]), measured[0]["digest"],
               measured[0]["events"])
        )
        samples["raw_wall_s"] = [per_fleet(run, "cold", raw_seconds)
                                 for run in measured]
        samples["raw_warm_s"] = [per_fleet(run, "warm", raw_seconds)
                                 for run in measured]
        for kind in ("cold", "warm"):
            samples["raw_%s_sections_s" % kind] = [
                raw_seconds(interval) for run in measured
                for interval in run[kind + "_intervals"]]
            samples["%s_sections_s" % kind] = [
                host.seconds(interval) for run in measured
                for interval in run[kind + "_intervals"]]
            samples["%s_fleets" % kind] = [fleet for run in measured
                                           for fleet in run[kind + "_fleets"]]
        samples["host_slowdown"] = [host.slowdown(interval) for run in measured
                                    for interval in run["cold_intervals"]]
        notes.append("samples %s" % json.dumps(samples))
    return metrics, attempted, failed, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=None,
        help="override the workload's fleet scale (the self-test's toy runs)",
    )
    parser.add_argument(
        "--break-digests", action="store_true",
        help="compare every digest against a wrong one (self-test only)",
    )
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under %s" % SRC, file=sys.stderr)
        return 2
    # SIGTERM unwinds through the finally blocks, which stop the children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    compileall.compile_dir(SRC, quiet=1)
    os.makedirs(WORK_BASE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK_BASE)
    try:
        metrics, attempted, failed, notes = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_BASE)
        except OSError:
            pass  # another run still uses it

    for note in notes:
        print("# %s" % note)
    for name, metric in metrics.items():
        print("%-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    print("%-40s %.6g (%d of %d operations)" % (
        "ops_failed_ratio", failed / max(attempted, 1), failed, attempted))
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
