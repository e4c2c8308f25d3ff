"""The benchmark's workloads; run as a script, one workload per process.

``run.py`` starts this file once per measurement, in a fresh process
with its own cache and spill directories::

    python3 perfbench/workloads.py --workload paper-figures --seed 1 \
        --result out.json --spawned-at <time.monotonic() of the parent>

The process imports ``repro`` from the checkout's ``src``, sets up
(imports, the experiment registry, a toy-scale warm-up), runs the
workload's cold and warm sections under a timer, runs the correctness
gates, and writes one JSON record to ``--result``: the
``time.monotonic()`` interval of set-up and of every timed section,
which ``run.py`` turns into times.  With ``--trace`` it
also times the calls into each layer's public functions (see
:class:`LayerTracer`).  This module imports nothing from ``repro`` at
import time, so ``run.py`` can read :data:`WORKLOADS` cheaply.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Every workload simulates this scenario on the vector engine.
SCENARIO = "paper-default"

#: Workload name -> fleet scale (1.0 = the paper's 39,000 systems).
#: 0.6 is the ROADMAP's "paper scale": ~1.06M disks built, 44 months.
WORKLOADS: Dict[str, float] = {
    "paper-figures": 0.6,
    "log-roundtrip": 0.02,
    "sharded-jobs2": 0.6,
}

FIGURES = ("fig4a", "fig9a", "fig10a")
TOY_SCALE = 0.005
SHARDS = 4
SHARD_JOBS = 2
MIB = 1024.0 * 1024.0


class Ledger:
    """Counts operations attempted and failed.

    An operation is an experiment run, a shape check or a digest check.
    It fails if it raises or if the check does not hold.  With
    ``break_digests`` every digest check compares against a wrong
    digest, which the self-test uses to prove failures are counted.
    """

    def __init__(self, break_digests: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.break_digests = break_digests

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def run(self, label: str, fn: Callable, *args):
        """Run one operation; a raise is counted, then re-raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.failures.append("%s raised" % label)
            raise

    def experiment(self, experiment_id: str, context):
        from repro.experiments import run_experiment

        result = self.run(experiment_id, run_experiment, experiment_id, context)
        for name, ok in sorted(result.checks.items()):
            self.check("%s:%s" % (experiment_id, name), bool(ok))
        return result

    def same_digest(self, label: str, observed: str, expected: str) -> None:
        if self.break_digests:
            observed = "0" * 64
        self.check("digest %s" % label, observed == expected)


class LayerTracer:
    """Self time, counts and sizes per layer, from wrapped public functions.

    :meth:`install` replaces each layer entry point with a timing
    wrapper at every name it is called through; :meth:`uninstall` puts
    the originals back.  A nested call's time is subtracted from its
    caller's, so the layer times add up to the traced wall time minus
    what no wrapper covers.
    """

    def __init__(self) -> None:
        self.values: Dict[str, float] = {}
        self._stack: List[float] = []
        self._patches: List[tuple] = []

    def add(self, metric: str, value: float) -> None:
        self.values[metric] = self.values.get(metric, 0.0) + value

    def _wrap(self, fn: Callable, metric: str, count=None, rss_metric=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rss_before = _rss_mib() if rss_metric else 0.0
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                nested = self._stack.pop()
                self.add(metric, elapsed - nested)
                if self._stack:
                    self._stack[-1] += elapsed
            if rss_metric:
                self.add(rss_metric, _rss_mib() - rss_before)
            if count is not None:
                self.add(count[0], float(count[1](result)))
            return result

        return wrapper

    def patch(self, owner, name: str, metric: str, **hooks) -> None:
        """Wrap ``owner.name`` (a module function, method or classmethod)."""
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, metric, **hooks))
        else:
            replacement = self._wrap(raw, metric, **hooks)
        self._patches.append((owner, name, raw))
        setattr(owner, name, replacement)

    def install(self) -> None:
        import repro.autosupport.parser as parser
        import repro.experiments.fig10 as fig10
        import repro.experiments.fig4 as fig4
        import repro.experiments.fig9 as fig9
        import repro.runtime.shard as shard
        import repro.simulate.engine as engine
        import repro.simulate.vector.engine as vector
        from repro.core.dataset import FailureDataset
        from repro.runtime.cache import ResultCache
        from repro.runtime.pool import WorkerPool

        self.patch(
            engine, "build_fleet", "fleet.build_s",
            rss_metric="fleet.build_rss_mib",
            count=("fleet.disks", lambda fleet: fleet.disk_count_ever),
        )
        self.patch(vector, "build_frame", "simulate.vector.frame_s")
        self.patch(
            vector.VectorFailureInjector, "inject", "simulate.vector.inject_s",
            count=("simulate.vector.events", lambda injection: injection.n_events()),
        )
        self.patch(FailureDataset, "from_injection", "core.dataset.from_injection_s")
        self.patch(FailureDataset, "exposure_years", "core.dataset.exposure_s")
        self.patch(FailureDataset, "deduplicated", "core.dataset.dedup_s")
        self.patch(fig4, "afr_by_class", "core.breakdown.afr_by_class_s")
        self.patch(fig9, "figure9_series", "core.timebetween.figure9_series_s")
        self.patch(fig10, "correlation_by_type", "core.correlation.correlation_by_type_s")
        self.patch(
            engine, "write_logs", "autosupport.write_s",
            count=("autosupport.log_lines", lambda archive: archive.total_lines()),
        )
        self.patch(engine, "parse_archive", "autosupport.parse_s")
        self.patch(parser, "parse_archive", "autosupport.parse_s")
        self.patch(ResultCache, "put", "runtime.cache.put_s")
        self.patch(ResultCache, "get", "runtime.cache.get_s")
        self.patch(WorkerPool, "map", "runtime.pool.map_s")
        self.patch(shard, "load_table", "core.colstore.load_s")
        self.patch(shard, "merge_tables", "core.colstore.merge_s")

    def uninstall(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)


def _rss_mib() -> float:
    with open("/proc/self/statm", "r", encoding="ascii") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / MIB


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _files_mib(directory: str, suffix: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(directory):
        total += sum(
            os.path.getsize(os.path.join(base, name))
            for name in files
            if name.endswith(suffix)
        )
    return total / MIB


# -- workloads ------------------------------------------------------------------


class Workload:
    """One closed-loop job: cold sections, warm sections, then gates.

    The job covers ``fleets`` simulations, one per seed of
    :meth:`seeds`.  ``rounds`` times, for each fleet in turn, ``cold``
    is timed once and then ``warm`` ``warm_repeats`` times on the state
    the cold section left.  The run reports, per fleet, the median cold
    and the median warm section, summed over the fleets.  More fleets
    average out how much work a seed happens to draw; more samples per
    fleet filter out more host noise.  ``gates`` runs after the timer
    and the peak-RSS reading; with ``cross_check`` it also runs the
    gates that repeat another workload's simulation.  ``cold`` returns
    the dataset whose digest and exposure the run reports; ``warm``
    returns its output, which :meth:`kept` shrinks, after the timer, to
    what the gates need, so ten warm outputs do not add to peak RSS.
    """

    fleets = 1
    rounds = 1
    # A ~1 s warm section's correction rests on a few kernel samples in
    # run.py; the median of ten steadies it.
    warm_repeats = 10

    def __init__(self, scale: float, seed: int, ledger: Ledger) -> None:
        self.scale = scale
        self.seed = seed
        self.ledger = ledger
        self.sizes: Dict[str, float] = {}
        self.warm_outputs: List[object] = []

    def seeds(self) -> List[int]:
        """One simulation seed per fleet; ``[seed]`` for a single fleet."""
        return [self.seed * self.fleets + index for index in range(self.fleets)]

    def cold(self, seed: int):
        raise NotImplementedError

    def warm(self, fleet: int):
        raise NotImplementedError

    def kept(self, output):
        return output

    def gates(self, digests: List[str], cross_check: bool) -> None:
        """``digests[i]`` is fleet ``i``'s first cold table digest."""
        raise NotImplementedError


class PaperFigures(Workload):
    """Simulate once at paper scale, then fig4a, fig9a and fig10a.

    The warm section re-runs the three figures on the dataset already in
    memory; their data must equal the cold run's.
    """

    # The longest cold section of the three; six warm sections keep a run
    # near 45 s on a busy host, inside the time all runs together may take.
    warm_repeats = 6

    def _figures(self):
        return {eid: self.ledger.experiment(eid, self.context) for eid in FIGURES}

    def cold(self, seed: int):
        from repro.experiments import ExperimentContext

        self.context = ExperimentContext(scale=self.scale, seed=seed)
        dataset = self.ledger.run("simulate", self.context.dataset, SCENARIO)
        self.first = self._figures()
        return dataset

    def warm(self, fleet: int):
        return self._figures()

    def gates(self, digests: List[str], cross_check: bool) -> None:
        for _fleet, again in self.warm_outputs:
            for eid in FIGURES:
                self.ledger.check(
                    "%s warm data" % eid, again[eid].data == self.first[eid].data
                )
        after = self.context.dataset(SCENARIO).table.content_digest()
        self.ledger.same_digest("after figures", after, digests[0])


class LogRoundtrip(Workload):
    """Simulate through the AutoSupport logs, then fig4a on the parsed data.

    The warm section parses the written archive again; the re-parsed
    table must digest equal to the first parse of that fleet.
    """

    # One small fleet's size varies by ~9% from seed to seed, and host
    # noise comes in bursts of a few seconds.  Three ~2 s fleets, each
    # timed three times some seconds apart, steady both.
    fleets = 3
    rounds = 3
    warm_repeats = 1

    def cold(self, seed: int):
        from repro.experiments import ExperimentContext

        self.context = self.result = None  # one simulation in memory at a time
        self.context = ExperimentContext(scale=self.scale, seed=seed, via_logs=True)
        self.result = self.ledger.run("simulate", self.context.result, SCENARIO)
        self.ledger.experiment("fig4a", self.context)
        return self.result.dataset

    def warm(self, fleet: int):
        from repro.autosupport.parser import parse_archive
        from repro.simulate.clock import SimulationClock

        return self.ledger.run(
            "parse", parse_archive, self.result.archive, SimulationClock(),
            self.result.fleet,
        )

    def kept(self, output):
        return output.table.content_digest()

    def gates(self, digests: List[str], cross_check: bool) -> None:
        for fleet, digest in self.warm_outputs:
            self.ledger.same_digest("re-parse", digest, digests[fleet])


class ShardedJobs(Workload):
    """``RuntimeContext.run_scenario`` sharded 4 ways over a 2-process
    pool, with a persistent cache: a cold run, then warm reruns, each in
    a fresh context over the same cache, as a second ``repro run`` does.

    Each warm rerun must be one cache hit with no simulation and digest
    equal to the cold run.  The cross-check runs the scenario unsharded
    at the same scale and seed (the ``paper-figures`` simulation); its
    table must digest equal to the merged one.
    """

    def _run(self, label: str):
        from repro.runtime import RuntimeConfig, RuntimeContext

        runtime = RuntimeContext(
            RuntimeConfig(jobs=SHARD_JOBS, cache_dir=os.environ["REPRO_CACHE_DIR"])
        )
        result = self.ledger.run(
            label, runtime.run_scenario, SCENARIO, self.scale, self.seed,
            False, SHARDS,
        )
        return runtime, result

    def cold(self, seed: int):
        _, result = self._run("cold run")
        self.sizes["runtime.cache.entry_mib"] = _files_mib(
            os.environ["REPRO_CACHE_DIR"], ".pkl"
        )
        self.sizes["runtime.shard.spill_mib"] = _files_mib(
            os.environ["REPRO_SHARD_SPILL_DIR"], ".npz"
        )
        return result.dataset

    def warm(self, fleet: int):
        return self._run("warm run")

    def kept(self, output):
        runtime, result = output
        return (
            runtime.metrics.count("sim.runs"),
            runtime.metrics.count("cache.hit"),
            result.dataset.table.content_digest(),
        )

    def gates(self, digests: List[str], cross_check: bool) -> None:
        digest = digests[0]
        for _fleet, (sim_runs, cache_hits, warm_digest) in self.warm_outputs:
            self.ledger.check(
                "warm run is one cache hit and no simulation",
                sim_runs == 0 and cache_hits == 1,
            )
            self.ledger.same_digest("warm vs cold", warm_digest, digest)
        if cross_check:
            from repro.simulate.scenario import run_scenario

            unsharded = self.ledger.run(
                "unsharded run", run_scenario, SCENARIO, self.scale, self.seed
            )
            self.ledger.same_digest(
                "sharded vs unsharded", digest,
                unsharded.dataset.table.content_digest(),
            )


BODIES = {
    "paper-figures": PaperFigures,
    "log-roundtrip": LogRoundtrip,
    "sharded-jobs2": ShardedJobs,
}


# -- process entry -------------------------------------------------------------


def setup() -> None:
    """Imports, the experiment registry and a toy-scale warm-up.

    The warm-up runs the log pipeline and the three figures once at toy
    scale, so numpy's and the analyses' first-call costs land here and
    not in the timed sections.  Its shape checks are not counted: toy
    scale is too small for them.
    """
    sys.path.insert(0, SRC)
    import repro
    import repro.experiments
    import repro.runtime  # noqa: F401  (import cost belongs to set-up)
    from repro.simulate.vector.engine import vector_engine_enabled

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit("repro imported from %s, not %s" % (repro.__file__, SRC))
    if not vector_engine_enabled():
        raise SystemExit("REPRO_VECTOR_ENGINE must select the vector engine")
    context = repro.experiments.ExperimentContext(
        scale=TOY_SCALE, seed=0, via_logs=True
    )
    for eid in FIGURES:
        repro.experiments.run_experiment(eid, context)
    context.dataset(SCENARIO).table.content_digest()


def run(args: argparse.Namespace, ledger: Ledger, record: Dict[str, object]) -> None:
    workload = BODIES[args.workload](args.scale, args.seed, ledger)
    tracer = LayerTracer() if args.trace else None

    def timed(section: Callable, intervals: List[List[float]]):
        """Run a section; keep its ``time.monotonic()`` interval.

        Every section starts after a full collection, as in a fresh
        process.  Without it, the collector's state left by the previous
        section made ``sharded-jobs2``'s warm hits alternate between
        about 0.9 s and 1.3 s.
        """
        gc.collect()
        if tracer is not None:
            tracer.install()
        start = time.monotonic()
        try:
            value = section()
        finally:
            intervals.append([start, time.monotonic()])
            if tracer is not None:
                tracer.uninstall()
        return value

    colds: List[List[float]] = []
    warms: List[List[float]] = []
    # Which fleet each section ran on, parallel to the intervals.
    record.update(cold_intervals=colds, warm_intervals=warms, cold_fleets=[],
                  warm_fleets=[])
    seeds = workload.seeds()
    digests: List[List[str]] = [[] for _ in seeds]
    events = [0] * len(seeds)
    years = [0.0] * len(seeds)
    for _ in range(workload.rounds):
        for fleet, seed in enumerate(seeds):
            dataset = None  # do not hold the previous section's result
            dataset = timed(lambda: workload.cold(seed), colds)
            record["cold_fleets"].append(fleet)
            digests[fleet].append(dataset.table.content_digest())
            events[fleet] = len(dataset)
            years[fleet] = dataset.exposure_years()
            for _ in range(workload.warm_repeats):
                output = timed(lambda: workload.warm(fleet), warms)
                record["warm_fleets"].append(fleet)
                workload.warm_outputs.append((fleet, workload.kept(output)))
                output = None  # one warm output in memory at a time
    record["timed_s"] = sum(end - start for start, end in colds + warms)
    record["peak_rss_mib"] = _peak_rss_mib()
    firsts = [runs[0] for runs in digests]
    for fleet, runs in enumerate(digests):
        for again in runs[1:]:
            ledger.same_digest("cold repeat", again, firsts[fleet])
    record["digest"] = firsts[0] if len(firsts) == 1 else hashlib.sha256(
        " ".join(firsts).encode("ascii")).hexdigest()
    record["events"] = sum(events)
    record["disk_years"] = sum(years)
    workload.gates(firsts, args.cross_check)
    if tracer is not None:
        layers = dict(tracer.values)
        layers.update(workload.sizes)
        layers["unattributed_s"] = record["timed_s"] - sum(
            value for name, value in tracer.values.items() if name.endswith("_s")
        )
        record["layers"] = layers


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cross-check", action="store_true")
    parser.add_argument("--break-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.scale is None:
        args.scale = WORKLOADS[args.workload]

    setup()
    record: Dict[str, object] = {"setup_interval": [args.spawned_at, time.monotonic()]}
    ledger = Ledger(break_digests=args.break_digests)
    status = 0
    if not args.setup_only:
        try:
            run(args, ledger, record)
        except Exception:
            traceback.print_exc()
            status = 1
    record.update(
        attempted=ledger.attempted, failed=ledger.failed, failures=ledger.failures
    )
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return status


if __name__ == "__main__":
    sys.exit(main())
