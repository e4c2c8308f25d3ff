"""Command-line interface: run experiments, render reports, export logs.

Usage::

    repro list                          # experiments and scenarios
    repro run fig4b [--scale --seed]    # one experiment (or "all")
    repro run all --jobs 4              # fan out over worker processes
    repro run fig4a --shards 4          # sharded spill/merge simulation
    repro findings [--scale --seed]     # the Findings 1-11 scoreboard
    repro report [--scale --seed]       # overview + headline figures
    repro cache stats                   # result cache contents
    repro cache clear                   # drop every cached result
    repro simulate paper-default --out logs/   # export an AutoSupport
                                                # style log archive
    repro run all --trace t.jsonl --metrics m.prom   # traced run
    repro run fig4b --events e.jsonl    # record the fleet event stream
    repro obs summary t1.jsonl t2.jsonl # per-span timing table (merged)
    repro obs report --trace t.jsonl --events e.jsonl --out r.html
    repro obs snapshot --trace t.jsonl --out snap.json
    repro obs diff base.json snap.json --fail-on p95:50%

Experiment and findings runs route through :mod:`repro.runtime`: results
are memoized in a content-addressed on-disk cache (``--no-cache`` keeps
it memory-only, ``--cache-dir`` relocates it) and ``--jobs N`` executes
independent experiments on a process pool — with byte-identical output
to serial.  A runtime-metrics footer (job counts, cache hits,
simulations performed, latencies) is printed to stderr so stdout stays
stable across cache states and ``--jobs`` values.  ``--shards N`` (or
``$REPRO_SHARDS``) partitions the fleet into slices that simulate as
independent, individually cached jobs: each shard simulates its cell
subset and spills its event table to disk, and the merged result —
event table and fleet — is byte-identical to the unsharded run (see
docs/RUNTIME.md, "Sharded runs").

Observability (see docs/OBSERVABILITY.md): ``--trace FILE`` records a
JSONL span trace of the whole command, ``--metrics FILE`` writes a
Prometheus textfile merging the observer's series with the runtime's
counters, and ``--events FILE`` records the schema-versioned fleet
event stream (failures / repairs / rebuilds with their paper-facing
dimensions); ``$REPRO_TRACE`` / ``$REPRO_METRICS`` / ``$REPRO_EVENTS``
set the same defaults, and ``$REPRO_PROFILE=<span prefix>`` adds
per-span cProfile dumps.  ``repro obs`` post-processes those
artifacts: ``summary`` renders per-span count/total/p50/p95 tables
(multiple traces merge before percentiles), ``report`` produces one
self-contained HTML file, ``snapshot`` distills a run into committable
JSON, and ``diff`` compares two snapshots — with ``--fail-on p95:50%``
it exits non-zero on regression, which is the CI gate.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import obs
from repro.core.findings import evaluate_findings
from repro.core.report import class_overview, format_findings, format_overview
from repro.errors import ReproError
from repro.experiments import EXPERIMENTS
from repro.runconfig import RunConfig
from repro.simulate.scenario import SCENARIOS, run_scenario
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the FAST '08 storage subsystem "
        "failure study on a simulated fleet.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scenarios")

    run_cmd = sub.add_parser("run", help="run one experiment (or 'all')")
    run_cmd.add_argument("experiment", help="experiment id, or 'all'")
    _common(run_cmd)

    findings_cmd = sub.add_parser("findings", help="evaluate Findings 1-11")
    _common(findings_cmd)

    report_cmd = sub.add_parser("report", help="fleet overview report")
    _common(report_cmd)

    sim_cmd = sub.add_parser("simulate", help="export a log archive")
    sim_cmd.add_argument("scenario", choices=sorted(SCENARIOS))
    sim_cmd.add_argument("--out", required=True, help="output directory")
    _simulation_flags(sim_cmd)

    predict_cmd = sub.add_parser(
        "predict", help="train and evaluate a failure predictor"
    )
    predict_cmd.add_argument(
        "--horizon-days", type=float, default=14.0,
        help="prediction horizon (days)",
    )
    _simulation_flags(predict_cmd)

    export_cmd = sub.add_parser("export", help="export failure events to CSV")
    export_cmd.add_argument("--out", required=True, help="output CSV path")
    _common(export_cmd)

    plot_cmd = sub.add_parser(
        "plot", help="render Fig. 9 as an ASCII CDF plot"
    )
    plot_cmd.add_argument(
        "--scope", choices=("shelf", "raid_group"), default="shelf"
    )
    plot_cmd.add_argument("--width", type=int, default=72)
    _common(plot_cmd)

    doctor_cmd = sub.add_parser(
        "doctor", help="validate the calibration tables and a dataset"
    )
    _common(doctor_cmd)

    fit_cmd = sub.add_parser(
        "fit-hazards",
        help="fit interarrival distributions to a recorded failure trace",
    )
    fit_cmd.add_argument(
        "events",
        help="failure trace: an --events JSONL stream or an EventTable .npz",
    )
    fit_cmd.add_argument(
        "--alpha", type=float, default=0.01,
        help="KS-gate significance level for the re-simulated CDF check",
    )
    fit_cmd.add_argument(
        "--seed", type=int, default=0, help="re-simulation seed for the gate"
    )

    batch_cmd = sub.add_parser(
        "batch", help="multi-seed run: headline metrics with seed spread"
    )
    batch_cmd.add_argument(
        "--seeds", default="1,2,3", help="comma-separated seeds"
    )
    _common(batch_cmd)

    cache_cmd = sub.add_parser(
        "cache", help="inspect or clear the result cache"
    )
    cache_cmd.add_argument("action", choices=("stats", "clear"))
    _cache_dir_option(cache_cmd)
    _obs_flags(cache_cmd)

    obs_cmd = sub.add_parser(
        "obs",
        help="inspect recorded runs: summaries, HTML reports, regression "
        "diffs (see docs/OBSERVABILITY.md)",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_action", required=True)

    summary_cmd = obs_sub.add_parser(
        "summary", help="per-span timing table from one or more traces"
    )
    summary_cmd.add_argument(
        "trace_file", nargs="+",
        help="JSONL trace(s) written by --trace; several files merge "
        "before percentile computation",
    )
    summary_cmd.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="Prometheus textfile to scan for label-overflow warnings",
    )

    report_cmd = obs_sub.add_parser(
        "report", help="render trace + metrics + events as one HTML file"
    )
    report_cmd.add_argument("--trace", default=None, metavar="FILE",
                            help="JSONL span trace")
    report_cmd.add_argument("--metrics", default=None, metavar="FILE",
                            help="Prometheus textfile")
    report_cmd.add_argument("--events", default=None, metavar="FILE",
                            help="fleet event stream (from --events)")
    report_cmd.add_argument("--out", required=True, metavar="FILE",
                            help="output HTML path")
    report_cmd.add_argument("--title", default="repro run report")

    diff_cmd = obs_sub.add_parser(
        "diff", help="compare two run snapshots (or raw traces)"
    )
    diff_cmd.add_argument("base", help="baseline snapshot .json or trace .jsonl")
    diff_cmd.add_argument("candidate", help="candidate snapshot or trace")
    diff_cmd.add_argument(
        "--fail-on", default=None, metavar="STAT:PCT%",
        help="exit non-zero when any span's STAT (mean/p50/p95/max/"
        "total/count) grew more than PCT%% (e.g. p95:50%%)",
    )
    diff_cmd.add_argument(
        "--min-seconds", type=float, default=None, metavar="S",
        help="ignore spans whose baseline stat is under S seconds "
        "(default 0.001; scheduler noise dominates below that)",
    )

    snapshot_cmd = obs_sub.add_parser(
        "snapshot", help="distill trace + metrics into a diffable snapshot"
    )
    snapshot_cmd.add_argument("--trace", default=None, metavar="FILE",
                              help="JSONL span trace")
    snapshot_cmd.add_argument("--metrics", default=None, metavar="FILE",
                              help="Prometheus textfile")
    snapshot_cmd.add_argument("--out", required=True, metavar="FILE",
                              help="output snapshot .json path")
    snapshot_cmd.add_argument("--label", default=None,
                              help="label recorded in the snapshot")

    watch_cmd = obs_sub.add_parser(
        "watch",
        help="live TTY status of a monitored run (heartbeat directory)",
    )
    watch_cmd.add_argument("--dir", dest="status_dir", default=None,
                           metavar="DIR",
                           help="heartbeat directory (default: "
                                "$REPRO_STATUS_DIR)")
    watch_cmd.add_argument("--interval", type=float, default=None,
                           metavar="SECONDS",
                           help="refresh period (default: the run's "
                                "$REPRO_SAMPLE_INTERVAL)")
    watch_cmd.add_argument("--once", action="store_true",
                           help="print one snapshot and exit")
    watch_cmd.add_argument("--json", dest="as_json", action="store_true",
                           help="emit the raw /status JSON payload instead "
                                "of the table")

    serve_cmd = obs_sub.add_parser(
        "serve",
        help="HTTP run monitor: /status JSON + /metrics Prometheus textfile",
    )
    serve_cmd.add_argument("--dir", dest="status_dir", default=None,
                           metavar="DIR",
                           help="heartbeat directory (default: "
                                "$REPRO_STATUS_DIR)")
    serve_cmd.add_argument("--port", type=int, default=None,
                           help="TCP port (default: $REPRO_MONITOR_PORT "
                                "or 8765; 0 picks a free port)")
    serve_cmd.add_argument("--host", default="127.0.0.1",
                           help="bind address (default: 127.0.0.1)")
    serve_cmd.add_argument("--metrics", default=None, metavar="FILE",
                           help="Prometheus textfile served at /metrics "
                                "(default: $REPRO_METRICS)")
    return parser


def _simulation_flags(cmd: argparse.ArgumentParser) -> None:
    """What one direct simulation takes: scale, seed, backend, obs."""
    cmd.add_argument("--scale", type=float, default=0.05,
                     help="fleet scale vs the paper's 39,000 systems")
    cmd.add_argument("--seed", type=int, default=1, help="root random seed")
    cmd.add_argument(
        "--hazard-backend", default=None, metavar="SPEC",
        help="hazard backend: analytic, trace:<events>, or fitted:<events> "
        "(default: $REPRO_HAZARD_BACKEND or analytic)",
    )
    _obs_flags(cmd)


def _common(cmd: argparse.ArgumentParser) -> None:
    """Simulation flags plus the runtime's: logs, jobs, shards, cache."""
    _simulation_flags(cmd)
    cmd.add_argument(
        "--via-logs",
        action="store_true",
        help="route the dataset through the AutoSupport log pipeline",
    )
    cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes (1 = serial; results are identical)",
    )
    cmd.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition each simulation into N spill-to-disk shards "
        "merged byte-identically (default: $REPRO_SHARDS or 1; pair "
        "with --jobs to run shards in parallel)",
    )
    cmd.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the on-disk result cache (results are still shared "
        "in memory within this run)",
    )
    _cache_dir_option(cmd)


def _cache_dir_option(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="result cache directory "
        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )


def _obs_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a JSONL span trace of this command "
        "(default: $REPRO_TRACE)",
    )
    cmd.add_argument(
        "--metrics", default=None, metavar="FILE",
        help="write a Prometheus textfile of counters/histograms "
        "(default: $REPRO_METRICS)",
    )
    cmd.add_argument(
        "--events", default=None, metavar="FILE",
        help="record the fleet event stream (failures/repairs/rebuilds) "
        "as JSONL (default: $REPRO_EVENTS)",
    )


def _runtime(args: argparse.Namespace):
    """Build the runtime context a command's flags describe."""
    from repro.runtime import RuntimeConfig, RuntimeContext

    return RuntimeContext(
        RuntimeConfig(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_persist=not args.no_cache,
        )
    )


def _shards(args: argparse.Namespace) -> int:
    """The effective shard count: ``--shards``, else ``$REPRO_SHARDS``."""
    from repro import envvars

    if getattr(args, "shards", None) is not None:
        return int(args.shards)
    return envvars.get_int("REPRO_SHARDS", 1)


def _print_metrics(runtime) -> None:
    """The runtime-metrics footer; on stderr so stdout stays stable."""
    print(runtime.metrics.report(), file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    sampler = None
    if args.command not in ("obs", "fit-hazards"):
        # ``repro obs`` and ``repro fit-hazards`` *read* trace/metrics/
        # events files named with the same flags; configuring the
        # observer from them would clobber those inputs on export.
        obs.configure(
            trace=getattr(args, "trace", None),
            metrics=getattr(args, "metrics", None),
            events=getattr(args, "events", None),
        )
        sampler = _start_sampler(args.command)
    try:
        with obs.span("cli.%s" % args.command):
            return _dispatch(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        if sampler is not None:
            sampler.stop()
        for kind, path in sorted(obs.export().items()):
            print("obs: wrote %s to %s" % (kind, path), file=sys.stderr)


def _start_sampler(command: str):
    """Start the resource sampler for a data command, when warranted.

    Runs whenever the observer is enabled (the timeline folds into the
    metrics export) or ``$REPRO_STATUS_DIR`` asks for live heartbeats;
    stays completely off — no thread, no counters — otherwise.
    """
    from repro.obs.sampler import PROGRESS, ResourceSampler, status_directory

    status_dir = status_directory()
    if not (obs.OBSERVER.enabled or status_dir):
        return None
    PROGRESS.configure(directory=status_dir, role="driver", command=command)
    return ResourceSampler(
        registry=obs.OBSERVER.registry, directory=status_dir
    ).start()


def _dispatch(args: argparse.Namespace) -> int:
    # The run's hazard backend, resolved once: the flag,
    # then $REPRO_*, then the defaults; every job and worker carries it.
    config = RunConfig.from_env(
        hazard_backend=getattr(args, "hazard_backend", None)
    )
    if args.command == "list":
        print("experiments:")
        for experiment_id, (title, _runner) in sorted(EXPERIMENTS.items()):
            print("  %-16s %s" % (experiment_id, title))
        print("scenarios:")
        for name, scenario in sorted(SCENARIOS.items()):
            print("  %-16s %s" % (name, scenario.description))
        return 0

    if args.command == "run":
        from repro.errors import SpecificationError
        from repro.runtime import Job, Scheduler

        ids = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
        for experiment_id in ids:
            if experiment_id not in EXPERIMENTS:
                raise SpecificationError(
                    "unknown experiment %r (have: %s)"
                    % (experiment_id, ", ".join(sorted(EXPERIMENTS)))
                )
        runtime = _runtime(args)
        results = Scheduler(runtime).run(
            [
                Job.experiment(
                    experiment_id,
                    scale=args.scale,
                    seed=args.seed,
                    via_logs=args.via_logs,
                    shards=_shards(args),
                    config=config,
                )
                for experiment_id in ids
            ]
        )
        all_passed = True
        for experiment_id, result in zip(ids, results):
            print(result.text)
            verdict = "PASS" if result.passed else "FAIL"
            print(
                "[%s] %s: %d/%d checks"
                % (
                    verdict,
                    experiment_id,
                    sum(result.checks.values()),
                    len(result.checks),
                )
            )
            if not result.passed:
                print("  failed: %s" % ", ".join(result.failed_checks()))
                all_passed = False
            print()
        _print_metrics(runtime)
        return 0 if all_passed else 1

    if args.command == "findings":
        runtime = _runtime(args)
        dataset = _dataset(args, config, runtime)
        findings = evaluate_findings(dataset)
        print(format_findings(findings))
        _print_metrics(runtime)
        return 0 if all(f.passed for f in findings) else 1

    if args.command == "report":
        dataset = _dataset(args, config)
        print(format_overview(class_overview(dataset)))
        print()
        from repro.core.breakdown import afr_by_class
        from repro.core.report import format_breakdown

        print(
            format_breakdown(
                "AFR by class (excluding the problematic disk family)",
                afr_by_class(dataset, exclude_problematic_family=True),
            )
        )
        return 0

    if args.command == "simulate":
        result = run_scenario(
            args.scenario,
            scale=args.scale,
            seed=args.seed,
            via_logs=True,
            config=config,
        )
        assert result.archive is not None  # via_logs=True guarantees it
        result.archive.save_to(args.out)
        print(
            "wrote %d system logs (%d lines) + snapshot to %s"
            % (len(result.archive.logs), result.archive.total_lines(), args.out)
        )
        return 0

    if args.command == "predict":
        from repro.predict import PredictorConfig, train_failure_predictor

        result = run_scenario(
            "paper-default", scale=args.scale, seed=args.seed, config=config
        )
        _model, report = train_failure_predictor(
            result.injection,
            PredictorConfig(horizon_days=args.horizon_days),
        )
        print(report.summary())
        return 0

    if args.command == "export":
        from repro.core.export import events_to_csv

        dataset = _dataset(args, config)
        with open(args.out, "w") as handle:
            handle.write(events_to_csv(dataset))
        print("wrote %d events to %s" % (len(dataset.events), args.out))
        return 0

    if args.command == "plot":
        from repro.core.plots import figure9_ascii

        dataset = _dataset(args, config)
        print(figure9_ascii(dataset, args.scope, width=args.width))
        return 0

    if args.command == "doctor":
        from repro.core.validate import doctor

        report = doctor(_dataset(args, config))
        print(report)
        return 0 if "no issues" in report else 1

    if args.command == "batch":
        from repro.core.afr import dataset_afr
        from repro.core.timebetween import analyze_gaps
        from repro.failures.types import FailureType
        from repro.simulate.batch import batch_run

        seeds = tuple(int(seed) for seed in args.seeds.split(","))
        spreads = batch_run(
            {
                "subsystem_afr_pct": lambda ds: dataset_afr(ds).percent,
                "disk_afr_pct": lambda ds: dataset_afr(
                    ds, FailureType.DISK
                ).percent,
                "shelf_burst_fraction": lambda ds: analyze_gaps(
                    ds, "shelf", None
                ).burst_fraction,
            },
            scale=args.scale,
            seeds=seeds,
            runtime=_runtime(args),
            config=config,
        )
        print("Seed spread over seeds %s (scale %.3f):" % (seeds, args.scale))
        for spread in spreads.values():
            print(
                "  %-22s %.4g +/- %.2g  (rel %.1f%%)"
                % (
                    spread.name,
                    spread.mean,
                    spread.std,
                    100.0 * spread.relative_std,
                )
            )
        return 0

    if args.command == "fit-hazards":
        return _dispatch_fit_hazards(args)

    if args.command == "obs":
        return _dispatch_obs(args)

    if args.command == "cache":
        from repro.runtime import ResultCache

        cache = ResultCache(directory=args.cache_dir)
        if args.action == "clear":
            removed = cache.clear()
            print(
                "removed %d cached result(s) from %s"
                % (removed, cache.directory)
            )
            return 0
        stats = cache.stats()
        print("cache directory: %s" % stats.directory)
        print("entries:         %d" % stats.entries)
        print("size:            %.1f KiB" % (stats.size_bytes / 1024.0))
        return 0

    raise AssertionError("unreachable command %r" % args.command)


def _dispatch_fit_hazards(args: argparse.Namespace) -> int:
    from repro.failures.backends.fitted import FittedBackend
    from repro.failures.types import ALL_FAILURE_TYPES

    backend = FittedBackend(args.events)
    print("fit-hazards: %s" % args.events)
    failed = False
    for failure_type in ALL_FAILURE_TYPES:
        key = failure_type.value
        gaps = backend.gaps.get(key)
        if gaps is None:
            continue
        print("%s: %d interarrival gap(s)" % (failure_type.label, gaps.size))
        fit = backend.fits.get(key)
        if fit is not None:
            params = ", ".join(
                "%s=%.6g" % (name, value)
                for name, value in sorted(fit.params.items())
            )
            print(
                "  best fit: %s (%s)  loglik=%.2f  aic=%.2f"
                % (fit.name, params, fit.log_likelihood, fit.aic)
            )
            gate = backend.ks_gate(
                failure_type, alpha=args.alpha, seed=args.seed
            )
            verdict = "PASS" if gate.passed else "FAIL"
            print(
                "  KS gate: %s  D=%.4f  p=%.4g  (alpha=%g)"
                % (verdict, gate.statistic, gate.p_value, gate.alpha)
            )
            failed = failed or not gate.passed
        for error in backend.fit_errors.get(key, ()):
            print("  no %s fit: %s" % (error.name, error.reason))
    return 1 if failed else 0


def _dispatch_obs(args: argparse.Namespace) -> int:
    from repro.errors import SpecificationError

    def warn(message: str) -> None:
        print("warning: %s" % message, file=sys.stderr)

    if args.obs_action == "summary":
        try:
            events = obs.read_traces(args.trace_file, strict=False, warn=warn)
        except OSError as exc:
            raise SpecificationError("cannot read trace: %s" % exc) from exc
        title = "trace summary: %s" % ", ".join(args.trace_file)
        print(obs.render_trace_summary(events, title=title))
        if args.metrics:
            try:
                metrics = obs.load_metrics(args.metrics)
            except OSError as exc:
                raise SpecificationError(
                    "cannot read metrics %r: %s" % (args.metrics, exc)
                ) from exc
            for key, value in sorted(metrics["counters"].items()):
                name, labels = _split_metric_key(key)
                if name.endswith(obs.LABELS_DROPPED.replace(".", "_")):
                    warn(
                        "metric %s overflowed the label-set cap; %d "
                        "increment(s) collapsed into the overflow series"
                        % (labels.get("metric", "?"), int(value))
                    )
        return 0

    if args.obs_action == "report":
        from repro.obs.report import render_report, write_report

        if not (args.trace or args.metrics or args.events):
            raise SpecificationError(
                "obs report needs at least one of --trace/--metrics/--events"
            )
        try:
            trace_events = (
                obs.read_traces([args.trace], strict=False, warn=warn)
                if args.trace else None
            )
            metrics = obs.load_metrics(args.metrics) if args.metrics else None
            fleet_events = (
                obs.read_events(args.events, strict=False, warn=warn)
                if args.events else None
            )
        except (OSError, ValueError) as exc:
            raise SpecificationError("cannot read input: %s" % exc) from exc
        sources = [p for p in (args.trace, args.metrics, args.events) if p]
        html_text = render_report(
            trace_events=trace_events,
            metrics=metrics,
            fleet_events=fleet_events,
            title=args.title,
            subtitle=" + ".join(sources),
        )
        write_report(args.out, html_text)
        print("wrote report to %s" % args.out)
        return 0

    if args.obs_action == "snapshot":
        from repro.obs.diff import build_snapshot, write_snapshot

        if not (args.trace or args.metrics):
            raise SpecificationError(
                "obs snapshot needs at least one of --trace/--metrics"
            )
        try:
            snapshot = build_snapshot(
                trace_path=args.trace,
                metrics_path=args.metrics,
                label=args.label,
            )
        except (OSError, ValueError) as exc:
            raise SpecificationError("cannot read input: %s" % exc) from exc
        write_snapshot(args.out, snapshot)
        print(
            "wrote snapshot (%d spans, %d counters) to %s"
            % (len(snapshot["spans"]), len(snapshot["counters"]), args.out)
        )
        return 0

    if args.obs_action == "diff":
        from repro.obs.diff import (
            DEFAULT_MIN_SECONDS,
            diff_snapshots,
            load_snapshot,
            parse_fail_on,
            render_diff,
        )

        try:
            fail_on = parse_fail_on(args.fail_on) if args.fail_on else None
        except ValueError as exc:
            raise SpecificationError(str(exc)) from exc
        try:
            base = load_snapshot(args.base)
            candidate = load_snapshot(args.candidate)
        except (OSError, ValueError) as exc:
            raise SpecificationError("cannot load snapshot: %s" % exc) from exc
        min_seconds = (
            args.min_seconds if args.min_seconds is not None
            else DEFAULT_MIN_SECONDS
        )
        result = diff_snapshots(
            base, candidate, fail_on=fail_on, min_seconds=min_seconds
        )
        print(
            render_diff(
                result,
                base_label=str(base.get("label") or args.base),
                new_label=str(candidate.get("label") or args.candidate),
            )
        )
        return 1 if result.failed else 0

    if args.obs_action in ("watch", "serve"):
        from repro import envvars
        from repro.obs.sampler import sample_interval, status_directory

        status_dir = args.status_dir or status_directory()
        if not status_dir:
            raise SpecificationError(
                "obs %s needs --dir or $REPRO_STATUS_DIR (point it at the "
                "run's heartbeat directory)" % args.obs_action
            )
        if args.obs_action == "watch":
            from repro.obs.monitor import watch

            interval = (
                args.interval if args.interval is not None
                else max(0.2, sample_interval())
            )
            return watch(
                status_dir,
                interval=interval,
                once=args.once,
                as_json=args.as_json,
            )
        from repro.obs.monitor import DEFAULT_PORT, ENV_MONITOR_PORT, make_server

        port = (
            args.port if args.port is not None
            else envvars.get_int(ENV_MONITOR_PORT, DEFAULT_PORT)
        )
        metrics_path = args.metrics or envvars.get(obs.ENV_METRICS)
        server = make_server(
            status_dir, port=port, metrics_path=metrics_path, host=args.host
        )
        host, bound_port = server.server_address[:2]
        print(
            "serving run monitor on http://%s:%d (endpoints: /status, "
            "/metrics; Ctrl-C to stop)" % (host, bound_port),
            file=sys.stderr,
        )
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.server_close()
        return 0

    raise AssertionError("unreachable obs action %r" % args.obs_action)


def _split_metric_key(key: str) -> tuple:
    """Split a flattened ``name{k=v,...}`` metric key into name + labels."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels = {}
    for part in rest.rstrip("}").split(","):
        if part:
            label, _, value = part.partition("=")
            labels[label] = value
    return name, labels


def _dataset(args: argparse.Namespace, config: RunConfig, runtime=None):
    if runtime is None:
        runtime = _runtime(args)
    return runtime.run_scenario(
        "paper-default",
        scale=args.scale,
        seed=args.seed,
        via_logs=args.via_logs,
        shards=_shards(args),
        config=config,
    ).dataset


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
