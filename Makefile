# Developer entry points.

.PHONY: install test check lint lint-baseline bench bench-seed bench-shard \
	shard-smoke experiments figures docs clean

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src python -m pytest tests/

# CI gate: byte-compile the whole tree, then the tier-1 test suite.
check:
	python -m compileall -q src
	PYTHONPATH=src python -m pytest -x -q

# Lint gate: style (ruff or the bundled fallback) + invariants
# (reprolint per-file rules, RPL007 among them, then the whole-program
# RPL102-RPL103 pass — see docs/LINTING.md).
lint:
	python tools/lint.py

# Deliberately regenerate the grandfathered-findings baseline
# (tools/reprolint_baseline.json); review the diff before committing.
lint-baseline:
	PYTHONPATH=src python -m repro.lintkit --write-baseline

# Full benchmark sweep; consolidates the raw pytest-benchmark dump into
# the trimmed BENCH_ALL.json at the repo root (see tools/bench_report.py).
bench:
	PYTHONPATH=src python -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=.bench_raw.json
	python tools/bench_report.py .bench_raw.json --out BENCH_ALL.json

# Refresh the committed per-subsystem baselines (runtime + obs +
# analysis + simulation).
bench-seed:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_runtime.py \
		--benchmark-only --benchmark-json=.bench_runtime_raw.json
	python tools/bench_report.py .bench_runtime_raw.json --out BENCH_RUNTIME.json
	PYTHONPATH=src python -m pytest benchmarks/test_bench_obs.py \
		--benchmark-only --benchmark-json=.bench_obs_raw.json
	python tools/bench_report.py .bench_obs_raw.json --out BENCH_OBS.json
	PYTHONPATH=src python -m pytest benchmarks/test_bench_analysis.py \
		--benchmark-only --benchmark-json=.bench_analysis_raw.json
	python tools/bench_report.py .bench_analysis_raw.json --out BENCH_ANALYSIS.json
	PYTHONPATH=src python -m pytest benchmarks/test_bench_simulate.py \
		--benchmark-only --benchmark-json=.bench_simulate_raw.json
	python tools/bench_report.py .bench_simulate_raw.json --out BENCH_SIMULATE.json

# Full-scale sharded-vs-unsharded RSS + wall-time comparison; appends
# to the committed BENCH_SHARD.json trajectory (nightly CI runs this
# at scale 1.0 — see tools/bench_shard.py).
bench-shard:
	python tools/bench_shard.py --shards 4 --out BENCH_SHARD.json

# CI shard gate: 4-shard spill/merge run must be byte-identical to the
# unsharded table; writes shard-merge-report.json.
shard-smoke:
	PYTHONPATH=src python tools/shard_smoke.py \
		--scale 0.05 --shards 4

# Run every registered experiment (tables, figures, ablations) with checks.
experiments:
	python -m repro run all

# Regenerate EXPERIMENTS.md with fresh measured numbers, plus the
# environment-variable table generated from repro/envvars.py.
docs:
	python tools/generate_experiments_md.py
	PYTHONPATH=src python -c \
		'import repro.envvars as e; print(e.render_docs(), end="")' \
		> docs/ENVIRONMENT.md

# Export every figure's data series as CSV into figures/.
figures:
	python tools/export_figures.py --out figures

clean:
	rm -rf figures .pytest_cache .hypothesis
	rm -f .bench_raw.json .bench_runtime_raw.json .bench_obs_raw.json \
		.bench_analysis_raw.json .bench_simulate_raw.json
	find . -name __pycache__ -type d -exec rm -rf {} +
