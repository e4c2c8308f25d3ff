# Developer entry points.

.PHONY: install test check lint lint-baseline bench-shard shard-smoke \
	experiments figures docs clean

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

# Full-scale sharded-vs-unsharded RSS + wall-time comparison; prints
# the pair and fails unless sharding lowers peak RSS (nightly CI runs
# this at scale 1.0 — see tools/bench_shard.py).  The benchmark proper
# is perfbench/ (see perfbench/README.md).
bench-shard:
	python tools/bench_shard.py --scale 1.0 --shards 4

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
	find . -name __pycache__ -type d -exec rm -rf {} +
