"""Capture hazard-backend differential goldens.

Records, per seed, the content digest of the paper-default injection
table plus text/data digests of the fig4a, fig9a, and fig10a
experiments, all at a fixed small scale, under the batched engine's key
``vector``.  The committed JSON pins the `analytic` hazard backend
byte-identical to the pre-backend-refactor output;
tests/test_hazard_goldens.py replays the same runs and compares.

Regenerate (only when a deliberate behavior change lands):

    PYTHONPATH=src python tools/capture_hazard_goldens.py
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

SEEDS = (101, 202, 303)
SCALE = 0.02
EXPERIMENTS = ("fig4a", "fig9a", "fig10a")
DEFAULT_OUT = Path(__file__).resolve().parent.parent / (
    "tests/goldens/hazard_backend_goldens.json"
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def capture() -> dict:
    from repro.experiments.base import ExperimentContext, run_experiment
    from repro.runconfig import RunConfig
    from repro.simulate.scenario import run_scenario

    goldens: dict = {
        "scale": SCALE,
        "seeds": list(SEEDS),
        "engines": {},
    }
    config = RunConfig()
    per_engine: dict = {"injection": {}, "experiments": {}}
    for seed in SEEDS:
        result = run_scenario("paper-default", scale=SCALE, seed=seed, config=config)
        table = result.injection.to_table()
        per_engine["injection"][str(seed)] = table.content_digest()
        per_seed: dict = {}
        context = ExperimentContext(scale=SCALE, seed=seed, config=config)
        for experiment_id in EXPERIMENTS:
            exp = run_experiment(experiment_id, context)
            per_seed[experiment_id] = {
                "text": _sha(exp.text),
                "data": _sha(json.dumps(exp.data, sort_keys=True)),
            }
        per_engine["experiments"][str(seed)] = per_seed
    goldens["engines"]["vector"] = per_engine
    return goldens


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    goldens = capture()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")
    print("wrote %s" % args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
