"""Toy-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, at fleet scale 0.02 (seconds per workload):

- ``layers.json`` and the ``per_layer`` list of ``BENCHMARK.json`` name
  the same metrics with the same units;
- for every workload, the untraced run emits exactly the end-to-end
  metrics and the traced run exactly the per-layer metrics, each a
  number with its declared unit, with no failed operation;
- a forced digest mismatch raises ``ops_failed_ratio`` above 0, clears
  ``correct`` and exits 1;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``,
  the benchmark exits non-zero without printing a result.

Exits 0 when every check holds and prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TOY_SCALE = "0.02"


def run_bench(workload: str, trace: int, *extra: str, cwd: str = ROOT) -> Tuple[int, Optional[dict], str]:
    """Run the benchmark; returns (exit status, final JSON or None, stdout)."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace), "--scale", TOY_SCALE, *extra,
        ],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout


def check_result(label: str, result: Optional[dict], declared: List[dict]) -> List[str]:
    if result is None:
        return ["%s: no JSON result line" % label]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("%s: correct=%s failed=%s" % (
            label, result.get("correct"), result.get("failed")))
    metrics = result.get("metrics", {})
    names = [metric["name"] for metric in declared]
    if sorted(metrics) != sorted(names):
        problems.append("%s: metrics %s, declared %s" % (label, sorted(metrics), sorted(names)))
    for metric in declared:
        got = metrics.get(metric["name"], {})
        if got.get("unit") != metric["unit"]:
            problems.append("%s: %s unit %r, declared %r" % (
                label, metric["name"], got.get("unit"), metric["unit"]))
        if not isinstance(got.get("value"), (int, float)):
            problems.append("%s: %s value %r" % (label, metric["name"], got.get("value")))
        elif "bound" in metric and got["value"] == 0:
            problems.append("%s: end-to-end %s is 0" % (label, metric["name"]))
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        bench = json.load(handle)
    with open(os.path.join(HERE, "layers.json"), "r", encoding="utf-8") as handle:
        layers = json.load(handle)["layers"]
    problems = []

    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    mapped = [(m["name"], m["unit"], m["better"]) for m in layers]
    if declared != mapped:
        problems.append("BENCHMARK.json per_layer differs from layers.json")

    for workload in (w["name"] for w in bench["workloads"]):
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            status, result, _ = run_bench(workload, trace)
            label = "%s trace=%d" % (workload, trace)
            if status != 0:
                problems.append("%s: exit %d" % (label, status))
            problems += check_result(label, result, metrics)
            print("checked %s" % label, flush=True)

    status, result, stdout = run_bench("log-roundtrip", 0, "--break-digests")
    ratio_lines = [line for line in stdout.splitlines() if line.startswith("ops_failed_ratio")]
    ratio = float(ratio_lines[0].split()[1]) if ratio_lines else 0.0
    if status != 1 or result is None or result["correct"] or not result["failed"] or ratio <= 0:
        problems.append(
            "forced digest mismatch: exit %d, result %r, ops_failed_ratio %g"
            % (status, result, ratio)
        )
    print("checked forced digest mismatch (ops_failed_ratio %g)" % ratio, flush=True)

    work_base = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="selftest-", dir=work_base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        status, result, _ = run_bench("log-roundtrip", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(work_base)
        except OSError:
            pass  # a benchmark run still uses it
    if status == 0 or result is not None:
        problems.append("bare directory: exit %d, result %r" % (status, result))
    print("checked bare directory (exit %d)" % status, flush=True)

    for problem in problems:
        print("FAIL %s" % problem)
    print("selftest: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
