"""Steadiness check: run workloads repeatedly and compare spreads to bounds.

For each workload it makes two sets of ten runs of ``run_seconds`` from
``BENCHMARK.json``.  For every end-to-end metric it prints, per set, the
median over the runs and the spread, the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound; then how far the second median moved
from the first.  Any metric whose spread or drift exceeds its bound is named,
``setup_s`` first, and the exit code is then 1.

    python3 perfbench/steady.py --workload paper [--workload replay ...]

Runs are made one at a time, each in a fresh process, with seeds 1, 2, ...
(the second set continues where the first stopped).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: float) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}): {' '.join(command)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"incorrect result for seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance as a share of the median)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    over: list[tuple[str, str, str]] = []
    records = {}
    for workload in args.workload:
        sets = []
        seed = 1
        for _ in range(SETS):
            runs = []
            for _ in range(RUNS):
                runs.append(run_once(workload, seed, seconds))
                print(f"{workload} seed {seed}: {runs[-1]}", file=sys.stderr, flush=True)
                seed += 1
            sets.append(runs)
        records[workload] = sets
        for name, m in metrics.items():
            per_set = [spread([r[name] for r in runs]) for runs in sets]
            line = f"{workload:10s} {name:12s} bound {m['bound']:.3f}"
            for i, (median, share) in enumerate(per_set, start=1):
                line += f" | set {i}: median {median:.6g} {m['unit']} spread {share:.4f}"
                if share > m["bound"]:
                    over.append((name, workload, f"set {i} spread {share:.4f}"))
                if share > m["bound"] / 3:
                    line += " (over a third of the bound)"
            drift = worse_by(per_set[0][0], per_set[1][0], m["better"])
            line += f" | second median worse by {drift:.4f}"
            if drift > m["bound"]:
                over.append((name, workload, f"second median worse by {drift:.4f}"))
            print(line)
    over.sort(key=lambda item: item[0] != "setup_s")
    for name, workload, what in over:
        print(f"OVER BOUND: {name} on {workload}: {what}")
    print(json.dumps({"seconds": seconds, "runs": records}))
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
