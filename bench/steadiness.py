"""Steadiness report for the benchmark.

    python3 bench/steadiness.py [--workloads sweep kappa channel] [--seeds 1 2 3 ...] [--trace]

Runs the benchmark command of ``BENCHMARK.json`` once per workload and seed,
one run at a time, and prints every run's result line.  Then, for each
workload and metric, it prints the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median against the
metric's bound: ``steady`` below a third of the bound, ``within`` below the
bound, ``WIDE`` above it.  The spread of ``setup_s`` is shown but not judged.

With ``--trace`` the runs are traced and the per-layer metrics are
summarised; counts that differ between runs of the same seed are flagged, so
``--seeds 1 1`` checks that a traced run repeats its counts exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNT_SUFFIXES = (".calls", ".iterations", ".newton_steps", ".cycles", ".stalled", ".work_d3", ".per_state")
RUN_TIMEOUT_S = 180


def run_once(spec: dict, workload: str, seed: int, trace: bool) -> dict:
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", "1" if trace else "0",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            result = run_once(spec, workload, seed, args.trace)
            print(json.dumps({"workload": workload, "seed": seed, **result}), flush=True)
            ok &= bool(result["correct"])
            results.append((seed, result))

        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound")
        for name in results[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in results]
            median, q1, q3, frac = spread(values)
            verdict = ""
            if name in bounds:
                bound = bounds[name]
                if name == "setup_s":
                    verdict = f"{bound:g} (spread not judged)"
                else:
                    verdict = f"{bound:g} " + ("steady" if frac < bound / 3 else "within" if frac <= bound else "WIDE")
                    ok &= frac <= bound
            if args.trace and name.endswith(COUNT_SUFFIXES):
                by_seed: dict[int, set] = {}
                for seed, r in results:
                    by_seed.setdefault(seed, set()).add(r["metrics"][name]["value"])
                if any(len(v) > 1 for v in by_seed.values()):
                    verdict = "NOT REPEATED for a seed"
                    ok = False
            print(f"  {name:36s} {median:12.6g} {q1:12.6g} {q3:12.6g} {frac:8.4f}  {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
