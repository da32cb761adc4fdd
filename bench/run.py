"""Benchmark runner for alphaneg.

    python3 bench/run.py --workload {sweep,kappa,channel} --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, and the run fails (exit code 2, no result) when it is missing.
BLAS is pinned to one thread before numpy is imported.

Set-up is timed ``SETUP_REPEATS`` times, each in a fresh interpreter that
imports the package (and with it numpy and scipy) and builds the workload's
seeded inputs and references; ``setup_s`` is the median.

``--trace 0`` times the public calls with tracing off: it runs the
workload's solves (see ``workloads.py``) in turn, closed loop, for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs
``TRACE_PAIRS`` rounds in which each solve runs untraced and then under
``tracer.Tracer``; it reports the per-layer metrics of the first traced round,
checks that the second repeats its counts and that traced outputs equal the
untraced ones bit for bit, and checks the layers each workload should (or
should not) exercise.  Every output is checked; a solve fails if it raises,
does not converge or gives a wrong value.

End-to-end metrics (tracing off).  A solve's time is the median of its
samples in the run, which damps the host's slow spells of a few seconds.  (The
fastest sample was tried too: fast spells are rare, so it spread more from run
to run than the median.)

* ``wall_s``: time for the workload's batch of solves, as the sum of the
  solves' times;
* ``solve_p50_s``: median of the solves' times (the report gives every
  sample and the sample counts);
* ``solve_max_s``: the slowest solve of the batch;
* ``setup_s``: median set-up time;
* ``peak_rss_mb``: peak resident memory of the process.

Failed over attempted solves (``fail_frac`` in the report) is carried by the
result's ``failed`` and ``attempted``; it is zero on a correct run, so it is
not a metric.  The per-layer metrics are described in ``tracer.py``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it is a report with per-solve times, failures and the
environment (Python, numpy, scipy, BLAS and its thread setting, nproc, git
commit).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracer  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
TRACE_PAIRS = 2

END_TO_END = (
    ("wall_s", "s"),
    ("solve_p50_s", "s"),
    ("solve_max_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Run in a fresh interpreter: prints the seconds taken to import the package
# and build the workload's inputs and references.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import alphaneg
import workloads
workloads.build({workload!r}, {seed!r})
print(time.perf_counter() - start)
"""


@dataclass
class Solve:
    label: str
    seconds: float
    values: tuple[float, ...]
    problems: list[str]


def import_package():
    """Import alphaneg, refusing a copy that is not the one under ``SRC``."""
    package = importlib.import_module("alphaneg")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"alphaneg was imported from {package.__file__}, not from {SRC}")
    return package


def setup_times(workload: str, seed: int) -> list[float]:
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), workload=workload, seed=seed)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_case(case: workloads.Case) -> Solve:
    start = time.perf_counter()
    try:
        out = case.solve()
    except Exception as exc:  # a raising solve is a failed solve, not a failed run
        seconds = time.perf_counter() - start
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return Solve(case.label, seconds, (), [f"raised {detail}"])
    seconds = time.perf_counter() - start
    values, problems = case.check(out)
    return Solve(case.label, seconds, tuple(float(v) for v in values), problems)


def timed_run(cases, seconds: float) -> list[list[Solve]]:
    """The cases in turn, closed loop, for ``seconds``; returns each case's
    solves.  Every case runs once; after that a solve starts only when the
    case's previous duration says it will end in time."""
    runs = [[] for _ in cases]
    start = time.perf_counter()
    started = True
    while started:
        started = False
        for case, solves in zip(cases, runs):
            if solves and time.perf_counter() - start + solves[-1].seconds > seconds:
                continue
            solves.append(run_case(case))
            started = True
    return runs


def end_to_end(runs, setup: list[float]) -> dict[str, float]:
    medians = [statistics.median(s.seconds for s in solves) for solves in runs]
    return {
        "wall_s": sum(medians),
        "solve_p50_s": statistics.median(medians),
        "solve_max_s": max(medians),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }


def counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if not k.endswith(("time_s", "ms_per_newton"))}


def traced_run(cases, workload: str):
    """``TRACE_PAIRS`` rounds of each solve untraced then traced, so that
    both sides see the machine alike; returns the untraced and traced solves,
    the per-layer metrics of the first traced round and the instrumentation
    problems found."""
    plain, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        tr = tracer.Tracer()
        for case in cases:
            plain.append(run_case(case))
            with tr:
                traced.append(run_case(case))
        tracers.append(tr)
    problems = [f"wrapper left installed at {where}" for tr in tracers for where in tr.leftovers()]
    for p, t in zip(plain, traced):
        if [v.hex() for v in p.values] != [v.hex() for v in t.values]:
            problems.append(f"{p.label}: traced values differ from untraced values")
    metrics = tracers[0].metrics()
    for tr in tracers[1:]:
        if counts(tr.metrics()) != counts(metrics):
            problems.append("a repeated traced round gave different counts")

    def fastest(solves):
        return sum(min(s.seconds for s in solves if s.label == c.label) for c in cases)

    metrics["trace.overhead_frac"] = fastest(traced) / fastest(plain) - 1.0
    for name in workloads.ACTIVE[workload]:
        if not metrics[name] > 0:
            problems.append(f"{name} is zero on {workload}")
    for name in workloads.IDLE[workload]:
        if metrics[name] != 0:
            problems.append(f"{name} is {metrics[name]} on {workload}, expected zero")
    return plain, traced, metrics, problems


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alphaneg" / "__init__.py").is_file():
        print(f"error: alphaneg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import_package()
    cases = workloads.build(args.workload, args.seed)
    setup = setup_times(args.workload, args.seed)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_times_s": setup,
    }
    if args.trace:
        plain, traced, layer_metrics, problems = traced_run(cases, args.workload)
        solves = plain + traced
        units = dict(tracer.METRICS)
        metrics = {name: {"value": layer_metrics[name], "unit": units[name]} for name, _ in tracer.METRICS}
        report["instrumentation_problems"] = problems
        report["solve_times_s"] = {"untraced": [s.seconds for s in plain], "traced": [s.seconds for s in traced]}
    else:
        runs = timed_run(cases, args.seconds)
        solves = [s for case_solves in runs for s in case_solves]
        problems = []
        values = end_to_end(runs, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report["solve_times_s"] = {c.label: [s.seconds for s in case_solves] for c, case_solves in zip(cases, runs)}
        report["samples"] = {c.label: len(case_solves) for c, case_solves in zip(cases, runs)}

    failed = sum(1 for s in solves if s.problems)
    report["solves"] = len(solves)
    report["fail_frac"] = failed / len(solves)
    report["failures"] = [f"{s.label}: {p}" for s in solves for p in s.problems]
    report["environment"] = environment()
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not problems,
                "attempted": len(solves),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
