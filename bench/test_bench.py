"""Tests of the benchmark itself: pinned work counts of the seed-0 inputs, the
output checks, and the tracer's installation, removal and neutrality.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from alphaneg import pptgeom, resource, solver, states  # noqa: E402

FAST = dataclasses.replace(solver.DEFAULT_CONFIG, with_bracket=False)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.METRICS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.BUILDERS)


@pytest.mark.parametrize(
    "label, alpha, iterations",
    [("2x3", 2.0, 50), ("3x3", 2.0, 165), ("3x4", 2.0, 63), ("3x3", 5.0, 328)],
)
def test_pg_iterations_of_seed0_hard_states(label, alpha, iterations):
    rho = dict(workloads.sweep_states(((2, 3), (3, 3), (3, 4))))[label]
    assert solver.e_alpha(rho, alpha, FAST).iterations == iterations


def test_newton_steps_of_seed0_kappa_state():
    rho = dict(workloads.kappa_states(0))["4x4"]
    assert solver.e_kappa(rho).iterations == 148


def test_checks_reject_wrong_outputs():
    kappa = workloads.build("kappa", 0)[0]
    expected = workloads.load_reference()["kappa"][kappa.label]
    good = solver.MeasureResult(expected, math.inf, None, 148, True, (0.0, expected))
    assert kappa.check(good)[1] == []
    assert kappa.check(dataclasses.replace(good, value_bits=expected + 1e-6))[1]
    assert kappa.check(dataclasses.replace(good, converged=False))[1]

    channel = workloads.build("channel", 3)[0]  # d=2, p=1: value 1 bit
    assert channel.check(1.0)[1] == []
    assert channel.check(1.0 - 2 * workloads.CHANNEL_TOL)[1]


def test_tracer_wraps_every_binding_and_removes_them():
    originals = {layer: getattr(sys.modules[mod], attr) for layer, mod, attr in tracer.FUNCTION_LAYERS}
    post_init = states.BipartiteState.__post_init__
    with tracer.Tracer() as tr:
        bound = {(owner, attr) for owner, attr, _ in tr.bindings}
        for place in [
            ("alphaneg.pptgeom", "psd_project"),
            ("alphaneg.solver", "check_hermitian"),
            ("alphaneg.resource", "_pg_core"),
            ("alphaneg.resource", "_kappa_core"),
            ("alphaneg.states", "partial_transpose"),
            ("BipartiteState", "__post_init__"),
            ("numpy.linalg", "eigh"),
            ("alphaneg.channels", "optimize"),
        ]:
            assert place in bound
        for module in tracer._package_modules():
            for value in vars(module).values():
                assert not any(value is original for original in originals.values())
        assert tr.leftovers()
    assert tr.leftovers() == []
    assert pptgeom.psd_project is originals["linalg.psd_project"]
    assert resource._kappa_core is originals["solver.kappa"]
    assert states.BipartiteState.__post_init__ is post_init


def test_traced_batch_is_bit_identical_and_repeats_its_counts():
    case = workloads.build("sweep", 0)[0]  # the 2x3 hard state
    plain = run.run_case(case)
    counts = []
    for _ in range(2):
        with tracer.Tracer() as tr:
            traced = run.run_case(case)
        assert plain.problems == [] and traced.problems == []
        assert [v.hex() for v in traced.values] == [v.hex() for v in plain.values]
        metrics = tr.metrics()
        for name in workloads.ACTIVE["sweep"]:
            assert metrics[name] > 0, name
        counts.append(run.counts(metrics))
    assert counts[0] == counts[1]
    assert counts[0]["solver.kappa.per_state"] == 5.0


def test_setup_is_timed_in_fresh_interpreters():
    times = run.setup_times("kappa", 0)
    assert len(times) == run.SETUP_REPEATS
    assert all(t > 0 for t in times)


def test_runner_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kappa", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
