"""Seeded inputs, solve calls and output checks of the benchmark workloads.

Each workload is a fixed batch of cases run as a closed loop: a solve starts
when the previous one has returned.

* ``sweep``: ``alpha_sweep(rho, [1, 1.5, 2, 5, inf])`` with ``DEFAULT_CONFIG``
  (bracket on) on hard NPT states at 2x3 and 3x3.  This is the user path of
  the CLI ``sweep``/``compute`` commands; it is projected-gradient and
  Dykstra heavy and re-solves the kappa SDP for every order.
* ``kappa``: ``e_kappa`` on rank-3 random states at 4x4 and 3x5.  Only the
  barrier Newton step runs; PG, Dykstra and ``psd_project`` do not.
* ``channel``: ``channel_e_alpha`` on Werner-Holevo channels with 4 restarts
  and the bracket off, as ``repro werner-holevo`` runs it.  Over a thousand
  tiny two-qubit solves per search put per-call overhead and input
  validation in front, and it is the only workload that reaches ``channels``.

The 3x4 sweep (about 9 s) and the 4x5 kappa solve (about 10 s) are left out:
a run times each solve by the median of its samples, and solves that long get
too few samples in a run to damp the host's slow spells.  The channel search at
(d=2, p=0.25, order 2) is left out too: its output is PPT, so it reaches no
layer the other two searches miss, and its many quick samples left the d=3
search too few samples of its own.

Seed 0 gives the baseline inputs: the hard states are the first states from
generator seed 1 that are NPT and fail binegativity, the kappa states come
from generator seed 11.  For ``kappa`` and ``channel`` any other seed
conjugates every input by Haar-random local unitaries drawn from that seed
(for a channel, a unitary applied after it).  Measure values are invariant
under these, so one stored reference checks every seed while the solvers see
different matrices, and the work stays the same: Newton steps repeat
exactly, and the channel searches' inner solves to within 1%.  The ``sweep`` inputs do not depend on the
seed: on the ill-conditioned 3x3 hard state, rotations change the work of an
``alpha_sweep`` by 14% (interquartile range of eigensolver work over ten
seeds), which would add to the machine's own run-to-run spread.

Run this file to recompute ``reference.json`` from the seed-0 inputs.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

SWEEP_DIMS = ((2, 3), (3, 3))
SWEEP_ORDERS = (1.0, 1.5, 2.0, 5.0, math.inf)
HARD_STATE_SEED = 1

KAPPA_DIMS = ((4, 4), (3, 5))
KAPPA_RANK = 3
KAPPA_STATE_SEED = 11
KAPPA_TOL = 1e-7  # bits

# (input dimension d, mixing weight p, order alpha), as in `repro werner-holevo`
CHANNEL_CASES = ((2, 1.0, 2.0), (3, 0.75, 1.0))
CHANNEL_RESTARTS = 4
CHANNEL_TOL = 5e-3  # the tolerance `repro werner-holevo` checks against


@dataclass(frozen=True)
class Case:
    """One solve of a workload.

    ``solve`` is the timed public call; ``check`` turns its output into the
    values compared bit for bit between runs and a list of problems (empty
    when the output is correct).
    """

    label: str
    solve: Callable[[], object]
    check: Callable[[object], tuple[tuple[float, ...], list[str]]]


def _modules():
    """The alphaneg modules, looked up when needed so that importing this
    file does not import the package."""
    names = ("linalg", "states", "divergence", "solver", "channels")
    return {n: importlib.import_module(f"alphaneg.{n}") for n in names}


def dims_label(dA: int, dB: int) -> str:
    return f"{dA}x{dB}"


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def hard_npt_state(dims, seed: int):
    """First seeded state from ``seed`` that is NPT and fails binegativity."""
    m = _modules()
    states, divergence = m["states"], m["divergence"]
    s = seed
    while True:
        rho = states.random_state(dims, 2 + (s % (dims.total - 1)), s)
        if not states.ppt_membership(rho) and not divergence.binegativity_psd(rho):
            return rho
        s += 1


def _rotate_state(rho, rng):
    """U_A (x) U_B rho (U_A (x) U_B)^dag, or rho itself when rng is None."""
    if rng is None:
        return rho
    u = np.kron(haar_unitary(rng, rho.dims.dA), haar_unitary(rng, rho.dims.dB))
    states = _modules()["states"]
    return states.BipartiteState(rho.dims, u @ rho.matrix @ u.conj().T)


def _rng(seed: int):
    return None if seed == 0 else np.random.default_rng(seed)


def load_reference() -> dict:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sweep_states(dims=SWEEP_DIMS) -> list[tuple[str, object]]:
    linalg = _modules()["linalg"]
    return [(dims_label(*d), hard_npt_state(linalg.BipartitionDims(*d), HARD_STATE_SEED)) for d in dims]


def kappa_states(seed: int) -> list[tuple[str, object]]:
    m = _modules()
    rng = _rng(seed)
    return [
        (
            dims_label(*d),
            _rotate_state(m["states"].random_state(m["linalg"].BipartitionDims(*d), KAPPA_RANK, KAPPA_STATE_SEED), rng),
        )
        for d in KAPPA_DIMS
    ]


def sweep_cases(seed: int, reference: dict) -> list[Case]:
    """The same inputs for every seed (see the module docstring)."""
    solver = _modules()["solver"]
    cfg = solver.DEFAULT_CONFIG
    tol = cfg.value_tol
    cases = []
    for label, rho in sweep_states():
        expected = reference["sweep"][label]

        def check(results, expected=expected):
            problems = []
            for r, ref in zip(results, expected):
                lower, upper = r.bracket
                if not r.converged:
                    problems.append(f"order {r.alpha}: not converged ({r.diagnostic})")
                if not (math.isfinite(upper) and lower - tol <= r.value_bits <= upper + tol):
                    problems.append(f"order {r.alpha}: {r.value_bits} outside [{lower}, {upper}]")
                if abs(r.value_bits - ref) > tol:
                    problems.append(f"order {r.alpha}: {r.value_bits} != reference {ref}")
            if len(results) != len(expected):
                problems.append(f"{len(results)} results for {len(expected)} orders")
            if solver.audit_monotonicity(results, tol):
                problems.append("ordering audit failed")
            values = tuple(r.value_bits for r in results) + tuple(r.bracket[1] for r in results)
            return values, problems

        cases.append(
            Case(label, lambda rho=rho: solver.alpha_sweep(rho, SWEEP_ORDERS, cfg), check)
        )
    return cases


def kappa_cases(seed: int, reference: dict) -> list[Case]:
    solver = _modules()["solver"]
    cases = []
    for label, rho in kappa_states(seed):
        expected = reference["kappa"][label]

        def check(result, expected=expected):
            problems = []
            if not result.converged:
                problems.append(f"not converged ({result.diagnostic})")
            if abs(result.value_bits - expected) > KAPPA_TOL:
                problems.append(f"{result.value_bits} != reference {expected}")
            return (result.value_bits,), problems

        cases.append(Case(label, lambda rho=rho: solver.e_kappa(rho, solver.DEFAULT_CONFIG), check))
    return cases


def channel_cases(seed: int, reference: dict) -> list[Case]:
    m = _modules()
    solver, channels = m["solver"], m["channels"]
    cfg = dataclasses.replace(solver.DEFAULT_CONFIG, with_bracket=False, restarts=CHANNEL_RESTARTS)
    rng = _rng(seed)
    cases = []
    for d, p, alpha in CHANNEL_CASES:
        channel = channels.werner_holevo_channel(p, d)
        if rng is not None:
            v = haar_unitary(rng, d)
            # row-major vec(V X V^dag) = (V (x) conj V) vec(X)
            channel = channels.SuperOperator(np.kron(v, v.conj()) @ channel.matrix, d, d)
        expected = channels.werner_holevo_value(p, d)

        def check(value, expected=expected):
            problems = []
            if not abs(value - expected) <= CHANNEL_TOL:
                problems.append(f"{value} not within {CHANNEL_TOL} of {expected}")
            return (value,), problems

        cases.append(
            Case(
                f"d={d},p={p},alpha={alpha:g}",
                lambda ch=channel, a=alpha: channels.channel_e_alpha(ch, a, cfg),
                check,
            )
        )
    return cases


BUILDERS = {"sweep": sweep_cases, "kappa": kappa_cases, "channel": channel_cases}

# Layer metrics each workload must exercise (non-zero in a traced batch) and
# those it must leave alone (zero).
ACTIVE = {
    "sweep": (
        "linalg.check_hermitian.calls",
        "linalg.psd_project.calls",
        "linalg.partial_transpose.calls",
        "states.validate.calls",
        "linalg.eigh.calls",
        "linalg.eigh.work_d3",
        "pptgeom.project.calls",
        "pptgeom.project.cycles",
        "solver.pg.calls",
        "solver.pg.iterations",
        "solver.objective.calls",
        "solver.kappa.calls",
        "solver.kappa.newton_steps",
        "solver.kappa.ms_per_newton",
        "solver.kappa.per_state",
        "solver.bracket.time_s",
        "divergence.log_negativity.calls",
    ),
    "kappa": (
        "linalg.partial_transpose.calls",
        "states.validate.calls",
        "solver.kappa.calls",
        "solver.kappa.newton_steps",
        "solver.kappa.ms_per_newton",
        "solver.kappa.per_state",
        "divergence.log_negativity.calls",
    ),
    "channel": (
        "linalg.check_hermitian.calls",
        "linalg.psd_project.calls",
        "linalg.partial_transpose.calls",
        "states.validate.calls",
        "linalg.eigh.calls",
        "pptgeom.project.calls",
        "pptgeom.project.cycles",
        "solver.pg.calls",
        "solver.pg.iterations",
        "solver.objective.calls",
        "solver.bracket.time_s",
        "channels.search.time_s",
        "channels.objective.calls",
        "divergence.log_negativity.calls",
    ),
}
IDLE = {
    "sweep": ("channels.search.time_s", "channels.objective.calls"),
    "kappa": (
        "linalg.psd_project.calls",
        "pptgeom.project.calls",
        "solver.pg.calls",
        "solver.objective.calls",
        "solver.bracket.time_s",
        "channels.search.time_s",
        "channels.objective.calls",
    ),
    "channel": ("solver.kappa.calls",),
}


def build(workload: str, seed: int) -> list[Case]:
    return BUILDERS[workload](seed, load_reference())


def compute_reference() -> dict:
    """Seed-0 values of the sweep and kappa workloads, unchecked."""
    solver = _modules()["solver"]
    return {
        "sweep": {label: [r.value_bits for r in solver.alpha_sweep(rho, SWEEP_ORDERS)] for label, rho in sweep_states()},
        "kappa": {label: solver.e_kappa(rho).value_bits for label, rho in kappa_states(0)},
    }


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(compute_reference(), indent=2))
