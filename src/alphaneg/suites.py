"""Randomized property batteries behind ``alphaneg check`` and the test suite.

Each battery draws seeded instances, evaluates one proved inequality on each,
and yields one slack per check, oriented so that nonnegative means the
property holds.  ``_tally`` turns the slacks into the report: the number
checked, the worst slack, and the violations, which are the slacks below
``-tol``; a slack of exactly ``-tol`` passes.  The tolerance is
floating-point headroom only: 1e-8 for the divergence lemmas (0 for
regularization continuity, whose slacks carry 1e-12 of headroom) and one to
three times ``value_tol`` for the measure-level suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channels import (
    instrument_outcomes,
    is_cpptp_instrument,
    random_kraus_channel,
    random_local_instrument,
)
from .divergence import (
    classical_relative_entropy,
    log_negativity,
    mu_alpha,
    nu_alpha,
)
from .linalg import BipartitionDims, herm_part, schatten_norm
from .solver import DEFAULT_CONFIG, SolverConfig, alpha_sweep, e_alpha
from .states import cq_assemble, ppt_membership, product_state, random_state

ALPHA_GRID = (1.0, 1.5, 2.0, 5.0, math.inf)
_LEMMA_TOL = 1e-8


@dataclass
class SuiteReport:
    name: str
    checked: int
    violations: int
    worst_slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _tally(name: str, slacks, tol: float) -> SuiteReport:
    """Count the slacks, keep the smallest, and count those below ``-tol``."""
    worst = math.inf
    checked = violations = 0
    for slack in slacks:
        worst = min(worst, slack)
        checked += 1
        if slack < -tol:
            violations += 1
    return SuiteReport(name, checked, violations, worst)


def _rand_hermitian(rng, d: int) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x = herm_part(g)
    return x / max(1.0, schatten_norm(x, 1))


def _rand_pd(rng, d: int, trace: float = 1.0) -> np.ndarray:
    g = rng.standard_normal((d, d + 2)) + 1j * rng.standard_normal((d, d + 2))
    m = g @ g.conj().T + 1e-3 * np.eye(d)
    return trace * m / np.trace(m).real


def _random_positive_maps(rng, d: int):
    """Concrete positive trace-non-increasing maps: transpose, trace-and-
    replace, a random CPTP map, a pinching, and a subnormalized CPTP map."""
    tau = _rand_pd(rng, d)

    def transpose(x):
        return x.T.copy()

    def trace_replace(x):
        return np.trace(x) * tau

    ch = random_kraus_channel(d, d, 3, int(rng.integers(2**31)))

    def cptp(x):
        return ch.apply(x)

    cut = int(rng.integers(1, d))
    p1 = np.zeros((d, d))
    p1[:cut, :cut] = np.eye(cut)
    p2 = np.eye(d) - p1

    def pinching(x):
        return p1 @ x @ p1 + p2 @ x @ p2

    scale = 0.5 + 0.4 * rng.random()

    def subnormalized(x):
        return scale * ch.apply(x)

    return [transpose, trace_replace, cptp, pinching, subnormalized]


def _draws(rng, instances: int):
    """Per instance: d in 2..6, a random Hermitian x and a random positive
    definite sigma on C^d, drawn from rng in that order."""
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        yield d, _rand_hermitian(rng, d), _rand_pd(rng, d)


def data_processing_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """nu never increases under positive trace-non-increasing maps."""
    rng = np.random.default_rng(seed)

    def slacks():
        for d, x, sig in _draws(rng, instances):
            pmap = _random_positive_maps(rng, d)[int(rng.integers(5))]
            for alpha in ALPHA_GRID:
                before = nu_alpha(x, sig, alpha)
                yield before - nu_alpha(herm_part(pmap(x)), herm_part(pmap(sig)), alpha)

    return _tally("data-processing", slacks(), _LEMMA_TOL)


def cq_block_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """Block-diagonal lower bound: joint nu beats the average block nu plus
    the weighted classical relative entropy term."""
    rng = np.random.default_rng(seed)

    def slacks():
        for _ in range(instances):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            p = rng.random(n) + 0.1
            p /= p.sum()
            q = 0.2 + 1.8 * rng.random(n)
            ys = [_rand_hermitian(rng, d) for _ in range(n)]
            sigs = [_rand_pd(rng, d) for _ in range(n)]
            y_joint = cq_assemble(p, ys)
            sig_joint = cq_assemble(q, sigs)
            for alpha in ALPHA_GRID:
                joint = nu_alpha(y_joint, sig_joint, alpha)
                coeff = 1.0 if math.isinf(alpha) else (alpha - 1.0) / alpha
                bound = sum(
                    pi * nu_alpha(y, s, alpha) for pi, y, s in zip(p, ys, sigs)
                ) + coeff * classical_relative_entropy(p, q)
                yield joint - bound

    return _tally("cq-blocks", slacks(), _LEMMA_TOL)


def trace_norm_bound_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """log2 of the trace norm never exceeds nu plus the trace correction."""
    rng = np.random.default_rng(seed)

    def slacks():
        for _ in range(instances):
            d = int(rng.integers(2, 7))
            x = _rand_hermitian(rng, d)
            sig = _rand_pd(rng, d, trace=0.5 + 2.5 * rng.random())
            for alpha in ALPHA_GRID:
                coeff = 1.0 if math.isinf(alpha) else (alpha - 1.0) / alpha
                yield (
                    nu_alpha(x, sig, alpha)
                    + coeff * math.log2(np.trace(sig).real)
                    - math.log2(schatten_norm(x, 1))
                )

    return _tally("trace-norm-bound", slacks(), _LEMMA_TOL)


def normalized_ordering_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """The trace-norm-normalized, prefactor-weighted nu grows with the order."""
    rng = np.random.default_rng(seed)

    def slacks():
        for _, x, sig in _draws(rng, instances):
            base = math.log2(schatten_norm(x, 1))
            for a, b in ((1.2, 2.0), (2.0, 5.0), (5.0, 50.0)):
                lo = (a / (a - 1)) * (nu_alpha(x, sig, a) - base)
                hi = (b / (b - 1)) * (nu_alpha(x, sig, b) - base)
                yield hi - lo

    return _tally("normalized-ordering", slacks(), _LEMMA_TOL)


def plain_ordering_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """nu is monotone nondecreasing in the order, up to the max endpoint."""
    rng = np.random.default_rng(seed)
    grid = (1.0, 1.2, 1.5, 2.0, 5.0, 50.0, math.inf)

    def slacks():
        for _, x, sig in _draws(rng, instances):
            vals = [nu_alpha(x, sig, a) for a in grid]
            for lo, hi in zip(vals, vals[1:]):
                yield hi - lo

    return _tally("plain-ordering", slacks(), _LEMMA_TOL)


def convexity_battery(seed: int = 0, instances: int = 100) -> SuiteReport:
    """sigma -> mu_alpha^alpha is convex along random segments."""
    rng = np.random.default_rng(seed)

    def slacks():
        for d, x, s0 in _draws(rng, instances):
            s1 = _rand_pd(rng, d)
            for alpha in (1.0, 1.5, 2.0, 4.0):
                f0 = mu_alpha(x, s0, alpha) ** alpha
                f1 = mu_alpha(x, s1, alpha) ** alpha
                for t in np.linspace(0.1, 0.9, 9):
                    ft = mu_alpha(x, t * s0 + (1 - t) * s1, alpha) ** alpha
                    yield t * f0 + (1 - t) * f1 - ft

    return _tally("divergence-convexity", slacks(), _LEMMA_TOL)


def regularization_continuity_battery(seed: int = 0, instances: int = 50) -> SuiteReport:
    """Mixing sigma toward the maximally mixed state perturbs mu vanishingly."""
    rng = np.random.default_rng(seed)

    def slacks():
        for d, x, sig in _draws(rng, instances):
            for alpha in (1.5, 2.0, 5.0):
                base = mu_alpha(x, sig, alpha)
                gaps = []
                for eps in (1e-2, 1e-4, 1e-6):
                    mixed = (1 - eps) * sig + eps * np.eye(d) / d
                    gaps.append(abs(mu_alpha(x, mixed, alpha) - base))
                # each decade of eps must not increase the perturbation
                for g_big, g_small in zip(gaps, gaps[1:]):
                    yield g_big - g_small + 1e-12

    return _tally("regularization-continuity", slacks(), 0.0)


def lemma_batteries(seed: int = 0, instances: int = 100) -> list[SuiteReport]:
    return [
        data_processing_battery(seed, instances),
        cq_block_battery(seed + 1, instances),
        trace_norm_bound_battery(seed + 2, instances),
        normalized_ordering_battery(seed + 3, instances),
        plain_ordering_battery(seed + 4, instances),
        convexity_battery(seed + 5, instances),
        regularization_continuity_battery(seed + 6, max(10, instances // 2)),
    ]


# ---------------------------------------------------------------------------
# measure-level suites


def _mixed_dims(rng) -> BipartitionDims:
    return [BipartitionDims(2, 2), BipartitionDims(2, 3), BipartitionDims(3, 3)][
        int(rng.integers(3))
    ]


def ordering_suite(seed: int = 0, instances: int = 30, cfg: SolverConfig = DEFAULT_CONFIG) -> SuiteReport:
    """Measure values are monotone along 1 <= 1.5 <= 2 <= 5 <= inf."""
    cfg = replace(cfg, with_bracket=False)
    rng = np.random.default_rng(seed)

    def slacks():
        for _ in range(instances):
            dims = _mixed_dims(rng)
            rho = random_state(dims, int(rng.integers(2, dims.total + 1)), int(rng.integers(2**31)))
            vals = [r.value_bits for r in alpha_sweep(rho, ALPHA_GRID, cfg)]
            for lo, hi in zip(vals, vals[1:]):
                yield hi - lo

    return _tally("measure-ordering", slacks(), 2 * cfg.value_tol)


def monotonicity_suite(
    seed: int = 0, n_instruments: int = 50, n_states: int = 10, cfg: SolverConfig = DEFAULT_CONFIG
) -> SuiteReport:
    """Selective PPT-preserving instruments never increase the average measure."""
    cfg = replace(cfg, with_bracket=False)
    rng = np.random.default_rng(seed)
    dims = BipartitionDims(2, 2)
    states_list = [
        random_state(dims, int(rng.integers(1, 5)), int(rng.integers(2**31)))
        for _ in range(n_states)
    ]
    instruments = [
        random_local_instrument(
            dims,
            int(rng.integers(2, 4)),
            int(rng.integers(2**31)),
            kraus_per_element=int(rng.integers(1, 3)),
        )
        for _ in range(n_instruments)
    ]
    if not all(is_cpptp_instrument(instr) for instr in instruments):
        raise AssertionError("local instrument generator must be PPT-preserving")

    def slacks():
        for alpha in (1.0, 2.0, math.inf):
            lhs_cache = [e_alpha(rho, alpha, cfg).value_bits for rho in states_list]
            for instr in instruments:
                for rho, lhs in zip(states_list, lhs_cache):
                    yield lhs - sum(
                        p * e_alpha(post, alpha, cfg).value_bits
                        for p, post in instrument_outcomes(instr, rho)
                    )

    return _tally("instrument-monotonicity", slacks(), 3 * cfg.value_tol)


def subadditivity_suite(seed: int = 0, n_pairs: int = 3, cfg: SolverConfig = DEFAULT_CONFIG) -> SuiteReport:
    """Measure of a tensor product never exceeds the sum of the parts."""
    cfg = replace(cfg, with_bracket=False)
    rng = np.random.default_rng(seed)
    dims = BipartitionDims(2, 2)

    def slacks():
        for _ in range(n_pairs):
            rho = random_state(dims, int(rng.integers(1, 5)), int(rng.integers(2**31)))
            omega = random_state(dims, int(rng.integers(1, 5)), int(rng.integers(2**31)))
            joint = product_state(rho, omega)
            for alpha in (2.0, math.inf):
                sum_parts = e_alpha(rho, alpha, cfg).value_bits + e_alpha(omega, alpha, cfg).value_bits
                yield sum_parts - e_alpha(joint, alpha, cfg).value_bits

    return _tally("subadditivity", slacks(), 3 * cfg.value_tol)


def faithfulness_suite(seed: int = 0, instances: int = 20, cfg: SolverConfig = DEFAULT_CONFIG) -> SuiteReport:
    """Positive exactly on NPT states, zero exactly on PPT states."""
    cfg = replace(cfg, with_bracket=False)
    rng = np.random.default_rng(seed)

    def slacks():
        npt = ppt = tries = 0
        while (npt < instances or ppt < instances) and tries < 100 * instances:
            tries += 1
            dims = _mixed_dims(rng)
            rho = random_state(dims, int(rng.integers(1, dims.total + 1)), int(rng.integers(2**31)))
            if ppt_membership(rho):
                if ppt >= instances:
                    continue
                ppt += 1
                yield -abs(e_alpha(rho, 2.0, cfg).value_bits)
            else:
                if npt >= instances:
                    continue
                npt += 1
                val = e_alpha(rho, 2.0, cfg).value_bits
                # an NPT state must read positive even when its E_N is below value_tol
                yield val - log_negativity(rho) if val > 0 else -math.inf

    return _tally("faithfulness", slacks(), cfg.value_tol)


SUITES = {
    "lemmas": lambda seed, cfg, smoke: lemma_batteries(seed, 20 if smoke else 100),
    "ordering": lambda seed, cfg, smoke: [ordering_suite(seed, 8 if smoke else 30, cfg)],
    "monotonicity": lambda seed, cfg, smoke: [
        monotonicity_suite(seed, 5 if smoke else 50, 3 if smoke else 10, cfg)
    ],
    "subadditivity": lambda seed, cfg, smoke: [
        subadditivity_suite(seed, 2 if smoke else 3, cfg)
    ],
    "faithfulness": lambda seed, cfg, smoke: [
        faithfulness_suite(seed, 6 if smoke else 20, cfg)
    ],
}


def run_suite(
    name: str, seed: int = 0, cfg: SolverConfig = DEFAULT_CONFIG, smoke: bool = False
) -> list[SuiteReport]:
    if name == "all":
        reports = []
        for key in SUITES:
            reports.extend(SUITES[key](seed, cfg, smoke))
        return reports
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed, cfg, smoke)
