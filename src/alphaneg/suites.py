"""Randomized property batteries behind ``alphaneg check`` and the test suite.

Each battery draws seeded instances, evaluates one proved inequality on each,
and reports the worst slack seen.  Slacks are oriented so that nonnegative
means the property holds; the tolerance says how far below zero counts as a
violation (floating-point headroom only).
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
from .errors import NotConvergedError
from .linalg import BipartitionDims, herm_part, schatten_norm
from .solver import DEFAULT_CONFIG, SolverConfig, e_alpha, e_kappa
from .states import (
    cq_assemble,
    product_state,
    random_state,
)

ALPHA_GRID = (1.0, 1.5, 2.0, 5.0, math.inf)


@dataclass
class SuiteReport:
    name: str
    checked: int
    violations: int
    worst_slack: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0


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


def data_processing_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """nu never increases under positive trace-non-increasing maps."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        sig = _rand_pd(rng, d)
        pmap = _random_positive_maps(rng, d)[int(rng.integers(5))]
        for alpha in ALPHA_GRID:
            before = nu_alpha(x, sig, alpha)
            after = nu_alpha(herm_part(pmap(x)), herm_part(pmap(sig)), alpha)
            slack = before - after
            worst = min(worst, slack)
            checked += 1
            if slack < -tol:
                violations += 1
    return SuiteReport("data-processing", checked, violations, worst)


def cq_block_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """Block-diagonal lower bound: joint nu beats the average block nu plus
    the weighted classical relative entropy term."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
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
            slack = joint - bound
            worst = min(worst, slack)
            checked += 1
            if slack < -tol:
                violations += 1
    return SuiteReport("cq-blocks", checked, violations, worst)


def trace_norm_bound_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """log2 of the trace norm never exceeds nu plus the trace correction."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        sig = _rand_pd(rng, d, trace=0.5 + 2.5 * rng.random())
        for alpha in ALPHA_GRID:
            coeff = 1.0 if math.isinf(alpha) else (alpha - 1.0) / alpha
            slack = (
                nu_alpha(x, sig, alpha)
                + coeff * math.log2(np.trace(sig).real)
                - math.log2(schatten_norm(x, 1))
            )
            worst = min(worst, slack)
            checked += 1
            if slack < -tol:
                violations += 1
    return SuiteReport("trace-norm-bound", checked, violations, worst)


def normalized_ordering_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """The trace-norm-normalized, prefactor-weighted nu grows with the order."""
    rng = np.random.default_rng(seed)
    pairs = ((1.2, 2.0), (2.0, 5.0), (5.0, 50.0))
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        sig = _rand_pd(rng, d)
        base = math.log2(schatten_norm(x, 1))
        for a, b in pairs:
            lo = (a / (a - 1)) * (nu_alpha(x, sig, a) - base)
            hi = (b / (b - 1)) * (nu_alpha(x, sig, b) - base)
            slack = hi - lo
            worst = min(worst, slack)
            checked += 1
            if slack < -tol:
                violations += 1
    return SuiteReport("normalized-ordering", checked, violations, worst)


def plain_ordering_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """nu is monotone nondecreasing in the order, up to the max endpoint."""
    rng = np.random.default_rng(seed)
    grid = (1.0, 1.2, 1.5, 2.0, 5.0, 50.0, math.inf)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        sig = _rand_pd(rng, d)
        vals = [nu_alpha(x, sig, a) for a in grid]
        for lo, hi in zip(vals, vals[1:]):
            slack = hi - lo
            worst = min(worst, slack)
            checked += 1
            if slack < -tol:
                violations += 1
    return SuiteReport("plain-ordering", checked, violations, worst)


def convexity_battery(seed: int = 0, instances: int = 100, tol: float = 1e-8) -> SuiteReport:
    """sigma -> mu_alpha^alpha is convex along random segments."""
    rng = np.random.default_rng(seed)
    alphas = (1.0, 1.5, 2.0, 4.0)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        s0 = _rand_pd(rng, d)
        s1 = _rand_pd(rng, d)
        for alpha in alphas:
            f0 = mu_alpha(x, s0, alpha) ** alpha
            f1 = mu_alpha(x, s1, alpha) ** alpha
            for t in np.linspace(0.1, 0.9, 9):
                ft = mu_alpha(x, t * s0 + (1 - t) * s1, alpha) ** alpha
                slack = t * f0 + (1 - t) * f1 - ft
                worst = min(worst, slack)
                checked += 1
                if slack < -tol:
                    violations += 1
    return SuiteReport("divergence-convexity", checked, violations, worst)


def regularization_continuity_battery(seed: int = 0, instances: int = 50) -> SuiteReport:
    """Mixing sigma toward the maximally mixed state perturbs mu vanishingly."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        d = int(rng.integers(2, 7))
        x = _rand_hermitian(rng, d)
        sig = _rand_pd(rng, d)
        for alpha in (1.5, 2.0, 5.0):
            base = mu_alpha(x, sig, alpha)
            gaps = []
            for eps in (1e-2, 1e-4, 1e-6):
                mixed = (1 - eps) * sig + eps * np.eye(d) / d
                gaps.append(abs(mu_alpha(x, mixed, alpha) - base))
            # each decade of eps must not increase the perturbation
            for g_big, g_small in zip(gaps, gaps[1:]):
                slack = g_big - g_small + 1e-12
                worst = min(worst, slack)
                checked += 1
                if slack < 0:
                    violations += 1
    return SuiteReport("regularization-continuity", checked, violations, worst)


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


def _suite_cfg(cfg: SolverConfig | None) -> SolverConfig:
    cfg = cfg or DEFAULT_CONFIG
    return replace(cfg, with_bracket=False)


def _mixed_dims(rng) -> BipartitionDims:
    return [BipartitionDims(2, 2), BipartitionDims(2, 3), BipartitionDims(3, 3)][
        int(rng.integers(3))
    ]


def _value(rho, alpha, cfg) -> float:
    try:
        return e_alpha(rho, alpha, cfg).value_bits
    except NotConvergedError as exc:
        if exc.result is None:
            raise
        return exc.result.value_bits


def ordering_suite(seed: int = 0, instances: int = 30, cfg: SolverConfig | None = None) -> SuiteReport:
    """Measure values are monotone along 1 <= 1.5 <= 2 <= 5 <= inf."""
    cfg = _suite_cfg(cfg)
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
    for _ in range(instances):
        dims = _mixed_dims(rng)
        rho = random_state(dims, int(rng.integers(2, dims.total + 1)), int(rng.integers(2**31)))
        vals = [log_negativity(rho)]
        for alpha in (1.5, 2.0, 5.0):
            vals.append(_value(rho, alpha, cfg))
        vals.append(e_kappa(rho, cfg).value_bits)
        for lo, hi in zip(vals, vals[1:]):
            slack = hi - lo + 2 * cfg.value_tol
            worst = min(worst, hi - lo)
            checked += 1
            if slack < 0:
                violations += 1
    return SuiteReport("measure-ordering", checked, violations, worst)


def monotonicity_suite(
    seed: int = 0,
    n_instruments: int = 50,
    n_states: int = 10,
    alphas=(1.0, 2.0, math.inf),
    cfg: SolverConfig | None = None,
) -> SuiteReport:
    """Selective PPT-preserving instruments never increase the average measure."""
    cfg = _suite_cfg(cfg)
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
    worst = math.inf
    checked = violations = 0
    for alpha in alphas:
        lhs_cache = [_value(rho, alpha, cfg) for rho in states_list]
        for instr in instruments:
            if not is_cpptp_instrument(instr):
                raise AssertionError("local instrument generator must be PPT-preserving")
            for rho, lhs in zip(states_list, lhs_cache):
                rhs = sum(
                    p * _value(post, alpha, cfg)
                    for p, post in instrument_outcomes(instr, rho)
                )
                slack = lhs - rhs
                worst = min(worst, slack)
                checked += 1
                if slack < -3 * cfg.value_tol:
                    violations += 1
    return SuiteReport("instrument-monotonicity", checked, violations, worst)


def subadditivity_suite(
    seed: int = 0,
    n_pairs: int = 3,
    alphas=(2.0, math.inf),
    cfg: SolverConfig | None = None,
) -> SuiteReport:
    """Measure of a tensor product never exceeds the sum of the parts."""
    cfg = _suite_cfg(cfg)
    rng = np.random.default_rng(seed)
    dims = BipartitionDims(2, 2)
    worst = math.inf
    checked = violations = 0
    for _ in range(n_pairs):
        rho = random_state(dims, int(rng.integers(1, 5)), int(rng.integers(2**31)))
        omega = random_state(dims, int(rng.integers(1, 5)), int(rng.integers(2**31)))
        joint = product_state(rho, omega)
        for alpha in alphas:
            sum_parts = _value(rho, alpha, cfg) + _value(omega, alpha, cfg)
            whole = _value(joint, alpha, cfg)
            slack = sum_parts - whole
            worst = min(worst, slack)
            checked += 1
            if slack < -3 * cfg.value_tol:
                violations += 1
    return SuiteReport("subadditivity", checked, violations, worst)


def faithfulness_suite(seed: int = 0, instances: int = 20, cfg: SolverConfig | None = None) -> SuiteReport:
    """Positive exactly on NPT states, zero exactly on PPT states."""
    from .states import ppt_membership

    cfg = _suite_cfg(cfg)
    rng = np.random.default_rng(seed)
    worst = math.inf
    checked = violations = 0
    npt = ppt = 0
    tries = 0
    while (npt < instances or ppt < instances) and tries < 100 * instances:
        tries += 1
        dims = _mixed_dims(rng)
        rho = random_state(dims, int(rng.integers(1, dims.total + 1)), int(rng.integers(2**31)))
        if ppt_membership(rho):
            if ppt >= instances:
                continue
            ppt += 1
            val = _value(rho, 2.0, cfg)
            slack = -abs(val)
            checked += 1
            worst = min(worst, slack)
            if abs(val) > cfg.value_tol:
                violations += 1
        else:
            if npt >= instances:
                continue
            npt += 1
            en = log_negativity(rho)
            val = _value(rho, 2.0, cfg)
            slack = val - en + cfg.value_tol
            checked += 1
            worst = min(worst, val - en)
            if val < en - cfg.value_tol or val <= 0:
                violations += 1
    return SuiteReport("faithfulness", checked, violations, worst)


SUITES = {
    "lemmas": lambda seed, cfg, smoke: lemma_batteries(seed, 20 if smoke else 100),
    "ordering": lambda seed, cfg, smoke: [ordering_suite(seed, 8 if smoke else 30, cfg)],
    "monotonicity": lambda seed, cfg, smoke: [
        monotonicity_suite(seed, 5 if smoke else 50, 3 if smoke else 10, cfg=cfg)
    ],
    "subadditivity": lambda seed, cfg, smoke: [
        subadditivity_suite(seed, 2 if smoke else 3, cfg=cfg)
    ],
    "faithfulness": lambda seed, cfg, smoke: [
        faithfulness_suite(seed, 6 if smoke else 20, cfg)
    ],
}


def run_suite(
    name: str, seed: int = 0, cfg: SolverConfig | None = None, smoke: bool = False
) -> list[SuiteReport]:
    if name == "all":
        reports = []
        for key in SUITES:
            reports.extend(SUITES[key](seed, cfg, smoke))
        return reports
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, cfg, smoke)
