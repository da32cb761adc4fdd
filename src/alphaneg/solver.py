"""Solver cores and the partial-transpose entry points of the measure.

Three routes, one value scale (bits, log base 2):

* order 1 is closed form: log2 of the trace norm of the partial transpose;
* orders strictly between 1 and infinity run projected gradient descent
  (``_pg_core``) on the convex objective f(sigma) = ||sigma^p X sigma^p||_alpha^alpha
  with p = (1-alpha)/(2 alpha) and X the partial transpose of the input state,
  keeping iterates inside the PPT set by Dykstra projection and inside the
  faithful interior by a decaying mixing schedule with the maximally mixed
  state.  The reported value is (1/alpha) log2 of the best objective seen,
  which is always a rigorous upper bound because every evaluation point is a
  genuine interior PPT state;
* order infinity is a semidefinite program (``_kappa_core``), min Tr[S]
  subject to T_B(S) - T_B(rho) >= 0, T_B(S) + T_B(rho) >= 0, S >= 0, solved
  by a self-contained log-det barrier method with damped Newton centering.
  Each Newton step is one D^2 x D^2 linear system in row-major vec form,
  assembled from Kronecker products of the block inverses and the map's
  matrix, which is built once per solve.  When that matrix is exactly a
  permutation (the partial transpose, or any other index reordering) the two
  products with it are replaced by one gather of the same entries, which
  gives the same bits.  The Kronecker terms and the system are written into
  three D^2 x D^2 buffers allocated once per solve, with the same elementwise
  products and sums as fresh arrays would hold, so no step allocates at the
  D^4 scale and the bits are again the same.

Both cores take the map as a callable, so they serve any positive map.  The
branching between the routes, the PPT short-circuit and the bracket audit
live in one engine, ``resource._measure``: ``e_alpha`` and ``bracket`` here
are its entries for the partial transpose T_B, and ``e_kappa`` is
``e_alpha`` at order infinity.  Each result carries the sanity bracket
[closed-form lower endpoint, SDP upper endpoint]; a converged value must sit
inside it up to ``value_tol``.  Every outcome, an exhausted budget included,
comes back in the ``MeasureResult``; none is raised.

The optimizer state sigma* = |X| / ||X||_1 is feasible exactly when the
partial transpose of |X| is PSD, and in that case it is optimal for every
order (its order-infinity value equals the order-1 value, and the family is
monotone in the order).  The gradient loop therefore tries it as a starting
point next to the maximally mixed state; for two-qubit, pure and Werner
inputs this turns the search into a stationarity check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import check_alpha, log_negativity
from .errors import NotConvergedError, NotPositiveDefiniteError
from .linalg import (
    BipartitionDims,
    _conjugated_choi,
    _permutation_of,
    _power_gradient_from_eig,
    check_hermitian,
    frob_norm,
    herm_part,
    op_norm,
    partial_transpose,
)
from .pptgeom import DykstraConfig, project_free_set
from .states import BipartiteState, as_state

# Bound here only for the benchmark tracer, which wraps ``check_hermitian`` at
# every package module that binds it; bench/test_bench.py names this binding.
_TRACED_BINDINGS = (check_hermitian,)

LN2 = math.log(2.0)


@dataclass(frozen=True)
class SolverConfig:
    value_tol: float = 1e-4
    max_iter: int = 5000
    seed: int = 0
    with_bracket: bool = True
    restarts: int = 20

    def __post_init__(self):
        # written so that NaN fails each check
        if not (math.isfinite(self.value_tol) and self.value_tol > 0):
            raise ValueError(f"value_tol must be finite and positive, got {self.value_tol}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.restarts >= 1:
            raise ValueError(f"restarts must be at least 1, got {self.restarts}")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class MeasureResult:
    """Every outcome of a measure solve; no ``NotConvergedError`` is raised.

    ``converged`` is False, and ``diagnostic`` says why, when projected
    gradient exhausts ``max_iter``, when the barrier method exhausts its stage
    budget, when a value escapes its bracket beyond ``value_tol``, or when the
    SDP value falls below the closed-form lower endpoint; ``value_bits`` is
    still the best value found.  A free input reads 0, converged, with a
    diagnostic that says so.
    """

    value_bits: float
    alpha: float
    certificate_sigma: BipartiteState | None
    iterations: int
    converged: bool
    bracket: tuple[float, float]
    diagnostic: str = ""


# ---------------------------------------------------------------------------
# objective


def _log_objective(
    X: np.ndarray, sigma: np.ndarray, alpha: float, want_grad: bool = True
):
    """Natural log of f(sigma) = ||sigma^p X sigma^p||_alpha^alpha and the
    gradient of that log, both computed in scaled form so large orders cannot
    overflow."""
    w, v = np.linalg.eigh(sigma)
    if float(w[0]) <= 0.0:
        raise NotPositiveDefiniteError(
            f"objective needs positive definite sigma, min eigenvalue {w[0]:.3e}"
        )
    p = (1.0 - alpha) / (2.0 * alpha)
    sp = w**p
    half = (v * sp) @ v.conj().T
    inner = herm_part(half @ X @ half)
    mu, u = np.linalg.eigh(inner)
    mags = np.abs(mu)
    scale = float(mags.max())
    if scale == 0.0:
        return (-math.inf, np.zeros_like(sigma)) if want_grad else -math.inf
    ratios = mags / scale
    powsum = float(np.sum(ratios**alpha))
    log_f = alpha * math.log(scale) + math.log(powsum)
    if not want_grad:
        return log_f
    # d(log f) via the chain rule: outer derivative of the Schatten power sum,
    # then the adjoint Frechet derivative of sigma -> sigma^p on both sides
    outer = (alpha / scale) * np.sign(mu) * ratios ** (alpha - 1.0) / powsum
    w_outer = (u * outer) @ u.conj().T
    weight = X @ half @ w_outer + w_outer @ half @ X
    grad = _power_gradient_from_eig(w, v, p, weight)
    return log_f, grad


# ---------------------------------------------------------------------------
# projected gradient core

# Stationarity: projected step length over step size at or below this stops
# the descent once the smoothing weight sits at its floor.
_GRAD_TOL = 1e-6
# Armijo backtracking on the projected direction.
_ARMIJO_INITIAL_STEP = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
# Interior mixing weights: eps_k = max(floor, initial * decay**k).
_EPS_INITIAL = 1e-4
_EPS_DECAY = 0.7
_EPS_FLOOR = 1e-10
# Dykstra budget per projection; looser than ``project_ppt``'s default,
# because a stalled projection is absorbed by the interior mixing.
_PG_PROJECTION = DykstraConfig(max_cycles=1500, residual_tol=1e-9)


def _start_candidates(X: np.ndarray, apply_map, D: int) -> list[np.ndarray]:
    """Feasible starting points: the maximally mixed state, plus |X|/||X||_1
    whenever it lies in the free set (exact optimizer for the collapse class)."""
    candidates = [np.eye(D, dtype=complex) / D]
    w, v = np.linalg.eigh(X)
    absx = (v * np.abs(w)) @ v.conj().T
    n1 = float(np.abs(w).sum())
    if n1 > 0:
        cand = herm_part(absx / n1)
        if float(np.linalg.eigvalsh(apply_map(cand))[0]) >= -1e-11:
            candidates.append(cand)
    return candidates


def _pg_core(
    X: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    D: int,
    alpha: float,
    max_iter: int,
):
    """Projected gradient descent of f over the free set.

    Iterates are kept essentially feasible by Dykstra projection; every point
    the objective is evaluated at is additionally mixed with the maximally
    mixed state by a weight large enough to swallow both the smoothing
    schedule and the residual infeasibility of the iterate, so each evaluated
    point is a strictly interior free state and the reported value is a
    rigorous upper bound on the infimum.

    Returns (value_bits, best interior sigma, iterations, converged).
    """
    eye_over_d = np.eye(D, dtype=complex) / D

    def defect_of(m: np.ndarray) -> float:
        d1 = -float(np.linalg.eigvalsh(m)[0])
        d2 = -float(np.linalg.eigvalsh(herm_part(apply_map(m)))[0])
        return max(0.0, d1, d2)

    def reg(s: np.ndarray, e: float, defect: float) -> np.ndarray:
        e_eff = min(0.5, max(e, 2.0 * D * defect))
        return (1.0 - e_eff) * s + e_eff * eye_over_d

    def project(m: np.ndarray) -> np.ndarray:
        # a stalled projection is still near-feasible; the defect-aware
        # regularization absorbs the residual
        try:
            return project_free_set(m, apply_map, _PG_PROJECTION)
        except NotConvergedError as exc:
            return exc.iterate

    def eval_log(s: np.ndarray, e: float, defect: float, want_grad: bool):
        try:
            return _log_objective(X, reg(s, e, defect), alpha, want_grad=want_grad)
        except NotPositiveDefiniteError:
            return (math.inf, None) if want_grad else math.inf

    eps = _EPS_INITIAL
    best = None
    sigma = None
    sigma_defect = 0.0
    for cand in _start_candidates(X, apply_map, D):
        cand_defect = defect_of(cand)
        val = eval_log(cand, eps, cand_defect, want_grad=False)
        if best is None or val < best[0]:
            best = (val, reg(cand, eps, cand_defect))
            sigma, sigma_defect = cand, cand_defect

    best_log, best_point = best
    streak = 0
    prev_log = math.inf
    converged = False
    iters = 0
    prev_sigma = None
    prev_grad = None
    step_scale = None

    for iters in range(1, max_iter + 1):
        log_f, grad = eval_log(sigma, eps, sigma_defect, want_grad=True)
        if grad is None:
            break  # evaluation point degenerate beyond repair
        if log_f < best_log:
            best_log, best_point = log_f, reg(sigma, eps, sigma_defect)

        # spectral (Barzilai-Borwein) step length, safeguarded; falls back to
        # a gradient-normalized step on the first iteration or bad curvature
        fallback = _ARMIJO_INITIAL_STEP / (1.0 + frob_norm(grad))
        if prev_sigma is not None:
            s_diff = sigma - prev_sigma
            y_diff = grad - prev_grad
            sy = float(np.real(np.sum(s_diff.conj() * y_diff)))
            if sy > 1e-30:
                ss = float(np.real(np.sum(s_diff.conj() * s_diff)))
                step_scale = min(max(ss / sy, 1e-10 * fallback), 1e10 * fallback)
            else:
                step_scale = 1e4 * fallback
        else:
            step_scale = fallback
        prev_sigma, prev_grad = sigma, grad

        target = project(sigma - step_scale * grad)
        target_defect = defect_of(target)
        direction = target - sigma
        dir_norm = frob_norm(direction)
        # min-eigenvalue is concave, so points on the segment are no worse
        segment_defect = max(sigma_defect, target_defect)

        at_floor = eps <= _EPS_FLOOR * (1 + 1e-12)
        if dir_norm / max(step_scale, 1e-30) <= _GRAD_TOL:
            if at_floor:
                converged = True
                break
            eps = _EPS_FLOOR  # stationary at this smoothing level; finish at the floor
            streak = 0
            prev_log = math.inf
            continue

        slope = float(np.real(np.sum(grad.conj() * direction)))
        t = 1.0
        accepted = False
        while t > 1e-13:
            cand = sigma + t * direction
            cand_log = eval_log(cand, eps, segment_defect, want_grad=False)
            if cand_log <= log_f + _ARMIJO_DECREASE * t * slope:
                accepted = True
                break
            t *= _ARMIJO_SHRINK
        if not accepted:
            if at_floor:
                converged = True  # no descent direction at numerical precision
                break
            eps = _EPS_FLOOR
            streak = 0
            prev_log = math.inf
            continue

        sigma, sigma_defect = cand, segment_defect
        if cand_log < best_log:
            best_log, best_point = cand_log, reg(cand, eps, segment_defect)

        if abs(prev_log - cand_log) <= 1e-9 * max(1.0, abs(cand_log)):
            streak += 1
            if streak >= 25 and at_floor:
                converged = True
                break
        else:
            streak = 0
        prev_log = cand_log
        eps = max(_EPS_FLOOR, eps * _EPS_DECAY)

    value_bits = best_log / (alpha * LN2)
    return value_bits, best_point, iters, converged


# ---------------------------------------------------------------------------
# barrier SDP core

# Barrier weight t starts at _BARRIER_T_INIT and grows by _BARRIER_GROWTH per
# stage until the duality-gap bound nu/t drops below _BARRIER_GAP_TOL; each
# stage runs at most _BARRIER_MAX_NEWTON damped Newton steps.
_BARRIER_T_INIT = 1.0
_BARRIER_GROWTH = 10.0
_BARRIER_GAP_TOL = 1e-9
_BARRIER_MAX_NEWTON = 60


def _chol_logdet(A: np.ndarray):
    """(True, logdet) when A is positive definite, else (False, -inf)."""
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        return False, -math.inf
    return True, 2.0 * float(np.sum(np.log(np.diag(L).real)))


def _kron_into(inv: np.ndarray, out: np.ndarray) -> None:
    """Write inv (x) inv^T into the D^2 x D^2 buffer ``out``.

    These are the elementwise products ``np.kron(inv, inv.T)`` forms, with the
    same operands and strides, so the entries are the same bits.
    """
    D = inv.shape[0]
    np.multiply(inv[:, None, :, None], inv.T[None, :, None, :], out=out.reshape(D, D, D, D))


def _kappa_core(
    X: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
):
    """Barrier method for min Tr[S] s.t. map(S) +- X >= 0, S >= 0.

    ``apply_map`` must be a trace-preserving Hermiticity-preserving isometric
    involution, which makes it self-adjoint and unital; the identity start
    c*I is then strictly feasible for c above the operator norm of X.

    With row-major vec (vec(A M B) = (A (x) B^T) vec M) and Pm the D^2 x D^2
    matrix of the map, each Newton step solves

        (Pm^H (K1 + K2) Pm + K3) vec(Delta) = -vec(G),   K_i = A_i^-1 (x) A_i^-T,

    for the blocks A1, A2 = map(S) -+ X and A3 = S, with the barrier gradient
    G = t I - map(A1^-1 + A2^-1) - A3^-1; the Newton decrement is
    lambda^2 = -<G, Delta>.  The system matrix is Hermitian positive definite
    and maps Hermitian vecs to Hermitian vecs, so Delta is Hermitian.  Pm is
    built once per solve, from the map's images of the D^2 Hermitian units,
    so the map is applied D^2 times per solve and never inside the loop.

    When Pm is exactly a permutation matrix, Pm[perm[j], j] == 1 with every
    other entry 0, then (Pm^H M Pm)[i, j] = M[perm[i], perm[j]], and the two
    D^2 x D^2 products are replaced by that gather.  The gather is exact: each
    entry of the products is one term times 1 plus terms times 0, so both
    routes give the same system, the same solve and the same bits.  Any other
    map, a monomial matrix with phases included, takes the products.

    Three D^2 x D^2 buffers A, B, H are allocated once per solve.  Each step
    writes K1 into A and K2 into B, adds B into A, writes K3 into B, and then
    forms H from A (by the gather or the two products, the second of which
    lands back in A) plus B.  ``_kron_into`` forms the same products as
    ``np.kron``, and every sum and product has the same operands in the same
    order as with fresh arrays, so the buffers change no bit.  Delta and S are
    always fresh arrays, never views of a buffer.
    """
    D = X.shape[0]
    Pm = (
        _conjugated_choi(lambda m: m, lambda m: m, apply_map, D)
        .reshape(D, D, D, D)
        .transpose(1, 3, 0, 2)
        .reshape(D * D, D * D)
    )
    perm = _permutation_of(Pm)
    if perm is None:
        PmH = Pm.conj().T
    else:
        flat = perm[:, None] * (D * D) + perm
        del Pm
    A, B, H = (np.empty((D * D, D * D), dtype=complex) for _ in range(3))
    eye = np.eye(D, dtype=complex)

    S = (2.0 * op_norm(X) + 0.5) * eye
    t = _BARRIER_T_INIT
    nu = 3.0 * D  # total barrier parameter of the three log-det blocks
    total_newton = 0
    converged = True

    def blocks(Smat):
        m = apply_map(Smat)
        return herm_part(m - X), herm_part(m + X), Smat

    def phi(Smat, tval):
        total = tval * float(np.trace(Smat).real)
        for blk in blocks(Smat):
            ok, ld = _chol_logdet(blk)
            if not ok:
                return math.inf
            total -= ld
        return total

    max_stages = 400
    for _ in range(max_stages):
        for _ in range(_BARRIER_MAX_NEWTON):
            inv1, inv2, inv3 = (np.linalg.inv(b) for b in blocks(S))
            g = (t * eye - apply_map(inv1 + inv2) - inv3).reshape(-1)
            _kron_into(inv1, A)
            _kron_into(inv2, B)
            A += B
            _kron_into(inv3, B)
            if perm is None:
                np.matmul(PmH, A, out=H)
                np.matmul(H, Pm, out=A)
                np.add(A, B, out=H)
            else:
                # mode="raise" would buffer the output; flat is in range
                np.take(A, flat, out=H, mode="wrap")
                H += B
            try:
                delta = np.linalg.solve(H, -g)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(H, -g, rcond=None)[0]
            lam2 = -float(np.vdot(g, delta).real)
            total_newton += 1
            if lam2 / 2.0 <= 1e-11:
                break
            step_mat = herm_part(delta.reshape(D, D))
            if lam2 <= 0.3:
                # pure Newton phase: feasibility backtrack only, the quadratic
                # model is trusted and phi comparisons would drown in rounding
                step = 1.0
                while step > 1e-14:
                    trial = S + step * step_mat
                    if all(_chol_logdet(b)[0] for b in blocks(trial)):
                        break
                    step *= 0.5
                S = herm_part(S + step * step_mat)
            else:
                base = phi(S, t)
                step = 1.0
                accepted = False
                while step > 1e-14:
                    trial = herm_part(S + step * step_mat)
                    if phi(trial, t) <= base - 0.25 * step * lam2:
                        accepted = True
                        break
                    step *= 0.5
                if not accepted:
                    break
                S = trial
        if nu / t < _BARRIER_GAP_TOL:
            break
        t *= _BARRIER_GROWTH
    else:
        converged = False

    return float(np.trace(S).real), S, total_newton, converged


# ---------------------------------------------------------------------------
# public measures


def _pt(dims: BipartitionDims) -> Callable[[np.ndarray], np.ndarray]:
    return lambda m: partial_transpose(m, dims, "B")


def e_kappa(rho, cfg: SolverConfig = DEFAULT_CONFIG) -> MeasureResult:
    """Order-infinity endpoint via the semidefinite program: ``e_alpha`` at inf."""
    return e_alpha(rho, math.inf, cfg)


def e_alpha(rho, alpha: float, cfg: SolverConfig = DEFAULT_CONFIG) -> MeasureResult:
    """The interpolating measure at the given order, in bits.

    Closed form at order 1, projected gradient for finite orders above 1, the
    SDP at order infinity.  PPT inputs short-circuit to exactly zero.
    """
    from .resource import _measure

    alpha = check_alpha(alpha)
    rho = as_state(rho)
    X = partial_transpose(rho.matrix, rho.dims, "B")
    return _measure(
        rho, X, _pt(rho.dims), log_negativity(rho), alpha, cfg,
        lambda result: bracket(rho, result, cfg),
    )


def bracket(rho, result: MeasureResult, cfg: SolverConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Fill in the [order-1, order-infinity] sanity bracket and audit the value.

    The SDP upper endpoint is computed only when the config asks for it; the
    closed-form lower endpoint is always checked.
    """
    from .resource import _audit

    rho = as_state(rho)
    return _audit(rho, result, _pt(rho.dims), log_negativity(rho), cfg)


def alpha_sweep(rho, alphas: Sequence[float], cfg: SolverConfig = DEFAULT_CONFIG) -> list[MeasureResult]:
    """Measure values over an ascending grid of orders, with an ordering audit."""
    alphas = [check_alpha(a) for a in alphas]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("orders must be sorted ascending")
    rho = as_state(rho)
    results = [e_alpha(rho, a, cfg) for a in alphas]
    for i, j in audit_monotonicity(results, cfg.value_tol):
        note = f"ordering audit: value at order {results[i].alpha} exceeds order {results[j].alpha}"
        results[i].diagnostic = (results[i].diagnostic + "; " + note).lstrip("; ")
    return results


def audit_monotonicity(results: Sequence[MeasureResult], value_tol: float) -> list[tuple[int, int]]:
    """Indices (i, i+1) where the sweep violates monotonicity beyond 2*value_tol."""
    bad = []
    for i in range(len(results) - 1):
        if results[i].value_bits > results[i + 1].value_bits + 2 * value_tol:
            bad.append((i, i + 1))
    return bad
