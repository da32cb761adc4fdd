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
  D^4 scale and the bits are again the same.  The system is Hermitian
  positive definite, so it is solved by a Cholesky factorization done in
  place on its buffer; the block inverses are taken Hermitian first, since
  the factorization reads one triangle.  Should the factorization fail, the
  system is re-formed from the other two buffers and solved by LU, then by
  least squares.  This Cholesky solve is the package's one use of
  ``scipy.linalg``, which loads on the first barrier solve, not with the
  package: the other routes run on numpy alone.

Both cores take the map as a callable, so they serve any positive map.  The
branching between the routes, the PPT short-circuit, the warm start and the
ordering audit live in one engine, ``resource._measure``, which solves an
ascending grid of orders on one P(rho).  ``alpha_sweep`` here is its entry
for the partial transpose T_B, ``e_alpha`` is ``alpha_sweep`` at one order
and ``e_kappa`` is ``e_alpha`` at order infinity.  Each result carries the
sanity bracket [closed-form lower endpoint, SDP upper endpoint]; a
converged value must sit inside it up to ``value_tol``.  ``bracket`` is the
one audit of it for every map: the engine hands it a finite-order result
with the P(rho) it solved on, and it solves the SDP endpoint on that matrix
when the config asks for it.  Every outcome, an exhausted budget included,
comes back in the ``MeasureResult``; none is raised.

The optimizer state sigma* = |X| / ||X||_1 is feasible exactly when the
partial transpose of |X| is PSD, and in that case it is optimal for every
order (its order-infinity value equals the order-1 value, and the family is
monotone in the order).  The gradient loop therefore tries it as a starting
point next to the maximally mixed state.  Since no order goes below the
closed-form order-1 value, the loop stops as soon as its best upper value is
within ``_CERTIFIED_GAP`` bits of it, which certifies the value to that gap.
It tests this first on its best start, before any step, and returns that
start with 0 iterations when it passes.  So projected gradient certifies most
collapse-class inputs, two-qubit and Werner states among them, at their start
or first steps instead of running to a stall.
Otherwise it stops, converged, with the smoothing weight at its floor: when a
step finds no descent, when 25 accepted steps in a row leave the value
unchanged, or when the last accepted step left sigma unmoved, so that no
spectral step length can be formed.
On a grid of orders the engine hands the loop a third starting point: the
previous finite order's best point, which lies near the new optimum because
the optimum moves continuously with the order.  The loop starts from
whichever of the three evaluates lowest.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .divergence import _free_abs, check_alpha, log_negativity
from .errors import NotConvergedError, NotPositiveDefiniteError
from .linalg import (
    _conjugated_choi,
    _permutation_of,
    _power_gradient_from_eig,
    _pt,
    check_hermitian,
    frob_norm,
    herm_part,
    op_norm,
    partial_transpose,
)
from .pptgeom import project_free_set
from .states import BipartiteState, as_state

# Bound here only for the benchmark tracer, which wraps ``check_hermitian`` at
# every package module that binds it; bench/test_bench.py names this binding.
_TRACED_BINDINGS = (check_hermitian,)

LN2 = math.log(2.0)

# scipy.linalg's, bound by the first barrier solve (see ``_kappa_core``)
cho_factor = cho_solve = None


@dataclass(frozen=True)
class SolverConfig:
    value_tol: float = 1e-4
    max_iter: int = 5000
    seed: int = 0
    with_bracket: bool = True
    restarts: int = 20

    def __post_init__(self):
        # written so that NaN fails each check
        tol = self.value_tol
        if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol > 0):
            raise ValueError(f"value_tol must be finite and positive, got {tol}")
        if not isinstance(self.with_bracket, (bool, np.bool_)):
            raise ValueError(f"with_bracket must be a bool, got {self.with_bracket!r}")
        for name, least in (("max_iter", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value}")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class MeasureResult:
    """Every outcome of a measure solve; no ``NotConvergedError`` is raised.

    ``converged`` is True when projected gradient stopped on its own rules:
    certified within ``_CERTIFIED_GAP`` bits of the order-1 lower bound, or
    stalled with the smoothing weight at its floor (see ``_pg_core``); the
    order-1 closed form and the SDP are converged as computed.  ``iterations``
    counts projected-gradient steps, or Newton steps at order infinity; it is
    0 at order 1, on a free input, and where projected gradient certifies its
    best start before any step.  ``converged`` is False,
    and ``diagnostic`` says why, when projected gradient exhausts
    ``max_iter`` or when a value escapes its bracket beyond ``value_tol``;
    ``value_bits`` is still the best value found.  A free input reads 0,
    converged, with a diagnostic that says so.  ``certificate_sigma`` is a
    free state: the maximally mixed one at order 1, projected gradient's
    best point between, and P(S) / Tr S, which attains the SDP value, at
    order infinity.
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
# Certified stop, in bits: the best upper value within this of the closed-form
# order-1 lower bound, which no order can go below, stops the descent.
_CERTIFIED_GAP = 1e-9
# Armijo backtracking on the projected direction.
_ARMIJO_INITIAL_STEP = 1.0
_ARMIJO_SHRINK = 0.5
_ARMIJO_DECREASE = 1e-4
# Interior mixing weights: eps_k = max(floor, initial * decay**k).
_EPS_INITIAL = 1e-4
_EPS_DECAY = 0.7
_EPS_FLOOR = 1e-10
# Dykstra budget per projection; looser than ``project_ppt``'s, because a
# stalled projection is absorbed by the interior mixing.
_PG_MAX_CYCLES = 1500
_PG_RESIDUAL_TOL = 1e-9


def _pg_core(
    X: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    alpha: float,
    max_iter: int,
    lower: float,
    start: np.ndarray | None = None,
):
    """Projected gradient descent of f over the free set.

    X is the map's image P(rho), ``apply_map`` the map, ``max_iter`` the
    iteration budget and ``lower`` the closed-form order-1 value of X
    (log2 ||X||_1), which bounds the value at every order from below.

    Iterates are kept essentially feasible by Dykstra projection; every point
    the objective is evaluated at is additionally mixed with the maximally
    mixed state by a weight large enough to swallow both the smoothing
    schedule and the residual infeasibility of the iterate, so each evaluated
    point is a strictly interior free state and the reported value is a
    rigorous upper bound on the infimum.

    The descent stops, converged, when the best upper value comes within
    ``_CERTIFIED_GAP`` bits of ``lower``: the value is then certified to that
    gap.  This is tested on the best start, where a pass returns that start
    with 0 iterations and no projection, and then where the loop decides
    after its projection: at its one no-progress exit (a stationary point or
    a failed line search) and after an accepted step.

    The descent starts from the lowest-valued of up to three candidates: the
    maximally mixed state, ``divergence._free_abs``'s |X| / ||X||_1 when that
    is free (on most such collapse-class inputs the stop fires at the start
    or the first steps), and ``start`` when given, a strictly interior free
    state: on a grid of orders, ``resource._measure`` passes the previous
    finite order's best point.  Each candidate is evaluated through the same
    defect-aware mixing, the first two at weight ``_EPS_INITIAL`` and
    ``start`` at ``_EPS_FLOOR``; the maximally mixed state has no defect,
    since the map is unital, and is not tested for one.  The descent keeps
    its candidate's weight: from ``start`` it runs at the floor throughout,
    since re-running the decaying schedule would first mix a near-optimal
    point away from the optimum.

    Otherwise the descent stops, converged, once the smoothing weight sits at
    its floor: at the no-progress exit; after 25 accepted steps there that
    change the value by at most 1e-9 relative; or at the stationary exit,
    when the step accepted at the previous, floor-weighted iteration moved
    sigma by at most 1e-15 in Frobenius norm.  The spectral step length is
    then undefined, and its safeguard step would stall the projection for its
    whole cycle budget.  An exhausted budget returns unconverged.

    Returns (value_bits, best interior sigma, iterations, converged).
    """
    D = X.shape[0]
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
            return project_free_set(m, apply_map, _PG_MAX_CYCLES, _PG_RESIDUAL_TOL)
        except NotConvergedError as exc:
            return exc.iterate

    def certified() -> bool:
        return best_log / (alpha * LN2) - lower <= _CERTIFIED_GAP

    def eval_log(s: np.ndarray, e: float, defect: float, want_grad: bool):
        try:
            return _log_objective(X, reg(s, e, defect), alpha, want_grad=want_grad)
        except NotPositiveDefiniteError:
            return (math.inf, None) if want_grad else math.inf

    best = None
    sigma = None
    sigma_defect = 0.0
    # the maximally mixed state, |X| / ||X||_1 when it is free, and the
    # caller's start, which is evaluated and descended from at the floor
    for cand, cand_eps in (
        (eye_over_d, _EPS_INITIAL),
        (_free_abs(X, apply_map), _EPS_INITIAL),
        (start, _EPS_FLOOR),
    ):
        if cand is None:
            continue
        # the map is unital, so I/D and its image are PSD: no defect to test
        cand_defect = 0.0 if cand is eye_over_d else defect_of(cand)
        val = eval_log(cand, cand_eps, cand_defect, want_grad=False)
        if best is None or val < best[0]:
            best = (val, reg(cand, cand_eps, cand_defect))
            sigma, sigma_defect, eps = cand, cand_defect, cand_eps

    best_log, best_point = best
    if certified():
        # the best start is already certified to the gap: take no step
        return best_log / (alpha * LN2), best_point, 0, True
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

        at_floor = eps <= _EPS_FLOOR * (1 + 1e-12)
        # spectral (Barzilai-Borwein) step length, safeguarded; falls back to
        # a gradient-normalized step on the first iteration or bad curvature
        fallback = _ARMIJO_INITIAL_STEP / (1.0 + frob_norm(grad))
        if prev_sigma is not None:
            s_diff = sigma - prev_sigma
            y_diff = grad - prev_grad
            sy = float(np.real(np.sum(s_diff.conj() * y_diff)))
            ss = float(np.real(np.sum(s_diff.conj() * s_diff)))
            if sy > 1e-30:
                step_scale = min(max(ss / sy, 1e-10 * fallback), 1e10 * fallback)
            elif ss <= 1e-30 and at_floor and prev_at_floor:
                # the previous step, taken at the floor, left sigma where it
                # was: stationary, and the 1e4 step below would only stall the
                # projection.  The retry after the weight drops to the floor
                # also has s = 0, but has taken no step there yet.
                converged = True
                break
            else:
                step_scale = 1e4 * fallback
        else:
            step_scale = fallback
        prev_sigma, prev_grad, prev_at_floor = sigma, grad, at_floor

        target = project(sigma - step_scale * grad)
        target_defect = defect_of(target)
        direction = target - sigma
        dir_norm = frob_norm(direction)
        # min-eigenvalue is concave, so points on the segment are no worse
        segment_defect = max(sigma_defect, target_defect)

        accepted = False
        # written so that a NaN ratio runs the line search
        if not (dir_norm / max(step_scale, 1e-30) <= _GRAD_TOL):
            slope = float(np.real(np.sum(grad.conj() * direction)))
            t = 1.0
            while t > 1e-13:
                cand = sigma + t * direction
                cand_log = eval_log(cand, eps, segment_defect, want_grad=False)
                if cand_log <= log_f + _ARMIJO_DECREASE * t * slope:
                    accepted = True
                    break
                t *= _ARMIJO_SHRINK
        if not accepted:
            # stationary, or no descent direction at numerical precision
            if at_floor or certified():
                converged = True
                break
            eps = _EPS_FLOOR  # finish at the smoothing floor
            streak = 0
            prev_log = math.inf
            continue

        sigma, sigma_defect = cand, segment_defect
        if cand_log < best_log:
            best_log, best_point = cand_log, reg(cand, eps, segment_defect)
        if certified():
            converged = True
            break

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
# stage until the duality-gap bound nu/t drops below _BARRIER_GAP_TOL, which
# fixes the stage count in advance: 11 or 12 for D = 2 to 25, 14 at D = 1000.
# Each stage runs at most _BARRIER_MAX_NEWTON damped Newton steps.
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

    The inverses A_i^-1 are taken through their Hermitian parts: near the
    end of a solve the blocks are ill conditioned (condition numbers near
    1e11), and a raw inverse is then non-Hermitian by about 3e-6 relative,
    enough for the triangle a Cholesky factorization reads to fail to be
    positive definite.  H is C-ordered, so its F-ordered view H.T holds
    conj(H); that view is factored in place as L L^H, with no copy of H,
    and conj(H) conj(Delta) = -conj(G) is solved with the factor.  The
    factorization overwrites H, which loses nothing: H is A + B, gathered
    first on the permutation branch, and both A and B are still intact.  If
    it fails, H is re-formed from them and solved by LU, and by least
    squares if LU fails too.

    The factorization and the solve are the module's ``cho_factor`` and
    ``cho_solve``, looked up at each step.  The first call imports them from
    ``scipy.linalg``; importing the package loads no scipy module.

    Returns (Tr S, S, Newton steps), with S Hermitian.
    """
    global cho_factor, cho_solve
    if cho_solve is None:  # bound after cho_factor, so both are set once it is
        from scipy.linalg import cho_factor, cho_solve

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

    def form_system():
        # H = A + B, A gathered first on the permutation branch; A and B
        # survive the solve, so this re-forms H after a failed factorization
        if perm is None:
            np.add(A, B, out=H)
        else:
            # mode="raise" would buffer the output; flat is in range
            np.take(A, flat, out=H, mode="wrap")
            np.add(H, B, out=H)

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

    while True:
        for _ in range(_BARRIER_MAX_NEWTON):
            inv1, inv2, inv3 = (herm_part(np.linalg.inv(b)) for b in blocks(S))
            g = (t * eye - apply_map(inv1 + inv2) - inv3).reshape(-1)
            _kron_into(inv1, A)
            _kron_into(inv2, B)
            A += B
            _kron_into(inv3, B)
            if perm is None:
                np.matmul(PmH, A, out=H)
                np.matmul(H, Pm, out=A)
            form_system()
            try:
                # H.T is the F-ordered conj(H): factor it in place
                factor = cho_factor(H.T, lower=True, overwrite_a=True, check_finite=False)
            except np.linalg.LinAlgError:
                form_system()  # the factorization overwrote H
                try:
                    delta = np.linalg.solve(H, -g)
                except np.linalg.LinAlgError:
                    delta = np.linalg.lstsq(H, -g, rcond=None)[0]
            else:
                # conj(H) conj(delta) = -conj(g)
                delta = cho_solve(factor, -g.conj(), check_finite=False).conj()
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

    return float(np.trace(S).real), S, total_newton


# ---------------------------------------------------------------------------
# public measures


def e_kappa(rho, cfg: SolverConfig = DEFAULT_CONFIG) -> MeasureResult:
    """Order-infinity endpoint via the semidefinite program: ``e_alpha`` at inf."""
    return e_alpha(rho, math.inf, cfg)


def e_alpha(rho, alpha: float, cfg: SolverConfig = DEFAULT_CONFIG) -> MeasureResult:
    """The interpolating measure at the given order, in bits: the one-order
    ``alpha_sweep``, so the order is checked before the state.

    Closed form at order 1, projected gradient for finite orders above 1, the
    SDP at order infinity.  PPT inputs short-circuit to exactly zero.
    """
    return alpha_sweep(rho, [alpha], cfg)[0]


def bracket(
    result: MeasureResult,
    X: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    lower: float,
    cfg: SolverConfig,
) -> tuple[float, float]:
    """Fill in the [order-1, order-infinity] bracket of a finite-order result
    and audit its value.

    X is the map's image P(rho) the engine solved on and ``lower`` its
    closed-form order-1 value.  The SDP upper endpoint is solved on X only
    when the config asks for it; the lower endpoint is always checked.
    """
    upper = math.log2(_kappa_core(X, apply_map)[0]) if cfg.with_bracket else math.inf
    _check_bracket(result, lower, upper, cfg.value_tol)
    return lower, upper


def _check_bracket(result: MeasureResult, lower: float, upper: float, value_tol: float) -> None:
    """Set ``result.bracket``; a converged value outside it by more than
    ``value_tol`` is marked unconverged, with a diagnostic."""
    result.bracket = (lower, upper)
    if result.converged and not (lower - value_tol <= result.value_bits <= upper + value_tol):
        result.converged = False
        result.diagnostic = (
            f"value {result.value_bits:.6f} escapes bracket "
            f"[{lower:.6f}, {upper:.6f}] beyond value_tol {value_tol:g}"
        )


def alpha_sweep(rho, alphas: Sequence[float], cfg: SolverConfig = DEFAULT_CONFIG) -> list[MeasureResult]:
    """Measure values over an ascending grid of orders, with an ordering audit.

    Checks the orders, then the state, and hands the grid to the engine
    ``resource._measure`` with X = T_B(rho), the map T_B and the order-1 value,
    each computed once for the grid; the engine warm-starts each finite order
    from the previous one and runs the ordering audit.
    """
    # imported here: resource imports this module
    from .resource import _measure

    alphas = [check_alpha(a) for a in alphas]
    if any(b < a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("orders must be sorted ascending")
    rho = as_state(rho)
    X = partial_transpose(rho.matrix, rho.dims, "B")
    return _measure(rho.dims, X, _pt(rho.dims), log_negativity(rho), alphas, cfg)


def audit_monotonicity(results: Sequence[MeasureResult], value_tol: float) -> list[tuple[int, int]]:
    """Indices (i, i+1) where the sweep violates monotonicity beyond 2*value_tol."""
    bad = []
    for i in range(len(results) - 1):
        if results[i].value_bits > results[i + 1].value_bits + 2 * value_tol:
            bad.append((i, i + 1))
    return bad
