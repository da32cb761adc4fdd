"""Divergence functionals on pairs of a Hermitian and a PSD operator.

The central object is

    mu_alpha(X || sigma) = || sigma^((1-alpha)/2alpha) X sigma^((1-alpha)/2alpha) ||_alpha

with the power taken on the support of sigma, and +inf whenever the support of
X is not contained in the support of sigma.  ``nu_alpha`` is its log2.  These
extend the sandwiched Renyi and max relative entropies to Hermitian first
arguments, which is exactly what negativity-style entanglement measures need:
the first argument is a partial transpose and may fail to be PSD.

One formula serves every order: the exponent p = (1-alpha)/(2alpha) is
exactly 0 at alpha=1, where sigma^0 on its support is the support projector,
and -1/2 at alpha=inf, where the Schatten norm is the operator norm.  The pair
is validated once, and one eigendecomposition of sigma gives both the support
decision and sigma^p (``linalg._support_power``).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphaOutOfRangeError, ZeroOperatorError
from .linalg import (
    _pt,
    _support_power,
    check_hermitian,
    herm_part,
    partial_transpose,
    schatten_norm,
)
from .states import STATE_ATOL, as_state

INF = math.inf


def check_alpha(alpha: float) -> float:
    """Validate an order parameter in [1, inf]; a bool is not an order."""
    if isinstance(alpha, (bool, np.bool_)) or not alpha >= 1:
        raise AlphaOutOfRangeError(f"order parameter must satisfy alpha >= 1, got {alpha}")
    return float(alpha)


def _check_pair(X: np.ndarray, sigma: np.ndarray):
    X = check_hermitian(X)
    sigma = check_hermitian(sigma)
    if not np.any(X):
        raise ZeroOperatorError("first argument is the zero operator")
    if not np.any(sigma):
        raise ZeroOperatorError("second argument is the zero operator")
    if X.shape != sigma.shape:
        raise ValueError(f"operator shapes do not match: {X.shape} vs {sigma.shape}")
    return X, sigma


def mu_alpha(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Weighted Schatten-alpha functional of Hermitian X relative to PSD sigma.

    Returns +inf when supp(X) is not contained in supp(sigma), and raises
    NegativeSpectrumError at every order when sigma has a negative eigenvalue
    beyond the support tolerance.
    """
    alpha = check_alpha(alpha)
    X, sigma = _check_pair(X, sigma)
    p = -0.5 if math.isinf(alpha) else (1 - alpha) / (2 * alpha)
    sp = _support_power(X, sigma, p)
    if sp is None:
        return INF
    return schatten_norm(sp @ X @ sp, alpha)


def nu_alpha(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """log2 of mu_alpha; +inf propagates."""
    return math.log2(mu_alpha(X, sigma, alpha))


def d_max(X: np.ndarray, sigma: np.ndarray) -> float:
    """Max relative entropy log2 inf{lam : -lam*sigma <= X <= lam*sigma}.

    Computed as the weighted operator norm on the support of sigma; equals
    nu_alpha at alpha=inf.
    """
    return nu_alpha(X, sigma, INF)


def sandwiched_renyi(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Sandwiched Renyi relative entropy (alpha/(alpha-1)) * nu_alpha, alpha > 1."""
    alpha = check_alpha(alpha)
    if alpha == 1:
        raise AlphaOutOfRangeError("sandwiched Renyi prefactor is singular at alpha = 1")
    factor = 1.0 if math.isinf(alpha) else alpha / (alpha - 1)
    return factor * nu_alpha(X, sigma, alpha)


def log_negativity(rho) -> float:
    """log2 of the trace norm of the partial transpose of a bipartite state."""
    rho = as_state(rho)
    pt = partial_transpose(rho.matrix, rho.dims, "B")
    return _log2_trace_norm(pt)


def _log2_trace_norm(X: np.ndarray) -> float:
    """The order-1 value max(0, log2 ||X||_1) of a map's image X of a state."""
    # a valid state has trace-norm >= 1 after a trace-preserving map; clamp the
    # rounding noise so free states report exactly zero
    return max(0.0, math.log2(schatten_norm(X, 1)))


def _free_abs(X: np.ndarray, apply_map) -> np.ndarray | None:
    """|X| / ||X||_1 when the map keeps it PSD, else None.

    X is a map's image P(rho) of a state.  The test is binegativity's:
    lambda_min(P(|X|)) >= -STATE_ATOL, read on the normalized matrix as
    lambda_min(P(|X| / ||X||_1)) >= -STATE_ATOL / ||X||_1.  A matrix this
    returns is a free state that attains the order-1 value at every order.
    """
    w, v = np.linalg.eigh(X)
    n1 = float(np.abs(w).sum())
    if not n1 > 0:
        return None
    cand = herm_part((v * np.abs(w)) @ v.conj().T / n1)
    if float(np.linalg.eigvalsh(apply_map(cand))[0]) >= -STATE_ATOL / n1:
        return cand
    return None


def binegativity_psd(rho) -> bool:
    """True iff the partial transpose of |T_B(rho)| is PSD, within STATE_ATOL.

    States with this property have one common value for the whole measure
    family (pure states, two-qubit states, Werner states among them).  The
    test is ``_free_abs``, and projected gradient starts from the matrix it
    returns, so a binegative state starts at its optimum.
    """
    rho = as_state(rho)
    pt = partial_transpose(rho.matrix, rho.dims, "B")
    return _free_abs(pt, _pt(rho.dims)) is not None


def classical_relative_entropy(p, q) -> float:
    """Sum of p(x) log2(p(x)/q(x)) with the convention 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if not (np.isfinite(p).all() and np.isfinite(q).all()):
        raise ValueError("weights must be finite")
    if np.any(q <= 0):
        raise ValueError("reference weights must be entrywise positive")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
