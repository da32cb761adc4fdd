"""Divergence functionals on pairs of a Hermitian and a PSD operator.

The central object is

    mu_alpha(X || sigma) = || sigma^((1-alpha)/2alpha) X sigma^((1-alpha)/2alpha) ||_alpha

with the power taken on the support of sigma, and +inf whenever the support of
X is not contained in the support of sigma.  ``nu_alpha`` is its log2.  These
extend the sandwiched Renyi and max relative entropies to Hermitian first
arguments, which is exactly what negativity-style entanglement measures need:
the first argument is a partial transpose and may fail to be PSD.

The order endpoints are handled by dedicated branches (support-projector
conjugation at alpha=1, the weighted operator norm at alpha=inf) instead of
evaluating the exponent near its singular limits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AlphaOutOfRangeError, NotPositiveDefiniteError, ZeroOperatorError
from .linalg import (
    check_hermitian,
    herm_part,
    hermitian_eig,
    matrix_power_support,
    op_norm,
    partial_transpose,
    schatten_norm,
    support_leq,
    support_projector,
)

INF = math.inf


def check_alpha(alpha: float) -> float:
    """Validate an order parameter in [1, inf]."""
    if not alpha >= 1:
        raise AlphaOutOfRangeError(f"order parameter must satisfy alpha >= 1, got {alpha}")
    return float(alpha)


def _check_pair(X: np.ndarray, sigma: np.ndarray):
    X = check_hermitian(X)
    sigma = check_hermitian(sigma)
    if not np.any(X):
        raise ZeroOperatorError("first argument is the zero operator")
    if not np.any(sigma):
        raise ZeroOperatorError("second argument is the zero operator")
    return X, sigma


def mu_alpha(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """Weighted Schatten-alpha functional of Hermitian X relative to PSD sigma.

    Returns +inf when supp(X) is not contained in supp(sigma).
    """
    alpha = check_alpha(alpha)
    X, sigma = _check_pair(X, sigma)
    if not support_leq(X, sigma):
        return INF
    if alpha == 1:
        proj = support_projector(sigma)
        return schatten_norm(proj @ X @ proj, 1)
    if math.isinf(alpha):
        inv_sqrt = matrix_power_support(sigma, -0.5)
        return schatten_norm(inv_sqrt @ X @ inv_sqrt, INF)
    p = (1 - alpha) / (2 * alpha)
    sp = matrix_power_support(sigma, p)
    return schatten_norm(sp @ X @ sp, alpha)


def nu_alpha(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """log2 of mu_alpha; +inf propagates."""
    mu = mu_alpha(X, sigma, alpha)
    if math.isinf(mu):
        return INF
    return math.log2(mu)


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
    nu = nu_alpha(X, sigma, alpha)
    if math.isinf(nu):
        return INF
    factor = 1.0 if math.isinf(alpha) else alpha / (alpha - 1)
    return factor * nu


def gamma_conjugate(X: np.ndarray, sigma: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Conjugation sigma^(1/2) X sigma^(1/2), or its inverse for PD sigma."""
    X = check_hermitian(X)
    w, v = hermitian_eig(sigma)
    if float(w[0]) <= 0:
        raise NotPositiveDefiniteError("conjugation base must be positive definite")
    half = (v * w ** (-0.5 if inverse else 0.5)) @ v.conj().T
    return herm_part(half @ X @ half)


def weighted_norm(X: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Weighted Schatten norm || sigma^(1/2p) X sigma^(1/2p) ||_p for PD sigma.

    At p = inf the weight drops out and this is the plain operator norm.
    """
    if p < 1:
        raise AlphaOutOfRangeError(f"norm order must be >= 1, got {p}")
    X = check_hermitian(X)
    w, v = hermitian_eig(sigma)
    if float(w[0]) <= 0:
        raise NotPositiveDefiniteError("weighted norm base must be positive definite")
    if math.isinf(p):
        return op_norm(X)
    half = (v * w ** (1.0 / (2 * p))) @ v.conj().T
    return schatten_norm(half @ X @ half, p)


def log_negativity(rho) -> float:
    """log2 of the trace norm of the partial transpose of a bipartite state."""
    from .states import as_state

    rho = as_state(rho)
    pt = partial_transpose(rho.matrix, rho.dims, "B")
    # a valid state has trace-norm >= 1 after partial transposition; clamp the
    # rounding noise so PPT states report exactly zero
    return max(0.0, math.log2(schatten_norm(pt, 1)))


def binegativity_psd(rho, tol: float = 1e-9) -> bool:
    """True iff the partial transpose of |T_B(rho)| is PSD.

    States with this property have one common value for the whole measure
    family (pure states, two-qubit states, Werner states among them).
    """
    from .states import as_state

    rho = as_state(rho)
    pt = partial_transpose(rho.matrix, rho.dims, "B")
    w, v = hermitian_eig(pt)
    absolute = (v * np.abs(w)) @ v.conj().T
    back = partial_transpose(herm_part(absolute), rho.dims, "B")
    return float(np.linalg.eigvalsh(back)[0]) >= -tol


def classical_relative_entropy(p, q) -> float:
    """Sum of p(x) log2(p(x)/q(x)) with the convention 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    if np.any(q <= 0):
        raise ValueError("reference weights must be entrywise positive")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    mask = p > 0
    return float(np.sum(p[mask] * np.log2(p[mask] / q[mask])))
