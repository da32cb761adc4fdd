"""Reference implementations that the tests compare the package against."""

import math
from typing import Sequence

import numpy as np

from alphaneg.divergence import check_alpha
from alphaneg.errors import (
    NegativeSpectrumError,
    NonHermitianError,
    NotPositiveDefiniteError,
    ZeroOperatorError,
)
from alphaneg.linalg import (
    HERMITICITY_TOL,
    SUPPORT_TOL,
    check_hermitian,
    frob_norm,
    herm_part,
    op_norm,
    schatten_norm,
)


def subsystem_transpose(M: np.ndarray, dims: Sequence[int], which: Sequence[int]) -> np.ndarray:
    """Transpose the chosen tensor factors of a multipartite operator."""
    dims = tuple(dims)
    n = len(dims)
    d = int(np.prod(dims))
    if M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    tens = M.reshape(dims + dims)
    axes = list(range(2 * n))
    for i in which:
        if not 0 <= i < n:
            raise ValueError(f"subsystem index {i} out of range for {n} factors")
        axes[i], axes[i + n] = axes[i + n], axes[i]
    return tens.transpose(axes).reshape(d, d)


def kraus_apply(ops, M: np.ndarray) -> np.ndarray:
    """sum_k K M K^dag over a list of Kraus operators."""
    return sum(k @ M @ k.conj().T for k in ops)


def kraus_choi(ops) -> np.ndarray:
    """Unnormalized Choi matrix of a Kraus set, reference first: the sum of
    w w^dag with w = vec(K^T), the image of the unnormalized Bell vector."""
    return sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in ops)


def extend_apply(apply, d_in: int, d_out: int, rho_ra: np.ndarray, d_ref: int) -> np.ndarray:
    """(id_R (x) N) on a block matrix over the reference index, applying the
    map N, ``apply``, to one d_in x d_in block at a time."""
    out = np.zeros((d_ref * d_out, d_ref * d_out), dtype=complex)
    for r in range(d_ref):
        for s in range(d_ref):
            block = rho_ra[r * d_in : (r + 1) * d_in, s * d_in : (s + 1) * d_in]
            out[r * d_out : (r + 1) * d_out, s * d_out : (s + 1) * d_out] = apply(block)
    return out


def _pd_power(sigma: np.ndarray, p: float) -> np.ndarray:
    w, v = np.linalg.eigh(sigma)
    if float(w[0]) <= 0:
        raise NotPositiveDefiniteError("conjugation base must be positive definite")
    return (v * w**p) @ v.conj().T


def gamma_conjugate(X: np.ndarray, sigma: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Conjugation Gamma_sigma(X) = sigma^(1/2) X sigma^(1/2), or its inverse,
    for positive definite sigma."""
    half = _pd_power(sigma, -0.5 if inverse else 0.5)
    Y = half @ X @ half
    return (Y + Y.conj().T) / 2


def weighted_norm(X: np.ndarray, sigma: np.ndarray, p: float) -> float:
    """Weighted Schatten norm ||sigma^(1/2p) X sigma^(1/2p)||_p of Hermitian X
    for positive definite sigma; at p = inf the weight drops out."""
    half = _pd_power(sigma, 0.0 if math.isinf(p) else 1.0 / (2 * p))
    mags = np.abs(np.linalg.eigvalsh(half @ X @ half))
    return float(mags.max() if math.isinf(p) else np.sum(mags**p) ** (1.0 / p))


# The Hermiticity guard before its exact first stage: a Frobenius pre-test,
# then the two-SVD rule, with the constants it was written with.
_PRETEST_MIN_BOUND = 1e-100
_PRETEST_MARGIN = 1 - 1e-12
_RESCALE_ABOVE = 2.0**512


def two_stage_check_hermitian(M: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """``linalg.check_hermitian`` as two stages: accept when
    ``||M - M^dag||_F <= tol * ||M||_F / sqrt(n)`` (with a floor and a
    rounding margin), else decide by ``||A||_2 <= tol * max(||M||_2, 1e-300)``;
    M is rescaled by a power of two when an entry passes 2**512."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {M.shape}")
    with np.errstate(over="ignore"):
        T, fro = M, frob_norm(M)
        if not fro <= _RESCALE_ABOVE:  # ||M||_F bounds every entry, and may be inf
            if not np.isfinite(M).all():
                raise NonHermitianError("matrix has non-finite entries")
            peak = max(float(np.abs(M.real).max()), float(np.abs(M.imag).max()))
            if peak > _RESCALE_ABOVE:
                T = M * 2.0 ** -math.frexp(peak)[1]
                fro = frob_norm(T)
        A = T - T.conj().T
        bound = tol * fro / math.sqrt(max(T.shape[0], 1))
        # written so that a NaN or infinite bound falls through to the SVD test
        passed = _PRETEST_MIN_BOUND <= bound < math.inf and frob_norm(A) <= _PRETEST_MARGIN * bound
    if not passed and not op_norm(A) <= tol * max(op_norm(T), 1e-300):
        raise NonHermitianError(
            f"matrix is not Hermitian within tolerance {tol:g}"
        )
    if T is M:
        return herm_part(M)
    return M / 2 + M.conj().T / 2  # halved first: M + M^dag can overflow up here


# The mu_alpha path that decomposed sigma twice: a support test through the
# support projector, then sigma^p, each from its own eigendecomposition.


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix within HERMITICITY_TOL, as
    ``numpy.linalg.eigh`` returns it: ascending eigenvalues and the unitary
    whose columns are the eigenvectors.

    The input is symmetrized before the decomposition, so the reconstruction
    matches the symmetrized matrix to solver precision.
    """
    return np.linalg.eigh(check_hermitian(H))


def matrix_power_support(H: np.ndarray, p: float, tol: float = SUPPORT_TOL) -> np.ndarray:
    """Generalized matrix power of a PSD matrix, taken on its support.

    Eigenvalues at or below ``tol * lambda_max`` map to zero; the rest map to
    lambda^p (p = 0 gives the support projector, negative p the generalized
    inverse power).  A negative eigenvalue below ``-tol * lambda_max`` raises
    NegativeSpectrumError.
    """
    w, v = hermitian_eig(H)
    lam_max = float(np.max(np.abs(w))) if w.size else 0.0
    if w.size and float(w[0]) < -tol * lam_max:
        raise NegativeSpectrumError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    mask = np.abs(w) > tol * lam_max
    powered = np.zeros_like(w)
    powered[mask] = np.clip(w[mask], 0.0, None) ** p if p >= 0 else w[mask] ** p
    return herm_part((v * powered) @ v.conj().T)


def support_leq(X: np.ndarray, sigma: np.ndarray) -> bool:
    """True iff the support of Hermitian X lies inside that of PSD sigma, within
    ``SUPPORT_TOL``.  The support is ``matrix_power_support``'s, so a sigma with
    a negative eigenvalue beyond the tolerance raises NegativeSpectrumError."""
    X = check_hermitian(X)
    comp = np.eye(sigma.shape[0]) - matrix_power_support(sigma, 0.0)
    return op_norm(comp @ X @ comp) <= SUPPORT_TOL and op_norm(comp @ X) <= SUPPORT_TOL


def mu_alpha(X: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """``divergence.mu_alpha`` on that path, for pairs of one shape."""
    alpha = check_alpha(alpha)
    X = check_hermitian(X)
    sigma = check_hermitian(sigma)
    if not np.any(X):
        raise ZeroOperatorError("first argument is the zero operator")
    if not np.any(sigma):
        raise ZeroOperatorError("second argument is the zero operator")
    if not support_leq(X, sigma):
        return math.inf
    p = -0.5 if math.isinf(alpha) else (1 - alpha) / (2 * alpha)
    sp = matrix_power_support(sigma, p)
    return schatten_norm(sp @ X @ sp, alpha)
