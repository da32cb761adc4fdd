"""Reference implementations that the tests compare the package against."""

import math
from typing import Sequence

import numpy as np

from alphaneg.errors import NotPositiveDefiniteError


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
