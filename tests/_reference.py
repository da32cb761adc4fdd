"""Reference implementations that the tests compare the package against."""

import math
from typing import Sequence

import numpy as np

from alphaneg.channels import SuperOperator
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


def superop_matrix(channel) -> np.ndarray:
    """Row-major superoperator matrix: a superoperator's own matrix, or
    sum_k K (x) conj(K) over a channel's Kraus operators."""
    if isinstance(channel, SuperOperator):
        return channel.matrix
    return sum(np.kron(k, k.conj()) for k in channel.kraus_ops)


def extend_apply(channel, rho_ra: np.ndarray, d_ref: int) -> np.ndarray:
    """(id_R (x) N) on a block matrix over the reference index, applying the
    channel to one d_in x d_in block at a time."""
    din, dout = channel.dim_in, channel.dim_out
    out = np.zeros((d_ref * dout, d_ref * dout), dtype=complex)
    for r in range(d_ref):
        for s in range(d_ref):
            block = rho_ra[r * din : (r + 1) * din, s * din : (s + 1) * din]
            out[r * dout : (r + 1) * dout, s * dout : (s + 1) * dout] = channel.apply(block)
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
