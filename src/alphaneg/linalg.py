"""Dense complex Hermitian linear-algebra kernel.

Everything downstream (divergences, projections, solvers) is spectral, so this
module owns the conventions:

* the composite index of a bipartite system is row-major, (a, b) -> a * dB + b,
  matching ``numpy.kron``;
* Hermitian inputs are symmetrized to (H + H^dag)/2 once the Hermiticity
  tolerance has passed, so spectral code never sees asymmetry noise.  The
  tolerance is stated in operator norms.  ``check_hermitian`` decides in two
  stages: an exactly Hermitian matrix of moderate entries (such as the
  iterates of the projections) passes one entrywise comparison, and every
  other matrix gets the two SVDs, so it accepts exactly what the SVD test
  accepts;
* ``_support_power`` makes the one support decision from one decomposition of
  sigma: eigenvalues at or below ``SUPPORT_TOL * lambda_max`` count as zero,
  and sigma^p on that support comes only for an X inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    AlphaOutOfRangeError,
    NegativeSpectrumError,
    NonHermitianError,
)

SUPPORT_TOL = 1e-10
HERMITICITY_TOL = 1e-9
# Above this entry size check_hermitian tests M scaled by a power of two, since
# LAPACK's SVD overflows on entries near the float limit.
_RESCALE_ABOVE = 2.0**512


@dataclass(frozen=True)
class BipartitionDims:
    """The A:B split of a composite space of dimension dA * dB."""

    dA: int
    dB: int

    def __post_init__(self):
        if self.dA < 1 or self.dB < 1:
            raise ValueError(f"dimensions must be positive, got {self.dA}x{self.dB}")

    @property
    def total(self) -> int:
        return self.dA * self.dB


def herm_part(M: np.ndarray) -> np.ndarray:
    """Hermitian part (M + M^dag)/2."""
    return (M + M.conj().T) / 2


def op_norm(M: np.ndarray) -> float:
    """Operator (largest singular value) norm."""
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))


def frob_norm(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def check_hermitian(M: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate Hermiticity within ``tol`` (relative to the operator norm) and
    return the symmetrized matrix.

    The rule is ``||A||_2 <= tol * max(||M||_2, 1e-300)`` with A = M - M^dag,
    decided in two stages that accept exactly what the second alone would.
    Both read one value, the largest entry modulus of M, which is inf or NaN
    when an entry is not finite.

    1. A matrix equal to M^dag entry for entry (compared by value, so NaN
       fails and -0.0 equals 0.0) with every entry modulus at most 2**512
       has A = 0, which every ``tol >= 0`` accepts; it is accepted at once.
    2. Every other matrix gets the two-SVD test, so the accepted set, the
       error and the returned bits are those of the SVD test alone.

    An entry modulus above 2**512, or not a number, calls for the rest of
    the checks: non-finite entries are rejected, and when the largest real
    or imaginary part exceeds 2**512 the SVD test runs on M * 2**-e, with e
    its binary exponent.  The scaling is exact and the rule is relative, so
    the decision is unchanged, where the unscaled SVD could overflow to inf
    and accept.  A NaN norm (M - M^dag overflowing) fails the SVD test.  The
    returned matrix is herm_part(M), halved before the sum on that rescaled
    path so that it stays finite.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {M.shape}")
    size = float(np.abs(M).max(initial=0.0))
    if size <= _RESCALE_ABOVE and tol >= 0:
        adj = M.conj().T
        if (M == adj).all():
            return (M + adj) / 2  # herm_part(M), sharing the one M^dag
    T = M
    if not size <= _RESCALE_ABOVE:  # also taken when size is NaN
        if not np.isfinite(M).all():
            raise NonHermitianError("matrix has non-finite entries")
        peak = max(float(np.abs(M.real).max()), float(np.abs(M.imag).max()))
        if peak > _RESCALE_ABOVE:
            T = M * 2.0 ** -math.frexp(peak)[1]
    if not op_norm(T - T.conj().T) <= tol * max(op_norm(T), 1e-300):
        raise NonHermitianError(
            f"matrix is not Hermitian within tolerance {tol:g}"
        )
    if T is M:
        return herm_part(M)
    return M / 2 + M.conj().T / 2  # halved first: M + M^dag can overflow up here


def tensor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with composite index (a, b) -> a * dB + b."""
    return np.kron(np.asarray(A), np.asarray(B))


def permute_subsystems(M: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so that new factor i is old factor perm[i]."""
    dims = tuple(dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    d = int(np.prod(dims))
    if M.shape != (d, d):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    tens = M.reshape(dims + dims)
    axes = list(perm) + [p + n for p in perm]
    new_dims = tuple(dims[p] for p in perm)
    return tens.transpose(axes).reshape(int(np.prod(new_dims)), -1)


def partial_transpose(M: np.ndarray, dims: BipartitionDims, subsystem: str = "B") -> np.ndarray:
    """Partial transpose over the named subsystem of a bipartite operator."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    axes = {"A": (2, 1, 0, 3), "B": (0, 3, 2, 1)}.get(subsystem)
    if axes is None:
        raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")
    return M.reshape(dims.dA, dims.dB, dims.dA, dims.dB).transpose(axes).reshape(M.shape)


def _pt(dims: BipartitionDims) -> Callable[[np.ndarray], np.ndarray]:
    """T_B on ``dims`` as a map, the one partial-transpose callable."""
    return lambda m: partial_transpose(m, dims, "B")


def partial_trace(M: np.ndarray, dims: BipartitionDims, subsystem: str = "B") -> np.ndarray:
    """Trace out the named subsystem; preserves the total trace."""
    M = np.asarray(M, dtype=complex)
    if M.shape != (dims.total, dims.total):
        raise ValueError(f"matrix shape {M.shape} does not match dims {dims}")
    tens = M.reshape(dims.dA, dims.dB, dims.dA, dims.dB)
    if subsystem == "B":
        return np.einsum("abcb->ac", tens)
    if subsystem == "A":
        return np.einsum("abad->bd", tens)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def _conjugated_choi(apply, p_in, p_out, d_in: int) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) (P_out . N . P_in)(|i><j|), reference first.

    N is ``apply``; the maps P_in and P_out act on the input and output
    spaces.  They are trusted on Hermitian inputs only, so the composite M is
    applied to the Hermitian basis E_ii, H1 = E_ij + E_ji, H2 = i(E_ij - E_ji)
    (i < j) alone.  The image of E_ij is then (M(H1) - i M(H2)) / 2, the
    unique complex-linear extension of the Hermiticity-preserving map M.
    """

    def m(x):
        return p_out(apply(p_in(x)))

    def unit(i, j):
        e = np.zeros((d_in, d_in), dtype=complex)
        e[i, j] = 1.0
        return e

    blocks = [[None] * d_in for _ in range(d_in)]
    for i in range(d_in):
        blocks[i][i] = m(unit(i, i))
        for j in range(i + 1, d_in):
            m1 = m(unit(i, j) + unit(j, i))
            m2 = m(1j * (unit(i, j) - unit(j, i)))
            blocks[i][j] = (m1 - 1j * m2) / 2
            blocks[j][i] = (m1 + 1j * m2) / 2
    return np.block(blocks)


def _permutation_of(P: np.ndarray) -> np.ndarray | None:
    """The index array perm with P[perm[j], j] == 1 when the square matrix P
    is exactly a permutation matrix (one entry exactly 1 in each column, each
    row hit once, every other entry exactly 0); None for any other matrix.

    For such P, (P^H M P)[i, j] == M[perm[i], perm[j]].
    """
    n = P.shape[0]
    if P.shape != (n, n) or np.count_nonzero(P) != n:
        return None
    perm = np.argmax(P != 0, axis=0)
    if not np.all(P[perm, np.arange(n)] == 1) or np.unique(perm).size != n:
        return None
    return perm


def schatten_norm(M: np.ndarray, alpha: float) -> float:
    """Schatten norm (sum of singular values^alpha)^(1/alpha); alpha=inf gives
    the operator norm."""
    if isinstance(alpha, (bool, np.bool_)) or not alpha >= 1:
        raise AlphaOutOfRangeError(f"Schatten order must be >= 1, got {alpha}")
    s = np.linalg.svd(np.asarray(M, dtype=complex), compute_uv=False)
    if np.isinf(alpha):
        return float(s[0]) if s.size else 0.0
    if alpha == 1:
        return float(np.sum(s))
    smax = float(s[0]) if s.size else 0.0
    if smax == 0.0:
        return 0.0
    # factor out the largest singular value to avoid overflow at large alpha
    return smax * float(np.sum((s / smax) ** alpha)) ** (1.0 / alpha)


def _support_power(X: np.ndarray, sigma: np.ndarray, p: float) -> np.ndarray | None:
    """sigma^p on the support of PSD sigma, or None when the support of
    Hermitian X is not inside it; X and sigma are a validated pair of one shape.

    Eigenvalues at or below ``SUPPORT_TOL * lambda_max`` count as zero, so
    p = 0 gives the support projector P, and X is inside the support when
    ||(1-P) X (1-P)||_2 and ||(1-P) X||_2 are both at most ``SUPPORT_TOL``.
    A negative eigenvalue below ``-SUPPORT_TOL * lambda_max`` raises
    NegativeSpectrumError first.
    """
    w, v = np.linalg.eigh(sigma)
    lam_max = float(np.max(np.abs(w)))
    if float(w[0]) < -SUPPORT_TOL * lam_max:
        raise NegativeSpectrumError(
            f"matrix has negative eigenvalue {w[0]:.3e} beyond tolerance"
        )
    mask = np.abs(w) > SUPPORT_TOL * lam_max
    comp = np.eye(w.size) - herm_part((v * mask) @ v.conj().T)
    if not (op_norm(comp @ X @ comp) <= SUPPORT_TOL and op_norm(comp @ X) <= SUPPORT_TOL):
        return None
    powered = np.zeros_like(w)
    powered[mask] = w[mask] ** p  # the kept eigenvalues are positive
    return herm_part((v * powered) @ v.conj().T)


def psd_project(H: np.ndarray) -> np.ndarray:
    """Frobenius-nearest positive semi-definite matrix (eigenvalue clipping).

    H passes ``check_hermitian`` first, so an exactly Hermitian iterate costs
    one entrywise comparison before the eigendecomposition.
    """
    w, v = np.linalg.eigh(check_hermitian(H))
    P = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return (P + P.conj().T) / 2


def _power_gradient_from_eig(
    w: np.ndarray, v: np.ndarray, p: float, weight: np.ndarray
) -> np.ndarray:
    """Adjoint Frechet derivative of sigma -> sigma^p given sigma's spectrum.

    Uses the first divided differences of x -> x^p on the eigenvalues; nearly
    degenerate pairs fall back to the analytic derivative at the midpoint.
    """
    wp = w**p
    diff = w[:, None] - w[None, :]
    near = np.abs(diff) <= 1e-8 * np.maximum(np.abs(w[:, None]), np.abs(w[None, :]))
    mid = (w[:, None] + w[None, :]) / 2
    table = np.where(near, p * mid ** (p - 1), (wp[:, None] - wp[None, :]) / np.where(near, 1.0, diff))
    wh = v.conj().T @ herm_part(weight) @ v
    return herm_part(v @ (table * wh) @ v.conj().T)
