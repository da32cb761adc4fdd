"""Dense complex Hermitian linear-algebra kernel.

Everything downstream (divergences, projections, solvers) is spectral, so this
module owns the conventions:

* the composite index of a bipartite system is row-major, (a, b) -> a * dB + b,
  matching ``numpy.kron``;
* Hermitian inputs are symmetrized to (H + H^dag)/2 once the Hermiticity
  tolerance has passed, so spectral code never sees asymmetry noise.  The
  tolerance is stated in operator norms.  ``check_hermitian`` decides in up
  to three stages: an exactly Hermitian matrix of moderate norm (such as the
  iterates of the projections) passes one entrywise comparison, the rest
  meet a Frobenius-norm bound that implies the rule, and only what that
  bound cannot decide gets the two SVDs, so it accepts exactly what the SVD
  test accepts;
* ``matrix_power_support`` makes the one support decision: eigenvalues at or
  below ``tol * lambda_max`` count as zero, so sigma^0 is the support
  projector, which the support inclusion test ``support_leq`` reads too.
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
# Frobenius pre-test of check_hermitian: it needs a threshold large enough
# that squaring the entries of M - M^dag cannot underflow unnoticed, and it
# leaves a relative margin for the rounding of the two norm routines.
_PRETEST_MIN_BOUND = 1e-100
_PRETEST_MARGIN = 1 - 1e-12
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
    decided in three stages that accept exactly what the last one alone would.

    1. A matrix equal to M^dag entry for entry (compared by value, so NaN
       fails and -0.0 equals 0.0) with ``||M||_F`` at most 2**512 has A = 0,
       which every ``tol >= 0`` accepts; it is accepted at once.
    2. Since ``||A||_2 <= ||A||_F`` and ``||M||_2 >= ||M||_F / sqrt(n)``, the
       matrix is accepted when ``||A||_F <= tol * ||M||_F / sqrt(n)``, with
       that bound finite and at least ``_PRETEST_MIN_BOUND`` (below it the
       squares of A's entries can underflow to zero) and a margin for
       rounding.
    3. Every other matrix gets the two-SVD test, so the accepted set, the
       error and the returned bits are those of the SVD test alone.

    Non-finite entries make ``||M||_F`` inf or NaN and are rejected before
    stage 2, and a NaN norm (M - M^dag overflowing) fails the SVD test.  A
    Frobenius norm overflows to inf once an entry passes about 1e154, which
    every stage reads as intended, so numpy's overflow warning is silenced.
    When the largest real or imaginary part exceeds 2**512, stages 2 and 3
    run on M * 2**-e, with e its binary exponent: the scaling is exact and
    the rule is relative, so the decision is unchanged, where the unscaled
    SVD could overflow to inf and accept.  The returned matrix is
    herm_part(M), halved before the sum on that rescaled path so that it
    stays finite.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NonHermitianError(f"expected a square matrix, got shape {M.shape}")
    with np.errstate(over="ignore"):
        fro = frob_norm(M)
        if fro <= _RESCALE_ABOVE and tol >= 0:
            adj = M.conj().T
            if (M == adj).all():
                return (M + adj) / 2  # herm_part(M), sharing the one M^dag
        T = M
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


def hermitian_eig(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a Hermitian matrix within HERMITICITY_TOL, as
    ``numpy.linalg.eigh`` returns it: ascending eigenvalues and the unitary
    whose columns are the eigenvectors.

    The input is symmetrized before the decomposition, so the reconstruction
    matches the symmetrized matrix to solver precision.
    """
    return np.linalg.eigh(check_hermitian(H))


def schatten_norm(M: np.ndarray, alpha: float) -> float:
    """Schatten norm (sum of singular values^alpha)^(1/alpha); alpha=inf gives
    the operator norm."""
    if not alpha >= 1:
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
