"""Geometry of the PPT set: interior points and the Frobenius projection.

Membership is ``states.ppt_membership``.  The projection target is the
intersection of three convex sets: the PSD cone, the cone of operators with
PSD partial transpose, and the unit-trace hyperplane.  Plain cyclic
projections do not converge to the nearest point of an intersection, so the
projection runs Dykstra's algorithm, which does.  The partial-transpose cone
projection uses that the partial transpose is a Frobenius isometry and an
involution, so T_B . psd_project . T_B is an exact nearest-point map for that
cone; the same holds for any map with those two properties, which is what the
generic resource solver exploits.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import NotConvergedError
from .linalg import (
    BipartitionDims,
    _pt,
    check_hermitian,
    frob_norm,
    herm_part,
    psd_project,
)
from .states import BipartiteState

# Dykstra budget of ``project_ppt``.
_MAX_CYCLES = 10_000
_RESIDUAL_TOL = 1e-10


def project_free_set(
    M: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    max_cycles: int,
    residual_tol: float,
) -> np.ndarray:
    """Frobenius projection onto {X >= 0, map(X) >= 0, Tr X = 1} via Dykstra.

    ``apply_map`` must be a Hermiticity-preserving Frobenius-isometric
    involution (the partial transpose is the canonical case).  The budget is
    ``max_cycles`` Dykstra cycles.  Each cycle projects onto the PSD cone,
    onto the map's cone as map . psd_project . map, and onto the unit-trace
    hyperplane, in that order, each step with its own correction; so every
    cycle calls ``psd_project`` exactly twice.  The projection returns once a
    cycle moves the iterate by less than ``residual_tol`` in Frobenius norm.
    Raises NotConvergedError carrying the last iterate when no cycle within
    the budget does.  M must be Hermitian: callers validate caller input
    (``project_ppt`` does), and the Hermitian part taken here only absorbs
    rounding.
    """
    x = herm_part(M)
    eye_over_d = np.eye(x.shape[0]) / x.shape[0]
    # the corrections of the PSD, map-cone and trace steps
    c_psd = c_map = c_trace = np.zeros_like(x)
    residual = math.inf

    for _ in range(max_cycles):
        start = x
        shifted = x + c_psd
        x = psd_project(shifted)
        c_psd = shifted - x
        shifted = x + c_map
        x = apply_map(psd_project(apply_map(shifted)))
        c_map = shifted - x
        shifted = x + c_trace
        x = shifted + (1.0 - np.trace(shifted).real) * eye_over_d
        c_trace = shifted - x
        residual = frob_norm(x - start)
        if residual < residual_tol:
            return x
    raise NotConvergedError(
        f"Dykstra projection did not reach residual {residual_tol:g} "
        f"in {max_cycles} cycles (last residual {residual:.3e})",
        iterate=x,
        residual=residual,
    )


def project_ppt(M: np.ndarray, dims: BipartitionDims) -> BipartiteState:
    """Frobenius-nearest PPT state to a Hermitian operator."""
    x = project_free_set(check_hermitian(M), _pt(dims), _MAX_CYCLES, _RESIDUAL_TOL)
    # the iterate can sit a hair outside the cones; snap the tiny negative
    # eigenvalue noise so the state validator accepts it
    x = psd_project(x)
    x = x / np.trace(x).real
    return BipartiteState(dims, x)


@functools.cache
def interior_point(dims: BipartitionDims) -> BipartiteState:
    """The maximally mixed state, strictly inside both cones.

    Built and validated once per ``dims``: every call with equal ``dims``
    returns the same object, whose matrix is read-only.
    """
    D = dims.total
    sigma = BipartiteState(dims, np.eye(D, dtype=complex) / D)
    sigma.matrix.flags.writeable = False
    return sigma


def regularize(sigma: BipartiteState, eps: float) -> BipartiteState:
    """Mix with the maximally mixed state: (1-eps) sigma + eps I/D."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly in (0, 1), got {eps}")
    D = sigma.dims.total
    m = (1 - eps) * sigma.matrix + eps * np.eye(D) / D
    return BipartiteState(sigma.dims, m)
