"""Geometry of the PPT set: membership, interior points, Frobenius projection.

The projection target is the intersection of three convex sets: the PSD cone,
the cone of operators with PSD partial transpose, and the unit-trace
hyperplane.  Plain cyclic projections do not converge to the nearest point of
an intersection, so the projection runs Dykstra's algorithm, which does.  The
partial-transpose cone projection uses that the partial transpose is a
Frobenius isometry and an involution, so T_B . psd_project . T_B is an exact
nearest-point map for that cone; the same holds for any map with those two
properties, which is what the generic resource solver exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotConvergedError
from .linalg import (
    BipartitionDims,
    check_hermitian,
    frob_norm,
    partial_transpose,
    psd_project,
)
from .states import BipartiteState


@dataclass(frozen=True)
class DykstraConfig:
    max_cycles: int = 10_000
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.residual_tol <= 0:
            raise ValueError("residual_tol must be positive")


DEFAULT_DYKSTRA = DykstraConfig()


def project_free_set(
    M: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    cfg: DykstraConfig = DEFAULT_DYKSTRA,
) -> np.ndarray:
    """Frobenius projection onto {X >= 0, map(X) >= 0, Tr X = 1} via Dykstra.

    ``apply_map`` must be a Hermiticity-preserving Frobenius-isometric
    involution (the partial transpose is the canonical case).  Raises
    NotConvergedError carrying the last iterate when the cycle displacement
    fails to drop below ``residual_tol``.
    """
    x = check_hermitian(M)
    d = x.shape[0]
    eye_over_d = np.eye(d) / d

    def proj_psd(y):
        return psd_project(y)

    def proj_map_psd(y):
        return apply_map(psd_project(apply_map(y)))

    def proj_trace(y):
        return y + (1.0 - np.trace(y).real) * eye_over_d

    projections = (proj_psd, proj_map_psd, proj_trace)
    corrections = [np.zeros_like(x) for _ in projections]

    for _ in range(cfg.max_cycles):
        start = x
        for i, proj in enumerate(projections):
            shifted = x + corrections[i]
            x = proj(shifted)
            corrections[i] = shifted - x
        residual = frob_norm(x - start)
        if residual < cfg.residual_tol:
            return x
    raise NotConvergedError(
        f"Dykstra projection did not reach residual {cfg.residual_tol:g} "
        f"in {cfg.max_cycles} cycles (last residual {residual:.3e})",
        iterate=x,
        residual=residual,
    )


def project_ppt(
    M: np.ndarray,
    dims: BipartitionDims,
    cfg: DykstraConfig = DEFAULT_DYKSTRA,
) -> BipartiteState:
    """Frobenius-nearest PPT state to a Hermitian operator."""
    x = project_free_set(M, lambda y: partial_transpose(y, dims, "B"), cfg)
    # the iterate can sit a hair outside the cones; snap the tiny negative
    # eigenvalue noise so the state validator accepts it
    x = psd_project(x)
    x = x / np.trace(x).real
    return BipartiteState(dims, x)


def interior_point(dims: BipartitionDims) -> BipartiteState:
    """The maximally mixed state, strictly inside both cones."""
    D = dims.total
    return BipartiteState(dims, np.eye(D, dtype=complex) / D)


def regularize(sigma: BipartiteState, eps: float) -> BipartiteState:
    """Mix with the maximally mixed state: (1-eps) sigma + eps I/D."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must lie strictly in (0, 1), got {eps}")
    D = sigma.dims.total
    m = (1 - eps) * sigma.matrix + eps * np.eye(D) / D
    return BipartiteState(sigma.dims, m)
