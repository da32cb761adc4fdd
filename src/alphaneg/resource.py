"""Generalized measures: any positive map in place of the partial transpose.

The free set is {sigma : sigma >= 0, P(sigma) >= 0, Tr sigma = 1} and the
measure is the infimum over it of the order-alpha divergence of P(rho).  This
module holds the one measure engine, ``_measure``, which solves an ascending
grid of orders on one P(rho): the free-input short-circuit, tested once per
grid, the closed form at order 1, projected gradient between, warm-started
from the previous finite order, and the barrier SDP at order infinity, then
the ordering audit across the grid.  Every result gets the one bracket audit
of ``solver``: a finite-order result goes through ``solver.bracket``, which
solves the SDP upper endpoint on the engine's own P(rho) when the config
asks for it, and the SDP value, its own upper endpoint, is checked against
the closed-form lower one.  The engine has two callers: ``r_alpha``
validates a ``PositiveMapSpec`` and solves one order, and
``solver.alpha_sweep`` solves a grid with the partial transpose T_B, so the
entanglement measure is the T_B case of this one; ``solver.e_alpha`` is
``alpha_sweep`` at one order and ``solver.e_kappa`` is ``e_alpha`` at order
infinity.  Every outcome comes back in a ``MeasureResult``.  The engine's
P(rho) >= 0 test is the one free-state test; ``states.ppt_membership`` is the
same test for T_B.

A library caller builds the ``PositiveMapSpec`` it needs; ``builtin_map``
names only T_B, which is also the one map the CLI measures with.

The engine is sound exactly when P is a Hermiticity-preserving
trace-preserving involution that is also a Frobenius isometry: then
P . psd_project . P is an exact nearest-point map for the {P(sigma) >= 0}
cone and P is self-adjoint and unital, which the interior-point start relies
on.  ``PositiveMapSpec`` verifies these properties when it is built, so
maps without them are rejected rather than approximated.

An instrument is free when P . N . P is completely positive for each element
N: then N maps free states to free states, so the measure cannot increase on
average (for P = T_B this is the completely-PPT-preserving condition).  The
check is the one free-operation test, ``channels._cp_slack``, that
``is_cpptp`` and ``is_cpptp_instrument`` run with P = T_B, and the channel
measure ``r_alpha_channel`` uses the one channel search,
``channels._channel_search``, with input state Psi Psi^dag / ||Psi||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .channels import _CHOI_TOL, _channel_search, _cp_slack, instrument_outcomes
from .divergence import _log2_trace_norm, check_alpha
from .errors import CommutationFailedError, UnsupportedMapError
from .linalg import BipartitionDims, _pt, frob_norm, herm_part
from .pptgeom import interior_point, regularize
from .solver import (
    _EPS_FLOOR,
    DEFAULT_CONFIG,
    MeasureResult,
    SolverConfig,
    _check_bracket,
    _kappa_core,
    _pg_core,
    audit_monotonicity,
    bracket,
)
from .states import STATE_ATOL, BipartiteState, as_state

_VERIFY_SAMPLES = 20
_VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class PositiveMapSpec:
    """A map the measure engine can use, verified at construction time.

    On random Hermitian inputs the map must preserve Hermiticity and the
    trace, and be an involution and a Frobenius isometry; a map that fails
    any of these is rejected outright.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    dim: int
    name: str = "custom"

    def __post_init__(self):
        rng = np.random.default_rng(0xA1F)
        for _ in range(_VERIFY_SAMPLES):
            g = rng.standard_normal((self.dim, self.dim)) + 1j * rng.standard_normal(
                (self.dim, self.dim)
            )
            x = herm_part(g)
            scale = max(1.0, frob_norm(x))
            y = self.apply(x)
            if frob_norm(y - y.conj().T) > _VERIFY_TOL * scale:
                raise ValueError(f"map {self.name!r} is not Hermiticity-preserving")
            if abs(np.trace(y) - np.trace(x)) > _VERIFY_TOL * scale:
                raise ValueError(f"map {self.name!r} is not trace-preserving")
            if frob_norm(self.apply(y) - x) > _VERIFY_TOL * scale:
                raise ValueError(f"map {self.name!r} is not an involution")
            if abs(frob_norm(y) - frob_norm(x)) > _VERIFY_TOL * scale:
                raise ValueError(f"map {self.name!r} is not a Frobenius isometry")


def builtin_map(name: str, dims: BipartitionDims) -> PositiveMapSpec:
    """The one named built-in, "partial_transpose": T_B on the B factor of
    ``dims``.  Any other map is a ``PositiveMapSpec`` built by the caller."""
    if name == "partial_transpose":
        return PositiveMapSpec(apply=_pt(dims), dim=dims.total, name=name)
    raise UnsupportedMapError(f"unknown built-in map {name!r}")


def _require_dim(pmap: PositiveMapSpec, dim: int, what: str) -> None:
    if dim != pmap.dim:
        raise UnsupportedMapError(
            f"map dimension {pmap.dim} does not match {what} {dim}"
        )


def r_alpha(rho, pmap: PositiveMapSpec, alpha: float, cfg: SolverConfig = DEFAULT_CONFIG) -> MeasureResult:
    """Resourcefulness of a state with respect to the map, in bits."""
    alpha = check_alpha(alpha)
    rho = as_state(rho)
    _require_dim(pmap, rho.dims.total, "state dimension")
    X = herm_part(pmap.apply(rho.matrix))
    return _measure(rho.dims, X, pmap.apply, _log2_trace_norm(X), [alpha], cfg)[0]


def _measure(
    dims: BipartitionDims,
    X: np.ndarray,
    apply_map: Callable[[np.ndarray], np.ndarray],
    lower: float,
    alphas: list[float],
    cfg: SolverConfig,
) -> list[MeasureResult]:
    """The measure at each order of a validated, ascending grid, for a
    trusted map P.

    X is P(rho) and ``lower`` the closed-form order-1 value.  A free input
    (P(rho) >= 0) short-circuits every order to zero.  Otherwise order 1 is
    closed form, order infinity the SDP, certified by the free state
    P(S) / Tr S that attains it, and the orders between run projected
    gradient, which stops, converged, once its upper value is within
    ``solver._CERTIFIED_GAP`` bits of ``lower``.  Each finite order after
    the first may also start from the previous finite order's certificate,
    near the new optimum since the optimum moves continuously with the order
    (see ``solver._pg_core``).  ``solver.bracket`` fills in and checks the
    bracket of a converged finite-order result, on this X; the SDP value is
    its own upper endpoint and only gets the check.  An exhausted budget is
    returned, not raised, with ``converged`` False and a diagnostic, and the
    ordering audit notes each order whose value exceeds the next one's.
    """
    if float(np.linalg.eigvalsh(X)[0]) >= -STATE_ATOL:
        free = regularize(BipartiteState(dims, X), _EPS_FLOOR)
        diagnostic = "input is free; measure vanishes identically"
        return [MeasureResult(0.0, a, free, 0, True, (0.0, 0.0), diagnostic) for a in alphas]
    results = []
    start = None
    for alpha in alphas:
        if math.isinf(alpha):
            trace_val, S, iters = _kappa_core(X, apply_map)
            value = math.log2(trace_val)
            certificate = BipartiteState(dims, apply_map(S) / np.trace(S).real)
            result = MeasureResult(value, alpha, certificate, iters, True, (lower, value))
            _check_bracket(result, lower, value, cfg.value_tol)
        elif alpha == 1:
            result = MeasureResult(lower, 1.0, interior_point(dims), 0, True, (lower, math.inf))
            bracket(result, X, apply_map, lower, cfg)
        else:
            value, point, iters, ok = _pg_core(X, apply_map, alpha, cfg.max_iter, lower, start)
            result = MeasureResult(value, alpha, BipartiteState(dims, point), iters, ok, (lower, math.inf))
            start = result.certificate_sigma.matrix
            if ok:
                bracket(result, X, apply_map, lower, cfg)
            else:
                result.diagnostic = "projected gradient exhausted max_iter"
        results.append(result)
    for i, j in audit_monotonicity(results, cfg.value_tol):
        note = f"ordering audit: value at order {results[i].alpha} exceeds order {results[j].alpha}"
        results[i].diagnostic = (results[i].diagnostic + "; " + note).lstrip("; ")
    return results


def _check_free_operation(instr, pmap: PositiveMapSpec) -> None:
    """Raise unless P . N . P is completely positive for every element N,
    which ``Instrument`` has already found completely positive itself.

    Then N(sigma) >= 0 and P(N(sigma)) = (P . N . P)(P(sigma)) >= 0 for every
    free sigma: the instrument maps free states to free states.  For P = T_B
    this is the completely-PPT-preserving condition of ``is_cpptp_instrument``.
    """
    for idx, el in enumerate(instr.elements):
        slack = _cp_slack(el, pmap.apply, pmap.apply)
        if slack < -_CHOI_TOL:
            raise CommutationFailedError(
                f"instrument element {idx}: P . N . P is not completely positive "
                f"for map {pmap.name!r} (relative Choi eigenvalue {slack:.3g})"
            )


def free_instrument_monotonicity_check(
    instr, rho, pmap: PositiveMapSpec, alpha: float, cfg: SolverConfig = DEFAULT_CONFIG
) -> float:
    """Slack R(rho) - sum_x p(x) R(rho^x) for a free instrument.

    The instrument is free when P . N . P is completely positive for each
    element N; otherwise CommutationFailedError is raised.
    """
    _require_dim(pmap, instr.dims_in.total, "instrument input")
    _require_dim(pmap, instr.dims_out.total, "instrument output")
    _check_free_operation(instr, pmap)
    lhs = r_alpha(rho, pmap, alpha, cfg).value_bits
    rhs = 0.0
    for p, post in instrument_outcomes(instr, rho):
        rhs += p * r_alpha(post, pmap, alpha, cfg).value_bits
    return lhs - rhs


def r_alpha_channel(
    channel,
    pmap: PositiveMapSpec,
    alpha: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
) -> float:
    """Largest resourcefulness of N(Psi Psi^dag) over unit-norm amplitude
    matrices Psi, by the channel search ``channels._channel_search``."""
    check_alpha(alpha)
    _require_dim(pmap, channel.dim_out, "channel output")
    out_dims = channel.bipartition_out or BipartitionDims(1, channel.dim_out)
    inner_cfg = replace(cfg, with_bracket=False)

    def measure(psi: np.ndarray) -> float:
        state = BipartiteState(out_dims, herm_part(channel.apply(psi @ psi.conj().T)))
        return r_alpha(state, pmap, alpha, inner_cfg).value_bits

    return _channel_search(channel, measure, cfg, with_details=False)
