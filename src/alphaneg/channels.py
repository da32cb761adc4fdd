"""Channels, PPT-preserving instrument checks, channel measures.

Every channel is a ``SuperOperator``, a finite, Hermiticity-preserving
matrix over row-major (``numpy`` C order) vectorization; ``kraus_channel``
builds the one of a Kraus set {K}, sum_k K (x) conj(K).  The Choi matrix is
the unnormalized (id (x) N) applied to d * (maximally entangled), with the
reference factor first.  The composite index is the row-major one used
everywhere else in the package.

One free-operation test, ``_cp_slack``, serves ``is_cpptp`` and
``is_cpptp_instrument`` (with the partial transposes) and
``resource._check_free_operation`` (with any positive map); ``_is_cp``
tests the complete positivity of N itself, on its one Choi matrix, for
``is_cpptp``, ``Instrument`` elements and searched channels.  One
trace-preservation test, ``_tp_defect``, serves ``choi_is_tp`` and
``Instrument``.  Every Choi-matrix test reads the one ``_CHOI_TOL``.
One seeded multi-start Nelder-Mead search, ``_channel_search``, runs over
unit-norm amplitude matrices Psi for both channel measures:
``channel_e_alpha`` measures the output (Psi (x) I) J_N (Psi (x) I)^dag of
the pure input with reference, ``channel_output_state``, and
``resource.r_alpha_channel`` measures N applied to the input state
Psi Psi^dag / ||Psi||^2.  The simplex method is the package's own numpy
port, ``alphaneg.optimize``, so no search loads scipy; ``optimize`` is the
one name through which the search reaches ``minimize``.

A channel's JSON format: {"kind": "kraus" | "superop", "dims_in": [...],
"dims_out": [...], "data": ...} with the same [re, im] entry pairs as the
state format, parsed by the same parser.  ``dims_in``/``dims_out`` carry one
entry for a simple system or [dA, dB] for a declared bipartition (needed by
the PPT-preserving checks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import optimize
from .divergence import check_alpha
from .errors import InvalidStateError, OutOfDomainError
from .linalg import (
    _RESCALE_ABOVE,
    BipartitionDims,
    _conjugated_choi,
    _pt,
    herm_part,
    op_norm,
    partial_trace,
)
from .solver import DEFAULT_CONFIG, SolverConfig, e_alpha
from .states import BipartiteState, _pairs_to_matrix, as_state, swap_operator

_PROB_CUTOFF = 1e-8
_CHOI_TOL = 1e-9  # relative to max(1, ||J||), except for trace preservation


def _parse_dims(spec) -> tuple[int, BipartitionDims | None]:
    """Total dimension plus the declared bipartition, if any, from a JSON
    dims entry: a positive int or a list of one or two of them."""
    dims = [spec] if isinstance(spec, int) else list(spec)
    if len(dims) == 1:
        return BipartitionDims(dims[0], 1).total, None
    if len(dims) == 2:
        bp = BipartitionDims(*dims)
        return bp.total, bp
    raise ValueError(f"dims must have one or two entries, got {dims}")


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on operators stored as a (d_out^2 x d_in^2) matrix over
    row-major vectorization; its entries must be finite, the map
    Hermiticity-preserving, and a declared bipartition must split its side's
    dimension."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int
    bipartition_in: BipartitionDims | None = None
    bipartition_out: BipartitionDims | None = None

    def __post_init__(self):
        for side in ("dim_in", "dim_out"):  # the package's dimension rule
            object.__setattr__(self, side, BipartitionDims(getattr(self, side), 1).total)
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_out**2, self.dim_in**2):
            raise ValueError(
                f"superoperator shape {m.shape} does not match dims "
                f"{self.dim_out}^2 x {self.dim_in}^2"
            )
        if not np.isfinite(m).all():
            raise ValueError("superoperator entries must be finite")
        for side, dim, bp in (
            ("input", self.dim_in, self.bipartition_in),
            ("output", self.dim_out, self.bipartition_out),
        ):
            if bp is not None and bp.total != dim:
                raise ValueError(f"{side} bipartition {bp.dA}x{bp.dB} does not match dimension {dim}")
        object.__setattr__(self, "matrix", m)
        choi = choi_of(self)
        peak = max(float(np.abs(choi.real).max()), float(np.abs(choi.imag).max()))
        if peak > _RESCALE_ABOVE:  # exact, and the rule is relative up here: J - J^dag stays finite
            choi = choi * 2.0 ** -math.frexp(peak)[1]
        if op_norm(choi - choi.conj().T) > _CHOI_TOL * max(1.0, op_norm(choi)):
            raise ValueError("superoperator is not Hermiticity-preserving")

    def apply(self, M: np.ndarray) -> np.ndarray:
        v = self.matrix @ np.asarray(M, dtype=complex).reshape(-1)
        return v.reshape(self.dim_out, self.dim_out)


def kraus_channel(
    ops,
    dim_in: int,
    dim_out: int,
    bipartition_in: BipartitionDims | None = None,
    bipartition_out: BipartitionDims | None = None,
) -> SuperOperator:
    """Completely positive map X -> sum_k K X K^dag from Kraus operators
    (d_out x d_in each), as its superoperator sum_k K (x) conj(K)."""
    ops = [np.asarray(k, dtype=complex) for k in ops]
    if not ops:
        raise ValueError("a channel needs at least one Kraus operator")
    for k in ops:
        if k.shape != (dim_out, dim_in):
            raise ValueError(f"Kraus shape {k.shape} does not match {dim_out}x{dim_in}")
    # entries that overflow here are rejected by SuperOperator
    with np.errstate(over="ignore", invalid="ignore"):
        matrix = sum(np.kron(k, k.conj()) for k in ops)
    return SuperOperator(matrix, dim_in, dim_out, bipartition_in, bipartition_out)


def choi_of(channel: SuperOperator) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) N(|i><j|), reference first."""
    din, dout = channel.dim_in, channel.dim_out
    s = channel.matrix.reshape(dout, dout, din, din)
    return s.transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def _tp_defect(J: np.ndarray, d_in: int, d_out: int) -> float:
    """||Tr_out J - I||: zero exactly when J is the Choi matrix of a TP map."""
    return op_norm(partial_trace(J, BipartitionDims(d_in, d_out), "B") - np.eye(d_in))


def choi_is_tp(channel: SuperOperator) -> bool:
    return _tp_defect(choi_of(channel), channel.dim_in, channel.dim_out) <= _CHOI_TOL


def _cp_slack(channel: SuperOperator, p_in, p_out) -> float:
    """Smallest eigenvalue of the Choi matrix of P_out . N . P_in, relative to
    max(1, ||J_N||): the map counts as CP when it is at least -``_CHOI_TOL``.
    P_in and P_out are trusted on Hermitian inputs only."""
    J_conj = _conjugated_choi(channel.apply, p_in, p_out, channel.dim_in)
    return float(np.linalg.eigvalsh(herm_part(J_conj))[0]) / max(1.0, op_norm(choi_of(channel)))


def _is_cp(channel: SuperOperator) -> bool:
    J = choi_of(channel)
    return float(np.linalg.eigvalsh(herm_part(J))[0]) / max(1.0, op_norm(J)) >= -_CHOI_TOL


def is_cpptp(channel: SuperOperator) -> bool:
    """True iff the map is CPTP and stays completely positive after
    conjugation by the partial transposes on both sides.  A trace-preserving
    map without both bipartitions raises ValueError."""
    if not choi_is_tp(channel):
        return False
    bin_, bout = channel.bipartition_in, channel.bipartition_out
    if bin_ is None or bout is None:
        raise ValueError("the PPT-preserving check needs bipartitions on both sides")
    return _is_cp(channel) and _cp_slack(channel, _pt(bin_), _pt(bout)) >= -_CHOI_TOL


@dataclass(frozen=True)
class Instrument:
    """Collection of CP maps dims_in -> dims_out whose sum is trace preserving."""

    elements: tuple[SuperOperator, ...]
    dims_in: BipartitionDims
    dims_out: BipartitionDims

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("an instrument needs at least one element")
        din, dout = self.dims_in.total, self.dims_out.total
        for idx, el in enumerate(elements):
            if (el.dim_in, el.dim_out) != (din, dout):
                raise ValueError(f"instrument element {idx} is not a map C^{din} -> C^{dout}")
            if not _is_cp(el):
                raise ValueError(f"instrument element {idx} is not completely positive")
        if _tp_defect(sum(choi_of(el) for el in elements), din, dout) > _CHOI_TOL:
            raise ValueError("instrument elements do not sum to a trace-preserving map")
        object.__setattr__(self, "elements", elements)


def is_cpptp_instrument(instr: Instrument) -> bool:
    """Each element's partial-transpose conjugate CP; ``Instrument`` has
    already checked that each element is CP and that their sum is TP."""
    p_in, p_out = _pt(instr.dims_in), _pt(instr.dims_out)
    return all(_cp_slack(el, p_in, p_out) >= -_CHOI_TOL for el in instr.elements)


def instrument_outcomes(instr: Instrument, rho) -> list[tuple[float, BipartiteState]]:
    """Outcome probabilities and post-measurement states; near-zero-probability
    branches are dropped.  ``Instrument`` and ``BipartiteState`` have already
    checked trace preservation and the unit trace."""
    rho = as_state(rho)
    if rho.dims != instr.dims_in:
        raise InvalidStateError(
            f"state dims {rho.dims} do not match instrument input {instr.dims_in}"
        )
    out = []
    for el in instr.elements:
        img = el.apply(rho.matrix)
        p = float(np.trace(img).real)
        if p > _PROB_CUTOFF:
            out.append((p, BipartiteState(instr.dims_out, img / p)))
    return out


# ---------------------------------------------------------------------------
# channel-level measure


def channel_output_state(channel: SuperOperator, psi_matrix: np.ndarray) -> BipartiteState:
    """Push the purification with amplitude matrix psi (reference x input)
    through the channel; returns the reference:output bipartite state
    (psi (x) I) J_N (psi (x) I)^dag, with J_N the Choi matrix, contracted
    one input index at a time."""
    d_ref, din = psi_matrix.shape
    if din != channel.dim_in:
        raise ValueError("amplitude matrix column count must match the channel input")
    dout = channel.dim_out
    left = (psi_matrix @ choi_of(channel).reshape(din, -1)).reshape(d_ref * dout, din, dout)
    out = herm_part((psi_matrix.conj() @ left).reshape(d_ref * dout, d_ref * dout))
    return BipartiteState(BipartitionDims(d_ref, dout), out)


def _channel_search(channel: SuperOperator, measure, cfg, with_details: bool):
    """Largest ``measure(psi)`` over unit-norm d x d amplitude matrices psi,
    with d the channel's input dimension.

    The channel must be CPTP, or ValueError is raised, so that every input
    has a state as its image.  Seeded multi-start Nelder-Mead, through
    ``optimize.minimize`` looked up at call time, over the 2 d^2 real and
    imaginary parts of psi, normalized before ``measure`` sees it; the first
    restart starts at the maximally entangled I/sqrt(d), the others at
    standard normal points.  A near-zero psi, or one whose image fails the
    state checks, scores the penalty 1e6.  Returns the best value (and the
    search details when ``with_details``); a restart spread above
    ``value_tol`` is reported in the details rather than raised.
    """
    d = channel.dim_in
    if d > 4:
        raise OutOfDomainError(f"channel search is desk-scale, input dimension must be <= 4, got {d}")
    if not choi_is_tp(channel):
        raise ValueError("channel is not trace-preserving")
    if not _is_cp(channel):
        raise ValueError("channel is not completely positive")
    n = d * d

    def objective(x: np.ndarray) -> float:
        psi = (x[:n] + 1j * x[n:]).reshape(d, d)
        norm = np.linalg.norm(psi)
        if norm < 1e-8:
            return 1e6
        try:
            return -measure(psi / norm)
        except InvalidStateError:
            return 1e6

    bell = np.concatenate([np.eye(d).reshape(-1) / math.sqrt(d), np.zeros(n)])
    rng = np.random.default_rng(cfg.seed)
    bests = []
    for restart in range(cfg.restarts):
        x0 = bell if restart == 0 else rng.standard_normal(2 * n)
        bests.append(-optimize.minimize(objective, x0, maxiter=300 * n, xatol=1e-5, fatol=1e-7))
    value = max(bests)
    if with_details:
        return value, {
            "restart_values": bests,
            "dispersion": value - min(bests),
            "dispersion_flag": value - min(bests) > cfg.value_tol,
        }
    return value


def channel_e_alpha(
    channel: SuperOperator,
    alpha: float,
    cfg: SolverConfig = DEFAULT_CONFIG,
    with_details: bool = False,
):
    """Largest measure value over pure inputs with reference a copy of the input.

    ``_channel_search`` runs over the amplitude matrix Psi of the input; each
    evaluation measures the reference:output state of Psi.
    """
    check_alpha(alpha)
    inner_cfg = replace(cfg, with_bracket=False)
    return _channel_search(
        channel,
        lambda psi: e_alpha(channel_output_state(channel, psi), alpha, inner_cfg).value_bits,
        cfg,
        with_details,
    )


# ---------------------------------------------------------------------------
# named channel families


def _check_werner_holevo(p: float, d: int) -> None:
    if d < 2:
        raise OutOfDomainError(f"local dimension must be >= 2, got {d}")
    BipartitionDims(d, d)  # ValueError unless d is an integer
    if not 0 <= p <= 1:
        raise OutOfDomainError(f"mixing weight must lie in [0, 1], got {p}")


def werner_holevo_channel(p: float, d: int) -> SuperOperator:
    """Mixture of the two extreme swap-symmetric channels; the Choi state is
    the corresponding mixture of normalized (anti)symmetric projectors."""
    _check_werner_holevo(p, d)
    vec_eye = np.eye(d).reshape(-1)
    trace_to_eye = np.outer(vec_eye, vec_eye)
    transpose_perm = swap_operator(d)
    s0 = (trace_to_eye + transpose_perm) / (d + 1)
    s1 = (trace_to_eye - transpose_perm) / (d - 1)
    return SuperOperator((1 - p) * s0 + p * s1, dim_in=d, dim_out=d)


def werner_holevo_value(p: float, d: int) -> float:
    """Closed-form channel measure value, identical for every order."""
    _check_werner_holevo(p, d)
    if p <= 0.5:
        return 0.0
    return math.log2((2.0 / d) * (2.0 * p - 1.0) + 1.0)


# ---------------------------------------------------------------------------
# generators and JSON interchange


def random_kraus_channel(d_in: int, d_out: int, n_kraus: int, seed: int) -> SuperOperator:
    """Haar-style random CPTP map from a random isometry split into blocks."""
    d_in, d_out = (BipartitionDims(d, 1).total for d in (d_in, d_out))  # before numpy sees them
    if n_kraus * d_out < d_in:
        raise ValueError(
            f"an isometry from C^{d_in} needs n_kraus * d_out >= d_in, got {n_kraus} * {d_out}"
        )
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * d_out, d_in)) + 1j * rng.standard_normal(
        (n_kraus * d_out, d_in)
    )
    q, _ = np.linalg.qr(g)
    ops = [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]
    return kraus_channel(ops, d_in, d_out)


def random_local_instrument(
    dims: BipartitionDims, n_outcomes: int, seed: int, kraus_per_element: int = 1
) -> Instrument:
    """Instrument acting only on the B factor; PPT-preserving by construction."""
    rng = np.random.default_rng(seed)
    dB = dims.dB
    rows = n_outcomes * kraus_per_element * dB
    g = rng.standard_normal((rows, dB)) + 1j * rng.standard_normal((rows, dB))
    q, _ = np.linalg.qr(g)
    eye_a = np.eye(dims.dA)
    elements = []
    for x in range(n_outcomes):
        ops = []
        for m in range(kraus_per_element):
            k = q[(x * kraus_per_element + m) * dB : (x * kraus_per_element + m + 1) * dB, :]
            ops.append(np.kron(eye_a, k))
        elements.append(kraus_channel(ops, dims.total, dims.total))
    return Instrument(tuple(elements), dims, dims)


def channel_from_json(payload: dict) -> SuperOperator:
    """Parse the channel JSON object; every malformed payload raises
    ValueError("malformed channel JSON: ...")."""
    try:
        kind = payload["kind"]
        din, bin_ = _parse_dims(payload["dims_in"])
        dout, bout = _parse_dims(payload["dims_out"])
        data = payload["data"]
        if kind == "kraus":
            return kraus_channel([_pairs_to_matrix(m) for m in data], din, dout, bin_, bout)
        if kind == "superop":
            return SuperOperator(_pairs_to_matrix(data), din, dout, bin_, bout)
        raise ValueError(f"unknown channel kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc


def load_channel(path) -> SuperOperator:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json(json.load(fh))
