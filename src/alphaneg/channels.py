"""Channel representations, PPT-preserving instrument checks, channel measures.

Conventions: operators are vectorized row-major (``numpy`` C order), so the
superoperator of a Kraus set {K} is sum_k K (x) conj(K), and the Choi matrix
is the unnormalized (id (x) N) applied to d * (maximally entangled), with the
reference factor first.  The composite index is the row-major one used
everywhere else in the package.

One builder, ``_conjugated_choi``, gives the Choi matrix of P_out . N . P_in
for any maps on the input and output sides; ``is_cpptp``,
``is_cpptp_instrument`` and ``resource._check_free_operation`` are its uses.
One seeded multi-start Nelder-Mead search, ``_multistart_search``, serves
both ``channel_e_alpha`` and ``resource.r_alpha_channel``.

Channel JSON format: {"kind": "kraus" | "superop", "dims_in": [...],
"dims_out": [...], "data": ...} with the same [re, im] entry pairs as the
state format, parsed by the same parser.  ``dims_in``/``dims_out`` carry one
entry for a simple system or [dA, dB] for a declared bipartition (needed by
the PPT-preserving checks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy import optimize

from .errors import InvalidStateError, NotConvergedError, NotCpptpError, OutOfDomainError
from .linalg import (
    BipartitionDims,
    herm_part,
    op_norm,
    partial_trace,
    partial_transpose,
)
from .states import BipartiteState, _pairs_to_matrix, _positive_ints, swap_operator

_PROB_CUTOFF = 1e-8


def _parse_dims(spec) -> tuple[int, BipartitionDims | None]:
    """Total dimension plus the declared bipartition, if any, from a JSON
    dims entry: a positive int or a list of one or two of them."""
    dims = _positive_ints([spec] if isinstance(spec, int) else spec)
    if len(dims) == 1:
        return dims[0], None
    if len(dims) == 2:
        bp = BipartitionDims(*dims)
        return bp.total, bp
    raise ValueError(f"dims must have one or two entries, got {dims}")


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by Kraus operators (d_out x d_in each)."""

    kraus_ops: tuple[np.ndarray, ...]
    dim_in: int
    dim_out: int
    bipartition_in: BipartitionDims | None = None
    bipartition_out: BipartitionDims | None = None

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus_ops)
        if not ops:
            raise ValueError("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ValueError(
                    f"Kraus shape {k.shape} does not match {self.dim_out}x{self.dim_in}"
                )
        object.__setattr__(self, "kraus_ops", ops)

    def apply(self, M: np.ndarray) -> np.ndarray:
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for k in self.kraus_ops:
            out += k @ M @ k.conj().T
        return out

    def completeness_defect(self) -> float:
        """Operator-norm distance of sum K^dag K from the identity."""
        acc = sum(k.conj().T @ k for k in self.kraus_ops)
        return op_norm(acc - np.eye(self.dim_in))

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        return self.completeness_defect() <= tol

    def is_subnormalized(self, tol: float = 1e-9) -> bool:
        acc = sum(k.conj().T @ k for k in self.kraus_ops)
        return float(np.linalg.eigvalsh(herm_part(np.eye(self.dim_in) - acc))[0]) >= -tol


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on operators stored as a (d_out^2 x d_in^2) matrix over
    row-major vectorization; must be Hermiticity-preserving."""

    matrix: np.ndarray
    dim_in: int
    dim_out: int
    bipartition_in: BipartitionDims | None = None
    bipartition_out: BipartitionDims | None = None

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_out**2, self.dim_in**2):
            raise ValueError(
                f"superoperator shape {m.shape} does not match dims "
                f"{self.dim_out}^2 x {self.dim_in}^2"
            )
        object.__setattr__(self, "matrix", m)
        choi = choi_of(self)
        if op_norm(choi - choi.conj().T) > 1e-9 * max(1.0, op_norm(choi)):
            raise ValueError("superoperator is not Hermiticity-preserving")

    def apply(self, M: np.ndarray) -> np.ndarray:
        v = self.matrix @ np.asarray(M, dtype=complex).reshape(-1)
        return v.reshape(self.dim_out, self.dim_out)


Channel = KrausChannel | SuperOperator


def superop_matrix(channel: Channel) -> np.ndarray:
    if isinstance(channel, SuperOperator):
        return channel.matrix
    return sum(np.kron(k, k.conj()) for k in channel.kraus_ops)


def choi_of(channel: Channel) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij |i><j| (x) N(|i><j|), reference first."""
    din, dout = channel.dim_in, channel.dim_out
    if isinstance(channel, KrausChannel):
        J = np.zeros((din * dout, din * dout), dtype=complex)
        for k in channel.kraus_ops:
            w = k.T.reshape(-1)  # (id (x) K) applied to the unnormalized Bell vector
            J += np.outer(w, w.conj())
        return J
    s = channel.matrix.reshape(dout, dout, din, din)
    return s.transpose(2, 0, 3, 1).reshape(din * dout, din * dout)


def choi_is_tp(channel: Channel, tol: float = 1e-9) -> bool:
    J = choi_of(channel)
    marg = partial_trace(J, BipartitionDims(channel.dim_in, channel.dim_out), "B")
    return op_norm(marg - np.eye(channel.dim_in)) <= tol


def _require_bipartitions(channel: Channel) -> tuple[BipartitionDims, BipartitionDims]:
    if channel.bipartition_in is None or channel.bipartition_out is None:
        raise ValueError("the PPT-preserving check needs bipartitions on both sides")
    return channel.bipartition_in, channel.bipartition_out


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


def _cp_and_pt_conjugate_cp(channel: Channel, tol: float) -> bool:
    """N and T_B' . N . T_B are both completely positive, with the partial
    transposes taken on the declared input and output bipartitions."""
    J = choi_of(channel)
    scale = max(1.0, op_norm(J))
    if float(np.linalg.eigvalsh(herm_part(J))[0]) < -tol * scale:
        return False
    bin_, bout = _require_bipartitions(channel)
    Jt = _conjugated_choi(
        channel.apply,
        lambda m: partial_transpose(m, bin_, "B"),
        lambda m: partial_transpose(m, bout, "B"),
        channel.dim_in,
    )
    return float(np.linalg.eigvalsh(herm_part(Jt))[0]) >= -tol * scale


def is_cpptp(channel: Channel, tol: float = 1e-9) -> bool:
    """True iff the map is CPTP and stays completely positive after
    conjugation by the partial transposes on both sides."""
    return choi_is_tp(channel, tol) and _cp_and_pt_conjugate_cp(channel, tol)


@dataclass(frozen=True)
class Instrument:
    """Collection of CP maps whose sum is trace preserving."""

    elements: tuple[KrausChannel, ...]
    dims_in: BipartitionDims
    dims_out: BipartitionDims

    def __post_init__(self):
        elements = tuple(self.elements)
        if not elements:
            raise ValueError("an instrument needs at least one element")
        total = sum(
            (k.conj().T @ k for el in elements for k in el.kraus_ops),
            start=np.zeros((self.dims_in.total, self.dims_in.total), dtype=complex),
        )
        if op_norm(total - np.eye(self.dims_in.total)) > 1e-9:
            raise ValueError("instrument elements do not sum to a trace-preserving map")
        object.__setattr__(self, "elements", elements)

    def element_channels(self) -> list[KrausChannel]:
        return [
            replace(el, bipartition_in=self.dims_in, bipartition_out=self.dims_out)
            for el in self.elements
        ]


def is_cpptp_instrument(instr: Instrument, tol: float = 1e-9) -> bool:
    """Each element CP with CP partial-transpose conjugate, sum trace preserving."""
    return all(_cp_and_pt_conjugate_cp(el, tol) for el in instr.element_channels())


def instrument_outcomes(instr: Instrument, rho) -> list[tuple[float, BipartiteState]]:
    """Outcome probabilities and post-measurement states; near-zero-probability
    branches are dropped after the total probability has been verified."""
    from .states import as_state

    rho = as_state(rho)
    if rho.dims != instr.dims_in:
        raise InvalidStateError(
            f"state dims {rho.dims} do not match instrument input {instr.dims_in}"
        )
    raw = []
    for el in instr.elements:
        img = el.apply(rho.matrix)
        raw.append((float(np.trace(img).real), img))
    total = sum(p for p, _ in raw)
    if abs(total - 1.0) > 1e-9:
        raise NotCpptpError(f"outcome probabilities sum to {total}, not 1")
    out = []
    for p, img in raw:
        if p > _PROB_CUTOFF:
            out.append((p, BipartiteState(instr.dims_out, img / p)))
    return out


# ---------------------------------------------------------------------------
# channel-level measure


def _extend_apply(channel: Channel, rho_ra: np.ndarray, d_ref: int) -> np.ndarray:
    """(id_R (x) N) on a block matrix over the reference index."""
    din, dout = channel.dim_in, channel.dim_out
    out = np.zeros((d_ref * dout, d_ref * dout), dtype=complex)
    for r in range(d_ref):
        for s in range(d_ref):
            block = rho_ra[r * din : (r + 1) * din, s * din : (s + 1) * din]
            out[r * dout : (r + 1) * dout, s * dout : (s + 1) * dout] = channel.apply(block)
    return out


def channel_output_state(channel: Channel, psi_matrix: np.ndarray) -> BipartiteState:
    """Push the purification with amplitude matrix psi (reference x input)
    through the channel; returns the reference:output bipartite state."""
    d_ref, din = psi_matrix.shape
    if din != channel.dim_in:
        raise ValueError("amplitude matrix column count must match the channel input")
    v = psi_matrix.reshape(-1)
    rho_ra = np.outer(v, v.conj())
    out = herm_part(_extend_apply(channel, rho_ra, d_ref))
    return BipartiteState(BipartitionDims(d_ref, channel.dim_out), out)


def _multistart_search(objective, d: int, first_start: np.ndarray, cfg, with_details: bool):
    """Largest value of -objective found by Nelder-Mead over 2 d^2 real
    parameters, from ``first_start`` and then seeded random restarts.

    Returns the best value (and the search details when ``with_details``); a
    restart spread above ``value_tol`` is reported in the details rather than
    raised.
    """
    if d > 4:
        raise ValueError("channel search is desk-scale, input dimension must be <= 4")
    n = d * d
    rng = np.random.default_rng(cfg.seed)
    bests = []
    for restart in range(max(1, cfg.restarts)):
        x0 = first_start if restart == 0 else rng.standard_normal(2 * n)
        res = optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"maxiter": 300 * n, "xatol": 1e-5, "fatol": 1e-7},
        )
        bests.append(-res.fun)
    value = max(bests)
    if with_details:
        return value, {
            "restart_values": bests,
            "dispersion": value - min(bests),
            "dispersion_flag": value - min(bests) > cfg.value_tol,
        }
    return value


def channel_e_alpha(
    channel: Channel,
    alpha: float,
    cfg=None,
    with_details: bool = False,
):
    """Largest measure value over pure inputs with reference a copy of the input.

    Searches the 2 d_A^2 real amplitude parameters with ``_multistart_search``;
    the first restart starts at the maximally entangled input.
    """
    from .solver import DEFAULT_CONFIG, e_alpha

    cfg = cfg or DEFAULT_CONFIG
    d = channel.dim_in
    inner_cfg = replace(cfg, with_bracket=False)
    n = d * d

    def objective(x: np.ndarray) -> float:
        psi = (x[:n] + 1j * x[n:]).reshape(d, d)
        norm = np.linalg.norm(psi)
        if norm < 1e-8:
            return 1e6
        try:
            state = channel_output_state(channel, psi / norm)
            try:
                return -e_alpha(state, alpha, inner_cfg).value_bits
            except NotConvergedError as exc:
                return -exc.result.value_bits if exc.result else 1e6
        except InvalidStateError:
            return 1e6

    bell = np.concatenate([np.eye(d).reshape(-1) / math.sqrt(d), np.zeros(n)])
    return _multistart_search(objective, d, bell, cfg, with_details)


# ---------------------------------------------------------------------------
# named channel families


def werner_holevo_channel(p: float, d: int) -> SuperOperator:
    """Mixture of the two extreme swap-symmetric channels; the Choi state is
    the corresponding mixture of normalized (anti)symmetric projectors."""
    if d < 2:
        raise OutOfDomainError(f"local dimension must be >= 2, got {d}")
    if not 0 <= p <= 1:
        raise OutOfDomainError(f"mixing weight must lie in [0, 1], got {p}")
    vec_eye = np.eye(d).reshape(-1)
    trace_to_eye = np.outer(vec_eye, vec_eye)
    transpose_perm = swap_operator(d)
    s0 = (trace_to_eye + transpose_perm) / (d + 1)
    s1 = (trace_to_eye - transpose_perm) / (d - 1)
    return SuperOperator((1 - p) * s0 + p * s1, dim_in=d, dim_out=d)


def werner_holevo_value(p: float, d: int) -> float:
    """Closed-form channel measure value, identical for every order."""
    if d < 2:
        raise OutOfDomainError(f"local dimension must be >= 2, got {d}")
    if not 0 <= p <= 1:
        raise OutOfDomainError(f"mixing weight must lie in [0, 1], got {p}")
    if p <= 0.5:
        return 0.0
    return math.log2((2.0 / d) * (2.0 * p - 1.0) + 1.0)


def bosonic_value(kind: str, params: Sequence[float]) -> float:
    """Closed-form values for the three Gaussian channel families.

    thermal(eta, n_b):    log2((1+eta) / ((1-eta)(2 n_b + 1)))
    amplifier(g, n_b):    log2((g+1) / ((g-1)(2 n_b + 1)))
    additive(xi):         log2(1/xi)
    """
    params = [float(x) for x in params]
    if kind == "thermal":
        if len(params) != 2:
            raise OutOfDomainError("thermal channel takes (eta, n_b)")
        eta, nb = params
        if not 0 < eta < 1:
            raise OutOfDomainError(f"transmissivity must lie in (0, 1), got {eta}")
        if not 0 < nb < eta / (1 - eta):
            raise OutOfDomainError(
                f"thermal photon number must lie in (0, {eta / (1 - eta):g}), got {nb}"
            )
        return math.log2((1 + eta) / ((1 - eta) * (2 * nb + 1)))
    if kind == "amplifier":
        if len(params) != 2:
            raise OutOfDomainError("amplifier channel takes (g, n_b)")
        g, nb = params
        if not g > 1:
            raise OutOfDomainError(f"gain must exceed 1, got {g}")
        if not 0 < nb < 1 / (g - 1):
            raise OutOfDomainError(
                f"thermal photon number must lie in (0, {1 / (g - 1):g}), got {nb}"
            )
        return math.log2((g + 1) / ((g - 1) * (2 * nb + 1)))
    if kind == "additive":
        if len(params) != 1:
            raise OutOfDomainError("additive-noise channel takes (xi,)")
        (xi,) = params
        if not 0 < xi < 1:
            raise OutOfDomainError(f"noise variance must lie in (0, 1), got {xi}")
        return math.log2(1 / xi)
    raise OutOfDomainError(f"unknown channel family {kind!r}")


# ---------------------------------------------------------------------------
# generators and JSON interchange


def random_kraus_channel(d_in: int, d_out: int, n_kraus: int, seed: int) -> KrausChannel:
    """Haar-style random CPTP map from a random isometry split into blocks."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n_kraus * d_out, d_in)) + 1j * rng.standard_normal(
        (n_kraus * d_out, d_in)
    )
    q, _ = np.linalg.qr(g)
    ops = [q[i * d_out : (i + 1) * d_out, :] for i in range(n_kraus)]
    return KrausChannel(tuple(ops), d_in, d_out)


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
        elements.append(KrausChannel(tuple(ops), dims.total, dims.total))
    return Instrument(tuple(elements), dims, dims)


def channel_from_json(payload: dict) -> Channel:
    """Parse the channel JSON object; every malformed payload raises
    ValueError("malformed channel JSON: ...")."""
    try:
        kind = payload["kind"]
        din, bin_ = _parse_dims(payload["dims_in"])
        dout, bout = _parse_dims(payload["dims_out"])
        data = payload["data"]
        if kind == "kraus":
            ops = tuple(_pairs_to_matrix(m) for m in data)
            return KrausChannel(ops, din, dout, bin_, bout)
        if kind == "superop":
            return SuperOperator(_pairs_to_matrix(data), din, dout, bin_, bout)
        raise ValueError(f"unknown channel kind {kind!r}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed channel JSON: {exc}") from exc


def load_channel(path) -> Channel:
    with open(path, "r", encoding="utf-8") as fh:
        return channel_from_json(json.load(fh))
