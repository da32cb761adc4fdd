"""Constructors, validators and fixtures for bipartite states.

Every state is a ``BipartiteState``.  A multipartite example, such as the
no-monogamy fixture, is given as the bipartite states that get measured.

State JSON format (shared with the CLI): an object with "dims": [dA, dB] and
"matrix": D rows of D entries, each entry a [re, im] pair, row-major in the
composite index a * dB + b.  Parsers reject dims that are not positive
integers, entries that are not one pair of finite numbers, and non-Hermitian,
non-unit-trace or negative-spectrum inputs unless ``raw=True`` admits
arbitrary Hermitian operators.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import InvalidStateError
from .linalg import (
    BipartitionDims,
    check_hermitian,
    partial_transpose,
    permute_subsystems,
    tensor,
)

STATE_ATOL = 1e-9


@dataclass(frozen=True)
class BipartiteState:
    """Density operator with its A:B split; validated on construction."""

    dims: BipartitionDims
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dims.total, self.dims.total):
            raise InvalidStateError(
                f"matrix shape {m.shape} does not match dims {self.dims}"
            )
        try:
            m = check_hermitian(m, STATE_ATOL)
        except Exception as exc:
            raise InvalidStateError(f"state is not Hermitian: {exc}") from exc
        # written to fail on NaN, which symmetrizing entries near the float
        # limit produces
        tr = float(np.trace(m).real)
        if not abs(tr - 1.0) <= STATE_ATOL:
            raise InvalidStateError(f"state trace {tr} is not 1 within {STATE_ATOL:g}")
        lo = float(np.linalg.eigvalsh(m)[0])
        if not lo >= -STATE_ATOL:
            raise InvalidStateError(f"state has negative eigenvalue {lo:.3e}")
        object.__setattr__(self, "matrix", m)


def as_state(rho) -> BipartiteState:
    """Pass a BipartiteState through; anything else is an InvalidStateError."""
    if isinstance(rho, BipartiteState):
        return rho
    raise InvalidStateError(f"cannot interpret {type(rho).__name__} as a bipartite state")


def max_entangled(d: int) -> BipartiteState:
    """Maximally entangled state of Schmidt rank d on C^d x C^d."""
    if d < 2:
        raise ValueError(f"Schmidt rank must be >= 2, got {d}")
    dims = BipartitionDims(d, d)
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1 / np.sqrt(d)
    return BipartiteState(dims, np.outer(v, v.conj()))


def swap_operator(d: int) -> np.ndarray:
    """Unitary swap F on C^d x C^d: F|i,j> = |j,i>."""
    F = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            F[i * d + j, j * d + i] = 1.0
    return F


def werner_state(d: int, p: float) -> BipartiteState:
    """Mixture of the normalized symmetric and antisymmetric projectors.

    Weight 1-p on 2/(d(d+1)) * (I+F)/2 and weight p on 2/(d(d-1)) * (I-F)/2.
    PPT exactly for p <= 1/2.
    """
    if d < 2:
        raise ValueError(f"local dimension must be >= 2, got {d}")
    dims = BipartitionDims(d, d)
    if not 0 <= p <= 1:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    F = swap_operator(d)
    eye = np.eye(d * d)
    sym = (eye + F) / 2
    anti = (eye - F) / 2
    m = (1 - p) * 2 / (d * (d + 1)) * sym + p * 2 / (d * (d - 1)) * anti
    return BipartiteState(dims, m)


def random_state(dims: BipartitionDims, rank: int, seed: int) -> BipartiteState:
    """Seeded Ginibre-measure random state of the given rank."""
    D = dims.total
    if not 1 <= rank <= D:
        raise ValueError(f"rank must lie in [1, {D}], got {rank}")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((D, rank)) + 1j * rng.standard_normal((D, rank))
    m = g @ g.conj().T
    return BipartiteState(dims, m / np.trace(m).real)


def ppt_membership(rho, tol: float = STATE_ATOL) -> bool:
    """True iff the partial transpose of the state is PSD within tol."""
    rho = as_state(rho)
    pt = partial_transpose(rho.matrix, rho.dims, "B")
    return float(np.linalg.eigvalsh(pt)[0]) >= -tol


def no_convexity_fixture() -> tuple[BipartiteState, BipartiteState, BipartiteState]:
    """Triple (rho1, rho2, their equal mixture) witnessing non-convexity.

    rho1 is the two-qubit maximally entangled state (measure value 1 bit),
    rho2 the classically correlated state (value 0), and the mixture has
    value log2(3/2) > 1/2 for the whole measure family.
    """
    dims = BipartitionDims(2, 2)
    rho1 = max_entangled(2)
    m2 = np.zeros((4, 4), dtype=complex)
    m2[0, 0] = 0.5
    m2[3, 3] = 0.5
    rho2 = BipartiteState(dims, m2)
    mixed = BipartiteState(dims, (rho1.matrix + rho2.matrix) / 2)
    return rho1, rho2, mixed


def no_monogamy_fixture() -> tuple[BipartiteState, BipartiteState, BipartiteState]:
    """Triple (rho_AB, rho_AC, rho_A:BC) of one three-qubit pure state whose
    A:B and A:C entanglement together exceed its A:BC entanglement."""
    v = np.zeros(8, dtype=complex)
    v[0] = 0.5          # |000>
    v[3] = 0.5          # |011>
    v[6] = 1 / np.sqrt(2)  # |110>
    t = v.reshape(2, 2, 2)
    # amplitude matrices (kept pair) x (traced party)
    ab, ac = t.reshape(4, 2), t.transpose(0, 2, 1).reshape(4, 2)
    qubits = BipartitionDims(2, 2)
    return (
        BipartiteState(qubits, ab @ ab.conj().T),
        BipartiteState(qubits, ac @ ac.conj().T),
        BipartiteState(BipartitionDims(2, 4), np.outer(v, v.conj())),
    )


def cq_assemble(weights: Sequence[float], blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal sum of w(x) |x><x| (x) B^x on the flag-register space."""
    weights = np.asarray(weights, dtype=float)
    shapes = [np.shape(b) for b in blocks]
    n = len(shapes)
    d = shapes[0][-1] if n and shapes[0] else 0
    if n == 0 or weights.shape != (n,) or any(shape != (d, d) for shape in shapes):
        raise ValueError(
            "need one weight per block and square blocks of one shape, got "
            f"weights of shape {weights.shape} and blocks of shapes {shapes}"
        )
    out = np.zeros((n * d, n * d), dtype=complex)
    for x, (w, b) in enumerate(zip(weights, blocks)):
        out[x * d : (x + 1) * d, x * d : (x + 1) * d] = w * np.asarray(b)
    return out


# ---------------------------------------------------------------------------
# JSON interchange


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(e.real), float(e.imag)] for e in row] for row in np.asarray(m, complex)]


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _pair_to_complex(e) -> complex:
    if not (isinstance(e, list) and len(e) == 2 and all(_is_number(x) for x in e)):
        raise ValueError(f"each matrix entry must be one [re, im] pair of numbers, got {e!r}")
    return complex(e[0], e[1])


def _pairs_to_matrix(rows: list) -> np.ndarray:
    """Matrix from rows of [re, im] pairs of finite numbers.

    Raises ValueError on any other entry, and OverflowError on an integer too
    large for a float.
    """
    m = np.array([[_pair_to_complex(e) for e in row] for row in rows], dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def state_to_json(state: BipartiteState) -> dict:
    return {"dims": [state.dims.dA, state.dims.dB], "matrix": _matrix_to_pairs(state.matrix)}


def state_from_json(payload: dict, raw: bool = False):
    """Parse the state JSON object; with raw=True return (dims, Hermitian matrix)."""
    try:
        dims = BipartitionDims(*payload["dims"])
        m = _pairs_to_matrix(payload["matrix"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidStateError(f"malformed state JSON: {exc}") from exc
    if raw:
        if m.shape != (dims.total, dims.total):
            raise InvalidStateError(f"matrix shape {m.shape} does not match dims {dims}")
        try:
            h = check_hermitian(m, STATE_ATOL)
        except Exception as exc:
            raise InvalidStateError(f"raw operator is not Hermitian: {exc}") from exc
        with np.errstate(over="ignore"):
            overflows = not np.isfinite(m + m.conj().T).all()
        if overflows:
            raise InvalidStateError("raw operator entries overflow when symmetrized")
        return dims, h
    return BipartiteState(dims, m)


def load_state(path, raw: bool = False):
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_json(json.load(fh), raw=raw)


def save_state(path, state: BipartiteState) -> None:
    Path(path).write_text(json.dumps(state_to_json(state), indent=1), encoding="utf-8")


def product_state(rho: BipartiteState, omega: BipartiteState) -> BipartiteState:
    """Tensor product regrouped to the (A1 A2):(B1 B2) bipartition."""
    m = tensor(rho.matrix, omega.matrix)
    dims4 = (rho.dims.dA, rho.dims.dB, omega.dims.dA, omega.dims.dB)
    m = permute_subsystems(m, dims4, (0, 2, 1, 3))
    return BipartiteState(
        BipartitionDims(rho.dims.dA * omega.dims.dA, rho.dims.dB * omega.dims.dB), m
    )
