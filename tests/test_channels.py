import dataclasses
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaneg import channels
from alphaneg.channels import (
    Instrument,
    SuperOperator,
    channel_e_alpha,
    channel_from_json,
    channel_output_state,
    choi_is_tp,
    choi_of,
    instrument_outcomes,
    is_cpptp,
    is_cpptp_instrument,
    kraus_channel,
    random_kraus_channel,
    random_local_instrument,
    werner_holevo_channel,
    werner_holevo_value,
)
from alphaneg.divergence import log_negativity
from alphaneg.errors import CommutationFailedError, OutOfDomainError
from alphaneg.linalg import (
    BipartitionDims,
    _conjugated_choi,
    partial_transpose,
    tensor,
)
from alphaneg.resource import builtin_map, free_instrument_monotonicity_check, r_alpha_channel
from alphaneg.solver import DEFAULT_CONFIG, e_kappa
from alphaneg.states import (
    BipartiteState,
    max_entangled,
    ppt_membership,
    random_state,
    swap_operator,
    werner_state,
)

from _reference import extend_apply, kraus_apply, kraus_choi, subsystem_transpose
from conftest import DIMS, JSON, MATRIX, corrupted

DIMS22 = BipartitionDims(2, 2)
FAST = dataclasses.replace(DEFAULT_CONFIG, with_bracket=False)
PT22 = builtin_map("partial_transpose", DIMS22)
# the identity channel on a 1x2 bipartition, and on C^1
IDENTITY_KRAUS_JSON = {
    "kind": "kraus",
    "dims_in": [1, 2],
    "dims_out": [1, 2],
    "data": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
}
IDENTITY_SUPEROP_JSON = {"kind": "superop", "dims_in": [1], "dims_out": [1], "data": [[[1, 0]]]}


def identity_channel(d):
    return kraus_channel([np.eye(d, dtype=complex)], d, d)


def random_kraus_ops(d_in, d_out, n_kraus, seed):
    """The n_kraus blocks of a seeded random isometry C^d_in -> C^(n_kraus d_out)."""
    rng = np.random.default_rng(seed)
    shape = (n_kraus * d_out, d_in)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return [q[i * d_out : (i + 1) * d_out] for i in range(n_kraus)]


def depolarizing_channel(d):
    """Completely depolarizing map via the normalized Heisenberg-Weyl set."""
    w = np.exp(2j * np.pi / d)
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    clock = np.diag([w**k for k in range(d)])
    ops = []
    for a in range(d):
        for b in range(d):
            ops.append(np.linalg.matrix_power(shift, a) @ np.linalg.matrix_power(clock, b) / d)
    return kraus_channel(ops, d, d)


class TestChoi:
    def test_identity_channel(self):
        for d in (2, 3):
            J = choi_of(identity_channel(d))
            np.testing.assert_allclose(J, d * max_entangled(d).matrix, atol=1e-12)

    def test_depolarizing_is_product(self):
        d = 2
        J = choi_of(depolarizing_channel(d))
        np.testing.assert_allclose(J, tensor(np.eye(d), np.eye(d) / d), atol=1e-12)

    def test_random_channel_psd_and_tp(self, rng):
        ch = random_kraus_channel(3, 2, 4, seed=5)
        J = choi_of(ch)
        assert np.linalg.eigvalsh(J)[0] > -1e-12
        assert choi_is_tp(ch)

    def test_superop_choi_matches_kraus_choi(self):
        ops = random_kraus_ops(2, 3, 3, seed=9)
        np.testing.assert_allclose(choi_of(kraus_channel(ops, 2, 3)), kraus_choi(ops), atol=1e-12)

    def test_apply_round_trip(self, rng):
        ops = random_kraus_ops(3, 3, 2, seed=13)
        rho = random_state(BipartitionDims(1, 3), 3, seed=1).matrix
        np.testing.assert_allclose(
            kraus_channel(ops, 3, 3).apply(rho), kraus_apply(ops, rho), atol=1e-10
        )

    @pytest.mark.parametrize(
        "ops, dims, error",
        [
            ([], (2, 2), "at least one Kraus operator"),
            ([np.eye(2), np.eye(3)], (2, 2), "Kraus shape \\(3, 3\\) does not match 2x2"),
            ([np.eye(3, 2)], (3, 2), "Kraus shape \\(3, 2\\) does not match 2x3"),
        ],
        ids=["empty", "mixed_shapes", "transposed"],
    )
    def test_kraus_channel_rejects_empty_and_misshapen_lists(self, ops, dims, error):
        with pytest.raises(ValueError, match=error):
            kraus_channel(ops, *dims)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_superoperator_rejects_non_finite_entries(self, bad):
        m = np.eye(4, dtype=complex)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="superoperator entries must be finite"):
            SuperOperator(m, 2, 2)

    @pytest.mark.parametrize("entry", [8.98846567431158e307j, 1.7e308 + 1.7e308j])
    def test_superoperator_decides_hermiticity_near_the_float_limit(self, entry):
        # J - J^dag would overflow unscaled; a real entry that large is accepted
        with pytest.raises(ValueError, match="not Hermiticity-preserving"):
            SuperOperator(np.array([[entry]]), 1, 1)
        assert SuperOperator(np.array([[abs(entry.imag)]]), 1, 1).matrix[0, 0] == abs(entry.imag)

    @pytest.mark.parametrize("side", ["in", "out"])
    def test_superoperator_rejects_a_bipartition_of_another_dimension(self, side):
        # accepted, it would send every r_alpha_channel input to the search
        # penalty and fail is_cpptp with a shape error inside the transpose
        bipartition = {f"bipartition_{side}": BipartitionDims(2, 3)}
        with pytest.raises(ValueError, match=f"{side}put bipartition 2x3 does not match dimension 4"):
            kraus_channel([np.eye(4)], 4, 4, **bipartition)

    def test_kraus_entries_that_overflow_are_rejected_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="superoperator entries must be finite"):
                kraus_channel([np.full((2, 2), 1e200 * (1 + 1j))], 2, 2)

    def test_random_channel_needs_an_isometry(self):
        with pytest.raises(ValueError, match="n_kraus \\* d_out >= d_in"):
            random_kraus_channel(2, 1, 1, seed=0)


class TestIsCpptp:
    def test_local_channel_passes(self):
        ops = [np.kron(np.eye(2), op) for op in random_kraus_ops(2, 2, 3, seed=3)]
        ch = kraus_channel(ops, 4, 4, DIMS22, DIMS22)
        assert is_cpptp(ch)

    def test_swap_channel_fails_complete_positivity(self):
        # the swap maps the PPT set onto itself, but its partial-transpose
        # conjugate is F (.)^T F: positive, not completely positive, so the
        # complete-preservation test must reject it (direct Choi computation
        # gives eigenvalues -1)
        swap = swap_operator(2).astype(complex)
        ch = kraus_channel([swap], 4, 4, DIMS22, DIMS22)
        assert not is_cpptp(ch)

    def test_partial_transpose_fails_cp(self):
        # the transpose on B wrapped as a superoperator: positive but not CP
        perm = np.zeros((16, 16))
        for a in range(2):
            for b in range(2):
                for a2 in range(2):
                    for b2 in range(2):
                        row = (2 * a + b) * 4 + (2 * a2 + b2)
                        col = (2 * a + b2) * 4 + (2 * a2 + b)
                        perm[row, col] = 1.0
        sup = SuperOperator(perm, 4, 4, DIMS22, DIMS22)
        assert not is_cpptp(sup)

    def test_needs_bipartitions(self):
        ch = random_kraus_channel(4, 4, 2, seed=4)
        with pytest.raises(ValueError):
            is_cpptp(ch)

    def test_input_and_output_bipartitions_may_differ(self):
        # an isometry 2 -> 3 on B embeds 2x2 into 2x3; after CNOT it acts across the cut
        dims_out = BipartitionDims(2, 3)
        rng = np.random.default_rng(21)
        v, _ = np.linalg.qr(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
        local = kraus_channel([np.kron(np.eye(2), v)], 4, 6, DIMS22, dims_out)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        across = kraus_channel([np.kron(np.eye(2), v) @ cnot], 4, 6, DIMS22, dims_out)
        assert is_cpptp(local)
        assert not is_cpptp(across)
        for ch in (local, across):
            # the partial transposes of the Choi matrix on B_in and B_out
            expected = subsystem_transpose(choi_of(ch), (2, 2, 2, 3), (1, 3))
            got = _conjugated_choi(
                ch.apply,
                lambda m: partial_transpose(m, DIMS22),
                lambda m: partial_transpose(m, dims_out),
                4,
            )
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestInstruments:
    def test_single_element_is_channel(self):
        ch = random_kraus_channel(4, 4, 3, seed=21)
        instr = Instrument((ch,), DIMS22, DIMS22)
        rho = random_state(DIMS22, 3, seed=2)
        outs = instrument_outcomes(instr, rho)
        assert len(outs) == 1
        p, post = outs[0]
        assert p == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(post.matrix, ch.apply(rho.matrix), atol=1e-12)

    def test_projective_measurement_on_bell(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        elements = tuple(kraus_channel([np.kron(np.eye(2), p)], 4, 4) for p in (p0, p1))
        instr = Instrument(elements, DIMS22, DIMS22)
        outs = instrument_outcomes(instr, max_entangled(2))
        assert len(outs) == 2
        for p, post in outs:
            assert p == pytest.approx(0.5, abs=1e-12)
            assert ppt_membership(post)  # outcomes are product states

    def test_random_local_instrument_normalization(self):
        instr = random_local_instrument(DIMS22, 3, seed=6, kraus_per_element=2)
        assert is_cpptp_instrument(instr)
        rho = random_state(DIMS22, 4, seed=3)
        outs = instrument_outcomes(instr, rho)
        assert sum(p for p, _ in outs) == pytest.approx(1.0, abs=1e-9)

    def test_totals_within_both_validators_tolerances(self):
        # the instrument and the state may each sit 1e-9 from exact, so the
        # outcome probabilities may total about 1 + 2e-9
        s = 1 + 0.9e-9
        instr = Instrument((kraus_channel([math.sqrt(s) * np.eye(4)], 4, 4),), DIMS22, DIMS22)
        outs = instrument_outcomes(instr, BipartiteState(DIMS22, s * np.eye(4) / 4))
        assert len(outs) == 1
        assert outs[0][0] == pytest.approx(1.0, abs=1e-8)

    def test_rejects_non_tp_sum(self):
        half = kraus_channel([np.eye(4, dtype=complex) / 2], 4, 4)
        with pytest.raises(ValueError):
            Instrument((half,), DIMS22, DIMS22)

    @pytest.mark.parametrize(
        "element, dims_in, dims_out",
        [
            # trace preserving, but 4 -> 4 where the instrument declares 4 -> 6
            (identity_channel(4), DIMS22, BipartitionDims(2, 3)),
            # an isometry 4 -> 6 where the instrument declares 6 -> 6
            (kraus_channel([np.eye(6, 4)], 4, 6), BipartitionDims(2, 3), BipartitionDims(2, 3)),
        ],
        ids=["output", "input"],
    )
    def test_rejects_elements_of_other_dimensions(self, element, dims_in, dims_out):
        with pytest.raises(ValueError, match="instrument element 0 is not a map C\\^"):
            Instrument((element,), dims_in, dims_out)

    def test_rejects_an_element_that_is_not_completely_positive(self):
        # half the identity and half the qubit transpose, which is positive
        # but not CP: the two sum to a trace-preserving map
        halves = (
            kraus_channel([np.eye(2) / math.sqrt(2)], 2, 2),
            SuperOperator(swap_operator(2) / 2, 2, 2),
        )
        dims = BipartitionDims(1, 2)
        with pytest.raises(ValueError, match="instrument element 1 is not completely positive"):
            Instrument(halves, dims, dims)


class TestMonotonicity:
    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        instr = Instrument(
            (kraus_channel([np.kron(np.eye(2), u)], 4, 4),), DIMS22, DIMS22
        )
        rho = random_state(DIMS22, 2, seed=momentum_seed(0))
        slack = free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)
        assert abs(slack) < 3e-4

    def test_measure_and_discard(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        elements = tuple(kraus_channel([np.kron(np.eye(2), p)], 4, 4) for p in (p0, p1))
        instr = Instrument(elements, DIMS22, DIMS22)
        # the Bell state has 1 bit; both post-measurement states are product
        slack = free_instrument_monotonicity_check(instr, max_entangled(2), PT22, 2.0, FAST)
        assert slack == pytest.approx(1.0, abs=1e-4)

    def test_random_two_outcome_instrument(self):
        instr = random_local_instrument(DIMS22, 2, seed=17)
        rho = random_state(DIMS22, 2, seed=momentum_seed(1))
        slack = free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)
        assert slack >= -3e-4

    def test_rejects_non_cpptp(self):
        # a projective measurement onto the Bell basis element is the
        # canonical non-PPT-preserving operation
        bell_proj = max_entangled(2).matrix
        rest = np.eye(4, dtype=complex) - bell_proj
        instr = Instrument(
            (kraus_channel([bell_proj], 4, 4), kraus_channel([rest], 4, 4)),
            DIMS22,
            DIMS22,
        )
        with pytest.raises(CommutationFailedError):
            free_instrument_monotonicity_check(instr, max_entangled(2), PT22, 2.0, FAST)


def momentum_seed(i):
    # NPT two-qubit states for the monotonicity spot checks
    from alphaneg.states import ppt_membership as is_ppt

    s = 100 + i
    while True:
        if not is_ppt(random_state(DIMS22, 2, s)):
            return s
        s += 1


class TestChannelMeasure:
    def test_identity_qubit_channel(self):
        cfg = dataclasses.replace(FAST, restarts=2)
        value = channel_e_alpha(identity_channel(2), 1.0, cfg)
        assert abs(value - 1.0) < 1e-6

    def test_depolarizing_channel_zero(self):
        cfg = dataclasses.replace(FAST, restarts=2)
        value = channel_e_alpha(depolarizing_channel(2), 2.0, cfg)
        assert abs(value) < 1e-6

    def test_output_state_shape(self):
        ch = random_kraus_channel(2, 3, 2, seed=40)
        psi = np.eye(2) / math.sqrt(2)
        state = channel_output_state(ch, psi)
        assert state.dims == BipartitionDims(2, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        d_ref=st.integers(1, 3),
        d_in=st.integers(1, 3),
        d_out=st.integers(1, 3),
        extra_kraus=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_output_state_matches_blockwise_reference(self, d_ref, d_in, d_out, extra_kraus, seed):
        # the Choi conjugation against sum_k K (.) K^dag applied to one
        # reference block at a time, with rectangular amplitude matrices and
        # d_in != d_out included; the random isometry needs
        # n_kraus * d_out >= d_in rows
        ops = random_kraus_ops(d_in, d_out, -(-d_in // d_out) + extra_kraus, seed)
        rng = np.random.default_rng(seed)
        psi = rng.standard_normal((d_ref, d_in)) + 1j * rng.standard_normal((d_ref, d_in))
        psi /= np.linalg.norm(psi)
        v = psi.reshape(-1)
        expected = extend_apply(lambda m: kraus_apply(ops, m), d_in, d_out, np.outer(v, v.conj()), d_ref)
        state = channel_output_state(kraus_channel(ops, d_in, d_out), psi)
        assert state.dims == BipartitionDims(d_ref, d_out)
        np.testing.assert_allclose(state.matrix, expected, rtol=0, atol=1e-12)

    def test_werner_holevo_extreme(self):
        cfg = dataclasses.replace(FAST, restarts=3)
        ch = werner_holevo_channel(1.0, 2)
        value, details = channel_e_alpha(ch, 1.0, cfg, with_details=True)
        assert abs(value - 1.0) < 5e-3
        assert len(details["restart_values"]) == 3

    def test_rejects_large_input(self):
        with pytest.raises(OutOfDomainError):
            channel_e_alpha(identity_channel(5), 2.0, FAST)

    @pytest.mark.parametrize(
        "channel, reason",
        [
            (kraus_channel([0.5 * np.eye(2)], 2, 2), "not trace-preserving"),
            (SuperOperator(swap_operator(2), 2, 2), "not completely positive"),
        ],
        ids=["kraus_not_tp", "transpose_not_cp"],
    )
    @pytest.mark.parametrize(
        "measure",
        [
            lambda ch: channel_e_alpha(ch, 2.0, FAST),
            lambda ch: r_alpha_channel(ch, builtin_map("partial_transpose", BipartitionDims(1, 2)), 2.0, FAST),
        ],
        ids=["channel_e_alpha", "r_alpha_channel"],
    )
    def test_rejects_a_map_that_is_not_cptp(self, channel, reason, measure):
        # every input of such a map would score the search's penalty, so the
        # search would report -1e6 bits instead of failing
        with pytest.raises(ValueError, match=reason):
            measure(channel)


class TestWernerHolevo:
    def test_choi_is_werner_state(self):
        for d in (2, 3):
            for p in (0.0, 0.5, 1.0):
                ch = werner_holevo_channel(p, d)
                np.testing.assert_allclose(
                    choi_of(ch) / d, werner_state(d, p).matrix, atol=1e-12
                )

    def test_trace_preserving(self, rng):
        ch = werner_holevo_channel(0.7, 3)
        for _ in range(5):
            g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            assert abs(np.trace(ch.apply(g)) - np.trace(g)) < 1e-10

    def test_p_zero_output_ppt(self):
        ch = werner_holevo_channel(0.0, 2)
        out = channel_output_state(ch, np.eye(2) / math.sqrt(2))
        assert ppt_membership(out)
        assert werner_holevo_value(0.0, 2) == 0.0

    def test_closed_form_values(self):
        assert werner_holevo_value(0.5, 2) == 0.0
        assert werner_holevo_value(1.0, 2) == pytest.approx(1.0, abs=1e-12)
        assert werner_holevo_value(0.9, 3) == pytest.approx(math.log2(23 / 15), abs=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            werner_holevo_value(1.2, 2)
        with pytest.raises(OutOfDomainError):
            werner_holevo_channel(0.5, 1)

    @pytest.mark.parametrize("family", [werner_holevo_channel, werner_holevo_value])
    @pytest.mark.parametrize("d", [2.0, 2.5, math.inf])
    def test_rejects_a_non_integer_d(self, family, d):
        # 2.5 read 0.4005 bits through the closed form
        with pytest.raises(ValueError, match=rf"^dA must be an integer of at least 1, got {d}$"):
            family(0.7, d)

    def test_accepts_a_numpy_integer_d(self):
        assert werner_holevo_value(0.9, np.int64(3)) == werner_holevo_value(0.9, 3)
        assert np.array_equal(werner_holevo_channel(0.7, np.int64(3)).matrix, werner_holevo_channel(0.7, 3).matrix)


# Run in a fresh interpreter: the state measures and the CLI leave
# scipy.optimize unloaded, and the first channel search loads it.
FOOTPRINT_PROBE = """
import sys
sys.path.insert(0, {src!r})
import alphaneg
import alphaneg.cli
from alphaneg import channels
from alphaneg.solver import SolverConfig
print("scipy.optimize" in sys.modules)
value = channels.channel_e_alpha(
    channels.werner_holevo_channel(1.0, 2), 1.0, SolverConfig(restarts=2)
)
print("scipy.optimize" in sys.modules)
print(value.hex())
"""


# Prints, as JSON, the scipy modules loaded after each step, then the kappa
# value's hex form.
SCIPY_PROBE = """
import json, math, sys
sys.path.insert(0, {src!r})

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import alphaneg, alphaneg.cli
from alphaneg import BipartitionDims, SolverConfig, e_alpha, e_kappa, project_ppt, random_state
loaded = [scipy_modules()]
rho = random_state(BipartitionDims(2, 3), 3, 1)
project_ppt(rho.matrix, rho.dims)
e_alpha(rho, 1.5, SolverConfig(with_bracket=False))
loaded.append(scipy_modules())
kappa = e_kappa(rho).value_bits
print(json.dumps([loaded, "scipy.linalg" in sys.modules, kappa.hex()]))
"""


class TestOptimizerLoading:
    def test_import_leaves_scipy_optimize_unloaded_until_a_search(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_PROBE.format(src=str(src))],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        before, after, value = proc.stdout.split()
        assert (before, after) == ("False", "True")
        # the tolerance `repro werner-holevo` checks against
        assert abs(float.fromhex(value) - werner_holevo_value(1.0, 2)) <= 5e-3

    def test_only_the_kappa_solve_loads_scipy(self):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", SCIPY_PROBE.format(src=str(src))],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        (after_import, after_finite_order), linalg_loaded, kappa = json.loads(proc.stdout)
        assert after_import == []
        assert after_finite_order == []
        assert linalg_loaded
        rho = random_state(BipartitionDims(2, 3), 3, 1)
        assert log_negativity(rho) > 0  # NPT, so no route is skipped as free
        assert kappa == e_kappa(rho).value_bits.hex()

    def test_minimize_resolves_through_the_module_attribute(self):
        from scipy import optimize

        assert channels.optimize.minimize is optimize.minimize


class TestChannelJson:
    def test_kraus_round_trip(self, tmp_path):
        ops = random_kraus_ops(2, 2, 2, seed=15)
        payload = {
            "kind": "kraus",
            "dims_in": [2],
            "dims_out": [2],
            "data": [
                [[[float(e.real), float(e.imag)] for e in row] for row in k]
                for k in ops
            ],
        }
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(payload))
        from alphaneg.channels import load_channel

        back = load_channel(path)
        assert isinstance(back, SuperOperator)
        np.testing.assert_allclose(choi_of(back), kraus_choi(ops), atol=1e-15)

    def test_superop_with_bipartitions(self):
        ch = werner_holevo_channel(0.5, 2)
        payload = {
            "kind": "superop",
            "dims_in": [1, 2],
            "dims_out": [1, 2],
            "data": [[[float(e.real), float(e.imag)] for e in row] for row in ch.matrix],
        }
        back = channel_from_json(payload)
        assert isinstance(back, SuperOperator)
        assert back.bipartition_in == BipartitionDims(1, 2)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            channel_from_json({"kind": "mystery", "dims_in": [2], "dims_out": [2], "data": []})

    @pytest.mark.parametrize(
        "dims, matrix",
        [
            ([0], [[[1.0, 0.0]]]),
            ([2.0], [[[1.0, 0.0]] * 4] * 4),
            ([True], [[[1.0, 0.0]]]),
            ([2], "abcd"),
            ([1], [[[1]]]),
            ([1], [[[1, 0, 5]]]),
            ([1], [[[True, 0]]]),
            ([1], [[[10**400, 0]]]),
        ],
    )
    @pytest.mark.parametrize("kind", ["kraus", "superop"])
    def test_rejects_bad_dims_and_entries(self, kind, dims, matrix):
        # with dims [1] and entry [1, 0] both kinds are the identity on C^1
        payload = {
            "kind": kind,
            "dims_in": dims,
            "dims_out": dims,
            "data": [matrix] if kind == "kraus" else matrix,
        }
        with pytest.raises(ValueError, match="malformed channel JSON"):
            channel_from_json(payload)

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.fixed_dictionaries(
            {
                "kind": st.sampled_from(["kraus", "superop"]) | JSON,
                "dims_in": DIMS,
                "dims_out": DIMS,
                "data": st.lists(MATRIX, max_size=2) | MATRIX,
            }
        )
        | corrupted(
            IDENTITY_KRAUS_JSON,
            st.tuples(st.just("data"), st.just(0), st.integers(0, 1), st.integers(0, 1))
            | st.sampled_from([("kind",), ("dims_in",), ("dims_out", 0), ("data",), ("data", 0)]),
        )
        | corrupted(
            IDENTITY_SUPEROP_JSON,
            st.sampled_from([("data", 0, 0), ("data", 0), ("dims_in", 0), ("dims_out",)]),
        )
        | JSON
    )
    def test_any_payload_parses_or_raises_malformed(self, payload):
        try:
            channel_from_json(payload)
        except ValueError as exc:
            assert str(exc).startswith("malformed channel JSON")

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    @pytest.mark.parametrize("kind", ["kraus", "superop"])
    def test_rejects_non_finite_entries(self, kind, bad, tmp_path):
        from alphaneg.cli import EXIT_INVALID, main

        # the 4x4 identity: a Kraus operator on C^4, or the superoperator on C^2
        data = [[[float(e), 0.0] for e in row] for row in np.eye(4)]
        data[0][0] = list(bad)
        dims = [4] if kind == "kraus" else [2]
        payload = {
            "kind": kind,
            "dims_in": dims,
            "dims_out": dims,
            "data": [data] if kind == "kraus" else data,
        }
        with pytest.raises(ValueError, match="malformed channel JSON"):
            channel_from_json(payload)
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(payload))
        assert main(["channel", str(path)]) == EXIT_INVALID
