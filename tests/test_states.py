import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alphaneg.divergence import log_negativity
from alphaneg.errors import InvalidStateError
from alphaneg.linalg import (
    BipartitionDims,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    schatten_norm,
    tensor,
)
from alphaneg.states import (
    BipartiteState,
    cq_assemble,
    load_state,
    max_entangled,
    no_convexity_fixture,
    no_monogamy_fixture,
    ppt_membership,
    random_state,
    save_state,
    state_from_json,
    state_to_json,
    swap_operator,
    werner_state,
)

from conftest import DIMS, JSON, MATRIX, corrupted, random_hermitian

DIMS22 = BipartitionDims(2, 2)


class TestMaxEntangled:
    def test_bell_matrix_entries(self):
        m = max_entangled(2).matrix
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(m, expected, atol=1e-14)

    def test_trace_and_rank(self):
        for d in (2, 3, 4):
            m = max_entangled(d).matrix
            assert abs(np.trace(m).real - 1) < 1e-12
            assert np.linalg.matrix_rank(m, tol=1e-10) == 1

    def test_log_negativity_normalization(self):
        for d in (2, 3, 4):
            assert abs(log_negativity(max_entangled(d)) - math.log2(d)) < 1e-10

    def test_rejects_small_d(self):
        with pytest.raises(ValueError):
            max_entangled(1)

    @pytest.mark.parametrize("d", [2.0, 2.5, math.inf])
    def test_rejects_a_non_integer_d(self, d):
        with pytest.raises(ValueError, match=rf"^dA must be an integer of at least 1, got {d}$"):
            max_entangled(d)

    def test_accepts_a_numpy_integer_d(self):
        assert max_entangled(np.int64(3)).dims == BipartitionDims(3, 3)


class TestWernerState:
    def test_symmetric_endpoint_valid(self):
        w = werner_state(2, 0.0)
        assert abs(np.trace(w.matrix).real - 1) < 1e-12
        assert np.linalg.eigvalsh(w.matrix)[0] > -1e-12

    def test_projector_ranks(self):
        for d in (2, 3):
            F = swap_operator(d)
            sym = (np.eye(d * d) + F) / 2
            anti = (np.eye(d * d) - F) / 2
            assert abs(np.trace(sym) - d * (d + 1) / 2) < 1e-12
            assert abs(np.trace(anti) - d * (d - 1) / 2) < 1e-12

    def test_ppt_threshold(self):
        for d in (2, 3):
            for p in (0.0, 0.25, 0.5):
                assert ppt_membership(werner_state(d, p))
            for p in (0.55, 0.8, 1.0):
                assert not ppt_membership(werner_state(d, p))

    def test_swap_invariance(self):
        for d in (2, 3):
            F = swap_operator(d)
            w = werner_state(d, 0.3).matrix
            assert np.linalg.norm(F @ w @ F - w) < 1e-12

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            werner_state(2, 1.5)
        with pytest.raises(ValueError):
            werner_state(1, 0.5)

    @pytest.mark.parametrize("d", [2.0, 2.5, math.inf])
    def test_rejects_a_non_integer_d(self, d):
        with pytest.raises(ValueError, match=rf"^dA must be an integer of at least 1, got {d}$"):
            werner_state(d, 0.3)

    def test_accepts_a_numpy_integer_d(self):
        assert np.array_equal(werner_state(np.int64(3), 0.3).matrix, werner_state(3, 0.3).matrix)


class TestRandomState:
    def test_rank_one_is_pure(self):
        rho = random_state(DIMS22, 1, seed=4)
        assert np.linalg.norm(rho.matrix @ rho.matrix - rho.matrix) < 1e-9

    def test_seed_determinism(self):
        a = random_state(DIMS22, 3, seed=11).matrix
        b = random_state(DIMS22, 3, seed=11).matrix
        assert np.array_equal(a, b)

    def test_invariant_sweep(self):
        # constructor validates Hermiticity, positivity and trace on every draw
        for seed in range(1000):
            random_state(DIMS22, (seed % 4) + 1, seed)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            random_state(DIMS22, 5, seed=0)


class TestPptMembership:
    def test_bell_is_npt(self):
        assert not ppt_membership(max_entangled(2))

    def test_product_state_is_ppt(self, rng):
        a = random_state(BipartitionDims(1, 2), 2, 1).matrix
        b = random_state(BipartitionDims(1, 2), 2, 2).matrix
        rho = BipartiteState(DIMS22, tensor(a, b))
        assert ppt_membership(rho)

    def test_classical_mixture_is_ppt(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 0.5
        m[3, 3] = 0.5
        assert ppt_membership(BipartiteState(DIMS22, m))


class TestFixtures:
    def test_no_convexity_components(self):
        rho1, rho2, mixed = no_convexity_fixture()
        assert abs(log_negativity(rho1) - 1.0) < 1e-10
        assert log_negativity(rho2) < 1e-10
        assert abs(log_negativity(mixed) - math.log2(1.5)) < 1e-10
        assert abs(np.trace(mixed.matrix).real - 1) < 1e-12
        assert not ppt_membership(mixed)
        # the mixture's partial transpose really dips negative
        assert np.linalg.eigvalsh(partial_transpose(mixed.matrix, DIMS22))[0] < -1e-3

    def test_no_monogamy_amplitudes(self):
        _, _, whole = no_monogamy_fixture()
        v = np.zeros(8)
        v[0] = 0.5
        v[3] = 0.5
        v[6] = 1 / math.sqrt(2)
        assert whole.dims == BipartitionDims(2, 4)
        np.testing.assert_allclose(whole.matrix, np.outer(v, v), rtol=0, atol=1e-15)

    def test_no_monogamy_marginals(self):
        ab, ac, whole = no_monogamy_fixture()
        # the A:B and A:C marginals of the A:BC state, by tracing out C and B
        traced = BipartitionDims(4, 2)
        expected_ab = partial_trace(whole.matrix, traced, "B")
        expected_ac = partial_trace(permute_subsystems(whole.matrix, (2, 2, 2), (0, 2, 1)), traced, "B")
        for state, expected in ((ab, expected_ab), (ac, expected_ac)):
            assert state.dims == DIMS22
            np.testing.assert_allclose(state.matrix, expected, rtol=0, atol=1e-15)
        # closed-form check: the A:BC split carries one full bit
        assert abs(log_negativity(whole) - 1.0) < 1e-10

    def test_no_monogamy_violation_margin(self):
        ab, ac, whole = no_monogamy_fixture()
        total = log_negativity(ab) + log_negativity(ac)
        assert total - log_negativity(whole) > 0.01

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 4)])
    @pytest.mark.parametrize("keep", [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)])
    def test_marginal_matches_einsum(self, rng, dims, keep):
        # the permute-and-trace that checks the fixture's marginals, for every
        # ordered pair of three parties
        v = rng.standard_normal(int(np.prod(dims))) + 1j * rng.standard_normal(int(np.prod(dims)))
        v /= np.linalg.norm(v)
        i, j = keep
        (k,) = {0, 1, 2} - {i, j}
        ket, bra = list("abc"), list("def")
        bra[k] = ket[k]
        spec = f"{''.join(ket)},{''.join(bra)}->{ket[i]}{ket[j]}{bra[i]}{bra[j]}"
        t = v.reshape(dims)
        expected = np.einsum(spec, t, t.conj()).reshape(dims[i] * dims[j], -1)
        permuted = permute_subsystems(np.outer(v, v.conj()), dims, (i, j, k))
        got = partial_trace(permuted, BipartitionDims(dims[i] * dims[j], dims[k]), "B")
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


class TestCqStates:
    def test_single_block(self, rng):
        b = random_hermitian(rng, 3)
        got = cq_assemble([0.7], [b])
        np.testing.assert_allclose(got, 0.7 * b, atol=1e-14)

    def test_trace_additivity(self, rng):
        blocks = [random_hermitian(rng, 2) for _ in range(3)]
        w = [0.2, 0.5, 0.3]
        got = cq_assemble(w, blocks)
        expect = sum(wi * np.trace(b) for wi, b in zip(w, blocks))
        assert abs(np.trace(got) - expect) < 1e-12

    @pytest.mark.parametrize(
        "weights,blocks,message",
        [
            ([0.5], [np.eye(2), np.eye(2)], r"weights of shape \(1,\) and blocks of shapes \[\(2, 2\), \(2, 2\)\]"),
            ([0.5, 0.5], [np.eye(2)], r"weights of shape \(2,\) and blocks of shapes \[\(2, 2\)\]"),
            ([], [], r"weights of shape \(0,\) and blocks of shapes \[\]"),
            ([0.5, 0.5], [np.eye(2), np.eye(3)], r"blocks of shapes \[\(2, 2\), \(3, 3\)\]"),
            ([1.0], [np.ones((2, 3))], r"blocks of shapes \[\(2, 3\)\]"),
        ],
        ids=["too-few-weights", "too-many-weights", "empty", "unequal-blocks", "non-square"],
    )
    def test_rejects_malformed_input(self, weights, blocks, message):
        with pytest.raises(ValueError, match=message):
            cq_assemble(weights, blocks)

    def test_schatten_power_additivity(self, rng):
        blocks = [random_hermitian(rng, 2) for _ in range(3)]
        w = [1.0, 1.0, 1.0]
        joint = cq_assemble(w, blocks)
        for alpha in (1.5, 2, 3):
            lhs = schatten_norm(joint, alpha) ** alpha
            rhs = sum(schatten_norm(b, alpha) ** alpha for b in blocks)
            assert abs(lhs - rhs) < 1e-9 * max(1, rhs)


class TestStateValidation:
    def test_rejects_non_hermitian(self, rng):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        with pytest.raises(InvalidStateError):
            BipartiteState(DIMS22, g)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            BipartiteState(DIMS22, np.eye(4))

    def test_rejects_negative_spectrum(self):
        m = np.diag([0.75, 0.5, -0.25, 0.0]).astype(complex)
        with pytest.raises(InvalidStateError):
            BipartiteState(DIMS22, m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[0, 3] = m[3, 0] = bad
        with pytest.raises(
            InvalidStateError, match="state is not Hermitian: matrix has non-finite entries"
        ):
            BipartiteState(DIMS22, m)


class TestStateJson:
    def test_round_trip(self, tmp_path):
        rho = random_state(BipartitionDims(2, 3), 4, seed=8)
        path = tmp_path / "state.json"
        save_state(path, rho)
        back = load_state(path)
        assert back.dims == rho.dims
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_raw_round_trip(self, rng, tmp_path):
        x = random_hermitian(rng, 4)
        payload = {
            "dims": [2, 2],
            "matrix": [[[float(e.real), float(e.imag)] for e in row] for row in x],
        }
        path = tmp_path / "raw.json"
        path.write_text(json.dumps(payload))
        dims, m = load_state(path, raw=True)
        assert dims == DIMS22
        np.testing.assert_allclose(m, x, atol=1e-15)
        with pytest.raises(InvalidStateError):
            load_state(path)  # not a state: trace is wrong

    def test_rejects_malformed(self):
        with pytest.raises(InvalidStateError):
            state_from_json({"dims": [2, 2]})

    @pytest.mark.parametrize("bad", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 0.0)])
    @pytest.mark.parametrize("raw", [False, True])
    def test_rejects_non_finite_entries(self, bad, raw, tmp_path):
        payload = state_to_json(max_entangled(2))
        payload["matrix"][1][2] = list(bad)
        path = tmp_path / "state.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(InvalidStateError, match="malformed state JSON"):
            load_state(path, raw=raw)

    @pytest.mark.parametrize(
        "payload",
        [
            {"dims": [0, 2], "matrix": [[[0.5, 0.0]] * 2] * 2},
            {"dims": [2.0, 1], "matrix": [[[0.5, 0.0]] * 2] * 2},
            {"dims": [True, 1], "matrix": [[[1.0, 0.0]]]},
            {"dims": [2, 2], "matrix": "abcd"},
            {"dims": [1, 1], "matrix": [[[1]]]},
            {"dims": [1, 1], "matrix": [[[1, 0, 5]]]},
            {"dims": [1, 1], "matrix": [[[True, 0]]]},
            {"dims": [1, 1], "matrix": [[[10**400, 0]]]},
        ],
    )
    @pytest.mark.parametrize("raw", [False, True])
    def test_rejects_bad_dims_and_entries(self, payload, raw):
        with pytest.raises(InvalidStateError, match="malformed state JSON"):
            state_from_json(payload, raw=raw)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("raw", [False, True])
    def test_rejects_entries_that_overflow_when_symmetrized(self, raw):
        # finite and Hermitian, but (M + M^dag) / 2 overflows to inf and NaN
        big = [1.7e308, 0.0]
        payload = {"dims": [1, 2], "matrix": [[[0.5, 0.0], big], [big, [0.5, 0.0]]]}
        with pytest.raises(InvalidStateError):
            state_from_json(payload, raw=raw)

    @settings(max_examples=300, deadline=None)
    @given(
        payload=st.fixed_dictionaries({"dims": DIMS, "matrix": MATRIX})
        | corrupted(
            state_to_json(max_entangled(2)),
            st.tuples(st.just("matrix"), st.integers(0, 3), st.integers(0, 3))
            | st.tuples(st.just("dims"), st.integers(0, 1))
            | st.sampled_from([("dims",), ("matrix",)]),
        )
        | JSON,
        raw=st.booleans(),
    )
    def test_any_payload_parses_or_raises_invalid_state(self, payload, raw):
        try:
            parsed = state_from_json(payload, raw=raw)
        except InvalidStateError:
            return
        matrix = parsed[1] if raw else parsed.matrix
        assert np.all(np.isfinite(matrix))

    def test_json_fields(self):
        payload = state_to_json(max_entangled(2))
        assert payload["dims"] == [2, 2]
        assert len(payload["matrix"]) == 4
        assert payload["matrix"][0][0] == [0.4999999999999999, 0.0]
