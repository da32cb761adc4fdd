import dataclasses
import math

import numpy as np
import pytest

from alphaneg.channels import (
    Instrument,
    choi_of,
    is_cpptp_instrument,
    kraus_channel,
    random_local_instrument,
)
from alphaneg import resource, solver
from alphaneg.divergence import binegativity_psd, log_negativity
from alphaneg.errors import CommutationFailedError, UnsupportedMapError
from alphaneg.linalg import BipartitionDims, partial_transpose
from alphaneg.resource import (
    PositiveMapSpec,
    _check_free_operation,
    builtin_map,
    free_instrument_monotonicity_check,
    r_alpha,
    r_alpha_channel,
)
from alphaneg.solver import DEFAULT_CONFIG, SolverConfig, e_alpha, e_kappa
from alphaneg.states import BipartiteState, max_entangled, ppt_membership, random_state, werner_state

DIMS22 = BipartitionDims(2, 2)
FAST = dataclasses.replace(DEFAULT_CONFIG, with_bracket=False)
PT22 = builtin_map("partial_transpose", DIMS22)
CNOT = np.eye(4, dtype=complex)[[0, 1, 3, 2]]


def _fingerprint(result):
    """Everything a measure result reports, floats as exact hex strings."""
    return (
        result.value_bits.hex(),
        tuple(b.hex() for b in result.bracket),
        result.iterations,
        result.converged,
        result.diagnostic,
    )


class TestPositiveMapSpec:
    def test_builtin_partial_transpose_verifies(self):
        assert (PT22.name, PT22.dim) == ("partial_transpose", 4)

    def test_takes_no_declared_flags(self):
        names = [f.name for f in dataclasses.fields(PositiveMapSpec)]
        assert names == ["apply", "dim", "name"]

    def test_lying_flags_rejected(self):
        with pytest.raises(ValueError):
            PositiveMapSpec(apply=lambda m: 2 * m, dim=3, name="doubler")

    def test_non_involution_rejected(self):
        tau = np.diag([0.7, 0.3]).astype(complex)
        with pytest.raises(ValueError):
            PositiveMapSpec(
                apply=lambda m: np.trace(m) * tau, dim=2, name="replacer"
            )

    def test_unknown_builtin(self):
        for name in ("reduction", "transpose"):
            with pytest.raises(UnsupportedMapError):
                builtin_map(name, DIMS22)


FREE = "input is free; measure vanishes identically"


class TestFreeMembership:
    """The engine's one free test: P(rho) >= 0 within STATE_ATOL gives 0."""

    def test_reduces_to_ppt(self):
        for seed in range(20):
            rho = random_state(DIMS22, (seed % 4) + 1, seed)
            free = r_alpha(rho, PT22, 1.0, FAST).diagnostic == FREE
            assert free == ppt_membership(rho)

    def test_full_transpose_every_state_free(self):
        spec = PositiveMapSpec(lambda m: m.T.copy(), 4, "transpose")
        for seed in range(10):
            rho = random_state(DIMS22, 4, seed)
            for alpha in (1.0, 2.0, math.inf):
                r = r_alpha(rho, spec, alpha, FAST)
                assert (r.value_bits, r.diagnostic) == (0.0, FREE)

    def test_bell_not_free(self):
        r = r_alpha(max_entangled(2), PT22, 1.0, FAST)
        assert r.value_bits > 0.99 and r.diagnostic != FREE


def _conjugated_partial_transpose():
    """2x3 dims, the seed-7 unitary V, and P(X) = V T_B(V^dag X V) V^dag."""
    dims = BipartitionDims(2, 3)
    rng = np.random.default_rng(7)
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    pmap = PositiveMapSpec(
        apply=lambda m: v @ partial_transpose(v.conj().T @ m @ v, dims) @ v.conj().T,
        dim=6,
        name="conjugated_partial_transpose",
    )
    return dims, v, pmap


class TestRAlpha:
    def test_reduction_to_entanglement_measure(self):
        states = [random_state(DIMS22, (seed % 4) + 1, seed) for seed in range(10)]
        states.append(werner_state(2, 0.4))  # PPT
        for rho in states:
            for alpha in (1.0, 1.5, 2.0, math.inf):
                for cfg in (FAST, DEFAULT_CONFIG):
                    r_res = r_alpha(rho, PT22, alpha, cfg)
                    r_ent = e_alpha(rho, alpha, cfg)
                    assert _fingerprint(r_res) == _fingerprint(r_ent)

    def test_reduction_at_order_inf(self):
        rho = random_state(DIMS22, 2, seed=101)
        if ppt_membership(rho):
            pytest.skip("seeded state happens to be PPT")
        for state in (rho, werner_state(2, 0.4)):
            r_res = r_alpha(state, PT22, math.inf, FAST)
            r_ent = e_alpha(state, math.inf, FAST)
            assert _fingerprint(r_res) == _fingerprint(r_ent)

    def test_free_state_gives_zero_with_mapped_certificate(self):
        rho = werner_state(2, 0.4)
        r = r_alpha(rho, PT22, 2.0, FAST)
        assert r.value_bits == 0.0
        np.testing.assert_allclose(
            r.certificate_sigma.matrix,
            partial_transpose(rho.matrix, DIMS22),
            atol=1e-10,
        )

    def test_nonnegative_and_ordered(self):
        dims = BipartitionDims(2, 3)
        rho = random_state(dims, 3, seed=206)
        if ppt_membership(rho):
            pytest.skip("seeded state happens to be PPT")
        pt = builtin_map("partial_transpose", dims)
        vals = [r_alpha(rho, pt, a, FAST).value_bits for a in (1.0, 1.5, 2.0, 5.0)]
        assert all(v >= 0 for v in vals)
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 2e-4

    @pytest.mark.parametrize("seed, newton_steps", [(100, 140), (101, 144), (102, 140)])
    def test_conjugated_partial_transpose_at_order_inf(self, seed, newton_steps, fallback_solves):
        # P(X) = V T_B(V^dag X V) V^dag with V a global unitary is no index
        # permutation; sigma is free for P iff V^dag sigma V is PPT, so the
        # order-inf value is e_kappa(V^dag rho V).  A wrong but positive
        # definite Newton system can still reach that value, so the step
        # count is pinned as well.
        dims, v, pmap = _conjugated_partial_transpose()
        rho = random_state(dims, 2, seed)
        rotated = BipartiteState(dims, v.conj().T @ rho.matrix @ v)
        assert not ppt_membership(rotated)
        r = r_alpha(rho, pmap, math.inf, FAST)
        assert r.converged
        assert abs(r.value_bits - e_kappa(rotated).value_bits) <= 1e-10
        assert r.iterations == newton_steps
        # every Newton system of the dense branch factors as positive definite
        assert fallback_solves == []

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_conjugated_partial_transpose_certifies_a_collapse_input(self, alpha):
        # rho = V W V^dag gives P(rho) = V T_B(W) V^dag, and |P(rho)| / ||P(rho)||_1
        # is free for P when W is binegative: a noisy pure state here
        dims, v, pmap = _conjugated_partial_transpose()
        pure = random_state(dims, 1, seed=0).matrix
        w = BipartiteState(dims, 0.9 * pure + 0.1 * np.eye(6) / 6)
        assert not ppt_membership(w) and binegativity_psd(w)
        r = r_alpha(BipartiteState(dims, v @ w.matrix @ v.conj().T), pmap, alpha, FAST)
        assert r.converged
        assert 1 <= r.iterations <= 6
        assert r.bracket[0] == pytest.approx(log_negativity(w), abs=1e-12)
        assert -1e-12 <= r.value_bits - r.bracket[0] <= solver._CERTIFIED_GAP

    @pytest.mark.parametrize(
        "alpha, value_hex, iterations",
        [(1.5, "0x1.f19ccc5c91d0dp-2", 51), (2.0, "0x1.f20105e21d63fp-2", 52)],
    )
    def test_conjugated_partial_transpose_keeps_its_bits(self, alpha, value_hex, iterations):
        # rho = V W V^dag with W a hard 2x3 state (NPT, not binegative): the
        # descent takes its full course, and its start skips the defect test
        # of the maximally mixed state, which the unital map leaves PSD.  The
        # value and the iteration count are those of the full defect test.
        dims, v, pmap = _conjugated_partial_transpose()
        w = random_state(dims, 3, seed=1)
        assert not ppt_membership(w) and not binegativity_psd(w)
        r = r_alpha(BipartiteState(dims, v @ w.matrix @ v.conj().T), pmap, alpha, FAST)
        assert r.converged
        assert (r.value_bits.hex(), r.iterations) == (value_hex, iterations)

    def test_map_dims_must_match_state(self):
        rho = random_state(BipartitionDims(2, 3), 3, seed=206)
        with pytest.raises(UnsupportedMapError):
            r_alpha(rho, PT22, 2.0, FAST)


class TestOutcomesAreReturned:
    """The engine returns every outcome in the result and raises none."""

    @pytest.fixture
    def kappa_calls(self, monkeypatch):
        calls = []
        real = resource._kappa_core

        def counted(*args):
            calls.append(args)
            return real(*args)

        # the engine solves order infinity, solver.bracket the finite-order endpoint
        monkeypatch.setattr(resource, "_kappa_core", counted)
        monkeypatch.setattr(solver, "_kappa_core", counted)
        return calls

    @pytest.mark.parametrize(
        "measure",
        [
            lambda rho, cfg: e_alpha(rho, 2.0, cfg),
            lambda rho, cfg: r_alpha(rho, builtin_map("partial_transpose", rho.dims), 2.0, cfg),
        ],
        ids=["e_alpha", "r_alpha"],
    )
    def test_exhausted_max_iter(self, kappa_calls, measure):
        # NPT and not binegative, so no early certificate ends the descent
        rho = random_state(BipartitionDims(2, 3), 3, seed=1)
        assert not ppt_membership(rho) and not binegativity_psd(rho)
        r = measure(rho, SolverConfig(max_iter=3))
        assert (r.iterations, r.converged) == (3, False)
        assert r.diagnostic == "projected gradient exhausted max_iter"
        assert r.bracket[0] == pytest.approx(log_negativity(rho), abs=1e-12)
        assert r.bracket[1] == math.inf
        assert kappa_calls == []  # the bracket audit is skipped

    @pytest.fixture
    def halved_kappa(self, monkeypatch):
        # an SDP value one bit too low, below every value it should bound
        real = resource._kappa_core

        def halved(*args):
            trace_val, S, steps = real(*args)
            return trace_val / 2, S, steps

        monkeypatch.setattr(resource, "_kappa_core", halved)
        monkeypatch.setattr(solver, "_kappa_core", halved)

    def test_kappa_below_the_lower_endpoint_escapes_its_bracket(self, halved_kappa):
        r = e_kappa(max_entangled(2))
        assert r.value_bits == pytest.approx(0.0, abs=1e-6)
        assert r.bracket == (pytest.approx(1.0, abs=1e-12), r.value_bits)
        assert not r.converged
        assert r.diagnostic.startswith(f"value {r.value_bits:.6f} escapes bracket [1.000000, ")

    def test_value_above_the_kappa_endpoint_escapes_its_bracket(self, halved_kappa):
        rho = random_state(DIMS22, 2, seed=1)
        assert not ppt_membership(rho)
        r = e_alpha(rho, 2.0, DEFAULT_CONFIG)
        lower, upper = r.bracket
        assert upper == pytest.approx(lower - 1.0, abs=1e-6)
        assert not r.converged
        assert r.diagnostic == (
            f"value {r.value_bits:.6f} escapes bracket [{lower:.6f}, {upper:.6f}] "
            f"beyond value_tol {DEFAULT_CONFIG.value_tol:g}"
        )

    @pytest.mark.parametrize(
        "rho",
        [random_state(BipartitionDims(2, 3), 3, seed=206), werner_state(2, 0.3)],
        ids=["npt", "ppt"],
    )
    def test_e_kappa_is_e_alpha_at_inf(self, rho):
        rk, ra = e_kappa(rho), e_alpha(rho, math.inf)
        assert _fingerprint(rk) == _fingerprint(ra)
        assert rk.alpha == ra.alpha == math.inf
        assert np.array_equal(rk.certificate_sigma.matrix, ra.certificate_sigma.matrix)


class TestFreeInstrumentMonotonicity:
    def test_local_instrument_commutes_and_is_monotone(self):
        instr = random_local_instrument(DIMS22, 2, seed=9)
        rho = random_state(DIMS22, 2, seed=207)
        slack = free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)
        assert slack >= -3e-4

    def test_unitary_free_op_invariance(self):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        instr = Instrument(
            (kraus_channel([np.kron(np.eye(2), u)], 4, 4),), DIMS22, DIMS22
        )
        rho = random_state(DIMS22, 2, seed=208)
        slack = free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)
        assert abs(slack) < 3e-4

    def test_non_commuting_rejected(self):
        # T_B . CNOT . T_B is not completely positive: CNOT across the cut is not free
        instr = Instrument((kraus_channel([CNOT], 4, 4),), DIMS22, DIMS22)
        with pytest.raises(CommutationFailedError):
            free_instrument_monotonicity_check(
                instr, max_entangled(2), PT22, 2.0, FAST
            )


    def test_instrument_dims_must_match_map(self):
        instr = random_local_instrument(BipartitionDims(2, 3), 2, seed=9)
        rho = random_state(BipartitionDims(2, 3), 2, seed=207)
        with pytest.raises(UnsupportedMapError):
            free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)

    def test_free_check_agrees_with_cpptp_for_partial_transpose(self):
        for dims, seed in ((DIMS22, 1), (DIMS22, 5), (BipartitionDims(2, 3), 7),
                           (BipartitionDims(3, 2), 12)):
            instr = random_local_instrument(dims, 3, seed, kraus_per_element=2)
            assert any(np.abs(choi_of(el).imag).max() > 0.1 for el in instr.elements)
            assert is_cpptp_instrument(instr)
            _check_free_operation(instr, builtin_map("partial_transpose", dims))
        instr = Instrument((kraus_channel([CNOT], 4, 4),), DIMS22, DIMS22)
        assert not is_cpptp_instrument(instr)
        with pytest.raises(CommutationFailedError):
            _check_free_operation(instr, PT22)

    def test_free_check_applies_map_to_hermitian_inputs_only(self):
        # equals the identity on Hermitian inputs, which is all a spec verifies;
        # on |i><j| it would give (|i><j| + |j><i|) / 2 instead
        identity = PositiveMapSpec(
            apply=lambda m: (m + m.conj().T) / 2, dim=4, name="hermitian-identity"
        )
        instr = Instrument((kraus_channel([CNOT], 4, 4),), DIMS22, DIMS22)
        _check_free_operation(instr, identity)


class TestRAlphaChannel:
    def test_identity_matches_channel_module(self):
        ch = kraus_channel([np.eye(4, dtype=complex)], 4, 4, DIMS22, DIMS22)
        cfg = dataclasses.replace(FAST, restarts=4)
        value = r_alpha_channel(ch, PT22, 1.0, cfg)
        assert abs(value - 1.0) < 5e-3

    def test_depolarize_to_free_state(self):
        ops = []
        d = 4
        for i in range(d):
            for j in range(d):
                k = np.zeros((d, d), dtype=complex)
                k[i, j] = 1.0
                ops.append(k / math.sqrt(d))
        ch = kraus_channel(ops, d, d, DIMS22, DIMS22)
        cfg = dataclasses.replace(FAST, restarts=2)
        assert abs(r_alpha_channel(ch, PT22, 2.0, cfg)) < 1e-6

    def test_monotone_under_free_precomposition(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        free_kraus = np.kron(np.eye(2), u)
        base = kraus_channel([np.eye(4, dtype=complex)], 4, 4, DIMS22, DIMS22)
        composed = kraus_channel([free_kraus], 4, 4, DIMS22, DIMS22)
        cfg = dataclasses.replace(FAST, restarts=3)
        v_base = r_alpha_channel(base, PT22, 1.0, cfg)
        v_composed = r_alpha_channel(composed, PT22, 1.0, cfg)
        assert v_composed <= v_base + 3e-4

    def test_rejects_map_of_other_dimension(self):
        ch = kraus_channel([np.eye(4, dtype=complex)], 4, 4, DIMS22, DIMS22)
        pt23 = builtin_map("partial_transpose", BipartitionDims(2, 3))
        with pytest.raises(UnsupportedMapError):
            r_alpha_channel(ch, pt23, 2.0, FAST)
