import dataclasses
import math

import numpy as np
import pytest

from alphaneg.channels import (
    Instrument,
    KrausChannel,
    is_cpptp_instrument,
    random_local_instrument,
)
from alphaneg.errors import CommutationFailedError, UnsupportedMapError
from alphaneg.linalg import BipartitionDims
from alphaneg.resource import (
    PositiveMapSpec,
    _check_free_operation,
    builtin_map,
    free_instrument_monotonicity_check,
    free_membership,
    r_alpha,
    r_alpha_channel,
    register_map,
    resolve_map,
)
from alphaneg.solver import DEFAULT_CONFIG, e_alpha
from alphaneg.states import max_entangled, ppt_membership, random_state, werner_state

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

    def test_builtin_transpose_verifies(self):
        spec = builtin_map("transpose", DIMS22)
        assert (spec.name, spec.dim) == ("transpose", 4)

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
        with pytest.raises(UnsupportedMapError):
            builtin_map("reduction", DIMS22)

    def test_registry(self):
        register_map("flip", lambda dims: builtin_map("transpose", dims))
        spec = resolve_map("flip", DIMS22)
        assert spec.name == "transpose"


class TestFreeMembership:
    def test_reduces_to_ppt(self):
        for seed in range(20):
            rho = random_state(DIMS22, (seed % 4) + 1, seed)
            assert free_membership(rho, PT22) == ppt_membership(rho)

    def test_full_transpose_every_state_free(self):
        spec = builtin_map("transpose", DIMS22)
        for seed in range(10):
            assert free_membership(random_state(DIMS22, 4, seed), spec)

    def test_bell_not_free(self):
        assert not free_membership(max_entangled(2), PT22)


class TestRAlpha:
    def test_reduction_to_entanglement_measure(self):
        states = [random_state(DIMS22, (seed % 4) + 1, seed) for seed in range(10)]
        states.append(werner_state(2, 0.4))  # PPT
        for rho in states:
            for alpha in (1.0, 1.5, 2.0, math.inf):
                r_res = r_alpha(rho, PT22, alpha, FAST)
                r_ent = e_alpha(rho, alpha, FAST)
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
        from alphaneg.linalg import partial_transpose

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

    def test_map_dims_must_match_state(self):
        rho = random_state(BipartitionDims(2, 3), 3, seed=206)
        with pytest.raises(UnsupportedMapError):
            r_alpha(rho, PT22, 2.0, FAST)
        with pytest.raises(UnsupportedMapError):
            free_membership(rho, PT22)


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
            (KrausChannel((np.kron(np.eye(2), u),), 4, 4),), DIMS22, DIMS22
        )
        rho = random_state(DIMS22, 2, seed=208)
        slack = free_instrument_monotonicity_check(instr, rho, PT22, 2.0, FAST)
        assert abs(slack) < 3e-4

    def test_non_commuting_rejected(self):
        # T_B . CNOT . T_B is not completely positive: CNOT across the cut is not free
        instr = Instrument((KrausChannel((CNOT,), 4, 4),), DIMS22, DIMS22)
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
            assert any(np.iscomplexobj(k) and np.abs(k.imag).max() > 0.1
                       for el in instr.elements for k in el.kraus_ops)
            assert is_cpptp_instrument(instr)
            _check_free_operation(instr, builtin_map("partial_transpose", dims))
        instr = Instrument((KrausChannel((CNOT,), 4, 4),), DIMS22, DIMS22)
        assert not is_cpptp_instrument(instr)
        with pytest.raises(CommutationFailedError):
            _check_free_operation(instr, PT22)

    def test_free_check_applies_map_to_hermitian_inputs_only(self):
        # equals the identity on Hermitian inputs, which is all a spec verifies;
        # on |i><j| it would give (|i><j| + |j><i|) / 2 instead
        identity = PositiveMapSpec(
            apply=lambda m: (m + m.conj().T) / 2, dim=4, name="hermitian-identity"
        )
        instr = Instrument((KrausChannel((CNOT,), 4, 4),), DIMS22, DIMS22)
        _check_free_operation(instr, identity)


class TestRAlphaChannel:
    def test_identity_matches_channel_module(self):
        ch = KrausChannel(
            (np.eye(4, dtype=complex),), 4, 4, DIMS22, DIMS22
        )
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
        ch = KrausChannel(tuple(ops), d, d, DIMS22, DIMS22)
        cfg = dataclasses.replace(FAST, restarts=2)
        assert abs(r_alpha_channel(ch, PT22, 2.0, cfg)) < 1e-6

    def test_monotone_under_free_precomposition(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        u, _ = np.linalg.qr(g)
        free_kraus = np.kron(np.eye(2), u)
        base = KrausChannel((np.eye(4, dtype=complex),), 4, 4, DIMS22, DIMS22)
        composed = KrausChannel((free_kraus,), 4, 4, DIMS22, DIMS22)
        cfg = dataclasses.replace(FAST, restarts=3)
        v_base = r_alpha_channel(base, PT22, 1.0, cfg)
        v_composed = r_alpha_channel(composed, PT22, 1.0, cfg)
        assert v_composed <= v_base + 3e-4

    def test_rejects_map_of_other_dimension(self):
        ch = KrausChannel((np.eye(4, dtype=complex),), 4, 4, DIMS22, DIMS22)
        pt23 = builtin_map("partial_transpose", BipartitionDims(2, 3))
        with pytest.raises(UnsupportedMapError):
            r_alpha_channel(ch, pt23, 2.0, FAST)
