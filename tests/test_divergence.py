import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alphaneg import divergence, linalg
from alphaneg.channels import Instrument, channel_e_alpha, kraus_channel, werner_holevo_channel
from alphaneg.divergence import (
    binegativity_psd,
    check_alpha,
    classical_relative_entropy,
    d_max,
    log_negativity,
    mu_alpha,
    nu_alpha,
    sandwiched_renyi,
)
from alphaneg.errors import (
    AlphaOutOfRangeError,
    NegativeSpectrumError,
    NonHermitianError,
    NotPositiveDefiniteError,
    ZeroOperatorError,
)
from alphaneg.linalg import BipartitionDims, schatten_norm
from alphaneg.resource import (
    builtin_map,
    free_instrument_monotonicity_check,
    r_alpha,
    r_alpha_channel,
)
from alphaneg.solver import alpha_sweep, e_alpha
from alphaneg.states import BipartiteState, max_entangled, random_state, werner_state

import _reference
from _reference import gamma_conjugate, weighted_norm
from conftest import random_hermitian, random_pd, random_psd

X_HALF = np.diag([0.5, -0.5]).astype(complex)
EYE_HALF = (np.eye(2) / 2).astype(complex)


def d_max_scan_oracle(x, sigma, lo=1e-6, hi=1e6, iters=80):
    """Bisection on the smallest lam with -lam*sigma <= x <= lam*sigma."""

    def feasible(lam):
        a = np.linalg.eigvalsh(lam * sigma - x)[0]
        b = np.linalg.eigvalsh(lam * sigma + x)[0]
        return a >= -1e-12 and b >= -1e-12

    assert feasible(hi)
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return math.log2(hi)


class TestMuAlpha:
    def test_order_one_is_trace_norm(self, rng):
        x = random_hermitian(rng, 4)
        sigma = random_pd(rng, 4)
        assert abs(mu_alpha(x, sigma, 1) - schatten_norm(x, 1)) < 1e-10

    def test_frozen_two_level_example(self):
        assert abs(mu_alpha(X_HALF, EYE_HALF, 2) - 1.0) < 1e-12

    def test_support_violation_is_inf(self):
        for alpha in (1, 2, 7.5, math.inf):
            assert mu_alpha(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), alpha) == math.inf
            if alpha > 1:
                assert sandwiched_renyi(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), alpha) == math.inf

    def test_rejects_negative_spectrum_at_every_order(self):
        sigma = np.diag([1.0, -0.5])
        for alpha in (1, 2, math.inf):
            with pytest.raises(NegativeSpectrumError):
                mu_alpha(X_HALF, sigma, alpha)
            with pytest.raises(NegativeSpectrumError):
                nu_alpha(X_HALF, sigma, alpha)

    def test_order_one_on_rank_deficient_sigma(self, rng):
        # sigma^0 on the support is the projector P onto it
        for _ in range(5):
            sigma = random_psd(rng, 4, rank=2)
            _, v = np.linalg.eigh(sigma)
            proj = v[:, 2:] @ v[:, 2:].conj().T
            x = proj @ random_hermitian(rng, 4) @ proj
            expect = schatten_norm(proj @ x @ proj, 1)
            assert abs(mu_alpha(x, sigma, 1) - expect) < 1e-10 * expect

    def test_order_inf_on_rank_deficient_sigma(self, rng):
        # the inverse square root taken on the support of sigma
        for _ in range(5):
            sigma = random_psd(rng, 4, rank=3)
            w, v = np.linalg.eigh(sigma)
            inv_sqrt = (v[:, 1:] * w[1:] ** -0.5) @ v[:, 1:].conj().T
            proj = v[:, 1:] @ v[:, 1:].conj().T
            x = proj @ random_hermitian(rng, 4) @ proj
            expect = schatten_norm(inv_sqrt @ x @ inv_sqrt, math.inf)
            assert abs(mu_alpha(x, sigma, math.inf) - expect) < 1e-9 * expect

    def test_rejects_zero_operators(self):
        with pytest.raises(ZeroOperatorError):
            mu_alpha(np.zeros((2, 2)), EYE_HALF, 2)
        with pytest.raises(ZeroOperatorError):
            mu_alpha(X_HALF, np.zeros((2, 2)), 2)

    def test_rejects_bad_alpha(self):
        with pytest.raises(AlphaOutOfRangeError):
            mu_alpha(X_HALF, EYE_HALF, 0.7)

    @pytest.mark.parametrize(
        "fn",
        [mu_alpha, nu_alpha, sandwiched_renyi, lambda x, s, a: d_max(x, s)],
        ids=["mu_alpha", "nu_alpha", "sandwiched_renyi", "d_max"],
    )
    def test_mismatched_pair_names_both_shapes(self, fn):
        with pytest.raises(ValueError, match=r"shapes do not match: \(2, 2\) vs \(3, 3\)"):
            fn(np.eye(2), np.eye(3) / 3, 2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_rejects_non_finite_entries(self, bad, first):
        m = np.eye(2, dtype=complex)
        m[0, 1] = m[1, 0] = bad
        pair = (m, EYE_HALF) if first else (X_HALF, m)
        with pytest.raises(NonHermitianError, match="matrix has non-finite entries"):
            mu_alpha(*pair, 2.0)

    @pytest.mark.parametrize("alpha", [1, 2, math.inf])
    @pytest.mark.parametrize(
        "pair",
        [
            (X_HALF, EYE_HALF),
            (np.diag([1.0, 0.0, 0.0]), np.diag([0.6, 0.4, 0.0])),
            (np.diag([1.0, -1.0]), np.diag([1.0, 0.0])),  # X escapes: +inf
        ],
    )
    def test_validates_twice_and_decomposes_once(self, pair, alpha, monkeypatch):
        calls = {"check_hermitian": 0, "eigh": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        check = counted("check_hermitian", linalg.check_hermitian)
        monkeypatch.setattr(linalg, "check_hermitian", check)
        monkeypatch.setattr(divergence, "check_hermitian", check)
        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
        mu_alpha(*pair, alpha)
        assert calls == {"check_hermitian": 2, "eigh": 1}


# sigma spectra with entries on both sides of the support tolerance, 1e-10
# relative to the largest eigenvalue, and one eigenvalue that may be negative
# within or beyond the same tolerance
EIGENVALUE = st.sampled_from([1.0, 0.37, 1e-3, 1e-9, 2e-10, 1e-10, 5e-11, 0.0])
NEGATIVE = st.sampled_from([None, None, None, -5e-11, -2e-10, -0.3])
ORDER = st.sampled_from([1.0, 1.5, 2.0, 5.0, math.inf]) | st.floats(1.0, 64.0)


def _outcome(fn, *args):
    """The value's exact bits, or the error's type and message."""
    try:
        return float(fn(*args)).hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestMuAlphaAgainstReference:
    """mu_alpha against the path that decomposed sigma once for its support
    and again for sigma^p (``_reference.mu_alpha``)."""

    @settings(max_examples=300, deadline=None)
    @given(
        spectrum=st.integers(1, 6).flatmap(lambda n: st.lists(EIGENVALUE, min_size=n, max_size=n)),
        negative=NEGATIVE,
        scale=st.sampled_from([1.0, 1e-6, 3e4]),
        leak=st.sampled_from([0.0, 1e-13, 1e-11, 1e-9, 1.0]),
        alpha=ORDER,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_same_bits_or_same_error(self, spectrum, negative, scale, leak, alpha, seed):
        rng = np.random.default_rng(seed)
        n = len(spectrum)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        w = scale * np.array(spectrum if negative is None else [negative] + spectrum[1:])
        sigma = (u * w) @ u.conj().T
        keep = u[:, w > 0]
        x = keep @ random_hermitian(rng, keep.shape[1]) @ keep.conj().T + leak * random_hermitian(rng, n)
        assert _outcome(mu_alpha, x, sigma, alpha) == _outcome(_reference.mu_alpha, x, sigma, alpha)


class TestNuAlpha:
    def test_self_divergence_vanishes(self, rng):
        rho = random_pd(rng, 3, trace=1.0)
        for alpha in (1, 1.5, 2, 5, math.inf):
            assert abs(nu_alpha(rho, rho, alpha)) < 1e-9

    def test_frozen_two_level_example(self):
        assert abs(nu_alpha(X_HALF, EYE_HALF, 2)) < 1e-12

    def test_bell_partial_transpose_trace_norm(self, rng):
        from alphaneg.linalg import partial_transpose

        pt = partial_transpose(max_entangled(2).matrix, BipartitionDims(2, 2))
        sigma = random_pd(rng, 4)
        assert abs(nu_alpha(pt, sigma, 1) - 1.0) < 1e-10


class TestDMax:
    def test_self_divergence(self, rng):
        rho = random_pd(rng, 3, trace=1.0)
        assert abs(d_max(rho, rho)) < 1e-9

    def test_frozen_example(self):
        assert abs(d_max(X_HALF, EYE_HALF)) < 1e-12

    def test_support_violation(self):
        assert d_max(np.diag([1.0, -1.0]), np.diag([1.0, 0.0])) == math.inf
        assert sandwiched_renyi(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), math.inf) == math.inf

    def test_matches_scan_oracle(self, rng):
        for _ in range(10):
            d = int(rng.integers(2, 6))
            x = random_hermitian(rng, d)
            sigma = random_pd(rng, d)
            assert abs(d_max(x, sigma) - d_max_scan_oracle(x, sigma)) < 1e-6


class TestSandwichedRenyi:
    def test_states_give_zero(self, rng):
        rho = random_pd(rng, 3, trace=1.0)
        assert abs(sandwiched_renyi(rho, rho, 2)) < 1e-9

    def test_frozen_example(self):
        assert abs(sandwiched_renyi(X_HALF, EYE_HALF, 2)) < 1e-12

    def test_rejects_order_one(self):
        with pytest.raises(AlphaOutOfRangeError):
            sandwiched_renyi(X_HALF, EYE_HALF, 1)

    def test_psd_case_matches_direct_formula(self, rng):
        rho = random_pd(rng, 4, trace=1.0)
        sigma = random_pd(rng, 4, trace=1.0)
        inv4 = _reference.matrix_power_support(sigma, -0.25)
        direct = math.log2(np.trace((inv4 @ rho @ inv4) @ (inv4 @ rho @ inv4)).real)
        assert abs(sandwiched_renyi(rho, sigma, 2) - direct) < 1e-9


class TestWeightedNormAndGamma:
    def test_identity_weight(self, rng):
        x = random_hermitian(rng, 4)
        for p in (1, 2, 3.5):
            assert abs(weighted_norm(x, np.eye(4), p) - schatten_norm(x, p)) < 1e-10

    def test_infinite_order_drops_weight(self, rng):
        x = random_hermitian(rng, 4)
        sigma = random_pd(rng, 4)
        assert abs(weighted_norm(x, sigma, math.inf) - schatten_norm(x, math.inf)) < 1e-12

    def test_gamma_identity_map(self, rng):
        x = random_hermitian(rng, 3)
        np.testing.assert_allclose(gamma_conjugate(x, np.eye(3)), x, atol=1e-12)

    def test_gamma_round_trip(self, rng):
        x = random_hermitian(rng, 4)
        sigma = random_pd(rng, 4)
        back = gamma_conjugate(gamma_conjugate(x, sigma, inverse=True), sigma)
        np.testing.assert_allclose(back, x, atol=1e-10)

    def test_inverse_conjugation_preserves_trace_norm(self, rng):
        x = random_hermitian(rng, 4)
        sigma = random_pd(rng, 4)
        lhs = weighted_norm(gamma_conjugate(x, sigma, inverse=True), sigma, 1)
        assert abs(lhs - schatten_norm(x, 1)) < 1e-9

    def test_weighted_norm_of_conjugate_equals_mu(self, rng):
        for _ in range(5):
            d = int(rng.integers(2, 6))
            x = random_hermitian(rng, d)
            sigma = random_pd(rng, d)
            for alpha in (1.5, 2, 5):
                lhs = weighted_norm(gamma_conjugate(x, sigma, inverse=True), sigma, alpha)
                rhs = mu_alpha(x, sigma, alpha)
                assert abs(lhs - rhs) < 1e-8 * max(1, rhs)

    def test_rejects_singular_weight(self, rng):
        with pytest.raises(NotPositiveDefiniteError):
            weighted_norm(random_hermitian(rng, 2), np.diag([1.0, 0.0]), 2)


class TestLogNegativity:
    def test_max_entangled(self):
        for d in (2, 3, 4):
            assert abs(log_negativity(max_entangled(d)) - math.log2(d)) < 1e-10

    def test_ppt_states_give_zero(self, rng):
        from alphaneg.states import ppt_membership

        count = 0
        for seed in range(40):
            rho = random_state(BipartitionDims(2, 2), 4, seed)
            if ppt_membership(rho):
                count += 1
                assert 0.0 <= log_negativity(rho) < 1e-9
        assert count > 0

    def test_pure_state_closed_form(self, rng):
        for p in (0.1, 0.3, 0.5, 0.8):
            v = np.zeros(4, dtype=complex)
            v[0] = math.sqrt(p)
            v[3] = math.sqrt(1 - p)
            rho = BipartiteState(BipartitionDims(2, 2), np.outer(v, v.conj()))
            expect = 2 * math.log2(math.sqrt(p) + math.sqrt(1 - p))
            assert abs(log_negativity(rho) - expect) < 1e-10


class TestBinegativity:
    def test_two_qubit_states(self):
        for seed in range(20):
            rho = random_state(BipartitionDims(2, 2), (seed % 4) + 1, seed)
            assert binegativity_psd(rho)

    def test_pure_states_any_dims(self, rng):
        for dims in (BipartitionDims(2, 3), BipartitionDims(3, 3)):
            for seed in range(5):
                rho = random_state(dims, 1, 100 + seed)
                assert binegativity_psd(rho)

    def test_werner_grid(self):
        for p in np.linspace(0, 1, 11):
            assert binegativity_psd(werner_state(3, float(p)))


class TestClassicalRelativeEntropy:
    def test_equal_distributions(self):
        assert classical_relative_entropy([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_single_term(self):
        assert abs(classical_relative_entropy([1.0, 0.0], [0.5, 0.5]) - 1.0) < 1e-14

    def test_against_term_loop(self, rng):
        p = rng.random(5)
        p /= p.sum()
        q = rng.random(5) + 0.1
        manual = sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)
        assert abs(classical_relative_entropy(p, q) - manual) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            classical_relative_entropy([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            classical_relative_entropy([1.0, 0.0], [0.5, 0.0])

    @pytest.mark.parametrize(
        "p,q",
        [
            ([math.nan, 0.5], [0.5, 0.5]),
            ([0.5, 0.5], [math.nan, 0.5]),
            ([0.5, 0.5], [math.inf, 0.5]),
            ([math.inf, 0.5], [0.5, 0.5]),
        ],
    )
    def test_rejects_non_finite_weights(self, p, q):
        with pytest.raises(ValueError, match="weights must be finite"):
            classical_relative_entropy(p, q)


class TestDivergenceInvariants:
    """Seeded sweeps of the proved inequalities at module-test scale."""

    def test_data_processing_small(self):
        from alphaneg.suites import data_processing_battery

        report = data_processing_battery(seed=11, instances=25)
        assert report.passed, report

    def test_cq_blocks_small(self):
        from alphaneg.suites import cq_block_battery

        report = cq_block_battery(seed=12, instances=25)
        assert report.passed, report

    def test_trace_norm_bound_small(self):
        from alphaneg.suites import trace_norm_bound_battery

        report = trace_norm_bound_battery(seed=13, instances=25)
        assert report.passed, report

    def test_normalized_ordering_small(self):
        from alphaneg.suites import normalized_ordering_battery

        report = normalized_ordering_battery(seed=14, instances=25)
        assert report.passed, report

    def test_plain_ordering_small(self):
        from alphaneg.suites import plain_ordering_battery

        report = plain_ordering_battery(seed=15, instances=25)
        assert report.passed, report

    def test_convexity_small(self):
        from alphaneg.suites import convexity_battery

        report = convexity_battery(seed=16, instances=25)
        assert report.passed, report

    def test_regularization_continuity_small(self):
        from alphaneg.suites import regularization_continuity_battery

        report = regularization_continuity_battery(seed=17, instances=15)
        assert report.passed, report


BELL = max_entangled(2)
PT22 = builtin_map("partial_transpose", BipartitionDims(2, 2))
ID22 = kraus_channel([np.eye(4, dtype=complex)], 4, 4, BipartitionDims(2, 2), BipartitionDims(2, 2))
# beyond the channel search's input-dimension cap, so the order is seen first
ID5 = kraus_channel([np.eye(5, dtype=complex)], 5, 5)
# Every public function that takes an order, on small valid inputs.
ORDER_TAKERS = {
    "check_alpha": check_alpha,
    "mu_alpha": lambda a: mu_alpha(X_HALF, EYE_HALF, a),
    "nu_alpha": lambda a: nu_alpha(X_HALF, EYE_HALF, a),
    "sandwiched_renyi": lambda a: sandwiched_renyi(X_HALF, EYE_HALF, a),
    "schatten_norm": lambda a: schatten_norm(X_HALF, a),
    "e_alpha": lambda a: e_alpha(BELL, a),
    "alpha_sweep": lambda a: alpha_sweep(BELL, [1.0, a]),
    "r_alpha": lambda a: r_alpha(BELL, PT22, a),
    "free_instrument_monotonicity_check": lambda a: free_instrument_monotonicity_check(
        Instrument((ID22,), ID22.bipartition_in, ID22.bipartition_out), BELL, PT22, a
    ),
    "channel_e_alpha": lambda a: channel_e_alpha(werner_holevo_channel(1.0, 2), a),
    "channel_e_alpha_dim5": lambda a: channel_e_alpha(ID5, a),
    "r_alpha_channel": lambda a: r_alpha_channel(ID22, PT22, a),
    "r_alpha_channel_dim5": lambda a: r_alpha_channel(
        ID5, builtin_map("partial_transpose", BipartitionDims(1, 5)), a
    ),
}


class TestOrderGuard:
    @pytest.mark.parametrize("name", sorted(ORDER_TAKERS))
    @settings(max_examples=25, deadline=None)
    @given(order=st.floats(max_value=1.0, exclude_max=True))
    @example(order=math.nan)
    @example(order=True)
    @example(order=np.True_)
    def test_rejects_nan_and_orders_below_one(self, name, order):
        with pytest.raises(AlphaOutOfRangeError):
            ORDER_TAKERS[name](order)
