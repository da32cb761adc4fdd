import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from alphaneg.divergence import binegativity_psd, log_negativity, mu_alpha
from alphaneg.errors import NotPositiveDefiniteError
from alphaneg.linalg import BipartitionDims, partial_transpose, schatten_norm
from alphaneg import solver
from alphaneg.pptgeom import regularize
from alphaneg.solver import (
    DEFAULT_CONFIG,
    MeasureResult,
    SolverConfig,
    alpha_sweep,
    audit_monotonicity,
    bracket,
    e_alpha,
    e_kappa,
)
from alphaneg.states import (
    max_entangled,
    no_convexity_fixture,
    ppt_membership,
    random_state,
    werner_state,
)

from conftest import random_hermitian

DIMS22 = BipartitionDims(2, 2)
FAST = dataclasses.replace(DEFAULT_CONFIG, with_bracket=False)


def random_npt(dims, seed, want_binegativity=None):
    """First seeded state from `seed` that is NPT (optionally filtered on the
    binegativity condition)."""
    s = seed
    while True:
        rho = random_state(dims, 2 + (s % (dims.total - 1)), s)
        if not ppt_membership(rho):
            if want_binegativity is None or binegativity_psd(rho) == want_binegativity:
                return rho
        s += 1


def objective_and_gradient(X, sigma, alpha):
    """f(sigma) = ||sigma^p X sigma^p||_alpha^alpha and its gradient, from the
    solver's log objective through f = exp(log f)."""
    log_f, grad_log = solver._log_objective(X, sigma, alpha)
    f = math.exp(log_f)
    return f, grad_log * f


class TestObjectiveAndGradient:
    def test_value_is_mu_power(self, rng):
        rho = random_npt(DIMS22, 5)
        x = partial_transpose(rho.matrix, DIMS22)
        sigma = regularize(werner_state(2, 0.25), 1e-3).matrix
        for alpha in (1.5, 2.0, 5.0):
            f, _ = objective_and_gradient(x, sigma, alpha)
            assert f == pytest.approx(mu_alpha(x, sigma, alpha) ** alpha, rel=1e-9)

    def test_ppt_self_reference_value_one(self):
        # a full-rank PPT state evaluated at sigma = its own partial transpose
        rho = regularize(werner_state(2, 0.4), 1e-2)
        x = partial_transpose(rho.matrix, DIMS22)
        for alpha in (1.5, 2.0, 4.0):
            f, _ = objective_and_gradient(x, x, alpha)
            assert f == pytest.approx(1.0, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        rho = random_npt(DIMS22, 23)
        x = partial_transpose(rho.matrix, DIMS22)
        sigma = np.eye(4) / 4
        _, grad = objective_and_gradient(x, sigma, 2.0)
        h = 1e-5
        for _ in range(8):
            delta = random_hermitian(rng, 4)
            fp, _ = objective_and_gradient(x, sigma + h * delta, 2.0)
            fm, _ = objective_and_gradient(x, sigma - h * delta, 2.0)
            fd = (fp - fm) / (2 * h)
            analytic = np.trace(grad @ delta).real
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))

    def test_convex_along_segments(self, rng):
        rho = random_npt(DIMS22, 31)
        x = partial_transpose(rho.matrix, DIMS22)
        for _ in range(5):
            a = np.abs(rng.standard_normal(4)) + 0.1
            b = np.abs(rng.standard_normal(4)) + 0.1
            s0 = np.diag(a / a.sum()).astype(complex)
            s1 = np.diag(b / b.sum()).astype(complex)
            for alpha in (1.5, 2.0, 3.0):
                f0, _ = objective_and_gradient(x, s0, alpha)
                f1, _ = objective_and_gradient(x, s1, alpha)
                fm, _ = objective_and_gradient(x, (s0 + s1) / 2, alpha)
                assert fm <= (f0 + f1) / 2 + 1e-9 * max(1, f0 + f1)

    def test_rejects_singular_sigma(self):
        x = partial_transpose(max_entangled(2).matrix, DIMS22)
        with pytest.raises(NotPositiveDefiniteError):
            objective_and_gradient(x, np.diag([1.0, 0, 0, 0]).astype(complex), 2.0)


class TestEAlpha:
    def test_max_entangled_normalization(self):
        for d in (2, 3):
            phi = max_entangled(d)
            for alpha in (1.5, 2.0, 5.0):
                r = e_alpha(phi, alpha, FAST)
                assert abs(r.value_bits - math.log2(d)) < 1e-4
                assert r.converged

    def test_ppt_short_circuit_exact_zero(self):
        rho = werner_state(2, 0.4)
        for alpha in (1.0, 2.0, math.inf):
            r = e_alpha(rho, alpha, FAST)
            assert r.value_bits == 0.0
            assert r.converged
            assert r.iterations == 0
            assert ppt_membership(r.certificate_sigma)

    def test_two_qubit_collapse(self):
        for seed in (3, 7, 19):
            rho = random_npt(DIMS22, seed)
            en = log_negativity(rho)
            r = e_alpha(rho, 2.0, FAST)
            assert abs(r.value_bits - en) < 1e-4

    def test_certificate_is_interior_ppt(self):
        rho = random_npt(DIMS22, 41)
        r = e_alpha(rho, 2.0, FAST)
        cert = r.certificate_sigma
        assert np.linalg.eigvalsh(cert.matrix)[0] > 0
        assert ppt_membership(cert, tol=1e-12)

    def test_order_one_closed_form(self):
        rho = random_npt(DIMS22, 11)
        r = e_alpha(rho, 1.0, FAST)
        assert r.value_bits == pytest.approx(log_negativity(rho), abs=1e-12)

    def test_bracket_checked_when_requested(self):
        rho = random_npt(DIMS22, 13)
        r = e_alpha(rho, 2.0, DEFAULT_CONFIG)
        lo, hi = r.bracket
        assert lo - 1e-4 <= r.value_bits <= hi + 1e-4
        assert r.converged


class TestEKappa:
    def test_normalization(self):
        for d in (2, 3):
            r = e_kappa(max_entangled(d))
            assert abs(r.value_bits - math.log2(d)) < 1e-6

    def test_ppt_input_near_zero(self):
        r = e_kappa(werner_state(2, 0.3))
        assert abs(r.value_bits) < 1e-6

    def test_two_qubit_matches_closed_form(self):
        for seed in (2, 9, 27):
            rho = random_npt(DIMS22, seed)
            r = e_kappa(rho)
            assert abs(r.value_bits - log_negativity(rho)) < 1e-6

    def test_certificate_feasibility(self):
        rho = random_npt(DIMS22, 8)
        r = e_kappa(rho)
        s_opt = r.certificate_sigma.matrix * (2**r.value_bits)
        x = partial_transpose(rho.matrix, DIMS22)
        s_pt = partial_transpose(s_opt, DIMS22)
        for block in (s_pt - x, s_pt + x, s_opt):
            assert np.linalg.eigvalsh(block)[0] >= -1e-8

    @pytest.mark.parametrize("dims", [BipartitionDims(2, 3), BipartitionDims(3, 3), BipartitionDims(4, 4)])
    def test_permutation_gather_matches_dense_newton_system(self, monkeypatch, dims):
        # T_B's matrix is a permutation, so the core gathers the Newton
        # system; forcing the dense products must give the same bits.  At 4x4
        # the buffers are the 1 MB ones of the benchmark's kappa states.
        rho = random_npt(dims, 5)
        x = partial_transpose(rho.matrix, dims)
        pt = lambda m: partial_transpose(m, dims, "B")
        trace, s_mat, steps, converged = solver._kappa_core(x, pt)
        monkeypatch.setattr(solver, "_permutation_of", lambda Pm: None)
        dense = solver._kappa_core(x, pt)
        assert converged and dense[3]
        assert trace.hex() == dense[0].hex()
        assert np.array_equal(s_mat, dense[1])
        assert steps == dense[2]


    def test_newton_system_allocates_no_per_step_arrays(self):
        # the Newton system lives in three D^4-entry buffers per solve; six
        # such arrays (6 MB at D = 16) would mean per-step temporaries again
        dims = BipartitionDims(4, 4)
        rho = random_state(dims, 3, 11)
        x = partial_transpose(rho.matrix, dims)
        pt = lambda m: partial_transpose(m, dims, "B")
        tracemalloc.start()
        try:
            _, _, steps, converged = solver._kappa_core(x, pt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert converged and steps > 100
        assert peak < 6 * dims.total**4 * 16


class TestKappaCore:
    @pytest.mark.parametrize("dims, seed", [((2, 2), 1), ((2, 3), 2), ((3, 3), 3)])
    def test_identity_map_gives_the_trace_norm(self, dims, seed):
        # with P the identity the program is min Tr S s.t. -S <= X <= S, whose
        # value is ||X||_1 in closed form
        dims = BipartitionDims(*dims)
        X = partial_transpose(random_state(dims, dims.total, seed=seed).matrix, dims)
        value, _, _, converged = solver._kappa_core(X, lambda m: m)
        assert converged
        assert value == pytest.approx(schatten_norm(X, 1), rel=1e-9, abs=0)


class TestKronInto:
    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
    def test_same_bits_as_kron(self, rng, d):
        buf = np.full((d * d, d * d), np.nan + 1j * np.inf)
        g = rng.standard_normal((d, d))
        inputs = {
            "complex": g + 1j * rng.standard_normal((d, d)),
            "real": g,
            "transposed view": (g + 1j * rng.standard_normal((d, d))).T,
        }
        for kind, inv in inputs.items():
            # buf keeps the previous kind's entries: every entry is rewritten
            solver._kron_into(inv, buf)
            expected = np.kron(inv, inv.T).astype(complex)
            assert np.array_equal(buf.view(float), expected.view(float)), kind


class TestBracket:
    def test_two_qubit_degenerate(self):
        rho = random_npt(DIMS22, 17)
        r = e_alpha(rho, 2.0, DEFAULT_CONFIG)
        lo, hi = r.bracket
        assert abs(hi - lo) < 1e-6

    def test_max_entangled_bracket(self):
        r = e_alpha(max_entangled(2), 2.0, DEFAULT_CONFIG)
        assert r.bracket[0] == pytest.approx(1.0, abs=1e-6)
        assert r.bracket[1] == pytest.approx(1.0, abs=1e-6)

    def test_random_qutrit_bracket_ordering(self):
        rho = random_npt(BipartitionDims(3, 3), 5)
        r = e_alpha(rho, 2.0, DEFAULT_CONFIG)
        lo, hi = r.bracket
        assert lo <= hi + 1e-9
        assert lo - 1e-4 <= r.value_bits <= hi + 1e-4

    def test_updates_result_in_place(self):
        rho = random_npt(DIMS22, 21)
        r = e_alpha(rho, 2.0, FAST)
        assert math.isinf(r.bracket[1])
        lo, hi = bracket(rho, r, DEFAULT_CONFIG)
        assert r.bracket == (lo, hi)
        assert np.isfinite(hi)


class TestAlphaSweep:
    def test_max_entangled_constant(self):
        results = alpha_sweep(max_entangled(2), [1.0, 2.0, 4.0, math.inf], FAST)
        for r in results:
            assert abs(r.value_bits - 1.0) < 1e-4

    def test_ppt_constant_zero(self):
        results = alpha_sweep(werner_state(2, 0.45), [1.0, 2.0, math.inf], FAST)
        assert all(r.value_bits == 0.0 for r in results)

    def test_qutrit_monotone_and_limit(self):
        rho = random_npt(BipartitionDims(3, 3), 77, want_binegativity=False)
        alphas = [1.0, 1.5, 2.0, 5.0, 64.0]
        results = alpha_sweep(rho, alphas, FAST)
        assert audit_monotonicity(results, DEFAULT_CONFIG.value_tol) == []
        rk = e_kappa(rho, FAST)
        assert rk.value_bits - results[-1].value_bits <= 0.02
        assert results[-1].value_bits <= rk.value_bits + 1e-4

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            alpha_sweep(max_entangled(2), [2.0, 1.0], FAST)


class TestMeasureLevelProperties:
    def test_alpha_limit_toward_order_one(self):
        rho = random_npt(BipartitionDims(2, 3), 50, want_binegativity=False)
        en = log_negativity(rho)
        gaps = []
        for delta in (0.3, 0.1, 0.03):
            r = e_alpha(rho, 1.0 + delta, FAST)
            gaps.append(abs(r.value_bits - en))
        assert gaps[0] >= gaps[1] - 5e-5 >= gaps[2] - 1e-4

    def test_no_convexity_fixture_values(self):
        rho1, rho2, mixed = no_convexity_fixture()
        for alpha in (1.0, 2.0, math.inf):
            assert abs(e_alpha(rho1, alpha, FAST).value_bits - 1.0) < 1e-4
            assert abs(e_alpha(rho2, alpha, FAST).value_bits) < 1e-4
            assert abs(e_alpha(mixed, alpha, FAST).value_bits - math.log2(1.5)) < 1e-4

    def test_strict_interpolation_when_binegativity_fails(self):
        rho = random_npt(BipartitionDims(2, 3), 60, want_binegativity=False)
        en = log_negativity(rho)
        rk = e_kappa(rho, FAST)
        r2 = e_alpha(rho, 2.0, FAST)
        assert en - 1e-9 <= r2.value_bits <= rk.value_bits + 1e-9
        assert rk.value_bits > en + 1e-6  # the family genuinely spreads here


class TestConfigValidation:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            SolverConfig(value_tol=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("value_tol", math.nan),
            ("value_tol", math.inf),
            ("max_iter", 0),
            ("max_iter", math.nan),
            ("restarts", 0),
            ("restarts", math.nan),
        ],
    )
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_settable_values(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["value_tol", "max_iter", "seed", "with_bracket", "restarts"]

    def test_measure_result_fields(self):
        r = MeasureResult(1.0, 2.0, None, 3, True, (0.9, 1.1))
        assert r.diagnostic == ""
