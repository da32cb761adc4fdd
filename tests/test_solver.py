import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphaneg.divergence import binegativity_psd, d_max, log_negativity, mu_alpha
from alphaneg.errors import NotConvergedError, NotPositiveDefiniteError
from alphaneg.linalg import BipartitionDims, _pt, herm_part, partial_transpose, schatten_norm
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
    BipartiteState,
    max_entangled,
    no_convexity_fixture,
    ppt_membership,
    random_state,
    werner_state,
)

from conftest import random_hermitian

DIMS22 = BipartitionDims(2, 2)
KAPPA_TOL = 1e-7  # bits, the benchmark's tolerance on its kappa values
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
        # the certificate is T_B(S) / Tr S, so T_B recovers S up to its trace
        rho = random_npt(DIMS22, 8)
        r = e_kappa(rho)
        s_opt = partial_transpose(r.certificate_sigma.matrix, DIMS22) * (2**r.value_bits)
        x = partial_transpose(rho.matrix, DIMS22)
        s_pt = partial_transpose(s_opt, DIMS22)
        for block in (s_pt - x, s_pt + x, s_opt):
            assert np.linalg.eigvalsh(block)[0] >= -1e-8

    @pytest.mark.parametrize("dims", [BipartitionDims(2, 3), BipartitionDims(3, 3)])
    def test_certificate_attains_kappa(self, dims):
        # the certificate is a free state at which the max-relative entropy of
        # T_B(rho) is the order-infinity value, here on the benchmark's hard states
        rho = random_npt(dims, 1, want_binegativity=False)
        r = e_kappa(rho)
        assert ppt_membership(r.certificate_sigma)
        gap = d_max(partial_transpose(rho.matrix, dims), r.certificate_sigma.matrix) - r.value_bits
        assert -1e-9 <= gap <= 0.0

    @pytest.mark.parametrize("dims", [BipartitionDims(2, 3), BipartitionDims(3, 3), BipartitionDims(4, 4)])
    def test_permutation_gather_matches_dense_newton_system(self, monkeypatch, dims):
        # T_B's matrix is a permutation, so the core gathers the Newton
        # system; forcing the dense products must give the same bits.  At 4x4
        # the buffers are the 1 MB ones of the benchmark's kappa states.
        rho = random_npt(dims, 5)
        x = partial_transpose(rho.matrix, dims)
        pt = lambda m: partial_transpose(m, dims, "B")
        trace, s_mat, steps = solver._kappa_core(x, pt)
        monkeypatch.setattr(solver, "_permutation_of", lambda Pm: None)
        dense = solver._kappa_core(x, pt)
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
            _, _, steps = solver._kappa_core(x, pt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert steps > 100
        assert peak < 6 * dims.total**4 * 16


class TestKappaCore:
    @pytest.mark.parametrize("dims, seed", [((2, 2), 1), ((2, 3), 2), ((3, 3), 3)])
    def test_identity_map_gives_the_trace_norm(self, dims, seed):
        # with P the identity the program is min Tr S s.t. -S <= X <= S, whose
        # value is ||X||_1 in closed form
        dims = BipartitionDims(*dims)
        X = partial_transpose(random_state(dims, dims.total, seed=seed).matrix, dims)
        value = solver._kappa_core(X, lambda m: m)[0]
        assert value == pytest.approx(schatten_norm(X, 1), rel=1e-9, abs=0)

    @pytest.mark.parametrize("dims, newton_steps", [((4, 4), 148), ((3, 5), 147)])
    def test_benchmark_states_factor_every_step(self, fallback_solves, dims, newton_steps):
        # the seed-0 kappa states of the benchmark: every Newton system of the
        # gather branch factors as positive definite
        rho = random_state(BipartitionDims(*dims), 3, 11)
        r = e_kappa(rho)
        assert r.converged and r.iterations == newton_steps
        assert fallback_solves == []

    @pytest.mark.parametrize("gather", [True, False])
    def test_failed_factorization_reforms_the_system(self, monkeypatch, fallback_solves, gather):
        # the factorization overwrites H in place; when it fails mid-solve
        # the step must re-form H from the A and B buffers before the LU
        # solve.  So a failure that overwrote H must give the same bits and
        # step count as one that left H alone.  (The count may differ from
        # the run with no failure: one LU solve's rounding can change where a
        # barrier stage stops.)
        dims = BipartitionDims(3, 3)
        x = partial_transpose(random_state(dims, 3, 11).matrix, dims)
        pt = lambda m: partial_transpose(m, dims, "B")
        if not gather:
            monkeypatch.setattr(solver, "_permutation_of", lambda Pm: None)
        value, _, steps = solver._kappa_core(x, pt)
        real = solver.cho_factor

        def fail_once(overwrite):
            calls = []

            def cho_factor(a, **kwargs):
                calls.append(None)
                if len(calls) == steps // 2:
                    if overwrite:
                        real(a, **kwargs)
                    raise np.linalg.LinAlgError("forced")
                return real(a, **kwargs)

            monkeypatch.setattr(solver, "cho_factor", cho_factor)
            result = solver._kappa_core(x, pt)
            assert len(calls) == result[2]
            return result

        kept, overwritten = fail_once(False), fail_once(True)
        assert fallback_solves == ["solve", "solve"]
        assert overwritten[0].hex() == kept[0].hex()
        assert np.array_equal(overwritten[1], kept[1])
        assert overwritten[2] == kept[2]
        assert abs(math.log2(overwritten[0]) - math.log2(value)) <= KAPPA_TOL

    def test_pure_phase_halves_a_step_that_leaves_the_cone(self, monkeypatch):
        # in the pure Newton phase (lam2 <= 0.3) the full step stays inside
        # the Dikin ellipsoid, so no solve backtracks there on its own.  The
        # first trial of one such step is reported not positive definite:
        # its phi is +inf, which passes no acceptance test, so the step must
        # halve instead of being taken.
        dims = BipartitionDims(2, 3)
        x = partial_transpose(random_state(dims, 3, 11).matrix, dims)
        pt = lambda m: partial_transpose(m, dims, "B")
        value = solver._kappa_core(x, pt)[0]
        events = []
        real_vdot, real_chol_logdet = np.vdot, solver._chol_logdet

        def vdot(g, delta):
            out = real_vdot(g, delta)
            events.append(("step", -float(out.real), delta.copy()))
            return out

        def chol_logdet(a):
            last = events[-1]
            if last[0] == "step" and last[1] <= 0.3 and all(e[0] != "fail" for e in events):
                events.append(("fail", a.copy()))
                return False, -math.inf
            events.append(("chol", a.copy()))
            return real_chol_logdet(a)

        monkeypatch.setattr(np, "vdot", vdot)
        monkeypatch.setattr(solver, "_chol_logdet", chol_logdet)
        trace, s_mat, _ = solver._kappa_core(x, pt)
        monkeypatch.undo()

        at = next(i for i, e in enumerate(events) if e[0] == "fail")
        (_, lam2, delta), (_, full), after = events[at - 1 : at + 2]
        # the next trial is of the same step, at half its length: the first
        # block map(S + step * Delta) - X moves by map(Delta) / 2
        assert 0.0 < lam2 <= 0.3 and after[0] == "chol"
        moved = herm_part(pt(herm_part(delta.reshape(dims.total, dims.total)))) / 2
        np.testing.assert_allclose(full - after[1], moved, rtol=0, atol=1e-9 * np.abs(moved).max())
        for block in (pt(s_mat) - x, pt(s_mat) + x, s_mat):
            assert np.linalg.eigvalsh(block)[0] > 0.0
        assert abs(math.log2(trace) - math.log2(value)) <= KAPPA_TOL


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


class TestCertifiedStop:
    """Projected gradient stops, converged, once its upper value is within
    ``_CERTIFIED_GAP`` bits of the closed-form E_N, which no order goes below.
    """

    @staticmethod
    def assert_certified(r, rho, max_iterations):
        assert r.converged
        assert 0 <= r.iterations <= max_iterations
        assert -1e-12 <= r.value_bits - log_negativity(rho) <= solver._CERTIFIED_GAP

    @staticmethod
    def schmidt_state(theta):
        psi = np.zeros(4, dtype=complex)
        psi[0], psi[3] = math.cos(theta), math.sin(theta)
        return BipartiteState(DIMS22, np.outer(psi, psi.conj()))

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_pure_and_werner_stop_at_the_first_steps(self, alpha):
        for rho in (self.schmidt_state(0.3), werner_state(2, 0.8), werner_state(3, 0.8)):
            self.assert_certified(e_alpha(rho, alpha, FAST), rho, 2)

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_werner_is_certified_at_the_start(self, alpha, monkeypatch):
        # |X| / ||X||_1 mixed at the initial weight is already within the gap,
        # so the loop takes no step and projects nothing (the pure Schmidt
        # state is not: its mixed start sits outside the gap)
        projections = []
        original = solver.project_free_set

        def counted(*args):
            projections.append(args)
            return original(*args)

        monkeypatch.setattr(solver, "project_free_set", counted)
        for rho in (werner_state(2, 0.8), werner_state(3, 0.8)):
            self.assert_certified(e_alpha(rho, alpha, FAST), rho, 0)
        assert projections == []

    @pytest.mark.parametrize("alpha", [1.5, 2.0, 5.0])
    def test_random_two_qubit_states(self, alpha):
        # the interior mixing weight starts at 1e-4 and decays by 0.7 per
        # accepted step, so a few steps can pass before the evaluated value
        # comes within the gap
        for seed in range(8):
            rho = random_npt(DIMS22, seed)
            self.assert_certified(e_alpha(rho, alpha, FAST), rho, 6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rank=st.integers(1, 4),
        alpha=st.floats(1.05, 10.0),
    )
    def test_two_qubit_values_are_certified(self, seed, rank, alpha):
        rho = random_state(DIMS22, rank, seed)
        assume(not ppt_membership(rho))
        r = e_alpha(rho, alpha, FAST)
        assert r.converged
        assert -1e-12 <= r.value_bits - log_negativity(rho) <= solver._CERTIFIED_GAP

    def test_cannot_fire_on_the_hard_state(self):
        # the bench's seed-1 hard 3x3 state: NPT and not binegative
        rho = random_state(BipartitionDims(3, 3), 3, seed=1)
        assert not ppt_membership(rho) and not binegativity_psd(rho)
        r = e_alpha(rho, 1.5, FAST)
        assert r.converged
        assert r.value_bits - log_negativity(rho) > solver._CERTIFIED_GAP


class TestStationaryExit:
    """On the benchmark's seed-0 2x3 hard state, projected gradient ends each
    finite order with an accepted step that leaves sigma unmoved at the
    smoothing floor.  The loop stops there, converged, instead of sending
    Dykstra a point far outside the free set."""

    @pytest.fixture
    def stalls(self, monkeypatch):
        caught = []
        original = solver.project_free_set

        def counted(*args):
            try:
                return original(*args)
            except NotConvergedError as exc:
                caught.append(exc)
                raise

        monkeypatch.setattr(solver, "project_free_set", counted)
        return caught

    @staticmethod
    def hard_state():
        return random_npt(BipartitionDims(2, 3), 1, want_binegativity=False)

    def test_sweep_makes_no_stalled_projection(self, stalls):
        results = alpha_sweep(self.hard_state(), [1.0, 1.5, 2.0, 5.0], FAST)
        assert [r.iterations for r in results[1:]] == [51, 38, 57]
        assert all(r.converged for r in results)
        assert stalls == []

    def test_cold_solve_makes_no_stalled_projection(self, stalls):
        r = e_alpha(self.hard_state(), 2.0, FAST)
        assert r.iterations == 50 and r.converged
        assert stalls == []

    def test_not_taken_on_the_retry_at_the_floor(self):
        # a no-progress exit above the floor moves the weight to the floor and
        # retries from the same sigma, so s = 0 there although no step was
        # taken at the floor; exiting on that retry would end this solve at
        # iteration 15 and skip the descent at the floor
        r = e_alpha(random_state(BipartitionDims(2, 3), 1, 78), 3.0, FAST)
        assert r.iterations == 43 and r.converged


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
        X = partial_transpose(rho.matrix, rho.dims, "B")
        lo, hi = bracket(r, X, _pt(rho.dims), log_negativity(rho), DEFAULT_CONFIG)
        assert r.bracket == (lo, hi)
        assert np.isfinite(hi)

    @pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, FAST], ids=["bracket_on", "bracket_off"])
    def test_log_negativity_is_computed_once_per_solve(self, monkeypatch, cfg):
        calls = []
        real = solver.log_negativity

        def counted(rho):
            calls.append(rho)
            return real(rho)

        monkeypatch.setattr(solver, "log_negativity", counted)
        r = e_alpha(random_npt(DIMS22, 21), 2.0, cfg)
        assert r.converged
        assert len(calls) == 1


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

    def test_warm_start_matches_cold_solves(self):
        # the bench's hard 3x3 state: NPT and not binegative, so projected
        # gradient runs to a stall at every finite order
        rho = random_npt(BipartitionDims(3, 3), 1, want_binegativity=False)
        alphas = [1.0, 1.5, 2.0, 5.0, math.inf]
        warm = alpha_sweep(rho, alphas, FAST)
        cold = [e_alpha(rho, a, FAST) for a in alphas]
        for i in (0, 1, 4):  # order 1, the first finite order and order infinity
            assert warm[i].value_bits.hex() == cold[i].value_bits.hex()
            assert warm[i].iterations == cold[i].iterations
        en = log_negativity(rho)
        for i in (2, 3):  # started from the previous finite order's optimum
            assert warm[i].converged
            assert abs(warm[i].value_bits - cold[i].value_bits) <= FAST.value_tol
            assert warm[i].value_bits >= en
        assert sum(r.iterations for r in warm) < sum(r.iterations for r in cold)

    def test_unconverged_warm_start_stays_an_interior_upper_bound(self):
        rho = random_npt(BipartitionDims(2, 3), 60, want_binegativity=False)
        cfg = dataclasses.replace(FAST, max_iter=3)
        results = alpha_sweep(rho, [1.5, 2.0, 3.0, 5.0], cfg)
        assert not results[0].converged  # the first start is itself unconverged
        en = log_negativity(rho)
        for r in results[1:]:
            assert r.value_bits >= en - 1e-12
            sigma = r.certificate_sigma
            assert ppt_membership(sigma)
            assert float(np.linalg.eigvalsh(sigma.matrix)[0]) > 0.0
            pt = partial_transpose(sigma.matrix, sigma.dims, "B")
            assert float(np.linalg.eigvalsh(pt)[0]) > 0.0

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dB=st.sampled_from([2, 3]),
        rank=st.integers(1, 6),
    )
    def test_warm_values_lie_between_order_one_and_cold(self, seed, dB, rank):
        dims = BipartitionDims(2, dB)
        rho = random_state(dims, min(rank, dims.total), seed)
        assume(not ppt_membership(rho))
        alphas = [1.0, 1.5, 2.0, 3.0]
        en = log_negativity(rho)
        for a, r in zip(alphas, alpha_sweep(rho, alphas, FAST)):
            assert en - 1e-12 <= r.value_bits <= e_alpha(rho, a, FAST).value_bits + FAST.value_tol


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
            ("max_iter", 2.5),
            ("max_iter", math.inf),
            ("restarts", 0),
            ("restarts", math.nan),
            ("restarts", 1.5),
            ("seed", 1.5),
            ("seed", -1),
            ("max_iter", True),
            ("restarts", True),
            ("seed", False),
            ("value_tol", True),
            ("value_tol", np.True_),
            ("with_bracket", "no"),
            ("with_bracket", 1),
            ("with_bracket", None),
        ],
    )
    def test_rejects_invalid_fields(self, field, value):
        with pytest.raises(ValueError, match=field):
            SolverConfig(**{field: value})

    def test_accepts_python_and_numpy_integers(self):
        for make in (int, np.int64, np.uint8):
            cfg = SolverConfig(max_iter=make(7), restarts=make(2), seed=make(0))
            assert (cfg.max_iter, cfg.restarts, cfg.seed) == (7, 2, 0)

    def test_accepts_python_and_numpy_bools(self):
        for flag in (False, np.False_, np.True_):
            assert SolverConfig(with_bracket=flag).with_bracket == flag

    def test_settable_values(self):
        names = [f.name for f in dataclasses.fields(SolverConfig)]
        assert names == ["value_tol", "max_iter", "seed", "with_bracket", "restarts"]

    def test_pg_core_requires_its_lower_bound(self):
        # every caller hands projected gradient the bound it certifies
        # against; test_settable_values keeps the gap out of the config
        lower = inspect.signature(solver._pg_core).parameters["lower"]
        assert lower.default is inspect.Parameter.empty

    def test_measure_result_fields(self):
        r = MeasureResult(1.0, 2.0, None, 3, True, (0.9, 1.1))
        assert r.diagnostic == ""
