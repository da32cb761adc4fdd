import math

import numpy as np
import pytest

from alphaneg import pptgeom
from alphaneg.errors import NonHermitianError, NotConvergedError
from alphaneg.linalg import BipartitionDims, _pt, partial_transpose
from alphaneg.pptgeom import (
    interior_point,
    project_free_set,
    project_ppt,
    regularize,
)
from alphaneg.solver import e_alpha
from alphaneg.states import (
    BipartiteState,
    max_entangled,
    ppt_membership,
    random_state,
    werner_state,
)

from conftest import random_hermitian

DIMS22 = BipartitionDims(2, 2)


def min_eigs(sigma):
    """Smallest eigenvalues of sigma and of its partial transpose."""
    pt = partial_transpose(sigma.matrix, sigma.dims, "B")
    return np.linalg.eigvalsh(sigma.matrix)[0], np.linalg.eigvalsh(pt)[0]


@pytest.fixture(scope="module")
def ppt_candidate_pool():
    """Ginibre states post-selected on PPT, reused across optimality checks."""
    rng = np.random.default_rng(31)
    pool = []
    tries = 0
    while len(pool) < 10_000 and tries < 300_000:
        tries += 1
        rho = random_state(DIMS22, 4, int(rng.integers(2**31)))
        if ppt_membership(rho):
            pool.append(rho.matrix)
    assert len(pool) == 10_000
    return pool


class TestProjectPpt:
    def test_fixed_point_on_ppt_input(self):
        rho = werner_state(2, 0.3)
        out = project_ppt(rho.matrix, DIMS22)
        assert np.linalg.norm(out.matrix - rho.matrix) < 1e-8

    def test_bell_state_closed_form(self):
        # by twirl symmetry the projection is isotropic with the boundary
        # fidelity 1/2: sigma = phi/2 + (I - phi)/6
        phi = max_entangled(2).matrix
        expected = phi / 2 + (np.eye(4) - phi) / 6
        out = project_ppt(phi, DIMS22)
        assert np.linalg.norm(out.matrix - expected) < 1e-8

    def test_bell_state_isotropic_grid_oracle(self):
        phi = max_entangled(2).matrix
        out = project_ppt(phi, DIMS22)
        best = np.linalg.norm(out.matrix - phi)
        for f in np.linspace(0.0, 0.5, 2001):
            cand = f * phi + (1 - f) * (np.eye(4) - phi) / 3
            assert np.linalg.norm(cand - phi) >= best - 1e-7

    def test_mixture_already_ppt(self):
        lam = 0.2
        m = lam * max_entangled(2).matrix + (1 - lam) * np.eye(4) / 4
        out = project_ppt(m, DIMS22)
        assert np.linalg.norm(out.matrix - m) < 1e-8

    def test_output_is_ppt(self, rng):
        for _ in range(10):
            h = random_hermitian(rng, 4)
            out = project_ppt(h, DIMS22)
            assert ppt_membership(out, tol=1e-8)

    def test_optimality_against_candidates(self, rng, ppt_candidate_pool):
        for _ in range(50):
            h = random_hermitian(rng, 4)
            out = project_ppt(h, DIMS22)
            dist = np.linalg.norm(out.matrix - h)
            for cand in ppt_candidate_pool[::25]:
                assert np.linalg.norm(cand - h) >= dist - 1e-8

    def test_non_expansive(self, rng):
        for _ in range(10):
            a = random_hermitian(rng, 4)
            b = random_hermitian(rng, 4)
            pa = project_ppt(a, DIMS22).matrix
            pb = project_ppt(b, DIMS22).matrix
            assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-8

    def test_idempotent(self, rng):
        h = random_hermitian(rng, 4)
        once = project_ppt(h, DIMS22).matrix
        twice = project_ppt(once, DIMS22).matrix
        assert np.linalg.norm(twice - once) < 1e-8

    def test_rejects_a_non_hermitian_operator(self):
        # the public door validates; project_free_set trusts its input
        m = max_entangled(2).matrix.copy()
        m[0, 1] = 0.5
        with pytest.raises(NonHermitianError, match="not Hermitian within tolerance"):
            project_ppt(m, DIMS22)

    def test_not_converged_carries_iterate(self):
        with pytest.raises(NotConvergedError) as err:
            project_free_set(max_entangled(2).matrix, _pt(DIMS22), 1, 1e-16)
        assert err.value.iterate is not None
        assert err.value.residual > 0


class TestDykstraCycles:
    """Each Dykstra cycle calls the ``pptgeom.psd_project`` binding exactly
    twice; the benchmark's tracer counts cycles as those calls over two."""

    @pytest.fixture
    def psd_calls(self, monkeypatch):
        calls = []
        original = pptgeom.psd_project

        def counted(h):
            calls.append(h.shape)
            return original(h)

        monkeypatch.setattr(pptgeom, "psd_project", counted)
        return calls

    def test_stalled_run(self, psd_calls):
        with pytest.raises(NotConvergedError):
            project_free_set(max_entangled(2).matrix, _pt(DIMS22), 3, 1e-16)
        assert len(psd_calls) == 6

    def test_converging_run(self, psd_calls):
        phi = max_entangled(2).matrix
        project_free_set(phi, _pt(DIMS22), 10_000, 1e-10)
        cycles, odd = divmod(len(psd_calls), 2)
        assert cycles > 1 and odd == 0
        # the count is that of the cycles: one cycle fewer does not converge
        with pytest.raises(NotConvergedError):
            project_free_set(phi, _pt(DIMS22), cycles - 1, 1e-10)

    def test_zero_budget_raises_with_the_input(self, psd_calls):
        phi = max_entangled(2).matrix
        with pytest.raises(NotConvergedError) as err:
            project_free_set(phi, _pt(DIMS22), 0, 1e-10)
        assert np.array_equal(err.value.iterate, phi)
        assert err.value.residual == math.inf
        assert psd_calls == []


class TestInteriorPoint:
    def test_maximally_mixed(self):
        state = interior_point(DIMS22)
        np.testing.assert_allclose(state.matrix, np.eye(4) / 4, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(partial_transpose(state.matrix, DIMS22)), [0.25] * 4
        )

    def test_strictly_interior(self):
        assert min(min_eigs(interior_point(DIMS22))) > 1e-8

    def test_built_once_per_dims_and_read_only(self):
        state = interior_point(DIMS22)
        assert interior_point(BipartitionDims(2, 2)) is state
        assert interior_point(BipartitionDims(2, 3)) is not state
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0

    def test_order_one_validates_no_certificate(self, monkeypatch):
        # the order-1 certificate is the cached maximally mixed state, so a
        # repeat solve on the same dims builds no state at all
        rho = max_entangled(2)
        e_alpha(rho, 1.0)
        built = []
        original = BipartiteState.__post_init__

        def counted(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(BipartiteState, "__post_init__", counted)
        assert e_alpha(rho, 1.0).certificate_sigma is interior_point(DIMS22)
        assert built == []

    def test_divergence_finite_for_any_state(self):
        from alphaneg.divergence import nu_alpha

        pt = partial_transpose(max_entangled(2).matrix, DIMS22)
        val = nu_alpha(pt, interior_point(DIMS22).matrix, 2)
        assert np.isfinite(val)


class TestRegularize:
    def test_eigenvalue_floor(self):
        rho = max_entangled(2)
        for eps in (1e-2, 1e-6):
            out = regularize(rho, eps)
            assert np.linalg.eigvalsh(out.matrix)[0] >= eps / 4 - 1e-15

    def test_ppt_becomes_interior(self):
        rho = werner_state(2, 0.5)  # PPT boundary
        assert min(min_eigs(rho)) <= 1e-8
        assert min(min_eigs(regularize(rho, 1e-3))) > 1e-8

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            regularize(max_entangled(2), 0.0)
        with pytest.raises(ValueError):
            regularize(max_entangled(2), 1.0)


class TestIsPptInv:
    """Which fixtures lie strictly inside the PPT set: sigma and its partial
    transpose both positive definite beyond 1e-8."""

    def test_bell_state_rank_deficient(self):
        assert min(min_eigs(max_entangled(2))) <= 1e-8

    def test_boundary_werner(self):
        # the partial transpose spectrum touches zero at the threshold weight
        assert min(min_eigs(werner_state(3, 0.5))) <= 1e-8

    def test_interior_werner(self):
        assert min(min_eigs(werner_state(3, 0.3))) > 1e-8
