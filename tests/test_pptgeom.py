import numpy as np
import pytest

from alphaneg.errors import NotConvergedError
from alphaneg.linalg import BipartitionDims, partial_transpose
from alphaneg.pptgeom import (
    DykstraConfig,
    interior_point,
    project_ppt,
    regularize,
)
from alphaneg.states import max_entangled, ppt_membership, random_state, werner_state

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

    def test_not_converged_carries_iterate(self):
        cfg = DykstraConfig(max_cycles=1, residual_tol=1e-16)
        with pytest.raises(NotConvergedError) as err:
            project_ppt(max_entangled(2).matrix, DIMS22, cfg)
        assert err.value.iterate is not None
        assert err.value.residual > 0


class TestInteriorPoint:
    def test_maximally_mixed(self):
        state = interior_point(DIMS22)
        np.testing.assert_allclose(state.matrix, np.eye(4) / 4, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(partial_transpose(state.matrix, DIMS22)), [0.25] * 4
        )

    def test_strictly_interior(self):
        assert min(min_eigs(interior_point(DIMS22))) > 1e-8

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
