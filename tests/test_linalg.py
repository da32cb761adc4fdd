import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alphaneg.errors import (
    AlphaOutOfRangeError,
    NegativeSpectrumError,
    NonHermitianError,
)
from alphaneg.linalg import (
    HERMITICITY_TOL,
    BipartitionDims,
    _conjugated_choi,
    _permutation_of,
    _power_gradient_from_eig,
    _support_power,
    check_hermitian,
    herm_part,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    psd_project,
    schatten_norm,
    tensor,
)
from alphaneg.states import max_entangled

from _reference import (
    hermitian_eig,
    matrix_power_support,
    subsystem_transpose,
    two_stage_check_hermitian,
)
from conftest import random_hermitian, random_pd, random_psd

DIMS22 = BipartitionDims(2, 2)


def kron_oracle(a, b):
    """Quadruple-loop reference for the composite index (a, b) -> a*dB + b."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def partial_trace_oracle(m, dA, dB, subsystem):
    if subsystem == "B":
        out = np.zeros((dA, dA), dtype=complex)
        for a in range(dA):
            for c in range(dA):
                out[a, c] = sum(m[a * dB + b, c * dB + b] for b in range(dB))
    else:
        out = np.zeros((dB, dB), dtype=complex)
        for b in range(dB):
            for d in range(dB):
                out[b, d] = sum(m[a * dB + b, a * dB + d] for a in range(dA))
    return out


class TestTensor:
    def test_identity(self):
        np.testing.assert_allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))

    def test_index_convention(self):
        got = tensor(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        np.testing.assert_allclose(got, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_against_loop_oracle(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        np.testing.assert_allclose(tensor(a, b), kron_oracle(a, b), atol=1e-14)


class TestBipartitionDims:
    @pytest.mark.parametrize(
        "value, shown",
        [(2.0, "2.0"), (True, "True"), (np.bool_(True), "np.True_"), (0, "0"), (-1, "-1"), ("2", "'2'")],
    )
    def test_rejects_what_is_not_an_integer_of_at_least_one(self, value, shown):
        with pytest.raises(ValueError, match=rf"^dA must be an integer of at least 1, got {shown}$"):
            BipartitionDims(value, 3)
        with pytest.raises(ValueError, match=rf"^dB must be an integer of at least 1, got {shown}$"):
            BipartitionDims(3, value)

    def test_numpy_integers_are_stored_as_ints(self):
        dims = BipartitionDims(np.int64(2), np.int32(3))
        assert dims == BipartitionDims(2, 3)
        assert type(dims.dA) is int and type(dims.dB) is int
        assert type(dims.total) is int


class TestPartialTranspose:
    def test_involution(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dims = BipartitionDims(2, 3)
        np.testing.assert_allclose(
            partial_transpose(partial_transpose(m, dims), dims), m, atol=1e-14
        )

    def test_product_rule(self, rng):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        dims = BipartitionDims(2, 3)
        np.testing.assert_allclose(
            partial_transpose(tensor(a, b), dims), tensor(a, b.T), atol=1e-14
        )
        np.testing.assert_allclose(
            partial_transpose(tensor(a, b), dims, "A"), tensor(a.T, b), atol=1e-14
        )

    def test_bell_state_spectrum(self):
        pt = partial_transpose(max_entangled(2).matrix, DIMS22)
        # the partial transpose of the Bell state is half the swap operator
        swap = np.zeros((4, 4))
        for i in range(2):
            for j in range(2):
                swap[i * 2 + j, j * 2 + i] = 1.0
        np.testing.assert_allclose(pt, swap / 2, atol=1e-14)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(pt), [-0.5, 0.5, 0.5, 0.5], atol=1e-14
        )

    def test_frobenius_isometry_and_trace(self, rng):
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        dims = BipartitionDims(3, 2)
        pt = partial_transpose(m, dims)
        assert abs(np.linalg.norm(pt) - np.linalg.norm(m)) < 1e-12
        assert abs(np.trace(pt) - np.trace(m)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(5), BipartitionDims(2, 3))

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(ValueError, match="subsystem"):
            partial_transpose(np.eye(6), BipartitionDims(2, 3), "C")

    @pytest.mark.parametrize("dA", [1, 2, 3, 4])
    @pytest.mark.parametrize("dB", [1, 2, 3, 4])
    def test_matches_subsystem_transpose(self, rng, dA, dB):
        d = dA * dB
        g = rng.standard_normal((d, d))
        inputs = {
            "complex": g + 1j * rng.standard_normal((d, d)),
            "real": g,
            "integer": rng.integers(-9, 10, size=(d, d)),
            "transposed view": (g + 1j * rng.standard_normal((d, d))).T,
        }
        dims = BipartitionDims(dA, dB)
        for kind, m in inputs.items():
            for sub, which in (("A", (0,)), ("B", (1,))):
                out = partial_transpose(m, dims, sub)
                assert out.dtype == complex and out.shape == (d, d)
                np.testing.assert_array_equal(
                    out, subsystem_transpose(m, (dA, dB), which), err_msg=f"{kind} {sub}"
                )


class TestPartialTrace:
    def test_product(self, rng):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 3)
        dims = BipartitionDims(2, 3)
        np.testing.assert_allclose(
            partial_trace(tensor(a, b), dims, "B"), np.trace(b) * a, atol=1e-13
        )

    def test_max_entangled_marginal(self):
        for d in (2, 3):
            phi = max_entangled(d).matrix
            np.testing.assert_allclose(
                partial_trace(phi, BipartitionDims(d, d), "B"), np.eye(d) / d, atol=1e-13
            )

    def test_against_loop_oracle(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        for sub in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(m, DIMS22, sub),
                partial_trace_oracle(m, 2, 2, sub),
                atol=1e-13,
            )
        assert abs(np.trace(partial_trace(m, DIMS22, "B")) - np.trace(m)) < 1e-12


class TestHermitianEig:
    """The decomposition of the reference mu_alpha path."""

    def test_sorted_diag(self):
        w, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0])

    def test_pauli_x(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        w, v = hermitian_eig(x)
        np.testing.assert_allclose(w, [-1.0, 1.0])
        for col, val in zip(v.T, w):
            np.testing.assert_allclose(x @ col, val * col, atol=1e-12)

    def test_reconstruction_unitarity(self, rng):
        h = random_hermitian(rng, 8)
        w, v = hermitian_eig(h)
        assert np.linalg.norm((v * w) @ v.conj().T - h) < 1e-10 * max(1, np.linalg.norm(h, 2))
        assert np.linalg.norm(v.conj().T @ v - np.eye(8)) < 1e-10

    def test_rejects_non_hermitian(self, rng):
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        with pytest.raises(NonHermitianError):
            hermitian_eig(g)


def _svd_rule(m, tol):
    """Both sides of the Hermiticity rule in operator norms, by two SVDs; the
    rule accepts when the first is <= the second.  LAPACK's SVD can overflow
    on entries near the float limit, so those are scaled by 2**-600 first,
    which is exact and leaves the relative comparison as it is."""
    if np.abs(m).max(initial=0.0) > 2.0**600:
        m = m * 2.0**-600
    a = m - m.conj().T
    return np.linalg.norm(a, 2), tol * max(np.linalg.norm(m, 2), 1e-300)


def _anti_hermitian_near_float_limit(n, seed):
    """Identity plus a seeded anti-Hermitian matrix whose largest entry
    modulus is 8.5e307: far from Hermitian, but the unscaled SVD test
    overflows to inf <= inf and accepts it."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = g - g.conj().T
    return np.eye(n) + k * (8.5e307 / np.abs(k).max())


# Values injected into a mirrored pair of entries of a Hermitian matrix:
# signed zeros, entries below 1e-100 and above 2**512, and non-finite ones.
_GUARD_SPECIALS = (0.0, -0.0, 1e-101, 1e-200, 5e-324, 2.0**513, -1e300, 1.7e308, math.nan, math.inf, -math.inf)


@st.composite
def guard_inputs(draw):
    """A scaled Hermitian matrix with special real and imaginary parts
    injected at mirrored entries (the mirror's zeros may flip sign), then
    possibly one entry perturbed off Hermiticity."""
    n = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([0.0, 1e-300, 1e-120, 1.0, 1e150, 1e300]))
    m = scale * herm_part(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    index = st.integers(0, n - 1)
    part = st.one_of(st.none(), st.sampled_from(_GUARD_SPECIALS))
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(index), draw(index)
        re, im = draw(part), draw(part)
        re = m[i, j].real if re is None else re
        im = m[i, j].imag if im is None else im
        flip_re, flip_im = draw(st.booleans()), draw(st.booleans())
        m[j, i] = complex(-re if flip_re and re == 0 else re, im if flip_im and im == 0 else -im)
        m[i, j] = complex(re, im)
    eps = draw(st.sampled_from([0.0, 0.0, 1e-300, 1e-16, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6]))
    if eps:
        i, j = draw(index), draw(index)
        m[i, j] += eps * (scale or 1.0) * complex(draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([0.0, 1.0])))
    return m


def _guard_outcome(guard, m, tol):
    """("accepted", returned bytes), or the raised type and message, with
    every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return "accepted", guard(m.copy(), tol).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


class TestCheckHermitian:
    @settings(max_examples=600, deadline=None)
    @given(m=guard_inputs(), tol=st.sampled_from([HERMITICITY_TOL, 1e-6, 0.0, -1e-9, math.nan]))
    def test_matches_the_two_stage_guard(self, m, tol):
        # the exact first stage changes no decision, error or returned bit
        assert _guard_outcome(check_hermitian, m, tol) == _guard_outcome(two_stage_check_hermitian, m, tol)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        log_s=st.floats(-4.0, 4.0),
        log_scale=st.floats(-300.0, 300.0),
        tol=st.sampled_from([HERMITICITY_TOL, 1e-6, 1e-3]),
    )
    def test_decides_as_the_svd_rule(self, n, seed, log_s, log_scale, tol):
        # M = H + s K with H Hermitian and K anti-Hermitian; log_s = 0 puts
        # ||M - M^dag||_2 near tol * ||M||_2, and the overall scale runs past
        # where squares of the entries underflow or overflow
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        k = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h, k = herm_part(g), (k - k.conj().T) / 2
        s = tol * np.linalg.norm(h, 2) / (2 * np.linalg.norm(k, 2)) * 10.0**log_s
        m = 10.0**log_scale * (h + s * k)
        lhs, rhs = _svd_rule(m, tol)
        assume(abs(lhs - rhs) > 1e-12 * rhs)
        if lhs <= rhs:
            assert check_hermitian(m, tol).tobytes() == herm_part(m).tobytes()
        else:
            with pytest.raises(NonHermitianError, match="not Hermitian within tolerance"):
                check_hermitian(m, tol)

    @pytest.mark.parametrize(
        "m, accepted",
        [
            # M - M^dag overflows, so its Frobenius norm is inf and its SVD norm
            # NaN: neither inf <= inf nor a NaN comparison may accept it
            (np.array([[0, 1.7e308], [-1.7e308, 0]], dtype=complex), False),
            (np.full((3, 3), 1e200, dtype=complex), True),
            (np.zeros((4, 4), dtype=complex), True),
            # the squares of the entries underflow, so both Frobenius norms are 0
            (1e-170 * np.array([[1j, 1], [-1, 2j]]), False),
            (np.array([[1.0, 1e-6], [0.0, 1.0]], dtype=complex), False),
            (_anti_hermitian_near_float_limit(4, 4010), False),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_regressions(self, m, accepted):
        lhs, rhs = _svd_rule(m, HERMITICITY_TOL)
        assert (lhs <= rhs) == accepted
        if accepted:
            assert check_hermitian(m).tobytes() == herm_part(m).tobytes()
        else:
            with pytest.raises(NonHermitianError, match="not Hermitian within tolerance"):
                check_hermitian(m)

    @pytest.mark.parametrize(
        "m, accepted",
        [
            (np.diag([1e300, 1e300]).astype(complex), True),
            (np.array([[0, 1e300], [-1e300, 0]], dtype=complex), False),
            # no rescale, but the squares of M - M^dag pass the float limit
            (np.array([[0, 2.0**511], [-(2.0**511), 0]], dtype=complex), False),
            # rescaled, and M + M^dag would overflow
            (np.diag([1.5e308, 1.0]).astype(complex), True),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_norm_overflow_warns_nothing(self, m, accepted):
        if accepted:  # every accepted matrix here is exactly Hermitian
            assert check_hermitian(m).tobytes() == m.tobytes()
        else:
            with pytest.raises(NonHermitianError, match="not Hermitian within tolerance"):
                check_hermitian(m)

    @pytest.mark.parametrize(
        "m",
        [
            np.zeros((0, 0), dtype=complex),
            np.diag([-0.0, 1.0, 2.0**512]).astype(complex),
            herm_part(np.arange(16).reshape(4, 4) * (1 + 2j)),
        ],
    )
    def test_exact_matrices_compute_no_norm(self, m, monkeypatch):
        def refuse(_):
            raise AssertionError("an exactly Hermitian matrix needs no norm")

        monkeypatch.setattr("alphaneg.linalg.frob_norm", refuse)
        monkeypatch.setattr("alphaneg.linalg.op_norm", refuse)
        assert check_hermitian(m).tobytes() == herm_part(m).tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.inf)])
    @pytest.mark.parametrize("kernel", [check_hermitian, hermitian_eig, psd_project])
    def test_rejects_non_finite_entries(self, bad, kernel):
        m = np.eye(3, dtype=complex)
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(NonHermitianError, match="matrix has non-finite entries"):
            kernel(m)


class TestSchattenNorm:
    def test_trace_norm(self):
        assert abs(schatten_norm(np.diag([0.5, -0.5]), 1) - 1.0) < 1e-14

    def test_identity_scaling(self):
        for d in (2, 5):
            for alpha in (1, 2, 3, 7):
                assert abs(schatten_norm(np.eye(d), alpha) - d ** (1 / alpha)) < 1e-12
            assert abs(schatten_norm(np.eye(d), np.inf) - 1.0) < 1e-14

    def test_hilbert_schmidt(self, rng):
        x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        direct = np.sqrt(np.trace(x.conj().T @ x).real)
        assert abs(schatten_norm(x, 2) - direct) < 1e-12

    def test_monotone_in_order(self, rng):
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        orders = [1, 1.5, 2, 4, 16, np.inf]
        vals = [schatten_norm(x, a) for a in orders]
        for hi, lo in zip(vals, vals[1:]):
            assert lo <= hi + 1e-12

    def test_rejects_small_order(self):
        with pytest.raises(AlphaOutOfRangeError):
            schatten_norm(np.eye(2), 0.5)


class TestMatrixPowerSupport:
    """sigma^p as ``_support_power`` returns it for X inside the support."""

    def test_identity_fixed_point(self):
        for p in (-1.0, -0.5, 0.5, 2.0):
            np.testing.assert_allclose(_support_power(np.eye(3), np.eye(3), p), np.eye(3), atol=1e-13)

    def test_generalized_inverse(self):
        got = _support_power(np.diag([1.0, 0.0]), np.diag([4.0, 0.0]), -0.5)
        np.testing.assert_allclose(got, np.diag([0.5, 0.0]), atol=1e-13)

    def test_round_trip_on_support(self, rng):
        sigma = herm_part(random_psd(rng, 5, rank=3))
        root = _support_power(sigma, sigma, 0.5)
        np.testing.assert_allclose(root @ root, sigma, atol=1e-9)
        proj = _support_power(sigma, sigma, 0.0)
        np.testing.assert_allclose(proj @ sigma @ proj, sigma, atol=1e-9)
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)

    def test_power_one_projects_to_support(self, rng):
        sigma = herm_part(random_psd(rng, 4, rank=2))
        np.testing.assert_allclose(_support_power(sigma, sigma, 1.0), sigma, atol=1e-10)

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NegativeSpectrumError):
            _support_power(np.eye(2), np.diag([1.0, -1.0]), 0.5)


class TestSupportLeq:
    """The support decision of ``_support_power``: None when X escapes."""

    def test_full_support_always_contains(self, rng):
        assert _support_power(random_hermitian(rng, 4), np.eye(4), -0.5) is not None

    def test_detects_escape(self):
        for p in (0.0, -0.5):
            assert _support_power(np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), p) is None

    def test_constructed_inclusion(self, rng):
        sigma = herm_part(random_psd(rng, 4, rank=3))
        proj = _support_power(sigma, sigma, 0.0)
        x = herm_part(proj @ random_hermitian(rng, 4) @ proj)
        assert _support_power(x, sigma, -0.25) is not None
        assert _support_power(x + 1e-6 * np.eye(4), sigma, -0.25) is None

    def test_rejects_negative_spectrum(self):
        # the spectrum is tested first, so an X outside the support raises too
        with pytest.raises(NegativeSpectrumError):
            _support_power(np.eye(3), np.diag([1.0, -0.5, 0.0]), 0.0)


class TestPsdProject:
    def test_psd_fixed_point(self, rng):
        m = random_psd(rng, 4, rank=4)
        np.testing.assert_allclose(psd_project(m), m, atol=1e-12)

    def test_clips_negative(self):
        np.testing.assert_allclose(
            psd_project(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14
        )

    def test_beats_random_candidates(self, rng):
        h = random_hermitian(rng, 4)
        best = np.linalg.norm(psd_project(h) - h)
        for _ in range(1000):
            cand = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            cand *= rng.random() * 3
            assert np.linalg.norm(cand - h) >= best - 1e-12


class TestPowerGradient:
    def test_identity_base(self, rng):
        w = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for p in (-0.5, 0.3, 2.0):
            np.testing.assert_allclose(
                _power_gradient_from_eig(*np.linalg.eigh(np.eye(3)), p, w),
                p * (w + w.conj().T) / 2,
                atol=1e-12,
            )

    def test_linear_power_is_hermitian_part(self, rng):
        sigma = random_pd(rng, 4)
        w = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        np.testing.assert_allclose(
            _power_gradient_from_eig(*np.linalg.eigh(sigma), 1.0, w), (w + w.conj().T) / 2, atol=1e-11
        )

    @pytest.mark.parametrize("d,p", [(2, -0.25), (4, -0.25), (6, 0.5), (8, -0.75)])
    def test_matches_finite_differences(self, rng, d, p):
        sigma = random_pd(rng, d)
        w = random_hermitian(rng, d)
        grad = _power_gradient_from_eig(*np.linalg.eigh(sigma), p, w)
        h = 1e-5
        for _ in range(6):
            delta = random_hermitian(rng, d)

            def trace_w_power(s):
                return np.trace(w @ matrix_power_support(s, p, tol=1e-14)).real

            fd = (trace_w_power(sigma + h * delta) - trace_w_power(sigma - h * delta)) / (2 * h)
            analytic = np.trace(grad @ delta).real
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd))

    def test_many_instances_against_fd(self):
        rng = np.random.default_rng(99)
        for i in range(50):
            d = int(rng.integers(2, 9))
            p = float(rng.uniform(-1.0, 1.0))
            if abs(p) < 0.05:
                p = 0.3
            sigma = random_pd(rng, d)
            w = random_hermitian(rng, d)
            grad = _power_gradient_from_eig(*np.linalg.eigh(sigma), p, w)
            delta = random_hermitian(rng, d)
            h = 1e-5

            def trace_w_power(s):
                return np.trace(w @ matrix_power_support(s, p, tol=1e-14)).real

            fd = (trace_w_power(sigma + h * delta) - trace_w_power(sigma - h * delta)) / (2 * h)
            analytic = np.trace(grad @ delta).real
            assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(fd)), (d, p, i)


def test_permute_subsystems_round_trip(rng):
    dims = (2, 3, 2)
    m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    fwd = permute_subsystems(m, dims, (2, 0, 1))
    back = permute_subsystems(fwd, (2, 2, 3), (1, 2, 0))
    np.testing.assert_allclose(back, m, atol=1e-14)


def _map_matrix(apply_map, d):
    """D^2 x D^2 matrix of a linear map on row-major vec, built as the
    barrier core builds it."""
    J = _conjugated_choi(lambda m: m, lambda m: m, apply_map, d)
    return J.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q


class TestPermutationOf:
    @pytest.mark.parametrize("subsystem", ["A", "B"])
    @pytest.mark.parametrize("dA, dB", [(dA, dB) for dA in (1, 2, 3) for dB in (2, 3, 4)])
    def test_partial_transpose_is_a_permutation(self, rng, dA, dB, subsystem):
        dims = BipartitionDims(dA, dB)
        Pm = _map_matrix(lambda m: partial_transpose(m, dims, subsystem), dims.total)
        perm = _permutation_of(Pm)
        assert perm is not None
        assert sorted(perm) == list(range(dims.total**2))
        # the products with the permutation matrix only reorder entries, bit
        # for bit
        n = dims.total**2
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        assert np.array_equal(Pm.conj().T @ M @ Pm, M[np.ix_(perm, perm)])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_transpose_is_a_permutation(self, d):
        perm = _permutation_of(_map_matrix(lambda m: m.T, d))
        assert perm is not None
        assert list(perm) == [(k % d) * d + k // d for k in range(d * d)]

    def test_conjugated_partial_transpose_is_not(self, rng):
        dims = BipartitionDims(2, 3)
        v = _unitary(rng, 6)
        Pm = _map_matrix(lambda m: v @ partial_transpose(v.conj().T @ m @ v, dims) @ v.conj().T, 6)
        assert _permutation_of(Pm) is None

    def test_phase_conjugated_partial_transpose_is_not(self, rng):
        # a diagonal unitary of fourth roots of unity keeps the map's matrix
        # exactly monomial, one nonzero entry per row and column, but with
        # entries -1 and +-i besides 1
        dims = BipartitionDims(2, 3)
        v = np.diag(1j ** rng.integers(0, 4, 6))
        Pm = _map_matrix(lambda m: v @ partial_transpose(v.conj().T @ m @ v, dims) @ v.conj().T, 6)
        assert np.count_nonzero(Pm) == 36 and np.all(np.abs(Pm[Pm != 0]) == 1)
        assert np.any(Pm[Pm != 0] != 1)
        assert _permutation_of(Pm) is None

    @pytest.mark.parametrize(
        "P",
        [
            np.array([[1.0, 1.0], [0.0, 0.0]]),  # a row hit twice
            np.array([[0.0, 1.0], [1.0, 1e-300]]),  # a stray nonzero
            np.array([[0.0, -1.0], [1.0, 0.0]]),  # an entry -1
            np.array([[np.nan, 1.0], [1.0, 0.0]]),
            np.ones((2, 3)),
        ],
    )
    def test_rejects_near_permutations(self, P):
        assert _permutation_of(P) is None
