"""Tests for the Gaussian-polynomial family and its closed-form P_t oracle."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypok.operator_core import DomainError, gramians, heat, kolmogorov, ornstein_uhlenbeck
from hypok.testfuncs import (
    CompactBump,
    GaussianTerm,
    ModulatedBump,
    TestFunction,
    UnsupportedDegreeError,
    constant,
    exact_semigroup_oracle,
    exact_semigroup_profile,
    gaussian,
    generator_apply,
    linear,
)


def _linalg_module():
    """The module whose global ``svd`` np.linalg.norm calls for the 2-norm."""
    try:
        return importlib.import_module("numpy.linalg._linalg")
    except ImportError:  # NumPy < 2
        return importlib.import_module("numpy.linalg.linalg")


def _sym_sqrt(M):
    vals, vecs = np.linalg.eigh(M)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def gh_semigroup(spec, f, t, X, order=60):
    """Independent Gauss-Hermite route for P_t f(X) on one full tensor grid.

    Whitening Y = e^{tB} X + sqrt(4t) K(t)^{1/2} u turns the transition
    density into the weight e^{-|u|^2} / pi^{N/2}.  An ``f.value`` that
    returns one row of K values per point gives the K expectations.
    """
    g = gramians(spec, t)
    n = spec.dim
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([nodes] * n), indexing="ij")
    u = np.stack([grid.ravel() for grid in grids], axis=-1)
    w = np.ones(u.shape[0])
    for axis in range(n):
        w = w * weights[np.searchsorted(nodes, u[:, axis])]
    mu = g.exp_tB @ np.asarray(X, dtype=float)
    pts = mu + np.sqrt(4.0 * t) * (u @ _sym_sqrt(g.K_t).T)
    out = np.pi ** (-n / 2.0) * (w @ f.value(pts))
    return float(out) if out.ndim == 0 else out


def fd_gradient(func, Y, h=1e-6):
    Y = np.asarray(Y, dtype=float)
    out = np.zeros_like(Y)
    for i in range(Y.shape[0]):
        e = np.zeros_like(Y)
        e[i] = h
        out[i] = (func(Y + e) - func(Y - e)) / (2.0 * h)
    return out


class TestEvaluation:
    def test_standard_gaussian_at_origin(self):
        f = gaussian(np.zeros(2), np.eye(2))
        assert f.value(np.zeros(2)) == pytest.approx(1.0, abs=0)

    def test_gradient_at_critical_point(self):
        f = gaussian(np.zeros(2), np.eye(2))
        assert_allclose(f.gradient(np.zeros(2)), np.zeros(2), atol=0)

    def test_monomial_value(self):
        # w1^2 w2 e^{-|w|^2} at w = (2, 3)
        f = gaussian(np.zeros(2), np.eye(2), coeff=1.5, monomial=(2, 1))
        expected = 1.5 * 4.0 * 3.0 * np.exp(-13.0)
        assert f.value(np.array([2.0, 3.0])) == pytest.approx(expected, rel=1e-14)

    def test_batched_value_and_gradient_shapes(self):
        f = gaussian(np.zeros(3), 0.5 * np.eye(3), monomial=(1, 0, 2))
        Y = np.random.default_rng(0).normal(size=(5, 4, 3))
        assert f.value(Y).shape == (5, 4)
        assert f.gradient(Y).shape == (5, 4, 3)
        assert f.hessian(Y).shape == (5, 4, 3, 3)

    def test_sum_and_scale(self):
        f = gaussian(np.zeros(1), np.eye(1))
        g = 2.0 * f + gaussian(np.ones(1), 2.0 * np.eye(1))
        y = np.array([0.3])
        expected = 2.0 * np.exp(-0.09) + np.exp(-2.0 * 0.49)
        assert g.value(y) == pytest.approx(expected, rel=1e-14)

    def test_degree_cap_enforced(self):
        with pytest.raises(UnsupportedDegreeError):
            gaussian(np.zeros(2), np.eye(2), monomial=(3, 2))

    def test_schwartz_flag(self):
        assert gaussian(np.zeros(2), np.eye(2)).is_schwartz
        assert not linear(np.array([1.0, 0.0])).is_schwartz
        assert not constant(3.0, 2).is_schwartz

    def test_schwartz_flag_takes_no_svd(self, monkeypatch):
        # the least eigenvalue decides alone; a zero shape has eigenvalue 0
        cases = [
            (gaussian(np.zeros(2), np.eye(2)), True),
            (gaussian(np.ones(3), 1e-300 * np.eye(3)), True),
            (linear(np.array([1.0, 0.0])), False),
            (linear(np.zeros(2)), False),
            (constant(3.0, 2), False),
            (constant(0.0, 1), False),
            (gaussian(np.zeros(2), np.diag([1.0, 0.0])), False),
            (gaussian(np.zeros(2), np.eye(2)) + constant(1.0, 2), False),
        ]
        calls = []
        linalg_impl = _linalg_module()
        svd = linalg_impl.svd
        monkeypatch.setattr(linalg_impl, "svd", lambda *a, **k: calls.append(a) or svd(*a, **k))
        assert [f.is_schwartz for f, _ in cases] == [want for _, want in cases]
        assert calls == []

    def test_nonsymmetric_shape_rejected(self):
        with pytest.raises(ValueError):
            GaussianTerm(1.0, np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), (0, 0))

    def test_indefinite_shape_rejected(self):
        with pytest.raises(ValueError):
            gaussian(np.zeros(2), np.diag([1.0, -0.5]))

    @pytest.mark.parametrize("coeff", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_rejected(self, coeff):
        # a NaN coefficient gave NaN values and a failed smoothing check
        with pytest.raises(ValueError, match="term data must be finite"):
            gaussian(np.zeros(2), np.eye(2), coeff=coeff)

    @pytest.mark.parametrize("scalar", [math.inf, math.nan])
    def test_non_finite_multiple_rejected(self, scalar):
        f = gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="term data must be finite"):
            scalar * f
        with pytest.raises(ValueError, match="term data must be finite"):
            f * 1e300 * 1e300  # the product overflows to inf


def random_function(rng, dim, n_terms, allow_flat=False, max_degree=4):
    terms = []
    for _ in range(n_terms):
        M = rng.normal(size=(dim, dim)) * 0.4
        shape = M @ M.T + 0.15 * np.eye(dim)
        if allow_flat and rng.random() < 0.25:
            shape = np.zeros((dim, dim))
        budget = int(rng.integers(0, max_degree + 1))
        monomial = [0] * dim
        for _ in range(budget):
            monomial[int(rng.integers(0, dim))] += 1
        terms.append(
            GaussianTerm(
                float(rng.uniform(-2.0, 2.0)),
                rng.uniform(-1.0, 1.0, size=dim),
                shape,
                tuple(monomial),
            )
        )
    return TestFunction(tuple(terms))


class TestDerivatives:
    def test_gradient_matches_finite_differences_100_pairs(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(1, 4))
            f = random_function(rng, dim, int(rng.integers(1, 4)), allow_flat=True)
            Y = rng.uniform(-2.0, 2.0, size=dim)
            diff = np.max(np.abs(f.gradient(Y) - fd_gradient(f.value, Y)))
            worst = max(worst, float(diff))
        assert worst <= 1e-7

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            dim = int(rng.integers(1, 4))
            f = random_function(rng, dim, 2, allow_flat=True)
            Y = rng.uniform(-1.5, 1.5, size=dim)
            H = f.hessian(Y)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = 1e-6
                col = (f.gradient(Y + e) - f.gradient(Y - e)) / 2e-6
                assert_allclose(H[:, i], col, atol=2e-7)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 10_000))
    def test_hessian_symmetric(self, dim, seed):
        rng = np.random.default_rng(seed)
        f = random_function(rng, dim, 2)
        Y = rng.uniform(-2.0, 2.0, size=dim)
        H = f.hessian(Y)
        assert_allclose(H, H.T, atol=1e-13)


class TestExactSemigroupOracle:
    def test_heat_gaussian_closed_form(self):
        # P_t exp(-|Y|^2) at X = 0 is (1 + 4t)^{-N/2}
        for dim in (1, 2, 3):
            spec = heat(dim)
            f = gaussian(np.zeros(dim), np.eye(dim))
            val = exact_semigroup_oracle(spec, f, 0.7, np.zeros(dim))
            assert val == pytest.approx((1.0 + 2.8) ** (-dim / 2.0), rel=1e-13)
        # frozen scalar instance of the same identity
        val = exact_semigroup_oracle(heat(1), gaussian([0.0], np.eye(1)), 0.7, [0.0])
        assert val == pytest.approx(0.5129891760425771, rel=1e-13)

    def test_heat_gaussian_confirmed_by_quadrature(self):
        spec = heat(1)
        f = gaussian([0.0], np.eye(1))
        exact = exact_semigroup_oracle(spec, f, 0.7, [0.4])
        quad = gh_semigroup(spec, f, 0.7, [0.4], order=80)
        assert exact == pytest.approx(quad, rel=1e-12)

    def test_linear_function_gives_mean(self):
        # P_t <a, .> (X) = <a, e^{tB} X>; frozen Kolmogorov instance
        spec = kolmogorov(1)
        a = np.array([1.3, -0.4])
        f = linear(a)
        val = exact_semigroup_oracle(spec, f, 0.8, np.array([0.5, -0.2]))
        assert val == pytest.approx(0.57, rel=1e-13)
        g = gramians(spec, 0.8)
        assert val == pytest.approx(float(a @ (g.exp_tB @ [0.5, -0.2])), rel=1e-13)

    def test_linear_confirmed_by_quadrature(self):
        spec = kolmogorov(1)
        f = linear(np.array([1.3, -0.4]))
        X = np.array([0.5, -0.2])
        quad = gh_semigroup(spec, f, 0.8, X, order=40)
        assert exact_semigroup_oracle(spec, f, 0.8, X) == pytest.approx(
            quad, rel=1e-12
        )

    def test_constant_is_preserved(self):
        for spec in (heat(2), kolmogorov(1), ornstein_uhlenbeck(2)):
            f = constant(3.5, spec.dim)
            val = exact_semigroup_oracle(spec, f, 1.7, np.ones(spec.dim))
            assert val == pytest.approx(3.5, rel=1e-13)

    def test_identity_limit(self):
        rng = np.random.default_rng(3)
        for spec in (heat(2), kolmogorov(1)):
            f = random_function(rng, spec.dim, 2, max_degree=2)
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            val = exact_semigroup_oracle(spec, f, 1e-6, X)
            assert abs(val - f.value(X)) <= 1e-6

    def test_quadrature_agreement_generic_terms(self):
        rng = np.random.default_rng(11)
        for spec in (heat(2), kolmogorov(1), ornstein_uhlenbeck(2)):
            M = rng.normal(size=(2, 2)) * 0.3
            f = gaussian(
                rng.uniform(-0.5, 0.5, size=2),
                M @ M.T + 0.3 * np.eye(2),
                coeff=1.4,
                monomial=(1, 1),
            )
            X = rng.uniform(-1.0, 1.0, size=2)
            exact = exact_semigroup_oracle(spec, f, 0.9, X)
            quad = gh_semigroup(spec, f, 0.9, X, order=60)
            assert exact == pytest.approx(quad, rel=1e-11)

    def test_degree_three_matches_quadrature(self):
        # degree 3 was once beyond the closed form; P_t f(0) = 0 by symmetry
        spec = heat(2)
        f = gaussian(np.zeros(2), np.eye(2), monomial=(2, 1))
        assert exact_semigroup_oracle(spec, f, 1.0, np.zeros(2)) == 0.0
        X = np.array([0.3, -0.4])
        exact = exact_semigroup_oracle(spec, f, 1.0, X)
        quad = gh_semigroup(spec, f, 1.0, X, order=80)
        assert exact == pytest.approx(quad, rel=1e-12)

    def test_batched_points_match_loop(self):
        spec = kolmogorov(1)
        f = gaussian(np.zeros(2), 0.5 * np.eye(2), monomial=(1, 0))
        X = np.random.default_rng(5).uniform(-1, 1, size=(4, 2))
        batch = exact_semigroup_oracle(spec, f, 0.6, X)
        single = [exact_semigroup_oracle(spec, f, 0.6, x) for x in X]
        assert_allclose(batch, single, rtol=1e-14)

    def test_profile_matches_pointwise(self):
        spec = ornstein_uhlenbeck(2)
        f = gaussian(np.full(2, 0.2), 0.7 * np.eye(2), monomial=(0, 2))
        X = np.array([0.4, -0.3])
        ts = np.array([0.05, 0.4, 1.3, 6.0])
        prof = exact_semigroup_profile(spec, f, ts, X)
        point = [exact_semigroup_oracle(spec, f, t, X) for t in ts]
        assert_allclose(prof, point, rtol=1e-13)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_points(self, bad):
        # the oracle and the profile returned NaN or warned of an invalid matmul
        f = gaussian(np.zeros(2), np.eye(2), monomial=(1, 0))
        X = np.array([0.3, bad])
        for points in (X, np.stack([np.zeros(2), X])):
            for gradient in (False, True):
                with pytest.raises(DomainError):
                    exact_semigroup_oracle(heat(2), f, 0.5, points, gradient=gradient)
        with pytest.raises(DomainError):
            exact_semigroup_profile(heat(2), f, [0.5, 1.0], X)

    def test_entry_points_share_one_validator(self):
        # a bump is rejected with TypeError (it was an AttributeError from
        # f.terms), and a dimension mismatch with ValueError, by all three
        calls = (
            lambda f: exact_semigroup_oracle(heat(2), f, 0.5, np.zeros(2)),
            lambda f: exact_semigroup_profile(heat(2), f, [0.5], np.zeros(2)),
            lambda f: generator_apply(heat(2), f, np.zeros(2)),
        )
        for call in calls:
            with pytest.raises(TypeError):
                call(CompactBump(np.zeros(2), 0.5, 1.0))
            with pytest.raises(ValueError, match="dimension mismatch between spec and f"):
                call(gaussian(np.zeros(3), np.eye(3)))

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_profile_rejects_bad_times(self, bad):
        f = gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DomainError):
            exact_semigroup_profile(heat(2), f, np.array([0.5, bad, 1.0]), np.zeros(2))

    def test_generator_is_time_derivative_at_zero(self):
        # Richardson-extrapolated (P_h f - f)/h at h -> 0 equals A f
        rng = np.random.default_rng(9)
        for spec in (heat(2), kolmogorov(1), ornstein_uhlenbeck(2)):
            f = gaussian(rng.uniform(-0.4, 0.4, size=2), 0.6 * np.eye(2))
            X = rng.uniform(-0.8, 0.8, size=2)
            f0 = f.value(X)

            def slope(h):
                return (exact_semigroup_oracle(spec, f, h, X) - f0) / h

            h = 1e-5
            richardson = 2.0 * slope(h / 2.0) - slope(h)
            assert richardson == pytest.approx(
                generator_apply(spec, f, X), rel=1e-7, abs=1e-9
            )


class TestGeneratorApply:
    def test_heat_generator_is_laplacian(self):
        f = gaussian(np.zeros(2), np.array([[0.8, 0.1], [0.1, 0.5]]), monomial=(1, 0))
        Y = np.array([0.3, -0.7])
        h = 1e-5
        lap = 0.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            lap += (f.value(Y + e) - 2.0 * f.value(Y) + f.value(Y - e)) / h**2
        assert generator_apply(heat(2), f, Y) == pytest.approx(lap, rel=1e-5)

    def test_drift_term(self):
        # for B nilpotent and f linear, A f = <B Y, a>
        spec = kolmogorov(1)
        a = np.array([0.7, -1.1])
        f = linear(a)
        Y = np.array([1.5, 0.4])
        assert generator_apply(spec, f, Y) == pytest.approx(
            float(a @ (spec.B @ Y)), rel=1e-14
        )

    def test_batched(self):
        spec = ornstein_uhlenbeck(2)
        f = gaussian(np.zeros(2), np.eye(2))
        Y = np.random.default_rng(1).normal(size=(6, 2))
        vals = generator_apply(spec, f, Y)
        assert vals.shape == (6,)
        assert vals[2] == pytest.approx(generator_apply(spec, f, Y[2]), rel=1e-14)


class TestCompactBump:
    def test_plateau_and_support(self):
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        assert bump.value(np.array([0.5, 0.5])) == 1.0
        assert bump.value(np.array([3.0, 0.0])) == 0.0
        inside = bump.value(np.array([1.2, 0.0]))
        assert 0.0 < inside < 1.0

    def test_range_bounds(self):
        bump = CompactBump(np.ones(3), 0.5, 1.5)
        Y = np.random.default_rng(2).uniform(-2, 4, size=(200, 3))
        vals = bump.value(Y)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)

    def test_c2_seam_continuity(self):
        # second radial derivative vanishes at both ends of the transition
        bump = CompactBump(np.zeros(1), 1.0, 2.0)
        h = 1e-4
        for r in (1.0, 2.0):
            d2 = (
                bump.value(np.array([r + h]))
                - 2.0 * bump.value(np.array([r]))
                + bump.value(np.array([r - h]))
            ) / h**2
            assert abs(d2) <= 2e-3

    def test_bad_radii_rejected(self):
        with pytest.raises(ValueError):
            CompactBump(np.zeros(2), 2.0, 1.0)

    @pytest.mark.parametrize("center, outer", [([math.nan, 0.0], 1.0), ([0.0, math.inf], 1.0),
                                               (0.0, math.inf)], ids=["nan-centre", "inf-centre",
                                                                      "inf-radius"])
    def test_non_finite_data_rejected(self, center, outer):
        # an infinite outer radius made a "bump" equal to 1 everywhere
        with pytest.raises(ValueError, match="bump data must be finite"):
            CompactBump(center, 0.5, outer)

    def test_matches_power_form_over_radial_sweep(self):
        center = np.array([0.3, -0.2, 0.1])
        bump = CompactBump(center, 0.4, 1.3)
        r = np.linspace(0.0, 1.6, 4001)
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        # column-major, like the Monte Carlo and grid blocks
        Y = np.asfortranarray(center + r[:, None] * direction)
        s = np.clip((r - 0.4) / 0.9, 0.0, 1.0)
        want = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
        assert_allclose(bump.value(Y), want, rtol=0.0, atol=1e-14)
        assert_allclose(bump.value(np.ascontiguousarray(Y)), want, rtol=0.0, atol=1e-14)

    def test_layouts_give_identical_values(self):
        bump = CompactBump(np.array([0.3, -0.2, 0.1]), 0.4, 1.3)
        Y = np.random.default_rng(8).uniform(-1.5, 1.5, size=(3, 5000)).T
        assert not Y.flags.c_contiguous
        assert np.array_equal(bump.value(Y), bump.value(np.ascontiguousarray(Y)))

    def test_profile_reads_negative_squared_radii_as_zero(self):
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        with np.errstate(all="raise"):
            vals = bump.profile(np.array([-1e-30, 0.0, 2.25, 9.0]))
        assert_allclose(vals, [1.0, 1.0, 0.5, 0.0], rtol=0.0, atol=0.0)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            CompactBump(np.zeros(2), 1.0, 2.0).value(np.zeros((4, 3)))

    def test_single_point_gives_float(self):
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        for point in (np.array([0.5, 0.5]), [1.2, 0.0], np.array([3.0, 0.0])):
            assert type(bump.value(point)) is float

    def test_accepts_read_only_block(self):
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        Y = np.random.default_rng(6).uniform(-2.5, 2.5, size=(300, 2))
        want = bump.value(Y)
        Y.setflags(write=False)
        got = bump.value(Y)
        assert got.shape == (300,)
        assert_allclose(got, want, rtol=0.0, atol=0.0)


class TestModulatedBump:
    def test_product_rule(self):
        bump = CompactBump(np.zeros(2), 1.0, 2.5)
        f = gaussian(np.array([0.3, 0.0]), 0.4 * np.eye(2), monomial=(1, 0))
        mb = ModulatedBump(bump, f)
        rng = np.random.default_rng(4)
        for _ in range(10):
            Y = rng.uniform(-2.0, 2.0, size=2)
            assert mb.value(Y) == pytest.approx(
                bump.value(Y) * f.value(Y), rel=1e-14, abs=1e-300
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ModulatedBump(CompactBump(np.zeros(3), 1.0, 2.0), gaussian([0.0], np.eye(1)))
