"""Tests for the explicit kernel: closed forms, pseudo-distance, exact identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hypok.kernel import (
    heat_kernel,
    kernel_log_derivatives,
    liyau_kernel_identity,
    pseudo_ball_contains,
    pseudo_distance,
    volume,
)
from hypok.operator_core import (
    DomainError,
    KernelConstants,
    OperatorSpec,
    gramians,
    heat,
    kolmogorov,
    ornstein_uhlenbeck,
)

PRESETS = lambda: (heat(2), kolmogorov(1), ornstein_uhlenbeck(2))
# diffusion in the first coordinate, transported down a chain of two shifts
CHAIN3 = OperatorSpec(np.diag([1.0, 0.0, 0.0]), np.diag([1.0, 1.0], -1))


def kolmogorov_p0(X, Y, t, n=1):
    """Independent route to the kinetic kernel, n velocity + n position.

    Classical explicit form in the original variables; the constant
    (sqrt(3)/(2 pi))^n is pinned by the normalization over Y, checked
    separately below.  Vectorised over a leading batch axis of Y.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    v, x = X[:n], X[n:]
    w, y = Y[..., :n], Y[..., n:]
    delta = w - v
    e = y - (x + t * v)
    dot = np.sum(delta * e, axis=-1)
    expo = -(1.0 / t) * (
        np.sum(delta * delta, axis=-1)
        - (3.0 / t) * dot
        + (3.0 / t**2) * np.sum(e * e, axis=-1)
    )
    const = (math.sqrt(3.0) / (2.0 * math.pi)) ** n
    out = const * t ** (-2.0 * n) * np.exp(expo)
    return out if out.ndim else float(out)


def _sym_sqrt(M):
    vals, vecs = np.linalg.eigh(M)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def _gh_grid(dim, order):
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([nodes] * dim), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(u.shape[0])
    for axis in range(dim):
        w = w * weights[np.searchsorted(nodes, u[:, axis])]
    return u, w


def _per_call_kernel(spec, X, Y, t):
    """value, m_t, log_value and p_b of heat_kernel, everything derived per call.

    The prefactors come from KernelConstants and the bundle's
    log-determinants in the library's grouping of the operations, so the
    library, which reads them precomputed from the bundle, must agree bit
    for bit.
    """
    g = gramians(spec, t)
    const = KernelConstants.for_dim(spec.dim)
    d = Y - g.exp_tB @ X
    q = float(np.clip(d @ (g.inv_K_t @ d), 0.0, None))
    log_V = math.log(const.omega_N) + 0.5 * g.logdet_tK
    log_a = math.log(const.c_N) - log_V - q / (4.0 * t)
    xi = X - g.exp_minus_tB @ Y
    qc = float(xi @ (g.inv_C_t @ xi))
    log_b = (
        -0.5 * spec.dim * math.log(4.0 * math.pi)
        - t * spec.trace_B
        - 0.5 * g.logdet_C
        - 0.25 * qc
    )
    return math.exp(log_a), math.sqrt(q), log_a, math.exp(log_b)


def _per_call_derivatives(spec, X, Y, t, tau=0.0):
    """grad_X, dt and the Li-Yau (lhs, rhs) at gap t - tau, composed per call."""
    g = gramians(spec, t - tau)
    eta = g.inv_C_t @ (X - g.exp_minus_tB @ Y)
    trace_qc = float(np.trace(spec.Q @ g.inv_C_t))
    dt = (
        -0.5 * trace_qc
        + 0.25 * float(eta @ (spec.Q @ eta))
        - 0.5 * float((spec.B @ X) @ eta)
    )
    grad = -0.5 * eta
    lhs = float(grad @ (spec.Q @ grad)) + float((spec.B @ X) @ grad) - dt
    return grad, dt, lhs, 0.5 * trace_qc


def _kernel_values_batch_X(spec, Xs, Y, t):
    """Vectorised p(X_i, Y, t) through the drift-free-variable form."""
    g = gramians(spec, t)
    xi = Xs - g.exp_minus_tB @ np.asarray(Y, dtype=float)
    q = np.einsum("...i,ij,...j->...", xi, g.inv_C_t, xi)
    log_p = (
        -0.5 * spec.dim * math.log(4.0 * math.pi)
        - t * spec.trace_B
        - 0.5 * g.logdet_C
        - 0.25 * q
    )
    return np.exp(log_p)


class TestPseudoDistance:
    def test_heat_is_euclidean(self):
        spec = heat(3)
        rng = np.random.default_rng(0)
        for t in (0.2, 1.0, 5.0):
            X, Y = rng.normal(size=3), rng.normal(size=3)
            assert pseudo_distance(spec, X, Y, t) == pytest.approx(
                float(np.linalg.norm(X - Y)), rel=1e-12
            )

    def test_zero_along_the_drift(self):
        for spec in PRESETS():
            X = np.arange(1.0, spec.dim + 1.0)
            g = gramians(spec, 0.9)
            assert pseudo_distance(spec, X, g.exp_tB @ X, 0.9) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_kolmogorov_frozen_value(self):
        # K(1) = [[1, 1/2], [1/2, 1/3]], inverse [[4, -6], [-6, 12]],
        # so m_1(0, (1,0)) = sqrt(4) = 2
        spec = kolmogorov(1)
        assert pseudo_distance(
            spec, np.zeros(2), np.array([1.0, 0.0]), 1.0
        ) == pytest.approx(2.0, rel=1e-13)

    def test_batched_matches_loop(self):
        spec = kolmogorov(1)
        X = np.array([0.3, -0.2])
        Y = np.random.default_rng(1).normal(size=(7, 2))
        batch = pseudo_distance(spec, X, Y, 0.6)
        assert_allclose(
            batch, [pseudo_distance(spec, X, y, 0.6) for y in Y], rtol=1e-14
        )

    def test_any_leading_axes(self):
        rng = np.random.default_rng(3)
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            X = rng.normal(size=spec.dim)
            Y = rng.normal(size=(3, 5, spec.dim))
            batch = pseudo_distance(spec, X, Y, 0.4)
            assert batch.shape == (3, 5)
            loop = [[heat_kernel(spec, X, y, 0.4).m_t for y in row] for row in Y]
            assert_allclose(batch, loop, rtol=1e-13)

    def test_asymmetry_witness(self):
        # the intertwined distance is genuinely one-sided away from B = 0
        spec = kolmogorov(1)
        X, Y, t = np.zeros(2), np.array([1.0, 1.0]), 1.0
        gap = abs(
            pseudo_distance(spec, X, Y, t) - pseudo_distance(spec, Y, X, t)
        )
        assert gap > 0.1

    def test_rejects_bad_time(self):
        with pytest.raises(DomainError):
            pseudo_distance(heat(2), np.zeros(2), np.ones(2), 0.0)
        with pytest.raises(DomainError):
            pseudo_distance(heat(2), np.zeros(2), np.ones(2), -1.0)


class TestVolume:
    def test_heat_power_law(self):
        for dim in (1, 2, 3):
            const = KernelConstants.for_dim(dim)
            for t in (0.1, 1.0, 4.0):
                assert volume(heat(dim), t) == pytest.approx(
                    const.omega_N * t ** (dim / 2.0), rel=1e-12
                )

    def test_kolmogorov_quartic(self):
        # det(t K(t)) = t^4 / 12 gives V(t) = pi t^2 / (2 sqrt(3))
        for t in (0.3, 1.0, 2.5):
            assert volume(kolmogorov(1), t) == pytest.approx(
                math.pi * t**2 / (2.0 * math.sqrt(3.0)), rel=1e-12
            )

    def test_ou_monotone_bounded_limit(self):
        spec = ornstein_uhlenbeck(2)
        const = KernelConstants.for_dim(2)
        ts = np.linspace(0.1, 30.0, 40)
        vols = [volume(spec, t) for t in ts]
        # slack above block-exponential noise (~1e-12 here) but far
        # below the actual growth of V over the grid
        assert all(a < b + 1e-11 for a, b in zip(vols, vols[1:]))
        limit = const.omega_N / 2.0 ** (2 / 2.0)
        assert volume(spec, 50.0) == pytest.approx(limit, rel=1e-10)

    def test_prefactor_identity(self):
        # c_N / V(t) = (4 pi t)^{-N/2} det(K(t))^{-1/2}
        for spec in PRESETS():
            const = KernelConstants.for_dim(spec.dim)
            for t in (0.2, 1.0, 3.0):
                g = gramians(spec, t)
                lhs = const.c_N / volume(spec, t)
                det_K = g.det_tK / t**spec.dim
                rhs = (4.0 * math.pi * t) ** (-spec.dim / 2.0) / math.sqrt(det_K)
                assert lhs == pytest.approx(rhs, rel=1e-11)


class TestHeatKernel:
    def test_heat_on_diagonal(self):
        for dim in (1, 2, 3):
            spec = heat(dim)
            X = np.full(dim, 0.4)
            for t in (0.25, 1.0):
                ev = heat_kernel(spec, X, X, t)
                assert ev.value == pytest.approx(
                    (4.0 * math.pi * t) ** (-dim / 2.0), rel=1e-13
                )
                assert ev.m_t == 0.0

    def test_matches_explicit_kinetic_kernel(self):
        # 50 random points against the independently coded classical form
        spec = kolmogorov(1)
        rng = np.random.default_rng(17)
        for _ in range(50):
            X = rng.uniform(-1.0, 1.0, size=2)
            Y = rng.uniform(-1.0, 1.0, size=2)
            t = float(rng.uniform(0.4, 2.0))
            ev = heat_kernel(spec, X, Y, t)
            assert ev.value == pytest.approx(kolmogorov_p0(X, Y, t), rel=1e-11)

    def test_kinetic_kernel_normalization(self):
        # pins the constant sqrt(3)/(2 pi) in the oracle itself
        t = 0.7
        xs = np.linspace(-10.0, 10.0, 801)
        W, Yg = np.meshgrid(xs, xs, indexing="ij")
        X = np.array([0.2, -0.1])
        grid = np.stack([W.ravel(), Yg.ravel()], axis=-1)
        vals = kolmogorov_p0(X, grid, t).reshape(W.shape)
        total = np.trapezoid(np.trapezoid(vals, xs, axis=1), xs, axis=0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_normalization_by_quadrature(self):
        # integral over Y of p(X, ., t) is 1 to 1e-10
        rng = np.random.default_rng(23)
        for spec in PRESETS():
            t = 0.8
            g = gramians(spec, t)
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            mu = g.exp_tB @ X
            L = math.sqrt(4.0 * t) * _sym_sqrt(g.K_t)
            u, w = _gh_grid(spec.dim, 40)
            pts = mu + u @ L.T
            logs = np.array(
                [heat_kernel(spec, X, y, t).log_value for y in pts]
            )
            total = float(w @ np.exp(logs + np.sum(u * u, axis=1))) * abs(
                np.linalg.det(L)
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_two_forms_agree(self):
        rng = np.random.default_rng(5)
        for spec in PRESETS():
            for _ in range(20):
                X = rng.uniform(-0.7, 0.7, size=spec.dim)
                Y = rng.uniform(-0.7, 0.7, size=spec.dim)
                t = float(rng.uniform(0.5, 1.5))
                ev = heat_kernel(spec, X, Y, t)
                assert ev.form_residual <= 1e-11

    def test_rejects_tiny_time(self):
        with pytest.raises(DomainError):
            heat_kernel(heat(1), np.zeros(1), np.zeros(1), 1e-13)

    def test_matches_per_call_formulas_bitwise(self):
        rng = np.random.default_rng(11)
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            for t in np.logspace(-3, 1.5, 8):
                t = float(t)
                for _ in range(3):
                    X = rng.normal(size=spec.dim)
                    Y = rng.normal(size=spec.dim)
                    ev = heat_kernel(spec, X, Y, t)
                    value, m_t, log_value, _ = _per_call_kernel(spec, X, Y, t)
                    assert (ev.value, ev.m_t, ev.log_value) == (value, m_t, log_value)

    def test_residual_is_the_relative_gap(self):
        rng = np.random.default_rng(13)
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            for t in (1.0, 2.0, 5.0):
                X = rng.uniform(-0.7, 0.7, size=spec.dim)
                Y = rng.uniform(-0.7, 0.7, size=spec.dim)
                value, _, _, value_b = _per_call_kernel(spec, X, Y, t)
                assert min(value, value_b) > 1e-300
                gap = abs(value - value_b) / max(value, value_b)
                assert heat_kernel(spec, X, Y, t).form_residual == pytest.approx(
                    gap, abs=1e-15
                )

    def test_residual_survives_underflow(self):
        # both forms underflow to 0 here, yet their logs differ in the
        # fourth digit: the gap is measured on the logs
        ev = heat_kernel(kolmogorov(1), [0.5, -0.3], [-0.2, 0.4], 1e-4)
        assert ev.value == 0.0
        assert 1e-4 < ev.form_residual < 1e-3

    def test_overflowing_quadratic_form_reads_no_gap(self):
        with np.errstate(over="ignore"):
            ev = heat_kernel(heat(1), [1e200], [0.0], 1.0)
        assert (ev.value, ev.log_value, ev.form_residual) == (0.0, -math.inf, 0.0)


    def test_overflowing_form_keeps_m_t(self):
        # <K^{-1} d, d> overflows where m_t is about 1e160: to +inf on heat(2),
        # to -inf or nan (inf - inf) on kolmogorov(1); m_t is homogeneous
        cases = (
            (heat(2), [1e160, 0.0], 1e160),
            (kolmogorov(1), [1e160, -1e160], 1e160 * pseudo_distance(kolmogorov(1), [0.0, 0.0], [1.0, -1.0], 1.0)),
        )
        for spec, Y, m_t in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ev = heat_kernel(spec, [0.0, 0.0], Y, 1.0)
                batch = pseudo_distance(spec, [0.0, 0.0], [Y, [0.3, -0.4], Y], 1.0)
                single = pseudo_distance(spec, [0.0, 0.0], Y, 1.0)
            assert ev.m_t == pytest.approx(m_t, rel=1e-15, abs=0.0)
            assert (ev.value, ev.log_value, ev.form_residual) == (0.0, -math.inf, 0.0)
            small = pseudo_distance(spec, [0.0, 0.0], [0.3, -0.4], 1.0)
            assert batch[1] == small
            assert batch[[0, 2]] == pytest.approx([m_t, m_t], rel=1e-15, abs=0.0)
            assert single == pytest.approx(m_t, rel=1e-15, abs=0.0)


class TestPseudoBall:
    def test_heat_is_euclidean_ball(self):
        spec = heat(2)
        assert pseudo_ball_contains(spec, np.zeros(2), 1.0, 0.7, np.array([0.6, 0.6]))
        assert not pseudo_ball_contains(
            spec, np.zeros(2), 1.0, 0.7, np.array([0.8, 0.8])
        )

    def test_center_always_inside(self):
        for spec in PRESETS():
            X = np.full(spec.dim, -0.3)
            g = gramians(spec, 1.2)
            for r in (1e-6, 1.0):
                assert pseudo_ball_contains(spec, X, r, 1.2, g.exp_tB @ X)

    def test_kolmogorov_threshold(self):
        spec = kolmogorov(1)
        Y = np.array([1.0, 0.0])
        assert pseudo_ball_contains(spec, np.zeros(2), 2.001, 1.0, Y)
        assert not pseudo_ball_contains(spec, np.zeros(2), 1.999, 1.0, Y)

    def test_rejects_bad_radius(self):
        with pytest.raises(DomainError):
            pseudo_ball_contains(heat(2), np.zeros(2), 0.0, 1.0, np.zeros(2))


class TestKernelLogDerivatives:
    def test_gradient_zero_on_ridge(self):
        for spec in PRESETS():
            Y = np.full(spec.dim, 0.8)
            g = gramians(spec, 0.9)
            der = kernel_log_derivatives(spec, g.exp_minus_tB @ Y, Y, 0.9)
            assert_allclose(der.grad_X, np.zeros(spec.dim), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for k in range(100):
            spec = PRESETS()[k % 3]
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            Y = rng.uniform(-1.0, 1.0, size=spec.dim)
            t = float(rng.uniform(0.4, 1.6))
            der = kernel_log_derivatives(spec, X, Y, t)
            h = 1e-6
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = h
                fd = (
                    heat_kernel(spec, X + e, Y, t).log_value
                    - heat_kernel(spec, X - e, Y, t).log_value
                ) / (2.0 * h)
                worst = max(worst, abs(der.grad_X[i] - fd))
        assert worst <= 1e-7

    def test_time_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(37)
        for spec in PRESETS():
            for _ in range(10):
                X = rng.uniform(-1.0, 1.0, size=spec.dim)
                Y = rng.uniform(-1.0, 1.0, size=spec.dim)
                t = float(rng.uniform(0.5, 1.5))
                der = kernel_log_derivatives(spec, X, Y, t)
                h = 1e-6
                fd = (
                    heat_kernel(spec, X, Y, t + h).log_value
                    - heat_kernel(spec, X, Y, t - h).log_value
                ) / (2.0 * h)
                assert abs(der.dt - fd) <= 1e-6


class TestLiYauKernelIdentity:
    def test_heat_closed_form(self):
        spec = heat(3)
        out = liyau_kernel_identity(
            spec, np.array([0.3, -0.2, 0.5]), np.ones(3), 2.0, 0.5
        )
        expected = 3.0 / (2.0 * (2.0 - 0.5))
        assert out.lhs == pytest.approx(expected, rel=1e-11)
        assert out.rhs == pytest.approx(expected, rel=1e-13)

    def test_exact_identity_random_points(self):
        rng = np.random.default_rng(41)
        for spec in PRESETS():
            for _ in range(20):
                X = rng.uniform(-1.5, 1.5, size=spec.dim)
                Y = rng.uniform(-1.5, 1.5, size=spec.dim)
                t = float(rng.uniform(0.6, 2.0))
                tau = float(rng.uniform(0.0, t - 0.3))
                out = liyau_kernel_identity(spec, X, Y, t, tau)
                assert abs(out.lhs - out.rhs) <= 1e-9 * (1.0 + abs(out.rhs))

    def test_rejects_collapsed_gap(self):
        with pytest.raises(DomainError):
            liyau_kernel_identity(heat(2), np.zeros(2), np.zeros(2), 1.0, 1.0)

    def test_bit_identical_to_derivative_composition(self):
        # both sides as composed from kernel_log_derivatives and the Gramian
        # trace, on the presets and the step-3 chain
        rng = np.random.default_rng(43)
        for spec in PRESETS() + (CHAIN3,):
            X = rng.uniform(-1.5, 1.5, size=spec.dim)
            Y = rng.uniform(-1.5, 1.5, size=spec.dim)
            out = liyau_kernel_identity(spec, X, Y, 0.5, 0.0)
            der = kernel_log_derivatives(spec, X, Y, 0.5)
            grad = der.grad_X
            lhs = float(grad @ (spec.Q @ grad)) + float((spec.B @ X) @ grad) - der.dt
            rhs = 0.5 * float(np.trace(spec.Q @ gramians(spec, 0.5).inv_C_t))
            assert out.lhs == lhs
            assert out.rhs == rhs


class TestPerCallFormulas:
    def test_derivatives_and_liyau_bitwise(self):
        rng = np.random.default_rng(47)
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            for t in np.logspace(-3, 1.5, 8):
                t = float(t)
                X = rng.normal(size=spec.dim)
                Y = rng.normal(size=spec.dim)
                grad, dt, _, _ = _per_call_derivatives(spec, X, Y, t)
                der = kernel_log_derivatives(spec, X, Y, t)
                assert np.array_equal(der.grad_X, grad)
                assert der.dt == dt
                _, _, lhs, rhs = _per_call_derivatives(spec, X, Y, t + 0.25, 0.25)
                out = liyau_kernel_identity(spec, X, Y, t + 0.25, 0.25)
                assert (out.lhs, out.rhs) == (lhs, rhs)


class TestNonFinitePoints:
    CALLS = {
        "pseudo_distance": lambda X, Y: pseudo_distance(heat(2), X, Y, 1.0),
        "pseudo_distance_batch": lambda X, Y: pseudo_distance(
            heat(2), X, np.stack([np.zeros(2), Y]), 1.0
        ),
        "heat_kernel": lambda X, Y: heat_kernel(heat(2), X, Y, 1.0),
        "kernel_log_derivatives": lambda X, Y: kernel_log_derivatives(
            heat(2), X, Y, 1.0
        ),
        "liyau_kernel_identity": lambda X, Y: liyau_kernel_identity(
            heat(2), X, Y, 1.0, 0.0
        ),
    }

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call, bad):
        point = np.array([0.1, bad])
        with pytest.raises(DomainError):
            self.CALLS[call](point, np.zeros(2))
        with pytest.raises(DomainError):
            self.CALLS[call](np.zeros(2), point)


class TestChapmanKolmogorov:
    @pytest.mark.parametrize("s,t", [(0.3, 0.7), (1.0, 1.0)])
    def test_semigroup_composition(self, s, t):
        rng = np.random.default_rng(53)
        for spec in PRESETS():
            X = rng.uniform(-0.8, 0.8, size=spec.dim)
            Y = rng.uniform(-0.8, 0.8, size=spec.dim)
            gs = gramians(spec, s)
            mu = gs.exp_tB @ X
            L = math.sqrt(4.0 * s) * _sym_sqrt(gs.K_t)
            u, w = _gh_grid(spec.dim, 60)
            Z = mu + u @ L.T
            inner = _kernel_values_batch_X(spec, Z, Y, t)
            composed = float(w @ inner) * math.pi ** (-spec.dim / 2.0)
            target = heat_kernel(spec, X, Y, s + t).value
            assert composed == pytest.approx(target, rel=1e-8)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.floats(0.3, 3.0), st.integers(0, 10_000))
def test_form_agreement_property(preset_idx, t, seed):
    spec = PRESETS()[preset_idx]
    rng = np.random.default_rng(seed)
    X = rng.uniform(-0.7, 0.7, size=spec.dim)
    Y = rng.uniform(-0.7, 0.7, size=spec.dim)
    ev = heat_kernel(spec, X, Y, float(t))
    assert ev.form_residual <= 1e-10
    assert ev.value >= 0.0
