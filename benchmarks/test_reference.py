"""The benchmark's closed forms against brute force.

    python3 -m pytest -q benchmarks

Brute force here means ``scipy.linalg.expm``, adaptive quadrature, tensor
Gauss-Hermite or grid sums, and finite differences; none of it comes from
``hypok``.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats
from scipy.linalg import expm

import reference as R

SPECS = [
    R.RefSpec("heat", 2),
    R.RefSpec("kolmogorov", 1),
    R.RefSpec("kolmogorov", 2),
    R.RefSpec("ornstein_uhlenbeck", 2),
    R.RefSpec("chain3"),
]
TIMES = (0.05, 0.7, 3.0)


def brute_C(spec, t):
    B, Q = spec.B, spec.Q
    C, _ = integrate.quad_vec(lambda s: expm(-s * B) @ Q @ expm(-s * B).T, 0.0, t,
                              epsabs=0.0, epsrel=1e-13)
    return C


def brute_sigma(spec, t):
    B, Q = spec.B, spec.Q
    S, _ = integrate.quad_vec(lambda s: expm(s * B) @ Q @ expm(s * B).T, 0.0, t,
                              epsabs=0.0, epsrel=1e-13)
    return 2.0 * S


def gh_expectation(fun, mean, cov, order=60):
    """E[fun(Y)], Y ~ N(mean, cov), by tensor Gauss-Hermite (2-D)."""
    x, w = np.polynomial.hermite.hermgauss(order)
    U, V = np.meshgrid(x, x, indexing="ij")
    z = np.stack([U.ravel(), V.ravel()], axis=-1) * math.sqrt(2.0)
    W = np.outer(w, w).ravel() / math.pi
    L = np.linalg.cholesky(cov)
    return float(W @ fun(mean + z @ L.T))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.dim))
@pytest.mark.parametrize("t", TIMES)
def test_gramian_and_exponential(spec, t):
    C = spec.C(t)
    assert_allclose(C, brute_C(spec, t), rtol=1e-10, atol=1e-14 * np.abs(C).max())
    assert_allclose(spec.exp_B(t), expm(t * spec.B), rtol=1e-12, atol=1e-14)
    assert_allclose(spec.exp_B(-t), expm(-t * spec.B), rtol=1e-12, atol=1e-14)
    assert_allclose(spec.transition_cov(t), brute_sigma(spec, t), rtol=1e-9)
    assert_allclose(spec.C_dot(t), expm(-t * spec.B) @ spec.Q @ expm(-t * spec.B).T,
                    rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.dim))
def test_log_kernel_is_the_transition_density(spec):
    rng = np.random.default_rng(0)
    t = 0.8
    X = rng.normal(size=(5, spec.dim))
    Y = rng.normal(size=(5, spec.dim))
    got = R.kernel_ref(spec, X, Y, t)
    sigma = brute_sigma(spec, t)
    E = expm(t * spec.B)
    for i in range(5):
        want = stats.multivariate_normal(E @ X[i], sigma).logpdf(Y[i])
        assert got.log_p[i] == pytest.approx(want, rel=1e-9, abs=1e-9)
        d = Y[i] - E @ X[i]
        # m_t^2 = <K^{-1} d, d> with K = (sigma / 2) / t
        assert got.m_t[i] == pytest.approx(math.sqrt(d @ np.linalg.solve(sigma / (2 * t), d)),
                                           rel=1e-9)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind + str(s.dim))
def test_derivatives_match_finite_differences(spec):
    rng = np.random.default_rng(1)
    t = 0.9
    X = rng.normal(size=(1, spec.dim))
    Y = rng.normal(size=(1, spec.dim))
    got = R.kernel_ref(spec, X, Y, t)
    h = 1e-5
    dt = (R.kernel_ref(spec, X, Y, t + h).log_p - R.kernel_ref(spec, X, Y, t - h).log_p) / (2 * h)
    assert got.dt[0] == pytest.approx(dt[0], rel=1e-6, abs=1e-6)
    for j in range(spec.dim):
        e = np.zeros_like(X)
        e[0, j] = h
        g = (R.kernel_ref(spec, X + e, Y, t).log_p - R.kernel_ref(spec, X - e, Y, t).log_p) / (2 * h)
        assert got.grad_X[0, j] == pytest.approx(g[0], rel=1e-6, abs=1e-6)
    # the Li-Yau expression collapses to tr(Q C^{-1}) / 2
    grad = got.grad_X[0]
    lhs = grad @ spec.Q @ grad + (spec.B @ X[0]) @ grad - got.dt[0]
    assert lhs == pytest.approx(got.liyau_rhs, rel=1e-10)
    assert got.dt_scale[0] >= abs(got.dt[0])


@pytest.mark.parametrize("spec", SPECS[:2] + SPECS[3:4], ids=lambda s: s.kind)
@pytest.mark.parametrize("kappa", [(0, 0), (1, 0), (1, 1), (3, 0), (2, 2), (1, 3)])
def test_semigroup_matches_gauss_hermite(spec, kappa):
    rng = np.random.default_rng(2)
    S = np.array([[0.6, 0.1], [0.1, 0.3]])
    center = rng.normal(size=2) * 0.3
    terms = [(1.3, center, S, kappa)]
    X = np.array([0.4, -0.2])
    t = 0.6
    mean = expm(t * spec.B) @ X
    want = gh_expectation(lambda y: R.function_value(terms, y), mean, brute_sigma(spec, t))
    assert float(R.semigroup_ref(spec, terms, t, X)[0]) == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_isserlis_against_sampling():
    rng = np.random.default_rng(3)
    nu = np.array([[0.3, -0.5]])
    cov = np.array([[1.0, 0.4], [0.4, 0.7]])
    W = rng.multivariate_normal(nu[0], cov, size=400_000)
    for idx in [(0,), (0, 1), (0, 0, 1), (0, 0, 1, 1), (1, 1, 1, 1)]:
        sample = np.prod(W[:, list(idx)], axis=1)
        err = 6 * sample.std() / math.sqrt(len(sample))
        assert abs(R.isserlis(idx, nu, cov)[0] - sample.mean()) < err


def test_gradient_matches_finite_differences():
    spec = R.RefSpec("kolmogorov", 1)
    terms = [(0.7, np.array([0.2, -0.1]), np.array([[0.5, 0.2], [0.2, 0.4]]), (2, 1))]
    X = np.array([0.3, 0.5])
    t = 0.4
    got = R.semigroup_gradient_ref(spec, terms, t, X)
    h = 1e-5
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        fd = (R.semigroup_ref(spec, terms, t, X + e)[0] - R.semigroup_ref(spec, terms, t, X - e)[0]) / (2 * h)
        assert got[j] == pytest.approx(fd, rel=1e-7, abs=1e-9)


def test_poisson_is_the_poisson_kernel_on_the_line():
    # e^{-z sqrt(-d^2/dx^2)} acts by convolution with z / (pi (z^2 + x^2))
    spec = R.RefSpec("heat", 1)
    s = 0.8
    terms = [(1.0, np.zeros(1), np.array([[s]]), (0,))]
    z, x = 0.7, 0.4
    got = R.poisson_ref(lambda t: float(R.semigroup_ref(spec, terms, t, np.array([x]))[0]), z)
    want, _ = integrate.quad(
        lambda y: z / (math.pi * (z * z + (x - y) ** 2)) * math.exp(-s * y * y),
        -np.inf, np.inf, epsabs=1e-14, epsrel=1e-12)
    assert got == pytest.approx(want, rel=1e-9)
    one = R.poisson_ref(lambda t: 1.0, 1.3)
    assert one == pytest.approx(1.0, rel=1e-12)


def test_bump_quadratures_agree_with_each_other_and_sampling():
    rng = np.random.default_rng(4)
    center = np.array([0.1, -0.2])
    mean = np.array([0.5, 0.3])
    var = 0.6
    r_in, r_out = 0.5, 1.3
    rho = float(np.linalg.norm(mean - center))
    iso = R.bump_isotropic_ref(rho, var, r_in, r_out)
    polar = R.bump_expectation_ref(mean, var * np.eye(2), center, r_in, r_out)
    assert polar == pytest.approx(iso, rel=1e-11)
    Y = rng.normal(size=(1_000_000, 2)) * math.sqrt(var) + mean
    b = R.smoothstep_bump(np.linalg.norm(Y - center, axis=1), r_in, r_out)
    assert abs(b.mean() - iso) < 6 * b.std() / 1000.0
    # an anisotropic covariance and a modulating function, against a fine grid
    cov = np.array([[0.5, 0.2], [0.2, 0.1]])
    terms = [(1.0, np.zeros(2), np.eye(2) * 0.3, (1, 0))]
    xs = np.linspace(-3, 3, 1201)
    G = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    dens = stats.multivariate_normal(mean, cov).pdf(G)
    vals = R.smoothstep_bump(np.linalg.norm(G - center, axis=1), r_in, r_out)
    grid = float(np.sum(dens * vals * R.function_value(terms, G)) * (xs[1] - xs[0]) ** 2)
    got = R.bump_expectation_ref(mean, cov, center, r_in, r_out, terms)
    assert got == pytest.approx(grid, rel=1e-6, abs=1e-9)


def grid_norm(fun, q, half=8.0, n=801):
    xs = np.linspace(-half, half, n)
    G = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    v = np.abs(fun(G))
    if math.isinf(q):
        return float(v.max())
    return float((np.sum(v**q) * (xs[1] - xs[0]) ** 2) ** (1.0 / q))


@pytest.mark.parametrize("q", [1.0, 2.0, 4.0, math.inf])
def test_gaussian_norms_and_smoothing_lhs(q):
    spec = R.RefSpec("kolmogorov", 1)
    S = np.array([[0.8, 0.2], [0.2, 0.5]])
    center = np.array([0.2, -0.1])
    amp, t = 1.4, 0.6
    ref = R.smoothing_ref(spec, amp, center, S, 1.0, q, t)
    terms = [(amp, center, S, (0, 0))]
    assert ref.lhs == pytest.approx(grid_norm(lambda Y: R.semigroup_ref(spec, terms, t, Y), q),
                                    rel=1e-6)
    assert R.gaussian_norms(amp, S, q) == pytest.approx(
        grid_norm(lambda Y: R.function_value(terms, Y), q), rel=1e-6)
    # V(t) = omega_N det(t K(t))^{1/2}, t K(t) = sigma / 2
    vol = R.unit_ball_volume(2) * math.sqrt(np.linalg.det(brute_sigma(spec, t) / 2))
    assert ref.volume == pytest.approx(vol, rel=1e-9)


@pytest.mark.parametrize("r", [1.0, 1.5, 3.0])
def test_kernel_lr_norm(r):
    spec = R.RefSpec("ornstein_uhlenbeck", 2)
    t = 0.7
    Y = np.array([0.3, -0.4])
    # the kernel in X is centred at e^{t} Y with standard deviation 1.75
    want = grid_norm(lambda X: np.exp(R.kernel_ref(spec, X, np.broadcast_to(Y, X.shape), t).log_p), r,
                     half=14.0, n=1201)
    assert R.kernel_lr_norm_ref(spec, t, r) == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("pq", [(1.0, 2.0), (2.0, 4.0), (1.0, math.inf), (1.5, 3.0)])
def test_young_constant_bounds_gaussian_ratios(n, pq):
    p, q = pq
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 1.0 + inv_q - 1.0 / p
    r = math.inf if inv_r == 0 else 1.0 / inv_r
    t = 0.37
    # ||p_t||_r by quadrature of the radial profile, times V(t)^{1/p - 1/q}
    area = 2 * math.pi ** (n / 2) / math.gamma(n / 2)
    if math.isinf(r):
        norm = (4 * math.pi * t) ** (-n / 2)
    else:
        integral, _ = integrate.quad(
            lambda s: area * s ** (n - 1) * ((4 * math.pi * t) ** (-n / 2) * math.exp(-s * s / (4 * t))) ** r,
            0, np.inf)
        norm = integral ** (1 / r)
    vol = R.unit_ball_volume(n) * t ** (n / 2)
    young = R.young_constant(n, p, q)
    assert young == pytest.approx(norm * vol ** (1 / p - inv_q), rel=1e-8)
    for rho in np.logspace(-3, 3, 25):
        assert R.heat_gaussian_ratio(n, p, q, rho) <= young * (1 + 1e-12)
