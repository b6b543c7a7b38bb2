"""Tests for semigroup application, Poisson subordination, kernel norms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

import hypok.semigroup as semigroup_module
import hypok.testfuncs as testfuncs_module
from hypok.kernel import heat_kernel
from hypok.operator_core import (
    DomainError,
    KernelConstants,
    _block_gramians,
    _gramian_bundle,
    gramians,
    heat,
    kolmogorov,
    ornstein_uhlenbeck,
    sym_sqrt,
)
from hypok.semigroup import (
    DEFAULT_QUAD,
    GRID_BLOCK,
    MC_REPLICATES,
    QuadratureSpec,
    apply_poisson,
    apply_semigroup,
    apply_semigroup_report,
    kernel_lr_norm,
    lp_norm,
    lr_norm_constant,
    semigroup_gradient,
    sup_norm,
    ultracontractivity_check,
    ultracontractivity_constant,
    _mc_draw_set,
    _mc_means,
)
from hypok.testfuncs import (
    CompactBump,
    GaussianTerm,
    ModulatedBump,
    TestFunction,
    UnsupportedDegreeError,
    constant,
    exact_semigroup_oracle,
    gaussian,
    linear,
)
from test_kernel import CHAIN3
from test_testfuncs import gh_semigroup

PRESETS = lambda: (heat(1), heat(2), kolmogorov(1), ornstein_uhlenbeck(2))


def random_schwartz(rng, dim, n_terms=2, max_degree=2, widest=2.0):
    """Gaussian-polynomial mixture with moderate shape spectrum.

    Eigenvalues are kept in [0.3, widest] so a 40-point tensor rule
    resolves the integrand; the closed-form oracle has no such limit.
    """
    terms = []
    for _ in range(n_terms):
        A = rng.normal(size=(dim, dim))
        Qmat, _ = np.linalg.qr(A)
        lam = rng.uniform(0.3, widest, size=dim)
        shape = (Qmat * lam) @ Qmat.T
        center = rng.uniform(-1.5, 1.5, size=dim)
        coeff = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)
        monomial = [0] * dim
        for _ in range(rng.integers(0, max_degree + 1)):
            monomial[rng.integers(0, dim)] += 1
        terms.append(
            TestFunction((GaussianTerm(coeff, center, shape, tuple(monomial)),))
        )
    out = terms[0]
    for extra in terms[1:]:
        out = out + extra
    return out


class Values:
    """A callable on points as an object with ``value``, for gh_semigroup."""

    def __init__(self, func):
        self.value = func


def spread_ratio(spec, S, t):
    """lambda_max(2 Sigma S), Sigma = 2 t K(t): kernel spread over the width of f."""
    return float(np.max(np.linalg.eigvals(4.0 * t * gramians(spec, t).K_t @ S).real))


def heat_1d_convolution(k, s, m, t):
    """E[w^k exp(-s w^2)] for w ~ N(m, 2t), written out in one dimension.

    Completing the square leaves g^{-1/2} exp(-s m^2 / g) times the k-th
    raw moment of N(m / g, 2t / g), g = 1 + 4 s t, which is
    sum_j C(k, 2j) (2j - 1)!! mean^{k-2j} var^j.
    """
    g = 1.0 + 4.0 * s * t
    mean, var = m / g, 2.0 * t / g
    moment = sum(
        math.comb(k, 2 * j) * math.prod(range(1, 2 * j, 2))
        * var**j * mean ** (k - 2 * j)
        for j in range(k // 2 + 1)
    )
    return math.exp(-s * m * m / g) / math.sqrt(g) * moment


def nested_semigroup(spec, f, s, t, X, order=80):
    """P_s applied by fresh Gauss-Hermite to the exact P_t f profile."""
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    grids = np.meshgrid(*([nodes] * spec.dim), indexing="ij")
    u = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(u.shape[0])
    for axis in range(spec.dim):
        w = w * weights[np.searchsorted(nodes, u[:, axis])]
    g = gramians(spec, s)
    vals, vecs = np.linalg.eigh(g.K_t)
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
    pts = g.exp_tB @ np.asarray(X, float) + math.sqrt(4.0 * s) * u @ root.T
    inner = exact_semigroup_oracle(spec, f, t, pts)
    return math.pi ** (-spec.dim / 2.0) * float(w @ inner)


def kernel_vals(spec, X, Ys, t):
    """p(X, Y_i, t) through the drift-free-variable closed form."""
    g = gramians(spec, t)
    xi = np.asarray(X, float) - Ys @ g.exp_minus_tB.T
    q = np.einsum("...i,ij,...j->...", xi, g.inv_C_t, xi)
    log_p = (
        -0.5 * spec.dim * math.log(4.0 * math.pi)
        - t * spec.trace_B
        - 0.5 * g.logdet_C
        - 0.25 * q
    )
    return np.exp(log_p)


def bump_reference(spec, bump, t, X, order=220):
    """P_t bump(X) by Gauss-Legendre against the kernel over the support."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    r = bump.outer_radius
    xs = [bump.center[i] + r * nodes for i in range(spec.dim)]
    grids = np.meshgrid(*xs, indexing="ij")
    Ys = np.stack([g.ravel() for g in grids], axis=-1)
    w = np.ones(Ys.shape[0])
    for axis in range(spec.dim):
        w = w * r * weights[np.searchsorted(xs[axis], Ys[:, axis])]
    return float(w @ (kernel_vals(spec, X, Ys, t) * bump.value(Ys)))


def mc_loop_reference(spec, f, t, X, quad=DEFAULT_QUAD):
    """The Monte Carlo estimator with fresh row-major draws per replicate."""
    g = gramians(spec, t)
    mu = g.exp_tB @ X
    A = math.sqrt(2.0 * t) * sym_sqrt(g.K_t)
    per = max(quad.mc_samples // MC_REPLICATES, 512)
    means = np.empty(MC_REPLICATES)
    for i in range(MC_REPLICATES):
        rng = np.random.Generator(np.random.Philox(key=[quad.rng_seed, i]))
        draws = rng.standard_normal(size=(per, spec.dim))
        means[i] = float(np.mean(f.value(mu + draws @ A.T)))
    return float(np.mean(means)), float(np.std(means, ddof=1) / math.sqrt(MC_REPLICATES))


def mc_means_every_sample(f, mus, roots, quad):
    """Replicate means of f(mu_k + A_k w), every sample of the draw set evaluated."""
    n = mus.shape[1]
    rows = _mc_draw_set(n, quad.mc_samples, quad.rng_seed)
    means = np.empty((mus.shape[0], MC_REPLICATES))
    for k in range(mus.shape[0]):
        for rep in range(MC_REPLICATES):
            Y = mus[k] + (roots[k] @ rows[rep, :n]).T
            means[k, rep] = np.mean(f.value(Y))
    return means


def heat2_bump_radial(bump, var, X):
    """P_t bump(X) on heat(2), var = 2t, by the radial (Rice) law of |Y - c|.

    Written as 1 minus the mass the bump misses, so a narrow law inside
    the plateau gives 1 without resolving its peak.
    """
    rho = float(np.linalg.norm(np.asarray(X, float) - bump.center))
    sigma = math.sqrt(var)
    r_in, r_out = bump.inner_radius, bump.outer_radius

    def missed(r):
        density = r / var * math.exp(-((r - rho) ** 2) / (2.0 * var)) * special.i0e(
            r * rho / var
        )
        return (1.0 - bump.value(bump.center + [r, 0.0])) * density

    edge, _ = integrate.quad(missed, r_in, r_out, epsabs=1e-13, epsrel=1e-11, limit=200)
    return 1.0 - edge - stats.rice.sf(r_out, rho / sigma, scale=sigma)


class TestApplySemigroup:
    def test_matches_exact_oracle(self):
        # the closed form is the oracle; a 60-point tensor rule confirms it
        rng = np.random.default_rng(11)
        for spec in PRESETS():
            for t in (0.05, 0.2, 0.5):
                f = random_schwartz(rng, spec.dim, widest=1.2)
                X = rng.uniform(-2.0, 2.0, size=spec.dim)
                report = apply_semigroup_report(spec, f, t, X)
                assert report.method == "closed-form" and report.stderr == 0.0
                assert report.value == exact_semigroup_oracle(spec, f, t, X)
                want = gh_semigroup(spec, f, t, X, order=60)
                assert abs(report.value - want) <= 1e-9 * (1.0 + abs(want))

    def test_matches_exact_oracle_sharp_terms(self):
        # narrow terms at long times need a denser rule on the test side:
        # the whitened integrand oscillates on the scale
        # sigma / sqrt(4 t lambda_max(K))
        rng = np.random.default_rng(13)
        for spec in PRESETS():
            f = random_schwartz(rng, spec.dim, widest=2.0)
            X = rng.uniform(-2.0, 2.0, size=spec.dim)
            got = apply_semigroup(spec, f, 2.0, X)
            assert got == exact_semigroup_oracle(spec, f, 2.0, X)
            want = gh_semigroup(spec, f, 2.0, X, order=200)
            assert abs(got - want) <= 1e-9 * (1.0 + abs(want))

    @pytest.mark.parametrize("f", [gaussian(np.zeros(2), np.eye(2)), CompactBump(np.zeros(2), 0.5, 1.0)],
                             ids=["closed-form", "monte-carlo"])
    @pytest.mark.parametrize("X", [[math.nan, 0.0], [0.0, -math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_point(self, f, X):
        # both routes returned a silent NaN
        with pytest.raises(DomainError):
            apply_semigroup_report(heat(2), f, 1.0, X)

    def test_constant_preserved(self):
        for spec in PRESETS():
            X = np.linspace(-1.0, 1.0, spec.dim)
            assert apply_semigroup(spec, constant(1.0, spec.dim), 0.7, X) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_huge_bump_acts_as_one(self):
        # f = 1 proxy: every Monte Carlo draw lands on the plateau
        for spec in (heat(2), kolmogorov(1)):
            bump = CompactBump(np.zeros(spec.dim), 60.0, 120.0)
            report = apply_semigroup_report(spec, bump, 0.5, np.zeros(spec.dim))
            assert report.method == "monte-carlo"
            assert abs(report.value - 1.0) <= 1e-10

    def test_semigroup_law(self):
        rng = np.random.default_rng(5)
        for spec in PRESETS():
            f = random_schwartz(rng, spec.dim, widest=1.5)
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            for s, t in ((0.3, 0.7), (1.0, 1.0)):
                whole = apply_semigroup(spec, f, s + t, X)
                nested = nested_semigroup(spec, f, s, t, X)
                assert abs(nested - whole) <= 1e-8 * (1.0 + abs(whole))

    def test_gh_and_mc_agree_on_modulated_profile(self):
        spec = heat(2)
        f = gaussian(np.zeros(2), 0.5 * np.eye(2))
        wide = ModulatedBump(CompactBump(np.zeros(2), 80.0, 160.0), f)
        t, X = 0.6, np.array([0.4, -0.2])
        report = apply_semigroup_report(spec, wide, t, X)
        exact = exact_semigroup_oracle(spec, f, t, X)
        assert report.stderr > 0
        assert abs(report.value - exact) <= 5.0 * report.stderr

    def test_rejects_bad_time_and_dim(self):
        spec = heat(2)
        f = gaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DomainError):
            apply_semigroup(spec, f, 0.0, np.zeros(2))
        with pytest.raises(DomainError):
            apply_semigroup(spec, f, -1.0, np.zeros(2))
        with pytest.raises(ValueError):
            apply_semigroup(spec, gaussian(np.zeros(3), np.eye(3)), 1.0, np.zeros(2))

    def test_five_dims_match_product_of_1d_closed_forms(self):
        # N = 5 was once beyond the tensor rule; on heat(5) a product
        # term factors into five independent 1-D convolutions
        spec = heat(5)
        f = gaussian(np.zeros(5), np.eye(5))
        got = apply_semigroup(spec, f, 1.0, np.zeros(5))
        assert got == pytest.approx(5.0**-2.5, rel=1e-14)
        rng = np.random.default_rng(43)
        for monomial in ((1, 0, 2, 0, 1), (0, 4, 0, 0, 0), (1, 1, 0, 1, 0)):
            shapes = rng.uniform(0.3, 2.0, size=5)
            center = rng.uniform(-0.5, 0.5, size=5)
            X = rng.uniform(-1.0, 1.0, size=5)
            f = gaussian(center, np.diag(shapes), coeff=-1.7, monomial=monomial)
            want = -1.7 * math.prod(
                heat_1d_convolution(k, s, x - c, 0.7)
                for k, s, c, x in zip(monomial, shapes, center, X)
            )
            got = apply_semigroup(spec, f, 0.7, X)
            assert got == pytest.approx(want, rel=1e-13)

    def test_four_dims_match_full_grid_route(self):
        # a 30-point rule at N = 4 (810000 nodes) resolves this integrand
        # to about 3e-14; 20 points leave 6e-11
        rng = np.random.default_rng(41)
        spec = kolmogorov(2)
        f = random_schwartz(rng, 4, max_degree=4, widest=1.2)
        X = rng.uniform(-1.0, 1.0, size=4)
        got = apply_semigroup(spec, f, 0.4, X)
        want = gh_semigroup(spec, f, 0.4, X, order=30)
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))

    def test_wide_kernel_matches_closed_form(self):
        # P_t of exp(-|Y|^2 / 0.18) at 0 on heat(2) is 0.09 / (0.09 + 2t);
        # at t = 10 the kernel is 200 times wider than f
        f = gaussian(np.zeros(2), np.eye(2) / 0.18)
        for t in (1.0, 10.0):
            report = apply_semigroup_report(heat(2), f, t, np.zeros(2))
            assert report.value == pytest.approx(0.09 / (0.09 + 2.0 * t), rel=1e-14)
            assert report.stderr == 0.0

    @settings(max_examples=25, deadline=None)
    @given(
        dim=st.integers(1, 4),
        degree=st.integers(0, 4),
        seed=st.integers(0, 10**6),
    )
    def test_matches_gauss_hermite_in_its_safe_domain(self, dim, degree, seed):
        # inside alpha = lambda_max(2 Sigma S) <= 1 (kernel no wider than
        # f) a tensor rule converges; at N = 4 alpha <= 1/2 lets 24
        # points per axis resolve the degree-5 gradient integrands
        rng = np.random.default_rng(seed)
        specs = {
            1: (heat(1),),
            2: (heat(2), kolmogorov(1), ornstein_uhlenbeck(2)),
            3: (heat(3),),
            4: (kolmogorov(2), heat(4)),
        }[dim]
        spec = specs[seed % len(specs)]
        Qmat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        shape = (Qmat * rng.uniform(0.3, 2.0, size=dim)) @ Qmat.T
        monomial = np.bincount(rng.integers(0, dim, size=degree), minlength=dim)
        center, coeff = rng.uniform(-1.0, 1.0, size=dim), rng.uniform(-2.0, 2.0)
        f = gaussian(center, shape, coeff, tuple(monomial))
        alpha_max = 1.0 if dim < 4 else 0.5
        t = math.exp(rng.uniform(math.log(0.01), math.log(3.0)))
        while spread_ratio(spec, shape, t) > alpha_max:
            t /= 2.0
        X = rng.uniform(-1.0, 1.0, size=dim)
        order = {1: 60, 2: 40, 3: 40, 4: 24}[dim]

        def columns(Y):
            # f, grad f and their absolute values, which set the scales
            vals = np.column_stack([f.value(Y), f.gradient(Y)])
            return np.hstack([vals, np.abs(vals)])

        sums = gh_semigroup(spec, Values(columns), t, X, order=order)
        want, pulled = sums[0], sums[1 : dim + 1]
        scale, scales = sums[dim + 1], sums[dim + 2 :]
        # errors are relative to P_t |f|, since f changes sign
        assert abs(apply_semigroup(spec, f, t, X) - want) <= 1e-12 * scale
        # grad P_t f = e^{tB'} P_t(grad f)
        E = gramians(spec, t).exp_tB
        gap = np.abs(semigroup_gradient(spec, f, t, X) - E.T @ pulled)
        assert np.all(gap <= 1e-12 * (np.abs(E).T @ scales))

    def test_rejects_plain_callable(self):
        with pytest.raises(TypeError):
            apply_semigroup(heat(1), lambda Y: np.ones(Y.shape[0]), 1.0, np.zeros(1))


class TestMonteCarloFallback:
    def test_bump_matches_kernel_quadrature(self):
        for spec, X in ((heat(1), np.array([0.3])), (kolmogorov(1), np.array([0.2, -0.4]))):
            bump = CompactBump(np.full(spec.dim, 0.25), 1.0, 2.5)
            report = apply_semigroup_report(spec, bump, 0.6, X)
            ref = bump_reference(spec, bump, 0.6, X)
            assert report.method == "monte-carlo"
            assert 0 < report.stderr < 0.02
            assert abs(report.value - ref) <= 5.0 * report.stderr

    def test_deterministic_given_seed(self):
        spec = kolmogorov(1)
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        a = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        b = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        assert a.value == b.value and a.stderr == b.stderr

    def test_seed_changes_draws(self):
        spec = heat(2)
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        a = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        other = QuadratureSpec(rng_seed=7)
        b = apply_semigroup_report(spec, bump, 0.4, np.zeros(2), quad=other)
        assert a.value != b.value

    def test_draws_are_the_philox_streams(self):
        # each replicate is its Philox stream, permuted to ascending radius
        seed = 12345
        rows = _mc_draw_set(3, 2**14, seed)
        per = 2**14 // MC_REPLICATES
        assert rows.shape == (MC_REPLICATES, 10, per)
        for i in range(MC_REPLICATES):
            rng = np.random.Generator(np.random.Philox(key=[seed, i]))
            stream = rng.standard_normal(size=(per, 3))
            radii = np.linalg.norm(stream, axis=1)
            order = np.argsort(radii, kind="stable")
            assert np.array_equal(rows[i, :3], stream[order].T)
            assert np.array_equal(np.sort(rows[i, :3].T.ravel()), np.sort(stream.ravel()))
            assert np.array_equal(rows[i, -1], radii[order])
            assert np.array_equal(rows[i, -1], np.linalg.norm(rows[i, :3].T, axis=1))
            assert np.all(np.diff(rows[i, -1]) >= 0.0)

    def test_small_sample_counts_draw_512_per_replicate(self):
        assert _mc_draw_set(2, 1024, 1).shape == (MC_REPLICATES, 6, 512)

    def test_draws_are_read_only(self):
        rows = _mc_draw_set(2, 1024, 3)
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0, 0] = 1.0

    def test_draws_are_built_once(self):
        quad = QuadratureSpec(time_nodes=80, mc_samples=1024, rng_seed=99)
        spec, bump = heat(2), CompactBump(np.zeros(2), 0.3, 0.8)
        _mc_draw_set.cache_clear()
        for t in (0.1, 0.1, 0.7):
            apply_semigroup_report(spec, bump, t, np.zeros(2), quad)
        apply_poisson(spec, bump, 0.5, np.zeros(2), quad)
        # one build, then one lookup per call
        info = _mc_draw_set.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    @pytest.mark.parametrize(
        "spec", [kolmogorov(1), heat(3), kolmogorov(2)], ids=["kolmogorov1", "heat3", "kolmogorov2"]
    )
    @pytest.mark.parametrize("modulated", [False, True], ids=["bump", "modulated"])
    def test_matches_fresh_draw_loop(self, spec, modulated):
        n = spec.dim
        X = np.linspace(-0.3, 0.4, n)
        factor = gaussian(np.full(n, -0.2), 0.8 * np.eye(n), monomial=(1,) + (0,) * (n - 1))
        away = np.linspace(1.0, -0.5, n) / np.linalg.norm(np.linspace(1.0, -0.5, n))
        for t in (0.05, 1.3):
            # near, and 30 away with the transition ring through the cloud,
            # where |m|^2 = 900 dominates the expanded squared radius
            far = gramians(spec, t).exp_tB @ X + 30.0 * away
            for bump in (CompactBump(np.full(n, 0.1), 0.4, 1.1), CompactBump(far, 29.6, 30.6)):
                f = ModulatedBump(bump, factor) if modulated else bump
                got = apply_semigroup_report(spec, f, t, X)
                value, stderr = mc_loop_reference(spec, f, t, X)
                assert got.value == pytest.approx(value, rel=1e-13, abs=0.0)
                assert got.stderr == pytest.approx(stderr, rel=1e-13, abs=0.0)

    def test_bump_at_the_mean_of_a_degenerate_kernel_is_one(self):
        # at t = 1e-9 the kolmogorov(1) covariance has eigenvalues 2e-9 and
        # 1.7e-28; every squared radius lies far inside the plateau, rounding
        # may take one below 0, and the bump must still read exactly 1
        spec, t, X = kolmogorov(1), 1e-9, np.array([0.3, -0.2])
        bump = CompactBump(gramians(spec, t).exp_tB @ X, 0.4, 1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_semigroup_report(spec, bump, t, X)
        assert got.value == 1.0 and got.stderr == 0.0

    @settings(max_examples=60, deadline=None)
    @given(
        which=st.integers(0, 5),
        log_t=st.floats(math.log(1e-9), math.log(1e8)),
        place=st.sampled_from(["inside", "on", "far"]),
        modulated=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_certified_means_match_every_sample(self, which, log_t, place, modulated, seed):
        # the certificate skips only samples whose value is exactly 1 or 0,
        # so the means are those of every sample, up to summation order;
        # six nodes make a full and a partial block of MC_NODE_BLOCK
        spec = (PRESETS() + (kolmogorov(2), CHAIN3))[which]
        t = math.exp(log_t)
        if spec == ornstein_uhlenbeck(2):
            # its Gramians break down past t of about 400; the nodes reach 2 t
            t = min(t, 150.0)
        rng = np.random.default_rng(seed)
        n = spec.dim
        exp_tB, _, _, tK, _, _ = _block_gramians(spec, t * np.geomspace(1.0, 2.0, 6))
        roots = sym_sqrt(2.0 * tK)
        # s: the widest standard deviation of the first node's law.  The
        # reference forms the points mu + A w, which keep A w only to the
        # ulp of mu, so the start point is no larger than s
        s = float(np.max(np.abs(np.linalg.eigvalsh(roots[0]))))
        X = min(s, 1.0) * rng.uniform(-1.0, 1.0, size=n)
        mus = exp_tB @ X
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        offset, r_in = {
            "inside": (0.3, rng.uniform(8.0, 20.0)),
            "on": (0.0, rng.uniform(0.2, 3.0)),
            "far": (50.0, rng.uniform(0.2, 3.0)),
        }[place]
        center = mus[0] + offset * s * u
        bump = CompactBump(center, r_in * s, (r_in + rng.uniform(0.1, 3.0)) * s)
        f = bump
        if modulated:
            f = ModulatedBump(bump, gaussian(center + s * u, np.eye(n) / (4.0 * s * s)))
        quad = QuadratureSpec(mc_samples=2**14)
        got = _mc_means(f, mus, roots, quad)
        want = mc_means_every_sample(f, mus, roots, quad)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_certified_calls_evaluate_no_bump(self, monkeypatch):
        # at t = 1e-9 every sample lies in the plateau of a bump centred at
        # the mean, at t = 1e8 every one lies beyond the bump
        sizes = []
        profile = CompactBump.profile

        def counted(bump, r2, out=None):
            sizes.append(r2.size)
            return profile(bump, r2, out)

        monkeypatch.setattr(CompactBump, "profile", counted)
        spec, X = heat(2), np.array([0.3, -0.2])
        inner = apply_semigroup_report(spec, CompactBump(X, 0.4, 1.1), 1e-9, X)
        outer = apply_semigroup_report(spec, CompactBump(X + 0.2, 0.4, 1.1), 1e8, X)
        assert (inner.value, inner.stderr) == (1.0, 0.0)
        assert (outer.value, outer.stderr) == (0.0, 0.0)
        assert sum(sizes) == 0

    def test_draw_set_rows_are_the_draw_products(self):
        rows = _mc_draw_set(3, 2**12, 5)
        i, j = np.triu_indices(3)
        assert rows.shape == (MC_REPLICATES, 10, 2**12 // MC_REPLICATES)
        assert not rows.flags.writeable
        assert np.array_equal(rows[:, 3:9], rows[:, i] * rows[:, j])


class TestSemigroupGradient:
    def test_rejects_compact_profiles(self):
        bump = CompactBump(np.zeros(2), 0.3, 0.5)
        for f in (bump, ModulatedBump(bump, gaussian(np.zeros(2), np.eye(2)))):
            with pytest.raises(TypeError):
                semigroup_gradient(heat(2), f, 0.01, np.array([0.35, 0.0]))

    def test_rejects_bad_point(self):
        f = gaussian(np.zeros(2), np.eye(2))
        for X in (0.5, np.zeros(3), np.zeros((2, 2))):
            with pytest.raises(ValueError):
                semigroup_gradient(heat(2), f, 0.5, X)

    @pytest.mark.parametrize("X", [[math.nan, 0.0], [0.0, -math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_point(self, X):
        # it warned of an invalid matmul and returned NaN
        with pytest.raises(DomainError):
            semigroup_gradient(heat(2), gaussian(np.zeros(2), np.eye(2)), 0.5, X)

    def test_linear_profile_exact(self):
        for spec in PRESETS():
            a = np.arange(1.0, spec.dim + 1.0)
            f = linear(a)
            got = semigroup_gradient(spec, f, 0.9, np.zeros(spec.dim))
            want = gramians(spec, 0.9).exp_tB.T @ a
            assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        for spec in (heat(2), kolmogorov(1)):
            f = random_schwartz(rng, spec.dim)
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            t = 0.7
            grad = semigroup_gradient(spec, f, t, X)
            h = 1e-5
            for i in range(spec.dim):
                e = np.zeros(spec.dim)
                e[i] = h
                fd = (
                    apply_semigroup(spec, f, t, X + e)
                    - apply_semigroup(spec, f, t, X - e)
                ) / (2.0 * h)
                assert abs(grad[i] - fd) <= 1e-6 * (1.0 + abs(fd))

    def test_degree_four_matches_central_differences(self):
        # fourth-order stencil: truncation about h^4 = 1e-12, roundoff 1e-13
        rng = np.random.default_rng(47)
        h = 1e-3
        for spec in (heat(2), kolmogorov(1), ornstein_uhlenbeck(2), kolmogorov(2)):
            n = spec.dim
            for monomial in ((4,) + (0,) * (n - 1), (1, 3) + (0,) * (n - 2)):
                center = rng.uniform(-0.5, 0.5, size=n)
                f = gaussian(center, 0.8 * np.eye(n), monomial=monomial)
                X = rng.uniform(-1.0, 1.0, size=n)
                grad = semigroup_gradient(spec, f, 1.3, X)
                for i, e in enumerate(np.eye(n)):
                    steps = X + h * np.outer((-2, -1, 1, 2), e)
                    v = [apply_semigroup(spec, f, 1.3, Y) for Y in steps]
                    fd = (v[0] - 8.0 * v[1] + 8.0 * v[2] - v[3]) / (12.0 * h)
                    assert abs(grad[i] - fd) <= 1e-10 * (1.0 + abs(fd))


class TestApplyPoisson:
    @pytest.mark.parametrize("f", [gaussian(np.zeros(2), np.eye(2)), CompactBump(np.zeros(2), 0.5, 1.0)],
                             ids=["closed-form", "monte-carlo"])
    @pytest.mark.parametrize("X", [[math.nan, 0.0], [0.0, -math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_point(self, f, X):
        # both routes returned NaN
        with pytest.raises(DomainError):
            apply_poisson(kolmogorov(1), f, 0.7, X)

    def test_preserves_constant(self):
        for spec in PRESETS():
            one = constant(1.0, spec.dim)
            for z in (0.5, 2.0):
                assert apply_poisson(spec, one, z, np.zeros(spec.dim)) == pytest.approx(
                    1.0, abs=1e-8
                )

    def test_heat_matches_brute_subordination(self):
        spec = heat(1)
        f = gaussian(np.zeros(1), np.eye(1))
        X, z = np.array([0.3]), 1.2

        def profile(t):
            return math.exp(-X[0] ** 2 / (1.0 + 4.0 * t)) / math.sqrt(1.0 + 4.0 * t)

        def integrand(t):
            return (
                z
                / math.sqrt(4.0 * math.pi)
                * t ** (-1.5)
                * math.exp(-(z**2) / (4.0 * t))
                * profile(t)
            )

        brute = 0.0
        for lo, hi in ((0.0, z**2), (z**2, 50.0), (50.0, np.inf)):
            part, err = integrate.quad(
                integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400
            )
            brute += part
        got = apply_poisson(spec, f, z, X)
        assert abs(got - brute) <= 1e-7 * abs(brute)

    def test_degree_three_matches_brute_subordination(self):
        # a degree-3 profile, once a Gauss-Hermite one, against quad over
        # the subordinator of the 1-D closed form
        spec = heat(1)
        f = gaussian([0.2], [[0.7]], coeff=1.5, monomial=(3,))
        X, z = np.array([-0.4]), 0.9

        def integrand(t):
            density = z / math.sqrt(4.0 * math.pi) * t**-1.5 * math.exp(-z * z / (4.0 * t))
            return density * 1.5 * heat_1d_convolution(3, 0.7, X[0] - 0.2, t)

        brute = sum(
            integrate.quad(integrand, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=400)[0]
            for lo, hi in ((0.0, z**2), (z**2, 50.0), (50.0, np.inf))
        )
        assert apply_poisson(spec, f, z, X) == pytest.approx(brute, rel=1e-12)

    @pytest.mark.parametrize("nodes, times", [(80, 81), (81, 81), (200, 201)])
    def test_time_nodes_are_honoured(self, monkeypatch, nodes, times):
        # each time of the engine pass is one Monte Carlo value on the shared draws
        sizes, means = [], []
        engine, mc_means = semigroup_module._block_gramians, semigroup_module._mc_means

        def counted_engine(spec, ts):
            sizes.append(np.size(ts))
            return engine(spec, ts)

        def counted_means(*args):
            out = mc_means(*args)
            means.append(out.shape)
            return out

        monkeypatch.setattr(semigroup_module, "_block_gramians", counted_engine)
        monkeypatch.setattr(semigroup_module, "_mc_means", counted_means)
        quad = QuadratureSpec(time_nodes=nodes, mc_samples=1024)
        bump = CompactBump(np.zeros(2), 0.3, 0.8)
        apply_poisson(heat(2), bump, 0.5, np.zeros(2), quad)
        assert sizes == [times]
        assert means == [(times, MC_REPLICATES)]

    def test_time_nodes_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(time_nodes=79)

    def test_short_range_identity(self):
        rng = np.random.default_rng(9)
        for spec in PRESETS():
            f = random_schwartz(rng, spec.dim)
            X = rng.uniform(-1.0, 1.0, size=spec.dim)
            fx = f.value(X)
            assert abs(apply_poisson(spec, f, 1e-4, X) - fx) <= 1e-3 * (1.0 + abs(fx))

    def test_ou_long_range_is_finite(self):
        spec = ornstein_uhlenbeck(2)
        f = gaussian(np.zeros(2), np.eye(2))
        val = apply_poisson(spec, f, 2.5, np.array([0.5, -0.5]))
        assert math.isfinite(val) and val > 0

    def test_monte_carlo_profile_matches_radial_subordination(self):
        # 2/sqrt(pi) int_0^inf e^{-s^2} P_{z^2/(4s^2)} f ds: the subordinator
        # in its Gamma(1/2) variable, sharing no split with apply_poisson
        bump = CompactBump(np.zeros(2), 0.3, 0.8)
        X, z = np.array([0.2, 0.1]), 0.5
        ref, _ = integrate.quad(
            lambda s: math.exp(-s * s) * heat2_bump_radial(bump, z * z / (2.0 * s * s), X),
            0.0,
            np.inf,
            epsabs=1e-10,
            limit=200,
        )
        ref *= 2.0 / math.sqrt(math.pi)
        got = apply_poisson(heat(2), bump, z, X)
        # a mean over 2^16 common draws, each a weighted time integral of
        # a [0, 1]-valued bump: standard deviation at most 0.5 / 2^8
        assert abs(got - ref) <= 6.0 * 0.5 / 2**8

    @pytest.mark.parametrize(
        "spec",
        [heat(2), kolmogorov(1), ornstein_uhlenbeck(2)],
        ids=["heat2", "kolmogorov1", "ou2"],
    )
    @pytest.mark.parametrize("modulated", [False, True], ids=["bump", "modulated"])
    def test_monte_carlo_matches_per_node_loop(self, monkeypatch, spec, modulated):
        quad = QuadratureSpec(mc_samples=2**12)
        f = CompactBump(np.array([0.2, -0.1]), 0.3, 0.9)
        if modulated:
            f = ModulatedBump(f, gaussian(np.array([-0.2, 0.1]), 0.8 * np.eye(2), monomial=(1, 0)))
        X, z = np.array([0.1, 0.3]), 0.7
        got = apply_poisson(spec, f, z, X, quad)

        def per_node(spec, f, ts, X, quad):
            # one full apply_semigroup, with its own Gramian bundle, per time
            return np.array([apply_semigroup(spec, f, float(t), X, quad) for t in ts])

        monkeypatch.setattr(semigroup_module, "_poisson_profile", per_node)
        want = apply_poisson(spec, f, z, X, quad)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("kind", ["bump", "closed-form"])
    def test_one_engine_pass_per_call(self, monkeypatch, kind):
        calls = []

        def counted(spec, ts):
            calls.append(np.size(ts))
            return _block_gramians(spec, ts)

        monkeypatch.setattr(semigroup_module, "_block_gramians", counted)
        monkeypatch.setattr(testfuncs_module, "_block_gramians", counted)
        if kind == "bump":
            f = CompactBump(np.zeros(2), 0.3, 0.8)
        else:
            f = gaussian(np.zeros(2), np.eye(2), monomial=(1, 1))
        quad = QuadratureSpec(mc_samples=1024)
        before = _gramian_bundle.cache_info()
        apply_poisson(kolmogorov(1), f, 0.6, np.array([0.2, -0.4]), quad)
        assert calls == [201]
        assert _gramian_bundle.cache_info() == before

    def test_rejects_bad_z(self):
        with pytest.raises(DomainError):
            apply_poisson(heat(1), constant(1.0, 1), 0.0, np.zeros(1))
        with pytest.raises(DomainError):
            apply_poisson(heat(1), constant(1.0, 1), -2.0, np.zeros(1))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t", [400.0, 1e3, 1e8])
@pytest.mark.parametrize(
    "call",
    [
        lambda s, t: apply_semigroup_report(s, CompactBump(np.zeros(2), 0.3, 0.8), t, np.zeros(2)),
        lambda s, t: apply_semigroup_report(s, gaussian(np.zeros(2), np.eye(2)), t, np.zeros(2)),
        lambda s, t: heat_kernel(s, np.zeros(2), np.ones(2), t),
        lambda s, t: kernel_lr_norm(s, np.zeros(2), t, 2.0),
    ],
    ids=["bump", "gaussian", "heat_kernel", "kernel_lr_norm"],
)
def test_overflowing_gramians_raise(call, t):
    # C(t) = (e^{2t} - 1) / 2 I overflows near t = 355 on this spec; past
    # it the values once came back NaN or with a RuntimeWarning only
    with pytest.raises(DomainError):
        call(ornstein_uhlenbeck(2), t)


class TestKernelLrNorm:
    def test_r_one_is_mass(self):
        # integral of p over the first slot is e^{-t tr B} for every spec
        for spec in PRESETS():
            for t in (0.2, 1.0, 5.0):
                want = math.exp(-t * spec.trace_B)
                got = kernel_lr_norm(spec, np.zeros(spec.dim), t, 1.0)
                assert got == pytest.approx(want, rel=1e-12)

    def test_heat_r_two(self):
        for dim in (1, 2):
            spec = heat(dim)
            for t in (0.3, 1.7):
                want = (8.0 * math.pi * t) ** (-dim / 4.0)
                got = kernel_lr_norm(spec, np.zeros(dim), t, 2.0)
                assert got == pytest.approx(want, rel=1e-12)

    def test_scaling_law_constant_in_t(self):
        for spec in PRESETS():
            const = KernelConstants.for_dim(spec.dim)
            for r in (1.5, 2.0, 3.0):
                seen = []
                for t in (0.2, 1.0, 5.0):
                    g = gramians(spec, t)
                    vol = const.omega_N * math.exp(0.5 * g.logdet_tK)
                    value = kernel_lr_norm(spec, np.zeros(spec.dim), t, r)
                    seen.append(
                        value * vol ** (1.0 - 1.0 / r) * math.exp(t * spec.trace_B / r)
                    )
                assert max(seen) - min(seen) <= 1e-8 * max(seen)

    def test_calibration_matches_gaussian_integral(self):
        # c_{N,r} has the closed form [(4 pi)^{-N/2} omega_N]^{1-1/r} r^{-N/(2r)}
        for dim in (1, 2, 3):
            omega = KernelConstants.for_dim(dim).omega_N
            for r in (1.5, 2.0, 3.0):
                want = ((4.0 * math.pi) ** (-dim / 2.0) * omega) ** (
                    1.0 - 1.0 / r
                ) * r ** (-dim / (2.0 * r))
                assert lr_norm_constant(dim, r) == pytest.approx(want, rel=1e-10)

    def test_constant_links_norm_and_volume(self):
        # the closed form reads det C(t); the scaling law reads V(t) from
        # det tK(t) = e^{2 t tr B} det C(t)
        for spec in PRESETS():
            const = KernelConstants.for_dim(spec.dim)
            for t, r in ((0.3, 1.5), (2.0, 3.0)):
                g = gramians(spec, t)
                vol = const.omega_N * math.exp(0.5 * g.logdet_tK)
                want = (
                    lr_norm_constant(spec.dim, r)
                    * vol ** -(1.0 - 1.0 / r)
                    * math.exp(-t * spec.trace_B / r)
                )
                got = kernel_lr_norm(spec, np.zeros(spec.dim), t, r)
                assert got == pytest.approx(want, rel=1e-12)

    def test_heat_r_two_beyond_tensor_cap(self):
        spec = heat(5)
        got = kernel_lr_norm(spec, np.zeros(5), 0.6, 2.0)
        assert got == pytest.approx((8.0 * math.pi * 0.6) ** (-5 / 4.0), rel=1e-12)

    def test_independent_of_y(self):
        spec = kolmogorov(1)
        a = kernel_lr_norm(spec, np.zeros(2), 0.8, 2.5)
        b = kernel_lr_norm(spec, np.array([3.0, -1.0]), 0.8, 2.5)
        assert a == pytest.approx(b, rel=1e-14)

    def test_builds_no_gramian_bundle(self):
        # only log det C(t) is read: no bundle is built or cached, and the
        # value is the bundle formula's to the last bit
        _gramian_bundle.cache_clear()
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            n = spec.dim
            for t, r in ((0.37, 1.0), (1.9, 2.5)):
                got = kernel_lr_norm(spec, np.zeros(n), t, r)
                assert _gramian_bundle.cache_info().currsize == 0
                g = gramians(spec, t)
                log_mass = n * math.log(2.0) + 0.5 * g.logdet_C + 0.5 * n * math.log(math.pi / r)
                assert got == math.exp(g.log_norm_C + log_mass / r)
                _gramian_bundle.cache_clear()

    def test_rejects_r_below_one(self):
        with pytest.raises(DomainError):
            kernel_lr_norm(heat(1), np.zeros(1), 1.0, 0.5)

    @pytest.mark.parametrize(
        "dim, r", [(2, 0.5), (2, 0.0), (2, math.nan), (2, -math.inf), (0, 2.0), (-1, 2.0)]
    )
    def test_constant_rejects_bad_inputs(self, dim, r):
        with pytest.raises(DomainError):
            lr_norm_constant(dim, r)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_constant_at_r_inf_is_the_sup_norm(self, dim):
        # sup of the heat kernel at t = 1 is (4 pi)^{-N/2}, and V(1) = omega_N
        omega = KernelConstants.for_dim(dim).omega_N
        want = (4.0 * math.pi) ** (-dim / 2.0) * omega
        assert lr_norm_constant(dim, math.inf) == pytest.approx(want, rel=1e-15)
        assert lr_norm_constant(dim, 1e12) == pytest.approx(want, rel=1e-9)


class TestUltracontractivity:
    def test_p_equals_q_contracts_on_all_presets(self):
        for spec in PRESETS():
            f = gaussian(np.full(spec.dim, 0.4), np.eye(spec.dim) * 0.7)
            for p in (1.0, 2.0):
                for t in (0.3, 2.0):
                    result = ultracontractivity_check(spec, f, p, p, t)
                    assert result.passed
                    assert result.constant == 1.0

    def test_smoothing_passes(self):
        rng = np.random.default_rng(21)
        for spec in PRESETS():
            f = gaussian(
                rng.uniform(-0.5, 0.5, size=spec.dim), np.eye(spec.dim) * 1.1
            ) + gaussian(rng.uniform(-0.5, 0.5, size=spec.dim), np.eye(spec.dim) * 0.4)
            for p, q in ((1.0, 2.0), (2.0, 4.0), (1.0, np.inf)):
                result = ultracontractivity_check(spec, f, p, q, 0.7)
                assert result.passed, (spec.name, p, q)

    def test_heat_sup_bound_near_equality(self):
        # p=1, q=inf: sup P_t f <= (4 pi t)^{-N/2} ||f||_1, saturated by
        # a narrow source; the analytic L^1 mass avoids quadrature slack
        spec = heat(2)
        width = 0.05
        f = gaussian(np.zeros(2), np.eye(2) / (2.0 * width**2))
        t = 0.8
        mass = 2.0 * math.pi * width**2
        bound = (4.0 * math.pi * t) ** -1.0 * mass
        top = exact_semigroup_oracle(spec, f, t, np.zeros(2))
        assert top <= bound * (1.0 + 1e-9)
        assert top >= 0.99 * bound
        result = ultracontractivity_check(spec, f, 1.0, np.inf, t)
        assert result.passed
        assert result.rhs == pytest.approx(bound, rel=1e-12)

    @pytest.mark.parametrize("t", [2.0, 3.0])
    def test_ou_lhs_matches_closed_form(self, t):
        # P_t f(X) = (1+s)^{-1} exp(-e^{-2t}|X|^2 / (2(1+s))), s = 1 - e^{-2t},
        # for f = exp(-|y|^2/2): a norm box placed by e^{tB} instead of
        # e^{-tB} misses most of this mass
        f = gaussian(np.zeros(2), np.eye(2) / 2.0)
        s = 1.0 - math.exp(-2.0 * t)
        exact = math.sqrt(math.pi * (1.0 + s) * math.exp(2.0 * t)) / (1.0 + s)
        result = ultracontractivity_check(ornstein_uhlenbeck(2), f, 1.0, 2.0, t)
        assert abs(result.lhs - exact) <= 1e-8 * exact

    def test_lq_grid_resolves_the_qth_power(self):
        # |P_t f|^4 is half as wide as P_t f; an order read off P_t f alone
        # left this lhs 1.75e-8 off, above its own 1e-8 allowance
        t = 1.6
        S = np.array([[0.84, -0.63], [-0.63, 1.66]])
        Sigma = 2.0 * np.array([[t, t * t / 2.0], [t * t / 2.0, t**3 / 3.0]])
        M = np.linalg.inv(np.linalg.inv(S) + 2.0 * Sigma)
        exact = (math.pi / (4.0 * math.sqrt(np.linalg.det(M)))) ** 0.25 / math.sqrt(
            np.linalg.det(np.eye(2) + 2.0 * Sigma @ S)
        )
        result = ultracontractivity_check(kolmogorov(1), gaussian([0, 0], S), 2.0, 4.0, t)
        assert abs(result.lhs - exact) <= 1e-8 * exact

    def test_trace_flag(self):
        f = gaussian(np.zeros(2), np.eye(2))
        assert ultracontractivity_check(ornstein_uhlenbeck(2), f, 1.0, 2.0, 0.5).trace_b_negative
        assert not ultracontractivity_check(heat(2), f, 1.0, 2.0, 0.5).trace_b_negative

    def test_rejects_p_above_q(self):
        with pytest.raises(DomainError):
            ultracontractivity_check(heat(1), gaussian(np.zeros(1), np.eye(1)), 2.0, 1.0, 1.0)

    def test_narrow_source_passes(self):
        # a narrow Gaussian nearly saturates the p = 1 bound; a constant
        # below the sharp one failed this true inequality
        f = gaussian(np.zeros(2), np.eye(2) * 5000.0)
        result = ultracontractivity_check(heat(2), f, 1.0, 2.0, 1.0)
        assert result.passed
        assert result.lhs <= result.rhs
        assert result.rhs == pytest.approx(1.253314e-4, rel=1e-6)

    def test_rejects_non_gaussian_polynomial_f(self):
        f = CompactBump(np.zeros(2), 0.5, 1.0)
        with pytest.raises(TypeError):
            ultracontractivity_check(heat(2), f, 1.0, 2.0, 1.0)

    def test_rejects_dimension_mismatch(self):
        f = gaussian(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch between spec and f"):
            ultracontractivity_check(heat(2), f, 1.0, 2.0, 1.0)

    def test_constant_monotone_in_smoothing_gap(self):
        # more smoothing (larger q at fixed p) costs a smaller constant
        c_12 = ultracontractivity_constant(1, 1.0, 2.0)
        c_14 = ultracontractivity_constant(1, 1.0, 4.0)
        assert 0 < c_14 < c_12 < 1.0


PQ_PAIRS = [(1.0, 2.0), (2.0, 4.0), (1.0, math.inf), (1.5, 3.0), (3.0, 7.0), (2.0, math.inf)]


def stationary_constant(n, p, q):
    """C(N, p, q) at the maximiser s* = 2 (1 - 1/p) / (1/p - 1/q) of the
    heat-kernel Gaussian ratio over s = w^2 / t."""
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    d = 1.0 / p - inv_q
    s = 2.0 * (1.0 - 1.0 / p) / d
    omega = KernelConstants.for_dim(n).omega_N
    q_factor = 1.0 if math.isinf(q) else q ** (-n / (2.0 * q))
    shape = s ** ((1.0 - 1.0 / p) / 2.0) * (s + 2.0) ** (-(1.0 - inv_q) / 2.0)
    return (
        omega**d * (2.0 * math.pi) ** (-n * d / 2.0) * p ** (n / (2.0 * p)) * q_factor * shape**n
    )


def heat_gaussian_ratio(n, p, q, s):
    """||P_1 f||_q V(1)^{1/p - 1/q} / ||f||_p on heat(N), f = exp(-|x|^2 / (2 s)).

    P_1 f = (s / (s + 2))^{N/2} exp(-|x|^2 / (2 (s + 2))), and the L^m
    norm of exp(-|x|^2 / (2 v)) is (2 pi v / m)^{N / (2 m)}.
    """
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    norm_pushed = (s / (s + 2.0)) ** (n / 2.0)
    if not math.isinf(q):
        norm_pushed *= (2.0 * math.pi * (s + 2.0) / q) ** (n / (2.0 * q))
    norm_f = (2.0 * math.pi * s / p) ** (n / (2.0 * p))
    omega = KernelConstants.for_dim(n).omega_N
    return norm_pushed * omega ** (1.0 / p - inv_q) / norm_f


class TestSharpConstant:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("p, q", PQ_PAIRS)
    def test_matches_stationary_point(self, n, p, q):
        got = ultracontractivity_constant(n, p, q)
        assert got == pytest.approx(stationary_constant(n, p, q), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("p, q", PQ_PAIRS)
    def test_no_gaussian_ratio_exceeds_it(self, n, p, q):
        C = ultracontractivity_constant(n, p, q)
        ratios = [heat_gaussian_ratio(n, p, q, s) for s in np.logspace(-9.0, 9.0, 721)]
        assert max(ratios) <= C * (1.0 + 1e-13)
        # and the scan comes close to it: the constant is sharp
        assert max(ratios) >= C * (1.0 - 1e-3)

    @pytest.mark.parametrize("p, q", [(2.0, 4.0), (1.5, 3.0), (2.0, math.inf)])
    def test_attained_by_the_matched_gaussian(self, p, q):
        # at s* = w^2 / t the check's own norms put the lhs on the bound
        inv_q = 0.0 if math.isinf(q) else 1.0 / q
        s = 2.0 * (1.0 - 1.0 / p) / (1.0 / p - inv_q)
        for spec in (heat(1), heat(2), heat(4)):
            t = 0.7
            f = gaussian(np.zeros(spec.dim), np.eye(spec.dim) / (2.0 * s * t))
            result = ultracontractivity_check(spec, f, p, q, t)
            assert result.lhs == pytest.approx(result.rhs, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("q", [1.5, 2.0, 4.0, math.inf])
    def test_p_one_is_young_equality(self, n, q):
        got = ultracontractivity_constant(n, 1.0, q)
        assert got == pytest.approx(lr_norm_constant(n, q), rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_p_equals_q_is_one(self, p):
        assert ultracontractivity_constant(3, p, p) == 1.0

    @pytest.mark.parametrize(
        "p, q", [(0.5, 2.0), (3.0, 2.0), (math.nan, 2.0), (1.0, math.nan), (math.inf, 2.0)]
    )
    def test_rejects_bad_exponents(self, p, q):
        with pytest.raises(DomainError):
            ultracontractivity_constant(2, p, q)
        with pytest.raises(DomainError):
            ultracontractivity_check(heat(2), gaussian(np.zeros(2), np.eye(2)), p, q, 1.0)

    @pytest.mark.parametrize(
        "spec",
        [kolmogorov(1), ornstein_uhlenbeck(2), heat(3)],
        ids=["kolmogorov1", "ou2", "heat3"],
    )
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
        st.floats(math.log(0.02), math.log(20.0)),
        st.sampled_from([(1.0, 2.0), (2.0, 4.0), (1.0, math.inf), (1.5, 3.0)]),
        st.integers(0, 10**6),
    )
    def test_holds_on_gaussians(self, spec, log_shape, log_t, pq, seed):
        # single Gaussians with shape spectrum log-uniform in [e^-6, e^6]
        rng = np.random.default_rng(seed)
        n = spec.dim
        Qmat, _ = np.linalg.qr(rng.normal(size=(n, n)))
        shape = (Qmat * np.exp(log_shape[:n])) @ Qmat.T
        f = gaussian(rng.uniform(-0.5, 0.5, size=n), shape)
        p, q = pq
        result = ultracontractivity_check(spec, f, p, q, math.exp(log_t))
        # steer the search toward the draws closest to the bound
        target(result.lhs / result.rhs, label="ratio %g %g" % pq)
        assert result.passed
        assert result.lhs <= result.rhs * (1.0 + 1e-12)


def random_gaussian(rng, dim):
    """One Gaussian c exp(-<S(y - c0), y - c0>), S with spectrum in [0.3, 2]."""
    Qmat, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    shape = (Qmat * rng.uniform(0.3, 2.0, size=dim)) @ Qmat.T
    coeff = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
    return gaussian(rng.uniform(-0.5, 0.5, size=dim), shape, coeff=coeff)


def pushed_oracle(spec, f, t):
    return lambda pts: exact_semigroup_oracle(spec, f, t, pts)


GAUSSIAN_SPECS = pytest.mark.parametrize(
    "spec",
    [heat(2), kolmogorov(1), ornstein_uhlenbeck(2), heat(3)],
    ids=["heat2", "kolmogorov1", "ou2", "heat3"],
)


class TestUltracontractivityClosedForm:
    @GAUSSIAN_SPECS
    @pytest.mark.parametrize("p, q", [(1.0, 2.0), (2.0, 4.0), (1.5, 3.0)])
    def test_matches_norm_grids(self, spec, p, q):
        # both norms on the tensor grids the grid route would build
        rng = np.random.default_rng([int(10 * p), int(10 * q), spec.dim])
        geometry, order = semigroup_module._pushed_geometry, semigroup_module._adaptive_order
        n = spec.dim
        for _ in range(2):
            f = random_gaussian(rng, n)
            t = float(np.exp(rng.uniform(math.log(0.3), math.log(2.0))))
            result = ultracontractivity_check(spec, f, p, q, t)
            assert result.method == "closed-form"
            rad_f, sig_f = geometry(spec, f, None)
            norm_f = lp_norm(f.value, p, n, rad_f, order(rad_f, sig_f / math.sqrt(p), n))
            rad_p, sig_p = geometry(spec, f, t)
            lhs = lp_norm(
                pushed_oracle(spec, f, t), q, n, rad_p, order(rad_p, sig_p / math.sqrt(q), n)
            )
            vol = KernelConstants.for_dim(n).omega_N * math.exp(
                0.5 * gramians(spec, t).logdet_tK
            )
            envelope = vol ** -(1.0 / p - 1.0 / q) * math.exp(-t * spec.trace_B / q) * norm_f
            assert result.lhs == pytest.approx(lhs, rel=1e-10)
            assert result.rhs / result.constant == pytest.approx(envelope, rel=1e-10)

    @GAUSSIAN_SPECS
    def test_sup_is_the_exact_peak(self, spec):
        # P_t f peaks at e^{-tB} c0; a uniform grid can only sit below it
        rng = np.random.default_rng(spec.dim + 50)
        f = random_gaussian(rng, spec.dim)
        t = 0.8
        result = ultracontractivity_check(spec, f, 1.0, np.inf, t)
        assert result.method == "closed-form"
        top = gramians(spec, t).exp_minus_tB @ f.terms[0].center
        peak = abs(exact_semigroup_oracle(spec, f, t, top))
        assert result.lhs == pytest.approx(peak, rel=1e-14)
        radius, _ = semigroup_module._pushed_geometry(spec, f, t)
        assert result.lhs >= sup_norm(pushed_oracle(spec, f, t), spec.dim, radius)

    def test_single_gaussian_in_four_dims(self):
        spec = kolmogorov(2)
        f = gaussian(np.full(4, 0.2), np.eye(4) * 0.8)
        for q in (2.0, np.inf):
            result = ultracontractivity_check(spec, f, 1.0, q, 0.9)
            assert result.method == "closed-form"
            assert result.passed

    def test_sum_of_gaussians_takes_the_grid(self):
        rng = np.random.default_rng(21)
        f = gaussian(rng.uniform(-0.5, 0.5, size=2), np.eye(2) * 1.1) + gaussian(
            rng.uniform(-0.5, 0.5, size=2), np.eye(2) * 0.4
        )
        result = ultracontractivity_check(heat(2), f, 1.0, 2.0, 0.7)
        assert result.method == "grid"
        assert result.passed

    def test_polynomial_factor_takes_the_grid(self):
        f = gaussian(np.zeros(2), np.eye(2), monomial=(2, 0))
        result = ultracontractivity_check(heat(2), f, 1.0, 2.0, 0.7)
        assert result.method == "grid"
        assert result.passed

    @pytest.mark.parametrize("shape", [np.zeros((2, 2)), np.diag([1.0, 0.0])])
    def test_single_term_without_decay_is_rejected(self, shape):
        with pytest.raises(DomainError):
            ultracontractivity_check(heat(2), gaussian(np.zeros(2), shape), 1.0, 2.0, 0.7)


class TestNormHelpers:
    def test_lp_norm_gaussian(self):
        f = gaussian(np.zeros(2), np.eye(2))
        # integral of e^{-2|y|^2} over the plane is pi/2
        assert lp_norm(f.value, 2.0, 2, 8.0) ** 2 == pytest.approx(
            math.pi / 2.0, rel=1e-12
        )

    def test_sup_norm_hits_center(self):
        f = gaussian(np.array([0.25, -0.5]), np.eye(2))
        assert sup_norm(f.value, 2, 4.0) == pytest.approx(1.0, abs=2e-4)

    def test_lp_norm_rejects_bad_p(self):
        with pytest.raises(DomainError):
            lp_norm(lambda pts: np.ones(pts.shape[0]), 0.5, 1, 1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_lp_norm_block_sum_matches_closed_form(self, dim, p):
        # 97^2 nodes per slab: 6 slabs to a block, so the last block is
        # partial; integral of exp(-p <S y, y>) is (pi/p)^{N/2} det S^{-1/2}
        S = np.diag([0.7, 1.3, 1.0][:dim])
        f = gaussian(np.zeros(dim), S)
        want = ((math.pi / p) ** (dim / 2.0) / math.sqrt(np.linalg.det(S))) ** (1.0 / p)
        assert lp_norm(f.value, p, dim, 7.0, order=97) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_sup_norm_block_max_matches_closed_form(self, dim):
        # the grid maximum of exp(-|y - c|^2) is exp(-sum_i dist(c_i, xs)^2)
        # with xs the 1-D grid; c sits in the last block
        radius = 4.0
        order = 801 if dim <= 2 else 101
        xs = np.linspace(-radius, radius, order)
        c = np.array([3.71, 3.52, 3.93][:dim])
        f = gaussian(c, np.eye(dim))
        gap = np.min((xs[:, None] - c) ** 2, axis=0).sum()
        assert sup_norm(f.value, dim, radius) == pytest.approx(math.exp(-gap), rel=1e-14)

    def test_sup_norm_rejects_four_dims(self):
        with pytest.raises(UnsupportedDegreeError):
            sup_norm(lambda pts: np.ones(pts.shape[0]), 4, 1.0)

    @pytest.mark.parametrize(
        "norm, dim, order",
        [("lp", 3, 97), ("lp", 1, 97), ("sup", 2, 801), ("sup", 3, 11)],
    )
    def test_grid_blocks_cover_the_grid_once(self, norm, dim, order):
        seen = []

        def record(pts):
            assert pts.shape[0] <= GRID_BLOCK and pts.shape[1] == dim
            seen.append(np.array(pts))
            return np.ones(pts.shape[0])

        if norm == "lp":
            lp_norm(record, 2.0, dim, 1.0, order=order)
        else:
            sup_norm(record, dim, 1.0, order=order)
        assert sum(block.shape[0] for block in seen) == order**dim
        # C order with ascending nodes: every point follows its predecessor
        # lexicographically, so none repeats
        steps = np.diff(np.concatenate(seen), axis=0)
        first = np.argmax(steps != 0.0, axis=1)
        assert np.all(steps[np.arange(steps.shape[0]), first] > 0.0)


class TestInvariants:
    def test_positivity(self):
        rng = np.random.default_rng(17)
        for spec in PRESETS():
            f = gaussian(
                rng.uniform(-1, 1, size=spec.dim), np.eye(spec.dim) * 0.9
            ) * 0.5 + gaussian(rng.uniform(-1, 1, size=spec.dim), np.eye(spec.dim) * 1.8)
            for t in (0.05, 1.0, 4.0):
                X = rng.uniform(-2, 2, size=spec.dim)
                assert apply_semigroup(spec, f, t, X) >= 0.0

    def test_sup_contraction(self):
        rng = np.random.default_rng(29)
        for spec in PRESETS():
            f = random_schwartz(rng, spec.dim, max_degree=0)
            cloud = rng.uniform(-4, 4, size=(20000, spec.dim))
            sup_f = float(np.max(np.abs(f.value(cloud))))
            for t in (0.2, 1.5):
                X = rng.uniform(-2, 2, size=(40, spec.dim))
                vals = exact_semigroup_oracle(spec, f, t, X)
                assert float(np.max(np.abs(vals))) <= sup_f + 1e-10

    def test_strong_continuity(self):
        rng = np.random.default_rng(31)
        for spec in PRESETS():
            f = random_schwartz(rng, spec.dim)
            X = rng.uniform(-1.5, 1.5, size=spec.dim)
            gap = abs(apply_semigroup(spec, f, 1e-6, X) - f.value(X))
            assert gap <= 1e-4 * (1.0 + float(np.linalg.norm(f.gradient(X))))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_positive_mixture_stays_in_range(self, seed):
        rng = np.random.default_rng(seed)
        spec = (heat(2), kolmogorov(1), ornstein_uhlenbeck(2))[seed % 3]
        coeffs = rng.uniform(0.1, 1.0, size=2)
        f = gaussian(
            rng.uniform(-1, 1, size=spec.dim), np.eye(spec.dim) * rng.uniform(0.4, 1.5)
        ) * coeffs[0] + gaussian(
            rng.uniform(-1, 1, size=spec.dim), np.eye(spec.dim) * rng.uniform(0.4, 1.5)
        ) * coeffs[1]
        t = float(rng.uniform(0.05, 3.0))
        X = rng.uniform(-2, 2, size=spec.dim)
        value = apply_semigroup(spec, f, t, X)
        assert -1e-12 <= value <= float(np.sum(coeffs)) + 1e-12
