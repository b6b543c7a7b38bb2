"""Tests for semigroup application, Poisson subordination, kernel norms."""

import math
import sys
import warnings
from collections import Counter
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, optimize, special, stats

import hypok.operator_core as operator_core_module
import hypok.semigroup as semigroup_module
import hypok.testfuncs as testfuncs_module
from hypok.kernel import heat_kernel, volume
from hypok.operator_core import (
    DomainError,
    KernelConstants,
    OperatorSpec,
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
    SPACE_TURNS,
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
    _directions,
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
from test_testfuncs import _linalg_module, gh_semigroup

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
    q = np.einsum("...i,ij,...j->...", xi, np.linalg.inv(g.C_t), xi)
    log_p = (
        -0.5 * spec.dim * math.log(4.0 * math.pi)
        - t * spec.trace_B
        - 0.5 * g.logdet_C
        - 0.25 * q
    )
    return np.exp(log_p)


def bump_reference(spec, bump, t, X, order=220):
    """P_t bump(X) by Gauss-Legendre against the kernel over the support.

    Each axis is split at +-r_in about the centre, where the profile of
    N = 1 has its kinks, into three pieces of order / 3 nodes.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order // 3)
    cuts = [-bump.outer_radius, -bump.inner_radius, bump.inner_radius, bump.outer_radius]
    axis_nodes = np.concatenate([0.5 * (b - a) * (nodes + 1.0) + a for a, b in zip(cuts, cuts[1:])])
    axis_weights = np.concatenate([0.5 * (b - a) * weights for a, b in zip(cuts, cuts[1:])])
    grids = np.meshgrid(*[bump.center[i] + axis_nodes for i in range(spec.dim)], indexing="ij")
    Ys = np.stack([g.ravel() for g in grids], axis=-1)
    w = reduce(np.multiply.outer, [axis_weights] * spec.dim).ravel()
    return float(w @ (kernel_vals(spec, X, Ys, t) * bump.value(Ys)))


def rotated_design(dim, seed):
    """The ray rule rebuilt: (MC_REPLICATES, L, dim) rotations of its design.

    N = 1 takes +-1, N = 2 32 equally spaced angles, N >= 3 SPACE_TURNS
    copies of the directions +-e_i and (+-e_i +-e_j) / sqrt(2); replicate
    i turns its copy k by the sign-fixed QR factor of the k-th standard
    normal (dim, dim) draw of Philox(key=[seed, i]).
    """
    eye = np.eye(dim)
    if dim == 2:
        angle = 2.0 * math.pi * np.arange(32) / 32
        design = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    else:
        pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
        half = list(eye) + [(eye[i] + sign * eye[j]) / math.sqrt(2.0)
                            for sign in (1.0, -1.0) for i, j in pairs]
        design = np.array(half + [-d for d in half])
    out = []
    for i in range(MC_REPLICATES):
        rng = np.random.Generator(np.random.Philox(key=[seed, i]))
        turns = []
        for _ in range(1 if dim <= 2 else SPACE_TURNS):
            q, r = np.linalg.qr(rng.standard_normal(size=(dim, dim)))
            turns.append(design @ (q * np.sign(np.diag(r))).T)
        out.append(np.concatenate(turns))
    return np.array(out)


def sphere_rule(dim, order):
    """Directions and weights (summing to 1) of a product rule on S^{dim-1}.

    N = 2: the midpoint rule in the angle; N = 3: Gauss-Legendre in the
    height z, uniform on [-1, 1], times the midpoint rule in the azimuth;
    N = 4: the same in Hopf coordinates, where sin^2 of the first angle
    is uniform on [0, 1].
    """
    if dim == 1:
        return np.array([[1.0], [-1.0]]), np.full(2, 0.5)
    ring = 2.0 * math.pi * (np.arange(2 * order) + 0.5) / (2 * order)
    if dim == 2:
        return np.stack([np.cos(ring), np.sin(ring)], axis=1), np.full(ring.size, 1.0 / ring.size)
    x, w = np.polynomial.legendre.leggauss(order)
    if dim == 3:
        z, az = np.meshgrid(x, ring, indexing="ij")
        s = np.sqrt(1.0 - z * z)
        dirs = np.stack([s * np.cos(az), s * np.sin(az), z], axis=-1)
    else:
        u, a1, a2 = np.meshgrid(0.5 * (x + 1.0), ring, ring, indexing="ij")
        c, s = np.sqrt(1.0 - u), np.sqrt(u)
        dirs = np.stack([c * np.cos(a1), c * np.sin(a1), s * np.cos(a2), s * np.sin(a2)], axis=-1)
    weights = np.broadcast_to((0.5 * w).reshape((-1,) + (1,) * (dim - 2)), dirs.shape[:-1])
    return dirs.reshape(-1, dim), weights.ravel() / ring.size ** (dim - 2)


def ray_means(f, mean, V, order=24, cap=10.0):
    """E f(mean + rho v) over rho ~ chi_N for every row v of V.

    Composite Gauss-Legendre between 0, every crossing of the bump's two
    radii, the vertex of the squared radius and ``cap``; f is read by value.
    """
    bump = getattr(f, "bump", f)
    dim = mean.size
    m = mean - bump.center
    a, b, c = np.sum(V * V, axis=1), V @ m, m @ m
    cuts = [np.zeros_like(a), np.full_like(a, cap), np.clip(-b / a, 0.0, cap)]
    for r in (bump.inner_radius, bump.outer_radius):
        disc = np.maximum(b * b - a * (c - r * r), 0.0)
        for sign in (-1.0, 1.0):
            cuts.append(np.clip((-b + sign * np.sqrt(disc)) / a, 0.0, cap))
    cuts = np.sort(np.stack(cuts, axis=1), axis=1)
    x, w = np.polynomial.legendre.leggauss(order)
    lo, half = cuts[:, :-1], 0.5 * np.diff(cuts, axis=1)
    rho = lo[..., None] + half[..., None] * (x + 1.0)
    density = rho ** (dim - 1) * np.exp(
        -0.5 * rho * rho - (0.5 * dim - 1.0) * math.log(2.0) - math.lgamma(0.5 * dim)
    )
    vals = f.value((mean + rho[..., None] * V[:, None, None, :]).reshape(-1, dim))
    return np.sum(half * ((vals.reshape(rho.shape) * density) @ w), axis=1)


def whitened_reference(f, mean, root, order):
    """E f(mean + root w), w ~ N(0, I): a product rule over the directions of
    the whitened w and composite Gauss-Legendre along each ray."""
    dirs, weights = sphere_rule(mean.size, order)
    return float(weights @ ray_means(f, mean, dirs @ root.T))


def transition(spec, t):
    """e^{tB}, which maps X to the transition mean, and the symmetric root
    of the transition covariance 2 t K(t)."""
    exp_tB, _, _, tK, _, _ = _block_gramians(spec, np.array([t]))
    return exp_tB[0], sym_sqrt(2.0 * tK)[0]


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


def ball_span(a, b, d):
    """Whether a rho^2 + 2 b rho + d <= 0 somewhere on rho >= 0, and the ends
    [lo, hi] of that stretch, each root in its cancellation-free form."""
    disc = b * b - a * d
    hit = (d <= 0.0) | ((b < 0.0) & (disc >= 0.0))
    s = np.sqrt(np.maximum(disc, 0.0))
    diff = s - b
    with np.errstate(divide="ignore", invalid="ignore"):
        return hit, np.where(d > 0.0, d / diff, 0.0), np.where(b > 0.0, -d / (s + b), diff / a)


def per_point_means(f, mus, roots, quad):
    """The ray rule's replicate means, evaluated point by point.

    A copy of the rule's set-up (stretch ends, equal or graded panels) in
    its expanded-quadratic form, the squared radius a rho^2 + 2 b rho + c0
    with the crossings of :func:`ball_span`, against the rule's vertex
    form, in blocks of 2048 pairs, with each chunk of panels evaluated at its
    nodes rho = mid + half x one point at a time: the squared radius, the
    chi_N density and a factor's points from rho itself, and the odd-N
    chi tail through math.erfc.
    """
    K, n = mus.shape
    bump, factor = (f.bump, f.f) if isinstance(f, ModulatedBump) else (f, None)
    r_in, r_out = bump.inner_radius, bump.outer_radius
    dirs = _directions(n, quad.rng_seed)
    rays, cap = dirs.shape[0], math.sqrt(n + 2.0 * math.sqrt(42.0 * n) + 84.0)
    x, w = semigroup_module._rule(semigroup_module._leggauss, semigroup_module.RAY_NODES)
    log_norm = (0.5 * n - 1.0) * math.log(2.0) + math.lgamma(0.5 * n)
    log3 = math.log(3.0)

    def chi_tail(rho):
        x2 = 0.5 * rho * rho
        j = 0.5 * (n % 2)
        term = np.exp(-x2) * np.sqrt(x2) ** (2.0 * j) / math.gamma(j + 1.0)
        total = np.reshape([math.erfc(v) for v in np.sqrt(x2).ravel().tolist()], x2.shape) if n % 2 else 0.0
        while j < 0.5 * n:
            total, j = total + term, j + 1.0
            term = term * x2 / j
        return total

    sums = np.empty((K, rays))
    step = max(2048 // rays, 1)
    for first in range(0, K, step):
        blk = slice(first, min(first + step, K))
        m = mus[blk] - bump.center
        V = dirs @ roots[blk]
        a, b = np.einsum("krn,krn->kr", V, V), (V @ m[:, :, None])[..., 0]
        c0 = np.einsum("kn,kn->k", m, m)[:, None]
        hit, e0, e3 = ball_span(a, b, c0 - r_out**2)
        e0 = np.where(hit, np.minimum(e0, cap), 0.0)
        e3 = np.where(hit, np.fmax(np.fmin(e3, cap), e0), e0)
        hit, e1, e2 = ball_span(a, b, c0 - r_in**2)
        with np.errstate(divide="ignore", invalid="ignore"):
            vertex = np.fmax(np.fmin(-b / a, e3), e0)
        e1 = np.where(hit, np.fmin(np.fmax(e1, e0), e3), vertex)
        e2 = np.where(hit, np.fmax(np.fmin(e2, e3), e1), vertex)
        if factor is None:
            acc, span = chi_tail(e1) - chi_tail(e2), 2.0
        else:
            curv = reduce(np.maximum, (np.einsum("krn,nm,krm->kr", V, t.shape, V) for t in factor.terms))
            acc, span = np.zeros(a.shape), 2.0 / np.sqrt(1.0 + 2.0 * curv)
        near, far = np.stack([e1, e2]), np.stack([e0, e3])
        with np.errstate(divide="ignore"):
            unit = np.minimum(2.0 * r_in / np.sqrt(a), span)
        graded = np.any(np.abs(far - near) > 16 * unit)
        mid = near
        if graded:
            R = np.stack([near, far])
            R = np.sqrt(np.maximum((a * R + 2.0 * b) * R + c0, 0.0))
            R = np.clip(R, max(r_in, 1e-300 * r_out), r_out)
            R = np.stack([R[0], np.clip(0.5 * span * np.sqrt(a), R[0], R[1]), np.maximum(R[0], R[1])])
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.sqrt(np.fmax(c0 - b * b / a, 0.0))
                W = R * (1.0 + np.sqrt(np.maximum(1.0 - (d / R) ** 2, 0.0)))
                scale = np.array([-0.5, 0.5])[:, None, None] * W[0] / np.sqrt(a)
            steps, u_far = np.ceil(np.log(W[1] / W[0]) / log3), np.log(W[2] / W[0])
            q2 = (d / W[0]) ** 2
            mid = near + scale * np.expm1(steps * log3) * (1.0 + q2 * np.exp(-steps * log3))
            mid, unit = np.where(steps * log3 < u_far, np.where(steps > 0.0, mid, near), far), span
        lo, hi = [mid, e1[None]][: 1 if factor is None else 2], [far, e2[None]]
        count = [np.where(h != l, np.fmax(np.ceil(np.abs(h - l) / z), 1.0), 0.0) for l, h, z in zip(lo, hi, (unit, span))]
        size = [(h - l) / np.fmax(c, 1.0) for l, h, c in zip(lo, hi, count)]
        if graded:
            lo.insert(0, near)
            count.insert(0, np.where(near != far, np.minimum(steps, np.ceil(u_far / log3)), 0.0))
            size.insert(0, np.minimum(steps * log3, u_far) / np.fmax(count[0], 1.0))
        lo, size, count = (np.concatenate(z).reshape(-1) for z in (lo, size, count))
        if graded:
            scale, q2 = (np.pad(z.reshape(-1), (0, lo.size - z.size)) for z in (scale, q2))
        count = count.astype(np.intp)
        total = np.cumsum(count)
        flat_acc, flat_V = acc.reshape(-1), V.reshape(-1, n)
        for c in range(0, int(total[-1]), 2048):
            p = np.arange(c, min(c + 2048, int(total[-1])))
            s = np.searchsorted(total, p, side="right")
            o, j = s % a.size, p - total[s] + count[s]
            ends = np.stack([j, j + 1]) * size[s]
            if graded:
                mapped = scale[s] * np.expm1(ends) * (1.0 + q2[s] * np.exp(-ends))
                ends = np.where(s < 2 * a.size, mapped, ends)
            ends += lo[s]
            half = 0.5 * (ends[1] - ends[0])
            rho = (ends[0] + half)[:, None] + half[:, None] * x
            q = (a.reshape(-1)[o, None] * rho + 2.0 * b.reshape(-1)[o, None]) * rho + c0[o // rays]
            vals = bump.profile(q) * np.exp(-0.5 * rho * rho - log_norm) * rho ** (n - 1)
            if factor is not None:
                vals *= factor.value(rho[:, :, None] * flat_V[o][:, None, :] + mus[blk][o // rays][:, None, :])
            flat_acc += np.bincount(o, weights=(vals @ w) * np.abs(half), minlength=flat_acc.size)
        sums[blk] = acc
    return sums.reshape(K, MC_REPLICATES, -1).mean(axis=2)


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

    @pytest.mark.parametrize(
        "call",
        [
            lambda t: apply_semigroup(kolmogorov(1), gaussian(np.zeros(2), np.eye(2)), t, [0.3, 0.1]),
            lambda t: semigroup_gradient(kolmogorov(1), gaussian(np.zeros(2), np.eye(2)), t, [0.3, 0.1]),
            lambda t: exact_semigroup_oracle(
                kolmogorov(1), gaussian(np.zeros(2), np.eye(2)), t, np.ones((3, 2))
            ),
            lambda t: apply_semigroup_report(
                kolmogorov(1), CompactBump(np.zeros(2), 0.5, 1.0), t, [0.3, 0.1]
            ),
        ],
        ids=["apply_semigroup", "semigroup_gradient", "oracle", "monte-carlo"],
    )
    def test_fresh_time_leaves_gramian_memo(self, call):
        # one engine pass per call: no (spec, t) bundle is built or cached
        _gramian_bundle.cache_clear()
        call(0.4321)
        assert _gramian_bundle.cache_info().currsize == 0

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
        # N = 1 takes both half-lines exactly, so its replicates agree
        for spec, X in ((heat(1), np.array([0.3])), (kolmogorov(1), np.array([0.2, -0.4]))):
            bump = CompactBump(np.full(spec.dim, 0.25), 1.0, 2.5)
            report = apply_semigroup_report(spec, bump, 0.6, X)
            ref = bump_reference(spec, bump, 0.6, X)
            assert report.method == "monte-carlo"
            assert (report.stderr == 0.0) == (spec.dim == 1) and report.stderr < 0.02
            assert abs(report.value - ref) <= 5.0 * report.stderr + 1e-9

    def test_deterministic_given_seed(self):
        spec = kolmogorov(1)
        bump = CompactBump(np.zeros(2), 1.0, 2.0)
        a = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        b = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        assert a.value == b.value and a.stderr == b.stderr

    def test_seed_changes_draws(self):
        # off centre: a bump centred at X on heat(2) has the same value
        # along every ray, whatever the rotation
        spec = heat(2)
        bump = CompactBump(np.array([0.4, -0.3]), 0.3, 0.9)
        a = apply_semigroup_report(spec, bump, 0.4, np.zeros(2))
        other = QuadratureSpec(rng_seed=7)
        b = apply_semigroup_report(spec, bump, 0.4, np.zeros(2), quad=other)
        assert a.value != b.value and a.stderr != b.stderr
        assert abs(a.value - b.value) <= 5.0 * (a.stderr + b.stderr)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_directions_are_philox_rotations(self, dim):
        seed = 12345
        dirs = _directions(dim, seed)
        want = rotated_design(dim, seed)
        assert dirs.shape == (want.shape[0] * want.shape[1], dim)
        assert_allclose(dirs, want.reshape(-1, dim), rtol=0.0, atol=1e-15)
        assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-15)

    def test_directions_are_read_only(self):
        dirs = _directions(2, 3)
        assert not dirs.flags.writeable
        with pytest.raises(ValueError):
            dirs[0, 0] = 1.0

    def test_directions_are_built_once(self):
        quad = QuadratureSpec(time_nodes=80, rng_seed=99)
        spec, bump = heat(2), CompactBump(np.zeros(2), 0.3, 0.8)
        _directions.cache_clear()
        for t in (0.1, 0.1, 0.7):
            apply_semigroup_report(spec, bump, t, np.zeros(2), quad)
        apply_poisson(spec, bump, 0.5, np.zeros(2), quad)
        # one build, then one lookup per call
        info = _directions.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 3, 1)

    @pytest.mark.parametrize(
        "spec", [kolmogorov(1), heat(3), kolmogorov(2)], ids=["kolmogorov1", "heat3", "kolmogorov2"]
    )
    @pytest.mark.parametrize("modulated", [False, True], ids=["bump", "modulated"])
    def test_matches_fresh_draw_loop(self, spec, modulated):
        # the rule's own rays, rebuilt from their Philox streams, each
        # integrated by a composite rule of its own: the replicate means
        # and their spread; the factor has two terms of different widths
        n = spec.dim
        X = np.linspace(-0.3, 0.4, n)
        factor = gaussian(np.full(n, -0.2), 0.8 * np.eye(n), monomial=(1,) + (0,) * (n - 1))
        factor = factor + 0.5 * gaussian(np.full(n, 0.3), 2.5 * np.eye(n))
        away = np.linspace(1.0, -0.5, n) / np.linalg.norm(np.linspace(1.0, -0.5, n))
        rays = rotated_design(n, DEFAULT_QUAD.rng_seed)
        for t in (0.05, 1.3):
            # near, and 30 away with the transition ring through the cloud
            exp_tB, root = transition(spec, t)
            mean = exp_tB @ X
            for bump in (CompactBump(np.full(n, 0.1), 0.4, 1.1), CompactBump(mean + 30.0 * away, 29.6, 30.6)):
                f = ModulatedBump(bump, factor) if modulated else bump
                got = apply_semigroup_report(spec, f, t, X)
                means = [np.mean(ray_means(f, mean, design @ root.T, order=80)) for design in rays]
                assert got.value == pytest.approx(np.mean(means), rel=1e-12, abs=1e-15)
                stderr = np.std(means, ddof=1) / math.sqrt(MC_REPLICATES)
                assert got.stderr == pytest.approx(stderr, rel=1e-6, abs=1e-15)

    def test_thin_plateau_costs_few_panels(self, monkeypatch):
        # transition stretches are graded out from the plateau, so a plateau
        # of radius down to 5e-324 costs a few more panels per ray than a
        # wide one, not r_out / r_in more, and overflows nothing
        panels = []
        profile = CompactBump.profile
        monkeypatch.setattr(CompactBump, "profile", lambda b, r2, out=None: panels.append(r2.size) or profile(b, r2, out))
        spec, X = heat(2), np.zeros(2)
        counts = []
        for r_in in (0.3, 1e-6, 1e-300, 5e-324):
            bump = CompactBump(np.array([0.2, -0.1]), r_in, 1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = apply_semigroup_report(spec, bump, 0.3, X)
                apply_poisson(spec, bump, 1.0, X)
            assert abs(got.value - heat2_bump_radial(bump, 0.6, X)) <= 5.0 * got.stderr + 1e-9
            counts.append(sum(panels))
            panels.clear()
        assert max(counts) <= 3 * counts[0]

    @pytest.mark.parametrize("spec", [heat(2), kolmogorov(1)], ids=["heat2", "kolmogorov1"])
    def test_thin_plateau_rays_match_adaptive_quadrature(self, spec):
        # off centre, rays pass the plateau of radius 1e-4 at distances d
        # down to about 1e-4, where the radius has branch points d / |v|
        # off the ray: each ray of the rule against an adaptive integral
        t, X = 0.3, np.array([0.3, -0.2])
        exp_tB, root = transition(spec, t)
        mean = exp_tB @ X
        bump = CompactBump(mean + np.array([0.02, 0.01]), 1e-4, 1.0)
        got = apply_semigroup_report(spec, bump, t, X)
        cap = math.sqrt(2.0 + 2.0 * math.sqrt(84.0) + 84.0)

        def along(v):
            m = mean - bump.center
            a, b = v @ v, v @ m
            points = [min(max(-b / a, 0.0), cap)]
            for r in (1e-4, 1.0):
                disc = b * b - a * (m @ m - r * r)
                points += [min(max((-b + sign * math.sqrt(disc)) / a, 0.0), cap) for sign in (-1, 1) if disc > 0]
            value, _ = integrate.quad(
                lambda rho: bump.value(mean + rho * v) * rho * math.exp(-0.5 * rho * rho),
                0.0, cap, points=sorted(set(points)), epsabs=1e-15, epsrel=1e-13, limit=200,
            )
            return value

        means = [np.mean([along(root @ theta) for theta in design]) for design in rotated_design(2, DEFAULT_QUAD.rng_seed)]
        assert got.value == pytest.approx(np.mean(means), rel=1e-12)
        assert got.stderr == pytest.approx(np.std(means, ddof=1) / math.sqrt(MC_REPLICATES), rel=1e-6)

    @pytest.mark.parametrize(
        "spec, t, inside, bound",
        [(kolmogorov(2), 41.0, True, 0.04), (CHAIN3, 0.19, False, 4e-4), (heat(3), 3.5e-6, False, 1e-7)],
        ids=["kolmogorov2", "chain3", "heat3"],
    )
    def test_space_turns_resolve_a_narrow_factor(self, spec, t, inside, bound):
        # a factor of width s (the widest standard deviation of the law) on a
        # bump about the mean; each bound is below the stderr of plain Monte
        # Carlo with 65 536 samples on its case (about 0.1, 1e-3 and 3e-6)
        n = spec.dim
        exp_tB, root = transition(spec, t)
        s = float(np.max(np.abs(np.linalg.eigvalsh(root))))
        X = min(s, 1.0) * np.linspace(0.6, -0.4, n)
        u = np.ones(n) / math.sqrt(n)
        center = exp_tB @ X + (0.3 * s * u if inside else 0.0)
        radii = (12.0 * s, 14.0 * s) if inside else (s, 2.5 * s)
        factor = gaussian(center + s * u, np.eye(n) / (4.0 * s * s), monomial=(1,) + (0,) * (n - 1))
        f = ModulatedBump(CompactBump(center, *radii), factor)
        got = apply_semigroup_report(spec, f, t, X)
        want = whitened_reference(f, exp_tB @ X, root, order={3: 32, 4: 12}[n])
        assert abs(got.value - want) <= 5.0 * got.stderr
        assert got.stderr <= bound

    @staticmethod
    def poisson_grid_args(monkeypatch, spec, f, z, X):
        """The (f, mus, roots, quad) of the one ray-rule pass of a Poisson call."""
        seen, means = [], semigroup_module._mc_means
        monkeypatch.setattr(semigroup_module, "_mc_means", lambda *args: seen.append(args) or means(*args))
        apply_poisson(spec, f, z, X)
        monkeypatch.undo()
        (args,) = seen
        return args

    @pytest.mark.parametrize(
        "spec, kind",
        [
            (heat(1), "plain"), (heat(1), "modulated"),
            (kolmogorov(1), "plain"), (kolmogorov(1), "modulated"), (kolmogorov(1), "thin"),
            (heat(3), "plain"), (CHAIN3, "modulated"), (heat(3), "thin"),
            (kolmogorov(2), "plain"), (kolmogorov(2), "modulated"),
            (heat(2), "poisson"), (heat(2), "thin-poisson"),
        ],
        ids=[
            "heat1-plain", "heat1-modulated", "kolmogorov1-plain", "kolmogorov1-modulated", "kolmogorov1-thin",
            "heat3-plain", "chain3-modulated", "heat3-thin", "kolmogorov2-plain", "kolmogorov2-modulated",
            "heat2-poisson", "heat2-thin-poisson",
        ],
    )
    def test_polynomial_panels_match_per_point_route(self, monkeypatch, spec, kind):
        # the coefficient rows and node matmuls against the rule evaluated
        # point by point on its own panels: a plain, a modulated (two-term
        # factor) and a graded thin-plateau bump at three times, and the
        # 201-time grid of a Poisson call
        n = spec.dim
        X = np.linspace(-0.3, 0.4, n)
        bump = CompactBump(np.linspace(0.2, -0.1, n), 1e-6 if "thin" in kind else 0.45, 1.3)
        factor = gaussian(np.full(n, -0.2), 0.8 * np.eye(n), monomial=(1,) + (0,) * (n - 1))
        factor = factor + 0.5 * gaussian(np.full(n, 0.3), 2.5 * np.eye(n))
        f = ModulatedBump(bump, factor) if kind == "modulated" else bump
        if "poisson" in kind:
            args = self.poisson_grid_args(monkeypatch, spec, f, 0.8, X)
            assert args[1].shape[0] == 201
        else:
            exp_tB, _, _, tK, _, _ = _block_gramians(spec, np.array([0.05, 0.7, 3.0]))
            args = (f, exp_tB @ X, sym_sqrt(2.0 * tK), DEFAULT_QUAD)
        want = per_point_means(*args)
        got = semigroup_module._mc_means(*args)
        assert got.shape == want.shape == (args[1].shape[0], MC_REPLICATES)
        assert_allclose(got, want, rtol=1e-14, atol=1e-16)

    def test_chunks_hold_at_most_ray_block_nodes(self, monkeypatch):
        # every bump evaluation of the rule, over a Poisson grid, an N = 4
        # value, a thin plateau and a modulated bump, is one chunk of at
        # most RAY_BLOCK panels of RAY_NODES nodes
        sizes = []
        profile = CompactBump.profile
        monkeypatch.setattr(CompactBump, "profile", lambda b, r2, out=None: sizes.append(r2.size) or profile(b, r2, out))
        apply_poisson(heat(2), CompactBump(np.array([0.2, -0.1]), 0.5, 1.2), 0.8, np.zeros(2))
        apply_semigroup_report(kolmogorov(2), CompactBump(np.full(4, 0.1), 0.5, 1.5), 0.7, np.zeros(4))
        apply_semigroup_report(heat(3), CompactBump(np.full(3, 0.1), 1e-6, 1.5), 0.7, np.zeros(3))
        factor = gaussian(np.full(2, 0.3), 0.5 * np.eye(2))
        apply_semigroup_report(kolmogorov(1), ModulatedBump(CompactBump(np.zeros(2), 0.5, 1.5), factor), 0.7, np.zeros(2))
        assert max(sizes) == semigroup_module.RAY_BLOCK * semigroup_module.RAY_NODES
        assert sum(sizes) > 4 * max(sizes)

    def test_cancelled_radii_grade_no_panels(self, monkeypatch):
        # at the cap time of a Poisson grid on kolmogorov(1) the mean is
        # about 1e8 out, and cancellation can leave a stretch's near radius
        # above its far one: no graded panels there, and the grid's blocks
        # agree with its times taken one by one
        spec, X, bump = kolmogorov(1), np.array([0.3, -0.2]), CompactBump(np.array([0.1, 0.2]), 1e-6, 1.4)
        f, mus, roots, quad = self.poisson_grid_args(monkeypatch, spec, bump, 0.6, X)
        alone = [semigroup_module._mc_means(f, mus[i : i + 1], roots[i : i + 1], quad) for i in range(mus.shape[0])]
        assert_allclose(semigroup_module._mc_means(f, mus, roots, quad), np.concatenate(alone), rtol=1e-14, atol=1e-16)

    @staticmethod
    def far_chain_case(n):
        """X and a bump of radii 0.31 and 1.36 in R^n, and a two-term factor."""
        X = np.random.default_rng(100).uniform(-0.5, 0.5, n)
        factor = gaussian(np.full(n, -0.2), 0.8 * np.eye(n), monomial=(1,) + (0,) * (n - 1))
        factor = factor + 0.5 * gaussian(np.full(n, 0.3), 2.5 * np.eye(n))
        return X, CompactBump(np.array([0.11, -0.18, -0.37])[:n], 0.31, 1.36), factor

    @pytest.mark.parametrize("spec", [CHAIN3, kolmogorov(1)], ids=["chain3", "kolmogorov1"])
    @pytest.mark.parametrize("t", [1e4, 1e6, 1e8, 1e10])
    def test_far_mean_value_is_a_probability(self, spec, t):
        # the mean e^{tB} X lies up to 2e19 from the bump, where a ray's
        # squared distance from the centre taken as |m|^2 - <m, v>^2 / |v|^2
        # cancels to garbage (a value of -2.4e-20 on the chain at t = 1e6)
        X, bump, _ = self.far_chain_case(spec.dim)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_semigroup_report(spec, bump, t, X)
        assert 0.0 <= got.value <= 1.0
        assert math.isfinite(got.stderr) and got.stderr >= 0.0

    def test_far_modulated_bump_takes_no_panels(self, monkeypatch):
        # at t = 1e8 on the chain no ray comes within r_out of the bump, so
        # nothing reaches the bump profile; false hits through a cancelled
        # distance cost some 4.7e10 panels of the factor's width here
        panels = []
        profile = CompactBump.profile
        monkeypatch.setattr(CompactBump, "profile", lambda b, r2, out=None: panels.append(r2.size) or profile(b, r2, out))
        X, bump, factor = self.far_chain_case(3)
        got = apply_semigroup_report(CHAIN3, ModulatedBump(bump, factor), 1e8, X)
        assert sum(panels) == 0
        assert got.value == 0.0 and got.stderr == 0.0

    def test_erfc_series_matches_math_erfc(self):
        x = np.concatenate([np.linspace(0.0, 12.0, 24001), np.random.default_rng(3).uniform(0.0, 12.0, 4000)])
        want = np.array([math.erfc(v) for v in x.tolist()])
        assert_allclose(semigroup_module._erfc(x), want, rtol=1e-14, atol=0.0)

    def test_bump_at_the_mean_of_a_degenerate_kernel_is_one(self):
        # at t = 1e-9 the kolmogorov(1) covariance has eigenvalues 2e-9 and
        # 1.7e-28; every ray stays in the plateau up to the chi_2 cap, and
        # the bump must read exactly 1
        spec, t, X = kolmogorov(1), 1e-9, np.array([0.3, -0.2])
        bump = CompactBump(gramians(spec, t).exp_tB @ X, 0.4, 1.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = apply_semigroup_report(spec, bump, t, X)
        assert got.value == 1.0 and got.stderr == 0.0

    @pytest.mark.parametrize("r_in", [0.5, 1e-3], ids=["wide", "thin"])
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_centred_bump_is_the_chi_law(self, dim, r_in):
        # centred on the mean of heat(N) every ray reads the same radial
        # law: chi_N CDF on the plateau, the profile against the chi_N
        # density on the transition, in equal panels (wide) or graded ones
        spec, t, X = heat(dim), 0.3, np.full(dim, 0.2)
        bump = CompactBump(X, r_in, 1.6)
        sigma = math.sqrt(2.0 * t)
        edge, _ = integrate.quad(
            lambda r: bump.value(X + np.eye(dim)[0] * r) * stats.chi.pdf(r / sigma, dim) / sigma,
            r_in, 1.6, epsabs=1e-14, epsrel=1e-13,
        )
        want = stats.chi.cdf(r_in / sigma, dim) + edge
        got = apply_semigroup_report(spec, bump, t, X)
        assert got.stderr <= 1e-15
        assert got.value == pytest.approx(want, rel=1e-13, abs=1e-15)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        which=st.integers(0, 6),
        log_t=st.floats(math.log(1e-9), math.log(1e3)),
        place=st.sampled_from(["inside", "on", "far"]),
        modulated=st.booleans(),
        seed=st.integers(0, 10**6),
    )
    def test_means_match_whitened_reference(self, which, log_t, place, modulated, seed):
        spec = (heat(1), heat(2), kolmogorov(1), ornstein_uhlenbeck(2), heat(3), CHAIN3, kolmogorov(2))[which]
        t = math.exp(log_t)
        if spec == ornstein_uhlenbeck(2):
            # its Gramians overflow past t of about 355
            t = min(t, 150.0)
        rng = np.random.default_rng(seed)
        n = spec.dim
        exp_tB, root = transition(spec, t)
        # s: the widest standard deviation of the law.  The reference forms
        # the points mu + A w, which keep A w only to the ulp of mu, so the
        # start point is no larger than s
        s = float(np.max(np.abs(np.linalg.eigvalsh(root))))
        X = min(s, 1.0) * rng.uniform(-1.0, 1.0, size=n)
        mean = exp_tB @ X
        u = rng.normal(size=n)
        u /= np.linalg.norm(u)
        offset, r_in = {
            "inside": (0.3, rng.uniform(8.0, 20.0)),
            "on": (0.0, rng.uniform(0.2, 3.0)),
            "far": (50.0, rng.uniform(0.2, 3.0)),
        }[place]
        center = mean + offset * s * u
        f = CompactBump(center, r_in * s, (r_in + rng.uniform(0.1, 3.0)) * s)
        if modulated:
            f = ModulatedBump(f, gaussian(center + s * u, np.eye(n) / (4.0 * s * s), monomial=(1,) + (0,) * (n - 1)))
        got = apply_semigroup_report(spec, f, t, X)
        want = whitened_reference(f, mean, root, order={1: 1, 2: 128, 3: 32, 4: 12}[n])
        assert got.method == "monte-carlo"
        assert abs(got.value - want) <= 5.0 * got.stderr + 1e-9


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
        quad = QuadratureSpec(time_nodes=nodes)
        bump = CompactBump(np.zeros(2), 0.3, 0.8)
        apply_poisson(heat(2), bump, 0.5, np.zeros(2), quad)
        assert sizes == [times]
        assert means == [(times, MC_REPLICATES)]

    def test_time_nodes_floor(self):
        with pytest.raises(ValueError):
            QuadratureSpec(time_nodes=79)

    @pytest.mark.parametrize(
        "kwargs",
        [{"time_nodes": math.nan}, {"time_nodes": 200.5}, {"time_nodes": True},
         {"rng_seed": 1.5}, {"rng_seed": -1}, {"rng_seed": 2**70}],
        ids=["nodes-nan", "nodes-fraction", "nodes-bool", "seed-fraction", "seed-negative", "seed-2^70"],
    )
    def test_quadrature_spec_rejects(self, kwargs):
        # NaN and 200.5 nodes failed inside apply_poisson with numpy's "deg
        # must be an integer"; seeds 1.5 and -1 gave values, 2^70 overflowed
        # at first use
        with pytest.raises(ValueError):
            QuadratureSpec(**kwargs)

    def test_quadrature_spec_takes_numpy_integers(self):
        quad = QuadratureSpec(time_nodes=np.int64(120), rng_seed=np.uint64(2**64 - 1))
        assert (quad.time_nodes, quad.rng_seed) == (120, 2**64 - 1)
        assert type(quad.time_nodes) is int and type(quad.rng_seed) is int
        bump = CompactBump(np.array([0.3, 0.0]), 0.3, 0.8)
        assert 0.0 < apply_poisson(heat(2), bump, 0.5, np.zeros(2), quad) < 1.0

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
        quad = DEFAULT_QUAD
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
        quad = DEFAULT_QUAD
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
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("Y", [[math.nan, 0.0], [0.0, -math.inf]], ids=["nan", "inf"])
    def test_rejects_non_finite_point(self, Y):
        # Y was read for its shape only, so a NaN point returned a norm
        with pytest.raises(DomainError):
            kernel_lr_norm(heat(2), Y, 0.5, 2.0)

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
        # only log det tK(t) is read: no bundle is built or cached, and the
        # value is the log of c_{N,r} V(t)^{-(1-1/r)} e^{-t tr B / r}, with
        # omega_N cancelled, to the last bit
        _gramian_bundle.cache_clear()
        for spec in PRESETS() + (kolmogorov(2), CHAIN3):
            n = spec.dim
            for t, r in ((0.37, 1.0), (1.9, 2.5)):
                got = kernel_lr_norm(spec, np.zeros(n), t, r)
                assert _gramian_bundle.cache_info().currsize == 0
                g = gramians(spec, t)
                log_density = -0.5 * n * math.log(4.0 * math.pi) - 0.5 * g.logdet_tK
                log_drift = (0.5 * n * math.log(r) + t * spec.trace_B) / r
                assert got == math.exp((1.0 - 1.0 / r) * log_density - log_drift)
                _gramian_bundle.cache_clear()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_float_range_ends(self):
        # the L^1 norm on ornstein_uhlenbeck(3) is e^{3t}: past log(DBL_MAX)
        # it raises DomainError instead of math.exp's OverflowError
        ou3 = ornstein_uhlenbeck(3)
        assert kernel_lr_norm(ou3, np.zeros(3), 236.5, 1.0) == pytest.approx(
            math.exp(709.5), rel=1e-12
        )
        for t in (237.0, 316.0):
            with pytest.raises(DomainError):
                kernel_lr_norm(ou3, np.zeros(3), t, 1.0)
        assert kernel_lr_norm(ou3, np.zeros(3), 316.0, 2.0) < math.inf
        # an expanding drift sends the norm below the float range: 0.0, and a
        # subnormal value on the way down
        expanding = OperatorSpec(np.eye(3), np.eye(3))
        assert 0.0 < kernel_lr_norm(expanding, np.zeros(3), 240.0, 1.0) < sys.float_info.min
        assert kernel_lr_norm(expanding, np.zeros(3), 250.0, 1.0) == 0.0

    def test_rejects_r_below_one(self):
        with pytest.raises(DomainError):
            kernel_lr_norm(heat(1), np.zeros(1), 1.0, 0.5)

    @pytest.mark.parametrize("r", [0.5, -math.inf, math.nan])
    def test_rejects_r_below_one_and_nan_saying_so(self, r):
        with pytest.raises(DomainError, match=r"1 <= r <= inf \(NaN is rejected\)"):
            kernel_lr_norm(heat(2), np.zeros(2), 1.0, r)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_r_inf_is_the_peak_density(self):
        # 1/r = 0: (4 pi)^{-N/2} det(t K(t))^{-1/2}, with no drift factor
        specs = [heat(1), heat(2), heat(3), kolmogorov(1), kolmogorov(2),
                 ornstein_uhlenbeck(1), ornstein_uhlenbeck(2), ornstein_uhlenbeck(3), CHAIN3]
        for spec in specs:
            for t in (0.05, 0.9, 7.0):
                got = kernel_lr_norm(spec, np.zeros(spec.dim), t, math.inf)
                want = lr_norm_constant(spec.dim, math.inf) / volume(spec, t)
                assert got == pytest.approx(want, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("closed", [True, False], ids=["closed-form", "grid"])
    def test_sup_to_sup(self, closed):
        # p = q = inf: lhs = sup |P_t f| <= rhs = ||f||_inf with C = 1; the
        # closed route raised ValueError, the grid route ZeroDivisionError
        spec, t = heat(2), 0.5
        f = gaussian(np.zeros(2), np.eye(2), coeff=1.5)
        if not closed:
            f = f + gaussian(np.array([0.6, -0.4]), 0.4 * np.eye(2))
        result = ultracontractivity_check(spec, f, math.inf, math.inf, t)
        assert result.method == ("closed-form" if closed else "grid")
        assert result.passed and result.constant == 1.0
        assert result.lhs <= result.rhs
        sup_f = optimised_sup(f.value, [term.center for term in f.terms])
        sup_pushed = optimised_sup(pushed_oracle(spec, f, t), [term.center for term in f.terms])
        if closed:
            # P_t f = 1.5 (1 + 4t)^{-1} e^{-|X|^2 / (1 + 4t)} on heat(2)
            assert result.rhs == 1.5
            assert result.lhs == pytest.approx(0.5, rel=1e-14)
        else:
            # uniform-grid maxima, below the sups
            assert sup_f * (1.0 - 1e-3) <= result.rhs <= sup_f * (1.0 + 1e-12)
            assert sup_pushed * (1.0 - 1e-3) <= result.lhs <= sup_pushed * (1.0 + 1e-12)

    def test_volume_past_the_float_range(self):
        # V(240) of B = Q = I in 3-D is about e^{719}; the bound is formed
        # from log V(t), where V(t) itself overflowed
        spec = OperatorSpec(np.eye(3), np.eye(3))
        result = ultracontractivity_check(spec, gaussian(np.zeros(3), np.eye(3)), 2.0, 4.0, 240.0)
        assert result.passed
        assert 0.0 <= result.lhs <= result.rhs < math.inf

    def test_bound_past_the_float_range(self):
        # V(1e-300) on heat(3) underflows to 0, where V^{-1} raised
        # ZeroDivisionError; the bound (4 pi t)^{-3/2} ||f||_1 overflows
        f = gaussian(np.zeros(3), np.eye(3))
        with pytest.raises(DomainError):
            ultracontractivity_check(heat(3), f, 1.0, math.inf, 1e-300)

    @pytest.mark.parametrize("t, coeff", [(300.0, 1.0), (236.0, 10.0)])
    def test_drift_factor_past_the_float_range(self, t, coeff):
        # e^{-t tr B / q} on ornstein_uhlenbeck(3) is e^{900} at t = 300,
        # which raised OverflowError; at t = 236 it is finite, but both sides
        # times it, about 10 e^{708} ||e^{-|y|^2}||_1, are not
        f = gaussian(np.zeros(3), np.eye(3), coeff=coeff)
        with pytest.raises(DomainError):
            ultracontractivity_check(ornstein_uhlenbeck(3), f, 1.0, 1.0, t)

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


def optimised_sup(func, starts):
    """Max of |func| over Nelder-Mead runs from each start point."""
    def neg(x):
        return -abs(float(func(x)))

    opts = {"xatol": 1e-10, "fatol": 1e-15, "maxiter": 4000}
    return max(-optimize.minimize(neg, x0, method="Nelder-Mead", options=opts).fun for x0 in starts)


def pushed_geometry(spec, f, t):
    """Norm-box half-width and finest feature scale of P_t f in X (t=None: of f).

    As a function of X the kernel p(X, Y, t) is Gaussian with center
    e^{-tB} Y and covariance 2 C(t), so each Gaussian term of f becomes a
    Gaussian in X with center e^{-tB} c and covariance
    e^{-tB} (2S)^{-1} e^{-tB'} + 2 C(t): a reference in X, independent of
    the check's own geometry in the transition mean.
    """
    g = None if t is None else gramians(spec, t)
    push = np.eye(spec.dim) if g is None else g.exp_minus_tB
    spread = 0.0 if g is None else 2.0 * g.C_t
    radius, sigma_min = 0.0, math.inf
    for term in f.terms:
        vals = np.linalg.eigvalsh(push @ (0.5 * np.linalg.inv(term.shape)) @ push.T + spread)
        center = float(np.max(np.abs(push @ term.center)))
        radius = max(radius, center + 6.0 * math.sqrt(float(vals[-1])))
        sigma_min = min(sigma_min, math.sqrt(float(vals[0])))
    return radius + 1.0, sigma_min


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
        geometry, order = pushed_geometry, semigroup_module._adaptive_order
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
        radius, _ = pushed_geometry(spec, f, t)
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

    @pytest.mark.parametrize(
        "spec, t",
        [(CHAIN3, 4.6), (OperatorSpec(np.diag([1.0, 0.0]), [[-0.3, 0.0], [2.0, 0.4]]), 4.7)],
        ids=["chain3", "non-normal"],
    )
    def test_elongated_grid_matches_the_l2_closed_form(self, spec, t):
        # ||P_t f||_2^2 of a sum of Gaussians is a double sum of Gaussian
        # integrals; Sigma = 2 t K(t) is elongated here (eigenvalue ratios
        # 540 and 313), and a grid not laid along it misses this lhs: by
        # 6e-5 in X on the chain, by 2e-5 in u on the non-normal drift
        n = spec.dim
        f = gaussian(np.full(n, 0.3), 1.1 * np.eye(n)) + gaussian(
            np.full(n, -0.2), 0.4 * np.eye(n), coeff=0.7
        )
        Sigma = 2.0 * t * gramians(spec, t).K_t
        parts = []
        for term in f.terms:
            G = np.eye(n) + 2.0 * Sigma @ term.shape
            A = term.shape @ np.linalg.inv(G)
            amp = term.coeff / math.sqrt(np.linalg.det(G))
            parts.append((amp, 0.5 * (A + A.T), term.center))
        square = sum(
            a1 * a2 * math.pi ** (n / 2) / math.sqrt(np.linalg.det(A1 + A2))
            * math.exp(-(c1 - c2) @ A1 @ np.linalg.solve(A1 + A2, A2 @ (c1 - c2)))
            for a1, A1, c1 in parts
            for a2, A2, c2 in parts
        )
        result = ultracontractivity_check(spec, f, 1.0, 2.0, t)
        assert result.method == "grid"
        want = math.exp(-0.5 * t * spec.trace_B) * math.sqrt(square)
        assert result.lhs == pytest.approx(want, rel=1e-10)

    def test_polynomial_factor_takes_the_grid(self):
        f = gaussian(np.zeros(2), np.eye(2), monomial=(2, 0))
        result = ultracontractivity_check(heat(2), f, 1.0, 2.0, 0.7)
        assert result.method == "grid"
        assert result.passed

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_grid_route_factors_once(self, monkeypatch, q):
        # P_t f is factored once for the whole norm grid, not once per
        # block, with no memo of factorisations behind it
        calls = []
        factors = testfuncs_module._convolution_factors

        def counted(f, Sigma):
            calls.append(f)
            return factors(f, Sigma)

        monkeypatch.setattr(semigroup_module, "_convolution_factors", counted)
        f = gaussian(np.zeros(3), np.eye(3)) + gaussian(np.full(3, 0.2), 0.5 * np.eye(3))
        result = ultracontractivity_check(heat(3), f, 1.0, q, 0.6)
        assert result.method == "grid"
        assert result.passed
        assert calls == [f]

    @pytest.mark.parametrize("q", [2.0, math.inf])
    def test_grid_route_takes_one_engine_pass(self, monkeypatch, q):
        # the bundle's pass serves both norms: P_t f is factored from its
        # Sigma = 2 t K(t), with no second pass for e^{tB}
        calls = []
        engine = operator_core_module._block_gramians

        def counted(spec, ts):
            calls.append(ts)
            return engine(spec, ts)

        for module in (operator_core_module, testfuncs_module, semigroup_module):
            monkeypatch.setattr(module, "_block_gramians", counted)
        _gramian_bundle.cache_clear()
        f = gaussian(np.zeros(2), np.eye(2)) + gaussian(np.full(2, 0.3), 0.5 * np.eye(2))
        result = ultracontractivity_check(kolmogorov(1), f, 1.0, q, 0.731)
        assert result.method == "grid"
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "spec", [heat(2), kolmogorov(1), ornstein_uhlenbeck(2), CHAIN3],
        ids=["heat2", "kolmogorov1", "ou2", "chain3"],
    )
    def test_grid_sup_is_below_the_optimised_sup(self, spec):
        # the grid q = inf lhs is a uniform-grid maximum: never above the
        # sup of P_t f that Nelder-Mead finds from every term centre
        n = spec.dim
        f = gaussian(np.full(n, 0.3), 1.2 * np.eye(n)) + gaussian(
            np.full(n, -0.4), 0.5 * np.eye(n), coeff=0.8
        )
        for t in (0.3, 2.0):
            result = ultracontractivity_check(spec, f, 1.0, math.inf, t)
            assert result.method == "grid"
            starts = [gramians(spec, t).exp_minus_tB @ term.center for term in f.terms]
            assert result.lhs <= optimised_sup(pushed_oracle(spec, f, t), starts) * (1.0 + 1e-12)

    def test_cold_check_builds_no_convolution_factors(self, monkeypatch):
        # the closed route reads K(t) and log det tK(t) off one bundle and
        # takes log det(I + 2 Sigma S) from one slogdet: no factorisation of
        # P_t f, no bundle inverse and no SVD (is_schwartz decides by eigvalsh)
        rng = np.random.default_rng(16)
        specs = [heat(1), heat(2), heat(3), kolmogorov(1), kolmogorov(2),
                 ornstein_uhlenbeck(2), CHAIN3]
        cases = [(spec, random_gaussian(rng, spec.dim)) for spec in specs]
        calls = Counter()

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        linalg_impl = _linalg_module()
        monkeypatch.setattr(semigroup_module, "_convolution_factors",
                            counted("factors", semigroup_module._convolution_factors))
        monkeypatch.setattr(linalg_impl, "svd", counted("svd", linalg_impl.svd))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        _gramian_bundle.cache_clear()
        results = [
            (spec, f, t, ultracontractivity_check(spec, f, p, q, t))
            for spec, f in cases
            for t in (0.05, 0.9)
            for p, q in ((1.0, 2.0), (2.0, 4.0), (1.0, math.inf))
        ]
        assert calls == Counter()
        assert all(r.method == "closed-form" for *_, r in results)
        # the peak |c| e^{-half} carries the half log-determinant of the
        # convolution factors to the last bit
        monkeypatch.undo()
        for spec, f, t, r in results[2::3]:
            term = f.terms[0]
            g = gramians(spec, t)
            (_, _, _, half, _, _), = testfuncs_module._convolution_factors(f, 2.0 * t * g.K_t)
            assert r.lhs == abs(term.coeff) * math.exp(-float(half[0]))

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
