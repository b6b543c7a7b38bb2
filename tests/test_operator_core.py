"""Gramian, exponential and hypoellipticity checks for the operator layer."""

import dataclasses
import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose
from scipy import integrate
from scipy.linalg import expm as scipy_expm

from hypok import testfuncs
from hypok.kernel import T_MIN
from hypok.operator_core import (
    GRAMIAN_CACHE_SIZE,
    DomainError,
    _block_gramians,
    _block_powers,
    _exp_grid,
    _gramian_bundle,
    _polynomial_gramians,
    GramianBundle,
    KernelConstants,
    OperatorSpec,
    gramians,
    heat,
    hypoellipticity_check,
    kolmogorov,
    logdet_derivative_identity,
    matrix_exponential,
    ornstein_uhlenbeck,
    sym_sqrt,
)
from hypok import operator_core
from hypok.kernel import _frame, heat_kernel
from hypok.semigroup import apply_poisson, kernel_lr_norm, ultracontractivity_check

# the step-3 chain: diffusion in the first coordinate, transported down a chain
CHAIN3 = OperatorSpec(np.diag([1.0, 0.0, 0.0]), np.eye(3, k=-1))
PRESET_SPECS = [heat(1), heat(2), heat(3), kolmogorov(1), kolmogorov(2),
                ornstein_uhlenbeck(1), ornstein_uhlenbeck(2), ornstein_uhlenbeck(3)]


def quadrature_gramians(spec, t, order=200):
    """Independent oracle: brute-force Gauss-Legendre integration in s.

    Computes t*K(t) = int_0^t e^{sB} Q e^{sB'} ds and
    C(t) = int_0^t e^{-sB} Q e^{-sB'} ds without the block-exponential trick.
    """
    x, w = leggauss(order)
    s = 0.5 * t * (x + 1.0)
    w = 0.5 * t * w
    tK = np.zeros_like(spec.Q)
    C = np.zeros_like(spec.Q)
    for si, wi in zip(s, w):
        E = matrix_exponential(spec.B, si)
        Em = matrix_exponential(spec.B, -si)
        tK += wi * E @ spec.Q @ E.T
        C += wi * Em @ spec.Q @ Em.T
    return tK, C


class TestMatrixExponential:
    def test_zero_matrix(self):
        assert_allclose(matrix_exponential(np.zeros((3, 3)), 5.0), np.eye(3), atol=1e-15)

    def test_nilpotent_series_terminates(self):
        B = np.array([[0.0, 0.0], [1.0, 0.0]])
        assert_allclose(matrix_exponential(B, 1.0), [[1, 0], [1, 1]], atol=1e-15)

    def test_scalar_case(self):
        t = 0.37
        assert_allclose(matrix_exponential(-np.eye(2), t), np.exp(-t) * np.eye(2), rtol=1e-14)

    def test_rejects_nonfinite(self):
        M = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(DomainError):
            matrix_exponential(M, 1.0)

    def test_zero_time_is_identity(self):
        M = np.random.default_rng(3).normal(size=(3, 3))
        assert np.array_equal(matrix_exponential(M, 0.0), np.eye(3))

    def test_rejects_nonfinite_time(self):
        with pytest.raises(DomainError):
            matrix_exponential(np.eye(2), np.inf)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        M = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3, 1)
        ts = np.concatenate(([0.0], rng.uniform(-5.0, 5.0, size=7)))
        E = matrix_exponential(M, ts)
        assert E.shape == (8, n, n)
        for t, Et in zip(ts, E):
            ref = scipy_expm(t * M)
            tol = 2e-13 * max(1.0, abs(t) * np.linalg.norm(M, 1)) * np.linalg.norm(ref, 2)
            assert np.linalg.norm(Et - ref, 2) <= tol

    def test_broadcasts_matrices_against_times(self):
        rng = np.random.default_rng(5)
        Ms = rng.normal(size=(3, 2, 2))
        ts = np.array([0.5, -1.0, 2.0])
        E = matrix_exponential(Ms, ts)
        for Mi, ti, Ei in zip(Ms, ts, E):
            assert_allclose(Ei, matrix_exponential(Mi, ti), rtol=1e-14, atol=1e-15)
        assert matrix_exponential(Ms[0], ts.reshape(3, 1)).shape == (3, 1, 2, 2)
        assert matrix_exponential(Ms, 1.0).shape == (3, 2, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_one_parameter_group(self, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(3, 3))
        B /= max(np.linalg.norm(B, 2), 1.0)  # keep exponentials well-conditioned
        s, t = rng.uniform(0.1, 2.0, size=2)
        lhs = matrix_exponential(B, s + t)
        rhs = matrix_exponential(B, s) @ matrix_exponential(B, t)
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * np.linalg.norm(lhs, 2)


class TestSymSqrt:
    def test_stack_matches_one_by_one(self):
        rng = np.random.default_rng(12)
        L = rng.normal(size=(5, 3, 3))
        M = L @ np.swapaxes(L, -1, -2)
        roots = sym_sqrt(M)
        assert roots.shape == (5, 3, 3)
        for Mi, Ri in zip(M, roots):
            assert_allclose(Ri, sym_sqrt(Mi), rtol=1e-15, atol=0.0)
            assert_allclose(Ri @ Ri, Mi, rtol=1e-12, atol=1e-14)


class TestGramians:
    def test_constant_integrand(self):
        g = gramians(heat(3), 2.0)
        assert_allclose(g.K_t, np.eye(3), atol=1e-14)
        assert_allclose(g.C_t, 2.0 * np.eye(3), atol=1e-13)

    @pytest.mark.parametrize("t", [0.1, 0.7, 1.0, 10.0])
    def test_kolmogorov_closed_form(self, t):
        # tK(t) = [[t, t^2/2], [t^2/2, t^3/3]], det = t^4/12
        g = gramians(kolmogorov(1), t)
        expected = np.array([[t, t**2 / 2], [t**2 / 2, t**3 / 3]])
        assert_allclose(t * g.K_t, expected, rtol=1e-12)
        assert_allclose(math.exp(g.logdet_tK), t**4 / 12, rtol=1e-11)

    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_ou_scalar_closed_form(self, t):
        g = gramians(ornstein_uhlenbeck(2), t)
        # large t: C grows like e^{2t}, expm conditioning eats ~e^{2t} eps
        assert_allclose(g.K_t, (1 - np.exp(-2 * t)) / (2 * t) * np.eye(2), rtol=1e-10)
        assert_allclose(g.C_t, (np.exp(2 * t) - 1) / 2 * np.eye(2), rtol=1e-10)

    @pytest.mark.parametrize("spec", [heat(2), kolmogorov(1), ornstein_uhlenbeck(2)])
    @pytest.mark.parametrize("t", [0.3, 1.7])
    def test_against_quadrature_oracle(self, spec, t):
        g = gramians(spec, t)
        tK_q, C_q = quadrature_gramians(spec, t)
        assert_allclose(t * g.K_t, tK_q, rtol=1e-10, atol=1e-12)
        assert_allclose(g.C_t, C_q, rtol=1e-10, atol=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            gramians(heat(1), 0.0)
        with pytest.raises(DomainError):
            gramians(heat(1), -1.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        # an infinite time once returned a bundle with a NaN logdet_tK
        with pytest.raises(DomainError):
            gramians(heat(2), t)

    def test_logdet_tK_past_the_float_range(self):
        # logdet_tK = 798.6 at t = 200, where det(t K(t)) itself overflows
        _gramian_bundle.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            g = gramians(OperatorSpec(np.eye(2), np.eye(2)), 200.0)
        assert g.logdet_tK == pytest.approx(2 * (400.0 - math.log(2.0)), rel=1e-12)

    def test_singular_gramian_rejected(self):
        # Q rank-deficient with B = 0 never spreads mass: K(t) stays singular.
        spec = OperatorSpec(np.diag([1.0, 0.0]), np.zeros((2, 2)))
        with pytest.raises(DomainError):
            gramians(spec, 1.0)

    @pytest.mark.parametrize("spec", [heat(2), kolmogorov(1), ornstein_uhlenbeck(3)])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_intertwining_and_determinant_identities(self, spec, t):
        g = gramians(spec, t)
        lhs = t * g.K_t
        rhs = g.exp_tB @ g.C_t @ g.exp_tB.T
        assert np.linalg.norm(lhs - rhs, 2) <= 1e-12 * np.linalg.norm(lhs, 2)
        det_tK = math.exp(g.logdet_tK)
        assert_allclose(
            np.log(det_tK), 2 * t * spec.trace_B + g.logdet_C, rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("spec", PRESET_SPECS + [CHAIN3], ids=lambda s: f"{s.name}{s.dim}")
    def test_kernel_scalars(self, spec):
        const = KernelConstants.for_dim(spec.dim)
        for t in (0.05, 0.9, 7.0):
            # the kernel's memo against its formulas from the bundle's Gramians
            g, frame = gramians(spec, t), _frame(spec, t)
            trace = np.trace(spec.Q @ np.linalg.inv(g.C_t))
            assert frame.trace_Q_inv_C == pytest.approx(trace, rel=1e-12)
            volume = const.omega_N * math.sqrt(math.exp(g.logdet_tK))
            assert frame.log_norm_m == pytest.approx(math.log(const.c_N / volume), abs=1e-12)
            log_norm_C = math.log(
                (4 * math.pi) ** (-spec.dim / 2) * math.exp(-t * spec.trace_B)
                / math.sqrt(np.linalg.det(g.C_t))
            )
            assert frame.log_norm_C == pytest.approx(log_norm_C, abs=1e-10)

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_exp_minus_tB_closed_forms(self, t):
        g = gramians(kolmogorov(1), t)
        assert_allclose(g.exp_minus_tB, [[1.0, 0.0], [-t, 1.0]], rtol=1e-14, atol=1e-14)
        g = gramians(ornstein_uhlenbeck(2), t)
        assert_allclose(g.exp_minus_tB, math.exp(t) * np.eye(2), rtol=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([0.1, 1.0, 5.0]))
    def test_exp_minus_tB_inverts_exp_tB(self, seed, t):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(3, 3))
        B /= max(np.linalg.norm(B, 2), 1.0)
        g = gramians(OperatorSpec(np.eye(3), B), t)
        # each factor carries expm's relative error of some ulps; the
        # product amplifies it by cond(e^{tB}) (worst seen: 3e-14 cond)
        tol = 1e-13 * np.linalg.cond(g.exp_tB, 2)
        assert np.linalg.norm(g.exp_minus_tB @ g.exp_tB - np.eye(3), 2) <= tol

    def test_profile_matches_pointwise(self, monkeypatch):
        grids = [(spec, np.array([0.05, 0.3, 2.0, 7.0])) for spec in PRESET_SPECS + [CHAIN3]]
        # and the whole time grid of one apply_poisson call, cap node included
        engine = testfuncs._block_gramians
        monkeypatch.setattr(
            testfuncs, "_block_gramians", lambda sp, ts: grids.append((sp, ts)) or engine(sp, ts)
        )
        for spec in (kolmogorov(1), ornstein_uhlenbeck(2)):
            f = testfuncs.gaussian(np.zeros(spec.dim), np.eye(spec.dim))
            apply_poisson(spec, f, 0.7, np.full(spec.dim, 0.3))
        assert [ts[0] for _, ts in grids[-2:]] == [1e10, 300.0]  # the time caps
        for spec, ts in grids:
            exp_tB, exp_minus_tB, C, tK, logdet_tK, logdet_C = _block_gramians(spec, ts)
            for i, t in enumerate(ts):
                g = gramians(spec, t)
                assert_allclose(exp_tB[i], g.exp_tB, rtol=1e-12)
                assert_allclose(exp_minus_tB[i], g.exp_minus_tB, rtol=1e-12)
                assert_allclose(C[i], g.C_t, rtol=1e-12)
                assert_allclose(tK[i], t * g.K_t, rtol=1e-12)
                assert_allclose(logdet_tK[i], g.logdet_tK, rtol=1e-10, atol=1e-12)
                assert_allclose(logdet_C[i], g.logdet_C, rtol=1e-10, atol=1e-12)

    def test_singular_c_is_a_domain_error(self):
        # e^{tB} has eigenvalues e^{1.12 t} and e^{-2.35 t}: C(t) loses
        # positive definiteness in floating point near t = 9
        spec = OperatorSpec(np.eye(2), [[0.745, -1.362], [-0.855, -1.976]])
        for t in (8.7, 10.0, 12.0):
            for get in (lambda: gramians(spec, t).C_t, lambda: _block_gramians(spec, np.array([t]))[2][0]):
                try:
                    C = get()
                except DomainError:
                    continue
                assert np.linalg.slogdet(C)[0] > 0


def _poisson_horizon(spec):
    """60 log-spaced times from T_MIN to apply_poisson's time cap (at most
    1e3), and the cap 1e10 itself for nilpotent drifts."""
    rate = float(np.max(np.abs(np.linalg.eigvals(spec.B).real)))
    if rate > 1e-12:
        return np.geomspace(T_MIN, min(1e3, 300.0 / rate), 60)
    return np.append(np.geomspace(T_MIN, 1e3, 60), 1e10)


def _assert_block_exponential_matches_scipy(spec):
    n = spec.dim
    H = np.block([[spec.B, spec.Q], [np.zeros((n, n)), -spec.B.T]])
    ts = _poisson_horizon(spec)
    for t, E in zip(ts, _exp_grid(_block_powers(spec), ts)):
        ref = scipy_expm(t * H)
        tol = 2e-13 * max(1.0, t * np.linalg.norm(H, 1)) * np.linalg.norm(ref, 2)
        assert np.linalg.norm(E - ref, 2) <= tol, t


class TestExponentialEngine:
    @pytest.mark.parametrize("spec", PRESET_SPECS + [CHAIN3])
    def test_block_exponential_matches_scipy(self, spec):
        _assert_block_exponential_matches_scipy(spec)

    def test_nilpotent_drift_needs_no_squaring_at_the_cap(self):
        # the 2009 scaling rule reads the powers of H, which vanish for a
        # nilpotent drift; a rule on ||tH||_1 would square 31 times
        P = _block_powers(kolmogorov(1))
        assert P.log2_eta == -math.inf and P.log2_n27 == -math.inf
        tK = gramians(kolmogorov(1), 1e10).K_t * 1e10
        t = 1e10
        assert_allclose(tK, [[t, t**2 / 2], [t**2 / 2, t**3 / 3]], rtol=1e-12)


@st.composite
def hypoelliptic_pairs(draw):
    """Random (Q, B) with Q = I (always hypoelliptic) and bounded drift."""
    return _seeded_pair(draw(st.integers(1, 4)), draw(st.integers(0, 10**6)))


def _seeded_pair(n, seed):
    """The pair ``hypoelliptic_pairs`` draws for dimension n and seed."""
    B = np.random.default_rng(seed).normal(size=(n, n))
    B /= max(np.linalg.norm(B, 2), 1.0)
    return OperatorSpec(np.eye(n), B)


def _drawn_pair(seed):
    """The pair a sweep over seeds draws when n and B share one generator."""
    rng = np.random.default_rng(seed)
    n = rng.integers(1, 5)
    B = rng.normal(size=(n, n))
    B /= max(np.linalg.norm(B, 2), 1.0)
    return OperatorSpec(np.eye(n), B)


def chain(n):
    """The step-n chain: diffusion in the first coordinate, transported down."""
    return OperatorSpec(np.diag([1.0] + [0.0] * (n - 1)), np.eye(n, k=-1), name="chain")


def nilpotent_pair(seed):
    """Strictly lower-triangular B, N = 1..5; an odd seed takes a full-rank Q,
    an even one the chain-type Q = c e1 e1'."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    B = np.tril(rng.normal(size=(n, n)), -1)
    if seed % 2:
        A = rng.normal(size=(n, n))
        Q = A @ A.T + 0.1 * np.eye(n)
    else:
        Q = np.zeros((n, n))
        Q[0, 0] = rng.uniform(0.5, 2.0)
    return OperatorSpec(Q, B)


def _fractions(M):
    return [[Fraction(float(x)) for x in row] for row in np.asarray(M)]


def _fmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in zip(*B)] for row in A]


def _fsum(terms, n):
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, M in terms:
        for i in range(n):
            for j in range(n):
                out[i][j] += c * M[i][j]
    return out


class ExactNilpotentGramians:
    """e^{tB}, e^{-tB}, C(t), t K(t) and e^{t|B|} of a nilpotent pair in exact
    rational arithmetic: the finite sums over i, j < N of
    B^i Q B'^j t^{i+j+1} / (i! j! (i+j+1)), with the sign (-1)^{i+j} for C."""

    def __init__(self, spec):
        n = self.n = spec.dim
        B, Q = _fractions(spec.B), _fractions(spec.Q)
        absB = [[abs(x) for x in row] for row in B]
        eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        self.powers, self.abs_powers = [eye], [eye]
        for _ in range(n - 1):
            self.powers.append(_fmul(self.powers[-1], B))
            self.abs_powers.append(_fmul(self.abs_powers[-1], absB))
        # A_m = sum_{i+j=m} B^i Q B'^j / (i! j!)
        self.A = [[[Fraction(0)] * n for _ in range(n)] for _ in range(2 * n - 1)]
        for i in range(n):
            left = _fmul(self.powers[i], Q)
            for j in range(n):
                M = _fmul(left, [list(col) for col in zip(*self.powers[j])])
                w = Fraction(1, math.factorial(i) * math.factorial(j))
                for a in range(n):
                    for b in range(n):
                        self.A[i + j][a][b] += w * M[a][b]

    def at(self, t):
        n, t = self.n, Fraction(float(t))
        f = [math.factorial(k) for k in range(n)]
        return (_fsum([(t**k / f[k], P) for k, P in enumerate(self.powers)], n),
                _fsum([((-t) ** k / f[k], P) for k, P in enumerate(self.powers)], n),
                _fsum([((-1) ** m * t ** (m + 1) / (m + 1), A) for m, A in enumerate(self.A)], n),
                _fsum([(t ** (m + 1) / (m + 1), A) for m, A in enumerate(self.A)], n),
                _fsum([(t**k / f[k], P) for k, P in enumerate(self.abs_powers)], n))


def _scaled_errors(got, exact, scale):
    """max |got - exact| / scale over the entries with a positive scale."""
    n = len(exact)
    return max([float(abs(Fraction(float(got[i, j])) - exact[i][j]) / scale(i, j))
                for i in range(n) for j in range(n) if scale(i, j) > 0] or [0.0])


def _gramian_scale(G):
    return lambda i, j: (G[i][i] * G[j][j]) ** 0.5


def _scaled_condition(G):
    """Condition number of the exact Gramian G after unit-diagonal scaling."""
    G = np.array([[float(x) for x in row] for row in G])
    d = np.sqrt(np.diag(G))
    w = np.linalg.eigvalsh(G / np.outer(d, d))
    return w[-1] / max(w[0], 1e-300)


def _assert_matches_exact(spec, ts):
    """Each engine pass meets 1e-14 of the exact sums (entries of e^{+-tB}
    against e^{t|B|}, Gramian entries against sqrt(G_ii G_jj)), or raises
    DomainError where an exact Gramian is singular to working precision.
    Returns the number of rejected times."""
    exact = ExactNilpotentGramians(spec)
    rejected = 0
    for t in ts:
        ep, em, C, tK, ea = exact.at(t)
        try:
            got = [a[0] for a in _block_gramians(spec, np.array([t]))[:4]]
        except DomainError:
            rejected += 1
            assert max(_scaled_condition(C), _scaled_condition(tK)) > 1e14, t
            continue
        errors = [_scaled_errors(got[0], ep, lambda i, j: float(ea[i][j])),
                  _scaled_errors(got[1], em, lambda i, j: float(ea[i][j])),
                  _scaled_errors(got[2], C, _gramian_scale(C)),
                  _scaled_errors(got[3], tK, _gramian_scale(tK))]
        assert max(errors) <= 1e-14, (t, errors)
    return rejected


NILPOTENT_SEEDS = list(range(15000, 15024))


class TestPolynomialRoute:
    @pytest.mark.parametrize("spec", [heat(1), heat(3), kolmogorov(1), kolmogorov(2)]
                             + [chain(n) for n in (3, 4, 5, 6)], ids=lambda s: f"{s.name}{s.dim}")
    def test_presets_and_chains_match_exact_sums(self, spec):
        ts = np.append(np.geomspace(T_MIN, 1e3, 13), 1e10)
        assert _assert_matches_exact(spec, ts) == 0

    @pytest.mark.parametrize("seed", NILPOTENT_SEEDS)
    def test_random_pairs_match_exact_sums(self, seed):
        spec = nilpotent_pair(seed)
        rejected = _assert_matches_exact(spec, np.geomspace(T_MIN, 1e3, 13))
        if seed % 2:  # a full-rank Q keeps both Gramians well scaled
            assert rejected == 0

    @pytest.mark.parametrize("spec", [heat(1), heat(2), kolmogorov(1), kolmogorov(2), CHAIN3]
                             + [nilpotent_pair(seed) for seed in NILPOTENT_SEEDS[:8]])
    def test_nilpotent_drifts_take_the_polynomial_route(self, spec):
        coef = _polynomial_gramians(spec)
        assert coef is not None and not coef.flags.writeable

    def test_other_drifts_take_the_pade_route(self):
        rng = np.random.default_rng(15)
        S = rng.normal(size=(3, 3))
        jordan = S @ np.eye(3, k=-1) @ np.linalg.inv(S)
        # nilpotent in exact arithmetic, but its powers do not vanish in floats
        assert np.linalg.matrix_power(jordan, 3).any()
        for spec in (ornstein_uhlenbeck(2), OperatorSpec(np.eye(3), rng.normal(size=(3, 3))),
                     OperatorSpec(np.eye(3), jordan)):
            assert _polynomial_gramians(spec) is None

    def test_nilpotent_specs_never_call_the_pade_engine(self, monkeypatch):
        calls = []
        engine = operator_core._exp_grid
        monkeypatch.setattr(operator_core, "_exp_grid",
                            lambda P, ts: calls.append(len(ts)) or engine(P, ts))
        for spec in (heat(2), kolmogorov(1), CHAIN3):
            X = np.full(spec.dim, 0.3)
            f = testfuncs.gaussian(np.zeros(spec.dim), np.eye(spec.dim))
            gramians(spec, 0.123456789)
            heat_kernel(spec, X, -X, 0.987654321)
            kernel_lr_norm(spec, X, 0.55, 2.0)
            apply_poisson(spec, f, 0.7, X)
            apply_poisson(spec, testfuncs.CompactBump(np.zeros(spec.dim), 0.5, 1.5), 0.7, X)
            testfuncs.exact_semigroup_profile(spec, f, [0.1, 1.0, 10.0], X)
            ultracontractivity_check(spec, f, 1.0, 2.0, 0.77)
            logdet_derivative_identity(spec, 0.66)
        assert calls == []
        # the counter does see the Pade route
        gramians(ornstein_uhlenbeck(2), 0.123456789)
        assert calls == [1]

    @pytest.mark.parametrize("n", [5, 6])
    def test_poisson_on_long_chains(self, n):
        # the Pade route raised DomainError at the 1e10 time cap of these chains
        spec = chain(n)
        c, X, z = np.linspace(-0.5, 0.5, n), np.linspace(0.3, -0.2, n), 0.8
        S = np.diag(np.linspace(0.5, 1.5, n))
        f = testfuncs.gaussian(c, S)
        got = apply_poisson(spec, f, z, X)

        i = np.arange(n)
        fact = np.array([math.factorial(k) for k in range(n)], dtype=float)

        def profile(t):
            # P_t f(X) for f = exp(-<S (Y - c), Y - c>) and Y ~ N(e^{tB} X, 2 tK(t)),
            # with the chain's closed forms e^{tB}_ij = t^{i-j} / (i-j)! and
            # tK_ij = t^{i+j+1} / (i! j! (i+j+1))
            lag = np.subtract.outer(i, i)
            E = np.where(lag >= 0, t ** np.maximum(lag, 0) / fact[np.maximum(lag, 0)], 0.0)
            tK = t ** (i[:, None] + i + 1) / (np.outer(fact, fact) * (i[:, None] + i + 1))
            d = E @ X - c
            M = np.eye(n) + 4.0 * tK @ S
            return np.linalg.det(M) ** -0.5 * math.exp(-d @ S @ np.linalg.solve(M, d))

        def integrand(u):
            # the subordination integral over t = e^u
            t = math.exp(u)
            return z * t**-0.5 * math.exp(-(z**2) / (4 * t)) * profile(t) / math.sqrt(4 * math.pi)

        want, err = integrate.quad(integrand, math.log(1e-6), math.log(1e6), limit=400,
                                   epsabs=0.0, epsrel=1e-12)
        assert err < 1e-12 * want
        assert got == pytest.approx(want, rel=1e-9)


class TestGramianProperties:
    @settings(max_examples=20, deadline=None)
    @given(hypoelliptic_pairs())
    def test_block_exponential_matches_scipy(self, spec):
        _assert_block_exponential_matches_scipy(spec)

    @settings(max_examples=40, deadline=None)
    @given(hypoelliptic_pairs(), st.sampled_from([0.1, 1.0, 10.0]))
    @example(_seeded_pair(2, 399), 10.0)
    @example(_seeded_pair(2, 5752), 10.0)
    def test_intertwining_property(self, spec, t):
        g = gramians(spec, t)
        lhs = t * g.K_t
        rhs = g.exp_tB @ g.C_t @ g.exp_tB.T
        # backward error of the solve step scales with cond(e^{tB})
        tol = 1e-12 + 2e-14 * np.linalg.cond(g.exp_tB, 2)
        assert np.linalg.norm(lhs - rhs, 2) <= tol * max(np.linalg.norm(lhs, 2), 1e-30)

    @settings(max_examples=40, deadline=None)
    @given(hypoelliptic_pairs(), st.sampled_from([0.1, 1.0, 10.0]))
    @example(OperatorSpec(np.eye(2), [[-0.01737958, -0.23717539], [0.41369752, -0.88610763]]), 10.0)
    @example(_drawn_pair(1379), 10.0)
    @example(_seeded_pair(2, 5752), 10.0)
    def test_determinant_property(self, spec, t):
        g = gramians(spec, t)
        tol = (1e-11 + 2e-14 * np.linalg.cond(g.exp_tB, 2)) * (1 + abs(g.logdet_tK))
        assert abs(g.logdet_tK - 2 * t * spec.trace_B - g.logdet_C) <= tol


def _chain(step):
    """Diffusion in the first coordinate, transported down a chain of length step."""
    return OperatorSpec(np.diag([1.0] + [0.0] * (step - 1)), np.eye(step, k=-1))


class TestHypoellipticity:
    def test_kolmogorov_true(self):
        rep = hypoellipticity_check(kolmogorov(1))
        assert rep.hypoelliptic and rep.agree
        assert rep.kalman_rank == 2

    def test_degenerate_without_drift_false(self):
        rep = hypoellipticity_check(OperatorSpec(np.diag([1.0, 0.0]), np.zeros((2, 2))))
        assert not rep.hypoelliptic and rep.agree

    def test_full_rank_q_true_for_any_drift(self):
        rng = np.random.default_rng(7)
        rep = hypoellipticity_check(OperatorSpec(np.eye(3), rng.normal(size=(3, 3))))
        assert rep.hypoelliptic and rep.agree

    def test_suite_of_specs_both_tests_agree(self):
        rng = np.random.default_rng(2024)
        specs = [
            heat(1),
            heat(3),
            kolmogorov(1),
            kolmogorov(2),
            ornstein_uhlenbeck(2),
            OperatorSpec(np.diag([1.0, 0.0]), np.zeros((2, 2))),      # degenerate
            OperatorSpec(np.diag([0.0, 1.0]), np.zeros((2, 2))),      # degenerate
            OperatorSpec(np.zeros((2, 2)), np.eye(2)),                # no diffusion at all
            OperatorSpec(np.diag([1.0, 0.0, 0.0]),                    # needs two brackets
                         np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])),
            OperatorSpec(np.diag([1.0, 0.0, 0.0]),                    # chain broken: rank stalls
                         np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])),
        ]
        assert len(specs) >= 10
        for spec in specs:
            rep = hypoellipticity_check(spec)
            assert rep.agree, f"tests disagree on {spec.name}: {rep}"


    @pytest.mark.parametrize("step", [2, 3, 4, 5, 6])
    def test_chains_are_hypoelliptic(self, step):
        # lambda_min(K(1)) / lambda_max is 6.0e-11 at step 6, below the old
        # fixed cut 1e-10
        rep = hypoellipticity_check(_chain(step))
        assert rep.hypoelliptic and rep.agree and rep.kalman_rank == step

    def test_chain_within_roundoff_is_flagged(self):
        # at step 7 lambda_min(K(1)) is 1.05e-13 lambda_max: within roundoff
        rep = hypoellipticity_check(_chain(7))
        assert rep.kalman_test and not rep.spectral_test and not rep.agree

    def test_degenerate_suite_false(self):
        specs = [
            OperatorSpec(np.diag([1.0, 0.0]), np.zeros((2, 2))),
            OperatorSpec(np.diag([0.0, 1.0]), np.zeros((2, 2))),
            OperatorSpec(np.zeros((2, 2)), np.eye(2)),
            OperatorSpec(np.diag([1.0, 0.0, 0.0]),
                         np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])),
        ]
        for spec in specs:
            rep = hypoellipticity_check(spec)
            assert not rep.hypoelliptic and rep.agree, rep

    def test_rotated_reducible_pairs(self):
        # B leaves the span of the first m coordinates invariant and Q lives
        # there, both conjugated by a random rotation: a square root of the
        # rotated Q made 1382 of 2000 such pairs report kalman_rank = N
        rng = np.random.default_rng(2020)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            B = rng.normal(size=(n, n))
            B[m:, :m] = 0.0
            R = rng.normal(size=(m, m))
            Q = np.zeros((n, n))
            Q[:m, :m] = R @ R.T
            U = np.linalg.qr(rng.normal(size=(n, n)))[0]
            B = U @ B @ U.T
            B *= rng.uniform(0.1, 3.0) / max(np.linalg.norm(B, 2), 1.0)
            Q = U @ Q @ U.T
            rep = hypoellipticity_check(OperatorSpec(0.5 * (Q + Q.T), B))
            assert rep.kalman_rank < n and not rep.hypoelliptic and rep.agree, rep

    @pytest.mark.parametrize("spec", [kolmogorov(1), OperatorSpec(np.diag([1.0, 0.0]), np.zeros((2, 2)))],
                             ids=["hypoelliptic", "degenerate"])
    def test_verdicts_are_python_bools(self, spec):
        # a NumPy bool in hypoelliptic made bool(report) raise TypeError
        rep = hypoellipticity_check(spec)
        assert bool(rep) is rep.hypoelliptic
        for name in ("hypoelliptic", "spectral_test", "kalman_test", "agree"):
            assert type(getattr(rep, name)) is bool, name


class TestLogdetDerivativeIdentity:
    def test_heat_reads_n_equals_n(self):
        assert logdet_derivative_identity(heat(2), 1.0) <= 1e-8

    def test_kolmogorov(self):
        assert logdet_derivative_identity(kolmogorov(1), 0.7) <= 1e-7

    def test_ou(self):
        assert logdet_derivative_identity(ornstein_uhlenbeck(2), 2.0) <= 1e-8

    @pytest.mark.parametrize("spec", [heat(1), kolmogorov(1), ornstein_uhlenbeck(2)])
    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_grid_residuals(self, spec, t):
        assert logdet_derivative_identity(spec, t) <= 1e-7

    @pytest.mark.parametrize(
        "spec",
        [heat(2), kolmogorov(1), kolmogorov(2), ornstein_uhlenbeck(2), CHAIN3],
        ids=["heat2", "kolmogorov1", "kolmogorov2", "ou2", "chain3"],
    )
    @pytest.mark.parametrize("t", [1e-4, 1e-3, 0.1, 1.0, 10.0, 30.0, 100.0])
    def test_exact_time_derivative(self, spec, t):
        # d/dt log det C = tr(C^{-1} C') with the integrand C' = e^{-tB} Q e^{-tB'};
        # a central difference in t left residuals up to 1.3e-10 on this grid
        assert logdet_derivative_identity(spec, t) <= 1e-13

    def test_domain_error(self):
        with pytest.raises(DomainError):
            logdet_derivative_identity(heat(1), -0.5)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_rejects_non_finite_time(self, t):
        with pytest.raises(DomainError):
            logdet_derivative_identity(heat(2), t)


class TestSpecValueSemantics:
    def test_equal_specs_hash_alike(self):
        assert kolmogorov(1) == kolmogorov(1)
        assert hash(kolmogorov(1)) == hash(kolmogorov(1))

    def test_name_is_not_content(self):
        spec = kolmogorov(1)
        assert OperatorSpec(spec.Q, spec.B, name="other") == spec

    def test_negative_zero_is_zero(self):
        assert OperatorSpec(np.eye(2), -np.zeros((2, 2))) == heat(2)
        assert hash(OperatorSpec(np.eye(2), -np.zeros((2, 2)))) == hash(heat(2))

    def test_different_content_differs(self):
        assert kolmogorov(1) != heat(2)
        assert heat(2) != ornstein_uhlenbeck(2)
        assert heat(1) != heat(2)
        assert OperatorSpec(2.0 * np.eye(2), np.zeros((2, 2))) != heat(2)
        assert heat(2) != "heat"

    def test_copies_caller_arrays(self):
        Q = np.eye(2)
        B = np.zeros((2, 2))
        view = B[:, :]
        spec = OperatorSpec(Q, B)
        assert B.flags.writeable and Q.flags.writeable
        view[0, 0] = 3.0
        Q[1, 1] = 5.0
        assert spec.B[0, 0] == 0.0 and spec.trace_B == 0.0
        assert spec.Q[1, 1] == 1.0
        assert spec == heat(2)
        with pytest.raises(ValueError):
            spec.B[0, 0] = 1.0


class TestGramianMemo:
    def setup_method(self):
        _gramian_bundle.cache_clear()
        _frame.cache_clear()

    def test_equal_specs_share_one_entry(self):
        a = gramians(kolmogorov(1), 0.7)
        b = gramians(kolmogorov(1), 0.7)
        assert a is b
        info = _gramian_bundle.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_distinct_keys_miss(self):
        spec = kolmogorov(1)
        t = 0.7
        keys = [
            (spec, t),
            (spec, math.nextafter(t, 1.0)),  # one ulp apart: a separate key
            (OperatorSpec(2.0 * spec.Q, spec.B), t),
            (OperatorSpec(spec.Q, 2.0 * spec.B), t),
        ]
        bundles = [gramians(s, u) for s, u in keys]
        info = _gramian_bundle.cache_info()
        assert (info.hits, info.misses) == (0, len(keys))
        assert len({id(g) for g in bundles}) == len(keys)
        assert bundles[1].t == math.nextafter(t, 1.0)

    def test_arrays_are_read_only(self):
        g = gramians(ornstein_uhlenbeck(2), 1.3)
        frame = _frame(ornstein_uhlenbeck(2), 1.3)
        for name in ("exp_tB", "exp_minus_tB", "K_t", "C_t", "inv_K_t", "inv_C_t"):
            with pytest.raises(ValueError):
                getattr(frame if name.startswith("inv") else g, name)[0, 0] = 1.0

    def test_rebuilt_bundle_is_bit_identical(self):
        spec = OperatorSpec(np.diag([1.0, 0.0, 0.0]), np.eye(3, k=-1))
        cached = gramians(spec, 0.9), _frame(spec, 0.9)
        _gramian_bundle.cache_clear()
        _frame.cache_clear()
        fresh = gramians(spec, 0.9), _frame(spec, 0.9)
        assert fresh[0] is not cached[0] and fresh[1] is not cached[1]

        def read(pair, name):
            # the bundle's engine fields, else the kernel's derived ones
            return getattr(pair[0], name) if hasattr(pair[0], name) else getattr(pair[1], name)

        for name in ("exp_tB", "exp_minus_tB", "K_t", "C_t", "inv_K_t", "inv_C_t"):
            assert np.array_equal(read(fresh, name), read(cached, name))
        for name in ("t", "logdet_tK", "logdet_C", "trace_Q_inv_C", "log_norm_m", "log_norm_C"):
            assert read(fresh, name) == read(cached, name)

    def test_size_is_bounded(self):
        spec = heat(1)
        for i in range(GRAMIAN_CACHE_SIZE + 10):
            gramians(spec, 1.0 + i)
        info = _gramian_bundle.cache_info()
        assert info.maxsize == GRAMIAN_CACHE_SIZE
        assert info.currsize == GRAMIAN_CACHE_SIZE


def _eager_bundle(spec, t):
    """Every field of the bundle and of the kernel's memo by the formulas of
    a bundle computed in full at construction, in the same operand order."""
    E11, E22T, C, tK, logdet_tK, logdet_C = _block_gramians(spec, np.array([t]))
    K = tK / t
    inv_K_t, inv_C_t = np.linalg.inv(np.concatenate((K, C)))
    n = spec.dim
    const = KernelConstants.for_dim(n)
    (logdet_tK,), (logdet_C,) = logdet_tK.tolist(), logdet_C.tolist()
    return dict(
        t=t, exp_tB=E11[0], exp_minus_tB=E22T[0], K_t=K[0], C_t=C[0],
        inv_K_t=inv_K_t, inv_C_t=inv_C_t,
        logdet_tK=logdet_tK, logdet_C=logdet_C,
        trace_Q_inv_C=float((spec.Q @ inv_C_t).trace()),
        log_norm_m=math.log(const.c_N) - (math.log(const.omega_N) + 0.5 * logdet_tK),
        log_norm_C=-0.5 * n * math.log(4.0 * math.pi) - t * spec.trace_B - 0.5 * logdet_C,
    )


BUNDLE_FIELDS = ("t", "exp_tB", "exp_minus_tB", "K_t", "C_t", "logdet_tK", "logdet_C")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestLazyBundle:
    """The plain bundle and the kernel's memo ``_frame`` against one eager
    construction: the engine fields on the bundle, the derived ones (the
    inverses, tr(Q C^{-1}) and the log prefactors) on the kernel's memo."""

    def setup_method(self):
        _gramian_bundle.cache_clear()
        _frame.cache_clear()

    def test_bundle_holds_the_engine_fields_only(self):
        g = gramians(kolmogorov(1), 0.7)
        assert tuple(f.name for f in dataclasses.fields(g)) == BUNDLE_FIELDS
        lazy = [v for v in vars(GramianBundle).values() if isinstance(v, functools.cached_property)]
        assert lazy == []

    @pytest.mark.parametrize("spec", PRESET_SPECS + [CHAIN3], ids=lambda s: f"{s.name}{s.dim}")
    def test_fields_match_eager_formulas_bit_for_bit(self, spec):
        for t in (1e-4, 0.37, 2.5, 40.0, 1e3):
            try:
                want = _eager_bundle(spec, t)
            except DomainError:
                with pytest.raises(DomainError):
                    gramians(spec, t)
                with pytest.raises(DomainError):
                    _frame(spec, t)
                continue
            g, frame = gramians(spec, t), _frame(spec, t)
            for name, value in want.items():
                got = getattr(g if name in BUNDLE_FIELDS else frame, name)
                if isinstance(value, np.ndarray):
                    assert np.array_equal(got, value), (name, t)
                else:
                    assert got == value, (name, t)

    def test_derived_arrays_are_read_only_and_kept(self):
        frame = _frame(kolmogorov(2), 0.8)
        assert _frame(kolmogorov(2), 0.8) is frame
        for name in ("inv_K_t", "inv_C_t"):
            first = getattr(frame, name)
            assert getattr(frame, name) is first
            with pytest.raises(ValueError):
                first[0, 0] = 1.0

    @pytest.mark.parametrize("spec", [heat(2), kolmogorov(1), ornstein_uhlenbeck(2), CHAIN3],
                             ids=lambda s: f"{s.name}{s.dim}")
    def test_engine_reads_compute_no_inverse(self, spec, monkeypatch):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: calls.append(a) or inv(a))
        g = gramians(spec, 0.6)
        g.K_t, g.logdet_tK, g.exp_tB, g.C_t, g.logdet_C
        assert calls == []
        # the kernel's memo inverts K(t) and C(t) once, on its miss
        _frame(spec, 0.6)
        assert len(calls) == 2
        _frame(spec, 0.6)
        assert len(calls) == 2


class TestSpecValidation:
    def test_rejects_asymmetric_q(self):
        with pytest.raises(DomainError):
            OperatorSpec(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros((2, 2)))

    def test_rejects_indefinite_q(self):
        with pytest.raises(DomainError):
            OperatorSpec(np.diag([1.0, -0.1]), np.zeros((2, 2)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            OperatorSpec(np.eye(2), np.zeros((3, 3)))

    def test_kernel_constants(self):
        for n in range(1, 5):
            kc = KernelConstants.for_dim(n)
            # c_N / omega_N = (4 pi)^{-N/2}: ties the kernel prefactor to the volume
            assert_allclose(kc.c_N / kc.omega_N, (4 * np.pi) ** (-n / 2), rtol=1e-14)
            assert KernelConstants.for_dim(n) is kc


def _array_records():
    from hypok.kernel import kernel_log_derivatives
    from hypok.testfuncs import CompactBump, ModulatedBump, gaussian

    spec = kolmogorov(1)
    bump = CompactBump(np.zeros(2), 1.0, 2.0)
    return {
        "GramianBundle": lambda: _gramian_bundle.__wrapped__(spec, 0.5),
        "KernelLogDerivatives": lambda: kernel_log_derivatives(
            spec, np.zeros(2), np.ones(2), 0.5
        ),
        "GaussianTerm": lambda: gaussian(np.zeros(2), np.eye(2)).terms[0],
        "TestFunction": lambda: gaussian(np.zeros(2), np.eye(2)),
        "CompactBump": lambda: CompactBump(np.zeros(2), 1.0, 2.0),
        "ModulatedBump": lambda: ModulatedBump(bump, gaussian(np.zeros(2), np.eye(2))),
    }


@pytest.mark.parametrize("kind", sorted(_array_records()))
def test_array_records_compare_by_identity(kind):
    # records holding arrays compare and hash by identity instead of
    # raising on the elementwise array comparison
    make = _array_records()[kind]
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
    assert (a != b) is True
    assert isinstance(hash(a), int)
    assert len({a, b, a}) == 2
