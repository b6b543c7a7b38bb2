"""Gaussian-polynomial test functions with exact calculus.

Each function in the family is a finite sum of terms

    coeff * (Y - center)^monomial * exp(-<shape (Y - center), Y - center>)

with a symmetric PSD shape matrix and a multi-index monomial of total
degree at most 4.  The family is closed under the operations the rest of
the package needs: values, gradients and Hessians are exact, and so is
the Gaussian convolution against the transition density
N(e^{tB} X, 2 t K(t)) with its gradient in X, by Isserlis' theorem for
the Gaussian moments of every monomial.  This makes the family a
quadrature-free oracle for every semigroup routine built on top of it.

Shape matrices are allowed to vanish so that linear and constant
polynomial limits can be expressed; ``is_schwartz`` reports whether every
term decays (all shapes positive definite).
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    DomainError,
    OperatorSpec,
    _block_gramians,
    _check_time,
    _point,
    _points,
)

__all__ = [
    "TestFunction",
    "CompactBump",
    "ModulatedBump",
    "UnsupportedDegreeError",
    "gaussian",
    "linear",
    "constant",
    "generator_apply",
    "exact_semigroup_oracle",
    "exact_semigroup_profile",
]

MAX_EVAL_DEGREE = 4

# monomials whose Isserlis pairings _pairings keeps (126 at N = 5)
PAIRINGS_CACHE_SIZE = 256


class UnsupportedDegreeError(ValueError):
    """Monomial degree exceeds what the requested operation supports."""


def _as_vector(x):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError("expected a vector, got shape %s" % (v.shape,))
    return v


@dataclass(frozen=True, eq=False)
class GaussianTerm:
    """One summand coeff * w^monomial * exp(-<S w, w>), w = Y - center."""

    coeff: float
    center: np.ndarray
    shape: np.ndarray
    monomial: tuple

    def __post_init__(self):
        center = _as_vector(self.center)
        n = center.shape[0]
        shape = np.asarray(self.shape, dtype=float)
        if shape.shape != (n, n):
            raise ValueError("shape matrix must be %dx%d" % (n, n))
        coeff = float(self.coeff)
        if not (math.isfinite(coeff) and np.isfinite(shape).all() and np.isfinite(center).all()):
            raise ValueError("term data must be finite")
        scale = max(np.linalg.norm(shape, 2), 1.0)
        if np.linalg.norm(shape - shape.T, 2) > 1e-12 * scale:
            raise ValueError("shape matrix must be symmetric")
        shape = 0.5 * (shape + shape.T)
        if np.linalg.norm(shape, 2) > 0:
            lam_min = float(np.linalg.eigvalsh(shape)[0])
            if lam_min < -1e-12 * scale:
                raise ValueError("shape matrix must be positive semidefinite")
        monomial = tuple(int(k) for k in self.monomial)
        if len(monomial) != n or any(k < 0 for k in monomial):
            raise ValueError("monomial must be %d nonnegative integers" % n)
        if sum(monomial) > MAX_EVAL_DEGREE:
            raise UnsupportedDegreeError(
                "monomial degree %d exceeds cap %d" % (sum(monomial), MAX_EVAL_DEGREE)
            )
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "monomial", monomial)
        self.center.setflags(write=False)
        self.shape.setflags(write=False)

    @property
    def degree(self):
        return sum(self.monomial)


@dataclass(frozen=True, eq=False)
class TestFunction:
    """Finite sum of Gaussian-polynomial terms on R^N.

    Parameters
    ----------
    terms : sequence of GaussianTerm
        At least one term; all terms must share the same dimension.

    Notes
    -----
    Values, gradients and Hessians are exact and vectorised over a
    leading batch axis: ``value(Y)`` accepts ``Y`` of shape ``(N,)`` or
    ``(..., N)``.
    """

    terms: tuple
    dim: int = field(init=False)

    __test__ = False  # not a pytest class despite the name

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("TestFunction needs at least one term")
        if not all(isinstance(term, GaussianTerm) for term in terms):
            raise TypeError("terms must be GaussianTerm instances")
        n = terms[0].center.shape[0]
        if any(term.center.shape[0] != n for term in terms):
            raise ValueError("all terms must share one dimension")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "dim", n)

    @property
    def degree(self):
        return max(term.degree for term in self.terms)

    @property
    def is_schwartz(self):
        """True when every term has a positive definite shape matrix."""
        # a zero shape matrix has eigenvalue 0 and fails the test
        return all(float(np.linalg.eigvalsh(term.shape)[0]) > 0 for term in self.terms)

    def _prepare(self, Y):
        Y = np.asarray(Y, dtype=float)
        if Y.shape[-1:] != (self.dim,):
            raise ValueError("points must have trailing dimension %d" % self.dim)
        return Y

    def value(self, Y):
        """Evaluate at ``Y`` with shape ``(..., N)``; returns ``(...,)``."""
        Y = self._prepare(Y)
        out = np.zeros(Y.shape[:-1])
        for term in self.terms:
            w = Y - term.center
            expo = np.exp(-_quad_form(term.shape, w))
            if term.degree:
                expo = expo * _monomial(w, term.monomial)
            out = out + term.coeff * expo
        return out if out.ndim else float(out)

    def gradient(self, Y):
        """Exact gradient; shape ``(..., N)`` for input ``(..., N)``."""
        Y = self._prepare(Y)
        out = np.zeros(Y.shape)
        for term in self.terms:
            w = Y - term.center
            expo = np.exp(-_quad_form(term.shape, w))
            u = -2.0 * _matmul(w, term.shape)
            poly = _monomial(w, term.monomial)
            dpoly = _monomial_grad(w, term.monomial)
            out = out + term.coeff * (dpoly + poly[..., None] * u) * expo[..., None]
        return out

    def hessian(self, Y):
        """Exact Hessian; shape ``(..., N, N)`` for input ``(..., N)``."""
        Y = self._prepare(Y)
        n = self.dim
        out = np.zeros(Y.shape + (n,))
        for term in self.terms:
            w = Y - term.center
            expo = np.exp(-_quad_form(term.shape, w))
            u = -2.0 * (w @ term.shape.T)
            poly = _monomial(w, term.monomial)
            dpoly = _monomial_grad(w, term.monomial)
            hpoly = _monomial_hess(w, term.monomial)
            uu = u[..., :, None] * u[..., None, :]
            cross = dpoly[..., :, None] * u[..., None, :]
            cross = cross + u[..., :, None] * dpoly[..., None, :]
            core = hpoly + cross + poly[..., None, None] * (uu - 2.0 * term.shape)
            out = out + term.coeff * core * expo[..., None, None]
        return out

    def __mul__(self, scalar):
        c = float(scalar)
        return TestFunction(
            tuple(
                GaussianTerm(c * t.coeff, t.center, t.shape, t.monomial)
                for t in self.terms
            )
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, TestFunction):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch in sum")
        return TestFunction(self.terms + other.terms)


def _monomial(w, monomial):
    # numpy's w**0 gives 1.0 even at w = 0, which is the convention we need
    out = np.ones(w.shape[:-1])
    for i, k in enumerate(monomial):
        if k:
            out = out * w[..., i] ** k
    return out


def _monomial_grad(w, monomial):
    """Gradient of w^k: entry j is k_j w_j^(k_j - 1) times w^k with k_j set to 0."""
    out = np.zeros(w.shape[:-1] + (len(monomial),))
    for j, k in enumerate(monomial):
        if k:
            rest = _monomial(w, monomial[:j] + (0,) + monomial[j + 1 :])
            out[..., j] = k * w[..., j] ** (k - 1) * rest
    return out


def _monomial_hess(w, monomial):
    """Hessian of w^k: row i is k_i times the gradient of w^(k - e_i)."""
    n = len(monomial)
    out = np.zeros(w.shape[:-1] + (n, n))
    for i, k in enumerate(monomial):
        if k:
            lowered = monomial[:i] + (k - 1,) + monomial[i + 1 :]
            out[..., i, :] = k * _monomial_grad(w, lowered)
    return out


def _matmul(w, M):
    """w @ M for points w of shape (..., N), in w's memory layout.

    Column-major blocks of points stay column-major, which keeps the
    elementwise work that follows running along the long axis.
    """
    return np.matmul(w, M, out=np.empty_like(w))


def _quad_form(S, w):
    return np.einsum("...i,...i->...", _matmul(w, S), w)


def gaussian(center, shape, coeff=1.0, monomial=None):
    """Single-term function coeff * w^monomial * exp(-<S w, w>)."""
    center = _as_vector(center)
    n = center.shape[0]
    if monomial is None:
        monomial = (0,) * n
    return TestFunction((GaussianTerm(coeff, center, shape, monomial),))


def linear(a):
    """The linear functional Y -> <a, Y> as a polynomial limit member."""
    a = _as_vector(a)
    n = a.shape[0]
    zero = np.zeros((n, n))
    terms = []
    for i in range(n):
        if a[i] != 0.0:
            mono = tuple(1 if j == i else 0 for j in range(n))
            terms.append(GaussianTerm(a[i], np.zeros(n), zero, mono))
    if not terms:
        terms.append(GaussianTerm(0.0, np.zeros(n), zero, (0,) * n))
    return TestFunction(tuple(terms))


def constant(c, dim):
    """The constant function c as a polynomial limit member."""
    zero = np.zeros((dim, dim))
    return TestFunction((GaussianTerm(c, np.zeros(dim), zero, (0,) * dim),))


def _check_function(spec, f, kinds):
    """Raise unless f is one of ``kinds`` on R^N."""
    if not isinstance(f, kinds):
        raise TypeError("unsupported function type %r" % type(f).__name__)
    if f.dim != spec.dim:
        raise ValueError("dimension mismatch between spec and f")


def generator_apply(spec: OperatorSpec, f: TestFunction, Y):
    """Evaluate A f = tr(Q Hess f) + <B Y, grad f> pointwise.

    Exact for every member of the family (degree cap 4 applies to f, the
    result is only ever needed as values, never as a family member).
    """
    _check_function(spec, f, TestFunction)
    Y = np.asarray(Y, dtype=float)
    hess = f.hessian(Y)
    grad = f.gradient(Y)
    diffusion = np.einsum("ij,...ji->...", spec.Q, hess)
    drift = np.einsum("...i,...i->...", Y @ spec.B.T, grad)
    out = diffusion + drift
    return out if out.ndim else float(out)


def _convolution_factors(f, Sigma):
    """Per-term factors of the Gaussian convolution of f against N(mean, Sigma).

    Sigma is a transition covariance 2 t K(t) of shape (..., N, N), one
    per time.  Completing the square without Sigma^{-1}: with
    G = I + 2 Sigma S the convolution of a term at mean offset m is

        det(G)^{-1/2} exp(-<A m, m>) E[W^kappa],  W ~ N(G^{-1} m, G^{-1} Sigma),

    where A = S G^{-1} is symmetric.  Sigma degenerates like t near t = 0,
    so the naive Sigma^{-1} + 2S route cancels catastrophically while this
    one stays exact.  Each entry is (term, A, G^{-1}, log det(G) / 2,
    G^{-1} Sigma, pairings of the monomial or None at degree 0); the
    log-determinant and the covariance carry a trailing axis that
    broadcasts over a batch of means.
    """
    factors = []
    for term in f.terms:
        G, half_logdet = _convolution_det(Sigma, term.shape)
        Ginv = np.linalg.inv(G)
        A = _sym(term.shape @ Ginv)
        cov = _sym(Ginv @ Sigma)[..., None]
        pairings = _pairings(term.monomial) if term.degree else None
        factors.append(
            (term, A, Ginv, np.asarray(half_logdet)[..., None], cov, pairings)
        )
    return factors


def _convolution_det(Sigma, S):
    """G = I + 2 Sigma S and log det(G) / 2 for one term's shape S, batched
    over the leading axes of Sigma; DomainError unless det G > 0."""
    G = np.eye(S.shape[0]) + 2.0 * Sigma @ S
    sign, logdet = np.linalg.slogdet(G)
    if np.any(sign <= 0):
        raise DomainError("convolution covariance lost positivity")
    return G, 0.5 * logdet


def _sym(M):
    return 0.5 * (M + np.swapaxes(M, -1, -2))


@functools.lru_cache(maxsize=PAIRINGS_CACHE_SIZE)
def _pairings(monomial):
    """Isserlis terms of E[W^monomial] as (count, singles monomial, pairs).

    The moment of a Gaussian W ~ N(nu, c) sums, over the partial pairings
    of the monomial's index list (10 at degree 4), nu^singles times the
    c_ij of the pairs; pairings with equal products are merged.
    """
    found = Counter()

    def pair_off(idx, singles, pairs):
        if not idx:
            counts = tuple(singles.count(i) for i in range(len(monomial)))
            found[counts, tuple(sorted(pairs))] += 1
            return
        first, rest = idx[0], idx[1:]
        pair_off(rest, singles + (first,), pairs)
        for k, other in enumerate(rest):
            pair_off(rest[:k] + rest[k + 1 :], singles, pairs + ((first, other),))

    pair_off(tuple(i for i, k in enumerate(monomial) for _ in range(k)), (), ())
    return tuple((n, singles, pairs) for (singles, pairs), n in found.items())


def _moment(pairings, nu, cov, gradient):
    """E[W^kappa] for W ~ N(nu, cov) and, with ``gradient``, its nu-gradient."""
    moment = grad = 0.0
    for count, singles, pairs in pairings:
        weight = count
        for i, j in pairs:
            weight = weight * cov[..., i, j, :]
        moment = moment + weight * _monomial(nu, singles)
        if gradient:
            grad = grad + np.expand_dims(weight, -1) * _monomial_grad(nu, singles)
    return moment, grad


def _convolve(factors, mu, gradient=False):
    """Sum of the factored terms at means mu of shape (..., M, N); (..., M).

    With ``gradient`` it returns the gradient in mu instead, shape
    (..., M, N): per term amp * (-2 A m E[W^kappa] + G^{-T} grad_nu E[W^kappa]).
    """
    total = 0.0
    for term, A, Ginv, half_logdet, cov, pairings in factors:
        m = mu - term.center
        Am = _matmul(m, A)
        # <A m, m> >= 0, so the exponential never overflows
        amp = term.coeff * np.exp(-np.einsum("...i,...i->...", Am, m) - half_logdet)
        moment = 1.0
        if pairings is not None:
            nu = _matmul(m, np.swapaxes(Ginv, -1, -2))
            moment, dmoment = _moment(pairings, nu, cov, gradient)
        if gradient:
            part = -2.0 * Am * np.expand_dims(moment, -1)
            if pairings is not None:
                part += _matmul(dmoment, Ginv)
            total = total + amp[..., None] * part
        else:
            total = total + (amp if pairings is None else amp * moment)
    return total


def _factored(spec, f, ts):
    """e^{tB} and the convolution factors of f against covariance 2 tK(t),
    stacked over the 1-D array ``ts``, from one engine pass."""
    exp_tB, _, _, tK, _, _ = _block_gramians(spec, ts)
    # tK already carries the factor t; the covariance is 2 tK(t)
    return exp_tB, _convolution_factors(f, 2.0 * tK)


def exact_semigroup_oracle(spec: OperatorSpec, f: TestFunction, t, X, gradient=False):
    """Exact P_t f (X), or its gradient in X, by analytic Gaussian convolution.

    Parameters
    ----------
    spec : OperatorSpec
        Hypoelliptic operator data.
    f : TestFunction
        Any member of the family (monomial degree at most 4, any N).
    t : positive float
    X : array of shape (N,) or (..., N)
        Batched evaluation points share one factorisation.
    gradient : bool
        Return grad_X P_t f = e^{tB'} (gradient in the mean) instead.

    Returns
    -------
    float or ndarray
        P_t f evaluated at X, the integral of f against the Gaussian
        transition density with mean e^{tB} X and covariance 2 t K(t);
        with ``gradient``, an array of the shape of X.

    Notes
    -----
    Each call takes one engine pass and one factorisation of f, for any
    number of points.  A non-finite point raises DomainError.
    """
    _check_function(spec, f, TestFunction)
    X = _points(X, spec.dim)
    exp_tB, factors = _factored(spec, f, np.array([_check_time(t)]))
    flat = X.reshape(-1, spec.dim)
    vals = _convolve(factors, _matmul(flat, exp_tB[0].T)[None], gradient)[0]
    if gradient:
        return _matmul(vals, exp_tB[0]).reshape(X.shape)
    return float(vals[0]) if X.ndim == 1 else vals.reshape(X.shape[:-1])


def exact_semigroup_profile(spec: OperatorSpec, f: TestFunction, ts, X):
    """Exact P_t f (X) along a whole time grid with one engine pass.

    Same closed form as :func:`exact_semigroup_oracle`, vectorised over
    ``ts`` for the time-integral transforms that sample hundreds of
    semigroup values at a fixed point.
    """
    _check_function(spec, f, TestFunction)
    X = _point(np.atleast_1d(X), spec.dim)
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # min propagates a NaN, which fails the comparison
    if not (ts.min(initial=math.inf) > 0.0 and ts.max(initial=0.0) < math.inf):
        raise DomainError("times must be positive and finite")
    exp_tB, factors = _factored(spec, f, ts)
    return _convolve(factors, (exp_tB @ X)[:, None, :])[:, 0]


@dataclass(frozen=True, eq=False)
class CompactBump:
    """Smooth compactly supported cutoff, identically 1 inside.

    Radial quintic-smoothstep profile: value 1 for |Y - center| <=
    inner_radius, 0 beyond outer_radius, with a C^2 polynomial
    transition in between.
    """

    center: np.ndarray
    inner_radius: float
    outer_radius: float

    def __post_init__(self):
        center = _as_vector(self.center)
        r_in = float(self.inner_radius)
        r_out = float(self.outer_radius)
        if not (np.all(np.isfinite(center)) and math.isfinite(r_out)):
            raise ValueError("bump data must be finite")
        if not (0 < r_in < r_out):
            raise ValueError("need 0 < inner_radius < outer_radius")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "inner_radius", r_in)
        object.__setattr__(self, "outer_radius", r_out)
        self.center.setflags(write=False)

    @property
    def dim(self):
        return self.center.shape[0]

    def value(self, Y):
        """Evaluate at ``Y`` with shape ``(..., N)``; returns ``(...,)``.

        The squared radius is summed coordinate by coordinate, so points
        in C order and in column-major order cost the same and give
        bit-identical values.
        """
        Y = np.asarray(Y, dtype=float)
        if Y.shape[-1:] != (self.dim,):
            raise ValueError("points must have trailing dimension %d" % self.dim)
        # a single point gives a 0-d difference, which takes no out=
        r2 = np.atleast_1d(Y[..., 0] - self.center[0])
        r2 *= r2
        for k in range(1, self.dim):
            d = Y[..., k] - self.center[k]
            d *= d
            r2 += d
        out = self.profile(r2)
        return out if Y.ndim > 1 else float(out[0])

    def profile(self, r2, out=None):
        """Bump values at squared radii ``r2 = |Y - center|^2``, any shape.

        Works in place: ``r2`` must be a writable float array and is
        overwritten; the values go to ``out`` (a new array if None).
        Squared radii that rounding left below 0 count as 0.
        """
        # clamping r2 to [r_in^2, r_out^2] clamps s to [0, 1] exactly, since
        # sqrt(fl(x * x)) == x, and keeps a negative r2 out of the sqrt
        s = np.maximum(r2, self.inner_radius**2, out=r2)
        np.minimum(s, self.outer_radius**2, out=s)
        np.sqrt(s, out=s)
        s -= self.inner_radius
        s /= self.outer_radius - self.inner_radius
        # 1 - s^3 (10 - 15 s + 6 s^2) in Horner form, without a power
        out = np.multiply(6.0, s, out=out)
        out -= 15.0
        out *= s
        out += 10.0
        for _ in range(3):
            out *= s
        np.subtract(1.0, out, out=out)
        return out


@dataclass(frozen=True, eq=False)
class ModulatedBump:
    """Product bump * f, by value only.

    Used where compact support is required of an otherwise
    Gaussian-polynomial profile.
    """

    bump: CompactBump
    f: TestFunction

    def __post_init__(self):
        if self.bump.dim != self.f.dim:
            raise ValueError("bump and f dimensions differ")

    @property
    def dim(self):
        return self.f.dim

    def value(self, Y):
        return self.bump.value(Y) * self.f.value(Y)
