"""Matrix calculus for degenerate Ornstein-Uhlenbeck-type generators.

The operator is ``A u = tr(Q D^2 u) + <B X, grad u>`` with ``Q`` symmetric
positive semidefinite and ``B`` an arbitrary real drift. Everything downstream
(the transition kernel, the semigroup and its Poisson subordinate, kernel
norms and smoothing bounds) is a function of two Gramians of the pair
``(Q, B)``::

    K(t) = (1/t) int_0^t e^{sB} Q e^{sB'} ds
    C(t) =       int_0^t e^{-sB} Q e^{-sB'} ds

linked by ``t K(t) = e^{tB} C(t) e^{tB'}`` and
``det(t K(t)) = e^{2 t tr B} det C(t)``. No numerical time quadrature is
used.

Every Gramian comes from one checked engine, ``_block_gramians``, which
takes a whole grid of times in one pass by one of two routes. The drift
alone selects the route; no option does:

* **Polynomial**, when ``B`` is nilpotent in floating point: some power
  ``B^d``, ``d <= N``, formed by repeated products, is exactly zero. This
  holds for the homogeneous Kolmogorov class (Lanconelli and Polidoro
  1994): the heat operator, the kinetic operators and every chain. Then
  ``e^{+-tB}`` and the Gramians are matrix polynomials in ``t`` of degree
  at most ``2d - 1``. Their coefficients are built once per spec, the
  Gramians as ``t F(t) F(t)'`` from a shifted Legendre factor (see
  ``_polynomial_gramians``), and a grid is one Vandermonde product.
* **Pade**, for every other drift: the Gramians are read off the block
  exponential ``e^{tH}``, ``H = [[B, Q], [0, -B']]``. Its exponential
  uses scaling and squaring around the degree-13 Pade approximant. The
  powers ``M^0 .. M^13`` and three norms of ``M`` are computed once;
  since ``(tM)^k = t^k M^k``, they give the scaling ``s(t)`` of any time
  in closed form (Al-Mohy and Higham 2009) and the Pade numerators and
  denominators of a whole time grid in one matrix product. One batched
  solve follows, and each time is then squared ``s(t)`` times. The powers
  of ``H`` are kept per spec. :func:`matrix_exponential` is this
  exponential for any matrix.

Both routes end in the same check: ``DomainError`` at a time where
``e^{tB}`` is singular, or where ``t K(t)`` or ``C(t)`` is not positive
definite with a finite log-determinant (overflow and NaN included).
``OperatorSpec`` compares and hashes by the content of ``(Q, B)``, which
lets :func:`gramians` memoise one bundle per ``(spec, t)``; the kernel's
inverses and prefactors are built and kept by ``hypok.kernel``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


# Scale-invariant tolerance for the symmetry of Q.
TOL_SYM_REL = 1e-12

# Gramian bundles kept by gramians(), and specs whose block powers or
# polynomial coefficients are kept; one entry is a few kB at N <= 4.
GRAMIAN_CACHE_SIZE = 256

# Degree-13 Pade coefficients b_k (Higham 2005) over b_0: with b_0 as the
# constant term, LAPACK's reciprocal pivot turns e^0 = I into 1 - 1.1e-16.
_PADE13 = np.array([b / 64764752532480000 for b in (
    64764752532480000, 32382376266240000, 7771770303897600, 1187353796428800,
    129060195264000, 10559470521600, 670442572800, 33522128640, 1323241920,
    40840800, 960960, 16380, 182, 1)])
_DEGREES = np.arange(14.0)
_ALTERNATING = (-1.0) ** _DEGREES
# log2 of the largest eta(A) at which degree 13 meets unit roundoff (Higham 2005)
_LOG2_THETA13 = math.log2(5.371920351148152)
_TINY = np.finfo(float).tiny
# log2 of 1/|c_27|, the leading backward-error coefficient (Al-Mohy and Higham 2009)
_LOG2_C27 = math.log2(113250775606021113483283660800000000)
# the polynomial route evaluates every grid at +t and at -t
_SIGNS = np.array([1.0, -1.0])


class DomainError(ValueError):
    """Raised when an argument leaves an operation's mathematical domain."""


def _as_square(M, name: str) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"{name} must be a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DomainError(f"{name} has non-finite entries")
    return M


def _check_time(t, t_min: float = 0.0) -> float:
    """t as a float, or DomainError unless it is finite, positive and >= t_min."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise DomainError("time must be positive and finite")
    if t < t_min:
        raise DomainError("time below %g is outside the evaluation domain" % t_min)
    return t


def _point(x, dim: int) -> np.ndarray:
    """x as a float point of R^dim, or DomainError for a non-finite coordinate."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError("expected a point in R^%d, got shape %s" % (dim, x.shape))
    if not all(map(math.isfinite, x.tolist())):
        raise DomainError("point has non-finite coordinates")
    return x


def _points(Y, dim: int) -> np.ndarray:
    """Y as float points of shape (..., dim), or DomainError for a non-finite one."""
    Y = np.asarray(Y, dtype=float)
    if Y.shape[-1:] != (dim,):
        raise ValueError("points must have trailing dimension %d" % dim)
    # one BLAS pass that, unlike matmul, warns of no overflow: the sum is
    # finite unless an entry is not, or it overflows and isfinite decides
    if not math.isfinite(np.vdot(Y, Y)) and not np.isfinite(Y).all():
        raise DomainError("points have non-finite coordinates")
    return Y


def sym_sqrt(M) -> np.ndarray:
    """Symmetric PSD square root (eigendecomposition; deterministic).

    ``M`` may be (N, N) or a stack (..., N, N); a stack takes one ``eigh``.
    """
    w, V = np.linalg.eigh(M)
    root = V * np.sqrt(np.clip(w, 0.0, None))[..., None, :]
    return root @ np.swapaxes(V, -1, -2)


@dataclass(frozen=True, eq=False)
class OperatorSpec:
    """The pair (Q, B) defining one generator.

    ``Q`` and ``B`` are copied and stored read-only. Two specs are equal, and
    hash alike, when their ``Q`` and ``B`` hold the same floats (``-0.0``
    counts as ``0.0``); ``name`` is a label and takes no part.

    Parameters
    ----------
    Q : (N, N) array_like
        Symmetric positive semidefinite diffusion matrix.
    B : (N, N) array_like
        Drift matrix; the drift field is ``X -> B X``.
    name : str
        Label used in reports ("heat", "kolmogorov", ...).
    """

    Q: np.ndarray
    B: np.ndarray
    name: str = "custom"
    dim: int = field(init=False)
    trace_B: float = field(init=False)
    fingerprint: bytes = field(init=False, repr=False)

    def __post_init__(self):
        Q = _as_square(self.Q, "Q")
        B = _as_square(self.B, "B")
        if Q.shape != B.shape:
            raise DomainError(f"Q and B shapes differ: {Q.shape} vs {B.shape}")
        n = Q.shape[0]
        if n < 1:
            raise DomainError("dim must be >= 1")
        scale = np.linalg.norm(Q, 2)
        tol = TOL_SYM_REL * max(scale, 1.0)
        if np.linalg.norm(Q - Q.T, 2) > tol:
            raise DomainError("Q must be symmetric")
        Q = 0.5 * (Q + Q.T)
        lam_min = float(np.linalg.eigvalsh(Q)[0])
        if lam_min < -tol:
            raise DomainError(f"Q must be positive semidefinite (lambda_min={lam_min:.3e})")
        Q.setflags(write=False)
        B.setflags(write=False)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "trace_B", float(np.trace(B)))
        # adding 0.0 turns -0.0 into 0.0, so equal matrices hash alike
        content = np.stack([Q, B]) + 0.0
        object.__setattr__(self, "fingerprint", hashlib.sha256(content.tobytes()).digest())

    def __eq__(self, other):
        if not isinstance(other, OperatorSpec):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def sqrt_Q(self) -> np.ndarray:
        """Symmetric PSD square root of Q."""
        return sym_sqrt(self.Q)


def heat(dim: int = 1) -> OperatorSpec:
    """Q = I, B = 0: the classical heat operator."""
    return OperatorSpec(np.eye(dim), np.zeros((dim, dim)), name="heat")


def kolmogorov(n: int = 1) -> OperatorSpec:
    """Kinetic operator on R^{2n}: Laplacian in v plus transport <v, grad_x>.

    Q = diag(I_n, 0_n), B = [[0, 0], [I_n, 0]]; degenerate but hypoelliptic.
    """
    Q = np.zeros((2 * n, 2 * n))
    Q[:n, :n] = np.eye(n)
    B = np.zeros((2 * n, 2 * n))
    B[n:, :n] = np.eye(n)
    return OperatorSpec(Q, B, name="kolmogorov")


def ornstein_uhlenbeck(dim: int = 1) -> OperatorSpec:
    """Q = I, B = -I: confining drift, tr B = -dim < 0."""
    return OperatorSpec(np.eye(dim), -np.eye(dim), name="ornstein_uhlenbeck")


PRESETS = {
    "heat": heat,
    "kolmogorov": kolmogorov,
    "ornstein_uhlenbeck": ornstein_uhlenbeck,
}


class _ExpPowers(NamedTuple):
    """What e^{tM} needs of M at every t: scaled powers and three norms."""

    powers: np.ndarray  # (14, 2*m*m): row k is (M / nu)^k, then (-M / nu)^k, flattened
    nu: float           # ||M||_1 (1 for M = 0)
    log2_eta: float     # log2 min(max(d6, d8), max(d8, d10)), d_k = ||(M/nu)^k||_1^(1/k)
    log2_n27: float     # log2 ||abs(M / nu)^27||_1
    m: int


def _exp_powers(M: np.ndarray) -> _ExpPowers:
    m = M.shape[0]
    nu = float(np.linalg.norm(M, 1)) or 1.0
    A = M / nu
    powers = np.empty((14, m, m))
    powers[0] = np.eye(m)
    for k in range(1, 14):
        powers[k] = powers[k - 1] @ A
    norms = np.abs(powers).sum(axis=1).max(axis=1)  # ||(M / nu)^k||_1
    d6, d8, d10 = (norms[k] ** (1.0 / k) for k in (6, 8, 10))
    eta = min(max(d6, d8), max(d8, d10))
    n27 = np.linalg.norm(np.linalg.matrix_power(np.abs(A), 27), 1)
    signed = np.stack([powers, powers * _ALTERNATING[:, None, None]], axis=1)
    with np.errstate(divide="ignore"):  # log2(0) = -inf: no scaling from that term
        return _ExpPowers(signed.reshape(14, 2 * m * m), nu, float(np.log2(eta)),
                          float(np.log2(n27)), m)


def _exp_grid(P: _ExpPowers, ts: np.ndarray) -> np.ndarray:
    """e^{tM} for every t of the 1-D array ``ts`` (any sign), stacked (K, m, m).

    The scaling ``s(t)`` is the Al-Mohy-Higham choice for ``t M``: the eta
    rule, then the ell correction for the backward error of degree 13. The
    eta rule, unlike one on ``||tM||_1``, gives ``s = 0`` for nilpotent ``M``
    at any ``t``.
    """
    # log2 ||tM||_1; below the smallest normal float every term is 0 anyway
    log2_a = np.log2(np.maximum(np.abs(ts) * P.nu, _TINY))
    s = np.maximum(np.ceil(log2_a + (P.log2_eta - _LOG2_THETA13)), 0.0)
    ell = np.ceil(log2_a - s + (P.log2_n27 - _LOG2_C27 + 53.0) / 26.0)
    s += np.maximum(ell, 0.0)
    x = ts * P.nu * np.exp2(-s)
    c = x[:, None] ** _DEGREES * _PADE13
    # numerators p(x M/nu) and denominators q(x M/nu) = p(-x M/nu) in one product
    pq = (c @ P.powers).reshape(-1, 2, P.m, P.m)
    E = np.linalg.solve(pq[:, 1], pq[:, 0])
    s = s.astype(int)
    for j in range(1, s.max(initial=0) + 1):
        sel = s >= j
        E[sel] = E[sel] @ E[sel]
    return E


def matrix_exponential(M, t=1.0) -> np.ndarray:
    """e^{tM} by scaling and squaring around one batched Pade-13 pass.

    ``M`` may be (N, N) or (..., N, N); ``t`` may be a scalar or an array of
    any sign broadcastable against the leading axes. One ``M`` takes one
    pass over all its times; a stack takes one pass per matrix.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise DomainError("matrix_exponential: M must be square, got shape %s" % (M.shape,))
    t = np.asarray(t, dtype=float)
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(t))):
        raise DomainError("matrix_exponential: non-finite entries")
    n = M.shape[-1]
    lead = np.broadcast_shapes(M.shape[:-2], t.shape)
    ts = np.broadcast_to(t, lead).reshape(-1)
    if M.ndim == 2:
        E = _exp_grid(_exp_powers(M), ts)
    else:
        Ms = np.broadcast_to(M, lead + (n, n)).reshape(-1, n, n)
        E = np.stack([_exp_grid(_exp_powers(Mi), ti[None])[0] for Mi, ti in zip(Ms, ts)])
    return E.reshape(lead + (n, n))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class GramianBundle:
    """The Gramian engine's outputs for one spec at one time.

    ``exp_tB``, ``exp_minus_tB``, ``K_t`` and ``C_t`` are read-only
    arrays; ``logdet_tK = log det(t K(t))`` and ``logdet_C = log det C(t)``
    stay finite where the determinants themselves would overflow. What
    the kernel derives from them (the inverses, ``tr(Q C(t)^{-1})`` and
    the log prefactors) is kept by the kernel layer.
    """

    t: float
    exp_tB: np.ndarray
    exp_minus_tB: np.ndarray
    K_t: np.ndarray
    C_t: np.ndarray
    logdet_tK: float
    logdet_C: float


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _block_powers(spec: OperatorSpec) -> _ExpPowers:
    """The exponential engine's data for H = [[B, Q], [0, -B']]."""
    zero = np.zeros_like(spec.B)
    return _exp_powers(np.block([[spec.B, spec.Q], [zero, -spec.B.T]]))


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _polynomial_gramians(spec: OperatorSpec) -> np.ndarray | None:
    """Coefficients, in powers of t, of e^{tB} and of Gramian factors; or None.

    None unless some power B^d, d <= N, formed by repeated products, is
    exactly zero. Then e^{sB} Q^{1/2} = sum_{p<d} s^p G_p with
    G_p = B^p Q^{1/2} / p!, and expanding x^p = sum_r L[p, r] P_r(x) in the
    orthonormal shifted Legendre polynomials of [0, 1] (L is the Cholesky
    factor of the Hilbert matrix 1 / (p + q + 1), in closed form
    L[p, r] = sqrt(2r + 1) p!^2 / ((p - r)! (p + r + 1)!), every entry
    positive) gives

        t K(t) = int_0^t e^{sB} Q e^{sB'} ds = t F(t) F(t)',
        F(t) = [F_0 .. F_{d-1}],  F_r(t) = sum_p t^p L[p, r] G_p,

    a Gram form whose diagonal is a sum of squares: rounding in F costs
    about the square root of what the expanded sums of B^i Q B'^j lose
    to cancellation between powers of t. C(t) is the same with t^p
    replaced by (-t)^p. Row p of the read-only
    (d, N^2 + d N^2) result holds B^p / p!, then the N x dN coefficient
    [L[p, 0] G_p .. L[p, d-1] G_p] of F.
    """
    n = spec.dim
    powers = [np.eye(n)]
    for _ in range(n):
        powers.append(powers[-1] @ spec.B)
        if not powers[-1].any():
            break
    else:
        return None
    d = len(powers) - 1
    fact = [math.factorial(k) for k in range(2 * d)]
    L = np.array([[math.sqrt(2 * r + 1) * fact[p] ** 2 / (fact[p - r] * fact[p + r + 1])
                   if r <= p else 0.0 for r in range(d)] for p in range(d)])
    exps = np.stack(powers[:d]) / np.array(fact[:d])[:, None, None]
    G = exps @ spec.sqrt_Q()
    factor = L[:, None, :, None] * G[:, :, None, :]  # (p, row, r, column)
    coef = np.concatenate((exps.reshape(d, -1), factor.reshape(d, -1)), axis=1)
    coef.setflags(write=False)
    return coef


def _block_gramians(spec: OperatorSpec, ts: np.ndarray):
    """(exp_tB, exp_minus_tB, C_t, tK_t, logdet_tK, logdet_C), stacked over
    the 1-D array ``ts`` of positive finite times, from one pass.

    Two routes, chosen by the drift alone (no option selects them):

    * polynomial, when ``_polynomial_gramians`` finds B nilpotent in
      floating point (B^d, formed by repeated products, exactly zero for
      some d <= N): e^{tB}, e^{-tB} and the Gramian factors F of
      t K(t) = t F F' and C(t) are polynomials in t of degree below d,
      so the whole grid is one Vandermonde product of the powers of
      +-t with the cached coefficients, and one batched ``F F'``;
    * Pade, for every other drift: with H = [[B, Q], [0, -B']], exp(tH)
      has blocks E11 = e^{tB}, E12 = e^{tB} C(t) and E22 = e^{-tB'};
      then t K(t) = E12 E11', e^{-tB} = E22', C(t) = E11^{-1} t K(t) E11^{-T}
      by two solves (E12 alone is rounded relative to the far larger E22)
      and log det C(t) = log det t K(t) - 2 t tr B.

    Both routes end in the same check and ``DomainError``.
    """
    n = spec.dim
    coef = _polynomial_gramians(spec)
    # an overflow or a NaN reaches the check below instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        if coef is not None:
            # the powers of t give e^{tB} and the factor F of t K(t), those
            # of -t give e^{-tB} and the factor of C(t)
            P = ((ts[:, None] * _SIGNS)[..., None] ** np.arange(len(coef))) @ coef
            E11, E22T = P[..., : n * n].reshape(-1, 2, n, n).transpose(1, 0, 2, 3)
            F = P[..., n * n :].reshape(len(ts), 2, n, -1)
            tK, C = (ts[:, None, None, None] * (F @ F.transpose(0, 1, 3, 2))).transpose(1, 0, 2, 3)
        else:
            E = _exp_grid(_block_powers(spec), ts)
            E11, E12, E22T = E[:, :n, :n], E[:, :n, n:], E[:, n:, n:].transpose(0, 2, 1)
            tK = E12 @ E11.transpose(0, 2, 1)
            tK = 0.5 * (tK + tK.transpose(0, 2, 1))  # about 1 us less than np.swapaxes
            try:
                C = np.linalg.solve(E11, np.linalg.solve(E11, tK).transpose(0, 2, 1))
            except np.linalg.LinAlgError:
                raise DomainError("e^{tB} is singular in floating point on the time grid") from None
            C = 0.5 * (C + C.transpose(0, 2, 1))
        # each LAPACK routine runs once over both Gramians (per matrix, the
        # result of a separate call)
        signs, logdets = np.linalg.slogdet(np.concatenate((tK, C)))
    # every sign 1 and every log-determinant finite, a NaN failing both;
    # Python on lists costs less than np.all at a single time
    if signs.tolist().count(1.0) < len(signs) or not all(map(math.isfinite, logdets.tolist())):
        raise DomainError("t*K(t) or C(t) is not positive definite and finite on the time grid")
    if coef is None:
        logdets[len(ts) :] = logdets[: len(ts)] - 2.0 * spec.trace_B * ts
    return E11, E22T, C, tK, logdets[: len(ts)], logdets[len(ts) :]


def gramians(spec: OperatorSpec, t: float) -> GramianBundle:
    """Gramian bundle at time t > 0 (block-exponential construction).

    Bundles are memoised: the key is the exact pair ``(spec, float(t))``
    (specs compare by content; times are never rounded, so times one ulp
    apart get separate bundles), every returned array is read-only, and at
    most ``GRAMIAN_CACHE_SIZE`` bundles are kept, least recently used first
    out. The memo serves the kernel's own memo, ``volume``, the smoothing
    check and :func:`logdet_derivative_identity`; a fresh-time ``P_t f``
    and every time grid read the engine directly.
    """
    return _gramian_bundle(spec, _check_time(t))


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _gramian_bundle(spec: OperatorSpec, t: float) -> GramianBundle:
    E11, E22T, C, tK, logdet_tK, logdet_C = _block_gramians(spec, np.array([t]))
    arrays = [_read_only(a[0]) for a in (E11, E22T, tK / t, C)]
    (logdet_tK,), (logdet_C,) = logdet_tK.tolist(), logdet_C.tolist()
    return GramianBundle(t, *arrays, logdet_tK, logdet_C)


@dataclass(frozen=True)
class HypoellipticityReport:
    hypoelliptic: bool
    lambda_min_K1: float
    kalman_rank: int
    spectral_test: bool
    kalman_test: bool
    agree: bool

    def __bool__(self) -> bool:
        return self.hypoelliptic


def hypoellipticity_check(spec: OperatorSpec) -> HypoellipticityReport:
    """Two equivalent tests: lambda_min(K(1)) > 0 and the Kalman rank condition.

    Both tests cut at 1e3 N eps relative to the largest value they see.
    The spectral test asks lambda_min(K(1)) > 1e3 N eps lambda_max(K(1)).
    The rank test counts the singular values of [Q, B Q, ..., B^{N-1} Q],
    B scaled to unit norm, above 1e3 N eps times the largest: that matrix
    spans what [Q^{1/2}, B Q^{1/2}, ...] spans, without a square root,
    which would turn the eigenvalue rounding (about 1e-17) of a
    rank-deficient Q into columns of about 1e-8. Both verdicts are
    reported; they must agree. A pair whose lambda_min(K(1)) lies within
    roundoff of 0, such as a chain of step 7 or more (1.05e-13 lambda_max
    at step 7), reports ``hypoelliptic=False`` with ``agree=False``.
    """
    n = spec.dim
    cut = 1e3 * n * math.ulp(1.0)
    # K(1) unchecked: a spec that is not hypoelliptic is reported, not raised
    E = _exp_grid(_block_powers(spec), np.ones(1))
    tK = E[:, :n, n:] @ np.swapaxes(E[:, :n, :n], -1, -2)
    K1 = 0.5 * (tK + np.swapaxes(tK, -1, -2))[0]
    w = np.linalg.eigvalsh(K1)
    lam_min = float(w[0])
    spectral = lam_min > cut * float(w[-1])  # floats on both sides: a Python bool

    B = spec.B / (np.linalg.norm(spec.B, 1) or 1.0)
    blocks = [spec.Q]
    for _ in range(n - 1):
        blocks.append(B @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    rank = int(np.count_nonzero(sv > cut * sv[0]))
    rank_ok = rank == n
    return HypoellipticityReport(
        hypoelliptic=spectral and rank_ok,
        lambda_min_K1=lam_min,
        kalman_rank=rank,
        spectral_test=spectral,
        kalman_test=rank_ok,
        agree=spectral == rank_ok,
    )


def logdet_derivative_identity(spec: OperatorSpec, t: float) -> float:
    """Residual of tr(Q C^{-1}(t)) = d/dt log det C(t) + 2 tr B.

    Returns the max of the scalar residual, with d/dt log det C = tr(C^{-1} C')
    exact, and the operator-norm residual of the Gramian ODE
    C'(t) = e^{-tB} Q e^{-tB'} = Q - B C(t) - C(t) B'. The matrix residual is
    normalized by the size of its leading term: for expanding drifts the terms
    grow like e^{2t||B||} and an absolute residual would be pure roundoff.
    """
    g = gramians(spec, t)  # validates t
    inv_C = np.linalg.inv(g.C_t)
    trQCinv = float((spec.Q @ inv_C).trace())
    EmB = g.exp_minus_tB
    lead = EmB @ spec.Q @ EmB.T  # C'(t)
    ddt_logdetC = float((inv_C @ lead).trace())
    scalar_res = abs(trQCinv - ddt_logdetC - 2 * spec.trace_B) / (1.0 + abs(trQCinv))

    ode_res = np.linalg.norm(
        lead - spec.Q + spec.B @ g.C_t + g.C_t @ spec.B.T, 2
    ) / (1.0 + np.linalg.norm(lead, 2))
    return max(scalar_res, float(ode_res))


@dataclass(frozen=True)
class KernelConstants:
    """Dimensional constants entering the kernel and the volume function."""

    dim: int
    c_N: float
    omega_N: float

    @staticmethod
    @functools.lru_cache(maxsize=64)
    def for_dim(n: int) -> "KernelConstants":
        g = math.gamma(n / 2 + 1)
        return KernelConstants(dim=n, c_N=1.0 / (4 ** (n / 2) * g), omega_N=math.pi ** (n / 2) / g)
