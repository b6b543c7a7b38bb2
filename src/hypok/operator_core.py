"""Matrix calculus for degenerate Ornstein-Uhlenbeck-type generators.

The operator is ``A u = tr(Q D^2 u) + <B X, grad u>`` with ``Q`` symmetric
positive semidefinite and ``B`` an arbitrary real drift. Everything downstream
(the transition kernel, the semigroup and its Poisson subordinate, kernel
norms and smoothing bounds) is a function of two Gramians of the pair
``(Q, B)``::

    K(t) = (1/t) int_0^t e^{sB} Q e^{sB'} ds
    C(t) =       int_0^t e^{-sB} Q e^{-sB'} ds

linked by ``t K(t) = e^{tB} C(t) e^{tB'}`` and
``det(t K(t)) = e^{2 t tr B} det C(t)``. Both are read off the block
exponential ``e^{tH}``, ``H = [[B, Q], [0, -B']]`` (no numerical time
quadrature).

One engine computes every exponential: scaling and squaring around the
degree-13 Pade approximant. The powers ``M^0 .. M^13`` and three norms of
``M`` are computed once; since ``(tM)^k = t^k M^k``, they give the scaling
``s(t)`` of any time in closed form (Al-Mohy and Higham 2009) and the Pade
numerators and denominators of a whole time grid in one matrix product.
One batched solve follows, and each time is then squared ``s(t)`` times.
The powers of ``H`` are kept per spec, so a grid of times costs one pass.
``OperatorSpec`` compares and hashes by the content of ``(Q, B)``, which
lets :func:`gramians` memoise one bundle per ``(spec, t)``.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


# Scale-invariant tolerances for symmetry / positive-definiteness decisions.
TOL_SYM_REL = 1e-12
TOL_PD_REL = 1e-10

# Gramian bundles kept by gramians(), and specs whose block powers are kept;
# one entry is a few kB at N <= 4.
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


@dataclass(frozen=True, eq=False)
class GramianBundle:
    """All Gramian-derived quantities of one spec at one time.

    Besides the matrices and log-determinants it holds three scalars the
    kernel needs at every point, computed once per ``(spec, t)``:

    * ``trace_Q_inv_C = tr(Q C(t)^{-1})``;
    * ``log_norm_m = log c_N - (log omega_N + log det(t K(t)) / 2)``, the
      log prefactor ``log(c_N / V(t))`` of the pseudo-distance form;
    * ``log_norm_C = -N log(4 pi) / 2 - t tr B - log det C(t) / 2``, the log
      prefactor of the drift-free-variable form.
    """

    t: float
    exp_tB: np.ndarray
    exp_minus_tB: np.ndarray
    K_t: np.ndarray
    C_t: np.ndarray
    det_tK: float
    logdet_tK: float
    logdet_C: float
    inv_K_t: np.ndarray
    inv_C_t: np.ndarray
    trace_Q_inv_C: float
    log_norm_m: float
    log_norm_C: float


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _block_powers(spec: OperatorSpec) -> _ExpPowers:
    """The exponential engine's data for H = [[B, Q], [0, -B']]."""
    zero = np.zeros_like(spec.B)
    return _exp_powers(np.block([[spec.B, spec.Q], [zero, -spec.B.T]]))


def _block_gramians(spec: OperatorSpec, ts: np.ndarray):
    """Batched (exp_tB, exp_minus_tB, C_t, tK_t) via the augmented block exponential.

    With H = [[B, Q], [0, -B']], exp(tH) has blocks E11 = e^{tB},
    E12 = e^{tB} C(t) and E22 = e^{-tB'}; then C(t) = E11^{-1} E12,
    t K(t) = E12 E11' and e^{-tB} = E22'.
    """
    n = spec.dim
    E = _exp_grid(_block_powers(spec), ts)
    E11 = E[:, :n, :n]
    E12 = E[:, :n, n:]
    E22T = np.swapaxes(E[:, n:, n:], -1, -2)
    try:
        C = np.linalg.solve(E11, E12)
    except np.linalg.LinAlgError:
        raise DomainError("e^{tB} is singular in floating point on the time grid") from None
    C = 0.5 * (C + np.swapaxes(C, -1, -2))
    tK = E12 @ np.swapaxes(E11, -1, -2)
    tK = 0.5 * (tK + np.swapaxes(tK, -1, -2))
    return E11, E22T, C, tK


def gramians(spec: OperatorSpec, t: float) -> GramianBundle:
    """Gramian bundle at time t > 0 (block-exponential construction).

    Bundles are memoised: the key is the exact pair ``(spec, float(t))``
    (specs compare by content; times are never rounded, so times one ulp
    apart get separate bundles), every returned array is read-only, and at
    most ``GRAMIAN_CACHE_SIZE`` bundles are kept, least recently used first
    out.
    """
    if not (t > 0):
        raise DomainError(f"gramians: t must be > 0, got {t}")
    return _gramian_bundle(spec, float(t))


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _gramian_bundle(spec: OperatorSpec, t: float) -> GramianBundle:
    E11, E22T, C, tK = _block_gramians(spec, np.array([t]))
    K = tK / t
    # each LAPACK routine runs once over both Gramians (per matrix, the
    # result of a separate call), which pays for the kernel scalars below
    (sign, sign_C), logdets = np.linalg.slogdet(np.concatenate((tK, C)))
    if sign <= 0:
        raise DomainError(
            f"gramians: t*K(t) is not positive definite at t={t}; "
            "spec is not hypoelliptic (internal consistency)"
        )
    if sign_C <= 0:
        raise DomainError(
            f"gramians: C(t) is not positive definite in floating point at t={t}"
        )
    inv_K_t, inv_C_t = np.linalg.inv(np.concatenate((K, C)))
    arrays = dict(
        exp_tB=E11[0],
        exp_minus_tB=E22T[0],
        K_t=K[0],
        C_t=C[0],
        inv_K_t=inv_K_t,
        inv_C_t=inv_C_t,
    )
    for a in arrays.values():
        a.setflags(write=False)
    n = spec.dim
    const = KernelConstants.for_dim(n)
    logdet_tK, logdet_C = logdets.tolist()
    return GramianBundle(
        t=t,
        det_tK=float(np.exp(logdet_tK)),
        logdet_tK=logdet_tK,
        logdet_C=logdet_C,
        trace_Q_inv_C=float((spec.Q @ inv_C_t).trace()),
        log_norm_m=math.log(const.c_N) - (math.log(const.omega_N) + 0.5 * logdet_tK),
        log_norm_C=-0.5 * n * math.log(4.0 * math.pi) - t * spec.trace_B - 0.5 * logdet_C,
        **arrays,
    )


@dataclass(frozen=True, eq=False)
class GramianProfile:
    """Gramian quantities stacked over a time grid (for time integrals)."""

    ts: np.ndarray
    exp_tB: np.ndarray   # (m, N, N)
    C_t: np.ndarray      # (m, N, N)
    tK_t: np.ndarray     # (m, N, N)
    logdet_tK: np.ndarray  # (m,)


def gramian_profile(spec: OperatorSpec, ts) -> GramianProfile:
    """Vectorized gramians over a 1-D array of times (one pass of the engine)."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts <= 0):
        raise DomainError("gramian_profile: all times must be > 0")
    E11, _, C, tK = _block_gramians(spec, ts)
    sign, logdet = np.linalg.slogdet(tK)
    if np.any(sign <= 0):
        raise DomainError("gramian_profile: t*K(t) not positive definite on the grid")
    if np.any(np.linalg.slogdet(C)[0] <= 0):
        raise DomainError("gramian_profile: C(t) not positive definite on the grid")
    return GramianProfile(ts=ts, exp_tB=E11, C_t=C, tK_t=tK, logdet_tK=logdet)


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

    The rank test uses [Q^{1/2}, B Q^{1/2}, ..., B^{N-1} Q^{1/2}] with the
    symmetric PSD root of Q. Both verdicts are reported; they must agree.
    """
    n = spec.dim
    *_, tK = _block_gramians(spec, np.array([1.0]))
    K1 = tK[0]
    lam_min = float(np.linalg.eigvalsh(K1)[0])
    tol_pd = TOL_PD_REL * max(np.linalg.norm(K1, 2), 1e-300)
    spectral = lam_min > tol_pd

    Qh = spec.sqrt_Q()
    blocks = [Qh]
    for _ in range(n - 1):
        blocks.append(spec.B @ blocks[-1])
    kalman = np.hstack(blocks)
    rank = int(np.linalg.matrix_rank(kalman))
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

    Returns the max of the scalar residual (d/dt by central differences,
    h = 1e-5 t) and the operator-norm residual of the Gramian ODE
    C'(t) = e^{-tB} Q e^{-tB'} = Q - B C(t) - C(t) B'. The matrix residual is
    normalized by the size of its leading term: for expanding drifts the terms
    grow like e^{2t||B||} and an absolute residual would be pure roundoff.
    """
    if not (t > 0):
        raise DomainError(f"logdet_derivative_identity: t must be > 0, got {t}")
    g = gramians(spec, t)
    trQCinv = g.trace_Q_inv_C
    h = 1e-5 * t
    prof = gramian_profile(spec, np.array([t - h, t + h]))
    _, ld = np.linalg.slogdet(prof.C_t)
    ddt_logdetC = float((ld[1] - ld[0]) / (2 * h))
    scalar_res = abs(trQCinv - ddt_logdetC - 2 * spec.trace_B) / (1.0 + abs(trQCinv))

    EmB = g.exp_minus_tB
    lead = EmB @ spec.Q @ EmB.T
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
