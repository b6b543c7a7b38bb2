"""Explicit transition kernel and its exact calculus.

The kernel is evaluated in the two published closed forms

    p(X, Y, t) = c_N / V(t) * exp(-m_t(X, Y)^2 / (4 t))
    p(X, Y, t) = (4 pi)^{-N/2} e^{-t tr B} det(C(t))^{-1/2}
                 * exp(-<C(t)^{-1} xi, xi> / 4),   xi = X - e^{-tB} Y,

where m_t is the non-symmetric pseudo-distance built from the averaged
Gramian K(t) and V(t) = omega_N det(t K(t))^{1/2} is the volume
function.  Both forms are computed on every call and compared in log
space: the reported gap 1 - exp(-|log p_a - log p_b|) is the relative gap
of the two values, and it stays readable where both values underflow to
0.  This turns each evaluation into a self-check of the Gramian
identities connecting K and C.  The inverses, tr(Q C(t)^{-1}) and the
prefactors are built once per (spec, t) from the Gramian bundle and kept
in the kernel's own memo, ``_frame``, so a call at a known (spec, t)
costs only its point arithmetic and makes no Gramian call.

The time derivative of log p closes through d/dt log det C(t) =
tr(Q C(t)^{-1}) - 2 tr B, and combining it with the spatial gradient
-C(t)^{-1} xi / 2 makes the kernel-level Li-Yau expression collapse to
tr(Q C(t)^{-1}) / 2 exactly; ``liyau_kernel_identity`` exposes the two
sides separately so the collapse is verified rather than assumed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    GRAMIAN_CACHE_SIZE,
    DomainError,
    KernelConstants,
    OperatorSpec,
    _check_time,
    _point,
    _points,
    _read_only,
    gramians,
)
from .testfuncs import _quad_form

__all__ = [
    "KernelEval",
    "KernelLogDerivatives",
    "LiYauKernelIdentity",
    "T_MIN",
    "pseudo_distance",
    "volume",
    "heat_kernel",
    "pseudo_ball_contains",
    "kernel_log_derivatives",
    "liyau_kernel_identity",
]

# below this the prefactor c_N / V(t) overflows before the exponent can
# compensate, so evaluations are rejected rather than returned as inf
T_MIN = 1e-12


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its internal consistency record.

    value is taken from the pseudo-distance form; form_residual is the
    relative gap 1 - exp(-|log_value - log p_b|) against the
    drift-free-variable form p_b, taken in log space so that it stays
    meaningful where both values underflow, and should sit at roundoff
    level whenever the Gramian identities hold.
    """

    value: float
    m_t: float
    log_value: float
    form_residual: float


@dataclass(frozen=True, eq=False)
class KernelLogDerivatives:
    """Closed-form grad_X log p and d/dt log p at one point."""

    grad_X: np.ndarray
    dt: float


@dataclass(frozen=True)
class LiYauKernelIdentity:
    """Both sides of the kernel-level Li-Yau equality at time gap t - tau."""

    lhs: float
    rhs: float


@dataclass(frozen=True, eq=False)
class _KernelFrame:
    """What the kernel reads at one time: e^{+-tB} and the inverses of K(t)
    and C(t) (read-only), tr(Q C(t)^{-1}) and the log prefactors of both forms."""

    exp_tB: np.ndarray
    exp_minus_tB: np.ndarray
    inv_K_t: np.ndarray
    inv_C_t: np.ndarray
    trace_Q_inv_C: float
    log_norm_m: float
    log_norm_C: float


@functools.lru_cache(maxsize=GRAMIAN_CACHE_SIZE)
def _frame(spec: OperatorSpec, t: float) -> _KernelFrame:
    """The frame at a checked time t, built once per (spec, t) from one bundle."""
    g = gramians(spec, t)
    inv_C_t = _read_only(np.linalg.inv(g.C_t))
    const = KernelConstants.for_dim(spec.dim)
    # log(c_N / V(t)), and log of (4 pi)^{-N/2} e^{-t tr B} det(C(t))^{-1/2}
    log_norm_m = math.log(const.c_N) - (math.log(const.omega_N) + 0.5 * g.logdet_tK)
    log_norm_C = -0.5 * spec.dim * math.log(4.0 * math.pi) - t * spec.trace_B - 0.5 * g.logdet_C
    return _KernelFrame(g.exp_tB, g.exp_minus_tB, _read_only(np.linalg.inv(g.K_t)), inv_C_t,
                        float((spec.Q @ inv_C_t).trace()), log_norm_m, log_norm_C)


def _rescaled_m_t(inv_K, d):
    """<K^{-1} d, d>^{1/2} from d scaled by its max |d|, for rows d != 0
    whose form overflowed (to +-inf, or to nan from inf - inf) or sank
    below tiny / eps = 2^-970, where subnormals cost it relative digits,
    although the root is a normal float."""
    s = np.max(np.abs(d), axis=-1)
    return s * np.sqrt(np.maximum(_quad_form(inv_K, d / s[..., None]), 0.0))


def pseudo_distance(spec: OperatorSpec, X, Y, t) -> float:
    """Pseudo-distance m_t(X, Y) = <K(t)^{-1} d, d>^{1/2}, d = Y - e^{tB} X.

    Vectorised over any leading axes of Y; X is a single point.
    Not symmetric in (X, Y) unless e^{tB} is orthogonal and commutes
    with K(t), e.g. for the pure heat preset.  The batch is taken
    coordinate-major, d as one contiguous (N, M) array, so the
    subtraction and the form run along the M points.
    """
    t = _check_time(t, T_MIN)
    g = _frame(spec, t)
    X = _point(X, spec.dim)
    Y = _points(Y, spec.dim)
    d = np.subtract(Y.reshape(-1, spec.dim).T, (g.exp_tB @ X)[:, None], order="C")
    q = np.einsum("ij,ij->j", g.inv_K_t @ d, d).reshape(Y.shape[:-1])
    out = np.sqrt(np.maximum(q, 0.0))
    # np.vdot warns of no overflow, unlike matmul: its sum is finite unless
    # an entry of q is not (or the sum overflows, and the mask below decides)
    if not (math.isfinite(np.vdot(q, q)) and q.min(initial=math.inf) >= 2.0**-970):
        out = np.array(out)
        rows = d.T.reshape(Y.shape)
        redo = ~((q >= 2.0**-970) & (q < math.inf)) & rows.any(axis=-1)
        out[redo] = _rescaled_m_t(g.inv_K_t, rows[redo])
    return out if out.ndim else float(out)


def volume(spec: OperatorSpec, t) -> float:
    """Volume function V(t) = omega_N det(t K(t))^{1/2}; DomainError past the float range."""
    t = _check_time(t, T_MIN)
    log_omega = math.log(KernelConstants.for_dim(spec.dim).omega_N)
    try:
        return math.exp(log_omega + 0.5 * gramians(spec, t).logdet_tK)
    except OverflowError:
        raise DomainError("V(t) exceeds the float range") from None


def heat_kernel(spec: OperatorSpec, X, Y, t) -> KernelEval:
    """Evaluate the transition kernel p(X, Y, t) in both closed forms."""
    t = _check_time(t, T_MIN)
    g = _frame(spec, t)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)

    # vdot is the BLAS dot product of the matmul, without its overflow
    # warning; a form that overflows is +inf, and the kernel underflows to 0
    d = Y - g.exp_tB @ X
    q = float(np.vdot(d, g.inv_K_t @ d))
    q = max(q, 0.0) if math.isfinite(q) else math.inf
    if 2.0**-970 <= q < math.inf or not d.any():
        m_t = math.sqrt(q)
    else:
        m_t = float(_rescaled_m_t(g.inv_K_t, d))
    log_a = g.log_norm_m - q / (4.0 * t)

    xi = X - g.exp_minus_tB @ Y
    qc = float(np.vdot(xi, g.inv_C_t @ xi))
    log_b = g.log_norm_C - 0.25 * (qc if math.isfinite(qc) else math.inf)

    # equal logs, -inf included (an overflowing quadratic form), read 0
    residual = 0.0 if log_a == log_b else -math.expm1(-abs(log_a - log_b))
    return KernelEval(value=math.exp(log_a), m_t=m_t, log_value=log_a, form_residual=residual)


def pseudo_ball_contains(spec: OperatorSpec, X, r, t, Y):
    """Membership Y in B_t(X, r), the sublevel set m_t(X, .) < r.

    A Python bool for one point ``Y``; a bool array over the leading axes
    of a batch, as :func:`pseudo_distance` is vectorised.
    """
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError("radius must be positive")
    # a float comparison is a Python bool, an array comparison a bool array
    return pseudo_distance(spec, X, Y, t) < r


def _log_derivative_parts(spec, g, X, Y):
    """eta = C(t)^{-1} xi, <Q eta, eta>, <B X, eta> and d/dt log p from one frame g."""
    eta = g.inv_C_t @ (X - g.exp_minus_tB @ Y)
    eta_Q_eta = float(eta @ (spec.Q @ eta))
    BX_eta = float((spec.B @ X) @ eta)
    dt = -0.5 * g.trace_Q_inv_C + 0.25 * eta_Q_eta - 0.5 * BX_eta
    return eta, eta_Q_eta, BX_eta, dt


def kernel_log_derivatives(spec: OperatorSpec, X, Y, t) -> KernelLogDerivatives:
    """Exact grad_X log p and d/dt log p.

    With xi = X - e^{-tB} Y and eta = C(t)^{-1} xi,

        grad_X log p = -eta / 2
        d/dt  log p = -tr(Q C^{-1}) / 2 + <Q eta, eta> / 4 - <B X, eta> / 2,

    the time formula using d/dt log det C = tr(Q C^{-1}) - 2 tr B and the
    Gramian ODE C' = Q - B C - C B'.
    """
    t = _check_time(t, T_MIN)
    g = _frame(spec, t)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)
    eta, _, _, dt = _log_derivative_parts(spec, g, X, Y)
    return KernelLogDerivatives(grad_X=-0.5 * eta, dt=dt)


def liyau_kernel_identity(spec: OperatorSpec, X, Y, t, tau) -> LiYauKernelIdentity:
    """Both sides of the exact kernel identity behind the Li-Yau bound.

    At time gap s = t - tau the expression

        <Q grad_X log p, grad_X log p> + <B X, grad_X log p> - d/ds log p

    equals tr(Q C(s)^{-1}) / 2 identically in (X, Y).  The left side is
    assembled from the closed-form derivatives, the right side from the
    Gramian directly, so the returned pair is a floating-point check of
    the cancellation rather than one number copied twice.
    """
    s = float(t) - float(tau)
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError("need t > tau")
    s = _check_time(s, T_MIN)
    g = _frame(spec, s)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)
    _, eta_Q_eta, BX_eta, dt = _log_derivative_parts(spec, g, X, Y)
    # with grad_X log p = -eta / 2 the two quadratic terms are eta's scaled
    # by powers of two, which is exact in floating point
    lhs = 0.25 * eta_Q_eta - 0.5 * BX_eta - dt
    return LiYauKernelIdentity(lhs=lhs, rhs=0.5 * g.trace_Q_inv_C)
