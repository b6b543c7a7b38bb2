"""Explicit transition kernel and its exact calculus.

The kernel is evaluated in the two published closed forms

    p(X, Y, t) = c_N / V(t) * exp(-m_t(X, Y)^2 / (4 t))
    p(X, Y, t) = (4 pi)^{-N/2} e^{-t tr B} det(C(t))^{-1/2}
                 * exp(-<C(t)^{-1} xi, xi> / 4),   xi = X - e^{-tB} Y,

where m_t is the non-symmetric pseudo-distance built from the averaged
Gramian K(t) and V(t) = omega_N det(t K(t))^{1/2} is the volume
function.  Both forms are computed on every call and the relative gap is
reported, which turns each evaluation into a self-check of the Gramian
identities connecting K and C.

The time derivative of log p closes through d/dt log det C(t) =
tr(Q C(t)^{-1}) - 2 tr B, and combining it with the spatial gradient
-C(t)^{-1} xi / 2 makes the kernel-level Li-Yau expression collapse to
tr(Q C(t)^{-1}) / 2 exactly; ``liyau_kernel_identity`` exposes the two
sides separately so the collapse is verified rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    DomainError,
    KernelConstants,
    OperatorSpec,
    _check_time,
    gramians,
)

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


def _point(x, dim):
    x = np.asarray(x, dtype=float)
    if x.shape != (dim,):
        raise ValueError("expected a point in R^%d, got shape %s" % (dim, x.shape))
    return x


@dataclass(frozen=True)
class KernelEval:
    """One kernel evaluation with its internal consistency record.

    value is taken from the pseudo-distance form; form_residual is the
    relative gap against the drift-free-variable form and should sit at
    roundoff level whenever the Gramian identities hold.
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


def pseudo_distance(spec: OperatorSpec, X, Y, t) -> float:
    """Pseudo-distance m_t(X, Y) = <K(t)^{-1} d, d>^{1/2}, d = Y - e^{tB} X.

    Vectorised over a leading batch axis of Y; X is a single point.
    Not symmetric in (X, Y) unless e^{tB} is orthogonal and commutes
    with K(t), e.g. for the pure heat preset.
    """
    t = _check_time(t, T_MIN)
    g = gramians(spec, t)
    X = _point(X, spec.dim)
    Y = np.asarray(Y, dtype=float)
    if Y.shape[-1:] != (spec.dim,):
        raise ValueError("Y must have trailing dimension %d" % spec.dim)
    d = Y - g.exp_tB @ X
    q = np.einsum("...i,ij,...j->...", d, g.inv_K_t, d)
    out = np.sqrt(np.clip(q, 0.0, None))
    return out if out.ndim else float(out)


def volume(spec: OperatorSpec, t) -> float:
    """Volume function V(t) = omega_N det(t K(t))^{1/2}."""
    t = _check_time(t, T_MIN)
    g = gramians(spec, t)
    const = KernelConstants.for_dim(spec.dim)
    return const.omega_N * math.exp(0.5 * g.logdet_tK)


def heat_kernel(spec: OperatorSpec, X, Y, t) -> KernelEval:
    """Evaluate the transition kernel p(X, Y, t) in both closed forms."""
    t = _check_time(t, T_MIN)
    g = gramians(spec, t)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)
    const = KernelConstants.for_dim(spec.dim)

    d = Y - g.exp_tB @ X
    q = float(np.clip(d @ (g.inv_K_t @ d), 0.0, None))
    m_t = math.sqrt(q)
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

    value = math.exp(log_a)
    value_b = math.exp(log_b)
    residual = abs(value - value_b) / max(value, value_b, 1e-300)
    return KernelEval(value=value, m_t=m_t, log_value=log_a, form_residual=residual)


def pseudo_ball_contains(spec: OperatorSpec, X, r, t, Y) -> bool:
    """Membership Y in B_t(X, r), the sublevel set m_t(X, .) < r."""
    r = float(r)
    if not math.isfinite(r) or r <= 0.0:
        raise DomainError("radius must be positive")
    return bool(pseudo_distance(spec, X, Y, t) < r)


def _log_derivative_parts(spec, g, X, Y):
    """eta = C(t)^{-1} xi, tr(Q C(t)^{-1}) and d/dt log p from one bundle g."""
    xi = X - g.exp_minus_tB @ Y
    eta = g.inv_C_t @ xi
    trace_qc = float(np.trace(spec.Q @ g.inv_C_t))
    dt = (
        -0.5 * trace_qc
        + 0.25 * float(eta @ (spec.Q @ eta))
        - 0.5 * float((spec.B @ X) @ eta)
    )
    return eta, trace_qc, dt


def kernel_log_derivatives(spec: OperatorSpec, X, Y, t) -> KernelLogDerivatives:
    """Exact grad_X log p and d/dt log p.

    With xi = X - e^{-tB} Y and eta = C(t)^{-1} xi,

        grad_X log p = -eta / 2
        d/dt  log p = -tr(Q C^{-1}) / 2 + <Q eta, eta> / 4 - <B X, eta> / 2,

    the time formula using d/dt log det C = tr(Q C^{-1}) - 2 tr B and the
    Gramian ODE C' = Q - B C - C B'.
    """
    t = _check_time(t, T_MIN)
    g = gramians(spec, t)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)
    eta, _, dt = _log_derivative_parts(spec, g, X, Y)
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
    g = gramians(spec, s)
    X = _point(X, spec.dim)
    Y = _point(Y, spec.dim)
    eta, trace_qc, dt = _log_derivative_parts(spec, g, X, Y)
    grad = -0.5 * eta
    lhs = (
        float(grad @ (spec.Q @ grad))
        + float((spec.B @ X) @ grad)
        - dt
    )
    return LiYauKernelIdentity(lhs=lhs, rhs=0.5 * trace_qc)
