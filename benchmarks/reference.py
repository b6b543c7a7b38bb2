"""Closed forms the benchmark checks the program against.

This module imports nothing from ``hypok``. Every quantity is derived
here from the operator data ``(Q, B)`` by a route of its own:

* ``C(t)`` and ``e^{tB}`` in closed form for the heat, Kolmogorov and
  Ornstein-Uhlenbeck presets and for the step-3 chain, whose entries are
  polynomials in ``t``;
* the log-kernel, ``grad_X log p``, ``d/dt log p`` (differentiated through
  ``C'(t) = e^{-tB} Q e^{-tB'}``, not through the Gramian ODE) and
  ``tr(Q C^{-1}) / 2``;
* ``P_t`` of Gaussian-polynomial terms by whitening against the Cholesky
  factor of the transition covariance and Isserlis moments, any degree;
* the Poisson subordination integral by ``scipy.integrate.quad``;
* the Monte Carlo targets by deterministic quadrature of the bump;
* Gaussian ``L^q`` norms, the ``L^inf`` peak and the Young constant.

A test function is a list of terms ``(coeff, center, shape, monomial)``
standing for ``coeff * w^monomial * exp(-<shape w, w>)``, ``w = Y - center``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special


@dataclass(frozen=True)
class RefSpec:
    """A generator ``tr(Q D^2) + <B X, grad>`` with closed-form Gramians.

    ``kind`` is one of ``heat``, ``kolmogorov``, ``ornstein_uhlenbeck`` and
    ``chain3``; ``n`` is the preset's size argument (ignored by ``chain3``).
    """

    kind: str
    n: int = 1

    @property
    def dim(self) -> int:
        if self.kind == "kolmogorov":
            return 2 * self.n
        if self.kind == "chain3":
            return 3
        return self.n

    @property
    def Q(self) -> np.ndarray:
        d = self.dim
        if self.kind in ("heat", "ornstein_uhlenbeck"):
            return np.eye(d)
        Q = np.zeros((d, d))
        k = self.n if self.kind == "kolmogorov" else 1
        Q[:k, :k] = np.eye(k)
        return Q

    @property
    def B(self) -> np.ndarray:
        d = self.dim
        if self.kind == "heat":
            return np.zeros((d, d))
        if self.kind == "ornstein_uhlenbeck":
            return -np.eye(d)
        if self.kind == "kolmogorov":
            B = np.zeros((d, d))
            B[self.n:, : self.n] = np.eye(self.n)
            return B
        return np.diag([1.0, 1.0], -1)

    @property
    def trace_B(self) -> float:
        return -float(self.n) if self.kind == "ornstein_uhlenbeck" else 0.0

    def exp_B(self, s: float) -> np.ndarray:
        """``e^{sB}`` for any real ``s``."""
        d = self.dim
        if self.kind == "heat":
            return np.eye(d)
        if self.kind == "ornstein_uhlenbeck":
            return math.exp(-s) * np.eye(d)
        # nilpotent drifts: the exponential is a finite Taylor sum
        B = self.B
        return np.eye(d) + s * B + 0.5 * s * s * (B @ B)

    def C(self, t: float) -> np.ndarray:
        """``C(t) = int_0^t e^{-sB} Q e^{-sB'} ds``."""
        d = self.dim
        if self.kind == "heat":
            return t * np.eye(d)
        if self.kind == "ornstein_uhlenbeck":
            return 0.5 * math.expm1(2.0 * t) * np.eye(d)
        if self.kind == "kolmogorov":
            I = np.eye(self.n)
            return np.block(
                [[t * I, -0.5 * t**2 * I], [-0.5 * t**2 * I, t**3 / 3.0 * I]]
            )
        # e^{-sB} e1 = (1, -s, s^2/2): integrate its outer product
        return np.array(
            [
                [t, -(t**2) / 2.0, t**3 / 6.0],
                [-(t**2) / 2.0, t**3 / 3.0, -(t**4) / 8.0],
                [t**3 / 6.0, -(t**4) / 8.0, t**5 / 20.0],
            ]
        )

    def C_dot(self, t: float) -> np.ndarray:
        """``C'(t) = e^{-tB} Q e^{-tB'}``."""
        E = self.exp_B(-t)
        return E @ self.Q @ E.T

    def transition_cov(self, t: float) -> np.ndarray:
        """Covariance ``2 e^{tB} C(t) e^{tB'}`` of ``p(X, ., t)``."""
        if self.kind == "ornstein_uhlenbeck":
            # 2 e^{-2t} (e^{2t} - 1) / 2, written to stay finite for large t
            return -math.expm1(-2.0 * t) * np.eye(self.dim)
        E = self.exp_B(t)
        S = 2.0 * E @ self.C(t) @ E.T
        return 0.5 * (S + S.T)


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2) / math.gamma(n / 2 + 1)


# ---------------------------------------------------------------- kernel


@dataclass(frozen=True)
class KernelRef:
    """Reference kernel quantities for rows of ``X`` and ``Y`` at one ``t``."""

    log_p: np.ndarray
    m_t: np.ndarray
    grad_X: np.ndarray
    dt: np.ndarray
    dt_scale: np.ndarray
    liyau_rhs: float
    cond_C: float


def kernel_ref(spec: RefSpec, X, Y, t: float) -> KernelRef:
    """``log p``, ``m_t``, ``grad_X log p`` and ``d/dt log p``; rows are pairs.

    ``log p = -N/2 log(4 pi) - t tr B - log det C / 2 - <C^{-1} xi, xi> / 4``
    with ``xi = X - e^{-tB} Y``. The time derivative differentiates each
    piece directly: ``d/dt log det C = tr(C^{-1} C')`` and
    ``d xi / dt = B e^{-tB} Y``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    n = spec.dim
    C = spec.C(t)
    Cinv = np.linalg.inv(C)
    _, logdet_C = np.linalg.slogdet(C)
    EmB = spec.exp_B(-t)
    xi = X - Y @ EmB.T
    eta = xi @ Cinv  # C is symmetric
    quad = np.einsum("mi,mi->m", eta, xi)
    log_p = (
        -0.5 * n * math.log(4.0 * math.pi)
        - t * spec.trace_B
        - 0.5 * logdet_C
        - 0.25 * quad
    )
    Cd = spec.C_dot(t)
    xi_dot = Y @ (spec.B @ EmB).T
    pieces = (
        np.full(X.shape[0], -spec.trace_B - 0.5 * float(np.trace(Cinv @ Cd))),
        -0.5 * np.einsum("mi,mi->m", eta, xi_dot),
        0.25 * np.einsum("mi,ij,mj->m", eta, Cd, eta),
    )
    # the Li-Yau left side adds <Q grad, grad> and <B X, grad> to -dt
    lhs_pieces = (
        0.25 * np.einsum("mi,ij,mj->m", eta, spec.Q, eta),
        0.5 * np.einsum("mi,mi->m", X @ spec.B.T, eta),
    )
    return KernelRef(
        log_p=log_p,
        m_t=np.sqrt(t * quad),
        grad_X=-0.5 * eta,
        dt=sum(pieces),
        dt_scale=1.0 + sum(np.abs(p) for p in pieces + lhs_pieces),
        liyau_rhs=0.5 * float(np.trace(spec.Q @ Cinv)),
        cond_C=float(np.linalg.cond(C)),
    )


def kernel_lr_norm_ref(spec: RefSpec, t: float, r: float) -> float:
    """``(int p(X, Y, t)^r dX)^{1/r}``; independent of ``Y``."""
    n = spec.dim
    _, logdet_C = np.linalg.slogdet(spec.C(t))
    log_amp = -0.5 * n * math.log(4.0 * math.pi) - t * spec.trace_B - 0.5 * logdet_C
    # int exp(-r <C^{-1} xi, xi> / 4) d xi = (4 pi / r)^{N/2} det C^{1/2}
    log_int = 0.5 * n * math.log(4.0 * math.pi / r) + 0.5 * logdet_C
    return math.exp(log_amp + log_int / r)


# ------------------------------------------------- Gaussian-polynomial P_t


def isserlis(idx, nu, cov):
    """``E[prod_k W_{idx_k}]`` for rows of ``nu`` as means of ``N(nu, cov)``.

    Recursion on the first factor: ``E[W_i R] = nu_i E[R] + sum_j cov_ij
    E[R / W_j]``, which is Isserlis' theorem for a non-centred Gaussian.
    """
    if not idx:
        return np.ones(nu.shape[0])
    i, rest = idx[0], idx[1:]
    out = nu[:, i] * isserlis(rest, nu, cov)
    for k, j in enumerate(rest):
        out = out + cov[i, j] * isserlis(rest[:k] + rest[k + 1:], nu, cov)
    return out


def _gaussian_expectation(term, mean, cov):
    """``E[coeff w^kappa exp(-<S w, w>)]``, ``w = Y - c``, ``Y ~ N(mean, cov)``.

    ``mean`` has rows (M, N). With ``cov = L L'`` and ``w = mu + L z``, the
    weight tilts ``z ~ N(0, I)`` into a Gaussian with covariance ``G^{-1}``,
    ``G = I + 2 L'S L``, so ``w`` has covariance ``L G^{-1} L'`` and mean
    ``(I - 2 L G^{-1} L' S) mu``. The amplitude is
    ``det(G)^{-1/2} exp(-<M mu, mu>)`` with ``M = (S^{-1} + 2 cov)^{-1}``,
    taken in that form when ``S`` is invertible so that it stays finite
    for large covariances.
    """
    coeff, center, S, kappa = term
    n = S.shape[0]
    L = np.linalg.cholesky(cov)
    mu = mean - center
    Ginv = np.linalg.inv(np.eye(n) + 2.0 * L.T @ S @ L)
    w_cov = L @ Ginv @ L.T
    if np.linalg.eigvalsh(S)[0] > 0:
        M = np.linalg.inv(np.linalg.inv(S) + 2.0 * cov)
    else:
        M = S - 2.0 * S @ w_cov @ S
    _, logdet_Ginv = np.linalg.slogdet(Ginv)
    amp = np.exp(-np.einsum("mi,ij,mj->m", mu, M, mu) + 0.5 * logdet_Ginv)
    w_mean = mu - 2.0 * mu @ (w_cov @ S).T
    idx = tuple(i for i in range(n) for _ in range(kappa[i]))
    return coeff * amp * isserlis(idx, w_mean, w_cov)


def semigroup_ref(spec: RefSpec, terms, t: float, X) -> np.ndarray:
    """``P_t f(X)`` for rows of ``X``."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean = X @ spec.exp_B(t).T
    cov = spec.transition_cov(t)
    return sum(_gaussian_expectation(term, mean, cov) for term in terms)


def gradient_terms(terms):
    """Terms of each partial derivative: ``[terms of d_1 f, ..., d_N f]``."""
    n = len(terms[0][3])
    out = [[] for _ in range(n)]
    for coeff, center, S, kappa in terms:
        for j in range(n):
            if kappa[j]:
                k = list(kappa)
                k[j] -= 1
                out[j].append((coeff * kappa[j], center, S, tuple(k)))
            for l in range(n):
                if S[j, l] != 0.0:
                    k = list(kappa)
                    k[l] += 1
                    out[j].append((-2.0 * S[j, l] * coeff, center, S, tuple(k)))
        for j in range(n):
            if not out[j]:
                out[j].append((0.0, center, S, (0,) * n))
    return out


def semigroup_gradient_ref(spec: RefSpec, terms, t: float, X) -> np.ndarray:
    """``grad_X P_t f(X) = e^{tB'} E[grad f(Y)]`` at one point ``X``."""
    parts = gradient_terms(terms)
    inner = np.array([float(semigroup_ref(spec, p, t, X)[0]) for p in parts])
    return spec.exp_B(t).T @ inner


def function_value(terms, Y) -> np.ndarray:
    """``f(Y)`` for rows of ``Y``, straight from the term list."""
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    out = np.zeros(Y.shape[0])
    for coeff, center, S, kappa in terms:
        w = Y - center
        mono = np.prod(w ** np.asarray(kappa), axis=1)
        out += coeff * mono * np.exp(-np.einsum("mi,ij,mj->m", w, S, w))
    return out


# --------------------------------------------------------------- Poisson


def poisson_ref(profile, z: float) -> float:
    """``int_0^inf z / (2 sqrt(pi)) t^{-3/2} e^{-z^2/(4t)} P_t f(X) dt``.

    ``profile(t)`` returns ``P_t f(X)``. The axis is split at the
    subordinator's scale ``t = z^2``; each piece goes to ``quad``.
    """
    c = z / (2.0 * math.sqrt(math.pi))

    def integrand(t):
        return c * t**-1.5 * math.exp(-z * z / (4.0 * t)) * profile(t)

    head, _ = integrate.quad(integrand, 0.0, z * z, epsabs=1e-13, epsrel=1e-11, limit=200)
    tail, _ = integrate.quad(integrand, z * z, np.inf, epsabs=1e-13, epsrel=1e-11, limit=200)
    return head + tail


# ------------------------------------------------ Monte Carlo targets


def smoothstep_bump(r, r_in, r_out):
    """Radial profile 1 - s^3 (10 - 15 s + 6 s^2), ``s`` clipped to [0, 1]."""
    s = np.clip((r - r_in) / (r_out - r_in), 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def bump_isotropic_ref(rho: float, var: float, r_in: float, r_out: float) -> float:
    """``E[b(|Y - c|)]`` for ``Y ~ N(m, var I_2)``, ``rho = |m - c|``.

    The angular integral of the 2-D Gaussian is a Bessel function, which
    leaves a 1-D integral of the radial profile (Rice density).
    """

    def rice(r):
        # exp(-(r^2+rho^2)/(2 var)) I0(r rho / var), with i0e for range
        x = r * rho / var
        return r / var * math.exp(-((r - rho) ** 2) / (2.0 * var)) * special.i0e(x)

    inner, _ = integrate.quad(rice, 0.0, r_in, epsabs=1e-14, epsrel=1e-12, limit=200)
    edge, _ = integrate.quad(
        lambda r: rice(r) * float(smoothstep_bump(r, r_in, r_out)),
        r_in,
        r_out,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=200,
    )
    return inner + edge


def bump_expectation_ref(
    mean, cov, center, r_in, r_out, terms=None, n_r=96, n_theta=256
) -> float:
    """``E[b(Y) f(Y)]`` for ``Y ~ N(mean, cov)`` in 2-D; ``f = 1`` if no terms.

    Polar coordinates around the bump's centre: Gauss-Legendre in ``r`` on
    ``[0, r_in]`` and ``[r_in, r_out]`` (the profile is a polynomial on
    each) and the periodic trapezoid rule in ``theta``.
    """
    x, w = np.polynomial.legendre.leggauss(n_r)
    pieces = []
    for a, b in ((0.0, r_in), (r_in, r_out)):
        pieces.append((0.5 * (b - a) * (x + 1.0) + a, 0.5 * (b - a) * w))
    r = np.concatenate([p[0] for p in pieces])
    wr = np.concatenate([p[1] for p in pieces])
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    R, T = np.meshgrid(r, theta, indexing="ij")
    pts = np.stack([center[0] + R * np.cos(T), center[1] + R * np.sin(T)], axis=-1)
    pts = pts.reshape(-1, 2)
    P = np.linalg.inv(cov)
    d = pts - mean
    dens = np.exp(-0.5 * np.einsum("mi,ij,mj->m", d, P, d)) / (
        2.0 * math.pi * math.sqrt(np.linalg.det(cov))
    )
    vals = smoothstep_bump(np.repeat(r, n_theta), r_in, r_out) * dens
    if terms is not None:
        vals = vals * function_value(terms, pts)
    weights = np.repeat(wr * r, n_theta) * (2.0 * math.pi / n_theta)
    return float(weights @ vals)


# -------------------------------------------------------- smoothing bounds


def gaussian_norms(amp: float, H: np.ndarray, q: float) -> float:
    """``L^q`` norm of ``amp exp(-<H x, x>)`` on ``R^N``; ``q = inf`` is the peak."""
    if math.isinf(q):
        return abs(amp)
    n = H.shape[0]
    _, logdet = np.linalg.slogdet(H)
    log_int = 0.5 * n * math.log(math.pi / q) - 0.5 * logdet
    return abs(amp) * math.exp(log_int / q)


@dataclass(frozen=True)
class SmoothingRef:
    """Closed-form sides of ``||P_t f||_q <= C V(t)^{-(1/p-1/q)} e^{-t trB/q} ||f||_p``."""

    lhs: float
    norm_f: float
    volume: float
    envelope: float


def smoothing_ref(spec: RefSpec, amp, center, S, p, q, t) -> SmoothingRef:
    """Both sides (without the constant) for ``f = amp exp(-<S w, w>)``.

    ``P_t f(X) = amp det(I + 2 Sigma S)^{-1/2} exp(-<M (m - c), m - c>)``
    with ``m = e^{tB} X``, ``M = (S^{-1} + 2 Sigma)^{-1}``: a Gaussian in
    ``X`` with matrix ``e^{tB'} M e^{tB}``.
    """
    n = spec.dim
    Sigma = spec.transition_cov(t)
    E = spec.exp_B(t)
    M = np.linalg.inv(np.linalg.inv(S) + 2.0 * Sigma)
    amp_t = amp / math.sqrt(np.linalg.det(np.eye(n) + 2.0 * Sigma @ S))
    lhs = gaussian_norms(amp_t, E.T @ M @ E, q)
    norm_f = gaussian_norms(amp, S, p)
    _, logdet_C = np.linalg.slogdet(spec.C(t))
    volume = unit_ball_volume(n) * math.exp(t * spec.trace_B + 0.5 * logdet_C)
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    envelope = volume ** -(1.0 / p - inv_q) * math.exp(-t * spec.trace_B * inv_q) * norm_f
    return SmoothingRef(lhs=lhs, norm_f=norm_f, volume=volume, envelope=envelope)


def young_constant(n: int, p: float, q: float) -> float:
    """Constant of ``||p_t * f||_q <= ||p_t||_r ||f||_p`` on the heat kernel.

    ``1 + 1/q = 1/r + 1/p``. With ``V(t) = omega_N t^{N/2}`` the product
    ``||p_t||_r V(t)^{1/p - 1/q}`` does not depend on ``t``.
    """
    inv_q = 0.0 if math.isinf(q) else 1.0 / q
    inv_r = 1.0 + inv_q - 1.0 / p
    # ||p_1||_r = (4 pi)^{-N/2} (4 pi / r)^{N / (2 r)}
    log_norm = -0.5 * n * math.log(4.0 * math.pi)
    if inv_r > 0:
        log_norm += 0.5 * n * inv_r * math.log(4.0 * math.pi * inv_r)
    return math.exp(log_norm) * unit_ball_volume(n) ** (1.0 / p - inv_q)


def heat_gaussian_ratio(n: int, p: float, q: float, rho: float) -> float:
    """Smoothing ratio of ``exp(-|x|^2 / (2 w^2))`` on the heat kernel.

    The ratio ``||P_t f||_q / (V(t)^{-(1/p-1/q)} ||f||_p)`` depends on
    ``rho = w^2 / t`` alone; every value is a lower bound for the best
    constant of the inequality.
    """
    spec = RefSpec("heat", n)
    S = np.eye(n) / (2.0 * rho)
    ref = smoothing_ref(spec, 1.0, np.zeros(n), S, p, q, 1.0)
    return ref.lhs / ref.envelope
