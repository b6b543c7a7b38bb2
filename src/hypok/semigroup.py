"""Semigroup and Poisson-semigroup application, kernel norms, ultracontractivity.

P_t acts on the Gaussian-polynomial family in closed form: the
transition density is exactly Gaussian, so P_t f and its gradient are
the Gaussian convolutions of ``testfuncs.exact_semigroup_oracle``.
Compactly supported profiles, which have no closed form, take a
randomised spherical-radial rule (Deak 1980, Numer. Math. 35; Genz and
Monahan 1998, SIAM J. Sci. Comput. 19): E f(mu + A w) with w = rho theta
is exact along each ray to roundoff, and only the directions theta are
random, Philox-seeded rotations of one fixed design shared by every call.
Each ray's squared radius about the bump centre is in vertex form, its
distance p formed at the vertex itself, so the crossings of the bump's
radii do not cancel however far the transition mean lies from the bump.
The Poisson semigroup is subordinated to P_t with the time axis split at
t = z^2 and mapped onto (0, 1] on each side, so both the flat short-time
end and the algebraic long-time decay are analytic in the quadrature
variable; a call takes one engine pass for its whole time grid.
Single-time calls, like Poisson grids, leave the per-time (spec, t)
Gramian memo untouched.

The L^p -> L^q smoothing check works in the transition mean u = e^{tB} X:
there P_t f is f * N(0, Sigma), Sigma = 2 t K(t), and dX = e^{-t tr B} du,
so ||P_t f||_q is e^{-t tr B / q} ||f * N(0, Sigma)||_q, and the check
reads only Sigma and log det(t K(t)) off one bundle.  A single Gaussian
(one term of monomial degree 0) has both norms in closed form, in any N,
from one slogdet.  Every other Schwartz function takes tensor norm grids
(N <= 3), laid in u along the covariances of its convolved terms.

Every tensor grid (Gauss-Legendre and uniform, for the norms) is summed
in C-order blocks of at most ``GRID_BLOCK`` points, so no full grid is
ever held in memory.  Blocks hold 8192 points, so a coordinate array
(64 KB) stays below glibc's default 128 KB mmap threshold and its
temporaries are reused from the heap.  A ray call evaluates
``RAY_BLOCK`` panels of ``RAY_NODES`` nodes per chunk, one small matmul
per polynomial, and holds no other temporary of more than
RAY_BLOCK * RAY_NODES floats per coordinate (see :func:`_mc_means`).

Kernel L^r norms over the first kernel slot are Gaussian integrals in
closed form, value = c_{N,r} V(t)^{-(1-1/r)} e^{-t tr B / r} with
c_{N,r} = [(4 pi)^{-N/2} omega_N]^{1-1/r} r^{-N/(2r)}.  In u the factor
e^{-t tr B / q} multiplies both sides of the smoothing bound, which is
then the sharp Young inequality for f * N(0, Sigma) (Beckner 1975, Ann.
Math. 102), with the smoothing constant
C(N, p, q) = (A_p A_r A_{q'})^N c_{N,r}, 1 + 1/q = 1/p + 1/r, with the
Babenko-Beckner factors A_m = (m^{1/m} / m'^{1/m'})^{1/2}, A_1 = A_inf = 1.
Gaussian kernels have only Gaussian maximisers (Lieb 1990, Invent. Math.
102); a Gaussian f of matched width attains C on the heat kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .operator_core import (
    DomainError,
    KernelConstants,
    OperatorSpec,
    _block_gramians,
    _check_time,
    _point,
    gramians,
    sym_sqrt,
)
from .testfuncs import (
    CompactBump,
    ModulatedBump,
    TestFunction,
    UnsupportedDegreeError,
    _check_function,
    _convolution_det,
    _convolution_factors,
    _convolve,
    _matmul,
    exact_semigroup_oracle,
    exact_semigroup_profile,
)

__all__ = [
    "QuadratureSpec",
    "SemigroupValue",
    "UltracontractivityResult",
    "DEFAULT_QUAD",
    "GRID_BLOCK",
    "apply_semigroup",
    "apply_semigroup_report",
    "semigroup_gradient",
    "apply_poisson",
    "kernel_lr_norm",
    "lr_norm_constant",
    "lp_norm",
    "sup_norm",
    "ultracontractivity_check",
    "ultracontractivity_constant",
]

MC_REPLICATES = 8
# rays per replicate at N = 2, equally spaced; N = 1 takes its two
# half-lines, N >= 3 SPACE_TURNS independent turns of the 2 N^2 rays +-e_i
# and (+-e_i +-e_j) / sqrt(2)
PLANE_RAYS, SPACE_TURNS = 32, 32
# Gauss-Legendre nodes per ray panel, and the longest panel in the
# whitened radius: the chi_N density is then resolved to roundoff
RAY_NODES, RAY_PANEL = 12, 2.0
# equal panels per transition stretch past which a block grades them, and
# the log-step of the grading
RAY_EQUAL_MAX, LOG3 = 16, math.log(3.0)
# (time node, ray) pairs per block, and panels per chunk, of _mc_means
RAY_BLOCK = 2048
# points per block of a tensor grid; bounds the memory of every grid sum.
# One coordinate or value array of a block is then 64 KB, below glibc's
# default 128 KB mmap threshold, so the temporaries of each block are
# reused from the heap instead of being mapped and page-faulted anew
GRID_BLOCK = 1 << 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Direction seed of the compact-profile values and time resolution of
    :func:`apply_poisson`; the smoothing check needs neither.

    ``rng_seed``, an integer in [0, 2^64), orients the rays of the
    compact-profile rule (:func:`_directions`), the same for every call.
    ``time_nodes``, an integer >= 80, is the Gauss-Legendre node count of
    :func:`apply_poisson`, ``time_nodes // 2`` on each side of its split.
    """

    time_nodes: int = 200
    rng_seed: int = 20260822

    def __post_init__(self):
        for name, low, high in (("time_nodes", 80, math.inf), ("rng_seed", 0, 2**64 - 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer" % name)
            if not low <= value <= high:
                raise ValueError("%s must lie in [%s, %s]" % (name, low, high))
            object.__setattr__(self, name, int(value))


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class SemigroupValue:
    """One semigroup application; ``stderr`` is the standard error of a
    randomised rule (method ``"monte-carlo"``), 0 for the closed form."""

    value: float
    stderr: float
    method: str


@dataclass(frozen=True)
class UltracontractivityResult:
    """Both sides of the L^p -> L^q smoothing bound plus bookkeeping.

    ``lhs`` and ``rhs`` carry the drift factor e^{-t tr B / q}, and
    ``passed`` is decided without it, allowing ``tail_bound = 1e-8
    (|lhs| + |rhs|)``; ``p`` and ``q`` may be inf.  ``method`` is
    ``"closed-form"`` or ``"grid"``, the route of the two norms; a grid
    L^inf norm is a uniform-grid maximum, a lower estimate of the sup
    that ``tail_bound`` does not cover.
    """

    lhs: float
    rhs: float
    passed: bool
    constant: float
    trace_b_negative: bool
    tail_bound: float
    method: str


def _uniform(order):
    """Equispaced nodes on [-1, 1] with unit weights (for maxima, not sums)."""
    return np.linspace(-1.0, 1.0, order), np.ones(order)


def _leggauss(order):
    """Gauss-Legendre nodes and weights on [-1, 1], numpy's rule Newton-polished
    in long double: numpy's misses its low moments by up to a few ulps, of
    one sign at some orders, which a mean over many ray panels turns into a
    bias."""
    x = np.polynomial.legendre.leggauss(order)[0].astype(np.longdouble)
    for _ in range(2):
        p0, p1 = np.ones_like(x), x
        for k in range(2, order + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = order * (x * p1 - p0) / (x * x - 1)
        x = x - p1 / slope
    return x.astype(float), (2 / ((1 - x * x) * slope**2)).astype(float)


# every adaptive norm order (96 to 256) fits, so each is polished once
@lru_cache(maxsize=256)
def _rule(rule, order):
    nodes, weights = rule(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _grid_blocks(rule, order, dim, scale=1.0):
    """Yield the tensor grid of a 1-D rule on scale * [nodes]^dim in blocks.

    Blocks follow C order (first axis slowest), hold at most GRID_BLOCK
    points each and come with their product weights.  Each block is a
    run of leading-axis positions crossed with the whole last axis (every
    axis leads at dim = 1 or order > GRID_BLOCK).  The ``(M, dim)``
    points are column-major, so elementwise work on them runs along M
    rather than along the short coordinate axis.  Every block is a
    read-only view of one buffer that the next block overwrites; only
    the leading coordinates change between blocks.
    """
    nodes, weights = _rule(rule, order)
    if scale != 1.0:
        nodes, weights = scale * nodes, scale * weights
    tail = dim > 1 and order <= GRID_BLOCK
    lead, tail_w = dim - tail, weights if tail else np.ones(1)
    n_lead = order**lead
    step = min(GRID_BLOCK // tail_w.size, n_lead)
    pts = np.empty((dim, step, tail_w.size))
    if tail:
        pts[lead] = nodes
    w = np.empty((step, tail_w.size))
    for start in range(0, n_lead, step):
        run = np.arange(start, min(start + step, n_lead))
        ix = np.stack(np.unravel_index(run, (order,) * lead))
        k = run.size
        pts[:lead, :k] = nodes[ix][:, :, None]
        np.multiply.outer(np.prod(weights[ix], axis=0), tail_w, out=w[:k])
        block, block_w = pts[:, :k].reshape(dim, -1).T, w[:k].ravel()
        block.flags.writeable = False
        block_w.flags.writeable = False
        yield block, block_w


def _check_input(spec, f, X, kinds):
    """X as a float point of R^N, once f is one of ``kinds`` on R^N."""
    _check_function(spec, f, kinds)
    return _point(X, spec.dim)


@lru_cache(maxsize=8)
def _directions(dim, rng_seed):
    """Read-only unit rays (MC_REPLICATES * L, dim), replicate i in rows i L to (i + 1) L:
    the design of PLANE_RAYS (SPACE_TURNS copies of it for dim >= 3), each
    copy turned by the sign-fixed Q of the QR of its own standard normal
    (dim, dim) draw from Philox(key=[rng_seed, i]), a Haar rotation, so
    each ray is uniform on the sphere."""
    if dim == 2:
        angle = (2.0 * math.pi / PLANE_RAYS) * np.arange(PLANE_RAYS)
        design = np.stack([np.cos(angle), np.sin(angle)], axis=1)
    else:
        eye, (i, j) = np.eye(dim), np.triu_indices(dim, 1)
        design = np.concatenate([eye, (eye[i] + eye[j]) / 2**0.5, (eye[i] - eye[j]) / 2**0.5])
        design = np.concatenate([design, -design])
    turns = 1 if dim <= 2 else SPACE_TURNS
    out = np.empty((MC_REPLICATES, turns) + design.shape)
    for rep in range(MC_REPLICATES):
        # uint64 words: a list holding a seed >= 2^63 would pass floats
        rng = np.random.Generator(np.random.Philox(key=np.array([rng_seed, rep], dtype=np.uint64)))
        q, r = np.linalg.qr(rng.standard_normal(size=(turns, dim, dim)))
        q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        out[rep] = design @ q.transpose(0, 2, 1)
    out = out.reshape(-1, dim)
    out.setflags(write=False)
    return out


# Chebyshev coefficients of erfcx(x) = e^{x^2} erfc(x) in t = (x - 2) / (x + 2)
# on x >= 0 (Schonfelder 1978, Math. Comp. 32), from 50-digit mpmath values
# at 200 Chebyshev points; the first one left out is 1.8e-18
ERFCX_SERIES = (
    0.37737609962585944, -0.4825091196506807, 0.12232459533097705, -0.017831149719276792,
    0.00032117365249439837, 0.0003503952564796157, -2.243880650620326e-05,
    -1.0537433119356064e-05, 5.671331132647553e-07, 4.297681576665876e-07,
    5.104952512865141e-09, -1.8899699318179606e-08, -2.242755529856193e-09,
    6.855254370550185e-10, 2.1487959525733994e-10, -5.515409718485674e-12,
    -1.3477495048063454e-11, -2.0863894672105998e-12, 4.481881445148597e-13,
    2.2684175777875652e-13, 1.8505867519748427e-14, -1.1509611397547722e-14,
    -4.00989014707125e-15, -1.398284570577713e-16, 2.635380772175244e-16, 7.953987696969458e-17,
    9.151033515544547e-19, -6.071172780200994e-18,
)


def _erfc(x):
    """erfc(x) elementwise for finite x >= 0, within a few ulps: erfcx(x) by
    Clenshaw's recurrence on ERFCX_SERIES, times e^{-x^2} taken as
    e^{-h^2} e^{-(x - h)(x + h)}, h = x rounded down to 1/16, whose h^2 is
    exact (x < 2^20), so the exponent loses no digits."""
    t = (x - 2.0) / (x + 2.0)
    twice, b1, b2 = 2.0 * t, 0.0, 0.0
    for c in ERFCX_SERIES[:0:-1]:
        b1, b2 = twice * b1 - b2 + c, b1
    h = np.floor(16.0 * x) / 16.0
    return np.exp(-h * h) * np.exp(-(x - h) * (x + h)) * (t * b1 - b2 + ERFCX_SERIES[0])


def _chi_tail(dim, rho):
    """P(|w| > rho), w ~ N(0, I_dim), rho >= 0 finite: with x = rho^2 / 2 the
    sum of x^j e^{-x} / Gamma(j + 1) over j = 0, 1, ... < dim / 2 (even dim),
    or over j = 1/2, 3/2, ... < dim / 2 plus erfc(sqrt x) (odd dim)."""
    x = 0.5 * rho * rho
    total, term, j = 0.0, np.exp(-x), 0.5 * (dim % 2)
    if dim % 2:
        root = np.sqrt(x)
        total, term = _erfc(root), term * root / math.gamma(1.5)
    while j < 0.5 * dim:
        total = total + term
        j += 1.0
        if j < 0.5 * dim:
            term = term * x / j
    return total


def _panel_count(length, z):
    """Panels of length at most z on stretches of signed ``length``: 0 on
    an empty stretch, at least 1 on any other; inf past the float range or
    where z underflowed to 0 (a thin plateau's, which its block grades)."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return np.fmax(np.ceil(np.abs(length) / z), length != 0.0)


def _mc_means(f, mus, roots, quad):
    """Replicate means (K, MC_REPLICATES) of E f(mu_k + A_k w), w ~ N(0, I).

    With w = rho theta, rho ~ chi_N and theta on the rays of
    :func:`_directions`, the squared radius along the ray v = A theta
    (m = mu - center) is taken in vertex form, |m + rho v|^2 = p^2 +
    |v|^2 (rho - rho*)^2, rho* = -<m, v> / |v|^2, with the distance p =
    |m + rho* v| formed from that point itself: the expanded quadratic's
    |m|^2 - <m, v>^2 / |v|^2 cancels to garbage once |m| >> r_out.  The
    crossings rho* -+ sqrt((r^2 - p^2) / |v|^2) of r_in and r_out, clipped
    to [0, cap] where the chi_N tail drops below roundoff, cut rho >= 0
    into a plateau between two transition stretches (split at the vertex
    when the ray misses the plateau, empty when it misses the bump).  A
    plain bump's plateau is an exact chi_N increment; every other stretch
    takes Gauss-Legendre panels, a ModulatedBump's factor at the nodes.

    Along a ray the radius R = |m + rho v| (p at the vertex) has complex
    branch points R / |v| >= r_in / |v| from rho, so equal
    transition panels are at most 2 r_in / |v| long.  A block that would
    need more than RAY_EQUAL_MAX of them on a stretch (a thin plateau)
    grades its transition stretches instead: from the near end in steps
    of log 3 in u = log(R + sqrt(R^2 - p^2)), each panel within twice its
    own distance from the branch points, up to the radius where that
    reaches the longest panel, in equal panels beyond; a plateau
    r_in << r_out then costs about log(r_out / r_in) panels.

    Grading only places the panel ends, so on every panel rho = mid +
    half x is affine in the Gauss-Legendre node x, and |m + rho v|^2 =
    p^2 + |v|^2 (mid - rho* + half x)^2, -rho^2 / 2, rho^(N-1) and a
    factor's points mu + rho v are polynomials in x: a window of panels
    gets one coefficient row per panel and polynomial, and a chunk of
    RAY_BLOCK of them evaluates a polynomial of k coefficients as one
    (RAY_NODES, k) by (k, RAY_BLOCK) matmul against the powers of the
    nodes.  Set-up blocks (whole times,
    one time when its rays are more) and windows hold at most
    RAY_BLOCK * RAY_NODES / 4 pairs or panels, so a temporary of up to
    four floats per pair or panel, like a chunk's node values, holds at
    most RAY_BLOCK * RAY_NODES floats, and one of N coordinates N times
    that.
    """
    K, n = mus.shape
    bump, factor = (f.bump, f.f) if isinstance(f, ModulatedBump) else (f, None)
    r_in, r_out = bump.inner_radius, bump.outer_radius
    dirs = _directions(n, quad.rng_seed)
    # past cap the chi_N tail is below e^{-42} (Laurent and Massart 2000,
    # Ann. Statist. 28: P(|w|^2 >= N + 2 sqrt(N x) + 2 x) <= e^{-x})
    rays, cap = dirs.shape[0], math.sqrt(n + 2.0 * math.sqrt(42.0 * n) + 84.0)
    x, w = _rule(_leggauss, RAY_NODES)
    # powers[i, j] = x_i^j; the chi_N density's 2^{N/2-1} Gamma(N/2) rides on w
    powers = x[:, None] ** np.arange(max(n, 3))
    w = w * math.exp(-(0.5 * n - 1.0) * math.log(2.0) - math.lgamma(0.5 * n))
    rows = RAY_BLOCK * RAY_NODES // 4
    sums = np.empty((K, rays))
    step = max(rows // rays, 1)
    for first in range(0, K, step):
        blk = slice(first, min(first + step, K))
        m = mus[blk] - bump.center
        # V[k, i, r] = (A_k theta_r)_i in one matmul
        V = (roots[blk].reshape(-1, n) @ dirs.T).reshape(-1, n, rays)
        a = np.einsum("kir,kir->kr", V, V)
        # the vertex rho* (0 on a ray v = 0, whose <m, v> is 0 too) and the
        # squared distance p^2 = |m + rho* v|^2 of the ray from the centre
        vertex = -np.einsum("kir,ki->kr", V, m) / np.where(a > 0.0, a, 1.0)
        P = m[:, :, None] + vertex[:, None, :] * V
        p2 = np.einsum("kir,kir->kr", P, P)
        # the crossings rho* -+ h of r_out and r_in in rho order, clipped to
        # [0, cap]; a ball the ray misses has h = 0, an empty stretch
        with np.errstate(divide="ignore", invalid="ignore"):
            h_out, h_in = (np.sqrt(np.maximum(r * r - p2, 0.0) / a) for r in (r_out, r_in))
        e0, e1, e2, e3 = np.fmin(np.fmax(vertex + np.stack([-h_out, -h_in, h_in, h_out]), 0.0), cap)
        if factor is None:
            acc = _chi_tail(n, e1) - _chi_tail(n, e2)
            span = RAY_PANEL
        else:
            # a factor term e^{-<S(y - c), y - c>} narrows e^{-rho^2/2} to
            # e^{-(1/2 + v'Sv) rho^2} along the ray v = A theta
            curv = reduce(np.maximum, ((V * (t.shape @ V)).sum(axis=1) for t in factor.terms))
            span = RAY_PANEL / np.sqrt(1.0 + 2.0 * curv)
            acc = np.zeros(a.shape)
            ray_v = V.transpose(0, 2, 1).reshape(-1, n)

        # the falling stretch [e0, e1] and the rising [e2, e3] from their
        # near ends, in equal panels or graded ones (see the docstring)
        near, far = np.stack([e1, e2]), np.stack([e0, e3])
        with np.errstate(divide="ignore"):
            unit = np.minimum(2.0 * r_in / np.sqrt(a), span)
        # sub-stretch groups (lo, length, panels, warp): the transition
        # stretches in equal panels, unless they would need more than
        # RAY_EQUAL_MAX, and a ModulatedBump's plateau
        groups = [(near, far - near, None)]
        if factor is not None:
            groups.append((e1[None], (e2 - e1)[None], None))
        groups = [(lo, length, _panel_count(length, z), warp)
                  for (lo, length, warp), z in zip(groups, (unit, span))]
        if groups[0][2].max() > RAY_EQUAL_MAX:
            # radii below 1e-300 r_out count as 1e-300 r_out, so e^u stays
            # finite; u past the near end is rho = near + scale expm1(u)
            # (1 + q2 e^-u)
            R0, R2 = (np.sqrt(p2 + a * (e - vertex) ** 2) for e in (near, far))
            R0, R2 = (np.clip(R, max(r_in, 1e-300 * r_out), r_out) for R in (R0, R2))
            R1, p = np.clip(0.5 * span * np.sqrt(a), R0, R2), np.sqrt(p2)
            with np.errstate(divide="ignore"):
                W0, W1, W2 = (R * (1.0 + np.sqrt(np.maximum(1.0 - (p / R) ** 2, 0.0))) for R in (R0, R1, R2))
                scale = np.array([-0.5, 0.5])[:, None, None] * W0 / np.sqrt(a)
            steps, u_far = np.ceil(np.log(W1 / W0) / LOG3), np.log(W2 / W0)
            q2 = (p / W0) ** 2
            mid = near + scale * np.expm1(steps * LOG3) * (1.0 + q2 * np.exp(-steps * LOG3))
            mid = np.where(steps * LOG3 < u_far, np.where(steps > 0.0, mid, near), far)
            count = np.where(near != far, np.minimum(steps, np.ceil(u_far / LOG3)), 0.0)
            groups[0] = (mid, far - mid, _panel_count(far - mid, span), None)
            groups.insert(0, (near, np.minimum(steps * LOG3, u_far), count, (scale, q2)))
        flat_acc = acc.reshape(-1)
        for lo, length, count, warp in groups:
            # sub-stretch s runs from lo[s] in count[s] equal panels of its
            # length, in u when warped to rho, in rho otherwise
            lo, length, count = lo.reshape(-1), length.reshape(-1), count.reshape(-1)
            total = np.cumsum(count)
            for c in range(0, int(total[-1]), rows):
                # the window's panels: sub-stretch s, and panel j of it
                end = min(c + rows, int(total[-1]))
                s0, s1 = np.searchsorted(total, [c, end - 1], side="right")
                starts = total[s0 : s1 + 1] - count[s0 : s1 + 1]
                reps = np.minimum(total[s0 : s1 + 1], end) - np.maximum(starts, c)
                s = np.repeat(np.arange(s0, s1 + 1), reps.astype(np.intp))
                j, size = np.arange(c, end) - starts[s - s0], length[s] / count[s]
                start, stop = j * size, (j + 1.0) * size
                if warp is not None:
                    scale_s, q2_s = warp[0].reshape(-1)[s], warp[1].reshape(-1)[s]
                    start, stop = (scale_s * np.expm1(e) * (1.0 + q2_s * np.exp(-e)) for e in (start, stop))
                lo_s = lo[s]
                start, stop = start + lo_s, stop + lo_s
                half = 0.5 * (stop - start)
                mid_s = start + half
                # rho = mid_s + half x: coefficient rows of |m + rho v|^2,
                # -rho^2 / 2 and rho^(N-1) in powers of x
                o = s % a.size
                a_o, delta = a.reshape(-1)[o], mid_s - vertex.reshape(-1)[o]
                ad, square = a_o * delta, half * half
                quad_c = np.stack([p2.reshape(-1)[o] + ad * delta, 2.0 * half * ad, a_o * square])
                gauss_c = np.stack([-0.5 * mid_s * mid_s, -mid_s * half, -0.5 * square])
                radial_c = np.stack([math.comb(n - 1, i) * mid_s ** (n - 1 - i) * half**i for i in range(n)])
                if factor is not None:
                    v = ray_v[o]
                    point_c = np.stack([mus[blk][o // rays] + mid_s[:, None] * v, half[:, None] * v])
                panel = np.empty(s.size)
                for c2 in range(0, s.size, RAY_BLOCK):
                    cols = slice(c2, c2 + RAY_BLOCK)
                    vals = bump.profile(powers[:, :3] @ quad_c[:, cols])
                    gauss = powers[:, :3] @ gauss_c[:, cols]
                    vals *= np.exp(gauss, out=gauss)
                    vals *= powers[:, :n] @ radial_c[:, cols]
                    if factor is not None:
                        pts = point_c[:, cols]
                        vals *= factor.value((powers[:, :2] @ pts.reshape(2, -1)).reshape(RAY_NODES, -1, n))
                    panel[cols] = w @ vals
                flat_acc += np.bincount(o, weights=panel * np.abs(half), minlength=a.size)
        sums[blk] = acc
    return sums.reshape(K, MC_REPLICATES, -1).mean(axis=2)


def apply_semigroup_report(
    spec: OperatorSpec, f, t, X, quad: QuadratureSpec = DEFAULT_QUAD
) -> SemigroupValue:
    """P_t f(X) with method and sampling-error bookkeeping.

    Gaussian-polynomial functions are convolved in closed form (method
    ``"closed-form"``, stderr 0).  Compact profiles take the randomised
    spherical-radial rule of :func:`_mc_means` (method ``"monte-carlo"``):
    the mean over MC_REPLICATES independently turned copies of its rays,
    and their standard error as stderr (0 at N = 1, where the two
    half-lines are exact).
    """
    t = _check_time(t)
    X = _check_input(spec, f, X, (TestFunction, CompactBump, ModulatedBump))
    if isinstance(f, TestFunction):
        value = exact_semigroup_oracle(spec, f, t, X)
        return SemigroupValue(value=value, stderr=0.0, method="closed-form")

    means = _mc_profile(spec, f, np.array([t]), X, quad)[0]
    value = float(np.mean(means))
    stderr = float(np.std(means, ddof=1) / math.sqrt(MC_REPLICATES))
    return SemigroupValue(value=value, stderr=stderr, method="monte-carlo")


def apply_semigroup(
    spec: OperatorSpec, f, t, X, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """P_t f(X); see apply_semigroup_report for the error channel."""
    return apply_semigroup_report(spec, f, t, X, quad).value


def semigroup_gradient(spec: OperatorSpec, f: TestFunction, t, X) -> np.ndarray:
    """grad P_t f(X) in closed form.

    P_t f(X) is a function of the transition mean e^{tB} X, so the
    gradient is e^{tB'} times the derivative of the Gaussian convolution
    in its mean (see :func:`testfuncs.exact_semigroup_oracle`); f keeps
    its own degree.  Only Gaussian-polynomial functions are accepted:
    a compact profile would need a sampled gradient with no error
    channel.
    """
    t = _check_time(t)
    X = _check_input(spec, f, X, TestFunction)
    return exact_semigroup_oracle(spec, f, t, X, gradient=True)


def _mc_profile(spec, f, ts, X, quad):
    """Replicate means (len(ts), MC_REPLICATES) of P_t f(X), f a compact
    profile, from one engine pass and one blocked pass of :func:`_mc_means`."""
    exp_tB, _, _, tK, _, _ = _block_gramians(spec, ts)
    return _mc_means(f, exp_tB @ X, sym_sqrt(2.0 * tK), quad)


def _poisson_profile(spec, f, ts, X, quad):
    """P_t f(X) at every time of ``ts`` from one engine pass: closed form
    for the family, one Monte Carlo mean per time for a compact profile."""
    if isinstance(f, TestFunction):
        return exact_semigroup_profile(spec, f, ts, X)
    return np.mean(_mc_profile(spec, f, ts, X, quad), axis=1)


def apply_poisson(
    spec: OperatorSpec, f, z, X, quad: QuadratureSpec = DEFAULT_QUAD
) -> float:
    """Poisson semigroup by subordination to P_t.

    The defining time integral

        (4 pi)^{-1/2} integral_0^inf z t^{-3/2} e^{-z^2/(4t)} P_t f(X) dt

    is split at the subordinator median scale t = z^2.  Below it,
    t = z^2 w^2 gives pi^{-1/2} w^{-2} e^{-1/(4 w^2)} P_{z^2 w^2} f on
    (0, 1], flat at w = 0.  Above it, t = z^2 / v^2 gives
    pi^{-1/2} e^{-v^2/4} P_{z^2/v^2} f on (0, 1]; the kernel's algebraic
    large-time decay turns into a one-sided power of v, which
    Gauss-Legendre resolves where a symmetric rule would see a kink.
    Drifts with spectral decay are cut at an overflow-safe time cap and
    the converged remainder is added as an erf mass.  Each side takes
    ``quad.time_nodes // 2`` nodes, so a call evaluates P_t f at
    ``2 * (time_nodes // 2) + 1`` times, one of them at the cap
    (``time_nodes // 2 + 1`` when z^2 lies past the cap and the second
    side is empty).  The times form one grid with one engine pass.
    """
    z = float(z)
    if not math.isfinite(z) or z <= 0.0:
        raise DomainError("z must be positive and finite")
    X = _check_input(spec, f, X, (TestFunction, CompactBump, ModulatedBump))
    half = quad.time_nodes // 2
    nodes, weights = _rule(_leggauss, half)
    sqrt_pi = math.sqrt(math.pi)

    # beyond t_cap every exponential mode of the drift has converged (or,
    # for nilpotent drifts, the kernel has decayed algebraically), so the
    # profile is frozen at p_cap and the leftover subordinator mass is an
    # erf increment; t_cap also keeps e^{+-tB} and C(t) inside float range
    rate = float(np.max(np.abs(np.linalg.eigvals(spec.B).real)))
    t_cap = 300.0 / rate if rate > 1e-12 else 1e10

    # head: t in (0, min(z^2, t_cap)] under t = z^2 w^2; the weight
    # pi^{-1/2} w^{-2} e^{-1/(4w^2)} is flat at w = 0
    w_cap = min(math.sqrt(t_cap) / z, 1.0)
    w_nodes = w_cap * 0.5 * (nodes + 1.0)
    w_weights = w_cap * 0.5 * weights

    # tail: t in [z^2, t_cap] under t = z^2 e^{2s}; the log axis keeps the
    # profile's transition scale order-one for every z; empty past the cap
    v_min = min(z / math.sqrt(t_cap), 1.0)
    s_max = -math.log(v_min)
    tail_n = half if v_min < 1.0 else 0
    s_nodes = s_max * 0.5 * (nodes[:tail_n] + 1.0)
    s_weights = s_max * 0.5 * weights[:tail_n]

    # the whole time grid (cap, head, tail) in one engine pass
    ts = np.concatenate(([t_cap], z**2 * w_nodes**2, z**2 * np.exp(2.0 * s_nodes)))
    vals = _poisson_profile(spec, f, ts, X, quad)
    p_cap, head_vals, tail_vals = float(vals[0]), vals[1 : half + 1], vals[half + 1 :]

    head_weight = w_nodes**-2.0 * np.exp(-0.25 * w_nodes**-2.0)
    head = float((w_weights * head_weight) @ head_vals) / sqrt_pi
    if w_cap < 1.0:
        head += p_cap * (math.erf(0.5 / w_cap) - math.erf(0.5))
    v = np.exp(-s_nodes)
    tail = float((s_weights * np.exp(-0.25 * v**2) * v) @ tail_vals) / sqrt_pi
    return head + tail + p_cap * math.erf(0.5 * v_min)


def lr_norm_constant(dim: int, r: float) -> float:
    """c_{N,r} = [(4 pi)^{-N/2} omega_N]^{1-1/r} r^{-N/(2r)}.

    The kernel L^r norm is c_{N,r} V(t)^{-(1-1/r)} e^{-t tr B / r}; on the
    pure-diffusion preset at t = 1, where V(1) = omega_N and tr B = 0,
    it is c_{N,r} omega_N^{-(1-1/r)}.  ``r = inf`` gives the sup norm,
    c_{N,inf} = (4 pi)^{-N/2} omega_N.
    """
    r = float(r)
    if not (dim >= 1 and 1.0 <= r <= math.inf):
        raise DomainError("need dim >= 1 and 1 <= r <= inf")
    omega = KernelConstants.for_dim(dim).omega_N
    return ((4.0 * math.pi) ** (-dim / 2.0) * omega) ** (1.0 - 1.0 / r) * r ** (
        -dim / (2.0 * r)
    )


def kernel_lr_norm(spec: OperatorSpec, Y, t, r) -> float:
    """L^r norm of p(., Y, t) over the first slot, in closed form.

    In the transition mean u = e^{tB} X the kernel is the density of
    N(Y - u; 0, 2 t K(t)), and dX = e^{-t tr B} du: the norm is c_{N,r}
    V(t)^{-(1-1/r)} e^{-t tr B / r}, taken in logs from log det(t K(t))
    (one engine pass, no bundle), where omega_N cancels.  ``r = inf``
    gives the peak density (4 pi)^{-N/2} det(t K(t))^{-1/2}, which has no
    drift factor.  Independent of Y by translation covariance.  A norm
    past the largest float raises DomainError; one below the smallest
    subnormal rounds to 0.0, and subnormal ones lose digits.
    """
    t = _check_time(t)
    r = float(r)
    if not r >= 1.0:
        raise DomainError("r must satisfy 1 <= r <= inf (NaN is rejected)")
    _point(Y, spec.dim)
    (logdet_tK,) = _block_gramians(spec, np.array([t]))[4].tolist()
    n = spec.dim
    log_density = -0.5 * n * math.log(4.0 * math.pi) - 0.5 * logdet_tK
    if r == math.inf:  # the peak density, the limit 1/r = 0, with no drift factor
        log_value = log_density
    else:
        log_value = (1.0 - 1.0 / r) * log_density - (0.5 * n * math.log(r) + t * spec.trace_B) / r
    try:
        return math.exp(log_value)
    except OverflowError:
        raise DomainError("the kernel L^r norm exceeds the float range") from None


def _geometry(f: TestFunction, Sigma):
    """Grid frame L, norm-box half-width and finest feature scale of f * N(0, Sigma).

    A term e^{-<S(w-c), w-c>} of f becomes a Gaussian centred at c with
    covariance (2S)^{-1} + Sigma (Sigma = 0: f itself).  The grid lies in
    v = L^{-1} u, L the root of the mean term covariance, where the terms
    are about round however elongated Sigma is (chains, non-normal drifts).
    """
    covs = [0.5 * np.linalg.inv(term.shape) + Sigma for term in f.terms]
    w, V = np.linalg.eigh(sum(covs) / len(covs))
    L, inv_L = (V * np.sqrt(w)) @ V.T, (V / np.sqrt(w)) @ V.T
    # each term's covariance eigenvalues in v, ascending, and its centre's reach
    spans = [np.linalg.eigvalsh(inv_L @ cov @ inv_L).tolist() for cov in covs]
    centers = [float(np.max(np.abs(inv_L @ term.center))) for term in f.terms]
    radius = max(c + 6.0 * math.sqrt(v[-1]) for c, v in zip(centers, spans))
    return L, radius + 1.0, math.sqrt(min(v[0] for v in spans))


def _adaptive_order(radius, sigma, dim):
    """Gauss-Legendre order resolving features of width sigma on [-R, R]."""
    cap = 256 if dim <= 2 else 128
    return max(96, min(int(4.0 * radius / sigma) + 1, cap))


def lp_norm(
    f,
    p: float,
    dim: int,
    radius: float,
    order: int = 96,
) -> float:
    """(integral over the box [-radius, radius]^N of |f|^p)^{1/p}.

    Tensor Gauss-Legendre of the given order per axis.  ``f`` is called
    on successive blocks of at most ``GRID_BLOCK`` points, each an
    ``(M, N)`` array, and must return the ``M`` values row by row.  A
    block is read-only and its memory is reused by the next one, so
    ``f`` must copy any block it keeps.
    """
    if p < 1.0 or not math.isfinite(p):
        raise DomainError("p must satisfy 1 <= p < inf")
    if dim > 3:
        raise UnsupportedDegreeError("norm grids are capped at N = 3")
    total = 0.0
    for pts, w in _grid_blocks(_leggauss, order, dim, radius):
        total = total + w @ np.abs(np.asarray(f(pts))) ** p
    return float(np.power(total, 1.0 / p))


def sup_norm(f, dim: int, radius: float, order: int | None = None) -> float:
    """Sup of |f| over a uniform grid of ``order`` points per axis on
    [-radius, radius]^N.

    The default order is 801 for N <= 2 and 101 for N = 3.  ``f`` is
    called on successive blocks of at most ``GRID_BLOCK`` points, each
    an ``(M, N)`` array, and must return the ``M`` values row by row.  A
    block is read-only and its memory is reused by the next one, so
    ``f`` must copy any block it keeps.
    """
    if dim > 3:
        raise UnsupportedDegreeError("norm grids are capped at N = 3")
    if order is None:
        order = 801 if dim <= 2 else 101
    return max(
        float(np.max(np.abs(np.asarray(f(pts)))))
        for pts, _ in _grid_blocks(_uniform, order, dim, radius)
    )


def _gaussian_norms(f, p, q, Sigma):
    """||f||_p and ||f * N(0, Sigma)||_q of one Gaussian c exp(-<S(y - c0), y - c0>).

    The integral of exp(-r <S w, w>) is (pi/r)^{N/2} det S^{-1/2}.  With
    G = I + 2 Sigma S and half = log det G / 2 the convolution is the
    Gaussian c e^{-half} exp(-<S'(u - c0), u - c0>), S' = S G^{-1}, whose
    log det S' is log det S - 2 half.  An L^inf norm is the peak.
    """
    term = f.terms[0]
    half = float(_convolution_det(Sigma, term.shape)[1])
    logdet_S = float(np.linalg.slogdet(term.shape)[1])

    def log_norm(r, logdet):
        return 0.0 if math.isinf(r) else (0.5 * f.dim * math.log(math.pi / r) - 0.5 * logdet) / r

    amp = abs(term.coeff)
    norm_conv = amp * math.exp(log_norm(q, logdet_S - 2.0 * half) - half)
    return amp * math.exp(log_norm(p, logdet_S)), norm_conv


def _grid_norm(func, r, f, Sigma):
    """||func||_r on the grid of :func:`_geometry` in v, du = det L dv; the grid sup for r = inf."""
    L, radius, sigma = _geometry(f, Sigma)

    def pulled(v):
        return func(_matmul(v, L))

    if math.isinf(r):
        return sup_norm(pulled, f.dim, radius)
    # |func|^r is sqrt(r) times narrower than func
    order = _adaptive_order(radius, sigma / math.sqrt(r), f.dim)
    return math.exp(np.linalg.slogdet(L)[1] / r) * lp_norm(pulled, r, f.dim, radius, order=order)


def _grid_norms(f, p, q, Sigma):
    """||f||_p and ||f * N(0, Sigma)||_q, the convolution factored once for every block."""
    factors = _convolution_factors(f, Sigma[None])
    conv = _grid_norm(lambda pts: _convolve(factors, pts[None])[0], q, f, Sigma)
    return _grid_norm(f.value, p, f, 0.0), conv


def _beckner(inv_m):
    """Babenko-Beckner A_m at u = 1/m: ((1 - u)^{1-u} / u^u)^{1/2}, 0^0 = 1."""
    return math.sqrt((1.0 - inv_m) ** (1.0 - inv_m) / inv_m**inv_m)


@lru_cache(maxsize=256)
def ultracontractivity_constant(dim: int, p: float, q: float) -> float:
    """Sharp C(N, p, q) = (A_p A_r A_{q'})^N c_{N,r}; see the module docstring.

    At p = 1 the factors cancel and C = c_{N,q}, approached as f narrows
    to a point mass; p = q is the plain L^p contraction, C = 1 exactly.
    """
    p, q = float(p), float(q)
    if not 1.0 <= p <= q:
        raise DomainError("need 1 <= p <= q")
    if p == q:
        return 1.0
    # 1/r = 1 - (1/p - 1/q), exactly 1/q at p = 1; the clamp absorbs the
    # rounding of p within ulps of q
    inv_r = min(1.0 - 1.0 / p + 1.0 / q, 1.0)
    r = 1.0 / inv_r if inv_r > 0.0 else math.inf
    factor = _beckner(1.0 / p) * _beckner(inv_r) * _beckner(1.0 - 1.0 / q)
    return factor**dim * lr_norm_constant(dim, r)


def ultracontractivity_check(
    spec: OperatorSpec, f: TestFunction, p: float, q: float, t
) -> UltracontractivityResult:
    """Check ||P_t f||_q <= C(N,p,q) V(t)^{-(1/p - 1/q)} e^{-t tr B / q} ||f||_p.

    C is the sharp :func:`ultracontractivity_constant`; a negative trace
    of B is legal but flagged, since the large-time decay claims exclude
    it.  ``f`` must be a Schwartz :class:`TestFunction` on R^N; ``p`` and
    ``q`` may be inf.  A single Gaussian (one term of monomial degree 0)
    has both norms in closed form in any N (``method="closed-form"``, an
    L^inf norm being the exact peak); any other ``f`` takes tensor grids,
    N <= 3 (``method="grid"``), where an L^inf norm is a grid maximum, a
    lower estimate that ``tail_bound`` does not cover.  ``passed`` is
    decided without the drift factor e^{-t tr B / q} of both sides (see
    the module docstring); a side past the float range raises DomainError.
    """
    t = _check_time(t)
    C = ultracontractivity_constant(spec.dim, p, q)
    _check_function(spec, f, TestFunction)
    if not f.is_schwartz:
        raise DomainError("norms are defined for Schwartz-class functions only")
    p, q = float(p), float(q)
    closed = len(f.terms) == 1 and f.degree == 0
    g = gramians(spec, t)
    norm_f, lhs = (_gaussian_norms if closed else _grid_norms)(f, p, q, 2.0 * t * g.K_t)
    log_vol = math.log(KernelConstants.for_dim(spec.dim).omega_N) + 0.5 * g.logdet_tK
    try:
        rhs = C * math.exp(-(1.0 / p - 1.0 / q) * log_vol) * norm_f
        drift = math.exp(-t * spec.trace_B / q)
    except OverflowError:
        raise DomainError("the smoothing bound exceeds the float range") from None
    # box truncation plus Gauss-Legendre resolution allowance on the lhs;
    # p = q with trace B = 0 sits exactly on the bound (mass conservation),
    # so the comparison must grant the quadrature its reported error
    passed = lhs <= rhs + 1e-8 * (abs(lhs) + abs(rhs))
    lhs, rhs = lhs * drift, rhs * drift
    if math.inf in (lhs, rhs):
        raise DomainError("the smoothing bound exceeds the float range")
    return UltracontractivityResult(
        lhs=lhs,
        rhs=rhs,
        passed=bool(passed),
        constant=C,
        trace_b_negative=bool(spec.trace_B < 0),
        tail_bound=1e-8 * (abs(lhs) + abs(rhs)),
        method="closed-form" if closed else "grid",
    )
