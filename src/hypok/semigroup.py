"""Semigroup and Poisson-semigroup application, kernel norms, ultracontractivity.

P_t acts on the Gaussian-polynomial family in closed form: the
transition density is exactly Gaussian, so P_t f and its gradient are
the Gaussian convolutions of ``testfuncs.exact_semigroup_oracle``.
Compactly supported profiles, which have no closed form, go to a
counter-based Monte Carlo fallback that reports its standard error;
its draws are generated once per (N, sample count, seed) and shared by
every call, so the values along a Poisson time grid use common random
numbers.  A bump is radial, so its sampled points are never built:
each replicate of the draw set is sorted by radius |w| and holds, next
to the draws, the products w_i w_j of its coordinates and the sorted
radii.  The radius |A w + m| lies between sigma_min |w| - |m| and
sigma_max |w| + |m|, so two searches in the sorted radii certify the
samples a time node sends exactly to 1 (plateau) or 0 (exterior), and
only the slice of uncertain samples between them is evaluated.  Their
squared radii for a block of ``MC_NODE_BLOCK`` times come from one small
matrix product per replicate.  Only a ModulatedBump builds the points,
for its Gaussian-polynomial factor, and it takes only the exterior
cut.  The Poisson
semigroup is subordinated to P_t with the time axis split at t = z^2
and mapped onto (0, 1] on each side, so both the flat short-time end
and the algebraic long-time decay are analytic in the quadrature
variable.
A Poisson call builds its whole time grid first and takes one pass of
the Gramian engine for it: the closed form is batched over the grid,
and a compact profile takes its Monte Carlo means for the whole grid in
one pass over node blocks, from the batched means e^{tB} X and sampling
factors (2 tK(t))^{1/2}.  Single-time calls, like Poisson grids, leave
the per-time (spec, t) Gramian memo untouched.

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
temporaries are reused from the heap.  A Monte Carlo call allocates its
two node-block buffers (256 KB each at the default 8192 draws per
replicate) once and reuses them for every block.

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
# Monte Carlo draw sets kept by _mc_draw_set; at the default mc_samples
# one holds 2^16 * (N + N (N + 1) / 2 + 1) floats (3.1 MB for N = 2)
MC_DRAWS_CACHE_SIZE = 8
# time nodes whose squared radii one matrix product gives; a block of
# the default 8192 draws per replicate is then a 256 KB buffer
MC_NODE_BLOCK = 4
# relative slack of the radius bounds that certify plateau and exterior
# samples in _mc_means.  At a certified exterior sample the squared
# radius exceeds r_out^2 by at least (slack U)^2, U = sigma_max |w| + |m|,
# while the expanded form rounds it by about N^2 eps U^2: the square of
# the slack, not the slack, must clear the rounding
MC_CERT_SLACK = 1e-6
# points per block of a tensor grid; bounds the memory of every grid sum.
# One coordinate or value array of a block is then 64 KB, below glibc's
# default 128 KB mmap threshold, so the temporaries of each block are
# reused from the heap instead of being mapped and page-faulted anew
GRID_BLOCK = 1 << 13


@dataclass(frozen=True)
class QuadratureSpec:
    """Sampling and time-quadrature resolution of the Monte Carlo values
    and of :func:`apply_poisson`; the smoothing check needs neither.

    Monte Carlo draws ``MC_REPLICATES * max(mc_samples // MC_REPLICATES,
    512)`` standard normal points, so ``mc_samples=1024`` draws 4096.
    The draw set is built once per ``(dim, mc_samples, rng_seed)`` and
    shared by every call, whatever its time, point or function: values
    at different times use common random numbers.  Each replicate is
    sorted by radius |w|, and the set keeps the products w_i w_j (i <= j)
    and the sorted radii next to the draws, ``N + N (N + 1) / 2 + 1``
    floats per sample: 6 rows x 65 536 floats = 3.1 MB at N = 2 with the
    default ``mc_samples``, where the draws alone take 1 MB.  Bump values
    are read off squared radii, one matrix product per replicate for
    each block of ``MC_NODE_BLOCK`` time nodes, and only for the samples
    that the radius certificate of ``_mc_means`` leaves uncertain: the
    others lie certainly in the plateau (value 1) or beyond the outer
    radius (value 0).

    :func:`apply_poisson` splits its time axis in two halves of
    ``time_nodes // 2`` Gauss-Legendre nodes each, so a call evaluates
    the semigroup at ``2 * (time_nodes // 2) + 1`` times, one of them at
    the time cap (``time_nodes // 2 + 1`` when z^2 lies past the cap),
    all from one engine pass.
    """

    time_nodes: int = 200
    mc_samples: int = 2**16
    rng_seed: int = 20260822

    def __post_init__(self):
        if self.mc_samples < 1024:
            raise ValueError("mc_samples must be at least 1024")
        if self.time_nodes < 80:
            raise ValueError("time_nodes must be at least 80")


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class SemigroupValue:
    """One semigroup application with its sampling error, if stochastic."""

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


@lru_cache(maxsize=32)
def _rule(rule, order):
    nodes, weights = rule(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=32)
def _tail_grid(rule, order, dim):
    """Coordinates (m, order^m) and weights of the last m axes of the grid.

    m is the largest count of trailing axes, at most dim - 1, whose grid
    fits in one block of GRID_BLOCK points.
    """
    nodes, weights = _rule(rule, order)
    m = 0
    while m < dim - 1 and order ** (m + 1) <= GRID_BLOCK:
        m += 1
    coords = nodes[np.indices((order,) * m).reshape(m, order**m)]
    w = reduce(np.multiply.outer, [weights] * m, np.ones(())).ravel()
    coords.setflags(write=False)
    w.setflags(write=False)
    return coords, w


def _grid_blocks(rule, order, dim, scale=1.0):
    """Yield the tensor grid of a 1-D rule on scale * [nodes]^dim in blocks.

    Blocks follow C order (first axis slowest), hold at most GRID_BLOCK
    points each and come with their product weights.  Each block is a
    run of leading-axis positions crossed with the tail grid.  The
    ``(M, dim)`` points are column-major, so elementwise work on them
    runs along M rather than along the short coordinate axis.  Every
    block is a read-only view of one buffer that the next block
    overwrites; only the leading coordinates change between blocks.
    """
    nodes, weights = _rule(rule, order)
    tail, tail_w = _tail_grid(rule, order, dim)
    lead, size = dim - tail.shape[0], tail_w.size
    if scale != 1.0:
        nodes, weights = scale * nodes, scale * weights
        tail, tail_w = scale * tail, scale ** tail.shape[0] * tail_w
    n_lead = order**lead
    step = min(max(GRID_BLOCK // size, 1), n_lead)
    pts = np.empty((dim, step, size))
    pts[lead:] = tail[:, None, :]
    w = np.empty((step, size))
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


@lru_cache(maxsize=None)
def _pairs(dim):
    """Index pairs i <= j of the product rows and their weight in w'M w."""
    i, j = np.triu_indices(dim)
    # an off-diagonal product stands for both w_i w_j and w_j w_i
    weight = np.where(i == j, 1.0, 2.0)
    for a in (i, j, weight):
        a.setflags(write=False)
    return i, j, weight


@lru_cache(maxsize=MC_DRAWS_CACHE_SIZE)
def _mc_draw_set(dim, mc_samples, rng_seed):
    """Read-only rows (MC_REPLICATES, dim + dim (dim + 1) / 2 + 1, per) of draws.

    Replicate i holds the standard normal stream of Philox(key=[rng_seed,
    i]), drawn as (per, dim) and sorted by radius |w|.  Its first ``dim``
    rows are the sorted draws transposed, so each coordinate is a row and
    elementwise work on the points runs along the long axis.  The next
    rows are the products w_i w_j (i <= j, in ``np.triu_indices`` order),
    so a squared radius |A w + m|^2 is one linear combination of the rows
    plus |m|^2.  The last row holds the ascending radii |w|, which
    :func:`_mc_means` searches for the samples a bump certainly sends to
    1 or 0.  At the default mc_samples a set is 3.1 MB for N = 2, 7.9 MB
    for N = 4.
    """
    per = max(mc_samples // MC_REPLICATES, 512)
    i, j, _ = _pairs(dim)
    rows = np.empty((MC_REPLICATES, dim + i.size + 1, per))
    for k in range(MC_REPLICATES):
        rng = np.random.Generator(np.random.Philox(key=[rng_seed, k]))
        w = rng.standard_normal(size=(per, dim))
        radii = np.linalg.norm(w, axis=1)
        order = np.argsort(radii, kind="stable")
        rows[k, :dim] = w[order].T
        np.multiply(rows[k, i], rows[k, j], out=rows[k, dim:-1])
        rows[k, -1] = radii[order]
    rows.setflags(write=False)
    return rows


def _check_input(spec, f, X, kinds):
    """X as a float point of R^N, once f is one of ``kinds`` on R^N."""
    _check_function(spec, f, kinds)
    return _point(X, spec.dim)


def _mc_means(f, mus, roots, quad):
    """Replicate means (K, MC_REPLICATES) of f(mu_k + A_k W), k < K.

    W runs over the shared draw set of ``quad``; each A_k is symmetric.
    The bump is radial, so its values need only the squared radius
    |A w + m|^2 with m = mu - center, which is w'(A'A) w + 2 (A'm)'w +
    |m|^2: linear in the rows of the draw set.  Since |A w + m| lies
    between sigma_min |w| - |m| and sigma_max |w| + |m| (sigma: the
    |eigenvalues| of A_k), two searches in the sorted radii give each
    node's count ``lo`` of samples certainly in the plateau and first
    sample ``hi`` certainly outside (the bounds widened by
    ``MC_CERT_SLACK``).  A block of MC_NODE_BLOCK nodes evaluates only
    the column slice [min lo, max hi), one small matrix product per
    replicate into the reused buffers, and counts the min lo samples
    before it as 1.  Only a ModulatedBump builds the points, for its
    Gaussian-polynomial factor; its plateau values vary, so it takes
    only the exterior cut.
    """
    n = mus.shape[1]
    rows = _mc_draw_set(n, quad.mc_samples, quad.rng_seed)
    per = rows.shape[2]
    bump, factor = (f.bump, f.f) if isinstance(f, ModulatedBump) else (f, None)
    m = mus - bump.center
    M = np.swapaxes(roots, -1, -2) @ roots
    i, j, weight = _pairs(n)
    # row k: 2 (A_k' m_k)' and the weighted entries of A_k' A_k
    coef = np.concatenate([2.0 * (m[:, None, :] @ roots)[:, 0], weight * M[:, i, j]], axis=1)
    shift = np.sum(m * m, axis=1, keepdims=True)
    K = mus.shape[0]

    # radius bounds (sig_lo |w| - reach, sig_hi |w| + reach), each widened
    # by MC_CERT_SLACK (sigma_max |w| + |m|); a NaN bound certifies nothing
    sig = np.abs(np.linalg.eigvalsh(roots))
    sig_max = sig.max(axis=1)
    sig_hi = (1.0 + MC_CERT_SLACK) * sig_max
    sig_lo = sig.min(axis=1) - MC_CERT_SLACK * sig_max
    reach = (1.0 + MC_CERT_SLACK) * np.sqrt(shift[:, 0])
    room = bump.inner_radius - reach
    rho_in = np.full(K, -1.0)
    if factor is None:
        np.divide(room, sig_hi, out=rho_in, where=room > 0.0)
    rho_out = np.divide(
        bump.outer_radius + reach, sig_lo, out=np.full(K, np.inf), where=sig_lo > 0.0
    )

    means = np.empty((K, MC_REPLICATES))
    size = min(K, MC_NODE_BLOCK) * per
    r2, vals = np.empty(size), np.empty(size)
    # per replicate and block: the samples before start are plateau
    # samples of every node, those from stop on exterior samples of every node
    lo = np.array([np.searchsorted(radii, rho_in, side="right") for radii in rows[:, -1]])
    hi = np.array([np.searchsorted(radii, rho_out, side="left") for radii in rows[:, -1]])
    firsts = np.arange(0, K, MC_NODE_BLOCK)
    starts = np.minimum.reduceat(lo, firsts, axis=1).tolist()
    stops = np.maximum.reduceat(hi, firsts, axis=1).tolist()
    for rep in range(MC_REPLICATES):
        draws = rows[rep]
        for first, start, stop in zip(firsts.tolist(), starts[rep], stops[rep]):
            blk = slice(first, min(first + MC_NODE_BLOCK, K))
            out = means[blk, rep]
            if start == stop:
                out[...] = start
                continue
            shape = (blk.stop - first, stop - start)
            b_r2 = r2[: shape[0] * shape[1]].reshape(shape)
            b_vals = vals[: b_r2.size].reshape(shape)
            np.matmul(coef[blk], draws[:-1, start:stop], out=b_r2)
            b_r2 += shift[blk]
            bump.profile(b_r2, out=b_vals)
            if factor is not None:
                Y = roots[blk] @ draws[:n, start:stop]
                Y += mus[blk, :, None]
                # (nodes, samples, N) views, column-major like the grid blocks
                b_vals *= factor.value(np.swapaxes(Y, 1, 2))
            np.add.reduce(b_vals, axis=1, out=out)
            out += start
    means /= per
    return means


def apply_semigroup_report(
    spec: OperatorSpec, f, t, X, quad: QuadratureSpec = DEFAULT_QUAD
) -> SemigroupValue:
    """P_t f(X) with method and sampling-error bookkeeping.

    Gaussian-polynomial functions are convolved in closed form (method
    ``"closed-form"``, stderr 0); compact profiles fall back to
    replicated Monte Carlo on the shared draw set of ``quad`` (see
    :class:`QuadratureSpec`), with the replicate spread reported as a
    standard error.
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
    nodes, weights = _rule(np.polynomial.legendre.leggauss, half)
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
    for pts, w in _grid_blocks(np.polynomial.legendre.leggauss, order, dim, radius):
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
