"""The three operation families the benchmark times and checks.

A family builds its inputs for round ``r`` from ``(seed, family, r)``,
calls ``hypok`` in a closed loop (each call starts when the previous one
returns), times every call, and checks every output against
``reference``. Each check states its tolerance below; none compares with
a stored copy of an earlier output.

The inputs keep to the domain where the program meets these
tolerances; ``README.md`` gives the reason for each limit.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.linalg import expm

import reference as R

# -------------------------------------------------------------- tolerances

TOL_LOG_P = 1e-6  # absolute, on log p: a relative 1e-6 on the kernel value
TOL_REL = 1e-8  # m_t, pseudo-distances, kernel L^r norms, smoothing sides
TOL_FORM_RESIDUAL = 1e-6  # the program's own two-form gap
TOL_DERIV = 1e-9  # relative to the sum of magnitudes of the pieces
TOL_GH = 1e-9  # relative to a Cauchy-Schwarz bound on |P_t f|
MC_SIGMAS = 12.0  # Monte Carlo: |value - target| <= 12 stderr + 1e-9
# Poisson by Monte Carlo reports no stderr; the draws are 2^16 of a
# [0, 1]-valued bump, whose standard error is at most 0.5 / 2^8
TOL_POISSON_MC = 6.0 * 0.5 / 2**8
TOL_SUP_GAP = 2e-2  # a grid sup may sit this far below the analytic peak
TOL_CONSTANT = 1e-3  # calibrated constant vs the best Gaussian ratio

# ---------------------------------------------------------------- helpers


def _rotation(rng, n):
    Qm, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Qm


def _shape(rng, n, w_lo, w_hi):
    """Symmetric shape matrix ``U diag(1 / (2 w_i^2)) U'`` with widths in range."""
    U = _rotation(rng, n)
    w = rng.uniform(w_lo, w_hi, size=n)
    return (U / (2.0 * w * w)) @ U.T


def _monomial(rng, n, degree):
    """Exponents of total ``degree`` spread as evenly as possible, in random
    order, so that a call's cost depends on its degree alone."""
    k = [degree // n + (i < degree % n) for i in range(n)]
    return tuple(int(x) for x in rng.permutation(k))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _cs_bound(spec, terms, t, X):
    """``sum |c| sqrt(P_t(w^{2k} g) P_t(g))``, a bound on ``|P_t f(X)|``."""
    total = 0.0
    for coeff, center, S, kappa in terms:
        sq = (1.0, center, S, tuple(2 * k for k in kappa))
        g = (1.0, center, S, (0,) * len(kappa))
        a = float(R.semigroup_ref(spec, [sq], t, X)[0])
        b = float(R.semigroup_ref(spec, [g], t, X)[0])
        total += abs(coeff) * math.sqrt(max(a, 0.0) * max(b, 0.0))
    return total


def _alpha(spec, S, t):
    """Largest eigenvalue of ``2 Sigma(t) S``: kernel spread over the width of f."""
    return float(np.max(np.linalg.eigvals(2.0 * spec.transition_cov(t) @ S).real))


def _t_max(spec, S, alpha_max, cap):
    """Largest ``t <= cap`` with ``alpha(t) <= alpha_max`` (alpha grows with t)."""
    if _alpha(spec, S, cap) <= alpha_max:
        return cap
    lo, hi = 0.0, cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _alpha(spec, S, mid) <= alpha_max else (lo, mid)
    return lo


# Two fixed computations of the kinds the program does, timed next to
# its calls: small matrix work driven from Python, and a pass over more
# floats than a cache holds, as the program's largest grids are. On a
# shared machine the speed of each swings with the program's (by a
# quarter within seconds on the machine the README names), so dividing a
# call by the probe of its kind removes most of the swing. Calls that
# sweep grids of a million points or more are marked large at the call.
_PROBE_H = np.array([[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0]]) * 0.3
_PROBE_V = np.array([0.1, 0.2, -0.3, 0.4])
_PROBE_A = np.linspace(0.0, 1.0, 1 << 20)
PROBE_NOMINAL_S = {"small": 2.0e-4, "large": 5.0e-3}  # about their medians there
PROBE_INTERVAL_S = 0.002  # at most this much program time between probes
PROBE_BURST = 5  # probes in a burst: after a call of 2 ms or more, or a gap
PROBE_SHARE = 0.05  # after a long call, probe for this share of its length
PROBE_BURST_MAX_S = 0.05


def _probe_small():
    t0 = time.perf_counter()
    E = expm(_PROBE_H)
    s = 0.0
    for _ in range(6):
        w = np.linalg.solve(E + np.eye(4), _PROBE_V)
        s += float(w @ _PROBE_V) + np.linalg.slogdet(E)[1] + math.exp(-1e-9 * s)
    return time.perf_counter() - t0


def _probe_large():
    t0 = time.perf_counter()
    float(np.sum(np.exp(-_PROBE_A) * _PROBE_A))
    return time.perf_counter() - t0


class Clock:
    """Normalises call durations by the probe runs around them.

    A call of length ``d`` counts as ``d * nominal / probe``, with
    ``probe`` the median duration of the probes of the call's kind that
    ended within ``max(PROBE_INTERVAL_S, d)`` before it started or after
    it ended. On a machine as fast as the nominal one this is the
    wall-clock time.
    """

    def __init__(self):
        self.ends = {"small": [], "large": []}
        self.durations = {"small": [], "large": []}

    def probe(self, kind="small", n=1):
        for _ in range(n):
            d = _probe_small() if kind == "small" else _probe_large()
            self.durations[kind].append(d)
            self.ends[kind].append(time.perf_counter())

    def before(self, kind):
        """Probe unless the last probe of this kind is recent; a burst after a gap."""
        ends = self.ends[kind]
        gap = time.perf_counter() - ends[-1] if ends else float("inf")
        if gap >= PROBE_INTERVAL_S:
            self.probe(kind, 1 if gap < 5 * PROBE_INTERVAL_S else PROBE_BURST)

    def after(self, kind, d):
        """Probe after a call of length ``d``: a burst, longer for long calls."""
        stop = time.perf_counter() + min(PROBE_SHARE * d, PROBE_BURST_MAX_S)
        self.probe(kind, PROBE_BURST)
        while time.perf_counter() < stop:
            self.probe(kind)

    def factor(self, t0, t1, kind):
        ends, durations = self.ends[kind], self.durations[kind]
        w = max(PROBE_INTERVAL_S, t1 - t0)
        i = bisect.bisect_right(ends, t0)
        lo = min(bisect.bisect_left(ends, t0 - w), max(i - 1, 0))
        j = bisect.bisect_left(ends, t1)
        hi = max(bisect.bisect_right(ends, t1 + w), j + 1)
        return PROBE_NOMINAL_S[kind] / statistics.median(durations[lo:i] + durations[j:hi])


class Round:
    """Timings and check results of one round of one family."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = []  # (op, start, end, work, probe kind)
        self.times = defaultdict(list)  # op -> normalised durations (s)
        self.raw = defaultdict(list)  # op -> wall-clock durations (s)
        self.work = defaultdict(float)  # op -> points or calls done
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.busy = 0.0  # normalised seconds inside program calls

    def call(self, op, fn, *args, work=1.0, large=False):
        """Time ``fn(*args)``; return its result, or None if it raised."""
        self.attempted += 1
        kind = "large" if large else "small"
        self.clock.before(kind)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(op, "%s: %r" % (type(exc).__name__, exc))
            return None
        t1 = time.perf_counter()
        self.calls.append((op, t0, t1, work, kind))
        if t1 - t0 >= PROBE_INTERVAL_S or kind == "large":
            self.clock.after(kind, t1 - t0)
        return out

    def close(self):
        """Normalise the round's call times; needs a probe after the last call."""
        self.clock.probe("small", PROBE_BURST)
        for op, t0, t1, work, kind in self.calls:
            dt = (t1 - t0) * self.clock.factor(t0, t1, kind)
            self.times[op].append(dt)
            self.raw[op].append(t1 - t0)
            self.work[op] += work
            self.busy += dt

    def check(self, op, ok, detail):
        """Record a failed check; one failure per operation at most."""
        if not ok:
            self._fail(op, detail)

    def _fail(self, op, detail):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (op, detail))


def _close(got, want, tol):
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= tol))


class Family:
    """Base: seeds, specs in pairs ``(hypok spec, reference spec)``.

    The light variant, run as a slice of the other workloads, leaves out
    the operations that take seconds per call.
    """

    key = 0

    def __init__(self, hk, seed, light=False):
        self.hk = hk
        self.seed = seed
        self.light = light

    def rng(self, r):
        return np.random.default_rng([self.seed, self.key, r])

    def spec(self, kind, n=1):
        oc = self.hk.operator_core
        ref = R.RefSpec(kind, n)
        if kind == "chain3":
            return oc.OperatorSpec(ref.Q, ref.B, name="chain3"), ref
        return getattr(oc, kind)(n), ref


# ------------------------------------------------------------ kernel points

# a few log-spaced times shared by every point of a round
KERNEL_TIMES = tuple(float(t) for t in np.logspace(-2.0, 1.0, 5))
# the step-3 chain keeps to t >= 0.3: below it cond C(t) passes 1e5 and
# the block exponential loses log p by more than TOL_LOG_P
CHAIN_T_MIN = 0.3


class KernelPoints(Family):
    """heat_kernel, log-derivatives, Li-Yau and batched pseudo-distances."""

    name = "kernel_points"
    key = 1

    def __init__(self, hk, seed, light=False):
        super().__init__(hk, seed, light)
        self.specs = [
            self.spec("heat", 2),
            self.spec("kolmogorov", 1),
            self.spec("kolmogorov", 2),
            self.spec("ornstein_uhlenbeck", 2),
            self.spec("chain3"),
        ]
        self.pairs = 12
        self.batch = 2048

    def warm_up(self):
        K = self.hk.kernel
        sp, ref = self.specs[1]
        x = np.zeros(ref.dim)
        K.heat_kernel(sp, x, x, 1.0)
        K.kernel_log_derivatives(sp, x, x, 1.0)
        K.liyau_kernel_identity(sp, x, x, 1.0, 0.0)
        K.pseudo_distance(sp, x, np.zeros((4, ref.dim)), 1.0)

    def run_round(self, r, rnd):
        K = self.hk.kernel
        rng = self.rng(r)
        for sp, ref in self.specs:
            n = ref.dim
            for t in KERNEL_TIMES:
                if ref.kind == "chain3" and t < CHAIN_T_MIN:
                    continue
                X = rng.normal(size=(self.pairs, n))
                Y = rng.normal(size=(self.pairs, n))
                tau = rng.uniform(-1.0, 1.0, size=self.pairs)
                Yb = rng.normal(size=(self.batch, n))
                kr = R.kernel_ref(ref, X, Y, t)
                for i in range(self.pairs):
                    self._kernel(rnd, K, sp, X[i], Y[i], t, kr, i)
                for i in range(self.pairs):
                    self._derivative(rnd, K, sp, X[i], Y[i], t, kr, i)
                for i in range(self.pairs):
                    self._liyau(rnd, K, sp, X[i], Y[i], t, tau[i], ref)
                d = rnd.call("distance", K.pseudo_distance, sp, X[0], Yb, t,
                             work=float(self.batch))
                if d is not None:
                    want = R.kernel_ref(ref, np.broadcast_to(X[0], Yb.shape), Yb, t).m_t
                    rnd.check("distance", _close(d, want, TOL_REL * (1.0 + want)),
                              "pseudo_distance off at t=%g (%s)" % (t, ref.kind))

    @staticmethod
    def _kernel(rnd, K, sp, x, y, t, kr, i):
        out = rnd.call("kernel", K.heat_kernel, sp, x, y, t)
        if out is None:
            return
        lp = kr.log_p[i]
        ok = (
            abs(out.log_value - lp) <= TOL_LOG_P
            and abs(out.value - math.exp(lp)) <= 2.0 * TOL_LOG_P * math.exp(lp) + 1e-290
            and abs(out.m_t - kr.m_t[i]) <= TOL_REL * (1.0 + kr.m_t[i])
            and 0.0 <= out.form_residual <= TOL_FORM_RESIDUAL
        )
        rnd.check("kernel", ok, "heat_kernel t=%g: log %r vs %r, m_t %r vs %r, residual %r"
                  % (t, out.log_value, lp, out.m_t, kr.m_t[i], out.form_residual))

    @staticmethod
    def _derivative(rnd, K, sp, x, y, t, kr, i):
        out = rnd.call("derivative", K.kernel_log_derivatives, sp, x, y, t)
        if out is None:
            return
        g = kr.grad_X[i]
        ok = _close(out.grad_X, g, TOL_DERIV * (1.0 + np.max(np.abs(g)))) and (
            abs(out.dt - kr.dt[i]) <= TOL_DERIV * kr.dt_scale[i]
        )
        rnd.check("derivative", ok, "log-derivatives t=%g: dt %r vs %r"
                  % (t, out.dt, kr.dt[i]))

    @staticmethod
    def _liyau(rnd, K, sp, x, y, s, tau, ref):
        t = s + tau
        out = rnd.call("liyau", K.liyau_kernel_identity, sp, x, y, t, tau)
        if out is None:
            return
        # the program evaluates at t - tau; the reference does the same
        kr = R.kernel_ref(ref, x, y, t - tau)
        want = kr.liyau_rhs
        ok = abs(out.rhs - want) <= TOL_REL * want and (
            abs(out.lhs - want) <= TOL_DERIV * (want + kr.dt_scale[0])
        )
        rnd.check("liyau", ok, "Li-Yau s=%g: lhs %r rhs %r want %r"
                  % (t - tau, out.lhs, out.rhs, want))


# --------------------------------------------------------- semigroup values

GH_ALPHA_MAX = 1.0  # Gauss-Hermite is exact to roundoff while 2 Sigma S <= 1
GH_T_MIN = 0.01
GH_T_CAP = 5.0
N4_DEGREES = (2, 4)  # two N=4 calls a round: 40^4 nodes each
MC_T = (0.2, 1.5)
POISSON_Z = (0.3, 2.0)


class SemigroupValues(Family):
    """Gauss-Hermite, Monte Carlo and Poisson values, each at its own time."""

    name = "semigroup_values"
    key = 2

    def __init__(self, hk, seed, light=False):
        super().__init__(hk, seed, light)
        self.n2 = [
            self.spec("heat", 2),
            self.spec("kolmogorov", 1),
            self.spec("ornstein_uhlenbeck", 2),
        ]
        self.n4 = self.spec("kolmogorov", 2)

    def _tf(self, terms):
        tf = self.hk.testfuncs
        return tf.TestFunction(
            tuple(tf.GaussianTerm(c, ctr, S, k) for c, ctr, S, k in terms)
        )

    def warm_up(self):
        sg, tf = self.hk.semigroup, self.hk.testfuncs
        for sp, ref in (self.n2[0], self.n4):
            f = tf.gaussian(np.zeros(ref.dim), np.eye(ref.dim))
            sg.apply_semigroup(sp, f, 0.1, np.zeros(ref.dim))
        sp, _ = self.n2[0]
        f = tf.gaussian(np.zeros(2), np.eye(2))
        sg.semigroup_gradient(sp, f, 0.1, np.zeros(2))
        sg.apply_semigroup_report(sp, tf.CompactBump(np.zeros(2), 0.5, 1.0), 0.1, np.zeros(2))
        sg.apply_poisson(sp, f, 1.0, np.zeros(2))

    def _gh_terms(self, rng, ref, degree):
        n = ref.dim
        S = _shape(rng, n, 0.7, 1.5)
        center = rng.uniform(-0.5, 0.5, size=n)
        return [(rng.uniform(0.5, 2.0), center, S, _monomial(rng, n, degree))], S

    def _gh_time(self, rng, ref, S):
        return _log_uniform(rng, GH_T_MIN, _t_max(ref, S, GH_ALPHA_MAX, GH_T_CAP))

    def run_round(self, r, rnd):
        sg, tf = self.hk.semigroup, self.hk.testfuncs
        rng = self.rng(r)
        for sp, ref in self.n2:
            for degree in range(5):
                terms, S = self._gh_terms(rng, ref, degree)
                t = self._gh_time(rng, ref, S)
                X = rng.uniform(-1.0, 1.0, size=2)
                self._gh(rnd, "gh_n2", sg, sp, ref, terms, t, X)
            terms, S = self._gh_terms(rng, ref, 2)
            t = self._gh_time(rng, ref, S)
            X = rng.uniform(-1.0, 1.0, size=2)
            g = rnd.call("gh_n2", sg.semigroup_gradient, sp, self._tf(terms), t, X)
            if g is not None:
                want = R.semigroup_gradient_ref(ref, terms, t, X)
                E = ref.exp_B(t)
                scale = np.abs(E).sum() * max(
                    _cs_bound(ref, part, t, X) for part in R.gradient_terms(terms)
                )
                rnd.check("gh_n2", _close(g, want, TOL_GH * scale),
                          "semigroup_gradient %r vs %r" % (g, want))
        sp, ref = self.n4
        for degree in () if self.light else N4_DEGREES:
            terms, S = self._gh_terms(rng, ref, degree)
            t = self._gh_time(rng, ref, S)
            X = rng.uniform(-1.0, 1.0, size=4)
            self._gh(rnd, "gh_n4", sg, sp, ref, terms, t, X)
        for k in range(4):
            sp, ref = self.n2[k % 2]
            self._mc(rnd, sg, tf, sp, ref, rng, modulated=k >= 2)
        for degree, (sp, ref) in enumerate(self.n2):
            self._poisson_closed(rnd, sg, sp, ref, rng, degree)
        if not self.light:
            self._poisson_mc(rnd, sg, tf, rng)

    def _gh(self, rnd, op, sg, sp, ref, terms, t, X):
        v = rnd.call(op, sg.apply_semigroup, sp, self._tf(terms), t, X, large=op == "gh_n4")
        if v is None:
            return
        want = float(R.semigroup_ref(ref, terms, t, X)[0])
        tol = TOL_GH * _cs_bound(ref, terms, t, X)
        rnd.check(op, abs(v - want) <= tol,
                  "apply_semigroup %s t=%g: %r vs %r" % (ref.kind, t, v, want))

    def _bump(self, rng, ref, t, X):
        center = ref.exp_B(t) @ X + rng.uniform(-0.5, 0.5, size=2)
        r_in = rng.uniform(0.4, 0.8)
        return center, r_in, r_in + rng.uniform(0.5, 1.0)

    def _mc(self, rnd, sg, tf, sp, ref, rng, modulated):
        t = _log_uniform(rng, *MC_T)
        X = rng.uniform(-1.0, 1.0, size=2)
        center, r_in, r_out = self._bump(rng, ref, t, X)
        bump = tf.CompactBump(center, r_in, r_out)
        terms = None
        f = bump
        if modulated:
            terms, _ = self._gh_terms(rng, ref, 1)
            f = tf.ModulatedBump(bump, self._tf(terms))
        out = rnd.call("mc", sg.apply_semigroup_report, sp, f, t, X)
        if out is None:
            return
        want = R.bump_expectation_ref(
            ref.exp_B(t) @ X, ref.transition_cov(t), center, r_in, r_out, terms
        )
        ok = out.method == "monte-carlo" and (
            abs(out.value - want) <= MC_SIGMAS * out.stderr + 1e-9
        )
        rnd.check("mc", ok, "MC %s t=%g: %r +- %r vs %r"
                  % (ref.kind, t, out.value, out.stderr, want))

    def _poisson_closed(self, rnd, sg, sp, ref, rng, degree):
        terms, _ = self._gh_terms(rng, ref, degree)
        z = rng.uniform(*POISSON_Z)
        X = rng.uniform(-1.0, 1.0, size=2)
        v = rnd.call("poisson_closed", sg.apply_poisson, sp, self._tf(terms), z, X)
        if v is None:
            return
        want = R.poisson_ref(lambda t: float(R.semigroup_ref(ref, terms, t, X)[0]), z)
        scale = R.poisson_ref(lambda t: _cs_bound(ref, terms, t, X), z)
        rnd.check("poisson_closed", abs(v - want) <= TOL_GH * scale,
                  "apply_poisson %s z=%g: %r vs %r" % (ref.kind, z, v, want))

    def _poisson_mc(self, rnd, sg, tf, rng):
        sp, ref = self.n2[0]  # isotropic covariance: the target is a 1-D integral
        z = rng.uniform(*POISSON_Z)
        X = rng.uniform(-1.0, 1.0, size=2)
        center, r_in, r_out = self._bump(rng, ref, 1.0, X)
        v = rnd.call("poisson_mc", sg.apply_poisson, sp,
                     tf.CompactBump(center, r_in, r_out), z, X, large=True)
        if v is None:
            return
        rho = float(np.linalg.norm(X - center))
        want = R.poisson_ref(
            lambda t: R.bump_isotropic_ref(rho, 2.0 * t, r_in, r_out), z
        )
        rnd.check("poisson_mc", abs(v - want) <= TOL_POISSON_MC,
                  "apply_poisson bump z=%g: %r vs %r" % (z, v, want))


# --------------------------------------------------------- smoothing checks

PQ = ((1.0, 2.0), (2.0, 4.0), (1.0, math.inf))
# (2, 4) is left out on kolmogorov(1): the norm grid's Gauss-Legendre
# order ignores q and takes the width of P_t f from the forward
# transport, so the L^4 norm misses its 1e-8 by up to 4e-7 near t = 1.5
PQ_LEFT_OUT = {("kolmogorov", 2.0, 4.0)}
# widths in [0.5, 1] and t in [0.5, 2] keep w^2 / t in [0.125, 2]: the
# calibrated constant is a maximum over a finite family, and a Gaussian
# whose ratio w^2 / t lies near the continuum optimum can exceed it
UC_WIDTH = (0.5, 1.0)
UC_T = (0.5, 2.0)
LR_R = (1.5, 2.0, 3.0)


class SmoothingChecks(Family):
    """Ultracontractivity checks and kernel L^r norms.

    The first check per ``(N, p, q)`` in a process pays the calibration
    of the constant; it is timed as op ``calibrate``, later ones as
    ``check``.
    """

    name = "smoothing_checks"
    key = 3

    def __init__(self, hk, seed, light=False):
        super().__init__(hk, seed, light)
        self.uc_specs = [self.spec("heat", 2), self.spec("kolmogorov", 1)]
        if not light:
            self.uc_specs.append(self.spec("heat", 3))
        self.lr_specs = [
            self.spec("heat", 2),
            self.spec("kolmogorov", 1),
            self.spec("ornstein_uhlenbeck", 2),
            self.spec("heat", 3),
        ]
        self.calibrated = set()
        self.bounds = {}

    def warm_up(self):
        sg, tf = self.hk.semigroup, self.hk.testfuncs
        sp, ref = self.lr_specs[0]
        sg.kernel_lr_norm(sp, np.zeros(2), 1.0, 2.0)
        f = tf.gaussian(np.zeros(2), np.eye(2))
        tf.exact_semigroup_oracle(sp, f, 1.0, np.zeros((4, 2)))
        sg.lp_norm(f.value, 2.0, 2, 1.0, order=8)
        sg.sup_norm(f.value, 2, 1.0, order=8)

    def _constant_bounds(self, n, p, q):
        key = (n, p, q)
        if key not in self.bounds:
            rhos = np.logspace(-4.0, 4.0, 161)
            best = max(R.heat_gaussian_ratio(n, p, q, rho) for rho in rhos)
            self.bounds[key] = (best * (1.0 - TOL_CONSTANT), R.young_constant(n, p, q))
        return self.bounds[key]

    def run_round(self, r, rnd):
        sg, tf = self.hk.semigroup, self.hk.testfuncs
        rng = self.rng(r)
        for sp, ref in self.uc_specs:
            n = ref.dim
            S = _shape(rng, n, *UC_WIDTH)
            center = rng.uniform(-0.3, 0.3, size=n)
            amp = rng.uniform(0.5, 2.0)
            t = _log_uniform(rng, *UC_T)
            f = tf.gaussian(center, S, coeff=amp)
            for p, q in PQ:
                if (ref.kind, p, q) in PQ_LEFT_OUT:
                    continue
                key = (n, p, q)
                op = "check" if key in self.calibrated else "calibrate"
                self.calibrated.add(key)
                out = rnd.call(op, sg.ultracontractivity_check, sp, f, p, q, t,
                               large=op == "calibrate" or n == 3)
                if out is not None:
                    self._check_uc(rnd, op, out, ref, amp, center, S, p, q, t)
        for sp, ref in self.lr_specs:
            for r_exp in LR_R:
                t = _log_uniform(rng, 0.1, 3.0)
                Y = rng.normal(size=ref.dim)
                v = rnd.call("lr_norm", sg.kernel_lr_norm, sp, Y, t, r_exp)
                if v is not None:
                    want = R.kernel_lr_norm_ref(ref, t, r_exp)
                    rnd.check("lr_norm", abs(v - want) <= TOL_REL * want,
                              "kernel_lr_norm %s t=%g r=%g: %r vs %r"
                              % (ref.kind, t, r_exp, v, want))

    def _check_uc(self, rnd, op, out, ref, amp, center, S, p, q, t):
        want = R.smoothing_ref(ref, amp, center, S, p, q, t)
        if math.isinf(q):
            lhs_ok = want.lhs * (1.0 - TOL_SUP_GAP) <= out.lhs <= want.lhs * (1.0 + 1e-12)
        else:
            lhs_ok = abs(out.lhs - want.lhs) <= TOL_REL * want.lhs
        lo, hi = self._constant_bounds(ref.dim, p, q)
        ok = (
            lhs_ok
            and lo <= out.constant <= hi * (1.0 + 1e-12)
            and abs(out.rhs - out.constant * want.envelope) <= TOL_REL * out.rhs
            and out.passed
            and want.lhs <= out.rhs
            and out.trace_b_negative == (ref.trace_B < 0)
        )
        rnd.check(op, ok, "ultracontractivity %s p=%g q=%g t=%g: lhs %r vs %r, "
                  "constant %r in [%r, %r], rhs %r vs %r, passed %r"
                  % (ref.kind, p, q, t, out.lhs, want.lhs, out.constant, lo, hi,
                     out.rhs, out.constant * want.envelope, out.passed))


FAMILIES = {cls.name: cls for cls in (KernelPoints, SemigroupValues, SmoothingChecks)}
