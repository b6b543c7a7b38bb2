"""Spans and counters around the public names of ``hypok``'s four modules.

The tracer replaces module attributes (and a few methods of the test
function classes) with wrappers; it edits no file. It wraps each
module's public functions, every other module's name for the same
function, and ``expm`` as ``operator_core`` sees it. A name that no
longer exists is listed as absent.

Each span has a name, a parent, a start and an end. Spans are kept in
memory while ``recording`` is on and written out by the caller; self
time (a span's duration minus its children's) is summed per layer for
every span, recorded or not.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# module -> public names wrapped under "<module>.<name>"
PUBLIC = {
    "operator_core": (
        "expm",
        "matrix_exponential",
        "gramians",
        "gramian_profile",
        "hypoellipticity_check",
        "logdet_derivative_identity",
    ),
    "kernel": (
        "pseudo_distance",
        "volume",
        "heat_kernel",
        "pseudo_ball_contains",
        "kernel_log_derivatives",
        "liyau_kernel_identity",
    ),
    "testfuncs": (
        "gaussian",
        "linear",
        "constant",
        "generator_apply",
        "exact_semigroup_oracle",
        "exact_semigroup_profile",
        "TestFunction.value",
        "TestFunction.gradient",
        "TestFunction.hessian",
        "CompactBump.value",
        "CompactBump.gradient",
        "ModulatedBump.value",
        "ModulatedBump.gradient",
    ),
    "semigroup": (
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
    ),
}

LAYERS = tuple(PUBLIC)

# per-layer metric names, in the order they are reported
COUNTERS = (
    "operator_core.expm_calls",
    "operator_core.expm_matrices",
    "operator_core.gramians_calls",
    "operator_core.gramian_profile_times",
    "kernel.calls",
    "kernel.points",
    "testfuncs.value_points",
    "testfuncs.oracle_points",
    "testfuncs.profile_times",
    "semigroup.quadrature_nodes",
    "semigroup.mc_samples",
    "semigroup.norm_grid_points",
    "semigroup.poisson_time_nodes",
)


def _points(a) -> int:
    """Number of points in an ``(..., N)`` array; a single point is one."""
    shape = np.shape(a)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class _Frame:
    __slots__ = ("name", "layer", "index", "start", "child", "sub")

    def __init__(self, name, layer, index, start):
        self.name = name
        self.layer = layer
        self.index = index
        self.start = start
        self.child = 0.0
        self.sub = Counter()  # counts made anywhere below this span


class Tracer:
    """Install with ``install(hypok)``, remove with ``uninstall()``."""

    def __init__(self):
        self.recording = False
        self.spans = []  # (name, parent index or -1, start, end)
        self.counters = Counter()
        self.self_time = defaultdict(float)
        self.matrices = set()  # digests of exponentiated matrices
        self.absent = []
        self._stack = []
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self, hk):
        wrapped = {}  # id(original) -> wrapper
        for mod_name, names in PUBLIC.items():
            mod = getattr(hk, mod_name, None)
            for name in names:
                owner, attr = mod, name
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(mod, cls_name, None)
                orig = getattr(owner, attr, None) if owner is not None else None
                if orig is None:
                    self.absent.append("%s.%s" % (mod_name, name))
                    continue
                full = "%s.%s" % (mod_name, name)
                wrapper = self._wrap(orig, full, mod_name)
                wrapped[id(orig)] = wrapper
                self._set(owner, attr, wrapper)
        # other modules' names for the same functions
        for mod_name in PUBLIC:
            mod = getattr(hk, mod_name, None)
            for attr, value in list(vars(mod).items()) if mod else ():
                w = wrapped.get(id(value))
                if w is not None and value is not w:
                    self._set(mod, attr, w)

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, fn, name, layer):
        hook = _HOOKS.get(name.split(".", 1)[1])
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None and hook[0] is not None:
                args, kwargs = hook[0](tracer, args, kwargs)
            frame = tracer._open(name, layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if hook is not None and hook[1] is not None:
                hook[1](tracer, frame, out)
            return out

        return wrapper

    # -------------------------------------------------------------- spans

    def _open(self, name, layer):
        index = -1
        if self.recording:
            index = len(self.spans)
            parent = self._stack[-1].index if self._stack else -1
            self.spans.append([name, parent, 0.0, 0.0])
        frame = _Frame(name, layer, index, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        dur = end - frame.start
        self.self_time[frame.layer] += dur - frame.child
        if self._stack:
            parent = self._stack[-1]
            parent.child += dur
            parent.sub.update(frame.sub)
        if frame.index >= 0:
            self.spans[frame.index][2:] = [frame.start, end]

    def count(self, key, n=1):
        self.counters[key] += n
        if self._stack:
            self._stack[-1].sub[key] += n

    # ------------------------------------------------------------ results

    def reset(self):
        self.spans = []
        self.counters = Counter()
        self.self_time = defaultdict(float)
        self.matrices = set()

    def metrics(self):
        out = {k: float(self.counters[k]) for k in COUNTERS}
        m = self.counters["operator_core.expm_matrices"]
        out["operator_core.expm_useful_share"] = len(self.matrices) / m if m else 1.0
        for layer in LAYERS:
            out[layer + ".self_s"] = self.self_time[layer]
        return out


# ------------------------------------------------------------------ hooks
# name -> (before(tracer, args, kwargs) -> (args, kwargs), after(tracer, frame, out))


def _expm(tr, args, kwargs):
    M = np.asarray(_arg(args, kwargs, 0, "A"))
    batch = M.reshape((-1,) + M.shape[-2:])
    tr.count("operator_core.expm_calls")
    tr.count("operator_core.expm_matrices", batch.shape[0])
    for m in batch:
        tr.matrices.add(hash(m.tobytes()))
    return args, kwargs


def _counting(key):
    def before(tr, args, kwargs):
        tr.count(key)
        return args, kwargs

    return before


def _profile_times(key, pos):
    def before(tr, args, kwargs):
        tr.count(key, int(np.size(_arg(args, kwargs, pos, "ts"))))
        return args, kwargs

    return before


def _kernel(pos, name):
    def before(tr, args, kwargs):
        # work entering the layer from outside; internal re-entry is not work
        if not tr._stack or tr._stack[-1].layer != "kernel":
            tr.count("kernel.calls")
            pts = _points(_arg(args, kwargs, pos, name)) if pos is not None else 1
            tr.count("kernel.points", pts)
        return args, kwargs

    return before


def _values(tr, args, kwargs):
    if not tr._stack or tr._stack[-1].layer != "testfuncs" or not tr._stack[-1].name.endswith(
        ("value", "gradient", "hessian")
    ):
        tr.count("testfuncs.value_points", _points(_arg(args, kwargs, 1, "Y")))
    return args, kwargs


def _oracle(tr, args, kwargs):
    tr.count("testfuncs.oracle_points", _points(_arg(args, kwargs, 3, "X")))
    return args, kwargs


def _semigroup_report(tr, frame, out):
    tr.count("semigroup.values")
    n = frame.sub["testfuncs.value_points"]
    key = "semigroup.mc_samples" if out.method == "monte-carlo" else "semigroup.quadrature_nodes"
    tr.count(key, n)


def _gradient_nodes(tr, frame, out):
    tr.count("semigroup.quadrature_nodes", frame.sub["testfuncs.value_points"])


def _poisson(tr, frame, out):
    n = frame.sub["testfuncs.profile_times"] + frame.sub["semigroup.values"]
    tr.count("semigroup.poisson_time_nodes", n)


def _norm_grid(tr, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(pts):
        tr.count("semigroup.norm_grid_points", _points(pts))
        return f(pts)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


_HOOKS = {
    "expm": (_expm, None),
    "gramians": (_counting("operator_core.gramians_calls"), None),
    "gramian_profile": (_profile_times("operator_core.gramian_profile_times", 1), None),
    "pseudo_distance": (_kernel(2, "Y"), None),
    "volume": (_kernel(None, None), None),
    "heat_kernel": (_kernel(None, None), None),
    "pseudo_ball_contains": (_kernel(4, "Y"), None),
    "kernel_log_derivatives": (_kernel(None, None), None),
    "liyau_kernel_identity": (_kernel(None, None), None),
    "TestFunction.value": (_values, None),
    "TestFunction.gradient": (_values, None),
    "TestFunction.hessian": (_values, None),
    "CompactBump.value": (_values, None),
    "CompactBump.gradient": (_values, None),
    "ModulatedBump.value": (_values, None),
    "ModulatedBump.gradient": (_values, None),
    "exact_semigroup_oracle": (_oracle, None),
    "exact_semigroup_profile": (_profile_times("testfuncs.profile_times", 2), None),
    "apply_semigroup_report": (None, _semigroup_report),
    "semigroup_gradient": (None, _gradient_nodes),
    "apply_poisson": (None, _poisson),
    "lp_norm": (_norm_grid, None),
    "sup_norm": (_norm_grid, None),
}
