"""One workload in one fresh process; prints its figures as a JSON line.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``
and the BLAS thread count pinned. Set-up time is measured from the top
of this file: imports, building the workload's inputs and one warm-up
call per operation.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

CROSS_SECONDS = 3.0

# each timed figure: (family, op, how the rounds are reduced, unit)
#   rate: work done per second inside the op's calls
#   mean_ms: mean latency of the op's calls, in ms
#   total_s: summed over every round of the run, in s
METRICS = {
    "kernel_evals_per_s": ("kernel_points", "kernel", "rate", "1/s"),
    "derivative_evals_per_s": ("kernel_points", "derivative", "rate", "1/s"),
    "liyau_evals_per_s": ("kernel_points", "liyau", "rate", "1/s"),
    "distance_points_per_s": ("kernel_points", "distance", "rate", "1/s"),
    "gh_n2_ms": ("semigroup_values", "gh_n2", "mean_ms", "ms"),
    "gh_n4_ms": ("semigroup_values", "gh_n4", "mean_ms", "ms"),
    "mc_value_ms": ("semigroup_values", "mc", "mean_ms", "ms"),
    "poisson_closed_ms": ("semigroup_values", "poisson_closed", "mean_ms", "ms"),
    "poisson_mc_ms": ("semigroup_values", "poisson_mc", "mean_ms", "ms"),
    "uc_calibrate_s": ("smoothing_checks", "calibrate", "total_s", "s"),
    "uc_check_ms": ("smoothing_checks", "check", "mean_ms", "ms"),
    "lr_norm_ms": ("smoothing_checks", "lr_norm", "mean_ms", "ms"),
}


def _reduce(rounds, op, how, field="times"):
    """The run's figure for one op, or None if no round timed it.

    Rounds whose number of ``op`` calls differs from the usual one (the
    cold round of ``smoothing_checks``) are left out. Each call position
    of a round gets the median over rounds, which keeps the round's mix
    of calls and drops a stray slow call.
    """
    series = [getattr(r, field)[op] for r in rounds]
    if how == "total_s":
        return sum(map(sum, series)) or None
    counts = Counter(len(s) for s in series if s)
    if not counts:
        return None
    n = max(counts, key=lambda c: (counts[c], c))
    kept = [r for r, s in zip(rounds, series) if len(s) == n]
    busy = sum(statistics.median(getattr(r, field)[op][k] for r in kept) for k in range(n))
    return kept[0].work[op] / busy if how == "rate" else 1e3 * busy / n


def _import_hypok(root):
    import hypok
    import hypok.kernel  # noqa: F401
    import hypok.operator_core  # noqa: F401
    import hypok.semigroup  # noqa: F401
    import hypok.testfuncs  # noqa: F401

    src = (root / "src").resolve()
    if src not in Path(hypok.__file__).resolve().parents:
        raise SystemExit("hypok was imported from %s, not from %s" % (hypok.__file__, src))
    return hypok


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    hk = _import_hypok(root)
    from tracer import Tracer
    from workloads import FAMILIES, PROBE_NOMINAL_S, Clock, Round

    main_family = FAMILIES[args.workload](hk, args.seed)
    # every run reports every metric, so the other families' light
    # variants run for CROSS_SECONDS each after the timed loop
    cross = [cls(hk, args.seed, light=True) for name, cls in FAMILIES.items()
             if name != args.workload]
    for fam in [main_family] + cross:
        fam.warm_up()
    setup_raw = time.perf_counter() - T0
    clock = Clock()
    clock.probe("small", 21)
    # set-up is import and small calls: it scales with the small probe
    setup_s = setup_raw * PROBE_NOMINAL_S["small"] / statistics.median(clock.durations["small"])
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return 0

    tracer = None
    if args.trace_out:
        tracer = Tracer()
        tracer.install(hk)

    # closed loop: round 0, then further rounds until `seconds` have passed
    main_rounds = []
    layers = None
    loop_start = None
    while loop_start is None or time.perf_counter() - loop_start < args.seconds:
        rnd = Round(clock)
        if tracer is not None and not main_rounds:
            tracer.reset()
            tracer.recording = True
        main_family.run_round(len(main_rounds), rnd)
        rnd.close()
        if tracer is not None and not main_rounds:
            tracer.recording = False
            layers = tracer.metrics()
            spans = tracer.spans
        main_rounds.append(rnd)
        if loop_start is None:
            loop_start = time.perf_counter()

    if tracer is not None:
        tracer.uninstall()

    by_family = {args.workload: main_rounds}
    for fam in cross:
        rounds = by_family[fam.name] = []
        stop = time.perf_counter() + CROSS_SECONDS
        while len(rounds) < 2 or time.perf_counter() < stop:
            rnd = Round(clock)
            fam.run_round(len(rounds), rnd)
            rnd.close()
            rounds.append(rnd)

    all_rounds = [r for rs in by_family.values() for r in rs]
    metrics = {name: (_reduce(by_family[fam], op, how), unit)
               for name, (fam, op, how, unit) in METRICS.items()}
    metrics = {k: v for k, v in metrics.items() if v[0] is not None}
    metrics["wall_s"] = (statistics.median(r.busy for r in main_rounds), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = {name: _reduce(by_family[fam], op, how, "raw")
           for name, (fam, op, how, unit) in METRICS.items()}
    raw["wall_s"] = statistics.median(sum(sum(t) for t in r.raw.values()) for r in main_rounds)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "raw": raw,
        "rounds": len(main_rounds),
        "attempted": sum(r.attempted for r in all_rounds),
        "failed": sum(r.failed for r in all_rounds),
        "errors": [e for r in all_rounds for e in r.errors][:20],
        "metrics": metrics,
    }
    if tracer is not None:
        result["layers"] = layers
        result["absent"] = tracer.absent
        with open(args.trace_out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "round": 0,
                       "absent": tracer.absent, "layers": layers,
                       "spans_fields": ["name", "parent", "start", "end"],
                       "spans": spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
