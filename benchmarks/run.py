"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 benchmarks/run.py --workload kernel_points --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each run starts fresh worker processes
(``worker.py``) with ``PYTHONPATH=src`` and the BLAS thread count pinned
to ``BLAS_THREADS``. With ``--trace 0`` it starts ``SETUP_PROBES``
set-up-only workers and one measuring worker and prints the end-to-end
metrics; with ``--trace 1`` it starts an untraced and a traced worker and
prints the per-layer metrics of the traced one's first round, plus the
tracing overhead (the difference of the two ``wall_s``).

The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the same object, with
the workload, seed and any errors, is written under ``bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1  # no higher than any machine's core count
SETUP_PROBES = 4
DEADLINE_S = 170.0  # the whole run, every worker included
OUT_DIR = "bench_out"


def _fail(msg: str) -> int:
    print("benchmark: " + msg, file=sys.stderr)
    return 2


def _worker(root: Path, args, deadline: float, *extra) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    # run() kills the worker on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("worker exited with code %d" % proc.returncode)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "hypok" / "__init__.py").is_file():
        return _fail("no src/hypok under %s; run from the root of a checkout" % root)
    spec = _spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail("unknown workload %r" % args.workload)
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)

    try:
        if args.trace:
            base = _worker(root, args, deadline)
            trace_file = out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))
            traced = _worker(root, args, deadline, "--trace-out", str(trace_file))
            wanted = spec["per_layer"]
            figures = dict(traced["layers"])
            overhead = traced["metrics"]["wall_s"][0] - base["metrics"]["wall_s"][0]
            figures["trace.overhead_s"] = overhead
            figures["trace.overhead_share"] = overhead / base["metrics"]["wall_s"][0]
            runs = [base, traced]
        else:
            setups = [_worker(root, args, deadline, "--setup-only")["setup_s"]
                      for _ in range(SETUP_PROBES)]
            res = _worker(root, args, deadline)
            wanted = spec["end_to_end"]
            figures = {k: v for k, (v, _unit) in res["metrics"].items()}
            figures["setup_s"] = statistics.median(setups + [res["setup_s"]])
            res["raw"]["setup_s"] = res["setup_raw_s"]
            runs = [res]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        return _fail("%s: %s" % (type(exc).__name__, exc))

    metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, figures=figures, workload=args.workload, seed=args.seed,
                  trace=args.trace,
                  seconds=args.seconds, rounds=[r["rounds"] for r in runs],
                  errors=[e for r in runs for e in r["errors"]],
                  absent=runs[-1].get("absent", []),
                  wall_clock=runs[-1].get("raw", {}))
    with open(out_dir / (tag + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for err in record["errors"]:
        print("check failed: " + err, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
