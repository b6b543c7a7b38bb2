"""Compare two result sets of end-to-end runs.

    python3 benchmarks/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` writes (``bench_out/*.json``);
subdirectories are searched too, and records of traced runs are skipped.
For every workload and every end-to-end metric of ``BENCHMARK.json`` it
prints both medians, the change (positive is worse) and both spreads
(quartile distance over the median). It names each metric that got
worse by more than its bound, got better by more than its bound, or whose
spread in either set is wider than its bound, and exits with 1 if any
got worse or is too wide.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(path: Path):
    """workload -> list of records (untraced runs only)."""
    out = defaultdict(list)
    for f in sorted(path.rglob("*.json")):
        with open(f) as fh:
            rec = json.load(fh)
        if isinstance(rec, dict) and rec.get("trace") == 0 and "workload" in rec:
            out[rec["workload"]].append(rec)
    return out


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(records):
    att = sum(r["attempted"] for r in records)
    return sum(r["failed"] for r in records) / att if att else 0.0


def compare(base, new, metrics):
    """Yield (workload, name, base median, new median, change, spreads, flags)."""
    for workload in sorted(set(base) | set(new)):
        a_recs, b_recs = base.get(workload, []), new.get(workload, [])
        if not a_recs or not b_recs:
            yield workload, None, None, None, None, None, ["MISSING"]
            continue
        for m in metrics:
            a = [r["metrics"][m["name"]]["value"] for r in a_recs if m["name"] in r["metrics"]]
            b = [r["metrics"][m["name"]]["value"] for r in b_recs if m["name"] in r["metrics"]]
            if not a or not b:
                yield workload, m["name"], None, None, None, None, ["MISSING"]
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            flags = []
            if change > m["bound"]:
                flags.append("WORSE")
            elif change < -m["bound"]:
                flags.append("BETTER")
            if max(sa, sb) > m["bound"]:
                flags.append("WIDE")
            yield workload, m["name"], ma, mb, change, (sa, sb), flags


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("--spec", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    with open(args.spec) as fh:
        metrics = json.load(fh)["end_to_end"]
    base, new = load(args.base), load(args.new)
    bad = False
    print("%-18s %-24s %14s %14s %8s %7s %7s  %s"
          % ("workload", "metric", "base", "new", "worse", "sprA", "sprB", "flags"))
    for workload, name, ma, mb, change, spreads, flags in compare(base, new, metrics):
        bad |= any(f in ("WORSE", "WIDE", "MISSING") for f in flags)
        if name is None or ma is None:
            print("%-18s %-24s %s" % (workload, name or "-", " ".join(flags)))
            continue
        print("%-18s %-24s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%%  %s"
              % (workload, name, ma, mb, 100 * change, 100 * spreads[0], 100 * spreads[1],
                 " ".join(flags)))
    for workload in sorted(set(base) & set(new)):
        fa, fb = failed_share(base[workload]), failed_share(new[workload])
        print("%-18s failed share %.6g -> %.6g (%d and %d runs)%s"
              % (workload, fa, fb, len(base[workload]), len(new[workload]),
                 "" if fa == fb else "  DIFFERS"))
        bad |= fa != fb
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
