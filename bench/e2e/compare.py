#!/usr/bin/env python3
"""Compare two sets of bench_e2e results, metric by metric.

    python3 bench/e2e/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result files written by bench_e2e (``<workload>-trace0-
seed<N>.json``) or directories holding them; only timed runs (trace 0,
no self-test) count. For every (workload, end-to-end metric) the bound and
direction come from BENCHMARK.json, and the verdict is one of

* ``unresolved``: the spread between the quartiles of either side exceeds the
  bound, so the runs cannot tell a change of that size from noise -- unless
  every NEW run reads better than every BASE run, which is ``improved``;
* ``regressed``: the NEW median is worse than the BASE median by more than
  the bound;
* ``improved``: the NEW median is better by more than the BASE quartile
  spread and NEW wins at least nine tenths of all (BASE, NEW) run pairs;
* ``unchanged``: otherwise.

A workload whose NEW runs failed more checks (as a share of those attempted)
than its BASE runs is reported as a ``fail_frac`` regression. The exit code
is 1 when anything regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "pspl-e2e-v1"
DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_bounds(path):
    """{metric: (bound, better, unit)} for the end-to-end metrics."""
    spec = json.loads(Path(path).read_text())
    return {m["name"]: (m["bound"], m["better"], m["unit"])
            for m in spec["end_to_end"]}


def load_results(path):
    """Timed, non-self-test result records from a directory or one file."""
    path = Path(path)
    files = sorted(path.glob("*-seed*.json")) if path.is_dir() else [path]
    records = []
    for f in files:
        try:
            rec = json.loads(f.read_text())
        except (OSError, ValueError):
            continue
        if (isinstance(rec, dict) and rec.get("schema") == SCHEMA
                and rec.get("trace") == 0 and not rec.get("self_test")):
            records.append(rec)
    return records


def spread(values):
    """(median, q1, q3, (q3 - q1) / median), quartiles from
    statistics.quantiles(values, n=4)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, new, bound, better):
    """Verdict and relative change of NEW's median against BASE's."""
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_q1, b_q3, b_spread = spread(base)
    n_med, _, _, n_spread = spread(new)
    change = (n_med - b_med) / abs(b_med)
    worse = sign * change  # > 0 means NEW is worse

    def beats(x, y):
        return sign * (y - x) > 0  # x reads better than y

    if all(beats(n, b) for n in new for b in base):
        return "improved", change
    if b_spread > bound or n_spread > bound:
        return "unresolved", change
    if worse > bound:
        return "regressed", change
    wins = sum(beats(n, b) for n in new for b in base)
    if -sign * (n_med - b_med) > (b_q3 - b_q1) and wins >= 0.9 * len(new) * len(base):
        return "improved", change
    return "unchanged", change


def fail_frac(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return failed / attempted if attempted else 1.0


def compare(base_records, new_records, bounds):
    """Rows of (workload, metric, unit, base median, new median, change,
    bound, verdict), workload by workload."""
    rows = []
    workloads = sorted({r["workload"] for r in base_records}
                       & {r["workload"] for r in new_records})
    for w in workloads:
        base = [r for r in base_records if r["workload"] == w]
        new = [r for r in new_records if r["workload"] == w]
        for name, (bound, better, unit) in bounds.items():
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            n = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
            if not b or not n:
                rows.append((w, name, unit, None, None, None, bound, "missing"))
                continue
            v, change = verdict(b, n, bound, better)
            rows.append((w, name, unit, statistics.median(b),
                         statistics.median(n), change, bound, v))
        fb, fn = fail_frac(base), fail_frac(new)
        v = "regressed" if fn > fb else "improved" if fn < fb else "unchanged"
        rows.append((w, "fail_frac", "ratio", fb, fn, fn - fb, 0.0, v))
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", help="BASE results: a directory or one file")
    ap.add_argument("new", help="NEW results: a directory or one file")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    args = ap.parse_args(argv)
    bounds = load_bounds(args.benchmark)
    base = load_results(args.base)
    new = load_results(args.new)
    if not base or not new:
        print("compare.py: no timed results on one side", file=sys.stderr)
        return 2
    rows = compare(base, new, bounds)
    print(f"{'workload':<22} {'metric':<14} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6}  verdict")
    for w, name, unit, b, n, change, bound, v in rows:
        if b is None:
            print(f"{w:<22} {name:<14} {'-':>12} {'-':>12} {'-':>8} "
                  f"{bound:>6.2f}  {v}")
            continue
        print(f"{w:<22} {name:<14} {b:>12.5g} {n:>12.5g} {change:>+8.1%} "
              f"{bound:>6.2f}  {v}  [{unit}]")
    return 1 if any(r[7] in ("regressed", "missing") for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
