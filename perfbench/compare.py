#!/usr/bin/env python3
"""Compares two sets of benchmark results against the benchmark's bounds.

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]

BASE and NEW are result sets: JSON-lines files that perfbench/run.py
appends to (--record), or directories holding such files. For every
(workload, metric) pair present on both sides the table gives each side's
median and quartiles over its runs and the change of the medians. An
end-to-end metric is judged against its bound from BENCHMARK.json:

  worse       NEW's median is worse than BASE's by more than the bound
  ok          within the bound
  unresolved  a side's spread (quartile distance over median) is wider
              than the bound, so the runs cannot tell; unless every NEW
              run beats every BASE run, which reads "better"

Per-layer metrics (traced runs) have no bound and are listed for reading
only. The exit code is 1 when any pair reads "worse".
"""

import argparse
import json
import statistics
import sys
from pathlib import Path


def load_set(path):
    """{(workload, trace): {metric: [values]}} from a file or directory."""
    path = Path(path)
    files = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    if not files:
        sys.exit(f"compare: no result files in {path}")
    runs = {}
    for f in files:
        for line in f.read_text().splitlines():
            if not line.strip():
                continue
            record = json.loads(line)
            metrics = runs.setdefault((record["workload"], record["trace"]), {})
            for name, m in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(float(m["value"]))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(spec, base, new):
    if spec is None:
        return "-"
    lower_better = spec["better"] == "lower"
    bound = spec["bound"]
    every_run_better = max(new) < min(base) if lower_better else min(new) > max(base)
    if every_run_better:
        return "better"
    if spread(base) > bound or spread(new) > bound:
        return "unresolved"
    b, n = statistics.median(base), statistics.median(new)
    if b == 0:
        return "ok" if n == 0 else "unresolved"
    worse_by = (n - b) / abs(b) if lower_better else (b - n) / abs(b)
    return "worse" if worse_by > bound else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=str(Path(__file__).resolve().parent.parent / "BENCHMARK.json"))
    args = parser.parse_args()

    spec = json.loads(Path(args.benchmark).read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    base, new = load_set(args.base), load_set(args.new)

    header = (f"{'workload':<12} {'metric':<34} {'base q1/med/q3':>30} "
              f"{'new q1/med/q3':>30} {'delta':>8} {'bound':>6}  verdict")
    print(header)
    worse = 0
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            metric_spec = end_to_end.get(name) if trace == 0 else None
            v = verdict(metric_spec, b, n)
            worse += v == "worse"
            bq, nq = quartiles(b), quartiles(n)
            delta = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            bound = f"{metric_spec['bound']:g}" if metric_spec else "-"
            print(f"{workload:<12} {name:<34} "
                  f"{bq[0]:>9.4g} {bq[1]:>9.4g} {bq[2]:>9.4g}  "
                  f"{nq[0]:>9.4g} {nq[1]:>9.4g} {nq[2]:>9.4g}  "
                  f"{delta:>+7.1%} {bound:>6}  {v}  (n={len(b)}/{len(n)})")
    sys.exit(1 if worse else 0)


if __name__ == "__main__":
    main()
