#!/usr/bin/env python3
"""Compares two result sets of the end-to-end benchmark against the bounds
in BENCHMARK.json.

  python3 bench/e2e/compare.py BASE.json [NEW.json]

Each file is what `run.py --seeds ...` writes. For every workload and
end-to-end metric it prints the median, quartiles and spread (interquartile
range over median) of each set. With two sets it also prints the change of
the median, signed so that positive is worse, and a verdict:

  ok          the new median is within the metric's bound of the base
  worse       the new median is worse than the base by more than the bound
  unresolved  a set's own spread exceeds the bound, so the two cannot be
              told apart, and not every new run beats every base run

Per-layer metrics (runs with --trace 1) are listed with their medians and
no verdict. Exit status is 1 when any metric is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    """{(trace, workload): {metric: [values]}} from a run.py results file."""
    out = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        key = (run["trace"], run["workload"])
        for name, m in run["result"]["metrics"].items():
            out.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def fmt(v):
    return f"{v:.4g}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new", nargs="?")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = load(args.base)
    new = load(args.new) if args.new else None
    worse = 0

    header = (f"{'workload':15} {'metric':14} {'bound':>5} | "
              f"{'base median':>11} {'q1':>9} {'q3':>9} {'spread':>7}")
    if new is not None:
        header += f" | {'new median':>11} {'spread':>7} {'change':>7}  verdict"
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = base.get((0, workload), {}).get(name)
            if not b:
                continue
            q1, med, q3 = quartiles(b)
            row = (f"{workload:15} {name:14} {bound:5.2f} | {fmt(med):>11} "
                   f"{fmt(q1):>9} {fmt(q3):>9} {spread(b):7.2%}")
            n = new.get((0, workload), {}).get(name) if new else None
            if n:
                new_med = quartiles(n)[1]
                sign = 1 if metric["better"] == "lower" else -1
                change = sign * (new_med - med) / med if med else 0.0
                all_better = (max(n) < min(b) if sign == 1 else min(n) > max(b))
                noisy = max(spread(b), spread(n)) > bound
                if change > bound:
                    verdict = "worse"
                    worse += 1
                elif noisy and not all_better:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                row += (f" | {fmt(new_med):>11} {spread(n):7.2%} "
                        f"{change:+7.2%}  {verdict}")
            print(row)

    layer_rows = [(w["name"], m["name"]) for w in spec["workloads"]
                  for m in spec["per_layer"]]
    if any((1, w) in base for w, _ in layer_rows):
        print(f"\n{'workload':15} {'per-layer metric':42} {'base median':>11}"
              + (f" {'new median':>11}" if new else ""))
        for workload, name in layer_rows:
            b = base.get((1, workload), {}).get(name)
            if not b:
                continue
            row = f"{workload:15} {name:42} {fmt(statistics.median(b)):>11}"
            n = new.get((1, workload), {}).get(name) if new else None
            if n:
                row += f" {fmt(statistics.median(n)):>11}"
            print(row)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
