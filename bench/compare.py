#!/usr/bin/env python3
"""Summarize one set of benchmark runs, or compare two sets.

    python3 bench/compare.py .bench_build/runs-a.jsonl
    python3 bench/compare.py .bench_build/runs-a.jsonl .bench_build/runs-b.jsonl

Inputs are the JSON-lines files ``sweep.py --out`` writes. For each
workload and metric the table gives the median and quartiles of each set
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median. With one set, a metric
is ``steady`` when its spread is within a third of its bound. With two,
it ``agrees`` when the second median is not worse than the first by more
than the bound. Per-layer metrics have no bound and are only summarized.
Exits 1 when an end-to-end metric's spread exceeds its bound or, with two
sets, when any end-to-end metric disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> values, over every run in the file."""
    values: dict[tuple[str, str], list[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                for name, metric in record["result"]["metrics"].items():
                    values[(record["workload"], name)].append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """median, first quartile, third quartile, spread."""
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else float("inf")
    return median, q1, q3, spread


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse second is than first, as a share of first."""
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first")
    parser.add_argument("second", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    first = load(args.first)
    second = load(args.second) if args.second else None
    ok = True
    header = f"{'workload':<10} {'metric':<34} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7}"
    if second is not None:
        header += f" {'median2':>12} {'spread2':>7} {'worse':>7}"
    print(header + "  verdict")
    for key in sorted(first):
        workload, name = key
        meta = metrics.get(name, {"better": "lower"})
        bound = meta.get("bound")
        median, q1, q3, spread = summary(first[key])
        row = (
            f"{workload:<10} {name:<34} {len(first[key]):>3} "
            f"{median:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>7.3f}"
        )
        verdict = ""
        if bound is not None:
            if spread > bound:
                verdict, ok = f"spread over bound {bound}", False
            elif spread > bound / 3:
                verdict = f"within bound {bound}, not steady"
            else:
                verdict = "steady"
        if second is not None and key in second:
            median2, _, _, spread2 = summary(second[key])
            worse = worse_by(median, median2, meta["better"])
            row += f" {median2:>12.4f} {spread2:>7.3f} {worse:>7.3f}"
            if bound is not None:
                agrees = worse <= bound and spread2 <= bound
                verdict = "agrees" if agrees else f"DISAGREES (bound {bound})"
                ok = ok and agrees
        print(f"{row}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
