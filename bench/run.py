#!/usr/bin/env python3
"""Run one alignrag benchmark workload and print its metrics.

    python3 bench/run.py --workload synth-1k --seed 3 --seconds 25 --trace 0

Run from a checkout of the repository; the program is imported from its
``src/`` directory. The workload's inputs are generated from ``--seed``
and written under ``.bench_build/`` in the checkout. Every metric is
printed as ``name value unit n=samples``; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` its per-layer metrics, and also writes the
spans and every layer figure to ``.bench_build/out/``.

Exits 1 when the correctness gate fails and 2 when the program or
BENCHMARK.json cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_build"


def _die(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return _die(f"{spec_path.name} not found at the checkout root")
    if not (SRC / "alignrag" / "__init__.py").is_file():
        return _die("src/alignrag not found: run from a checkout of the repository")
    if not (TESTS / "planted.py").is_file():
        return _die("tests/planted.py not found: run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(TESTS)]
    import alignrag

    if not Path(alignrag.__file__).resolve().is_relative_to(SRC):
        return _die(f"alignrag imported from {alignrag.__file__}, not from src/")
    import harness

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return _die("--seconds must be positive")

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    metrics, attempted, failed, violations = harness.execute(
        args.workload, args.seed, args.seconds, bool(args.trace), WORK
    )
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, (value, unit, samples) in sorted(metrics.items()):
        print(f"  {name:<36} {value:>14.6f} {unit:<6} n={samples}")
    for problem in violations:
        print(f"VIOLATION {problem}", file=sys.stderr)
    missing = [name for name in wanted if name not in metrics]
    if missing:
        violations.append(f"metrics not measured: {missing}")
        print(f"VIOLATION metrics not measured: {missing}", file=sys.stderr)
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name][0], "unit": metrics[name][1]}
            for name in wanted
            if name in metrics
        },
    }
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
