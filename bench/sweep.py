#!/usr/bin/env python3
"""Run benchmark workloads over several seeds, each in a fresh process.

    python3 bench/sweep.py --seeds 1-10 --out .bench_build/runs-a.jsonl
    python3 bench/sweep.py --workload synth-1k --seeds 1,2,3 --trace 1

Runs ``bench/run.py`` once per (workload, seed), one after another, and
appends ``{"workload", "seed", "trace", "result"}`` per run to ``--out``
as JSON lines, where ``result`` is the run's last output line. With no
``--workload`` every workload in BENCHMARK.json runs, so one command
covers them all. ``--seconds`` defaults to BENCHMARK.json's run_seconds.
Exits 1 if any run fails or reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    """'1-3,7' -> [1, 2, 3, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    ok = True
    for workload in workloads:
        for seed in parse_seeds(args.seeds):
            cmd = [
                sys.executable,
                str(RUN),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
            )
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} seed {seed}: no result (exit {proc.returncode})")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            if args.out:
                with open(args.out, "a", encoding="utf-8") as handle:
                    record = {
                        "workload": workload,
                        "seed": seed,
                        "trace": args.trace,
                        "result": result,
                    }
                    handle.write(json.dumps(record) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
