"""Write one workload's inputs to a directory.

    python3 bench/prepare.py synth-1k 3 .bench_build/synth-1k-x

Writes ``corpus.jsonl``, ``index.json``, ``config.json`` and
``questions.jsonl``. ``harness.load_inputs`` runs this in a child
process, so that generating the inputs does not count in the peak
memory of the process that measures.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1:]
    harness.prepare(workload, int(seed), Path(workdir))
