"""The solver is exact at the shipped size, checked against HiGHS.

``oracles.brute_force_mip`` stops at 15 objects, but at the default
``base_size=10`` the search sets of the 1,000-object synthetic workload
hold 18 to 38. On the selection programs that answering its questions
builds, from the engine's compatibility rows as the benchmark's gate
builds them, ``solve_mip``'s objective must equal the HiGHS optimum
(``oracles.milp_optimum``) within 1e-9 and its draft must pass
``check_draft``. The tier-1 test checks the instances of two questions;
CI checks those of the first 60 questions of seed 7, 180 instances, by
running this file:

    PYTHONPATH=src python3 tests/test_solver_highs.py 60
"""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import oracles
from alignrag.config import Config
from alignrag.corpus import build_corpus
from alignrag.pipeline import RetrievalEngine
from alignrag.struct_align import MipInstance, build_mip_instance, check_draft, solve_mip

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "bench")
GAP = 1e-9


def synth_instances(start: int, stop: int, seed: int = 7) -> list[MipInstance]:
    """The instances of the synthetic workload's questions ``start`` to
    ``stop - 1``, in the benchmark's seeded order, at ``base_size=10``."""
    if BENCH_DIR not in sys.path:
        sys.path.append(BENCH_DIR)
    generated = importlib.import_module("synth").generate(seed)
    questions = list(generated.questions)
    random.Random(seed).shuffle(questions)
    # the benchmark's synthetic config, at the shipped base size
    config = Config(embed_dim=4096, base_size=10)
    corpus = build_corpus(generated.objects, chunk_units=config.chunk_units)
    engine = RetrievalEngine(corpus, config=config)
    instances = []
    for question in questions[start:stop]:
        result = engine.run_arm(question.question, stage="sa")
        relevance = engine.relevance_map(engine.provider.embed(question.question))
        for search_set in result.search_sets:
            ids = search_set.object_ids
            k = min(config.mip_k, len(ids))
            instances.append(build_mip_instance(ids, relevance, engine.cache.score, k))
    return instances


def problems(instance: MipInstance) -> list[str]:
    """How ``solve_mip`` falls short of exact on ``instance``; empty when
    it does not."""
    draft = solve_mip(instance)
    optimum = oracles.milp_optimum(instance)
    found = check_draft(instance, draft)
    if abs(draft.objective - optimum) > GAP:
        found.append(f"objective {draft.objective!r}, HiGHS optimum {optimum!r}")
    return [f"{instance.size} objects, k={instance.k}: {p}" for p in found]


def test_solver_matches_highs_at_the_shipped_size():
    # on the first of these questions the 2(k-1) connection cap binds, and
    # on the second a bound 1e-3 below potential_bound's prunes the optimum
    instances = synth_instances(6, 8)
    assert max(instance.size for instance in instances) > 15
    assert [p for instance in instances for p in problems(instance)] == []


if __name__ == "__main__":
    instances = synth_instances(0, int(sys.argv[1]) if len(sys.argv) > 1 else 60)
    found = [p for instance in instances for p in problems(instance)]
    print("\n".join(found))
    sizes = [instance.size for instance in instances]
    print(f"{len(instances)} instances of {min(sizes)}-{max(sizes)} objects, "
          f"{len(found)} problems")
    sys.exit(1 if found else 0)
