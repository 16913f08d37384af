"""The benchmark's tracer still finds every name it patches in the pipeline.

``bench/run.py --trace 1`` wraps pipeline attributes by name through
``spans.Tracer``; this test installs the tracer over a full-stage pass of
the planted questions, so renaming or removing one of those names fails
here rather than only in a traced benchmark run. It also checks that
connections go through ``struct_align.compatibility``, the leaf behind the
benchmark's ``struct_align.compat_computed``: one call per distinct pair
that ``CompatibilityCache.get`` is asked for.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from alignrag import pipeline
from alignrag.pipeline import RetrievalEngine
from alignrag.struct_align import CompatibilityCache
from planted import build_planted

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"

STAGE_SPANS = {
    "info_align.align_keyword",
    "info_align.retrieve_base",
    "struct_align.expand_base",
    "struct_align.solve_mip",
    "verify_agg.serialize_draft",
}


def answer_all(bench) -> list[dict]:
    engine = RetrievalEngine(bench.corpus, config=bench.config)
    return [
        engine.run_arm(q.question, stage="full").to_trace(q.question_id)
        for q in bench.questions
    ]


def test_traced_pass_matches_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    spans = importlib.import_module("spans")
    bench = build_planted()
    untraced = answer_all(bench)

    pairs = set()
    get = CompatibilityCache.get

    def recording_get(cache, id_a, id_b):
        pairs.add(tuple(sorted((id_a, id_b))))
        return get(cache, id_a, id_b)

    monkeypatch.setattr(CompatibilityCache, "get", recording_get)
    targets = [(pipeline, attr) for attr in spans.SPAN_MODULES]
    targets += [(owner, attr) for owner, attr, _ in spans.LEAF_PATCHES]
    targets += [(RetrievalEngine, "relevance_map"), (CompatibilityCache, "get")]
    originals = [getattr(owner, attr) for owner, attr in targets]

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = answer_all(bench)
    finally:
        tracer.uninstall()

    assert traced == untraced
    for (owner, attr), original in zip(targets, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    recorded = {span[0] for span in tracer.spans}
    assert STAGE_SPANS <= recorded
    computed = tracer.leaves["struct_align.compatibility"][0]
    assert computed > 0
    assert computed == len(pairs)
