"""Outside-in tracing of the pipeline's layers for the benchmark.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces
the module attributes the pipeline calls through with timing wrappers and
``Tracer.uninstall`` puts the originals back. Each wrapped call becomes a
span: name, start, end, parent span and question id. Calls that happen
thousands of times per question (compatibility scoring, object
similarity, BM25 queries, choice decodes) are *leaves*: they add their
count and time to their parent span instead of recording a span each, so
memory stays flat and tracing overhead stays small.

Spans stay in memory until ``write`` dumps them as JSONL.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Sequence

from alignrag import baselines_eval, info_align, pipeline, struct_align, verify_agg
from alignrag.struct_align import CompatibilityCache

# pipeline attribute -> module that defines it, for the span name
SPAN_MODULES = {
    "extract_keywords": "info_align",
    "align_keyword": "info_align",
    "retrieve_base": "info_align",
    "expand_base": "struct_align",
    "build_mip_instance": "struct_align",
    "solve_mip": "struct_align",
    "serialize_draft": "verify_agg",
    "verify_select": "verify_agg",
    "aggregate": "verify_agg",
    "embed_corpus": "embedding",
}

# layer figures taken per engine build rather than per question
SETUP_METRICS = frozenset(
    {
        "embedding.embed_corpus_s",
        "embedding.embed_texts",
        "corpus.load_corpus_s",
        "ngram_index.load_index_s",
        "ngram_index.trie_ngrams",
    }
)

# (module object, attribute, leaf name)
LEAF_PATCHES = (
    (struct_align, "compatibility", "struct_align.compatibility"),
    (pipeline, "object_similarity", "embedding.object_similarity"),
    (info_align, "object_similarity", "embedding.object_similarity"),
    (baselines_eval, "object_similarity", "embedding.object_similarity"),
    (info_align, "bm25_search", "ngram_index.bm25_search"),
    (verify_agg, "constrained_choice_decode", "verify_agg.constrained_choice_decode"),
)


class Tracer:
    """Collects spans and leaf aggregates for one traced pass."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1, question id, covered_s]
        self.spans: list[list[Any]] = []
        self.leaves: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.observed: dict[str, list[float]] = defaultdict(list)
        self.scorers: list[CountingScorer] = []
        self.compat_lookups = 0
        self.dead_alignments = 0
        self.setup_embed_texts = 0
        self.question = "setup"
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        record = [name, 0.0, 0.0, parent, self.question, 0.0]
        self.spans.append(record)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            record[1], record[2] = start, end
            if parent >= 0:
                self.spans[parent][5] += end - start

    def leaf(self, name: str, fn: Callable, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            acc = self.leaves[name]
            acc[0] += 1
            acc[1] += elapsed
            if self._stack:
                self.spans[self._stack[-1]][5] += elapsed

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn: Callable, observe=None) -> Callable:
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result)
            return result

        return traced

    def _leaf_wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.leaf(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every traced attribute; uninstall() restores them."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        observers = {
            "expand_base": self._observe_search_sets,
            "build_mip_instance": self._observe_instance,
            "align_keyword": self._observe_alignment,
        }
        for attr, module in SPAN_MODULES.items():
            fn = getattr(pipeline, attr)
            self._patch(
                pipeline,
                attr,
                self._span_wrapper(f"{module}.{attr}", fn, observers.get(attr)),
            )
        self._patch(
            pipeline.RetrievalEngine,
            "relevance_map",
            self._span_wrapper(
                "pipeline.relevance_map", pipeline.RetrievalEngine.relevance_map
            ),
        )
        for owner, attr, name in LEAF_PATCHES:
            self._patch(owner, attr, self._leaf_wrapper(name, getattr(owner, attr)))
        original_get = CompatibilityCache.get

        def counted_get(cache, id_a, id_b):
            self.compat_lookups += 1
            return original_get(cache, id_a, id_b)

        self._patch(CompatibilityCache, "get", counted_get)

    def _observe_search_sets(self, search_sets) -> None:
        self.observed["search_set_size"].extend(len(s.object_ids) for s in search_sets)

    def _observe_instance(self, instance) -> None:
        self.observed["instance_edges"].append(len(instance.compat))

    def _observe_alignment(self, alignment) -> None:
        if not alignment.lists:
            self.dead_alignments += 1

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Dump every span as one JSON line, times relative to the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, qid, covered) in enumerate(
                self.spans
            ):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": None if parent < 0 else parent,
                            "question_id": qid,
                            "self_s": (end - start) - covered,
                        }
                    )
                    + "\n"
                )
            for name, (calls, seconds) in sorted(self.leaves.items()):
                handle.write(
                    json.dumps({"leaf": name, "calls": calls, "total_s": seconds})
                    + "\n"
                )


class CountingScorer:
    """Token scorer wrapper that counts score calls and candidates."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.score_calls = 0
        self.candidates_scored = 0

    def tokenize(self, text: str) -> list[str]:
        return self._inner.tokenize(text)

    def score(self, context: Sequence[str], candidates: Sequence[str]) -> list[float]:
        self.score_calls += 1
        self.candidates_scored += len(candidates)
        return self._inner.score(context, candidates)

    def free_next(self, context: Sequence[str]) -> tuple[str, float]:
        self.score_calls += 1
        return self._inner.free_next(context)


class CountingProvider:
    """Embedding provider wrapper that counts texts embedded."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.dimension = inner.dimension
        self.texts = 0

    def embed(self, text: str):
        self.texts += 1
        return self._inner.embed(text)

    def embed_chunk(self, chunk):
        self.texts += 1
        return self._inner.embed_chunk(chunk)


def setup_count(tracer: Tracer) -> int:
    """Engine builds the tracer saw."""
    return sum(1 for s in tracer.spans if s[0] == "pipeline.RetrievalEngine")


def _total(spans, name: str) -> float:
    return sum(s[2] - s[1] for s in spans if s[0] == name)


def layer_metrics(
    tracer: Tracer,
    n_questions: int,
    trie_ngrams: int,
) -> dict[str, tuple[float, str]]:
    """Per-question (or per-setup) layer figures from one traced pass."""
    q_spans = [s for s in tracer.spans if s[4] != "setup"]
    setup_spans = [s for s in tracer.spans if s[4] == "setup"]
    n_setups = setup_count(tracer)
    per_q = 1.0 / max(n_questions, 1)
    leaves = tracer.leaves

    def ms(name: str) -> tuple[float, str]:
        return _total(q_spans, name) * 1000.0 * per_q, "ms"

    def leaf_ms(name: str) -> tuple[float, str]:
        return leaves[name][1] * 1000.0 * per_q, "ms"

    def leaf_count(name: str) -> tuple[float, str]:
        return leaves[name][0] * per_q, "count"

    def setup_s(name: str) -> tuple[float, str]:
        values = [s[2] - s[1] for s in setup_spans if s[0] == name]
        return (statistics.median(values) if values else 0.0), "s"

    def mean(key: str) -> tuple[float, str]:
        values = tracer.observed.get(key, [])
        return (statistics.fmean(values) if values else 0.0), "count"

    computed = leaves["struct_align.compatibility"][0]
    lookups = tracer.compat_lookups
    # Stage spans are the direct children of run_arm; what they leave
    # uncovered is time spent in run_arm's own code.
    run_arm = {i for i, s in enumerate(tracer.spans) if s[0] == "pipeline.run_arm"}
    run_arm_total = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in run_arm)
    covered = sum(s[2] - s[1] for s in tracer.spans if s[3] in run_arm)
    metrics = {
        "struct_align.solve_mip_ms": ms("struct_align.solve_mip"),
        "struct_align.instance_edges": mean("instance_edges"),
        "struct_align.search_set_size": mean("search_set_size"),
        "struct_align.expand_base_ms": ms("struct_align.expand_base"),
        "struct_align.compat_ms": leaf_ms("struct_align.compatibility"),
        "struct_align.compat_computed": leaf_count("struct_align.compatibility"),
        "struct_align.compat_lookups": (lookups * per_q, "count"),
        "struct_align.compat_hit_ratio": (
            (1.0 - computed / lookups) if lookups else 0.0,
            "ratio",
        ),
        "struct_align.build_mip_instance_ms": ms("struct_align.build_mip_instance"),
        "info_align.extract_keywords_ms": ms("info_align.extract_keywords"),
        "info_align.align_keyword_ms": ms("info_align.align_keyword"),
        "info_align.dead_alignments": (tracer.dead_alignments * per_q, "count"),
        "info_align.retrieve_base_ms": ms("info_align.retrieve_base"),
        "lm.score_calls": (
            sum(s.score_calls for s in tracer.scorers) * per_q,
            "count",
        ),
        "lm.candidates_scored": (
            sum(s.candidates_scored for s in tracer.scorers) * per_q,
            "count",
        ),
        "embedding.object_similarity_ms": leaf_ms("embedding.object_similarity"),
        "embedding.object_similarity_calls": leaf_count("embedding.object_similarity"),
        "pipeline.relevance_map_ms": ms("pipeline.relevance_map"),
        "embedding.embed_corpus_s": setup_s("embedding.embed_corpus"),
        "embedding.embed_texts": (
            tracer.setup_embed_texts / max(n_setups, 1),
            "count",
        ),
        "corpus.load_corpus_s": setup_s("corpus.load_corpus"),
        "ngram_index.load_index_s": setup_s("ngram_index.load_index"),
        "ngram_index.trie_ngrams": (float(trie_ngrams), "count"),
        "ngram_index.bm25_queries": leaf_count("ngram_index.bm25_search"),
        "verify_agg.serialize_draft_ms": ms("verify_agg.serialize_draft"),
        "verify_agg.verify_select_ms": ms("verify_agg.verify_select"),
        "verify_agg.choice_decodes": leaf_count("verify_agg.constrained_choice_decode"),
        "verify_agg.aggregate_ms": ms("verify_agg.aggregate"),
        "pipeline.run_arm_ms": (run_arm_total * 1000.0 * per_q, "ms"),
        "pipeline.unaccounted_ms": ((run_arm_total - covered) * 1000.0 * per_q, "ms"),
    }
    for name in sorted({s[0] for s in q_spans if s[0].startswith("baselines_eval.")}):
        metrics[f"{name}_ms"] = ms(name)
    return metrics
