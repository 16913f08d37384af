"""End-to-end aligned retrieval: the three stages wired together.

One engine instance holds the prepared corpus artifacts (chunks, trie,
BM25 statistics, chunk vectors, compatibility cache) and answers
questions through the full align / expand-and-solve / verify flow, or
through truncated stages for ablation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from .config import Config
from .corpus import Corpus
from .embedding import (
    EmbeddingProvider,
    FileVectorProvider,
    HashEmbeddingProvider,
    VectorStore,
    embed_corpus,
    object_similarity,
)
from .errors import ValidationError
from .info_align import (
    BaseEntry,
    KeywordAlignment,
    align_keyword,
    clamp_relevance,
    extract_keywords,
    retrieve_base,
)
from .lm import MockScorer, TokenScorer
from .ngram_index import Bm25Index, NGramTrie, build_bm25, build_trie, corpus_ngrams
from .struct_align import (
    CompatibilityCache,
    Draft,
    SearchSet,
    build_mip_instance,
    expand_base,
    solve_mip,
)
from .verify_agg import (
    BeamSelection,
    ConfidenceEntry,
    SerializedDraft,
    aggregate,
    finalize,
    serialize_draft,
    verify_select,
)

STAGES = ("ia", "sa", "full")


@dataclass
class ArmResult:
    """Everything one question produced, down to the final ranked list."""

    question: str
    stage: str
    keywords: list[str]
    alignments: list[KeywordAlignment]
    base: list[BaseEntry]
    search_sets: list[SearchSet] = field(default_factory=list)
    drafts: list[Draft] = field(default_factory=list)
    serialized: list[SerializedDraft] = field(default_factory=list)
    selections: list[BeamSelection] = field(default_factory=list)
    confidence: list[ConfidenceEntry] = field(default_factory=list)
    final: list[str] = field(default_factory=list)
    llm_calls: int = 1

    def to_trace(self, question_id: str) -> dict:
        return {
            "version": 1,
            "question_id": question_id,
            "question": self.question,
            "stage": self.stage,
            "keywords": list(self.keywords),
            "alignments": [
                {
                    "keyword": al.keyword,
                    "beams": [
                        [
                            {"ngram": g.text, "score": s}
                            for g, s in zip(lst.ngrams, lst.scores)
                        ]
                        for lst in al.lists
                    ],
                }
                for al in self.alignments
            ],
            "base": [
                {
                    "object_id": e.object_id,
                    "fused": e.fused,
                    "bm25": e.bm25,
                    "embed": e.embed,
                }
                for e in self.base
            ],
            "drafts": [
                {
                    "strategy": list(ss.strategy),
                    "object_ids": list(d.object_ids),
                    "connections": [list(pair) for pair in d.connections],
                    "objective": d.objective,
                }
                for ss, d in zip(self.search_sets, self.drafts)
            ],
            "selections": [
                {
                    "branch": sel.branch,
                    "selected": list(sel.selected),
                    "weights": {oid: sel.weights[oid] for oid in sorted(sel.weights)},
                }
                for sel in self.selections
            ],
            "confidence": [
                {
                    "object_id": e.object_id,
                    "avg_weight": e.avg_weight,
                    "count_norm": e.count_norm,
                    "confidence": e.confidence,
                }
                for e in self.confidence
            ],
            "final": list(self.final),
            "llm_calls": self.llm_calls,
        }


def _record(**fields: dict) -> dict:
    """A closed object schema: every field is required and no other key
    may appear."""
    return {
        "type": "object",
        "required": list(fields),
        "additionalProperties": False,
        "properties": fields,
    }


def _array(items: dict, **bounds: int) -> dict:
    return {"type": "array", "items": items, **bounds}


_STRING = {"type": "string"}
_NUMBER = {"type": "number"}
_PAIR = {"minItems": 2, "maxItems": 2}

TRACE_SCHEMA = _record(
    version={"const": 1},
    question_id=_STRING,
    question=_STRING,
    stage={"enum": list(STAGES)},
    keywords=_array(_STRING),
    alignments=_array(
        _record(
            keyword=_STRING,
            beams=_array(_array(_record(ngram=_STRING, score=_NUMBER))),
        )
    ),
    base=_array(
        _record(object_id=_STRING, fused=_NUMBER, bm25=_NUMBER, embed=_NUMBER)
    ),
    drafts=_array(
        _record(
            strategy=_array({"type": "integer"}, **_PAIR),
            object_ids=_array(_STRING),
            connections=_array(_array(_STRING, **_PAIR)),
            objective=_NUMBER,
        )
    ),
    selections=_array(
        _record(
            branch=_STRING,
            selected=_array(_STRING),
            weights={"type": "object", "additionalProperties": _NUMBER},
        )
    ),
    confidence=_array(
        _record(
            object_id=_STRING,
            avg_weight=_NUMBER,
            count_norm=_NUMBER,
            confidence=_NUMBER,
        )
    ),
    final=_array(_STRING),
    llm_calls={"type": "integer"},
)


def build_scorer(config: Config) -> MockScorer:
    return MockScorer(
        seed=config.seed if config.scorer == "mock-random" else None,
        context_weight=config.mock_context_weight,
        token_bias={"<>": config.mock_stop_bias},
    )


def build_provider(config: Config) -> EmbeddingProvider:
    if config.provider == "file":
        assert config.vector_file is not None
        return FileVectorProvider(config.vector_file)
    return HashEmbeddingProvider(dimension=config.embed_dim, seed=config.seed)


class RetrievalEngine:
    """Prepared retrieval state over one corpus."""

    def __init__(
        self,
        corpus: Corpus,
        config: Optional[Config] = None,
        provider: Optional[EmbeddingProvider] = None,
        scorer: Optional[TokenScorer] = None,
        trie: Optional[NGramTrie] = None,
        bm25: Optional[Bm25Index] = None,
    ) -> None:
        self.corpus = corpus
        self.config = config or Config()
        self.provider = provider or build_provider(self.config)
        self.scorer = scorer or build_scorer(self.config)
        if trie is None:
            trie = build_trie(corpus_ngrams(corpus.chunks))
        self.trie = trie
        self.bm25 = bm25 or build_bm25(
            corpus.chunks, k1=self.config.bm25_k1, b=self.config.bm25_b
        )
        self.store: VectorStore = embed_corpus(self.provider, corpus.chunks)
        self.cache = CompatibilityCache(corpus, self.provider, w=self.config.compat_w)
        self.templates = self.config.templates()

    def relevance_map(self, question_vec) -> dict[str, float]:
        """Clamped best-chunk similarity for every corpus object, the
        relevance ``run_arm`` gets from ``retrieve_base``."""
        sims = clamp_relevance(object_similarity(self.store, question_vec))
        return dict(zip(self.store.object_ids, sims.tolist()))

    def run_arm(self, question: str, stage: str = "full") -> ArmResult:
        """Answer one question; stage truncates the pipeline for ablation.

        The whole run counts as a single decoding pass. When a search set
        is smaller than the configured selection size, k shrinks to fit.
        Each distinct draft is serialized and verified once; its repeats
        reuse both, and every branch keeps its own name and vote.
        """
        if stage not in STAGES:
            raise ValidationError(f"unknown stage {stage!r}")
        cfg = self.config

        keywords = extract_keywords(
            self.scorer, question, template=self.templates["keyword"]
        )
        alignments = [
            align_keyword(
                self.scorer,
                self.trie,
                keyword,
                question=question,
                beam_width=cfg.beam_width,
                max_ngrams=cfg.max_ngrams,
                template=self.templates["align"],
            )
            for keyword in keywords
        ]
        question_vec = self.provider.embed(question)
        base, embed = retrieve_base(
            question_vec,
            alignments,
            self.bm25,
            self.store,
            alpha=cfg.alpha,
            base_size=cfg.base_size,
        )
        result = ArmResult(
            question=question,
            stage=stage,
            keywords=keywords,
            alignments=alignments,
            base=base,
        )
        if stage == "ia":
            result.final = [e.object_id for e in base[: cfg.final_k]]
            return result

        relevance = dict(zip(self.store.object_ids, embed.tolist()))
        base_ids = [e.object_id for e in base]
        result.search_sets = expand_base(
            base_ids, self.cache.nominate, strategies=cfg.strategies
        )
        for search_set in result.search_sets:
            k = min(cfg.mip_k, len(search_set.object_ids))
            ids = search_set.object_ids
            instance = build_mip_instance(ids, relevance, self.cache.score, k)
            result.drafts.append(solve_mip(instance))
        if stage == "sa":
            best = min(result.drafts, key=lambda d: (-d.objective, d.object_ids))
            ranked = sorted(
                best.object_ids, key=lambda oid: (-relevance.get(oid, 0.0), oid)
            )
            result.final = ranked[: cfg.final_k]
            return result

        n_beams = max((len(al.lists) for al in alignments), default=0) or 1
        alignment_texts = [render_alignment(alignments, bi) for bi in range(n_beams)]
        kept_units: dict[str, list[int]] = {}
        tokenized: dict[str, list[str]] = {}
        # scoring is deterministic, so a repeated draft's selections are
        # those of its first occurrence
        verified: dict[Draft, tuple[SerializedDraft, list[BeamSelection]]] = {}
        for si, draft in enumerate(result.drafts):
            if draft not in verified:
                sdraft = serialize_draft(
                    draft,
                    relevance,
                    self.corpus,
                    self.provider,
                    question_vec,
                    cache=self.cache,
                    unit_k=cfg.unit_k,
                    kept_units=kept_units,
                )
                verified[draft] = sdraft, [
                    verify_select(
                        self.scorer,
                        question,
                        keywords,
                        sdraft,
                        alignment_text=alignment_text,
                        branch=f"s{si}b{bi}",
                        template=self.templates["verify"],
                        tokenized=tokenized,
                    )
                    for bi, alignment_text in enumerate(alignment_texts)
                ]
            sdraft, selections = verified[draft]
            result.serialized.append(sdraft)
            result.selections.extend(
                replace(selection, branch=f"s{si}b{bi}")
                for bi, selection in enumerate(selections)
            )
        result.confidence = aggregate(result.selections, vote_lambda=cfg.vote_lambda)
        result.final = finalize(result.confidence, final_k=cfg.final_k)
        return result


def render_alignment(alignments: Sequence[KeywordAlignment], beam_index: int) -> str:
    """One branch's aligned N-grams as compact keyword ( items ) text."""
    parts = []
    for alignment in alignments:
        if not alignment.lists:
            continue
        lst = alignment.lists[min(beam_index, len(alignment.lists) - 1)]
        items = ", ".join(g.text for g in lst.ngrams)
        parts.append(f"{alignment.keyword} ( {items} )")
    return " ".join(parts)
