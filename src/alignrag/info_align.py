"""Stage one: align the question with the collection's surface forms.

Keywords are carved out of the question itself, each keyword is rewritten
into indexed N-grams by constrained decoding, and the rewritten queries
are fused with embedding similarity into a base candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import prompts
from .embedding import VectorStore, object_similarity, top_objects
from .errors import AllBeamsDead, ValidationError
from .lm import (
    SEP_TOKEN,
    STOP_TOKEN,
    Context,
    TokenScorer,
    checked_score,
    constrained_ngram_decode,
)
from .ngram_index import Bm25Index, NGram, NGramTrie, bm25_search, normalize_tokens


def extract_keywords(
    scorer: TokenScorer, question: str, template: Optional[str] = None
) -> list[str]:
    """Decode keywords as contiguous, non-overlapping question substrings.

    Candidate tokens are masked so every keyword is a run of adjacent
    question tokens and keywords appear in question order. When the
    scorer produces nothing, the whole normalized question is the
    single fallback keyword.
    """
    if not question.strip():
        raise ValidationError("question is empty")
    qtokens = normalize_tokens(question)
    fallback = " ".join(qtokens) if qtokens else question.strip().lower()
    if not qtokens:
        return [fallback]

    rendered = (template or prompts.KEYWORD_TEMPLATE).format(user_question=question)
    context = Context(scorer.tokenize(rendered))
    keywords: list[list[str]] = []
    current: list[str] = []
    current_end = -1
    next_start = 0
    n = len(qtokens)

    for _ in range(2 * n + 4):
        positions: dict[str, int] = {}
        if current:
            if current_end + 1 < n:
                positions.setdefault(qtokens[current_end + 1], current_end + 1)
            candidates = sorted(positions)
            if current_end + 1 < n:
                candidates.append(SEP_TOKEN)
            candidates.append(STOP_TOKEN)
        else:
            for j in range(next_start, n):
                positions.setdefault(qtokens[j], j)
            candidates = sorted(positions)
            if keywords:
                candidates.append(STOP_TOKEN)
            if not candidates:
                break
        logits = checked_score(scorer, context, candidates)
        token, _ = min(zip(candidates, logits), key=lambda p: (-p[1], p[0]))
        context.push(token)
        if token == STOP_TOKEN:
            break
        if token == SEP_TOKEN:
            keywords.append(current)
            next_start = current_end + 1
            current = []
            continue
        if current:
            current_end += 1
        else:
            current_end = positions[token]
        current.append(token)
    if current:
        keywords.append(current)
    if not keywords:
        return [fallback]
    return [" ".join(kw) for kw in keywords]


@dataclass(frozen=True)
class AlignedList:
    """One beam's decoded N-grams, sorted by score descending."""

    ngrams: tuple[NGram, ...]
    scores: tuple[float, ...]


@dataclass(frozen=True)
class KeywordAlignment:
    keyword: str
    lists: tuple[AlignedList, ...]


def align_keyword(
    scorer: TokenScorer,
    trie: NGramTrie,
    keyword: str,
    question: str = "",
    beam_width: int = 3,
    max_ngrams: int = 3,
    template: Optional[str] = None,
) -> KeywordAlignment:
    """Rewrite one keyword into indexed N-grams; empty on a dead decode."""
    rendered = (template or prompts.ALIGN_TEMPLATE).format(
        user_question=question, keyword=keyword
    )
    try:
        beams = constrained_ngram_decode(
            scorer,
            trie,
            rendered,
            beam_width=beam_width,
            max_ngrams=max_ngrams,
            label=keyword,
        )
    except AllBeamsDead:
        return KeywordAlignment(keyword=keyword, lists=())
    lists = []
    for beam in beams:
        pairs = sorted(
            zip(beam.ngrams, beam.ngram_scores), key=lambda p: (-p[1], p[0].text)
        )
        lists.append(
            AlignedList(
                ngrams=tuple(p[0] for p in pairs),
                scores=tuple(p[1] for p in pairs),
            )
        )
    return KeywordAlignment(keyword=keyword, lists=tuple(lists))


def clamp01(value: float) -> float:
    return max(0.0, min(1.0, value))


def clamp_relevance(similarity: np.ndarray) -> np.ndarray:
    """``clamp01`` of each object similarity; ``+ 0.0`` turns ``-0.0``
    into ``0.0``, as ``clamp01`` gives."""
    return np.clip(similarity, 0.0, 1.0) + 0.0


@dataclass(frozen=True)
class BaseEntry:
    """One base-set candidate with its fused and component scores."""

    object_id: str
    fused: float
    bm25: float
    embed: float


def retrieve_base(
    question_vec: np.ndarray,
    alignments: Sequence[KeywordAlignment],
    bm25_index: Bm25Index,
    store: VectorStore,
    alpha: float = 0.5,
    base_size: int = 10,
) -> tuple[list[BaseEntry], np.ndarray]:
    """Fuse aligned-N-gram BM25 hits with embedding similarity.

    Every decoded N-gram list issues one BM25 query over its concatenated
    tokens. Chunk scores keep their best value across queries, are min-max
    normalized within this question, and objects inherit their best chunk.
    Returns the base set, best first, and every object's clamped
    similarity with the question vector, by store position: the relevance
    the later stages weigh.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValidationError(f"alpha must be in [0, 1], got {alpha}")
    if base_size < 1:
        raise ValidationError(f"base_size must be >= 1, got {base_size}")

    chunk_best: dict[str, float] = {}
    for alignment in alignments:
        for aligned in alignment.lists:
            terms: list[str] = []
            for gram in aligned.ngrams:
                terms.extend(gram.tokens)
            if not terms:
                continue
            for chunk_id, score in bm25_search(bm25_index, terms):
                if score > chunk_best.get(chunk_id, float("-inf")):
                    chunk_best[chunk_id] = score
    chunk_norm = np.zeros(len(store))
    if chunk_best:
        low = min(chunk_best.values())
        span = max(chunk_best.values()) - low
        for cid, score in chunk_best.items():
            # a hit on a chunk the store does not hold still counted in the
            # normalization, but feeds no object
            row = store.chunk_rows.get(cid)
            if row is not None:
                chunk_norm[row] = 1.0 if span == 0.0 else (score - low) / span
    bm25 = np.maximum.reduceat(chunk_norm, store.offsets[:-1])
    embed = clamp_relevance(object_similarity(store, question_vec))
    fused = alpha * bm25 + (1.0 - alpha) * embed

    base = [
        BaseEntry(
            object_id=store.object_ids[j],
            fused=float(fused[j]),
            bm25=float(bm25[j]),
            embed=float(embed[j]),
        )
        for j in top_objects(fused, base_size)
    ]
    return base, embed
