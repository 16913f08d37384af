"""Stage three: render drafts, verify by constrained selection, aggregate.

Each draft is serialized with its strongest content units and its chosen
connections, a constrained decoder picks draft members one at a time
until it emits the stop symbol, and votes across branches merge into a
confidence ranking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from . import prompts
from .corpus import Corpus, DataObject, FIELD_SEP, ObjectKind
from .embedding import EmbeddingProvider, embed_rows, sparse_cosines, top_objects
from .errors import ValidationError
from .lm import STOP_TOKEN, Context, TokenScorer, constrained_choice_decode, left_sum
from .struct_align import CompatibilityCache, Connection, ConnectionKind, Draft


def render_connection(conn: Connection, corpus: Corpus) -> str:
    """One connection as a fixed-format sentence."""
    if conn.kind is ConnectionKind.JOIN_COLUMN:
        return (
            f"column {conn.a.locator} in {conn.a.object_id} connects with "
            f"column {conn.b.locator} in {conn.b.object_id}"
        )
    if conn.kind is ConnectionKind.ENTITY_LINK:
        table = corpus.by_id[conn.a.object_id]
        passage = corpus.by_id[conn.b.object_id]
        r, c = conn.a.locator  # type: ignore[misc]
        cell = table.rows[r][c]
        sentence = passage.sentences[conn.b.locator]  # type: ignore[index]
        return f"{cell} in {table.id} connects with {sentence} in {passage.id}"
    passage_a = corpus.by_id[conn.a.object_id]
    passage_b = corpus.by_id[conn.b.object_id]
    return (
        f"{passage_a.sentences[conn.a.locator]} in {passage_a.id} connects with "  # type: ignore[index]
        f"{passage_b.sentences[conn.b.locator]} in {passage_b.id}"  # type: ignore[index]
    )


def _unit_text(obj: DataObject, index: int) -> str:
    if obj.kind is ObjectKind.TABLE:
        return FIELD_SEP.join(obj.rows[index])
    return obj.sentences[index]


def _top_units(
    obj: DataObject,
    question_vec: np.ndarray,
    provider: EmbeddingProvider,
    unit_k: int,
) -> list[int]:
    """Indices of the unit_k units most similar to the question, ascending,
    ties by position; an object with at most unit_k units keeps them all
    without embedding any."""
    if obj.units <= unit_k:
        return list(range(obj.units))
    rows, norms = embed_rows(provider, [_unit_text(obj, i) for i in range(obj.units)])
    sims = sparse_cosines(rows.transpose(provider.dimension), norms, question_vec)
    return sorted(top_objects(sims, unit_k))


def _object_line(obj: DataObject, unit_indices: Sequence[int]) -> str:
    fields: list[str] = [obj.id, obj.title]
    if obj.kind is ObjectKind.TABLE:
        if obj.description:
            fields.append(obj.description)
        fields.extend(obj.columns)
        for i in unit_indices:
            fields.extend(obj.rows[i])
    else:
        fields.extend(obj.sentences[i] for i in unit_indices)
    return FIELD_SEP.join(fields)


@dataclass(frozen=True)
class SerializedDraft:
    """Draft text shown to the verifier, with its rendering order."""

    text: str
    object_ids: tuple[str, ...]
    object_lines: tuple[str, ...]
    connection_lines: tuple[str, ...]


def serialize_draft(
    draft: Draft,
    relevance: Mapping[str, float],
    corpus: Corpus,
    provider: EmbeddingProvider,
    question_vec: np.ndarray,
    cache: Optional[CompatibilityCache] = None,
    unit_k: int = 5,
    kept_units: Optional[dict[str, list[int]]] = None,
) -> SerializedDraft:
    """Render a draft: objects by descending relevance, then connections.

    Each object shows at most unit_k of its rows or sentences, the ones
    most similar to the question. ``kept_units`` memoizes those unit
    indices by object id: pass one dict for all drafts of one question
    (same question vector, provider and unit_k), so an object shared by
    several drafts has its units embedded once. The draft's connections
    are computed together, in one ``CompatibilityCache.connect`` pass,
    before each is read through ``cache.get``.
    """
    if unit_k < 1:
        raise ValidationError(f"unit_k must be >= 1, got {unit_k}")
    if kept_units is None:
        kept_units = {}
    order = sorted(draft.object_ids, key=lambda oid: (-relevance.get(oid, 0.0), oid))
    object_lines = []
    for oid in order:
        obj = corpus.by_id[oid]
        units = kept_units.get(oid)
        if units is None:
            units = kept_units[oid] = _top_units(obj, question_vec, provider, unit_k)
        object_lines.append(_object_line(obj, units))
    connection_lines = []
    if cache is not None:
        cache.connect(draft.connections)
        for id_a, id_b in draft.connections:
            conn = cache.get(id_a, id_b)
            if conn is not None:
                connection_lines.append(render_connection(conn, corpus))
    return SerializedDraft(
        text="\n".join(object_lines + connection_lines),
        object_ids=tuple(order),
        object_lines=tuple(object_lines),
        connection_lines=tuple(connection_lines),
    )


@dataclass(frozen=True)
class BeamSelection:
    """Objects one verification branch kept, with per-object vote weights."""

    branch: str
    selected: tuple[str, ...]
    weights: dict[str, float]


def verify_select(
    scorer: TokenScorer,
    question: str,
    keywords: Sequence[str],
    sdraft: SerializedDraft,
    alignment_text: str = "",
    branch: str = "0",
    template: Optional[str] = None,
    tokenized: Optional[MutableMapping[str, list[str]]] = None,
) -> BeamSelection:
    """Pick draft members one at a time until the stop symbol.

    Selection is masked to the remaining draft ids plus the stop symbol,
    so every vote names a draft member; at least one object is selected
    because the stop symbol only becomes available after the first pick.

    The prompt of a pick is the template with ``{selected}`` set to the
    ids picked so far, joined by spaces. Every literal and field value
    of the template is tokenized once through ``tokenized`` (see
    ``prompts.split_selected``), and each pick extends the context by
    the picked id's tokens, so the scorer sees the tokens of the whole
    prompt without tokenizing it again. ``tokenized`` memoizes the
    tokens of each text and id: pass one dict for all branches of one
    question, so a draft's text is tokenized once for all its beams.
    """
    if not sdraft.object_ids:
        raise ValidationError("draft has no objects to verify")
    try:
        pieces = prompts.split_selected(template or prompts.VERIFY_TEMPLATE)
    except ValueError as exc:
        raise ValidationError(f"verify template: {exc}") from None
    if tokenized is None:
        tokenized = {}
    values = {
        "user_question": question,
        "keywords": " | ".join(keywords),
        "alignment": alignment_text,
        "draft": sdraft.text,
    }
    fixed = []
    for piece in pieces:
        tokens: list[str] = []
        for literal, field in piece:
            for text in (literal,) if field is None else (literal, values[field]):
                if text not in tokenized:
                    tokenized[text] = scorer.tokenize(text)
                tokens += tokenized[text]
        fixed.append(tokens)
    head = Context(fixed[0])  # the first piece, then the picked ids' tokens
    picked: list[str] = []
    remaining = list(sdraft.object_ids)
    selected: list[str] = []
    weights: dict[str, float] = {}
    while remaining:
        choices = sorted(remaining)
        if selected:
            choices.append(STOP_TOKEN)
        tail: list[str] = []
        for j, piece_tokens in enumerate(fixed[1:]):
            if j:
                tail += picked
            tail += piece_tokens
        context = head.plus(tail) if tail else head
        chosen, logits = constrained_choice_decode(
            scorer, choices, context, tokenized=tokenized
        )
        if chosen == STOP_TOKEN:
            break
        selected.append(chosen)
        weights[chosen] = left_sum(logits) / len(logits)
        remaining.remove(chosen)
        if len(fixed) > 1:  # the prompt shows the picks
            for tok in tokenized[chosen]:  # memoized by the decoder
                head.push(tok)
                picked.append(tok)
    return BeamSelection(branch=branch, selected=tuple(selected), weights=weights)


@dataclass(frozen=True)
class ConfidenceEntry:
    object_id: str
    avg_weight: float
    weight_norm: float
    count_norm: float
    confidence: float


def aggregate(
    selections: Sequence[BeamSelection], vote_lambda: float = 0.5
) -> list[ConfidenceEntry]:
    """Blend normalized vote weight with softmax vote count per object.

    Only objects that received at least one vote appear. Ties in
    confidence break by object id. Vote counts whose softmax overflows a
    float (710 votes, or 709 for three objects) raise ``ValidationError``.
    """
    if not 0.0 <= vote_lambda <= 1.0:
        raise ValidationError(f"vote_lambda must be in [0, 1], got {vote_lambda}")
    votes: dict[str, list[float]] = {}
    for sel in selections:
        for oid in sel.selected:
            votes.setdefault(oid, []).append(sel.weights[oid])
    if not votes:
        return []
    avg = {oid: left_sum(ws) / len(ws) for oid, ws in votes.items()}
    low = min(avg.values())
    span = max(avg.values()) - low
    weight_norm = {
        oid: 1.0 if span == 0.0 else (value - low) / span
        for oid, value in avg.items()
    }
    try:
        exp_counts = {oid: math.exp(len(ws)) for oid, ws in votes.items()}
    except OverflowError:
        exp_counts = {}  # the sum check below raises
    denom = left_sum(exp_counts.values())
    if not 0.0 < denom < math.inf:
        most = max(map(len, votes.values()))
        raise ValidationError(f"softmax over vote counts overflows at {most} votes")
    entries = [
        ConfidenceEntry(
            object_id=oid,
            avg_weight=avg[oid],
            weight_norm=weight_norm[oid],
            count_norm=exp_counts[oid] / denom,
            confidence=vote_lambda * weight_norm[oid]
            + (1.0 - vote_lambda) * exp_counts[oid] / denom,
        )
        for oid in votes
    ]
    entries.sort(key=lambda e: (-e.confidence, e.object_id))
    return entries


def finalize(entries: Sequence[ConfidenceEntry], final_k: int = 5) -> list[str]:
    """The final retrieved list: top final_k voted objects."""
    if final_k < 1:
        raise ValidationError(f"final_k must be >= 1, got {final_k}")
    return [e.object_id for e in entries[:final_k]]
