"""Stage two: expand the base set along compatibility and solve selection.

Compatibility blends semantic similarity of embeddings with exact-value
overlap, specialized per object-kind pair. The scalar ``compatibility``
scores one pair and names the connection that achieves it; it is the
reference. ``CompatibilityCache`` serves scores from rows instead: one
object's compatibility with every corpus object, computed in one
vectorized pass over a sparse index of the corpus's cells, sentences
and columns. It applies the scalar formulas elementwise; only the order
in which a dot product sums its terms can differ. Connections still come
from the scalar witness.

Selection is an integer program: choose exactly k objects and up to
2(k-1) of their pairwise connections to maximize total relevance plus
connection strength. The solver is an exact branch and bound over the
selection indicators with a closed-form completion of the connection
variables; a brute-force enumerator provides an independent route to the
same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import combinations, islice
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, DataObject, ObjectKind
from .embedding import EmbeddingProvider, SparseRows, cosine, top_objects
from .errors import Infeasible, TooLarge, ValidationError, ZeroVector
from .info_align import clamp01
from .ngram_index import normalize_tokens

_BOUND_SLACK = 1e-12


def jaccard(a: set, b: set) -> float:
    """Intersection over union; 0 when both sets are empty."""
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def overlap_coefficient(a: set, b: set) -> float:
    """Intersection over the smaller set; 0 when either set is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


class ConnectionKind(str, Enum):
    JOIN_COLUMN = "join_column"
    ENTITY_LINK = "entity_link"
    SENTENCE_LINK = "sentence_link"


@dataclass(frozen=True)
class Endpoint:
    object_id: str
    locator: object  # column name, (row, col) cell address, or sentence index


@dataclass(frozen=True)
class Connection:
    kind: ConnectionKind
    a: Endpoint
    b: Endpoint
    score: float


def _semantic(provider: EmbeddingProvider, text_a: str, text_b: str) -> float:
    return clamp01(cosine(provider.embed(text_a), provider.embed(text_b)))


def column_compat(
    header_a: str,
    values_a: Sequence[str],
    header_b: str,
    values_b: Sequence[str],
    provider: EmbeddingProvider,
    w: float = 0.5,
) -> float:
    """Header similarity blended with exact-value Jaccard overlap."""
    semantic = _semantic(provider, header_a, header_b)
    value_part = jaccard(set(values_a), set(values_b))
    return w * semantic + (1.0 - w) * value_part


def unit_compat(
    text_a: str, text_b: str, provider: EmbeddingProvider, w: float = 0.5
) -> float:
    """Cell/sentence pair score; a unit with no tokens contributes 0."""
    tokens_a = set(normalize_tokens(text_a))
    tokens_b = set(normalize_tokens(text_b))
    if not tokens_a or not tokens_b:
        return 0.0
    semantic = _semantic(provider, text_a, text_b)
    return w * semantic + (1.0 - w) * overlap_coefficient(tokens_a, tokens_b)


def _column_values(table: DataObject, col: int) -> list[str]:
    return [row[col] for row in table.rows]


def table_table_compat(
    table_a: DataObject,
    table_b: DataObject,
    provider: EmbeddingProvider,
    w: float = 0.5,
) -> tuple[float, Optional[Connection]]:
    """Best column pair across the two tables."""
    best = 0.0
    conn: Optional[Connection] = None
    for ca, header_a in enumerate(table_a.columns):
        values_a = _column_values(table_a, ca)
        for cb, header_b in enumerate(table_b.columns):
            score = column_compat(
                header_a, values_a, header_b, _column_values(table_b, cb), provider, w
            )
            if score > best:
                best = score
                conn = Connection(
                    kind=ConnectionKind.JOIN_COLUMN,
                    a=Endpoint(table_a.id, header_a),
                    b=Endpoint(table_b.id, header_b),
                    score=score,
                )
    return best, conn


def table_passage_compat(
    table: DataObject,
    passage: DataObject,
    provider: EmbeddingProvider,
    w: float = 0.5,
) -> tuple[float, Optional[Connection]]:
    """Best (cell, sentence) pair between a table and a passage."""
    best = 0.0
    conn: Optional[Connection] = None
    for r, row in enumerate(table.rows):
        for c, cell in enumerate(row):
            for s, sentence in enumerate(passage.sentences):
                score = unit_compat(cell, sentence, provider, w)
                if score > best:
                    best = score
                    conn = Connection(
                        kind=ConnectionKind.ENTITY_LINK,
                        a=Endpoint(table.id, (r, c)),
                        b=Endpoint(passage.id, s),
                        score=score,
                    )
    return best, conn


def passage_passage_compat(
    passage_a: DataObject,
    passage_b: DataObject,
    provider: EmbeddingProvider,
    w: float = 0.5,
) -> tuple[float, Optional[Connection]]:
    """Best sentence pair between two passages."""
    best = 0.0
    conn: Optional[Connection] = None
    for sa, sent_a in enumerate(passage_a.sentences):
        for sb, sent_b in enumerate(passage_b.sentences):
            score = unit_compat(sent_a, sent_b, provider, w)
            if score > best:
                best = score
                conn = Connection(
                    kind=ConnectionKind.SENTENCE_LINK,
                    a=Endpoint(passage_a.id, sa),
                    b=Endpoint(passage_b.id, sb),
                    score=score,
                )
    return best, conn


def compatibility(
    obj_a: DataObject,
    obj_b: DataObject,
    provider: EmbeddingProvider,
    w: float = 0.5,
) -> tuple[float, Optional[Connection]]:
    """Kind-dispatched pairwise compatibility; symmetric in its score."""
    if not 0.0 <= w <= 1.0:
        raise ValidationError(f"w must be in [0, 1], got {w}")
    if obj_a.kind is ObjectKind.TABLE and obj_b.kind is ObjectKind.TABLE:
        return table_table_compat(obj_a, obj_b, provider, w)
    if obj_a.kind is ObjectKind.PASSAGE and obj_b.kind is ObjectKind.PASSAGE:
        return passage_passage_compat(obj_a, obj_b, provider, w)
    if obj_a.kind is ObjectKind.TABLE:
        return table_passage_compat(obj_a, obj_b, provider, w)
    return table_passage_compat(obj_b, obj_a, provider, w)


class _UnitIndex:
    """Every object's scoring units and columns, laid out to score one
    object against the whole corpus in one vectorized pass.

    Units are cells and sentences with at least one token; those without
    score 0 against everything, so they are left out. Each distinct unit
    text and column header is embedded once; its vector's non-zero
    coordinates and its normalized-token ids are stored as sparse rows,
    with inverted lists over coordinates and tokens so that a pass reads
    only shared buckets and tokens. Unit texts come first, so ids below
    ``n_unit_texts`` carry tokens. Object ``j`` owns unit slots
    ``unit_bounds[j]:unit_bounds[j + 1]`` and column slots
    ``column_bounds[j]:column_bounds[j + 1]``; the first slot of each is
    a pad (text id -1) that scores 0, which is the floor of every object
    score and keeps ``np.maximum.reduceat`` from reading a neighbour's
    segment when an object has no units or no columns.
    """

    def __init__(self, corpus: Corpus, provider: EmbeddingProvider) -> None:
        texts: dict[str, int] = {}
        vocab: dict[str, int] = {}
        token_rows: list[np.ndarray] = []
        unit_ids: dict[str, int] = {}  # -1: no tokens
        unit_text: list[int] = []
        unit_bounds: list[int] = []
        for obj in corpus.objects:
            unit_bounds.append(len(unit_text))
            unit_text.append(-1)
            if obj.kind is ObjectKind.TABLE:
                units = [cell for row in obj.rows for cell in row]
            else:
                units = list(obj.sentences)
            for unit in units:
                tid = unit_ids.get(unit)
                if tid is None:
                    tokens = {
                        vocab.setdefault(t, len(vocab)) for t in normalize_tokens(unit)
                    }
                    tid = unit_ids[unit] = len(texts) if tokens else -1
                    if tokens:
                        texts[unit] = tid
                        token_rows.append(np.array(sorted(tokens)))
                if tid >= 0:
                    unit_text.append(tid)
        unit_bounds.append(len(unit_text))
        self.n_unit_texts = len(texts)

        values: dict[str, int] = {}
        value_rows: list[np.ndarray] = []
        column_text: list[int] = []
        column_bounds: list[int] = []
        for obj in corpus.objects:
            column_bounds.append(len(column_text))
            column_text.append(-1)
            value_rows.append(np.empty(0))
            for c, header in enumerate(obj.columns):
                column_text.append(texts.setdefault(header, len(texts)))
                ids = {values.setdefault(row[c], len(values)) for row in obj.rows}
                value_rows.append(np.array(sorted(ids)))
        column_bounds.append(len(column_text))

        coordinates, weights = [], []
        self.norms = np.empty(len(texts))
        for text, tid in texts.items():
            vec = np.asarray(provider.embed(text), dtype=np.float64)
            self.norms[tid] = np.linalg.norm(vec)  # the 1-D norm, as cosine takes it
            if self.norms[tid] == 0.0:
                raise ZeroVector(f"text {text!r} has a zero-norm vector")
            support = np.flatnonzero(vec != 0.0)
            coordinates.append(support)
            weights.append(vec[support])
        self.vectors = SparseRows.from_rows(coordinates, weights)
        self.buckets = self.vectors.transpose(provider.dimension)
        self.tokens = SparseRows.from_rows(token_rows)
        self.token_texts = self.tokens.transpose(len(vocab))
        self.n_tokens = np.diff(self.tokens.ptr)
        self.values = SparseRows.from_rows(value_rows)
        self.value_columns = self.values.transpose(len(values))
        self.n_values = np.diff(self.values.ptr)
        self.unit_text = np.array(unit_text, dtype=np.intp)
        self.unit_bounds = np.array(unit_bounds, dtype=np.intp)
        self.column_text = np.array(column_text, dtype=np.intp)
        self.column_bounds = np.array(column_bounds, dtype=np.intp)
        self.is_table = np.array(
            [obj.kind is ObjectKind.TABLE for obj in corpus.objects]
        )

    def _cosines(self, tid: int) -> np.ndarray:
        """Clamped cosine of text ``tid`` with every indexed text."""
        dots = self.buckets.accumulate(*self.vectors.row(tid), len(self.norms))
        return np.clip(dots / (self.norms[tid] * self.norms), 0.0, 1.0)

    def _unit_scores(self, tid: int, w: float) -> np.ndarray:
        """``unit_compat`` of unit text ``tid`` with every unit text."""
        n = self.n_unit_texts
        shared = self.token_texts.accumulate(self.tokens.row(tid)[0], None, n)
        overlap = shared / np.minimum(self.n_tokens[tid], self.n_tokens)
        return w * self._cosines(tid)[:n] + (1.0 - w) * overlap

    def _column_scores(self, slot: int, w: float) -> np.ndarray:
        """``column_compat`` of column ``slot`` with every column slot."""
        semantic = np.zeros(len(self.norms) + 1)  # the last entry serves pads
        semantic[:-1] = self._cosines(self.column_text[slot])
        n = len(self.column_text)
        shared = self.value_columns.accumulate(self.values.row(slot)[0], None, n)
        union = self.n_values[slot] + self.n_values - shared
        jaccard_part = np.divide(shared, union, out=np.zeros(n), where=union > 0)
        return w * semantic[self.column_text] + (1.0 - w) * jaccard_part

    def row(self, j: int, w: float) -> np.ndarray:
        """``compatibility`` of object ``j`` with every object, by position."""
        lo, hi = self.unit_bounds[j] + 1, self.unit_bounds[j + 1]
        best = np.zeros(self.n_unit_texts + 1)  # the last entry serves pads
        for tid in np.unique(self.unit_text[lo:hi]):
            np.maximum(best[:-1], self._unit_scores(tid, w), out=best[:-1])
        scores = np.maximum.reduceat(best[self.unit_text], self.unit_bounds[:-1])
        if self.is_table[j]:
            best = np.zeros(len(self.column_text))
            for slot in range(self.column_bounds[j] + 1, self.column_bounds[j + 1]):
                np.maximum(best, self._column_scores(slot, w), out=best)
            columns = np.maximum.reduceat(best, self.column_bounds[:-1])
            scores = np.where(self.is_table, columns, scores)
        return scores


class CompatibilityCache:
    """Pairwise compatibility over one corpus: scores come from rows,
    connections from the scalar witness.

    A row is one object's compatibility with every corpus object,
    computed in one vectorized pass over a unit index that the first
    lookup builds. ``score(a, b)`` reads the row of whichever of the two
    already has one and otherwise computes ``a``'s; ``nearest`` ranks one
    object's row. ``get`` returns the connection that the scalar
    ``compatibility`` finds for the pair, memoized; only draft
    serialization needs connections.
    """

    def __init__(
        self, corpus: Corpus, provider: EmbeddingProvider, w: float = 0.5
    ) -> None:
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"w must be in [0, 1], got {w}")
        self._corpus = corpus
        self._provider = provider
        self._w = w
        self._ids = corpus.object_ids()
        self._position = {oid: j for j, oid in enumerate(self._ids)}
        self._index: Optional[_UnitIndex] = None
        self._rows: dict[str, np.ndarray] = {}
        self._connections: dict[tuple[str, str], Optional[Connection]] = {}

    def _row(self, oid: str) -> np.ndarray:
        row = self._rows.get(oid)
        if row is None:
            if self._index is None:
                self._index = _UnitIndex(self._corpus, self._provider)
            row = self._rows[oid] = self._index.row(self._position[oid], self._w)
        return row

    def score(self, id_a: str, id_b: str) -> float:
        if id_a == id_b:
            raise ValidationError(f"compatibility of {id_a!r} with itself")
        if id_a not in self._rows and id_b in self._rows:
            id_a, id_b = id_b, id_a
        return float(self._row(id_a)[self._position[id_b]])

    def nearest(self, oid: str, n: int) -> list[str]:
        """The ``n`` objects most compatible with ``oid``, best first, ties
        by id; ``oid`` itself is left out."""
        me = self._position[oid]
        ranked = top_objects(self._row(oid), self._ids, n + 1)
        return [self._ids[j] for j in ranked if j != me][:n]

    def get(self, id_a: str, id_b: str) -> Optional[Connection]:
        if id_a == id_b:
            raise ValidationError(f"compatibility of {id_a!r} with itself")
        key = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        if key not in self._connections:
            self._connections[key] = compatibility(
                self._corpus.by_id[key[0]],
                self._corpus.by_id[key[1]],
                self._provider,
                self._w,
            )[1]
        return self._connections[key]


@dataclass(frozen=True)
class SearchSet:
    """Base members plus compatibility-expanded neighbors for one strategy."""

    strategy: tuple[int, int]  # (per_step_k, steps_l)
    object_ids: tuple[str, ...]


def expand_base(
    base_ids: Sequence[str],
    nearest: Callable[[str, int], Sequence[str]],
    strategies: Sequence[tuple[int, int]],
) -> list[SearchSet]:
    """Grow the base set along most-compatible neighbors, per strategy.

    A strategy (k, l) runs l rounds; each round every current member
    nominates its k most compatible absent objects (ties by object id)
    and nominations merge at the end of the round. ``nearest(member, n)``
    lists the n objects most compatible with ``member``, best first, ties
    by id, leaving ``member`` out.
    """
    sets = []
    for per_step, steps in strategies:
        if per_step < 1 or steps < 1:
            raise ValidationError(f"invalid strategy ({per_step}, {steps})")
        members: list[str] = []
        for oid in base_ids:
            if oid not in members:
                members.append(oid)
        for _ in range(steps):
            present = set(members)
            nominated: set[str] = set()
            for member in members:
                # The member is present and left out of its own list, so at
                # most len(present) - 1 of these neighbors are present: they
                # hold the per_step best absent objects whenever the corpus
                # has that many.
                neighbors = nearest(member, per_step + len(present))
                absent = (oid for oid in neighbors if oid not in present)
                nominated.update(islice(absent, per_step))
            members.extend(sorted(nominated))
        sets.append(
            SearchSet(strategy=(per_step, steps), object_ids=tuple(members))
        )
    return sets


@dataclass(frozen=True)
class MipInstance:
    """Selection problem: ids, relevance in [0,1], pairwise strengths, k."""

    object_ids: tuple[str, ...]
    relevance: tuple[float, ...]
    compat: dict[tuple[int, int], float] = field(default_factory=dict)
    k: int = 1

    def __post_init__(self) -> None:
        m = len(self.object_ids)
        if len(set(self.object_ids)) != m:
            raise ValidationError("duplicate object ids in instance")
        if len(self.relevance) != m:
            raise ValidationError("relevance length does not match object count")
        for r in self.relevance:
            if not 0.0 <= r <= 1.0:
                raise ValidationError(f"relevance {r} out of [0, 1]")
        for (i, j), c in self.compat.items():
            if not 0 <= i < j < m:
                raise ValidationError(f"bad compat key ({i}, {j})")
            if not 0.0 <= c <= 1.0:
                raise ValidationError(f"compat {c} out of [0, 1]")
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")

    @property
    def size(self) -> int:
        return len(self.object_ids)


def build_mip_instance(
    object_ids: Sequence[str],
    relevance: Mapping[str, float],
    compat_fn: Callable[[str, str], float],
    k: int,
) -> MipInstance:
    """Assemble a canonical instance (ids ascending, positive strengths only)."""
    ids = tuple(sorted(set(object_ids)))
    rel = tuple(clamp01(relevance.get(oid, 0.0)) for oid in ids)
    compat: dict[tuple[int, int], float] = {}
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            c = compat_fn(ids[i], ids[j])
            if c > 0.0:
                compat[(i, j)] = clamp01(c)
    return MipInstance(object_ids=ids, relevance=rel, compat=compat, k=k)


@dataclass(frozen=True)
class Draft:
    """A solved selection: chosen ids, chosen connections, objective value."""

    object_ids: tuple[str, ...]
    connections: tuple[tuple[str, str], ...]
    objective: float


def _best_pairs(instance: MipInstance, selected: Sequence[int]) -> list[tuple[int, int]]:
    """Optimal connection completion: largest strictly-positive strengths,
    at most 2(k-1) of them, among pairs inside the selection."""
    cap = 2 * (instance.k - 1)
    if cap <= 0:
        return []
    sel = sorted(selected)
    scored = []
    for a in range(len(sel)):
        for b in range(a + 1, len(sel)):
            key = (sel[a], sel[b])
            c = instance.compat.get(key, 0.0)
            if c > 0.0:
                scored.append((key, c))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [key for key, _ in scored[:cap]]


def _objective(
    instance: MipInstance, selected: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> float:
    total = 0.0
    for i in sorted(selected):
        total += instance.relevance[i]
    for key in sorted(pairs):
        total += instance.compat[key]
    return total


def _draft_from_indices(
    instance: MipInstance, selected: Sequence[int], pairs: Sequence[tuple[int, int]]
) -> Draft:
    ids = tuple(sorted(instance.object_ids[i] for i in selected))
    conns = tuple(
        sorted(
            tuple(sorted((instance.object_ids[i], instance.object_ids[j])))
            for i, j in pairs
        )
    )
    return Draft(
        object_ids=ids,
        connections=conns,
        objective=_objective(instance, selected, pairs),
    )


def brute_force_mip(instance: MipInstance, limit: int = 15) -> Draft:
    """Exhaustive reference solver for small instances."""
    if instance.size > limit:
        raise TooLarge(f"instance has {instance.size} objects, limit {limit}")
    if instance.k > instance.size:
        raise Infeasible(f"k={instance.k} exceeds {instance.size} objects")
    best_obj = float("-inf")
    best_ids: Optional[tuple[str, ...]] = None
    best: Optional[tuple[tuple[int, ...], list[tuple[int, int]]]] = None
    for selected in combinations(range(instance.size), instance.k):
        pairs = _best_pairs(instance, selected)
        obj = _objective(instance, selected, pairs)
        ids = tuple(sorted(instance.object_ids[i] for i in selected))
        if obj > best_obj or (obj == best_obj and ids < best_ids):
            best_obj, best_ids, best = obj, ids, (selected, pairs)
    assert best is not None
    return _draft_from_indices(instance, best[0], best[1])


def solve_mip(instance: MipInstance) -> Draft:
    """Exact branch and bound over selection indicators.

    Bound: relevance of the fixed part plus the best remaining relevance
    plus the top 2(k-1) connection strengths not yet excluded. Ties in
    the optimum resolve to the lexicographically smallest id set.
    """
    m = instance.size
    k = instance.k
    if k > m:
        raise Infeasible(f"k={k} exceeds {m} objects")
    cap = 2 * (k - 1)
    positive = [(key, c) for key, c in instance.compat.items() if c > 0.0]

    best_obj = float("-inf")
    best_ids: Optional[tuple[str, ...]] = None
    best: Optional[tuple[list[int], list[tuple[int, int]]]] = None

    def bound(pos: int, included: list[int], excluded: set[int]) -> float:
        r_sum = sum(instance.relevance[i] for i in included)
        remaining = sorted(
            (instance.relevance[j] for j in range(pos, m)), reverse=True
        )
        r_sum += sum(remaining[: k - len(included)])
        if cap > 0:
            values = sorted(
                (
                    c
                    for (i, j), c in positive
                    if i not in excluded and j not in excluded
                ),
                reverse=True,
            )
            r_sum += sum(values[:cap])
        return r_sum

    def visit(pos: int, included: list[int], excluded: set[int]) -> None:
        nonlocal best_obj, best_ids, best
        if len(included) == k:
            pairs = _best_pairs(instance, included)
            obj = _objective(instance, included, pairs)
            ids = tuple(sorted(instance.object_ids[i] for i in included))
            if obj > best_obj or (obj == best_obj and ids < best_ids):
                best_obj, best_ids, best = obj, ids, (list(included), pairs)
            return
        if len(included) + (m - pos) < k:
            return
        if bound(pos, included, excluded) < best_obj - _BOUND_SLACK:
            return
        included.append(pos)
        visit(pos + 1, included, excluded)
        included.pop()
        excluded.add(pos)
        visit(pos + 1, included, excluded)
        excluded.discard(pos)

    visit(0, [], set())
    assert best is not None
    return _draft_from_indices(instance, best[0], best[1])


def check_draft(instance: MipInstance, draft: Draft) -> list[str]:
    """Independent audit of the selection constraints; empty means clean.

    Checks the three program constraints directly from the instance and
    draft, without reusing any solver internals.
    """
    violations: list[str] = []
    known = set(instance.object_ids)
    chosen = list(draft.object_ids)
    if len(set(chosen)) != len(chosen):
        violations.append("selection repeats an object (indicator not binary)")
    unknown = [oid for oid in chosen if oid not in known]
    if unknown:
        violations.append(f"selection outside instance: {unknown}")
    if len(set(chosen)) != instance.k:
        violations.append(
            f"selection size {len(set(chosen))} differs from k={instance.k}"
        )
    if len(draft.connections) > 2 * (instance.k - 1):
        violations.append(
            f"{len(draft.connections)} connections exceed cap {2 * (instance.k - 1)}"
        )
    if len(set(draft.connections)) != len(draft.connections):
        violations.append("duplicate connection (indicator not binary)")
    selected = set(chosen)
    for a, b in draft.connections:
        if a == b:
            violations.append(f"self connection on {a!r}")
        if a not in selected or b not in selected:
            violations.append(f"connection ({a!r}, {b!r}) touches unselected object")
    return violations
