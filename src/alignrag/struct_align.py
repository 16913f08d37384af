"""Stage two: expand the base set along compatibility and solve selection.

Compatibility blends semantic similarity of embeddings with exact-value
overlap, specialized per object-kind pair. One sparse index of the
corpus's cells, sentences and columns computes it: ``CompatibilityCache``
reads scores from rows, one object against the whole corpus in one
vectorized pass, and ``compatibility`` names the connection behind a
pair's score from the same index.

Selection is an integer program: choose exactly k objects and up to
2(k-1) of their pairwise connections to maximize total relevance plus
connection strength. The solver is an exact branch and bound over the
selection indicators with a closed-form completion of the connection
variables. It branches on objects in order of decreasing potential
(relevance plus half the object's k-1 strongest connections) and bounds
each node per object: a connection among the objects still to be chosen
counts half at each end. A brute-force enumerator provides an
independent route to the same optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import combinations, islice
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, DataObject, ObjectKind
from .embedding import EmbeddingProvider, SparseRows, embed_rows, top_objects
from .errors import Infeasible, TooLarge, ValidationError
from .info_align import clamp01
from .ngram_index import normalize_tokens

_BOUND_SLACK = 1e-12
# Most branch-and-bound nodes solve_mip visits before it raises TooLarge.
# A dense 40-object instance with k=5 needs about 3,900.
_NODE_BUDGET = 200_000


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


def _units(obj: DataObject) -> Iterator[tuple[object, str]]:
    """An object's cells, row by row, or its sentences, with locators."""
    if obj.kind is ObjectKind.TABLE:
        for r, row in enumerate(obj.rows):
            for c, cell in enumerate(row):
                yield (r, c), cell
    else:
        yield from enumerate(obj.sentences)


def _unit_locator(obj: DataObject, n: int) -> object:
    """Locator of the ``n``-th unit of ``obj`` that carries tokens."""
    carrying = (loc for loc, text in _units(obj) if normalize_tokens(text))
    return next(islice(carrying, n, None))


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
            for _, unit in _units(obj):
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

        self.vectors, self.norms = embed_rows(provider, list(texts))  # in id order
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
        self.objects = corpus.objects
        self.is_table = np.array(
            [obj.kind is ObjectKind.TABLE for obj in corpus.objects]
        )

    def _cosines(self, tid: int) -> np.ndarray:
        """Clamped cosine of text ``tid`` with every indexed text."""
        dots = self.buckets.accumulate(*self.vectors.row(tid), len(self.norms))
        return np.clip(dots / (self.norms[tid] * self.norms), 0.0, 1.0)

    def _unit_scores(self, tid: int, w: float) -> np.ndarray:
        """Unit text ``tid`` against every unit text: ``w`` times the clamped
        cosine plus ``1 - w`` times the overlap coefficient of token sets."""
        n = self.n_unit_texts
        shared = self.token_texts.accumulate(self.tokens.row(tid)[0], None, n)
        overlap = shared / np.minimum(self.n_tokens[tid], self.n_tokens)
        return w * self._cosines(tid)[:n] + (1.0 - w) * overlap

    def _column_scores(self, slot: int, w: float) -> np.ndarray:
        """Column ``slot`` against every column slot: ``w`` times the clamped
        header cosine plus ``1 - w`` times the Jaccard index of value sets."""
        semantic = np.zeros(len(self.norms) + 1)  # the last entry serves pads
        semantic[:-1] = self._cosines(self.column_text[slot])
        n = len(self.column_text)
        shared = self.value_columns.accumulate(self.values.row(slot)[0], None, n)
        union = self.n_values[slot] + self.n_values - shared
        jaccard_part = np.divide(shared, union, out=np.zeros(n), where=union > 0)
        return w * semantic[self.column_text] + (1.0 - w) * jaccard_part

    def row(self, j: int, w: float) -> np.ndarray:
        """Object ``j``'s compatibility with every object, by position."""
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

    def witness(self, a: int, b: int, w: float) -> Optional[tuple[int, int, float]]:
        """Positions of the best pair among ``a``'s and ``b``'s columns (two
        tables) or units, and its score; None when no pair scores above 0.
        Of equal scores, the first in row-major order, ``a`` down, wins.
        Scores come from the side with fewer distinct texts: both sides sum
        a score's terms in the same order, so they hold the same bits."""
        tables = self.is_table[a] and self.is_table[b]
        bounds = self.column_bounds if tables else self.unit_bounds
        keys = [np.arange(bounds[j] + 1, bounds[j + 1]) for j in (a, b)]
        if not tables:
            keys = [self.unit_text[slots] for slots in keys]
        scores = self._column_scores if tables else self._unit_scores
        if not (len(keys[0]) and len(keys[1])):
            return None
        (texts_a, inverse_a), (texts_b, inverse_b) = (
            np.unique(side, return_inverse=True) for side in keys
        )
        if len(texts_a) <= len(texts_b):
            matrix = np.stack([scores(t, w)[keys[1]] for t in texts_a])[inverse_a]
        else:
            matrix = np.stack([scores(t, w)[keys[0]] for t in texts_b])[inverse_b].T
        i, k = np.unravel_index(np.argmax(matrix), matrix.shape)
        best = float(matrix[i, k])
        return (int(i), int(k), best) if best > 0.0 else None


def compatibility(
    index: _UnitIndex, a: int, b: int, w: float
) -> Optional[Connection]:
    """The connection behind objects ``a`` and ``b``, by position, or None
    when they score 0; a table and a passage connect with the table as
    endpoint ``a``."""
    if index.is_table[b] and not index.is_table[a]:
        a, b = b, a
    best = index.witness(a, b, w)
    if best is None:
        return None
    i, k, score = best
    obj_a, obj_b = index.objects[a], index.objects[b]
    if obj_b.kind is ObjectKind.TABLE:
        kind = ConnectionKind.JOIN_COLUMN
        loc_a, loc_b = obj_a.columns[i], obj_b.columns[k]
    else:
        entity = obj_a.kind is ObjectKind.TABLE
        kind = ConnectionKind.ENTITY_LINK if entity else ConnectionKind.SENTENCE_LINK
        loc_a, loc_b = _unit_locator(obj_a, i), _unit_locator(obj_b, k)
    return Connection(kind, Endpoint(obj_a.id, loc_a), Endpoint(obj_b.id, loc_b), score)


class CompatibilityCache:
    """Pairwise compatibility over one corpus, from a unit index that the
    first lookup builds. ``score(a, b)`` reads the row of whichever of the
    two already has one and otherwise computes ``a``'s; ``nearest`` ranks
    one object's row; ``get`` returns the connection behind a pair,
    memoized by the pair.
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
        self._rows: dict[str, np.ndarray] = {}
        self._connections: dict[tuple[str, str], Optional[Connection]] = {}

    @cached_property
    def _index(self) -> _UnitIndex:
        return _UnitIndex(self._corpus, self._provider)

    def _row(self, oid: str) -> np.ndarray:
        row = self._rows.get(oid)
        if row is None:
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
                self._index,
                self._position[key[0]],
                self._position[key[1]],
                self._w,
            )
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

    Objects are branched on in order of decreasing potential ``g_i = r_i +
    ½·(i's k-1 strongest connections)``, each included before it is
    excluded, so the first selections reached are strong incumbents. With
    I the included objects, U the undecided ones and need = k - |I|, a node
    is pruned when this upper bound falls below the best objective found:
    r(I) + the strengths inside I + the best ``need`` values over t in U of
    ``r_t + Σ_{i∈I} c(t, i) + ½·(t's need-1 strongest connections within
    U)``, which counts every connection among the objects still to be
    chosen half at each end. The bound ignores the 2(k-1) connection cap;
    the leaves apply it.

    Ties in the optimum resolve to the lexicographically smallest id set.
    Raises ``TooLarge`` once the search visits more than ``_NODE_BUDGET``
    nodes.
    """
    m = instance.size
    k = instance.k
    if k > m:
        raise Infeasible(f"k={k} exceeds {m} objects")
    rel = instance.relevance
    neighbors: list[list[tuple[float, int]]] = [[] for _ in range(m)]
    for (i, j), c in instance.compat.items():
        if c > 0.0:
            neighbors[i].append((c, j))
            neighbors[j].append((c, i))
    for nbrs in neighbors:
        nbrs.sort(reverse=True)
    potential = [
        rel[i] + 0.5 * sum(c for c, _ in neighbors[i][: k - 1]) for i in range(m)
    ]
    order = sorted(range(m), key=lambda i: (-potential[i], i))
    # the objects at order[pos:] are the undecided ones at depth pos
    rank = [0] * m
    for r, i in enumerate(order):
        rank[i] = r
    # cross[t]: total strength between t and the included objects
    cross = [0.0] * m
    chosen: list[int] = []
    nodes = 0

    best_obj = float("-inf")
    best_ids: Optional[tuple[str, ...]] = None
    best: Optional[tuple[list[int], list[tuple[int, int]]]] = None

    def potential_bound(pos: int, base: float, need: int) -> float:
        values = []
        for t in order[pos:]:
            half, taken = 0.0, 0
            if need > 1:
                for c, j in neighbors[t]:
                    if rank[j] >= pos:
                        half += c
                        taken += 1
                        if taken == need - 1:
                            break
            values.append(rel[t] + cross[t] + 0.5 * half)
        values.sort(reverse=True)
        return base + sum(values[:need])

    # base: relevance of the included objects plus the strengths among them
    def visit(pos: int, base: float) -> None:
        nonlocal best_obj, best_ids, best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise TooLarge(
                f"solver exceeded {_NODE_BUDGET} nodes on {m} objects with k={k}"
            )
        if len(chosen) == k:
            pairs = _best_pairs(instance, chosen)
            obj = _objective(instance, chosen, pairs)
            ids = tuple(sorted(instance.object_ids[i] for i in chosen))
            if obj > best_obj or (obj == best_obj and ids < best_ids):
                best_obj, best_ids, best = obj, ids, (list(chosen), pairs)
            return
        need = k - len(chosen)
        if need > m - pos:
            return
        if potential_bound(pos, base, need) < best_obj - _BOUND_SLACK:
            return
        v = order[pos]
        saved = cross[:]
        for c, j in neighbors[v]:
            cross[j] += c
        chosen.append(v)
        visit(pos + 1, base + rel[v] + saved[v])
        chosen.pop()
        cross[:] = saved
        visit(pos + 1, base)

    visit(0, 0.0)
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
