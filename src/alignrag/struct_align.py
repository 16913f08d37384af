"""Stage two: expand the base set along compatibility and solve selection.

Compatibility blends semantic similarity of embeddings with exact-value
overlap, specialized per object-kind pair. One sparse index of the
corpus's cells, sentences and columns holds it, unit texts and column
slots in one key space, and one scorer reads it: for a batch of keys of
either kind, it walks only the inverted lists that their buckets, tokens
and values hit, and scores those pairs alone. ``CompatibilityCache``
computes the missing rows of a round of expansion's members, and then of
its picks, in one such pass each. ``CompatibilityCache.connect`` is the
one place a connection is computed: the witnesses of a draft's pairs come
from one more pass, from the same pair scores, and ``compatibility``
names the connection behind each.

Selection is an integer program: choose exactly k objects and up to
2(k-1) of their pairwise connections to maximize total relevance plus
connection strength. The solver is an exact branch and bound over the
selection indicators with a closed-form completion of the connection
variables. It branches on objects in order of decreasing potential
(relevance plus half the object's k-1 strongest connections) and bounds
each node per object: a connection among the objects still to be chosen
counts half at each end. The tests check it against an exhaustive
enumerator of their own (``tests/oracles.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .corpus import Corpus, DataObject, ObjectKind
from .embedding import EmbeddingProvider, SparseRows, embed_rows
from .errors import Infeasible, TooLarge, ValidationError
from .info_align import clamp01
from .lm import left_sum
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


def _units(obj: DataObject) -> Sequence[str]:
    """An object's cells, row by row, or its sentences: unit ``p`` of a
    table is the cell at (row, column) ``divmod(p, len(obj.columns))``."""
    if obj.kind is ObjectKind.TABLE:
        return [cell for row in obj.rows for cell in row]
    return obj.sentences


def _first_seen(items: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ``items`` in first-seen order, and each item's number
    among them."""
    number = dict(zip(dict.fromkeys(items), range(len(items))))
    ids = np.fromiter(map(number.__getitem__, items), dtype=np.intp, count=len(items))
    return list(number), ids


def _distinct_rows(
    rows: np.ndarray, ids: np.ndarray, n_rows: int, n_ids: int
) -> SparseRows:
    """Rows ``0..n_rows - 1``, each holding its distinct ``ids`` ascending,
    from one sort of (row, id) keys; ``ids`` lie in ``0..n_ids - 1``."""
    keys = np.sort(rows * max(n_ids, 1) + ids)
    new = np.ones(keys.size, dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    owners, ids = np.divmod(keys[new], max(n_ids, 1))
    ptr = np.zeros(n_rows + 1, dtype=np.intp)
    np.cumsum(np.bincount(owners, minlength=n_rows), out=ptr[1:])
    return SparseRows(ptr=ptr, indices=ids)


# a witness: the places of a pair's best pair of units or columns, and its score
_Witness = tuple[int, int, float]


class _UnitIndex:
    """Every object's scoring units and columns, laid out so that one pass
    scores a batch of unit texts and column slots against the corpus.

    Units are cells and sentences with at least one token; those without
    score 0 against everything, so they are left out. Each distinct unit
    text and column header is tokenized and embedded once. Unit texts and
    column slots share one key space: keys ``0..n_units - 1`` are the unit
    texts, and the slots follow, numbered object by object. Each key is a
    sparse row of vector coordinates (``vectors``, ``norms``) and of terms
    (``terms``, ``n_terms``): a unit text's normalized-token ids, or a
    slot's value ids. A slot's coordinates lie past the hash dimension and
    its value ids past the token vocabulary, so a unit text and a slot
    never share a bucket or a term, and the inverted lists ``buckets`` and
    ``term_keys`` serve both kinds, so that a pass walks only the buckets
    and terms its batch hits. Of ``n`` objects, object ``j``, the ``j``-th
    of the objects it is built over, holds in row ``j`` of ``held`` its
    unit texts, each once, ascending, with the first place it takes in
    ``_units`` as its value, and in row ``n + j`` its slot keys, with their
    column indices; ``holders`` lists each unit text's objects and
    ``slot_owner`` each slot's object. Nothing is written after the build.

    The build runs in array passes over the flat units, headers and cell
    values: texts, tokens and values are numbered by first appearance
    (unit texts with tokens first, then the other headers), and each
    row's distinct ids come from one sort of (row, id) keys.
    """

    def __init__(
        self, objects: Sequence[DataObject], provider: EmbeddingProvider
    ) -> None:
        n_objects = len(objects)
        unit_lists = [_units(obj) for obj in objects]
        per_object = np.fromiter(map(len, unit_lists), dtype=np.intp, count=n_objects)
        flat = list(chain.from_iterable(unit_lists))
        headers = list(chain.from_iterable(obj.columns for obj in objects))
        # every distinct text, unit texts first, tokenized once
        names, text_ids = _first_seen(flat + headers)
        token_lists = [normalize_tokens(name) for name in names]
        unit_of, header_of = text_ids[: len(flat)], text_ids[len(flat) :]
        has_tokens = np.fromiter(map(bool, token_lists), dtype=bool, count=len(names))
        # unit texts with tokens take ids 0.. in first-seen order, -1 the rest
        n_seen = int(unit_of.max()) + 1 if flat else 0
        with_tokens = np.flatnonzero(has_tokens[:n_seen])
        n_units = len(with_tokens)
        text_of = np.full(len(names), -1, dtype=np.intp)
        text_of[with_tokens] = np.arange(n_units)

        tid = text_of[unit_of]
        owner = np.repeat(np.arange(n_objects), per_object)
        starts = np.cumsum(per_object) - per_object
        place = np.arange(len(flat)) - np.repeat(starts, per_object)
        kept = tid >= 0
        # each object's distinct unit texts, ascending; an object's units
        # run in place order, so the first of each text is its least place
        distinct, first = np.unique(
            owner[kept] * max(n_units, 1) + tid[kept], return_index=True
        )
        text_owner, unit_texts = np.divmod(distinct, max(n_units, 1))
        first_places = place[kept][first]

        # the other headers, tokenless unit texts among them, follow in
        # first-seen order among the headers
        seen, first = np.unique(header_of, return_index=True)
        seen = seen[np.argsort(first)]
        fresh = seen[text_of[seen] < 0]
        text_of[fresh] = n_units + np.arange(len(fresh))
        slot_text = text_of[header_of]

        texts = np.concatenate((with_tokens, fresh)).tolist()
        vectors, norms = embed_rows(
            provider,
            [names[t] for t in texts],
            tokens=[token_lists[t] for t in texts],
        )
        dim = provider.dimension
        key_text = np.concatenate((np.arange(n_units), slot_text))
        self.n_units = n_units
        self.vectors = vectors.take(key_text)
        self.vectors.indices[self.vectors.ptr[n_units] :] += dim
        self.norms = norms[key_text]
        self.buckets = self.vectors.transpose(2 * dim)

        # unit texts' tokens, then each column's values, column by column,
        # object by object, past the tokens
        unit_tokens = [token_lists[t] for t in with_tokens.tolist()]
        vocab, token_ids = _first_seen(list(chain.from_iterable(unit_tokens)))
        lengths = np.fromiter(map(len, unit_tokens), dtype=np.intp, count=n_units)
        cells = chain.from_iterable(
            chain.from_iterable(zip(*obj.rows)) for obj in objects
        )
        values, value_ids = _first_seen(list(cells))
        n_columns = np.array([len(obj.columns) for obj in objects], dtype=np.intp)
        n_rows = np.array([len(obj.rows) for obj in objects], dtype=np.intp)
        n_keys, n_terms = len(key_text), len(vocab) + len(values)
        self.terms = _distinct_rows(
            np.concatenate(
                (
                    np.repeat(np.arange(n_units), lengths),
                    np.repeat(np.arange(n_units, n_keys), np.repeat(n_rows, n_columns)),
                )
            ),
            np.concatenate((token_ids, len(vocab) + value_ids)),
            n_keys,
            n_terms,
        )
        self.term_keys = self.terms.transpose(n_terms)
        self.n_terms = np.diff(self.terms.ptr)

        self.slot_owner = np.repeat(np.arange(n_objects), n_columns)
        column_starts = np.cumsum(n_columns) - n_columns
        ptr = np.zeros(2 * n_objects + 1, dtype=np.intp)
        np.cumsum(
            np.concatenate((np.bincount(text_owner, minlength=n_objects), n_columns)),
            out=ptr[1:],
        )
        columns = np.arange(n_keys - n_units) - column_starts[self.slot_owner]
        self.held = SparseRows(
            ptr,
            np.concatenate((unit_texts, np.arange(n_units, n_keys))),
            np.concatenate((first_places, columns)),
        )
        self.holders = SparseRows(ptr[: n_objects + 1], unit_texts).transpose(n_units)
        self.objects = objects
        self.is_table = np.array([obj.kind is ObjectKind.TABLE for obj in objects])

    def _pairs(
        self, keys: np.ndarray, w: float, within: Optional[np.ndarray] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every pair of a key in ``keys`` with a key that shares a vector
        coordinate or a term with it, optionally only the keys ``within``,
        as (position in ``keys``, key, score), ordered by both. The
        restriction applies to the inverted lists' hits, before any
        product or pair key is formed.

        A pair scores ``w`` times the clamped cosine plus ``1 - w`` times
        the term overlap: the overlap coefficient of two unit texts' token
        sets, or the Jaccard index of two slots' value sets. A unit text
        and a slot share nothing, so they never pair. Each dot product sums
        its terms in ascending coordinate order, as a dense dot over the
        key's coordinates would (``np.bincount`` adds in input order), so
        a pair's score holds the same bits whatever the batch and
        whichever side is the query.
        """
        n = len(self.norms)
        queries = np.arange(len(keys))
        coords, lengths = self.vectors.positions(keys)
        hits, per_coord = self.buckets.positions(self.vectors.indices[coords])
        at = np.repeat(coords, per_coord)
        dot_query = np.repeat(np.repeat(queries, lengths), per_coord)
        dot_other = self.buckets.indices[hits]
        members, lengths = self.terms.positions(keys)
        shares, per_member = self.term_keys.positions(self.terms.indices[members])
        set_query = np.repeat(np.repeat(queries, lengths), per_member)
        set_other = self.term_keys.indices[shares]
        if within is not None:
            wanted = np.zeros(n, dtype=bool)
            wanted[within] = True
            kept = wanted[dot_other]
            hits, at, dot_query, dot_other = (
                hits[kept], at[kept], dot_query[kept], dot_other[kept]
            )
            kept = wanted[set_other]
            set_query, set_other = set_query[kept], set_other[kept]
        products = self.buckets.values[hits] * self.vectors.values[at]
        dot_keys = dot_query * n + dot_other
        pairs, inverse = np.unique(
            np.concatenate((dot_keys, set_query * n + set_other)), return_inverse=True
        )
        dots = np.bincount(inverse[: dot_keys.size], products, minlength=pairs.size)
        shared = np.bincount(inverse[dot_keys.size :], minlength=pairs.size)
        query, other = np.divmod(pairs, n)
        me = keys[query]
        cosines = np.clip(dots / (self.norms[me] * self.norms[other]), 0.0, 1.0)
        sizes, other_sizes = self.n_terms[me], self.n_terms[other]
        # a unit text has at least one token; two empty value sets have a
        # Jaccard index of 0
        part = shared / np.where(
            other < self.n_units,
            np.minimum(sizes, other_sizes),
            np.maximum(sizes + other_sizes - shared, 1),
        )
        return query, other, w * cosines + (1.0 - w) * part

    def rows(self, objects: np.ndarray, w: float) -> np.ndarray:
        """Each of ``objects``' compatibility with every object, by
        position, in one pass over their unit texts and column slots: the
        best column pair when both are tables, else the best unit pair,
        and 0 when no pair scores above it."""
        n = len(self.objects)
        batch = np.arange(len(objects))
        out = np.zeros((len(objects), n))
        # unit texts, then column slots, so their pairs come in that order
        held, lengths = self.held.positions(np.concatenate((objects, objects + n)))
        query, other, score = self._pairs(self.held.indices[held], w)
        owner = np.concatenate((batch, batch)).repeat(lengths)[query]
        split = np.searchsorted(query, lengths[: len(objects)].sum())
        holders, per_pair = self.holders.positions(other[:split])
        # each scatter indexes the flat block, which np.maximum.at walks
        # several times faster than a pair of index arrays
        np.maximum.at(
            out.ravel(),
            np.repeat(owner[:split] * n, per_pair) + self.holders.indices[holders],
            np.repeat(score[:split], per_pair),
        )
        tables = self.is_table[objects]
        if tables.any():
            best = np.zeros((len(objects), n))
            columns = self.slot_owner[other[split:] - self.n_units]
            np.maximum.at(best.ravel(), owner[split:] * n + columns, score[split:])
            np.copyto(out, best, where=tables[:, None] & self.is_table)
        return out

    def _sides(
        self, objects: np.ndarray, tables: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each of ``objects``' keys, its column slots where ``tables``, else
        its unit texts, as (index in ``objects``) * (number of keys) + key,
        ascending, and the place each takes: a column's index, or a unit
        text's first place in ``_units``."""
        held, lengths = self.held.positions(objects + len(self.objects) * tables)
        owner = np.arange(len(objects)).repeat(lengths)
        return owner * len(self.norms) + self.held.indices[held], self.held.values[held]

    def witnesses(
        self, pairs: Sequence[tuple[int, int]], w: float
    ) -> list[Optional[_Witness]]:
        """For each pair ``(a, b)`` of positions, the places of its best pair
        among ``a``'s and ``b``'s columns (two tables; column indices) or
        units (places in ``_units``), and its score; None when no pair
        scores above 0. Of equal scores, the first in row-major order, ``a``
        down, wins. One ``_pairs`` pass scores every ``a`` side's keys
        against the keys of the ``b`` sides, and keeps a pair's own;
        scores come from the scorer behind the rows, so a witness holds
        the bits of the pair's row entry."""
        if not pairs:
            return []
        a, b = (np.array(side, dtype=np.intp) for side in zip(*pairs))
        tables = self.is_table[a] & self.is_table[b]
        n = len(self.norms)
        queries, rows = self._sides(a, tables)
        targets, columns = self._sides(b, tables)
        query, other, score = self._pairs(queries % n, w, within=targets % n)
        pair = queries[query] // n
        wanted = pair * n + other
        at = np.minimum(np.searchsorted(targets, wanted), len(targets) - 1)
        kept = (targets[at] == wanted) & (score > 0.0)
        pair, score = pair[kept], score[kept]
        row, column = rows[query[kept]], columns[at[kept]]
        order = np.lexsort((column, row, -score, pair))
        first = np.ones(order.size, dtype=bool)
        first[1:] = pair[order[1:]] != pair[order[:-1]]
        best = order[first]
        found: list[Optional[_Witness]] = [None] * len(pairs)
        for p, *witness in zip(
            *(part[best].tolist() for part in (pair, row, column, score))
        ):
            found[p] = tuple(witness)
        return found


def _table_first(index: _UnitIndex, a: int, b: int) -> tuple[int, int]:
    """A pair of positions with the table first when one of the two is."""
    return (b, a) if index.is_table[b] and not index.is_table[a] else (a, b)


def compatibility(
    index: _UnitIndex, a: int, b: int, best: Optional[_Witness]
) -> Optional[Connection]:
    """The connection behind objects ``a`` and ``b``, by position, ordered
    by ``_table_first``, from their witness ``best``, or None when they
    score 0 (no witness)."""
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
        loc_a = divmod(i, len(obj_a.columns)) if entity else i
        loc_b = k
    return Connection(kind, Endpoint(obj_a.id, loc_a), Endpoint(obj_b.id, loc_b), score)


class CompatibilityCache:
    """Pairwise compatibility over one corpus, from a unit index that the
    first lookup builds. ``nominate`` computes rows a set at a time, a
    round's members' and then its picks', so every member of a search set
    has one; ``score(a, b)`` reads ``a``'s (a pair's entry holds the same
    bits in either row). ``connect`` computes the connections behind a
    set of pairs, a draft's, in one scoring pass and memoizes them by
    pair; ``get`` reads that memo, and a pair it lacks is a ``connect``
    batch of one. Objects are held, and rows laid out, in ascending id
    order, so ties by position are ties by id.

    A row holds its positive entries alone, the rest being 0: their
    positions ascending (``array("i")``, int32) and their values
    (``array("d")``) with the bits of the scorer's block, 12 bytes an
    entry, so the rows an engine keeps grow with the connections of the
    objects it has touched, not with the corpus. ``score`` bisects the
    positions; ``nominate`` ranks a transient dense copy of its members'
    rows, the size of the block ``_UnitIndex.rows`` returns for them.
    """

    def __init__(
        self, corpus: Corpus, provider: EmbeddingProvider, w: float = 0.5
    ) -> None:
        if not 0.0 <= w <= 1.0:
            raise ValidationError(f"w must be in [0, 1], got {w}")
        self._objects = tuple(sorted(corpus.objects, key=lambda obj: obj.id))
        self._provider = provider
        self._w = w
        self._ids = tuple(obj.id for obj in self._objects)
        self._position = {oid: j for j, oid in enumerate(self._ids)}
        self._rows: dict[str, tuple[array, array]] = {}
        self._connections: dict[tuple[str, str], Optional[Connection]] = {}

    @cached_property
    def _index(self) -> _UnitIndex:
        return _UnitIndex(self._objects, self._provider)

    def _fill(self, oids: Sequence[str]) -> None:
        """Compute the rows ``oids`` lack, in one pass, and keep each as
        its non-zero (so positive) entries."""
        missing = [oid for oid in oids if oid not in self._rows]
        if missing:
            objects = np.array([self._position[oid] for oid in missing])
            block = self._index.rows(objects, self._w)
            n = block.shape[1]
            # flat positions of the positive entries, row by row, ascending
            flat = np.flatnonzero(block > 0.0)
            positions = array("i", (flat % n).astype(np.intc).tobytes())
            values = array("d", block.ravel()[flat].tobytes())
            ends = np.searchsorted(flat, np.arange(1, len(missing) + 1) * n).tolist()
            for oid, lo, hi in zip(missing, [0] + ends, ends):
                self._rows[oid] = (positions[lo:hi], values[lo:hi])

    def score(self, id_a: str, id_b: str) -> float:
        if id_a == id_b:
            raise ValidationError(f"compatibility of {id_a!r} with itself")
        try:
            positions, values = self._rows[id_a]
        except KeyError:
            self._fill([id_a])
            positions, values = self._rows[id_a]
        j = self._position[id_b]
        i = bisect_left(positions, j)
        return values[i] if i < len(positions) and positions[i] == j else 0.0

    def nominate(self, members: Sequence[str], k: int) -> list[list[str]]:
        """For each of ``members``, the ``k`` objects outside ``members``
        most compatible with it, best first, ties by id; fewer when fewer
        lie outside. Each member's held row is scattered into a dense row
        over every object, a copy, with -1 at members' own positions; each
        pick is a row-wise ``np.argmax``, which takes the first of equal
        maxima, over positions in id order, and is then set to -1. A
        member whose positive entries run out so takes its zeros in id
        order. The distinct picks' rows are then filled."""
        self._fill(members)
        inside = [self._position[oid] for oid in members]
        rows = [self._rows[oid] for oid in members]
        every = np.arange(len(rows))
        block = np.zeros((len(rows), len(self._ids)))
        block[
            every.repeat([len(positions) for positions, _ in rows]),
            np.frombuffer(b"".join(positions for positions, _ in rows), dtype=np.intc),
        ] = np.frombuffer(b"".join(values for _, values in rows))
        block[:, inside] = -1.0
        count = min(k, len(self._ids) - len(set(inside)))
        best = np.empty((count, len(rows)), dtype=np.intp)
        for i in range(count):
            best[i] = block.argmax(axis=1)
            block[every, best[i]] = -1.0
        self._fill([self._ids[j] for j in sorted(set(best.ravel().tolist()))])
        return [[self._ids[j] for j in row] for row in best.T.tolist()]

    def connect(self, pairs: Sequence[tuple[str, str]]) -> None:
        """Compute and memoize the connections behind ``pairs`` that are
        not yet memoized, the only place a connection is computed: each
        pair, table first (``_table_first``), takes its witness from one
        ``_UnitIndex.witnesses`` pass, and ``compatibility`` builds its
        connection from it."""
        keys = []
        for id_a, id_b in pairs:
            if id_a == id_b:
                raise ValidationError(f"compatibility of {id_a!r} with itself")
            keys.append((id_a, id_b) if id_a < id_b else (id_b, id_a))
        missing = [key for key in dict.fromkeys(keys) if key not in self._connections]
        if missing:
            index = self._index
            positions = [
                _table_first(index, self._position[a], self._position[b])
                for a, b in missing
            ]
            found = index.witnesses(positions, self._w)
            for key, (a, b), best in zip(missing, positions, found):
                self._connections[key] = compatibility(index, a, b, best)

    def get(self, id_a: str, id_b: str) -> Optional[Connection]:
        """The connection behind a pair, memoized by the pair; a pair not
        yet memoized is a ``connect`` batch of one."""
        key = (id_a, id_b) if id_a < id_b else (id_b, id_a)
        if key not in self._connections:
            self.connect([key])
        return self._connections[key]


@dataclass(frozen=True)
class SearchSet:
    """Base members plus compatibility-expanded neighbors for one strategy."""

    strategy: tuple[int, int]  # (per_step_k, steps_l)
    object_ids: tuple[str, ...]


def expand_base(
    base_ids: Sequence[str],
    nominate: Callable[[Sequence[str], int], Sequence[Sequence[str]]],
    strategies: Sequence[tuple[int, int]],
) -> list[SearchSet]:
    """Grow the base set along most-compatible neighbors, per strategy.

    A strategy (k, l) runs l rounds; each round every current member
    nominates its k most compatible absent objects (ties by object id)
    and nominations merge at the end of the round. ``nominate(members,
    k)`` lists those k objects for each member, best first. A round that
    nominates nothing leaves the members as they are, so every later
    round would too: the strategy stops there.

    A member's ranking is a fixed order, score descending and then id
    ascending, so its k picks are the first k of its picks at any larger
    k: every walk opens from the base set, and that opening round is
    nominated once, at the largest k, each walk taking its prefix.
    Strategies with the same k walk the same later rounds too, so each
    k's walk is kept and each round is nominated once per call: the
    defaults (1, 1), (2, 1) and (1, 2) make two calls. A round only
    appends members, so a walk is its members and their count after each
    round. Every strategy is checked before the first call.
    """
    for per_step, steps in strategies:
        if per_step < 1 or steps < 1:
            raise ValidationError(f"invalid strategy ({per_step}, {steps})")
    base = list(dict.fromkeys(base_ids))
    widest = max((per_step for per_step, _ in strategies), default=1)
    opening: Optional[Sequence[Sequence[str]]] = None
    walks: dict[int, tuple[list[str], list[int]]] = {}
    stopped: set[int] = set()  # each k whose last round nominated nothing
    sets = []
    for per_step, steps in strategies:
        members, sizes = walks.setdefault(per_step, (list(base), [len(base)]))
        while len(sizes) <= steps and per_step not in stopped:
            if len(sizes) > 1:
                lists = nominate(members, per_step)
            else:
                if opening is None:
                    opening = nominate(base, widest)
                lists = opening
            nominated: set[str] = set()
            for picks in lists:
                nominated.update(picks[:per_step])
            if nominated:
                members.extend(sorted(nominated))
                sizes.append(len(members))
            else:
                stopped.add(per_step)
        size = sizes[min(steps, len(sizes) - 1)]
        sets.append(
            SearchSet(strategy=(per_step, steps), object_ids=tuple(members[:size]))
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
    for i, a in enumerate(ids):
        for j in range(i + 1, len(ids)):
            c = compat_fn(a, ids[j])
            if c > 0.0:
                compat[i, j] = c if c < 1.0 else 1.0  # clamp01 of a positive c
    return MipInstance(object_ids=ids, relevance=rel, compat=compat, k=k)


@dataclass(frozen=True)
class Draft:
    """A solved selection: chosen ids, chosen connections, objective value."""

    object_ids: tuple[str, ...]
    connections: tuple[tuple[str, str], ...]
    objective: float


def _leaf_draft(
    instance: MipInstance, selected: Sequence[int], floor: float
) -> Optional[Draft]:
    """A complete selection's draft, or None when its objective is below
    ``floor``. Its connections are the optimal completion: the largest
    positive strengths inside the selection, at most 2(k-1), ties by index
    pair. The objective adds the relevances, then those strengths, each
    in index order."""
    sel = sorted(selected)
    compat = instance.compat
    scored = sorted(
        (-c, i, j)
        for a, i in enumerate(sel)
        for j in sel[a + 1 :]
        if (c := compat.get((i, j), 0.0)) > 0.0
    )
    pairs = sorted((i, j) for _, i, j in scored[: 2 * (instance.k - 1)])
    total = left_sum([instance.relevance[i] for i in sel] + [compat[p] for p in pairs])
    if total < floor:
        return None
    ids = instance.object_ids
    return Draft(
        object_ids=tuple(sorted(ids[i] for i in sel)),
        connections=tuple(sorted(tuple(sorted((ids[i], ids[j]))) for i, j in pairs)),
        objective=total,
    )


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
    the leaves apply it. Each complete selection is scored once, into its
    draft when it can match the incumbent, and the best draft is kept.

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
    best: Optional[Draft] = None

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
        nonlocal best_obj, best, nodes
        nodes += 1
        if nodes > _NODE_BUDGET:
            raise TooLarge(
                f"solver exceeded {_NODE_BUDGET} nodes on {m} objects with k={k}"
            )
        if len(chosen) == k:
            draft = _leaf_draft(instance, chosen, best_obj)
            if draft is not None and (
                draft.objective > best_obj or draft.object_ids < best.object_ids
            ):
                best, best_obj = draft, draft.objective
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
    return best


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
