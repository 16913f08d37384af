"""Embedding providers, the chunk vector store, and cosine similarity."""

from __future__ import annotations

import math
from _blake2 import blake2b
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Optional, Protocol, Sequence, Union

import numpy as np

from .corpus import Chunk
from .errors import (
    DimensionMismatch,
    ParseError,
    ProviderError,
    ValidationError,
    ZeroVector,
)
from .jsonio import read_jsonl
from .ngram_index import normalize_tokens


class EmbeddingProvider(Protocol):
    """Deterministic text-to-vector mapping."""

    name: str
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_chunk(self, chunk: Chunk) -> np.ndarray: ...


def hash64(data: bytes, key: bytes = b"") -> int:
    """The 8-byte BLAKE2b digest of ``data`` under ``key``, as a big-endian
    integer.

    ``blake2b`` is CPython's own ``_blake2.blake2b``, the very function
    ``hashlib.blake2b`` names, so the digests are hashlib's; importing it
    directly keeps ``hashlib``, and with it OpenSSL, out of the process.
    """
    return int.from_bytes(blake2b(data, digest_size=8, key=key).digest(), "big")


# the usual feature-hashing width; stores size inverted lists to dimension + 1
MAX_HASH_DIMENSION = 2**20


def _bucket(token: str, seed: int, dimension: int) -> int:
    return hash64(token.encode("utf-8"), str(seed).encode("utf-8")) % dimension


class HashEmbeddingProvider:
    """Feature-hashed token counts, unit-normalized.

    Identical text always maps to the identical vector for a given
    (seed, dimension); text with no tokens maps to a fixed basis vector
    so every embedding has unit norm. Each token's bucket is a keyed
    blake2b hash; the buckets of the texts embedded in batches (the
    corpus) are kept in a table, so each distinct corpus token is hashed
    once.
    """

    name = "hash"

    def __init__(self, dimension: int = 64, seed: int = 0) -> None:
        if not 1 <= dimension <= MAX_HASH_DIMENSION:
            limits = f"[1, {MAX_HASH_DIMENSION}]"
            raise ProviderError(f"dimension must be in {limits}, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self._buckets: dict[str, int] = {}

    def embed(self, text: str) -> np.ndarray:
        """The text's token counts per bucket divided by their Euclidean
        norm, as a fresh read-only array; a text with no tokens maps to the
        first basis vector.

        Tokens of the batch-embedded texts read their bucket from the
        table; any other token is hashed on each call and not stored, so
        the table stays bounded by the corpus. Counts are integers, so the
        norm over the distinct buckets is exact, the bits ``_norms`` gives.
        Uncached: callers that reuse a vector keep their own copy.
        """
        vec = np.zeros(self.dimension, dtype=np.float64)
        tokens = normalize_tokens(text)
        if tokens:
            table = self._buckets
            counts = Counter(
                table[tok] if tok in table else _bucket(tok, self.seed, self.dimension)
                for tok in tokens
            )
            norm = math.sqrt(sum(c * c for c in counts.values()))
            vec[list(counts)] = [c / norm for c in counts.values()]
        else:
            vec[0] = 1.0
        vec.setflags(write=False)
        return vec

    def embed_chunk(self, chunk: Chunk) -> np.ndarray:
        return self.embed(chunk.text)

    def _rows(self, token_lists: Sequence[list[str]]) -> SparseRows:
        """The ``embed`` vector of every text, given as its normalized
        tokens, as one sparse row, built from one ``np.unique`` over (row,
        bucket) keys; new tokens enter the table.

        Counts are integers, so the exact norm (as ``_norms`` takes it) and
        each ``count / norm`` are the bits ``embed`` computes.
        """
        table = self._buckets
        for tok in set(chain.from_iterable(token_lists)).difference(table):
            table[tok] = _bucket(tok, self.seed, self.dimension)
        n, dim = len(token_lists), self.dimension
        lengths = np.fromiter(map(len, token_lists), dtype=np.intp, count=n)
        buckets = np.fromiter(
            map(table.__getitem__, chain.from_iterable(token_lists)),
            dtype=np.intp,
            count=int(lengths.sum()),
        )
        keys = np.repeat(np.arange(n, dtype=np.intp) * dim, lengths) + buckets
        # a text with no tokens counts once in bucket 0, the basis vector
        keys = np.concatenate((keys, np.flatnonzero(lengths == 0) * dim))
        keys, counts = np.unique(keys, return_counts=True)
        owners = keys // dim
        counts = counts.astype(np.float64)
        norms = np.sqrt(np.bincount(owners, weights=counts * counts, minlength=n))
        ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(owners, minlength=n), out=ptr[1:])
        return SparseRows(ptr=ptr, indices=keys % dim, values=counts / norms[owners])


class FileVectorProvider:
    """Precomputed vectors read from JSONL, keyed by chunk id.

    Each line holds {"chunk_id": ..., "vector": [...]}. Question or other
    free-text keys may be included as extra lines; lookups are exact.
    """

    name = "file"

    def __init__(self, path: str) -> None:
        self._vectors: dict[str, np.ndarray] = {}
        self.dimension = 0
        for record, where in read_jsonl(path, "vector file"):
            key = record.get("chunk_id")
            vector = record.get("vector")
            if not isinstance(key, str) or not isinstance(vector, list):
                raise ParseError(f"{where}: need chunk_id and vector")
            if not all(type(x) in (int, float) for x in vector):
                raise ParseError(f"{where}: vector must be a flat list of numbers")
            try:
                arr = np.asarray(vector, dtype=np.float64)
                _norm(arr, where)
            # an integer past float range, or a vector ``_norm`` rejects
            except (OverflowError, ProviderError):
                raise ParseError(
                    f"{where}: vector must hold finite numbers with a finite norm"
                ) from None
            if arr.size == 0:
                raise ParseError(f"{where}: vector is empty")
            if self.dimension == 0:
                self.dimension = arr.shape[0]
            elif arr.shape[0] != self.dimension:
                raise DimensionMismatch(
                    f"{where}: vector of dim {arr.shape[0]}, expected {self.dimension}"
                )
            arr.setflags(write=False)
            self._vectors[key] = arr
        if not self._vectors:
            raise ProviderError(f"no vectors found in {path}")

    def embed(self, text: str) -> np.ndarray:
        try:
            return self._vectors[text]
        except KeyError:
            raise ProviderError(f"no precomputed vector for key {text!r}") from None

    def embed_chunk(self, chunk: Chunk) -> np.ndarray:
        try:
            return self._vectors[chunk.chunk_id]
        except KeyError:
            raise ProviderError(
                f"no precomputed vector for chunk {chunk.chunk_id!r}"
            ) from None


@dataclass(frozen=True)
class SparseRows:
    """Sparse rows in CSR form: row i holds ``indices[ptr[i]:ptr[i + 1]]``,
    ascending, with ``values`` at the same positions (all ones when None).

    ``transpose`` turns rows of coordinates into inverted lists, one row
    per coordinate naming the rows that hold it.
    """

    ptr: np.ndarray
    indices: np.ndarray
    values: Optional[np.ndarray] = None

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        values: Optional[Sequence[np.ndarray]] = None,
    ) -> "SparseRows":
        lengths = np.fromiter((len(r) for r in rows), dtype=np.intp, count=len(rows))
        ptr = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=ptr[1:])
        empty = [np.empty(0)]
        return cls(
            ptr=ptr,
            indices=np.concatenate(empty + list(rows)).astype(np.intp),
            values=None if values is None else np.concatenate(empty + list(values)),
        )

    def transpose(self, n_columns: int) -> "SparseRows":
        """Inverted lists: column k lists the rows holding it, ascending."""
        owners = np.repeat(np.arange(len(self.ptr) - 1), np.diff(self.ptr))
        order = np.argsort(self.indices, kind="stable")
        ptr = np.zeros(n_columns + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.indices, minlength=n_columns), out=ptr[1:])
        values = None if self.values is None else self.values[order]
        return SparseRows(ptr=ptr, indices=owners[order], values=values)

    def positions(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Entry positions of rows ``keys``, concatenated, and each row's length."""
        starts = self.ptr[keys]
        lengths = self.ptr[keys + 1] - starts
        positions = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        positions += np.arange(positions.size)
        return positions, lengths

    def take(self, keys: np.ndarray) -> "SparseRows":
        """Rows ``keys``, in that order, as rows of their own."""
        positions, lengths = self.positions(keys)
        ptr = np.zeros(len(keys) + 1, dtype=np.intp)
        np.cumsum(lengths, out=ptr[1:])
        values = None if self.values is None else self.values[positions]
        return SparseRows(ptr=ptr, indices=self.indices[positions], values=values)


@dataclass(frozen=True)
class VectorStore:
    """Every chunk vector, stored sparse by coordinate, each object's chunks
    contiguous.

    Objects are laid out in ascending id order, so position order is the
    tie order ``top_objects`` takes. Object ``object_ids[j]`` owns chunks
    ``offsets[j]:offsets[j + 1]``; ``chunk_rows`` maps each chunk id to its
    chunk index and ``norms`` holds each chunk vector's Euclidean norm. Row
    ``d`` of ``columns`` lists the chunks whose vector is non-zero at
    coordinate ``d``, with the values there. A hashed chunk vector is non-zero on a
    few dozen of its thousands of coordinates, so the store holds a small
    fraction of a dense matrix and is built without one.
    """

    dimension: int
    object_ids: tuple[str, ...]
    columns: SparseRows  # one row per coordinate: chunk indices and values
    offsets: np.ndarray  # (n_objects + 1,)
    chunk_rows: Mapping[str, int]
    norms: np.ndarray  # (n_chunks,)

    def __len__(self) -> int:
        return self.norms.shape[0]


def embed_rows(
    provider: EmbeddingProvider,
    items: Union[Sequence[Chunk], Sequence[str]],
    tokens: Optional[Sequence[list[str]]] = None,
) -> tuple[SparseRows, np.ndarray]:
    """Every item's vector as a sparse row (its non-zero coordinates,
    ascending, with their values) and its Euclidean norm (``_norms``).
    Chunks are embedded with ``embed_chunk``, strings with ``embed``.

    A ``HashEmbeddingProvider`` embeds them all in one batch, from
    ``tokens``, each item's ``normalize_tokens`` list, when the caller has
    them; a subclass may override either method, so it goes through them
    one vector at a time like every other provider, which reads no tokens,
    and each such vector's norm is checked (``_norm``).
    """
    if type(provider) is HashEmbeddingProvider:
        if tokens is None:
            texts = (i.text if isinstance(i, Chunk) else i for i in items)
            tokens = [normalize_tokens(text) for text in texts]
        rows = provider._rows(tokens)
        return rows, _norms(rows.values, rows.ptr.tolist())
    supports, weights, norms = [], [], []
    for item in items:
        chunk = isinstance(item, Chunk)
        vec = provider.embed_chunk(item) if chunk else provider.embed(item)
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (provider.dimension,):
            raise DimensionMismatch(
                f"{_label(item)}: vector {vec.shape}, provider dim {provider.dimension}"
            )
        support = np.flatnonzero(vec != 0.0)
        supports.append(support)
        weights.append(vec[support])
        norms.append(_norm(weights[-1], f"{provider.name} provider, {_label(item)}"))
    rows = SparseRows.from_rows(supports, weights)
    norms = np.array(norms)
    # tiny values may square to zero, so the norm, not the support, decides
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroVector(f"{_label(items[zero[0]])} has a zero-norm vector")
    return rows, norms


def _label(item: Union[Chunk, str]) -> str:
    return f"chunk {item.chunk_id!r}" if isinstance(item, Chunk) else f"text {item!r}"


def _norms(values: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """The Euclidean norm of each run ``values[lo:hi]`` between consecutive
    ``bounds``, as ``math.sqrt(math.fsum(squares))``: each square and the
    root are correctly rounded and ``math.fsum`` adds the squares exactly,
    so a norm's bits depend on its values alone, not on their coordinates,
    their order or the host's BLAS."""
    squares = values * values
    runs = zip(bounds, bounds[1:])
    # one run's squares at a time as Python floats: a list of all of them
    # raised the benchmark's peak RSS by 0.7 MB on a 1,000-object corpus
    return np.array([math.sqrt(math.fsum(squares[lo:hi].tolist())) for lo, hi in runs])


def _norm(values: np.ndarray, what: str) -> float:
    """The norm ``_norms`` takes of one vector from outside the hash
    provider, given by its ``values`` (its non-zero ones suffice), which
    must be finite numbers with a finite sum of squares. A NaN or
    infinite value, a square past float range or squares whose exact sum
    passes it (where ``math.fsum`` raises ``OverflowError``) would make
    every cosine with the vector NaN or 0, so each raises
    ``ProviderError`` naming ``what``."""
    try:
        with np.errstate(over="ignore"):
            norm = _norms(values, (0, values.size))[0]
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise ProviderError(
            f"{what}: vector must hold finite numbers with a finite norm"
        )
    return norm


def embed_corpus(provider: EmbeddingProvider, chunks: Iterable[Chunk]) -> VectorStore:
    """Embed every chunk once into a store grouped by object, objects in
    ascending id order and each one's chunks in input order."""
    grouped: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        grouped.setdefault(chunk.object_id, []).append(chunk)
    object_ids = tuple(sorted(grouped))
    rows = [chunk for oid in object_ids for chunk in grouped[oid]]
    vectors, norms = embed_rows(provider, rows)
    sizes = [len(grouped[oid]) for oid in object_ids]
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    return VectorStore(
        dimension=provider.dimension,
        object_ids=object_ids,
        columns=vectors.transpose(provider.dimension),
        offsets=offsets,
        chunk_rows={chunk.chunk_id: i for i, chunk in enumerate(rows)},
        norms=norms,
    )


def sparse_cosines(
    columns: SparseRows, norms: np.ndarray, question_vec: np.ndarray
) -> np.ndarray:
    """Every vector's cosine with the question, clamped to [-1, 1].

    The vectors are given by their inverted lists ``columns``, one row per
    coordinate, and their Euclidean ``norms``. The dot products read only
    the question's non-zero coordinates, as its checked norm (``_norm``)
    does, and each vector's dot sums its products in ascending coordinate
    order (``np.bincount`` adds in input order), so a vector's bits depend
    on neither the other vectors given nor the host's BLAS.
    """
    dimension = len(columns.ptr) - 1
    q = np.asarray(question_vec, dtype=np.float64)
    if q.shape != (dimension,):
        raise DimensionMismatch(f"question {q.shape}, vectors of dim {dimension}")
    support = np.flatnonzero(q != 0.0)
    q_norm = _norm(q[support], "question")
    if q_norm == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    positions, lengths = columns.positions(support)
    products = columns.values[positions] * np.repeat(q[support], lengths)
    dots = np.bincount(columns.indices[positions], products, minlength=len(norms))
    cosines = dots / (q_norm * norms)
    np.clip(cosines, -1.0, 1.0, out=cosines)
    return cosines


def object_similarity(store: VectorStore, question_vec: np.ndarray) -> np.ndarray:
    """Every object's best chunk cosine with the question (``sparse_cosines``),
    clamped to [-1, 1]; entry j belongs to ``store.object_ids[j]``, and its
    bits do not depend on which other objects the store holds."""
    cosines = sparse_cosines(store.columns, store.norms, question_vec)
    return np.maximum.reduceat(cosines, store.offsets[:-1])


# the largest k ``top_objects`` picks by argmax passes; above it a
# partition is faster (crossover at k of 12 to 14 for 20, 1,000 and 3,520
# scores on numpy 2.4)
ARGMAX_PICKS = 12


def top_objects(scores: np.ndarray, k: int) -> list[int]:
    """Positions of the ``k`` best ``scores``, best first, ties by
    position (``-0.0`` ties ``0.0``); the scores hold no NaN.

    Up to ``ARGMAX_PICKS``, each pick is an ``argmax`` over a float copy
    of the scores, which takes the first of equal maxima, and is then set
    to ``-inf`` there; once the best left is ``-inf``, the scores at
    ``-inf`` follow by position. Above it, a partition finds the k-th best
    score. Every entry above it is kept, and of the entries equal to it
    the first ones that make up ``k``; only those ``k`` are sorted. The
    partition runs on the negated scores at ``k - 1``: with a few high
    scores over a flat rest, as retrieval's cosines and the mock scorer's
    logits are, that is several times faster than partitioning the scores
    at ``n - k``.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if k >= len(scores):
        top = np.arange(len(scores))
    elif k > ARGMAX_PICKS:
        worse = -scores
        kth = np.partition(worse, k - 1)[k - 1]
        above = np.flatnonzero(worse < kth)
        tied = np.flatnonzero(worse == kth)[: k - above.size]
        top = np.concatenate((above, tied))
    else:
        work = scores.astype(np.float64)
        picks: list[int] = []
        for _ in range(k):
            j = int(work.argmax())
            if work[j] == -np.inf:
                rest = np.flatnonzero(scores == -np.inf)[: k - len(picks)]
                return picks + rest.tolist()
            picks.append(j)
            work[j] = -np.inf
        return picks
    return top[np.lexsort((top, -scores[top]))].tolist()
