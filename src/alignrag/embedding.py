"""Embedding providers, the chunk vector store, and cosine similarity."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from .corpus import Chunk
from .errors import DimensionMismatch, ParseError, ProviderError, ZeroVector
from .ngram_index import normalize_tokens


class EmbeddingProvider(Protocol):
    """Deterministic text-to-vector mapping."""

    name: str
    dimension: int

    def embed(self, text: str) -> np.ndarray: ...

    def embed_chunk(self, chunk: Chunk) -> np.ndarray: ...


def _bucket(token: str, seed: int, dimension: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big") % dimension


class HashEmbeddingProvider:
    """Feature-hashed token counts, unit-normalized.

    Identical text always maps to the identical vector for a given
    (seed, dimension); text with no tokens maps to a fixed basis vector
    so every embedding has unit norm.
    """

    name = "hash"

    def __init__(self, dimension: int = 64, seed: int = 0) -> None:
        if dimension < 1:
            raise ProviderError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    def embed(self, text: str) -> np.ndarray:
        cached = self._cache.get(text)
        if cached is None:
            cached = self._cache[text] = self._vector(text)
        return cached

    def embed_chunk(self, chunk: Chunk) -> np.ndarray:
        """Uncached: the vector store keeps the only copy of chunk vectors."""
        return self._vector(chunk.text)

    def _vector(self, text: str) -> np.ndarray:
        vec = np.zeros(self.dimension, dtype=np.float64)
        tokens = normalize_tokens(text)
        if not tokens:
            vec[0] = 1.0
        else:
            for tok in tokens:
                vec[_bucket(tok, self.seed, self.dimension)] += 1.0
            vec /= np.linalg.norm(vec)
        vec.setflags(write=False)
        return vec


class FileVectorProvider:
    """Precomputed vectors read from JSONL, keyed by chunk id.

    Each line holds {"chunk_id": ..., "vector": [...]}. Question or other
    free-text keys may be included as extra lines; lookups are exact.
    """

    name = "file"

    def __init__(self, path: str) -> None:
        self._vectors: dict[str, np.ndarray] = {}
        self.dimension = 0
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ParseError(f"line {line_no}: {exc.msg}") from exc
                key = record.get("chunk_id")
                vector = record.get("vector")
                if not isinstance(key, str) or not isinstance(vector, list):
                    raise ParseError(f"line {line_no}: need chunk_id and vector")
                arr = np.asarray(vector, dtype=np.float64)
                if self.dimension == 0:
                    self.dimension = arr.shape[0]
                elif arr.shape[0] != self.dimension:
                    raise DimensionMismatch(
                        f"line {line_no}: vector of dim {arr.shape[0]}, "
                        f"expected {self.dimension}"
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
class VectorStore:
    """Every chunk vector as one row of a matrix, each object's rows contiguous.

    Object ``object_ids[j]`` owns rows ``offsets[j]:offsets[j + 1]``;
    ``norms`` holds each row's Euclidean norm.
    """

    dimension: int
    object_ids: tuple[str, ...]
    matrix: np.ndarray  # (n_chunks, dimension)
    offsets: np.ndarray  # (n_objects + 1,)
    norms: np.ndarray  # (n_chunks,)

    def __len__(self) -> int:
        return self.matrix.shape[0]


def embed_corpus(provider: EmbeddingProvider, chunks: Iterable[Chunk]) -> VectorStore:
    """Embed every chunk once into a store grouped by object."""
    grouped: dict[str, list[Chunk]] = {}
    for chunk in chunks:
        grouped.setdefault(chunk.object_id, []).append(chunk)
    rows = [chunk for group in grouped.values() for chunk in group]
    matrix = np.empty((len(rows), provider.dimension), dtype=np.float64)
    norms = np.empty(len(rows), dtype=np.float64)
    for i, chunk in enumerate(rows):
        vec = provider.embed_chunk(chunk)
        norms[i] = np.linalg.norm(vec)  # the 1-D norm, as cosine takes it
        matrix[i] = vec
        if norms[i] == 0.0:
            raise ZeroVector(f"chunk {chunk.chunk_id!r} has a zero-norm vector")
    sizes = [len(group) for group in grouped.values()]
    offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.intp)))
    matrix.setflags(write=False)
    return VectorStore(
        dimension=provider.dimension,
        object_ids=tuple(grouped),
        matrix=matrix,
        offsets=offsets,
        norms=norms,
    )


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding overshoot."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"shapes {u.shape} and {v.shape} differ")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    value = float(np.dot(u, v) / (nu * nv))
    return max(-1.0, min(1.0, value))


def object_similarity(store: VectorStore, question_vec: np.ndarray) -> np.ndarray:
    """Every object's best chunk cosine with the question, clamped to [-1, 1].

    Entry j belongs to ``store.object_ids[j]``. The dot products read
    only the question's non-zero coordinates.
    """
    q = np.asarray(question_vec, dtype=np.float64)
    if q.shape != (store.dimension,):
        raise DimensionMismatch(f"question {q.shape}, store dim {store.dimension}")
    q_norm = np.linalg.norm(q)
    if q_norm == 0.0:
        raise ZeroVector("cosine undefined for zero-norm vector")
    support = np.flatnonzero(q)
    cosines = (store.matrix[:, support] @ q[support]) / (q_norm * store.norms)
    np.clip(cosines, -1.0, 1.0, out=cosines)
    return np.maximum.reduceat(cosines, store.offsets[:-1])
