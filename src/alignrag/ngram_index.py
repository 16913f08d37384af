"""Token normalization, N-gram extraction, prefix trie, and BM25 scoring.

The same normalization backs the lexical index and the mock language
model tokenizer, so constrained decoding over the trie and BM25 lookups
agree on token identity.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .corpus import Chunk
from .errors import ParseError, ValidationError

MAX_NGRAM = 3

_STRIP_CHARS = string.punctuation + string.whitespace


def normalize_tokens(text: str) -> list[str]:
    """Lowercase, split on whitespace, strip edge punctuation, drop empties."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


@dataclass(frozen=True)
class NGram:
    """A run of 1..3 normalized tokens."""

    tokens: tuple[str, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.tokens) <= MAX_NGRAM:
            raise ValidationError(f"ngram length {len(self.tokens)} out of range")
        for tok in self.tokens:
            if not tok or tok != tok.lower():
                raise ValidationError(f"ngram token {tok!r} not normalized")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)


def extract_ngrams(text: str, max_n: int = MAX_NGRAM) -> set[NGram]:
    """All 1..max_n token windows over the normalized text."""
    tokens = normalize_tokens(text)
    grams: set[NGram] = set()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            grams.add(NGram(tokens=tuple(tokens[i : i + n])))
    return grams


class _TrieNode:
    __slots__ = ("children", "terminal", "_sorted")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.terminal = False
        self._sorted: Optional[tuple[str, ...]] = None

    def continuations(self) -> tuple[str, ...]:
        """Child tokens in sorted order, sorted and checked on first call.

        Every child must be a normalized token, which also excludes the
        decoder's reserved delimiters: a token the decoder could not emit
        as itself (or would read as a delimiter) raises ValidationError.
        """
        if self._sorted is None:
            tokens = tuple(sorted(self.children))
            bad = [tok for tok in tokens if normalize_tokens(tok) != [tok]]
            if bad:
                raise ValidationError(
                    f"indexed tokens {bad!r} are not normalized tokens and "
                    "cannot be decoded"
                )
            self._sorted = tokens
        return self._sorted


class NGramTrie:
    """Prefix trie over N-gram token sequences.

    The constrained decoder walks it from ``root``: each node's
    ``continuations()`` and ``terminal`` are the masking surface, and a
    hypothesis keeps the node of its prefix rather than walking again.
    """

    def __init__(self) -> None:
        self.root = _TrieNode()
        self._size = 0

    def add(self, ngram: NGram) -> None:
        self._insert((ngram.tokens,))

    def _insert(self, token_lists: Iterable[Sequence[str]]) -> None:
        """Store each token sequence; callers have checked the tokens."""
        root = self.root
        for tokens in token_lists:
            node = root
            for tok in tokens:
                child = node.children.get(tok)
                if child is None:
                    child = node.children[tok] = _TrieNode()
                    node._sorted = None
                node = child
            if not node.terminal:
                node.terminal = True
                self._size += 1

    def __len__(self) -> int:
        return self._size

    def __contains__(self, ngram: NGram) -> bool:
        node = self.root
        for tok in ngram.tokens:
            node = node.children.get(tok)
            if node is None:
                return False
        return node.terminal

    def ngrams(self) -> Iterator[NGram]:
        """Enumerate stored N-grams in lexicographic token order."""

        def walk(node: _TrieNode, path: tuple[str, ...]) -> Iterator[NGram]:
            if node.terminal:
                yield NGram(tokens=path)
            for tok in sorted(node.children):
                yield from walk(node.children[tok], path + (tok,))

        yield from walk(self.root, ())


def build_trie(ngrams: Iterable[NGram]) -> NGramTrie:
    trie = NGramTrie()
    trie._insert(gram.tokens for gram in ngrams)
    return trie


def corpus_ngrams(chunks: Iterable[Chunk], max_n: int = MAX_NGRAM) -> set[NGram]:
    grams: set[NGram] = set()
    for chunk in chunks:
        grams |= extract_ngrams(chunk.text, max_n=max_n)
    return grams


@dataclass
class Bm25Index:
    """Okapi BM25 statistics over chunk texts."""

    k1: float = 1.2
    b: float = 0.75
    doc_len: dict[str, int] = field(default_factory=dict)
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    avgdl: float = 0.0

    @property
    def size(self) -> int:
        return len(self.doc_len)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, ()))
        n = self.size
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))


def build_bm25(chunks: Iterable[Chunk], k1: float = 1.2, b: float = 0.75) -> Bm25Index:
    index = Bm25Index(k1=k1, b=b)
    for chunk in chunks:
        tokens = normalize_tokens(chunk.text)
        if chunk.chunk_id in index.doc_len:
            raise ValidationError(f"duplicate chunk id {chunk.chunk_id!r}")
        index.doc_len[chunk.chunk_id] = len(tokens)
        for term, freq in Counter(tokens).items():
            index.postings.setdefault(term, {})[chunk.chunk_id] = freq
    if index.doc_len:
        index.avgdl = sum(index.doc_len.values()) / len(index.doc_len)
    return index


def bm25_search(
    index: Bm25Index, query_terms: Sequence[str], top_k: Optional[int] = None
) -> list[tuple[str, float]]:
    """Score chunks against the query terms; matching chunks only.

    Results are sorted by descending score, ties by chunk id. A query
    with no indexed term returns an empty list.
    """
    if top_k is not None and top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    scores: dict[str, float] = {}
    for term in query_terms:
        posting = index.postings.get(term)
        if not posting:
            continue
        idf = index.idf(term)
        for chunk_id, freq in posting.items():
            dl = index.doc_len[chunk_id]
            norm = freq + index.k1 * (1.0 - index.b + index.b * dl / index.avgdl)
            scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * freq * (
                index.k1 + 1.0
            ) / norm
    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    return ranked if top_k is None else ranked[:top_k]


INDEX_FORMAT = "alignrag-index-v1"


def save_index(
    path: str, trie: NGramTrie, bm25: Bm25Index, chunk_units: int
) -> None:
    """Persist the lexical index as deterministic JSON."""
    snapshot = {
        "format": INDEX_FORMAT,
        "chunk_units": chunk_units,
        "ngrams": [list(g.tokens) for g in trie.ngrams()],
        "bm25": {
            "k1": bm25.k1,
            "b": bm25.b,
            "doc_len": dict(sorted(bm25.doc_len.items())),
            "postings": {
                term: dict(sorted(posting.items()))
                for term, posting in sorted(bm25.postings.items())
            },
        },
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def _key(record: dict, key: str, kind: type | tuple[type, ...], where: str):
    """``record[key]``, which must exist and be a ``kind`` (never a bool)."""
    if key not in record:
        raise ParseError(f"{where}: missing key {key!r}")
    value = record[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(f"{where}: {key!r} has type {type(value).__name__}")
    return value


def load_index(path: str) -> tuple[NGramTrie, Bm25Index, int]:
    """The trie, BM25 statistics and ``chunk_units`` saved by ``save_index``.

    Each n-gram's length is checked, and each distinct token once; a
    malformed file raises ParseError naming it.
    """
    where = f"index file {path}"
    with open(path, "r", encoding="utf-8") as handle:
        try:
            snapshot = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{where}: {exc.msg}") from exc
    if not isinstance(snapshot, dict):
        raise ParseError(f"{where}: expected a JSON object")
    if snapshot.get("format") != INDEX_FORMAT:
        raise ParseError(f"{where}: unsupported format {snapshot.get('format')!r}")
    chunk_units = _key(snapshot, "chunk_units", int, where)
    ngrams = _key(snapshot, "ngrams", list, where)
    raw = _key(snapshot, "bm25", dict, where)
    k1 = _key(raw, "k1", (int, float), f"{where} bm25")
    b = _key(raw, "b", (int, float), f"{where} bm25")
    doc_len = _key(raw, "doc_len", dict, f"{where} bm25")
    postings = _key(raw, "postings", dict, f"{where} bm25")
    if not all(
        isinstance(toks, list) and 1 <= len(toks) <= MAX_NGRAM for toks in ngrams
    ):
        raise ParseError(
            f"{where}: every n-gram must be a list of 1 to {MAX_NGRAM} tokens"
        )
    try:
        vocab = dict.fromkeys(chain.from_iterable(ngrams))  # first-seen order
    except TypeError as exc:
        raise ParseError(f"{where}: malformed entry: {exc}") from exc
    for tok in vocab:
        if not isinstance(tok, str) or normalize_tokens(tok) != [tok]:
            raise ParseError(
                f"{where}: malformed entry: n-gram token {tok!r} is not a "
                "normalized token"
            )
    trie = NGramTrie()
    trie._insert(ngrams)
    try:
        bm25 = Bm25Index(
            k1=float(k1),
            b=float(b),
            doc_len={cid: int(n) for cid, n in doc_len.items()},
            postings={
                term: {cid: int(f) for cid, f in posting.items()}
                for term, posting in postings.items()
            },
        )
    except (AttributeError, TypeError, ValueError) as exc:
        raise ParseError(f"{where}: malformed entry: {exc}") from exc
    if bm25.doc_len:
        bm25.avgdl = sum(bm25.doc_len.values()) / len(bm25.doc_len)
    return trie, bm25, chunk_units
