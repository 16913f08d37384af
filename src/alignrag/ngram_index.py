"""Token normalization, N-gram extraction, prefix trie and its token ids,
and BM25 scoring.

The same normalization backs the lexical index and the mock language
model tokenizer, so constrained decoding over the trie and BM25 lookups
agree on token identity. An indexed N-gram is a tuple of tokens from
extraction to the trie, which checks its tokens once as it is built and
is fixed from then on; ``NGram`` is the type of a decoded N-gram.
"""

from __future__ import annotations

import json
import math
import string
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import Chunk
from .errors import ParseError, ValidationError
from .jsonio import read_json

MAX_NGRAM = 3

# The constrained decoder's segment delimiters. Normalization strips bare
# punctuation, so no trie token equals one; the trie interns them with
# its tokens, so a node's candidates and the delimiters share one id order.
OPEN_TOKEN = "("
CLOSE_TOKEN = ")"
SEP_TOKEN = ","

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
    """A decoded run of 1..3 normalized tokens."""

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


def extract_ngrams(text: str) -> set[tuple[str, ...]]:
    """All 1..MAX_NGRAM token windows over the normalized text."""
    tokens = normalize_tokens(text)
    return {
        tuple(tokens[i : i + n])
        for n in range(1, MAX_NGRAM + 1)
        for i in range(len(tokens) - n + 1)
    }


class Vocabulary:
    """Int ids for a set of tokens, assigned in sorted token order, so id
    order is token order: ``tokens[i]`` is the token of id ``i``,
    ``array`` holds the same tokens as an object array, to be indexed by
    an id array, and ``ids`` maps each token to its id."""

    __slots__ = ("tokens", "array", "ids")

    def __init__(self, tokens: Iterable[str]) -> None:
        self.tokens = tuple(sorted(tokens))
        self.array = np.array(self.tokens, dtype=object)
        self.ids = dict(zip(self.tokens, range(len(self.tokens))))

    def __len__(self) -> int:
        return len(self.tokens)


class NGramTrie:
    """Prefix trie over N-gram token sequences, fixed once built.

    The trie is a few read-only arrays. Its nodes are numbered level by
    level: the root is 0, then come the distinct prefixes of one, two and
    three tokens, each level in token order. Node ``n``'s children are
    then the nodes ``ptr[n]`` to ``ptr[n + 1]``, in token order.
    ``tokens`` holds each node's token id in ``vocab`` (the root's is -1),
    ``words`` each node's token (the root's is arbitrary), and
    ``terminal`` whether its prefix is a stored N-gram. ``_grams`` holds
    the stored N-grams as token ids in sorted order, one row per token
    position, -1 past an N-gram's end.

    The constrained decoder walks it by node number from 0: a node's
    ``words`` or ``tokens`` slice and its ``terminal`` are the masking
    surface, and ``child`` moves a hypothesis on by one token. Every
    stored token is its own normalization, so the decoder emits it as
    itself and never reads it as one of its reserved delimiters.
    ``vocab`` interns every stored token and the three delimiters.
    """

    def __init__(self, token_lists: Iterable[Sequence[str]] = ()) -> None:
        """Store each token sequence.

        Each distinct token must be a string that is its own normalization,
        and each sequence must hold 1 to ``MAX_NGRAM`` tokens; either fault
        raises ValidationError. The arrays are built in array passes: each
        token is mapped to its id once, the N-grams are sorted and
        deduplicated, and each level's distinct prefixes are found by
        comparing neighbours.
        """
        token_lists = list(token_lists)
        distinct = dict.fromkeys(chain.from_iterable(token_lists))
        for tok in distinct:
            if not isinstance(tok, str) or normalize_tokens(tok) != [tok]:
                raise ValidationError(
                    f"n-gram token {tok!r} is not a normalized token"
                )
        self.vocab = vocab = Vocabulary(
            distinct.keys() | {OPEN_TOKEN, CLOSE_TOKEN, SEP_TOKEN}
        )
        del distinct
        lengths = np.fromiter(map(len, token_lists), np.intp, len(token_lists))
        bad = np.flatnonzero((lengths < 1) | (lengths > MAX_NGRAM))
        if bad.size:
            raise ValidationError(
                f"n-gram {list(token_lists[bad[0]])!r} is not a list of 1 to "
                f"{MAX_NGRAM} tokens"
            )
        # token ids and node numbers, and -1, fit in int32 unless the input
        # is too large for it
        bound = max(len(vocab), MAX_NGRAM * len(token_lists) + 2)
        dtype = np.int32 if bound < 2**31 else np.int64
        flat = np.fromiter(
            map(vocab.ids.__getitem__, chain.from_iterable(token_lists)),
            dtype,
            int(lengths.sum()),
        )
        grams = np.full((MAX_NGRAM, len(token_lists)), -1, dtype)
        starts = np.cumsum(lengths) - lengths
        for d in range(MAX_NGRAM):
            longer = lengths > d
            grams[d, longer] = flat[starts[longer] + d]
        del token_lists, flat, starts, lengths
        # id order is token order and -1 sorts first, so this is the
        # N-grams' lexicographic order, a prefix before its extensions, and
        # the N-grams that share a prefix are one run
        grams = grams[:, np.lexsort(grams[::-1])]
        lengths = (grams >= 0).sum(axis=0)
        # changed: whether an N-gram's first d + 1 tokens differ from the
        # N-gram's before it; node: the number of its level-d node
        changed = np.zeros(grams.shape[1], bool)
        changed[:1] = True
        node = np.zeros(grams.shape[1], np.intp)
        parents = []
        tokens = [np.full(1, -1, dtype)]
        terminal = [np.zeros(1, bool)]
        size = 1
        for d in range(MAX_NGRAM):
            changed[1:] |= grams[d, 1:] != grams[d, :-1]
            new = changed & (grams[d] >= 0)  # the first of each level-d+1 prefix
            parents.append(node[new])
            tokens.append(grams[d, new])
            # a stored prefix sorts first among the N-grams that extend it
            terminal.append(lengths[new] == d + 1)
            node = size - 1 + np.cumsum(new)
            size += len(tokens[-1])
        self._grams = grams[:, changed]
        # parents ascend, so a node's children are one run
        first = np.searchsorted(np.concatenate(parents), np.arange(size + 1))
        # rebinding drops the per-level arrays before ``words`` is built,
        # so they add nothing to the build's peak
        tokens = np.concatenate(tokens).astype(np.intp)  # scorers index by it
        self.ptr, self.tokens = (first + 1).astype(dtype), tokens
        self.words = tuple(vocab.array[tokens].tolist())
        self.terminal = np.concatenate(terminal)
        self._freeze()

    def _freeze(self) -> None:
        for array in (self._grams, self.ptr, self.tokens, self.terminal):
            array.flags.writeable = False

    def __setstate__(self, state: dict) -> None:
        # pickle restores each array writable
        self.__dict__.update(state)
        self._freeze()

    def child(self, node: int, token: str) -> int:
        """The number of node ``node``'s child by ``token``, or -1 if it has
        none."""
        stop = self.ptr.item(node + 1)
        at = bisect_left(self.words, token, self.ptr.item(node), stop)
        return at if at < stop and self.words[at] == token else -1

    def __len__(self) -> int:
        return self._grams.shape[1]

    def __contains__(self, ngram: NGram) -> bool:
        node = 0
        for tok in ngram.tokens:
            node = self.child(node, tok)
            if node < 0:
                return False
        return self.terminal.item(node)

    def ngrams(self) -> Iterator[tuple[str, ...]]:
        """Enumerate stored N-grams in lexicographic token order."""
        # a -1 past an N-gram's end reads the last token, which is cut off
        columns = [self.vocab.array[row].tolist() for row in self._grams]
        lengths = (self._grams >= 0).sum(axis=0).tolist()
        for tokens, n in zip(zip(*columns), lengths):
            yield tokens[:n]


def build_trie(ngrams: Iterable[Sequence[str]]) -> NGramTrie:
    return NGramTrie(ngrams)


def corpus_ngrams(chunks: Iterable[Chunk]) -> set[tuple[str, ...]]:
    grams: set[tuple[str, ...]] = set()
    for chunk in chunks:
        grams |= extract_ngrams(chunk.text)
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
        # read once: the property builds a new string on every read, and
        # the postings then share this one
        cid = chunk.chunk_id
        if cid in index.doc_len:
            raise ValidationError(f"duplicate chunk id {cid!r}")
        index.doc_len[cid] = len(tokens)
        for term, freq in Counter(tokens).items():
            index.postings.setdefault(term, {})[cid] = freq
    if index.doc_len:
        index.avgdl = sum(index.doc_len.values()) / len(index.doc_len)
    return index


def bm25_search(
    index: Bm25Index, query_terms: Sequence[str]
) -> list[tuple[str, float]]:
    """Score chunks against the query terms; matching chunks only.

    Results are sorted by descending score, ties by chunk id. A query
    with no indexed term returns an empty list.
    """
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
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


INDEX_FORMAT = "alignrag-index-v1"


def save_index(
    path: str, trie: NGramTrie, bm25: Bm25Index, chunk_units: int
) -> None:
    """Persist the lexical index as deterministic JSON."""
    snapshot = {
        "format": INDEX_FORMAT,
        "chunk_units": chunk_units,
        "ngrams": [list(g) for g in trie.ngrams()],
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


def _check_bm25(k1: float, b: float, doc_len: dict, postings: dict, where: str) -> None:
    """Raise ParseError naming the first figure ``bm25_search`` cannot score:
    ``k1`` must be finite and >= 0, ``b`` in [0, 1], each document length a
    non-negative integer (never a bool), each posting 1 to its chunk's length."""
    if not 0 <= k1 < math.inf:
        raise ParseError(f"{where}: bm25 k1 must be finite and >= 0, got {k1!r}")
    if not 0 <= b <= 1:
        raise ParseError(f"{where}: bm25 b must be in [0, 1], got {b!r}")
    for cid, length in doc_len.items():
        if type(length) is not int or length < 0:
            raise ParseError(
                f"{where}: bm25 doc_len of {cid!r} must be a non-negative "
                f"integer, got {length!r}"
            )
    for term, posting in postings.items():
        if not isinstance(posting, dict):
            raise ParseError(f"{where}: malformed entry: bm25 posting of {term!r}")
        for cid, count in posting.items():
            if type(count) is not int or count < 0:
                fault = "must be a non-negative integer"
            elif cid not in doc_len:
                fault = "names a chunk missing from doc_len"
            elif not 1 <= count <= doc_len[cid]:
                fault = f"must be from 1 to the chunk's length {doc_len[cid]}"
            else:
                continue
            raise ParseError(
                f"{where}: bm25 posting of {term!r} in {cid!r} {fault}, got {count!r}"
            )


def load_index(path: str) -> tuple[NGramTrie, Bm25Index, int]:
    """The trie, BM25 statistics and ``chunk_units`` saved by ``save_index``.

    ``chunk_units`` must be at least 1, as ``load_corpus`` needs. The trie
    checks each n-gram's length and each distinct token once as it is
    built; ``_check_bm25`` checks that BM25 can score the statistics. A
    malformed file raises ParseError naming it.
    """
    where = f"index file {path}"
    snapshot = read_json(path, "index file")
    if snapshot.get("format") != INDEX_FORMAT:
        raise ParseError(f"{where}: unsupported format {snapshot.get('format')!r}")
    chunk_units = _key(snapshot, "chunk_units", int, where)
    if chunk_units < 1:
        raise ParseError(f"{where}: chunk_units must be >= 1, got {chunk_units!r}")
    ngrams = _key(snapshot, "ngrams", list, where)
    raw = _key(snapshot, "bm25", dict, where)
    k1 = _key(raw, "k1", (int, float), f"{where} bm25")
    b = _key(raw, "b", (int, float), f"{where} bm25")
    doc_len = _key(raw, "doc_len", dict, f"{where} bm25")
    postings = _key(raw, "postings", dict, f"{where} bm25")
    if not all(isinstance(toks, list) for toks in ngrams):
        raise ParseError(
            f"{where}: every n-gram must be a list of 1 to {MAX_NGRAM} tokens"
        )
    try:
        trie = NGramTrie(ngrams)
    except (ValidationError, TypeError) as exc:  # TypeError: an unhashable token
        raise ParseError(f"{where}: malformed entry: {exc}") from exc
    _check_bm25(k1, b, doc_len, postings, where)
    bm25 = Bm25Index(k1=float(k1), b=float(b), doc_len=doc_len, postings=postings)
    if bm25.doc_len:
        bm25.avgdl = sum(bm25.doc_len.values()) / len(bm25.doc_len)
    return trie, bm25, chunk_units
