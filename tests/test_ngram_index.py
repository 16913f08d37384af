"""Tokenization, N-gram trie, BM25 scoring, and index persistence."""

from __future__ import annotations

import json
import random

import pytest

from alignrag.corpus import Chunk
from alignrag.errors import ParseError, ValidationError
from alignrag.ngram_index import (
    Bm25Index,
    NGram,
    NGramTrie,
    bm25_search,
    build_bm25,
    build_trie,
    corpus_ngrams,
    extract_ngrams,
    load_index,
    normalize_tokens,
    save_index,
)

import oracles


def chunk(cid: str, text: str) -> Chunk:
    oid, idx = cid.split("#")
    return Chunk(object_id=oid, index=int(idx), text=text, span=(0, 1))


class TestNormalize:
    def test_lowercase_and_edge_punctuation(self):
        assert normalize_tokens("The (Paris), City!") == ["the", "paris", "city"]

    def test_inner_punctuation_kept(self):
        assert normalize_tokens("o'neil re-runs") == ["o'neil", "re-runs"]

    def test_pure_punctuation_dropped(self):
        assert normalize_tokens("hello ... world") == ["hello", "world"]

    def test_empty(self):
        assert normalize_tokens("   ") == []


class TestNGrams:
    def test_window_count_distinct_tokens(self):
        # 5 distinct tokens: 5 + 4 + 3 windows
        grams = extract_ngrams("alpha beta gamma delta epsilon")
        assert len(grams) == 12

    def test_repeats_deduplicate(self):
        grams = extract_ngrams("a a a")
        assert {g.tokens for g in grams} == {("a",), ("a", "a"), ("a", "a", "a")}

    def test_matches_oracle(self):
        text = "Paris, the capital of France, is on the Seine."
        expected = oracles.ngram_set(text)
        assert {g.tokens for g in extract_ngrams(text)} == expected

    def test_length_bounds(self):
        with pytest.raises(ValidationError):
            NGram(tokens=())
        with pytest.raises(ValidationError):
            NGram(tokens=("a", "b", "c", "d"))

    def test_tokens_must_be_normalized(self):
        with pytest.raises(ValidationError):
            NGram(tokens=("Paris",))

    def test_text(self):
        assert NGram(tokens=("city", "populations")).text == "city populations"


class TestTrie:
    def test_membership_matches_set_oracle(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(12)]
        stored = set()
        trie = NGramTrie()
        for _ in range(80):
            n = rng.randint(1, 3)
            toks = tuple(rng.choice(vocab) for _ in range(n))
            stored.add(toks)
            trie.add(NGram(tokens=toks))
        assert len(trie) == len(stored)
        for _ in range(200):
            n = rng.randint(1, 3)
            probe = tuple(rng.choice(vocab) for _ in range(n))
            assert (NGram(tokens=probe) in trie) == (probe in stored)

    def test_continuations_match_linear_scan(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(8)]
        stored = set()
        trie = NGramTrie()
        for _ in range(60):
            n = rng.randint(1, 3)
            toks = tuple(rng.choice(vocab) for _ in range(n))
            stored.add(toks)
            trie.add(NGram(tokens=toks))
        for _ in range(100):
            depth = rng.randint(0, 2)
            prefix = tuple(rng.choice(vocab) for _ in range(depth))
            node = trie.root
            for tok in prefix:
                node = node.children.get(tok) if node is not None else None
            if node is None:
                nexts, terminal = set(), False
            else:
                assert list(node.continuations()) == sorted(node.children)
                nexts, terminal = set(node.continuations()), node.terminal
            expect_nexts = {
                g[depth]
                for g in stored
                if len(g) > depth and g[:depth] == prefix
            }
            # an unreachable prefix reports nothing at all
            reachable = any(g[:depth] == prefix for g in stored)
            if not reachable:
                assert nexts == set() and terminal is False
            else:
                assert nexts == expect_nexts
                assert terminal == (prefix in stored)

    def test_enumeration_is_sorted(self):
        trie = build_trie(
            NGram(tokens=t) for t in [("b",), ("a", "c"), ("a",), ("a", "b")]
        )
        assert [g.tokens for g in trie.ngrams()] == [
            ("a",),
            ("a", "b"),
            ("a", "c"),
            ("b",),
        ]

    def test_corpus_ngrams_union(self):
        chunks = [chunk("a#0", "x y"), chunk("b#0", "y z")]
        grams = {g.tokens for g in corpus_ngrams(chunks)}
        assert grams == {("x",), ("y",), ("z",), ("x", "y"), ("y", "z")}


# Frozen from the manual Okapi evaluation of this fixture (k1=1.2, b=0.75):
# idf(apple)=ln(1+1.5/2.5), idf(date)=ln(1+2.5/1.5), avgdl=10/3.
BM25_DOCS = {
    "d#0": "apple banana apple",
    "d#1": "banana cherry",
    "d#2": "cherry apple date date date",
}
BM25_EXPECTED = {
    "d#0": 0.664956903112938,
    "d#2": 1.782336438414199,
}


class TestBm25:
    @pytest.fixture
    def index(self):
        return build_bm25([chunk(cid, text) for cid, text in BM25_DOCS.items()])

    def test_hand_fixture(self, index):
        """Three-document fixture scores match the manual evaluation."""
        results = dict(bm25_search(index, ["apple", "date"]))
        assert set(results) == set(BM25_EXPECTED)
        for cid, expected in BM25_EXPECTED.items():
            assert results[cid] == pytest.approx(expected, abs=1e-9)

    def test_matches_oracle(self, index):
        docs = {cid: oracles.tokenize(text) for cid, text in BM25_DOCS.items()}
        expected = oracles.bm25_scores(docs, ["apple", "date"])
        results = dict(bm25_search(index, ["apple", "date"]))
        assert set(results) == set(expected)
        for cid in expected:
            assert results[cid] == pytest.approx(expected[cid], abs=1e-12)

    def test_idf_values(self, index):
        import math

        assert index.idf("apple") == pytest.approx(math.log(1 + 1.5 / 2.5), abs=1e-12)
        assert index.idf("date") == pytest.approx(math.log(1 + 2.5 / 1.5), abs=1e-12)
        # a term in every document keeps a positive idf under this variant
        assert index.idf("banana") > 0.0

    def test_ordering_and_ties(self):
        index = build_bm25([chunk("a#0", "x y"), chunk("b#0", "x y")])
        results = bm25_search(index, ["x"])
        assert [cid for cid, _ in results] == ["a#0", "b#0"]
        assert results[0][1] == results[1][1]

    def test_unknown_terms_empty(self, index):
        assert bm25_search(index, ["zebra"]) == []

    def test_top_k(self, index):
        assert len(bm25_search(index, ["apple"], top_k=1)) == 1
        with pytest.raises(ValidationError):
            bm25_search(index, ["apple"], top_k=0)

    def test_repeated_query_term_scales_not_reorders(self, index):
        single = bm25_search(index, ["apple"])
        double = bm25_search(index, ["apple", "apple"])
        assert [cid for cid, _ in single] == [cid for cid, _ in double]
        for (_, s), (_, d) in zip(single, double):
            assert d == pytest.approx(2 * s, abs=1e-12)

    def test_tf_monotonicity(self):
        """Swapping a filler token for the query term raises the score."""
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(10)]
        for trial in range(100):
            n_docs = rng.randint(2, 5)
            texts = []
            for d in range(n_docs):
                length = rng.randint(4, 10)
                tokens = [rng.choice(vocab) for _ in range(length)]
                tokens[0] = "term"  # target term present everywhere
                tokens[1] = "filler"
                texts.append(tokens)
            base = build_bm25(
                [chunk(f"d#{i}", " ".join(t)) for i, t in enumerate(texts)]
            )
            bumped_texts = [list(t) for t in texts]
            bumped_texts[0][1] = "term"
            bumped = build_bm25(
                [chunk(f"d#{i}", " ".join(t)) for i, t in enumerate(bumped_texts)]
            )
            before = dict(bm25_search(base, ["term"]))["d#0"]
            after = dict(bm25_search(bumped, ["term"]))["d#0"]
            assert after > before, f"trial {trial}"

    def test_duplicate_chunk_ids_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            build_bm25([chunk("a#0", "x"), chunk("a#0", "y")])

    def test_empty_index(self):
        index = build_bm25([])
        assert index.size == 0
        assert bm25_search(index, ["x"]) == []


class TestPersistence:
    def test_round_trip_preserves_search(self, tmp_path):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        trie = build_trie(corpus_ngrams(chunks))
        bm25 = build_bm25(chunks)
        path = tmp_path / "index.json"
        save_index(str(path), trie, bm25, chunk_units=20)
        trie2, bm252, units = load_index(str(path))
        assert units == 20
        assert len(trie2) == len(trie)
        assert [g.tokens for g in trie2.ngrams()] == [g.tokens for g in trie.ngrams()]
        assert bm25_search(bm252, ["apple", "date"]) == bm25_search(
            bm25, ["apple", "date"]
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        trie = build_trie(corpus_ngrams(chunks))
        bm25 = build_bm25(chunks)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_index(str(a), trie, bm25, chunk_units=20)
        save_index(str(b), trie, bm25, chunk_units=20)
        assert a.read_bytes() == b.read_bytes()

    def test_format_tag_checked(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ParseError, match="format"):
            load_index(str(path))

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "index.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_index(str(path))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: [s], "expected a JSON object"),
            (lambda s: {"format": s["format"]}, "missing key 'chunk_units'"),
            (lambda s: dict(s, chunk_units="20"), "'chunk_units' has type str"),
            (lambda s: dict(s, chunk_units=True), "'chunk_units' has type bool"),
            (lambda s: dict(s, ngrams="apple"), "'ngrams' has type str"),
            (lambda s: dict(s, ngrams=["apple"]), "every n-gram must be a list"),
            (lambda s: dict(s, ngrams=[[7]]), "malformed entry"),
            (lambda s: dict(s, ngrams=[[]]), "list of 1 to 3 tokens"),
            (lambda s: dict(s, ngrams=[["a", "b", "c", "d"]]), "list of 1 to 3 tokens"),
            (lambda s: dict(s, ngrams=[["Apple"]]), "'Apple' is not a normalized"),
            (lambda s: dict(s, ngrams=[["x."]]), "'x.' is not a normalized"),
            (lambda s: dict(s, ngrams=[["a b"]]), "'a b' is not a normalized"),
            (lambda s: dict(s, ngrams=[["apple", ""]]), "'' is not a normalized"),
            (lambda s: dict(s, ngrams=[[["apple"]]]), "malformed entry: unhashable"),
            (lambda s: dict(s, bm25=[]), "'bm25' has type list"),
            (lambda s: dict(s, bm25={}), "bm25: missing key 'k1'"),
            (lambda s: dict(s, bm25=dict(s["bm25"], b="x")), "'b' has type str"),
            (lambda s: dict(s, bm25=dict(s["bm25"], doc_len=[])), "'doc_len'"),
            (
                lambda s: dict(s, bm25=dict(s["bm25"], postings={"apple": [1]})),
                "malformed entry",
            ),
        ],
    )
    def test_malformed_snapshot_is_parse_error(self, tmp_path, edit, message):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        path = tmp_path / "index.json"
        save_index(str(path), build_trie(corpus_ngrams(chunks)), build_bm25(chunks), 20)
        snapshot = json.loads(path.read_text())
        path.write_text(json.dumps(edit(snapshot)))
        with pytest.raises(ParseError, match=message) as info:
            load_index(str(path))
        assert str(path) in str(info.value)


def test_bm25_dataclass_defaults():
    index = Bm25Index()
    assert index.k1 == 1.2 and index.b == 0.75
