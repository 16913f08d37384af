"""Tokenization, N-gram trie, BM25 scoring, and index persistence."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import pickle
import random
import re
import tracemalloc

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
from planted import build_planted


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
        assert grams == {("a",), ("a", "a"), ("a", "a", "a")}

    def test_matches_oracle(self):
        # extraction does not validate its windows, so the trie, which
        # checks every token, must accept each one it extracts
        texts = ["Paris, the capital of France, is on the Seine."]
        rng = random.Random(5)
        words = (
            "Paris the CITY o'neil re-runs 2024 3.5 x — ... "
            "Zürich ÉCOLE İstanbul straße naïve ĳssel Ǆ ﬁ"
        ).split()
        edges = ["", "", "(", ")", ",", ".", "!", '"', "'", "...", "«", "»"]
        for _ in range(200):
            texts.append(
                " ".join(
                    rng.choice(edges) + rng.choice(words) + rng.choice(edges)
                    for _ in range(rng.randint(0, 12))
                )
            )
        for text in texts:
            grams = extract_ngrams(text)
            assert grams == oracles.ngram_set(text), text
            trie = build_trie(grams)
            assert len(trie) == len(grams)
            assert all(NGram(tokens=g) in trie for g in grams)

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
        for _ in range(80):
            n = rng.randint(1, 3)
            stored.add(tuple(rng.choice(vocab) for _ in range(n)))
        trie = NGramTrie(stored)
        assert len(trie) == len(stored)
        for _ in range(200):
            n = rng.randint(1, 3)
            probe = tuple(rng.choice(vocab) for _ in range(n))
            assert (NGram(tokens=probe) in trie) == (probe in stored)

    def test_continuations_match_linear_scan(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(8)]
        stored = set()
        for _ in range(60):
            n = rng.randint(1, 3)
            stored.add(tuple(rng.choice(vocab) for _ in range(n)))
        trie = NGramTrie(stored)
        for _ in range(100):
            depth = rng.randint(0, 2)
            prefix = tuple(rng.choice(vocab) for _ in range(depth))
            node = 0
            for tok in prefix:
                node = trie.child(node, tok) if node >= 0 else -1
            if node < 0:
                nexts, terminal = set(), False
            else:
                start, stop = trie.ptr[node], trie.ptr[node + 1]
                conts = trie.words[start:stop]
                assert list(conts) == sorted(conts)
                assert [trie.child(node, t) for t in conts] == list(range(start, stop))
                ids = trie.tokens[start:stop].tolist()
                assert ids == [trie.vocab.ids[t] for t in conts]
                assert ids == sorted(ids)
                nexts, terminal = set(conts), trie.terminal[node]
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
        trie = NGramTrie([("b",), ("a", "c"), ("a",), ("a", "b")])
        assert list(trie.ngrams()) == [
            ("a",),
            ("a", "b"),
            ("a", "c"),
            ("b",),
        ]

    @pytest.mark.parametrize("token", [",", ")", "x.", "a b"])
    def test_tokens_the_decoder_cannot_emit_are_rejected(self, token):
        # each is a valid NGram, but the decoder could not emit it as
        # itself, or would read it as a delimiter
        message = re.escape(f"token {token!r} is not a normalized token")
        with pytest.raises(ValidationError, match=message):
            NGramTrie([("ok",), (token,)])
        with pytest.raises(ValidationError, match=message):
            NGramTrie([("ok",), ("ok", token)])

    def test_vocabulary_interns_tokens_and_delimiters_in_sorted_order(self):
        # "\x01w" sorts before "(", ")" and ","; digits sort after them
        grams = [("w1", "0"), ("\x01w",), ("9a", "w1", "\x01w")]
        trie = NGramTrie(grams)
        tokens = {tok for g in grams for tok in g} | {"(", ")", ","}
        vocab = trie.vocab
        assert vocab.tokens == tuple(sorted(tokens))
        assert vocab.tokens[0] == "\x01w"
        assert len(vocab) == len(tokens)
        assert all(vocab.ids[tok] == i for i, tok in enumerate(vocab.tokens))

    def test_corpus_ngrams_union(self):
        chunks = [chunk("a#0", "x y"), chunk("b#0", "y z")]
        grams = corpus_ngrams(chunks)
        assert grams == {("x",), ("y",), ("z",), ("x", "y"), ("y", "z")}


# tokens that are their own normalization and sort next to the delimiters:
# "\x01..." before "(", "0..." after ","; inner delimiters are kept
DELIMITER_NEIGHBOURS = ["\x01", "\x01w", "\x01(\x01", "0", "0,0", "0)0", "w"]


def random_token_lists(seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    vocab = [f"w{i}" for i in range(rng.randint(3, 40))]
    return [
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 150))
    ]


def unsorted_with_duplicates() -> list:
    grams = random_token_lists(3)
    rng = random.Random(4)
    grams = grams + rng.sample(grams, len(grams) // 2) + [list(g) for g in grams[:5]]
    rng.shuffle(grams)
    return grams


TRIE_CASES = {
    "planted": lambda: set().union(
        *(oracles.ngram_set(c.text) for c in build_planted().corpus.chunks)
    ),
    **{f"random-{seed}": (lambda seed=seed: random_token_lists(seed)) for seed in range(6)},
    "unsorted-duplicates": unsorted_with_duplicates,
    "unstored-prefixes": lambda: [("a", "b"), ("a", "b", "c"), ("b", "c", "d"), ("c",)],
    "three-only": lambda: [("x", "y", "z"), ("x", "z", "y"), ("y", "x", "z")],
    "delimiter-neighbours": lambda: [
        g
        for n in (1, 2, 3)
        for g in zip(*(DELIMITER_NEIGHBOURS[i:] for i in range(n)))
    ] + [("0",), ("\x01", "0")],
    "empty": lambda: [],
}


def absent_probes(children: list[str], vocab: list[str]) -> set[str]:
    """Strings a node's ``child`` must miss unless they are children: the
    delimiters, the vocabulary's neighbours of each child, and strings
    next to each child that no vocabulary holds."""
    probes = {"(", ")", ",", "", "\uffff", "zz-absent"}
    at = {tok: i for i, tok in enumerate(vocab)}
    for tok in children:
        i = at[tok]
        probes.update(vocab[max(i - 1, 0) : i + 2])
        probes.update({tok + "\x00", tok[:-1], tok + "a"})
    return probes


class TestTrieReference:
    """Every node the reference trie reaches, compared node by node."""

    @pytest.mark.parametrize("case", sorted(TRIE_CASES))
    def test_matches_reference(self, case):
        token_lists = TRIE_CASES[case]()
        trie = NGramTrie(token_lists)
        root, stored = oracles.trie_reference(token_lists)
        vocab = sorted({tok for gram in stored for tok in gram} | {"(", ")", ","})
        assert trie.vocab.tokens == tuple(vocab)
        assert len(trie) == len(stored)
        assert list(trie.ngrams()) == sorted(stored)
        stack = [((), root, 0)]
        visited = []
        while stack:
            prefix, ref, node = stack.pop()
            visited.append(node)
            children = sorted(ref)
            start, stop = trie.ptr[node], trie.ptr[node + 1]
            assert trie.terminal[node] == (prefix in stored), prefix
            assert trie.words[start:stop] == tuple(children), prefix
            ids = trie.tokens[start:stop].tolist()
            assert ids == [vocab.index(tok) for tok in children], prefix
            if prefix:
                assert (NGram(tokens=prefix) in trie) == (prefix in stored), prefix
            for probe in absent_probes(children, vocab) - set(children):
                assert trie.child(node, probe) == -1, (prefix, probe)
                if len(prefix) < 3 and probe and probe == probe.lower():
                    assert NGram(tokens=prefix + (probe,)) not in trie, (prefix, probe)
            for tok in children:
                stack.append((prefix + (tok,), ref[tok], trie.child(node, tok)))
        # each node is reached once, by its own prefix
        assert sorted(visited) == list(range(len(trie.words)))

    def test_empty_trie(self):
        trie = NGramTrie()
        assert len(trie) == 0 and list(trie.ngrams()) == []
        assert trie.terminal.tolist() == [False] and trie.ptr.tolist() == [1, 1]
        assert trie.child(0, "a") == -1
        assert NGram(tokens=("a",)) not in trie

    def test_pickle_round_trip(self):
        trie = NGramTrie(TRIE_CASES["random-0"]())
        copy = pickle.loads(pickle.dumps(trie))
        assert list(copy.ngrams()) == list(trie.ngrams())
        assert all(NGram(tokens=g) in copy for g in trie.ngrams())
        for name in ("ptr", "tokens", "terminal", "_grams"):
            assert not getattr(copy, name).flags.writeable, name

    def test_keeps_fewer_than_80_bytes_per_ngram(self):
        # about synth-1k's index: 20,000 n-grams over 3,500 tokens, each
        # window of a token stream, so every prefix is stored too; the
        # build's temporary arrays count as well, through its peak
        rng = random.Random(29)
        words = [f"w{i}" for i in range(3500)]
        stream = [rng.choice(words) for _ in range(8200)]
        grams = list(
            {tuple(stream[i : i + n]) for n in (1, 2, 3) for i in range(len(stream) - n + 1)}
        )
        assert 19_000 < len(grams) < 21_000
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trie = NGramTrie(grams)
            gc.collect()
            kept, peak = (m - before for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(trie) == len(grams)
        assert kept / len(trie) < 80
        assert peak / len(trie) < 160


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
        assert list(trie2.ngrams()) == list(trie.ngrams())
        assert bm25_search(bm252, ["apple", "date"]) == bm25_search(
            bm25, ["apple", "date"]
        )

    def test_save_is_byte_deterministic(self, tmp_path):
        # each chunk list is saved twice as given and once reversed, as a
        # corpus file read from its last line up lists its chunks
        fixture = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        for chunks in (fixture, list(build_planted().corpus.chunks)):
            saved = []
            for order in (chunks, chunks, chunks[::-1]):
                path = tmp_path / f"{len(saved)}.json"
                trie = build_trie(corpus_ngrams(order))
                save_index(str(path), trie, build_bm25(order), chunk_units=20)
                saved.append(path.read_bytes())
            assert saved[0] == saved[1] == saved[2]

    def test_planted_index_bytes_are_pinned(self, tmp_path):
        # the SHA-256 of the planted index, fixed so that any change to
        # extraction, the trie or the file format shows here
        chunks = build_planted().corpus.chunks
        trie = build_trie(corpus_ngrams(chunks))
        assert len(trie) == 1678
        path = tmp_path / "index.json"
        save_index(str(path), trie, build_bm25(chunks), chunk_units=20)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "051479dde24d5cba8a7f1d37c3b71e5ed393de9f7520905d57c7d29ae62e67ad"
        )

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
            (lambda s: dict(s, chunk_units=0), "chunk_units must be >= 1, got 0"),
            (lambda s: dict(s, chunk_units=-3), "chunk_units must be >= 1, got -3"),
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

    @pytest.mark.parametrize("token", [")", "(", ",", "<>", "x y", "paris,"])
    def test_index_token_decoder_cannot_emit_rejected(self, tmp_path, token):
        # a saved index with one n-gram the decoder could not emit as itself
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        path = tmp_path / "index.json"
        save_index(str(path), build_trie(corpus_ngrams(chunks)), build_bm25(chunks), 20)
        snapshot = json.loads(path.read_text())
        snapshot["ngrams"].append([token])
        path.write_text(json.dumps(snapshot))
        message = re.escape(f"token {token!r} is not a normalized token")
        with pytest.raises(ParseError, match=message) as info:
            load_index(str(path))
        assert str(path) in str(info.value)


    @pytest.mark.parametrize(
        "field, value",
        [
            ("posting", 2.7),
            ("posting", "2"),
            ("posting", True),
            ("posting", -1),
            ("doc_len", 5.0),
            ("doc_len", "-5"),
            ("doc_len", False),
            ("doc_len", -5),
        ],
    )
    def test_malformed_bm25_figure_is_parse_error(self, tmp_path, field, value):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        path = tmp_path / "index.json"
        save_index(str(path), build_trie(corpus_ngrams(chunks)), build_bm25(chunks), 20)
        snapshot = json.loads(path.read_text())
        if field == "posting":
            snapshot["bm25"]["postings"]["apple"]["d#2"] = value
            what = "posting of 'apple' in 'd#2'"
        else:
            snapshot["bm25"]["doc_len"]["d#2"] = value
            what = "doc_len of 'd#2'"
        path.write_text(json.dumps(snapshot))
        message = f"bm25 {what} must be a non-negative"
        with pytest.raises(ParseError, match=message) as info:
            load_index(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"k1": -1.0}, r"k1 must be finite and >= 0, got -1\.0"),
            ({"k1": math.inf}, r"k1 must be finite and >= 0, got inf"),
            ({"k1": math.nan}, r"k1 must be finite and >= 0, got nan"),
            ({"b": 5.0}, r"b must be in \[0, 1\], got 5\.0"),
            ({"b": -0.25}, r"b must be in \[0, 1\], got -0\.25"),
            ({"b": math.nan}, r"b must be in \[0, 1\], got nan"),
            ({"ghost#0": 1}, r"in 'ghost#0' names a chunk missing from doc_len"),
            ({"d#2": 0}, r"in 'd#2' must be from 1 to the chunk's length 5, got 0"),
            ({"d#2": 6}, r"in 'd#2' must be from 1 to the chunk's length 5, got 6"),
        ],
    )
    def test_bm25_figures_search_cannot_score_are_parse_errors(
        self, tmp_path, edit, message
    ):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        path = tmp_path / "index.json"
        save_index(str(path), build_trie(corpus_ngrams(chunks)), build_bm25(chunks), 20)
        snapshot = json.loads(path.read_text())
        raw = snapshot["bm25"]
        if "k1" in edit or "b" in edit:
            raw.update(edit)
        else:
            raw["postings"]["apple"].update(edit)
        path.write_text(json.dumps(snapshot))
        with pytest.raises(ParseError, match=message) as info:
            load_index(str(path))
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("k1, b", [(0, 0), (0.0, 1.0), (3, 1)])
    def test_bm25_bounds_load_and_score(self, tmp_path, k1, b):
        chunks = [chunk(cid, text) for cid, text in BM25_DOCS.items()]
        path = tmp_path / "index.json"
        save_index(str(path), build_trie(corpus_ngrams(chunks)), build_bm25(chunks), 20)
        snapshot = json.loads(path.read_text())
        snapshot["bm25"].update(k1=k1, b=b)
        # a count equal to its chunk's length is the largest one accepted
        snapshot["bm25"]["postings"]["date"]["d#1"] = 2
        path.write_text(json.dumps(snapshot))
        _, bm25, _ = load_index(str(path))
        hits = bm25_search(bm25, ["apple", "date", "cherry"])
        assert [cid for cid, _ in hits] and all(math.isfinite(s) for _, s in hits)

def test_bm25_dataclass_defaults():
    index = Bm25Index()
    assert index.k1 == 1.2 and index.b == 0.75
