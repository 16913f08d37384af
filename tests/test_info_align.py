"""Keyword extraction, keyword-to-N-gram alignment, and base-set fusion."""

from __future__ import annotations

import pytest

import oracles
from alignrag.corpus import Chunk, build_corpus
from alignrag.embedding import HashEmbeddingProvider, embed_corpus
from alignrag.errors import ValidationError
from alignrag.info_align import (
    AlignedList,
    KeywordAlignment,
    align_keyword,
    clamp01,
    extract_keywords,
    retrieve_base,
)
from alignrag.lm import MockScorer, OPEN_TOKEN, CLOSE_TOKEN, SEP_TOKEN, STOP_TOKEN
from alignrag.ngram_index import (
    NGram,
    bm25_search,
    build_bm25,
    build_trie,
    corpus_ngrams,
)
from conftest import make_passage, make_table


def frequency_scorer() -> MockScorer:
    return MockScorer(context_weight=1.0, token_bias={STOP_TOKEN: 1.5})


class TestExtractKeywords:
    def test_scripted_two_keywords(self):
        scorer = MockScorer()
        scorer.script(
            ("keywords",), ["paris", SEP_TOKEN, "france", STOP_TOKEN]
        )
        out = extract_keywords(scorer, "paris population of france")
        assert out == ["paris", "france"]

    def test_keywords_are_contiguous_question_runs(self):
        scorer = MockScorer()
        scorer.script(("keywords",), ["population", "of", STOP_TOKEN])
        out = extract_keywords(scorer, "paris population of france")
        assert out == ["population of"]

    def test_frequency_scorer_picks_repeated_token(self):
        out = extract_keywords(frequency_scorer(), "paris population paris")
        assert out == ["paris"]

    def test_punctuation_only_question_falls_back(self):
        assert extract_keywords(MockScorer(), "???") == ["???"]

    def test_empty_question_rejected(self):
        with pytest.raises(ValidationError):
            extract_keywords(MockScorer(), "   ")

    def test_custom_template(self):
        scorer = MockScorer()
        scorer.script(("cue",), ["lyon", STOP_TOKEN])
        out = extract_keywords(
            scorer, "about lyon", template="{user_question} cue:"
        )
        assert out == ["lyon"]


class TestAlignKeyword:
    def trie(self, city_corpus):
        return build_trie(corpus_ngrams(city_corpus.chunks))

    def test_scripted_alignment(self, city_corpus):
        scorer = MockScorer()
        scorer.script(
            ("aligned",), [OPEN_TOKEN, "city", "populations", CLOSE_TOKEN]
        )
        alignment = align_keyword(
            scorer, self.trie(city_corpus), "city population"
        )
        assert alignment.keyword == "city population"
        assert [g.text for g in alignment.lists[0].ngrams] == ["city populations"]
        assert alignment.lists[0].scores[0] == 1001.0
        assert len(alignment.lists) == 3  # one list per beam

    def test_lists_sorted_by_score_then_text(self, city_corpus):
        scorer = MockScorer()
        scorer.add_rule(("aligned",), [OPEN_TOKEN])
        scorer.add_rule(("aligned", OPEN_TOKEN), ["paris"])
        scorer.add_rule((OPEN_TOKEN, "paris"), [SEP_TOKEN])
        # ranked pairs lift the second gram's logits to 1002
        scorer.add_rule(("paris", SEP_TOKEN), ["city", "x"])
        scorer.add_rule((SEP_TOKEN, "city"), ["populations", "x"])
        scorer.add_rule(("city", "populations"), [CLOSE_TOKEN])
        alignment = align_keyword(scorer, self.trie(city_corpus), "kw")
        top = alignment.lists[0]
        assert [g.text for g in top.ngrams] == ["city populations", "paris"]
        assert top.scores == (1002.0, 1001.0)

    def test_dead_decode_yields_empty_alignment(self, dead_trie):
        alignment = align_keyword(MockScorer(), dead_trie, "kw")
        assert alignment.lists == ()


def city_setup(city_corpus):
    provider = HashEmbeddingProvider(dimension=64, seed=0)
    store = embed_corpus(provider, city_corpus.chunks)
    bm25 = build_bm25(city_corpus.chunks)
    return provider, store, bm25


def unigram_alignment(*tokens: str) -> KeywordAlignment:
    grams = tuple(NGram((t,)) for t in tokens)
    return KeywordAlignment(
        keyword=" ".join(tokens),
        lists=(AlignedList(ngrams=grams, scores=(1.0,) * len(grams)),),
    )


def base_set(question, alignments, bm25, store, provider, **kwargs):
    """The base set ``retrieve_base`` fuses for ``question``'s vector."""
    return retrieve_base(provider.embed(question), alignments, bm25, store, **kwargs)[0]


class TestRetrieveBase:
    # [frozen] recomputed below from the independent scoring oracle
    FUSED = {
        "t1": (0.5944911182523068, 1.0, 0.18898223650461363),
        "t2": (0.0, 0.0, 0.0),
        "p1": (0.18257418583505536, 0.0, 0.3651483716701107),
    }

    def test_fusion_matches_frozen_values(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "paris population",
            [unigram_alignment("populations", "paris")],
            bm25,
            store,
            provider,
        )
        assert [e.object_id for e in entries] == ["t1", "p1", "t2"]
        for entry in entries:
            fused, bm, embed = self.FUSED[entry.object_id]
            assert entry.fused == pytest.approx(fused, abs=1e-12)
            assert entry.bm25 == pytest.approx(bm, abs=1e-12)
            assert entry.embed == pytest.approx(embed, abs=1e-12)

    def test_fusion_matches_oracle_recomputation(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "paris population",
            [unigram_alignment("populations", "paris")],
            bm25,
            store,
            provider,
        )
        docs = {c.chunk_id: oracles.tokenize(c.text) for c in city_corpus.chunks}
        raw = oracles.bm25_scores(docs, ["populations", "paris"])
        lo, hi = min(raw.values()), max(raw.values())
        norm = {
            cid: 1.0 if hi == lo else (s - lo) / (hi - lo)
            for cid, s in raw.items()
        }
        qv = oracles.hash_embed("paris population")
        for entry in entries:
            chunks = city_corpus.chunks_by_object[entry.object_id]
            bm = max((norm.get(c.chunk_id, 0.0) for c in chunks), default=0.0)
            embed = max(
                max(0.0, min(1.0, oracles.cosine_np(qv, oracles.hash_embed(c.text))))
                for c in chunks
            )
            assert entry.fused == pytest.approx(0.5 * bm + 0.5 * embed, abs=1e-12)

    def test_alpha_zero_is_pure_embedding(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "paris population",
            [unigram_alignment("populations", "paris")],
            bm25,
            store,
            provider,
            alpha=0.0,
        )
        assert all(e.fused == e.embed for e in entries)
        keys = [(-e.embed, e.object_id) for e in entries]
        assert keys == sorted(keys)

    def test_alpha_one_is_pure_bm25(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "paris population",
            [unigram_alignment("populations", "paris")],
            bm25,
            store,
            provider,
            alpha=1.0,
        )
        assert all(e.fused == e.bm25 for e in entries)

    def test_single_hit_normalizes_to_one(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "anything",
            [unigram_alignment("500k")],  # only t1 contains this term
            bm25,
            store,
            provider,
        )
        by_id = {e.object_id: e for e in entries}
        assert by_id["t1"].bm25 == 1.0
        assert by_id["t2"].bm25 == 0.0 and by_id["p1"].bm25 == 0.0

    def test_no_alignments_falls_back_to_embedding(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set("paris", [], bm25, store, provider)
        assert all(e.bm25 == 0.0 for e in entries)
        assert all(e.fused == pytest.approx(0.5 * e.embed) for e in entries)

    def test_base_size_caps_output(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        entries = base_set(
            "paris",
            [unigram_alignment("paris")],
            bm25,
            store,
            provider,
            base_size=2,
        )
        assert len(entries) == 2

    def test_parameter_validation(self, city_corpus):
        provider, store, bm25 = city_setup(city_corpus)
        with pytest.raises(ValidationError):
            base_set("q", [], bm25, store, provider, alpha=1.0001)
        with pytest.raises(ValidationError):
            base_set("q", [], bm25, store, provider, alpha=-0.1)
        with pytest.raises(ValidationError):
            base_set("q", [], bm25, store, provider, base_size=0)


class TestRetrieveBaseAgainstOracle:
    """Ties, a base larger than the corpus and BM25 hits on foreign chunks."""

    OBJECTS = [
        make_table("t1", "city populations", ["city", "pop"], [["paris", "2m"]]),
        make_table("t2", "city populations", ["city", "pop"], [["paris", "2m"]]),
        make_table("t0", "city populations", ["city", "pop"], [["paris", "2m"]]),
        make_table("a#b", "paris lyon", ["city"], [["lyon"], ["paris"], ["nice"]]),
        make_passage("p1", "paris overview", ["paris is big.", "lyon is smaller."]),
        make_passage("p2", "river notes", ["the seine runs through paris."]),
        make_passage("p3", "unrelated", ["nothing to see."]),
    ]

    def check(self, corpus, bm25, question, alignments, alpha, base_size):
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        store = embed_corpus(provider, corpus.chunks)
        got = base_set(
            question, alignments, bm25, store, provider, alpha=alpha, base_size=base_size
        )
        query_hits = [
            bm25_search(bm25, [t for g in lst.ngrams for t in g.tokens])
            for al in alignments
            for lst in al.lists
        ]
        qv = provider.embed(question)
        sims = {
            oid: max(oracles.cosine_np(qv, provider.embed_chunk(c)) for c in chunks)
            for oid, chunks in corpus.chunks_by_object.items()
        }
        chunks_of = {
            oid: [c.chunk_id for c in chunks]
            for oid, chunks in corpus.chunks_by_object.items()
        }
        want = oracles.fuse_base(query_hits, sims, chunks_of, alpha, base_size)
        assert [e.object_id for e in got] == [row[0] for row in want]
        for entry, (_, fused, bm, embed) in zip(got, want):
            assert entry.bm25 == bm
            assert entry.embed == pytest.approx(embed, abs=1e-12)
            assert entry.fused == pytest.approx(fused, abs=1e-12)
        return got

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("base_size", [1, 2, 3, 4, 7, 12])
    def test_matches_oracle(self, alpha, base_size):
        corpus = build_corpus(self.OBJECTS, chunk_units=1)
        bm25 = build_bm25(corpus.chunks)
        alignments = [unigram_alignment("paris"), unigram_alignment("lyon", "seine")]
        got = self.check(corpus, bm25, "paris city", alignments, alpha, base_size)
        assert len(got) == min(base_size, len(self.OBJECTS))

    @pytest.mark.parametrize("base_size", [2, 7])
    def test_foreign_chunks_count_in_normalization_only(self, base_size):
        corpus = build_corpus(self.OBJECTS, chunk_units=1)
        foreign = (
            Chunk("zz", 0, "lyon lyon paris paris", (0, 1)),  # unknown object
            Chunk("t1", 5, "paris paris", (5, 6)),  # unknown chunk of t1
            Chunk("a#b", 7, "lyon", (7, 8)),  # unknown chunk of a#b
            Chunk("a#b#0", 0, "lyon", (0, 1)),  # unknown object a#b#0
        )
        bm25 = build_bm25(corpus.chunks + foreign)
        alignments = [unigram_alignment("paris", "lyon")]
        got = self.check(corpus, bm25, "paris", alignments, 0.5, base_size)
        hits = dict(bm25_search(bm25, ["paris", "lyon"]))
        assert max(hits, key=hits.get) not in {c.chunk_id for c in corpus.chunks}
        assert all(e.bm25 < 1.0 for e in got)


def test_clamp01():
    assert clamp01(-0.5) == 0.0
    assert clamp01(0.25) == 0.25
    assert clamp01(1.5) == 1.0
