"""Hash embeddings, file-backed vectors, cosine, and the chunk store."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from alignrag.baselines_eval import dense_retrieve
from alignrag.corpus import Chunk, build_corpus
from alignrag.embedding import (
    FileVectorProvider,
    HashEmbeddingProvider,
    cosine,
    embed_corpus,
    object_similarity,
    top_objects,
)
from alignrag.errors import (
    DimensionMismatch,
    ParseError,
    ProviderError,
    ValidationError,
    ZeroVector,
)
from alignrag.info_align import retrieve_base
from alignrag.ngram_index import build_bm25

import oracles
from conftest import make_passage


def chunk(cid: str, text: str) -> Chunk:
    oid, idx = cid.split("#")
    return Chunk(object_id=oid, index=int(idx), text=text, span=(0, 1))


class TestHashProvider:
    def test_matches_independent_oracle(self):
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        for text in ["paris lyon paris", "The Capital!", "a b c d e"]:
            np.testing.assert_allclose(
                provider.embed(text), oracles.hash_embed(text, 0, 64), atol=1e-12
            )

    def test_unit_norm(self):
        provider = HashEmbeddingProvider(dimension=32, seed=1)
        rng = random.Random(5)
        for _ in range(20):
            text = " ".join(f"tok{rng.randint(0, 50)}" for _ in range(rng.randint(1, 12)))
            assert np.linalg.norm(provider.embed(text)) == pytest.approx(1.0, abs=1e-12)

    def test_empty_text_basis_vector(self):
        provider = HashEmbeddingProvider(dimension=8, seed=0)
        vec = provider.embed("... !!!")
        expected = np.zeros(8)
        expected[0] = 1.0
        np.testing.assert_array_equal(vec, expected)

    def test_deterministic_across_instances(self):
        a = HashEmbeddingProvider(dimension=64, seed=3)
        b = HashEmbeddingProvider(dimension=64, seed=3)
        np.testing.assert_array_equal(a.embed("some text"), b.embed("some text"))

    def test_seed_changes_vectors(self):
        a = HashEmbeddingProvider(dimension=64, seed=0)
        b = HashEmbeddingProvider(dimension=64, seed=1)
        assert not np.array_equal(a.embed("some text"), b.embed("some text"))

    def test_repeated_embeds_are_equal_fresh_arrays(self):
        provider = HashEmbeddingProvider(dimension=16, seed=0)
        first = provider.embed("x y")
        second = provider.embed("x y")
        assert first is not second
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(first, oracles.hash_embed("x y", 0, 16))

    def test_vectors_are_write_protected(self):
        provider = HashEmbeddingProvider(dimension=16, seed=0)
        vec = provider.embed("x")
        with pytest.raises(ValueError):
            vec[0] = 9.0

    def test_counts_are_nonnegative_so_cosines_are(self):
        # unsigned feature hashing: no text pair can point away from another
        provider = HashEmbeddingProvider(dimension=16, seed=2)
        rng = random.Random(9)
        texts = [
            " ".join(f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 8)))
            for _ in range(15)
        ]
        for a in texts:
            for b in texts:
                assert cosine(provider.embed(a), provider.embed(b)) >= 0.0

    def test_bad_dimension(self):
        with pytest.raises(ProviderError):
            HashEmbeddingProvider(dimension=0)

    def test_embed_chunk_uses_text(self):
        provider = HashEmbeddingProvider(dimension=16, seed=0)
        c = chunk("a#0", "hello world")
        np.testing.assert_array_equal(provider.embed_chunk(c), provider.embed("hello world"))


class TestCosine:
    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            u = rng.normal(size=10)
            v = rng.normal(size=10)
            assert cosine(u, v) == pytest.approx(oracles.cosine_hp(u, v), abs=1e-12)

    def test_bounds_clamped(self):
        v = np.ones(4)
        assert cosine(v, v) == 1.0
        assert cosine(v, -v) == -1.0

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine(np.ones(3), np.ones(4))

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            cosine(np.zeros(3), np.ones(3))


class TestFileProvider:
    def write_vectors(self, path, records):
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")

    def test_lookup_by_chunk_and_key(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        self.write_vectors(
            path,
            [
                {"chunk_id": "a#0", "vector": [1.0, 0.0]},
                {"chunk_id": "what is x?", "vector": [0.0, 1.0]},
            ],
        )
        provider = FileVectorProvider(str(path))
        assert provider.dimension == 2
        np.testing.assert_array_equal(
            provider.embed_chunk(chunk("a#0", "ignored")), [1.0, 0.0]
        )
        np.testing.assert_array_equal(provider.embed("what is x?"), [0.0, 1.0])

    def test_missing_key(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        self.write_vectors(path, [{"chunk_id": "a#0", "vector": [1.0]}])
        provider = FileVectorProvider(str(path))
        with pytest.raises(ProviderError):
            provider.embed("unknown")
        with pytest.raises(ProviderError):
            provider.embed_chunk(chunk("b#0", "x"))

    def test_dimension_consistency(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        self.write_vectors(
            path,
            [
                {"chunk_id": "a#0", "vector": [1.0, 0.0]},
                {"chunk_id": "b#0", "vector": [1.0]},
            ],
        )
        with pytest.raises(DimensionMismatch, match="line 2"):
            FileVectorProvider(str(path))

    def test_bad_record(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"vector": [1.0]}\n')
        with pytest.raises(ParseError):
            FileVectorProvider(str(path))

    def test_bad_json(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("{nope\n")
        with pytest.raises(ParseError, match="line 1"):
            FileVectorProvider(str(path))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1]", "expected a JSON object"),
            ('{"chunk_id": "a", "vector": ["x"]}', "flat list of numbers"),
            ('{"chunk_id": "a", "vector": [[1.0, 2.0]]}', "flat list of numbers"),
            ('{"chunk_id": "a", "vector": [1.0, null]}', "flat list of numbers"),
            ('{"chunk_id": "a", "vector": [true, 1.0]}', "flat list of numbers"),
        ],
    )
    def test_malformed_line_is_parse_error(self, tmp_path, line, message):
        path = tmp_path / "vectors.jsonl"
        path.write_text(json.dumps({"chunk_id": "b", "vector": [1.0, 0.0]}) + "\n")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
        with pytest.raises(ParseError, match=message) as info:
            FileVectorProvider(str(path))
        assert f"{path} line 2" in str(info.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("\n")
        with pytest.raises(ProviderError):
            FileVectorProvider(str(path))


class TestStore:
    def test_embed_corpus_and_similarity(self):
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        # one object's chunks need not be adjacent in the input
        texts = {"a#0": "paris is big", "b#0": "unrelated text", "a#1": "lyon is big"}
        store = embed_corpus(provider, [chunk(cid, t) for cid, t in texts.items()])
        assert len(store) == 3
        assert store.object_ids == ("a", "b")
        question_vec = provider.embed("how big is paris")
        got = object_similarity(store, question_vec)
        oracle = {
            cid: oracles.cosine_np(question_vec, oracles.hash_embed(t, 0, 64))
            for cid, t in texts.items()
        }
        # object similarity is the best of the object's chunks
        assert got[0] == pytest.approx(max(oracle["a#0"], oracle["a#1"]), abs=1e-12)
        assert got[1] == pytest.approx(oracle["b#0"], abs=1e-12)

    def test_missing_chunk(self, tmp_path):
        # a chunk with no vector fails the store build, not a later question
        path = tmp_path / "vectors.jsonl"
        path.write_text(json.dumps({"chunk_id": "a#0", "vector": [1.0, 0.0]}) + "\n")
        provider = FileVectorProvider(str(path))
        with pytest.raises(ProviderError, match="b#0"):
            embed_corpus(provider, [chunk("a#0", "x"), chunk("b#0", "y")])

    def test_zero_vectors_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text(json.dumps({"chunk_id": "a#0", "vector": [0.0, 0.0]}) + "\n")
        with pytest.raises(ZeroVector, match="a#0"):
            embed_corpus(FileVectorProvider(str(path)), [chunk("a#0", "x")])
        store = embed_corpus(HashEmbeddingProvider(dimension=2), [chunk("a#0", "x")])
        with pytest.raises(ZeroVector):
            object_similarity(store, np.zeros(2))
        with pytest.raises(DimensionMismatch):
            object_similarity(store, np.ones(3))

        class Short(HashEmbeddingProvider):
            def embed_chunk(self, c):
                return np.ones(self.dimension - 1)

        with pytest.raises(DimensionMismatch, match="a#0"):
            embed_corpus(Short(dimension=4), [chunk("a#0", "x")])

    def test_similarity_matches_dense_matrix_exactly(self, city_objects):
        # the sparse store must reproduce the dense matrix product bit for bit
        corpus = build_corpus(city_objects, chunk_units=1)
        provider = HashEmbeddingProvider(dimension=32, seed=1)
        store = embed_corpus(provider, corpus.chunks)
        dense = np.array([provider.embed_chunk(c) for c in corpus.chunks])
        norms = np.array([np.linalg.norm(row) for row in dense])
        for question in ["paris population", "lyon is smaller", "country area 643"]:
            q = provider.embed(question)
            support = np.flatnonzero(q)
            cosines = (dense[:, support] @ q[support]) / (np.linalg.norm(q) * norms)
            np.clip(cosines, -1.0, 1.0, out=cosines)
            expected = np.maximum.reduceat(cosines, store.offsets[:-1])
            np.testing.assert_array_equal(object_similarity(store, q), expected)

    def test_multi_chunk_objects_match_oracle(self, city_objects):
        corpus = build_corpus(city_objects, chunk_units=1)
        assert any(len(cs) > 1 for cs in corpus.chunks_by_object.values())
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        store = embed_corpus(provider, corpus.chunks)
        for question in ["paris population", "lyon", "country area of france"]:
            question_vec = provider.embed(question)
            got = dict(zip(store.object_ids, object_similarity(store, question_vec)))
            assert list(got) == [obj.id for obj in corpus.objects]
            for oid, chunks in corpus.chunks_by_object.items():
                expected = max(
                    oracles.cosine_np(question_vec, oracles.hash_embed(c.text, 0, 64))
                    for c in chunks
                )
                assert abs(got[oid] - expected) <= 1e-12

    def test_identical_text_ranks_by_id(self):
        sentences = ["paris is the capital of france."]
        corpus = build_corpus(
            [
                make_passage("twin-b", "paris", sentences),
                make_passage("other", "lyon notes", ["lyon is smaller."]),
                make_passage("twin-a", "paris", sentences),
            ]
        )
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        store = embed_corpus(provider, corpus.chunks)
        question = "capital of france"
        assert dense_retrieve(question, store, provider, corpus, top_k=2) == [
            "twin-a",
            "twin-b",
        ]
        base = retrieve_base(question, [], build_bm25(corpus.chunks), store, provider)
        assert [e.object_id for e in base[:2]] == ["twin-a", "twin-b"]
        assert base[0].embed == base[1].embed


class TestTopObjects:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sorted_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        # four values: heavy ties, at zero among them with both signs
        scores = rng.choice(np.array([0.5, 0.0, -0.0, 0.25]), size=n)
        zeros = scores[scores == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        ids = [f"o{j}" for j in rng.permutation(n)]  # id order is not position order
        want = sorted(range(n), key=lambda j: (-scores[j], ids[j]))
        for k in (1, 2, n // 2, n - 1, n, n + 5):
            assert top_objects(scores, ids, k) == want[:k]

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            top_objects(np.zeros(3), ["a", "b", "c"], 0)
