"""Hash embeddings, file-backed vectors, and the chunk store."""

from __future__ import annotations

import ast
import json
import random
from pathlib import Path

import numpy as np
import pytest

from alignrag import embedding, struct_align
from alignrag.baselines_eval import dense_retrieve
from alignrag.corpus import Chunk, build_corpus
from alignrag.embedding import (
    FileVectorProvider,
    HashEmbeddingProvider,
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
from alignrag.struct_align import _UnitIndex

import oracles
from conftest import VectorTable, make_passage, make_table
from planted import build_planted


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
                assert oracles.cosine_np(provider.embed(a), provider.embed(b)) >= 0.0

    def test_bad_dimension(self):
        with pytest.raises(ProviderError, match=r"must be in \[1, 1048576\], got 0"):
            HashEmbeddingProvider(dimension=0)
        # the widest accepted dimension; nothing is allocated until embedding
        assert HashEmbeddingProvider(dimension=2**20).dimension == 2**20
        message = rf"dimension must be in \[1, {2**20}\], got {2**20 + 1}"
        with pytest.raises(ProviderError, match=message):
            HashEmbeddingProvider(dimension=2**20 + 1)

    def test_embed_chunk_uses_text(self):
        provider = HashEmbeddingProvider(dimension=16, seed=0)
        c = chunk("a#0", "hello world")
        np.testing.assert_array_equal(provider.embed_chunk(c), provider.embed("hello world"))


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
            ('{"chunk_id": "a", "vector": [1.0, NaN]}', "finite numbers"),
            ('{"chunk_id": "a", "vector": [Infinity]}', "finite numbers"),
            ('{"chunk_id": "a", "vector": [-Infinity]}', "finite numbers"),
            ('{"chunk_id": "a", "vector": [1e999, 1.0]}', "finite numbers"),
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

    @pytest.mark.parametrize(
        "vector",
        [[1e200, 1e200, 0.0], [1e154, 1e154, 1e154], [10**200, 1, 0]],
        ids=["square", "sum", "integer"],
    )
    def test_overflowing_sum_of_squares_is_parse_error(self, tmp_path, vector):
        # every value is finite, but a norm past float range would make the
        # vector's every cosine NaN
        path = tmp_path / "vectors.jsonl"
        records = [{"chunk_id": "b", "vector": [1.0, 0.0, 0.0]}]
        records.append({"chunk_id": "a", "vector": vector})
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ParseError, match="with a finite norm") as info:
            FileVectorProvider(str(path))
        assert f"{path} line 2" in str(info.value)

    def test_integer_beyond_float_range_is_parse_error(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"chunk_id": "a", "vector": [1.0, 1%s]}\n' % ("0" * 400))
        with pytest.raises(ParseError, match="line 1: vector must hold finite"):
            FileVectorProvider(str(path))

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

    @pytest.mark.parametrize("second", [[1.0, 2.0], []])
    def test_empty_vector_rejected(self, tmp_path, second):
        # an empty first vector must not leave the next line to set the
        # dimension, so every vector a provider holds has one length
        path = tmp_path / "vectors.jsonl"
        records = [{"chunk_id": "a", "vector": []}, {"chunk_id": "b", "vector": second}]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        with pytest.raises(ParseError, match="line 1: vector is empty") as info:
            FileVectorProvider(str(path))
        assert str(path) in str(info.value)

    def test_zero_vectors_rejected(self, tmp_path):
        # a value whose square underflows gives a zero norm on a non-empty
        # support, so the norm decides, not the support
        path = tmp_path / "vectors.jsonl"
        for vector in ([0.0, 0.0], [1e-200, 0.0]):
            path.write_text(json.dumps({"chunk_id": "a#0", "vector": vector}) + "\n")
            with pytest.raises(ZeroVector, match="a#0"):
                embed_corpus(FileVectorProvider(str(path)), [chunk("a#0", "x")])
        store = embed_corpus(HashEmbeddingProvider(dimension=2), [chunk("a#0", "x")])
        for question in ([0.0, 0.0], [0.0, 1e-200]):
            with pytest.raises(ZeroVector):
                object_similarity(store, np.array(question))
        with pytest.raises(DimensionMismatch):
            object_similarity(store, np.ones(3))

        class Short(HashEmbeddingProvider):
            def embed_chunk(self, c):
                return np.ones(self.dimension - 1)

        with pytest.raises(DimensionMismatch, match="a#0"):
            embed_corpus(Short(dimension=4), [chunk("a#0", "x")])

    @pytest.mark.parametrize(
        "vector",
        [[1e154, 1e154, 1e154], [1e200, 0.0, 0.0], [float("nan"), 1.0, 0.0]],
        ids=["sum-overflows", "square-overflows", "nan"],
    )
    def test_library_provider_vector_needs_a_finite_norm(self, vector):
        # a provider passed in through the library is checked as a vector
        # file is: the chunk, the unit text and the question alike
        good = [0.0, 1.0, 0.0]
        table = VectorTable({"x": good, "y": vector, "q": vector}, 3)
        with pytest.raises(ProviderError, match="table provider, chunk 'b#0'"):
            embed_corpus(table, [chunk("a#0", "x"), chunk("b#0", "y")])
        with pytest.raises(ProviderError, match="table provider, text 'y'"):
            embedding.embed_rows(table, ["x", "y"])
        store = embed_corpus(table, [chunk("a#0", "x")])
        with pytest.raises(ProviderError, match="question"):
            object_similarity(store, np.array(table.embed("q")))

    def test_similarity_matches_ordered_sum_exactly(self, city_objects):
        # each chunk's dot sums its products in ascending coordinate order
        corpus = build_corpus(city_objects, chunk_units=1)
        provider = HashEmbeddingProvider(dimension=32, seed=1)
        store = embed_corpus(provider, corpus.chunks)
        # the store's row order: objects by id, each one's chunks in order
        chunks = sorted(corpus.chunks, key=lambda c: c.object_id)
        assert store.chunk_rows == {c.chunk_id: i for i, c in enumerate(chunks)}
        dense = [provider.embed_chunk(c) for c in chunks]
        for question in ["paris population", "lyon is smaller", "country area 643"]:
            q = provider.embed(question)
            q_norm = oracles.euclidean_norm(q)
            best: dict[str, float] = {}
            for c, row in zip(chunks, dense):
                total = 0.0
                for d in np.flatnonzero(q).tolist():
                    total += float(row[d]) * float(q[d])
                value = total / (q_norm * oracles.euclidean_norm(row))
                value = max(-1.0, min(1.0, value))
                best[c.object_id] = max(best.get(c.object_id, -1.0), value)
            expected = [best[oid] for oid in store.object_ids]
            assert object_similarity(store, q).tolist() == expected

    def test_removing_objects_keeps_every_other_cosine(self):
        # an object's cosine bits depend on it and the question alone: the
        # store of each id prefix of the planted corpus agrees with the full one
        bench = build_planted()
        provider = HashEmbeddingProvider(
            dimension=bench.config.embed_dim, seed=bench.config.seed
        )
        chunks = bench.corpus.chunks
        full = embed_corpus(provider, chunks)
        prefixes = []
        for n in range(1, len(full.object_ids)):
            kept = set(full.object_ids[:n])
            prefixes.append(
                embed_corpus(provider, [c for c in chunks if c.object_id in kept])
            )
        for question in bench.questions:
            q = provider.embed(question.question)
            want = [x.hex() for x in object_similarity(full, q).tolist()]
            for store in prefixes:
                got = [x.hex() for x in object_similarity(store, q).tolist()]
                assert got == want[: len(got)], (question.question_id, len(got))

    def test_multi_chunk_objects_match_oracle(self, city_objects):
        corpus = build_corpus(city_objects, chunk_units=1)
        assert any(len(cs) > 1 for cs in corpus.chunks_by_object.values())
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        store = embed_corpus(provider, corpus.chunks)
        for question in ["paris population", "lyon", "country area of france"]:
            question_vec = provider.embed(question)
            got = dict(zip(store.object_ids, object_similarity(store, question_vec)))
            assert list(got) == sorted(obj.id for obj in corpus.objects)
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
        assert dense_retrieve(question, store, provider, top_k=2) == [
            "twin-a",
            "twin-b",
        ]
        bm25 = build_bm25(corpus.chunks)
        base, _ = retrieve_base(provider.embed(question), [], bm25, store)
        assert [e.object_id for e in base[:2]] == ["twin-a", "twin-b"]
        assert base[0].embed == base[1].embed


class PerVectorProvider:
    """Exposes only embed and embed_chunk, so embedding goes one vector at
    a time; its vectors are the independent oracle's."""

    name = "per-vector"

    def __init__(self, dimension: int, seed: int) -> None:
        self.dimension = dimension
        self.seed = seed

    def embed(self, text):
        return oracles.hash_embed(text, self.seed, self.dimension)

    def embed_chunk(self, c):
        return self.embed(c.text)


def random_objects(rng: random.Random, n: int) -> list:
    """Tables and passages over a small vocabulary: repeated tokens, cells
    and headers with no tokens, passages that span several chunks."""
    vocab = [f"w{i}" for i in range(25)] + ["...", "!!", "--"]

    def text(lo, hi):
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))

    objects = []
    for i in range(n):
        if i % 2:
            rows = [[text(0, 3) for _ in range(2)] for _ in range(rng.randint(0, 4))]
            objects.append(make_table(f"t{i}", text(0, 2), [text(0, 2), "--"], rows))
        else:
            sentences = [text(0, 6) for _ in range(rng.randint(1, 5))]
            objects.append(make_passage(f"p{i}", text(0, 3), sentences))
    return objects


def hex_list(array: np.ndarray) -> list:
    values = array.tolist()
    return [x.hex() for x in values] if array.dtype.kind == "f" else values


def assert_rows_identical(got, want) -> None:
    assert got.ptr.dtype == want.ptr.dtype and got.indices.dtype == want.indices.dtype
    assert got.ptr.tolist() == want.ptr.tolist()
    assert got.indices.tolist() == want.indices.tolist()
    assert hex_list(got.values) == hex_list(want.values)


class TestBatchEmbedding:
    """The hash provider's batch path against the per-vector path, bit for bit."""

    # at dimension 8 the 25 words of random_objects must share buckets
    @pytest.mark.parametrize("dimension, seed", [(8, 0), (64, 3), (4096, 0)])
    def test_store_and_unit_index_match_per_vector_path(self, dimension, seed):
        objects = random_objects(random.Random(dimension + seed), 30)
        objects.append(make_passage("silent", "...", ["!!", "--"]))  # no tokens
        objects.append(make_passage("echo", "w1 w1", ["w1 w1 w1 w2", "w2 w2"]))
        corpus = build_corpus(objects, chunk_units=2)
        assert any(len(cs) > 1 for cs in corpus.chunks_by_object.values())
        fast = HashEmbeddingProvider(dimension=dimension, seed=seed)
        slow = PerVectorProvider(dimension, seed)

        got, want = embed_corpus(fast, corpus.chunks), embed_corpus(slow, corpus.chunks)
        assert_rows_identical(got.columns, want.columns)
        assert hex_list(got.norms) == hex_list(want.norms)
        assert got.offsets.tolist() == want.offsets.tolist()
        assert got.chunk_rows == want.chunk_rows

        got, want = _UnitIndex(corpus.objects, fast), _UnitIndex(corpus.objects, slow)
        assert_rows_identical(got.vectors, want.vectors)
        assert_rows_identical(got.buckets, want.buckets)
        assert hex_list(got.norms) == hex_list(want.norms)

    def test_unit_index_tokenizes_each_text_once(self, monkeypatch):
        objects = random_objects(random.Random(5), 30)
        # a header that is also a cell, and a header that is a token-less cell
        objects.append(make_table("twice", "x", ["w1", "!!"], [["w1", "!!"]]))
        corpus = build_corpus(objects)
        texts = {unit for obj in objects for unit in obj.sentences + obj.columns}
        texts |= {cell for obj in objects for row in obj.rows for cell in row}
        calls = []
        for module in (embedding, struct_align):
            original = module.normalize_tokens

            def counted(text, original=original):
                calls.append(text)
                return original(text)

            monkeypatch.setattr(module, "normalize_tokens", counted)
        _UnitIndex(corpus.objects, HashEmbeddingProvider(dimension=64, seed=0))
        assert sorted(calls) == sorted(texts)

    @pytest.mark.parametrize("dimension", [8, 64, 4096])
    def test_norms_are_exact_wherever_the_values_sit(self, dimension):
        """Each vector's norm holds the bits of the exact norm of its
        values, also for the same values in another order at other
        coordinates (a BLAS sum of squares adds in lanes set by position)."""
        rng = np.random.default_rng(dimension)
        vectors, want = {}, []
        for i in range(100):
            size = int(rng.integers(1, min(dimension, 40) + 1))
            values = rng.normal(size=size) * 10.0 ** rng.integers(-3, 4, size=size)
            for j in range(3):
                vector = np.zeros(dimension)
                support = rng.choice(dimension, size=size, replace=False)
                vector[support] = rng.permutation(values)
                vectors[f"v{i}.{j}"] = vector
                want.append(oracles.euclidean_norm(values))
        provider = VectorTable(vectors, dimension)
        _, norms = embedding.embed_rows(provider, list(vectors))
        assert hex_list(norms) == hex_list(np.array(want))

    @pytest.mark.parametrize("dimension", [8, 64])
    def test_embed_matches_oracle_bits_before_and_after_batch(self, dimension):
        rng = random.Random(dimension)
        texts = [f"{rng.choice(['w1', 'W1!', 'x'])} " * 3 + f"w{i}" for i in range(20)]
        texts += ["", "... !!", "w3 w3 w3 w3 w5"]
        provider = HashEmbeddingProvider(dimension=dimension, seed=1)
        for _ in range(2):  # the second round reads the buckets from the table
            for text in texts:
                want = oracles.hash_embed(text, 1, dimension)
                assert hex_list(provider.embed(text)) == hex_list(want)
            embed_corpus(provider, [chunk(f"c{i}#0", t) for i, t in enumerate(texts)])

    def test_unseen_question_tokens_are_not_stored(self):
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        embed_corpus(provider, [chunk("a#0", "paris is big"), chunk("b#0", "lyon")])
        size = len(provider._buckets)
        assert size == 4
        question = "zebra quokka paris never seen"
        vec = provider.embed(question)
        assert len(provider._buckets) == size
        assert hex_list(vec) == hex_list(oracles.hash_embed(question))


# k on each side of the argmax passes' limit, and at it
SELECTION_EDGE = tuple(embedding.ARGMAX_PICKS + d for d in (-1, 0, 1))


class TestTopObjects:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sorted_order(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        # four values: heavy ties, at zero among them with both signs
        scores = rng.choice(np.array([0.5, 0.0, -0.0, 0.25]), size=n)
        zeros = scores[scores == 0.0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()
        want = sorted(range(n), key=lambda j: (-scores[j], j))
        for k in (1, 2, n // 2, n - 1, n, n + 5, *SELECTION_EDGE):
            assert top_objects(scores, k) == want[:k]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sorted_order_at_baseline_size(self, seed):
        # a hashed question leaves most of 1,000 objects at exactly 0
        rng = np.random.default_rng(seed)
        n = 1000
        scores = rng.choice(np.array([0.0, -0.0]), size=n)
        hits = rng.choice(n, size=40, replace=False)
        scores[hits] = rng.choice(np.array([0.9, 0.5, 0.25, 0.125]), size=40)
        want = sorted(range(n), key=lambda j: (-scores[j], j))
        for k in (1, 5, 30, 50, 999, 1000, 1005, *SELECTION_EDGE):
            assert top_objects(scores, k) == want[:k]

    def test_positive_tie_set_larger_than_needed(self):
        n = 1000
        scores = np.zeros(n)
        scores[::7] = 0.5  # 143 tied entries at the k-th score
        scores[[3, 500, 998]] = 0.75
        want = sorted(range(n), key=lambda j: (-scores[j], j))
        for k in (4, 10, 50, 145):
            got = top_objects(scores, k)
            assert got == want[:k]
            assert scores[got[-1]] == 0.5

    @pytest.mark.parametrize("seed", range(4))
    def test_decoder_root_row(self, seed):
        # a root row's logits: about 3,520 candidates, three of them non-zero
        rng = np.random.default_rng(seed)
        n = 3520
        scores = rng.choice(np.array([0.0, -0.0]), size=n)
        scores[rng.choice(n, size=3, replace=False)] = rng.choice(
            np.array([1.5, 0.5, -0.5]), size=3
        )
        want = sorted(range(n), key=lambda j: (-scores[j], j))
        assert top_objects(scores, 3) == want[:3]

    def test_read_only_scores_left_unchanged(self):
        # provider.embed and the scorers hand out read-only arrays
        rng = np.random.default_rng(5)
        scores = rng.choice(np.array([0.75, 0.5, 0.0, -0.0, -np.inf]), size=300)
        scores.setflags(write=False)
        before = scores.copy()
        want = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
        for k in (1, 3, *SELECTION_EDGE, 50):
            assert top_objects(scores, k) == want[:k]
        assert not scores.flags.writeable
        assert np.array_equal(np.signbit(scores), np.signbit(before))
        assert np.array_equal(scores, before)

    def test_minus_infinity_ranks_last_by_position(self):
        scores = np.full(40, -np.inf)
        scores[[7, 30]] = [0.5, -1e308]
        want = [7, 30] + [j for j in range(40) if j not in (7, 30)]
        for k in (1, 2, 3, *SELECTION_EDGE, 39, 40):
            assert top_objects(scores, k) == want[:k]

    def test_store_lays_objects_out_by_id(self):
        # position order is the tie order of every ranking over the store
        store = embed_corpus(
            HashEmbeddingProvider(dimension=8),
            [chunk("z#0", "x"), chunk("m#0", "y"), chunk("a#0", "z")],
        )
        assert store.object_ids == ("a", "m", "z")

    def test_k_validated(self):
        with pytest.raises(ValidationError):
            top_objects(np.zeros(3), 0)


def test_package_makes_no_blas_call():
    """No package module multiplies matrices or reaches a BLAS routine, by
    operator, attribute or import, so no output depends on the kernel the
    host's BLAS picks; ``ast`` tells the ``@`` operator from a decorator."""
    blas = {"linalg", "dot", "vdot", "inner", "matmul", "einsum", "tensordot"}
    paths = sorted(Path(embedding.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                named = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Attribute):
                named = node.attr in blas
            elif isinstance(node, ast.alias):
                named = not blas.isdisjoint(node.name.split("."))
            else:
                continue
            if named:
                found.append(f"{path.name} line {node.lineno}")
    assert found == []


def test_package_imports_no_hashlib():
    """No package module imports ``hashlib``, whose import loads OpenSSL
    (``_hashlib`` and libcrypto, 3.6 MB resident on CPython 3.11) for two
    BLAKE2b digests that ``_blake2`` gives alone."""
    paths = sorted(Path(embedding.__file__).parent.glob("*.py"))
    assert len(paths) > 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in ("hashlib", "_hashlib") for name in names):
                found.append(f"{path.name} line {node.lineno}")
    assert found == []


def test_blake2b_is_hashlibs():
    """``hashlib.blake2b`` is ``_blake2.blake2b`` itself, so buckets and
    scorer noise keep hashlib's bits; a CPython that splits the two fails
    here, not in a changed output."""
    import _blake2
    import hashlib

    assert hashlib.blake2b is _blake2.blake2b
    assert embedding.blake2b is _blake2.blake2b
