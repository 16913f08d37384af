"""Compatibility scoring, base expansion, and the selection program."""

from __future__ import annotations

import functools
import json
import random
import sys
from array import array
from itertools import combinations

import numpy as np
import pytest

import oracles
from alignrag import struct_align
from alignrag.corpus import ObjectKind, build_corpus
from alignrag.embedding import FileVectorProvider, HashEmbeddingProvider
from alignrag.errors import Infeasible, TooLarge, ValidationError
from alignrag.pipeline import RetrievalEngine, build_provider
from alignrag.struct_align import (
    CompatibilityCache,
    ConnectionKind,
    Draft,
    MipInstance,
    build_mip_instance,
    check_draft,
    expand_base,
    solve_mip,
)
from conftest import VectorTable, make_passage, make_table
from planted import build_planted

PROVIDER = HashEmbeddingProvider(dimension=64, seed=0)


def pair_cache(obj_a, obj_b, w=0.5):
    """A cache over the corpus of just ``obj_a`` and ``obj_b``."""
    return CompatibilityCache(build_corpus([obj_a, obj_b]), PROVIDER, w)


def oracle_witness(obj_a, obj_b, w=0.5, embed=oracles.hash_embed):
    """The oracle's (score, endpoint ids, locators) for a pair: the table
    first when one of the two is a table, else ``obj_a``."""
    if obj_a.kind is ObjectKind.PASSAGE and obj_b.kind is ObjectKind.TABLE:
        obj_a, obj_b = obj_b, obj_a
    if obj_b.kind is ObjectKind.TABLE:
        best, where = oracles.witness_table_table(
            (obj_a.columns, obj_a.rows), (obj_b.columns, obj_b.rows), w, embed
        )
    elif obj_a.kind is ObjectKind.TABLE:
        best, where = oracles.witness_table_passage(
            (obj_a.columns, obj_a.rows), obj_b.sentences, w, embed
        )
    else:
        best, where = oracles.witness_passage_passage(
            obj_a.sentences, obj_b.sentences, w, embed
        )
    return best, (obj_a.id, obj_b.id), where


def assert_witness(conn, score, ids, where):
    """``conn`` is the oracle's witness and carries the row ``score``."""
    if where is None:
        assert conn is None and score == 0.0
    else:
        assert (conn.a.object_id, conn.b.object_id) == ids
        assert (conn.a.locator, conn.b.locator) == where
        assert conn.score == score


class TestPairScores:
    def test_column_compat_matches_oracle(self):
        rng = random.Random(3)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(25):
            ha, hb = rng.choice(vocab), rng.choice(vocab)
            va = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
            vb = [rng.choice(vocab) for _ in range(rng.randint(1, 5))]
            w = rng.random()
            ta = make_table("a", "x", [ha], [[v] for v in va])
            tb = make_table("b", "y", [hb], [[v] for v in vb])
            cache = pair_cache(ta, tb, w)
            got = cache.score("a", "b")
            want = oracles.column_pair(ha, va, hb, vb, w)
            assert got == pytest.approx(want, abs=1e-12)
            where = (ha, hb) if want > 0.0 else None
            assert_witness(cache.get("a", "b"), got, ("a", "b"), where)

    def test_unit_compat_matches_oracle(self):
        rng = random.Random(4)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(25):
            ta = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            tb = " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            w = rng.random()
            pa, pb = make_passage("a", "x", [ta]), make_passage("b", "y", [tb])
            cache = pair_cache(pa, pb, w)
            got = cache.score("a", "b")
            want = oracles.unit_pair(ta, tb, w)
            assert got == pytest.approx(want, abs=1e-12)
            where = (0, 0) if want > 0.0 else None
            assert_witness(cache.get("a", "b"), got, ("a", "b"), where)

    def test_tokenless_unit_scores_zero(self):
        for text_a, text_b in [("???", "paris"), ("paris", "  ")]:
            pa = make_passage("a", "x", [text_a])
            cache = pair_cache(pa, make_passage("b", "y", [text_b]))
            assert cache.score("a", "b") == 0.0
            assert cache.get("a", "b") is None
        t = make_table("t", "x", ["city"], [["???"]])
        cache = pair_cache(t, make_passage("p", "y", ["paris"]))
        assert cache.score("t", "p") == 0.0
        assert cache.get("t", "p") is None

    def test_entity_link_constant(self):
        # one shared token of two, identical token sets on the short side
        t = make_table("t", "codes", ["code"], [["ent0"]])
        cache = pair_cache(t, make_passage("p", "notes", ["ent0 gist0"]))
        got = cache.score("t", "p")
        assert got == pytest.approx(0.8535533905932737, abs=1e-12)
        conn = cache.get("p", "t")
        assert conn.kind is ConnectionKind.ENTITY_LINK
        assert_witness(conn, got, ("t", "p"), ((0, 0), 0))


def random_table(rng, oid, vocab):
    ncols = rng.randint(1, 3)
    cols = rng.sample(vocab, ncols)
    rows = [
        [rng.choice(vocab) for _ in range(ncols)]
        for _ in range(rng.randint(1, 4))
    ]
    return make_table(oid, " ".join(rng.sample(vocab, 2)), cols, rows)


def random_passage(rng, oid, vocab):
    sentences = [
        " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4))) + "."
        for _ in range(rng.randint(1, 4))
    ]
    return make_passage(oid, " ".join(rng.sample(vocab, 2)), sentences)


class TestObjectCompat:
    def test_table_table_matches_oracle(self):
        rng = random.Random(5)
        vocab = [f"w{i}" for i in range(15)]
        for trial in range(25):
            ta = random_table(rng, "a", vocab)
            tb = random_table(rng, "b", vocab)
            w = rng.random()
            cache = pair_cache(ta, tb, w)
            score, conn = cache.score("a", "b"), cache.get("a", "b")
            want, ids, where = oracle_witness(ta, tb, w)
            assert score == pytest.approx(want, abs=1e-9)
            assert_witness(conn, score, ids, where)
            if conn is not None:
                assert conn.kind is ConnectionKind.JOIN_COLUMN

    def test_table_passage_matches_oracle(self):
        rng = random.Random(6)
        vocab = [f"w{i}" for i in range(15)]
        for trial in range(25):
            t = random_table(rng, "t", vocab)
            p = random_passage(rng, "p", vocab)
            w = rng.random()
            cache = pair_cache(t, p, w)
            score, conn = cache.score("t", "p"), cache.get("t", "p")
            want, ids, where = oracle_witness(t, p, w)
            assert score == pytest.approx(want, abs=1e-9)
            assert_witness(conn, score, ids, where)
            if conn is not None:
                assert conn.kind is ConnectionKind.ENTITY_LINK
                r, c = conn.a.locator
                assert t.rows[r][c]  # cell address resolves
                assert 0 <= conn.b.locator < len(p.sentences)

    def test_passage_passage_matches_oracle(self):
        rng = random.Random(7)
        vocab = [f"w{i}" for i in range(15)]
        for trial in range(25):
            pa = random_passage(rng, "pa", vocab)
            pb = random_passage(rng, "pb", vocab)
            w = rng.random()
            cache = pair_cache(pa, pb, w)
            score, conn = cache.score("pa", "pb"), cache.get("pa", "pb")
            want, ids, where = oracle_witness(pa, pb, w)
            assert score == pytest.approx(want, abs=1e-9)
            assert_witness(conn, score, ids, where)
            if conn is not None:
                assert conn.kind is ConnectionKind.SENTENCE_LINK

    def test_locators_skip_tokenless_units(self):
        # each witness unit follows tokenless cells or sentences, which the
        # unit index leaves out, so a locator is not the unit's rank
        table = make_table(
            "t", "codes", ["code", "city"], [["???", "--"], ["c1", "paris big"]]
        )
        first = make_passage("p1", "a", ["???", "--", "paris c1 big."])
        second = make_passage("p2", "b", ["?", "lyon.", "!!", "paris big."])
        for obj_a, obj_b in ((table, first), (second, table), (first, second)):
            cache = pair_cache(obj_a, obj_b)
            score = cache.score(obj_a.id, obj_b.id)
            want, ids, where = oracle_witness(obj_a, obj_b)
            assert score == pytest.approx(want, abs=1e-12) and want > 0.0
            assert_witness(cache.get(obj_a.id, obj_b.id), score, ids, where)

    def test_join_column_jaccard_only(self):
        ta = make_table("a", "left", ["code"], [[f"c{i}"] for i in range(5)])
        tb = make_table("b", "right", ["tag"], [[f"c{i}"] for i in range(6)])
        cache = pair_cache(ta, tb, w=0.0)
        score, conn = cache.score("a", "b"), cache.get("a", "b")
        assert score == pytest.approx(5 / 6, abs=1e-12)
        assert conn.a.locator == "code" and conn.b.locator == "tag"

    def test_tie_keeps_first_locator(self):
        pa = make_passage("pa", "x", ["alpha beta."])
        pb = make_passage("pb", "y", ["alpha beta.", "alpha beta."])
        cache = pair_cache(pa, pb)
        score, conn = cache.score("pa", "pb"), cache.get("pa", "pb")
        assert score == pytest.approx(1.0)
        assert conn.b.locator == 0
        # pa has more distinct sentences than pb, so its scores come from
        # pb's side; the tie still goes to pa's first best sentence
        pa = make_passage("pa", "x", ["gamma.", "alpha beta.", "alpha beta."])
        conn = pair_cache(pa, pb).get("pa", "pb")
        assert (conn.a.locator, conn.b.locator) == (1, 0)

    def test_no_signal_yields_none(self):
        t = make_table("t", "x", ["a"], [["???"]])
        p = make_passage("p", "y", ["words here."])
        cache = pair_cache(t, p)
        assert (cache.score("t", "p"), cache.get("t", "p")) == (0.0, None)
        ta = make_table("ta", "x", ["a"], [["v1"]])
        tb = make_table("tb", "y", ["b"], [["v2"]])
        cache = pair_cache(ta, tb, w=0.0)
        assert (cache.score("ta", "tb"), cache.get("ta", "tb")) == (0.0, None)

    def test_dispatch_symmetry_and_validation(self):
        t = make_table("t", "codes", ["code"], [["ent0"]])
        p = make_passage("p", "notes", ["ent0 gist0."])
        cache = pair_cache(t, p)
        s1, c1 = cache.score("t", "p"), cache.get("t", "p")
        s2, c2 = cache.score("p", "t"), cache.get("p", "t")
        assert s1 == s2 and s1 > 0.0
        assert c1 == c2  # table-first in both orders
        with pytest.raises(ValidationError):
            pair_cache(t, p, w=1.5)

    def test_table_is_endpoint_a_when_passage_sorts_first(self):
        p = make_passage("a-notes", "notes", ["nothing here.", "paris c1."])
        rows = [["lyon", "c2"], ["paris", "c1"]]
        t = make_table("b-codes", "codes", ["city", "code"], rows)
        cache = pair_cache(p, t)
        conn = cache.get("a-notes", "b-codes")
        assert conn.kind is ConnectionKind.ENTITY_LINK
        want, ids, where = oracle_witness(p, t)
        assert ids == ("b-codes", "a-notes")
        assert conn.score == pytest.approx(want, abs=1e-12)
        assert_witness(conn, cache.score("a-notes", "b-codes"), ids, where)


def mixed_corpus(kind, tmp_path):
    """A rowless table, a tokenless cell, repeated column values, a
    three-column table, multi-sentence passages, a table last, and a passage
    ``p9`` compatible with nothing else, under the hash or file provider;
    with the provider, the text-to-vector map the oracles read."""
    objects = [
        make_passage("p1", "notes", ["paris is big.", "lyon code c1.", "???"]),
        make_table("t0", "empty", ["city", "code"], []),
        make_table(
            "t1",
            "codes",
            ["code", "city", "note"],
            [["c1", "paris", "???"], ["c1", "lyon", "big"], ["c2", "paris", "c1"]],
        ),
        make_passage("p2", "more", ["paris lyon c1 big.", "big big city.", "c2"]),
        make_table("t2", "tail", ["code", "city"], [["c1", "lyon c1"], ["c3", "???"]]),
    ]
    # "zebra" hashes to a bucket no other token of the corpus uses
    lone = make_passage("p9", "lone", ["zebra."])
    corpus = build_corpus(objects + [lone])
    if kind == "hash":
        return corpus, PROVIDER, oracles.hash_embed
    # dense vectors with negative coordinates and one zero coordinate; the
    # lone sentence gets a coordinate of its own
    rng = np.random.default_rng(4)
    texts = {t for o in objects for t in o.columns + o.sentences}
    texts |= {cell for o in objects for row in o.rows for cell in row}
    vectors = {}
    for text in sorted(texts):
        vector = np.append(rng.normal(size=6), 0.0)
        vector[rng.integers(6)] = 0.0
        vectors[text] = vector
    vectors["zebra."] = np.array([0.0] * 6 + [1.0])
    path = tmp_path / "vectors.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for text, vector in vectors.items():
            record = {"chunk_id": text, "vector": vector.tolist()}
            handle.write(json.dumps(record) + "\n")
    return corpus, FileVectorProvider(str(path)), vectors.__getitem__


class TestCompatibilityCache:
    def test_memoizes_and_orders_keys(self, city_corpus):
        cache = CompatibilityCache(city_corpus, PROVIDER)
        first = cache.get("t1", "p1")
        assert first is not None
        assert cache.get("p1", "t1") is first
        t1, p1 = city_corpus.by_id["t1"], city_corpus.by_id["p1"]
        want, ids, where = oracle_witness(t1, p1)
        assert first.score == pytest.approx(want, abs=1e-12)
        assert_witness(first, cache.score("t1", "p1"), ids, where)

    def test_self_pair_rejected(self, city_corpus):
        cache = CompatibilityCache(city_corpus, PROVIDER)
        with pytest.raises(ValidationError):
            cache.get("t1", "t1")

    def test_w_validated(self, city_corpus):
        with pytest.raises(ValidationError):
            CompatibilityCache(city_corpus, PROVIDER, w=-0.1)

    @pytest.mark.parametrize("kind", ["hash", "file"])
    def test_rows_match_scalar_on_every_pair(self, kind, tmp_path):
        corpus, provider, embed = mixed_corpus(kind, tmp_path)
        ids = corpus.object_ids()
        # one cache per object, so that object's own row serves its lookups
        caches = {oid: CompatibilityCache(corpus, provider) for oid in ids}
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                got = caches[a].score(a, b)
                assert got == caches[b].score(b, a) == caches[a].score(b, a)
                first, second = (corpus.by_id[oid] for oid in sorted((a, b)))
                want, pair, where = oracle_witness(first, second, embed=embed)
                assert abs(got - want) <= 1e-12
                conn = caches[a].get(a, b)
                assert conn is caches[a].get(b, a)
                assert_witness(conn, got, pair, where)

    @pytest.mark.parametrize("kind", ["hash", "file"])
    def test_nearest_matches_sorted_scores(self, kind, tmp_path):
        corpus, provider, _ = mixed_corpus(kind, tmp_path)
        ids = corpus.object_ids()
        cache = CompatibilityCache(corpus, provider)
        # p9's row is zero apart from its own entry: its picks are all ties
        assert all(cache.score("p9", oid) == 0.0 for oid in ids if oid != "p9")
        for size in range(1, len(ids) + 1):
            for members in map(list, combinations(ids, size)):
                outside = [oid for oid in ids if oid not in members]
                want = [
                    sorted(outside, key=lambda oid: (-cache.score(m, oid), oid))
                    for m in members
                ]
                # the last k is larger than the number of objects outside
                for k in range(1, len(outside) + 2):
                    assert cache.nominate(members, k) == [w[:k] for w in want]

    @pytest.mark.parametrize("kind", ["hash", "file"])
    def test_nearest_batches_and_keeps_rows(self, kind, tmp_path):
        corpus, provider, _ = mixed_corpus(kind, tmp_path)
        ids = corpus.object_ids()
        assert ids != sorted(ids)  # file order is not id order
        members = [*ids[:3], "p9"]
        cache, scores = (CompatibilityCache(corpus, provider) for _ in range(2))
        outside = [oid for oid in ids if oid not in members]
        want = [
            sorted(outside, key=lambda oid: (-scores.score(m, oid), oid))
            for m in members
        ]
        # k rises past the number of objects outside, then falls: picking
        # leaves the stored rows as they were, bytes and all, as a cache
        # that never nominates computes them, and adds the picks' rows
        sizes = list(range(1, len(outside) + 2))
        picked = set()

        def held(rows):
            return {oid: (p.tobytes(), v.tobytes()) for oid, (p, v) in rows.items()}

        for k in sizes + sizes[::-1]:
            before = held(cache._rows)
            got = cache.nominate(members, k)
            assert got == [w[:k] for w in want]
            picked.update(*got)
            assert cache._rows.keys() == set(members) | picked
            after = held(cache._rows)
            assert {oid: after[oid] for oid in before} == before
            scores._fill(list(after))
            assert after == held(scores._rows)
        assert picked == set(outside)
        assert want[-1] == sorted(outside)


def row_corpora():
    """(name, corpus, provider, oracle embed): the planted benchmark, and
    seeded random corpora with repeated headers, cells and tokens,
    token-less units and headers, a rowless table, and corpora of one kind;
    the mixed one also under dense random vectors with negative and zero
    coordinates."""
    planted = build_planted()
    provider = build_provider(planted.config)
    dim, seed = planted.config.embed_dim, planted.config.seed
    yield "planted", planted.corpus, provider, (
        lambda text: oracles.hash_embed(text, seed, dim)
    )
    rng = random.Random(12)
    vocab = [f"w{i}" for i in range(10)] + ["???", "--"]

    def text(lo, hi):
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(lo, hi)))

    def table(oid):
        ncols = rng.randint(1, 4)
        headers = [rng.choice(["code", "city", "??", text(1, 2)]) for _ in range(ncols)]
        rows = [[text(0, 3) for _ in range(ncols)] for _ in range(rng.randint(0, 4))]
        return make_table(oid, text(1, 2), headers, rows)

    def passage(oid):
        sentences = [text(0, 9) for _ in range(rng.randint(1, 4))]
        return make_passage(oid, text(1, 2), sentences)

    mixed = [table(f"t{i}") if i % 3 else passage(f"p{i}") for i in range(24)]
    mixed.append(make_table("t-empty", "x", ["code", "code"], []))
    mixed.append(make_passage("p-silent", "x", ["???", "-- --"]))
    yield "mixed", build_corpus(mixed), PROVIDER, oracles.hash_embed
    yield "tables", build_corpus([table(f"t{i}") for i in range(12)]), PROVIDER, (
        oracles.hash_embed
    )
    yield "passages", build_corpus([passage(f"p{i}") for i in range(12)]), (
        PROVIDER
    ), oracles.hash_embed
    texts = {t for o in mixed for t in o.columns + o.sentences}
    texts |= {cell for o in mixed for row in o.rows for cell in row}
    gen = np.random.default_rng(12)
    vectors = {}
    for t in sorted(texts):
        vectors[t] = gen.normal(size=8) * (gen.random(8) < 0.7)
        vectors[t][gen.integers(8)] = 1.0  # never the zero vector
    yield "dense", build_corpus(mixed), VectorTable(vectors, 8), vectors.__getitem__


ROW_CORPORA = {name: rest for name, *rest in row_corpora()}


def ascending_score(text_a, text_b, part, w, embed):
    """``w`` times the clamped cosine plus ``1 - w`` times ``part``, the dot
    product summed in ascending coordinate order over the coordinates both
    vectors hold, and each norm ``oracles.euclidean_norm``."""
    u, v = embed(text_a), embed(text_b)
    dot = 0.0
    for d in sorted(set(np.flatnonzero(u)) & set(np.flatnonzero(v))):
        dot += float(u[d]) * float(v[d])
    norms = oracles.euclidean_norm(u) * oracles.euclidean_norm(v)
    return w * min(max(dot / norms, 0.0), 1.0) + (1.0 - w) * part


def ascending_entry(obj_a, obj_b, w, embed):
    """A row entry from ``ascending_score``: the best column pair of two
    tables, else the best pair of token-carrying units, floored at 0."""
    best = 0.0
    if obj_a.kind is obj_b.kind is ObjectKind.TABLE:
        for i, head_a in enumerate(obj_a.columns):
            for k, head_b in enumerate(obj_b.columns):
                va = {row[i] for row in obj_a.rows}
                vb = {row[k] for row in obj_b.rows}
                union = len(va | vb)
                jac = len(va & vb) / union if union else 0.0
                best = max(best, ascending_score(head_a, head_b, jac, w, embed))
        return best
    units_a, units_b = (
        obj.sentences or [cell for row in obj.rows for cell in row]
        for obj in (obj_a, obj_b)
    )
    for text_a in units_a:
        for text_b in units_b:
            ta, tb = set(oracles.tokenize(text_a)), set(oracles.tokenize(text_b))
            if ta and tb:
                part = len(ta & tb) / min(len(ta), len(tb))
                best = max(best, ascending_score(text_a, text_b, part, w, embed))
    return best


def bits(array):
    return [x.hex() for x in np.asarray(array, dtype=np.float64).ravel().tolist()]


def test_held_rows_are_the_positive_entries():
    """After the planted questions, every row the engine's cache holds is
    the non-zero entries of the oracle's dense row, positions ascending
    and values bit-equal, at 12 bytes an entry plus a fixed row cost."""
    bench = build_planted()
    engine = RetrievalEngine(bench.corpus, config=bench.config)
    for question in bench.questions:
        engine.run_arm(question.question)
    _, _, embed = ROW_CORPORA["planted"]
    embed = functools.lru_cache(maxsize=None)(embed)
    objects = sorted(bench.corpus.objects, key=lambda obj: obj.id)
    pairs = {}

    def entry(a, b):
        if (a, b) not in pairs:
            pairs[a, b] = pairs[b, a] = ascending_entry(
                objects[a], objects[b], bench.config.compat_w, embed
            )
        return pairs[a, b]

    held = engine.cache._rows
    assert len(held) > len(objects) // 2
    position = {obj.id: j for j, obj in enumerate(objects)}
    entries = 0
    for oid, (positions, values) in held.items():
        dense = [entry(position[oid], b) for b in range(len(objects))]
        want = [b for b, value in enumerate(dense) if value != 0.0]
        assert list(positions) == want, oid
        assert bits(values) == bits([dense[b] for b in want]), oid
        entries += len(positions)
    fixed = sys.getsizeof(array("i")) + sys.getsizeof(array("d"))
    size = sum(sys.getsizeof(p) + sys.getsizeof(v) for p, v in held.values())
    assert (positions.itemsize, values.itemsize) == (4, 8)
    assert size == 12 * entries + fixed * len(held)


@pytest.mark.parametrize("name", list(ROW_CORPORA))
class TestRowBits:
    """Rows from the sparse scorer: the same bits in any batch and from
    either side of a pair, and the enumeration oracle's values."""

    def index(self, name):
        corpus, provider, _ = ROW_CORPORA[name]
        return corpus, struct_align._UnitIndex(corpus.objects, provider)

    def test_batched_rows_match_rows_alone(self, name):
        corpus, index = self.index(name)
        n = len(corpus.objects)
        alone = np.stack([index.rows(np.array([j]), 0.5)[0] for j in range(n)])
        rng = np.random.default_rng(n)
        batches = [np.arange(n)] + [
            rng.choice(n, size=int(rng.integers(2, 8)), replace=False)
            for _ in range(10)
        ]
        for batch in batches:
            assert bits(index.rows(batch, 0.5)) == bits(alone[batch])

    def test_rows_are_bit_symmetric(self, name):
        corpus, index = self.index(name)
        for w in (0.0, 0.37, 1.0):
            rows = index.rows(np.arange(len(corpus.objects)), w)
            assert bits(rows) == bits(rows.T)

    def test_rows_match_enumeration_oracle(self, name):
        corpus, index = self.index(name)
        embed = functools.lru_cache(maxsize=None)(ROW_CORPORA[name][2])
        rows = index.rows(np.arange(len(corpus.objects)), 0.5)
        objects = corpus.objects
        for a, b in combinations(range(len(objects)), 2):
            want = oracle_witness(objects[a], objects[b], embed=embed)[0]
            assert abs(rows[a, b] - want) <= 1e-9, (objects[a].id, objects[b].id)

    def test_rows_hold_the_bits_of_ascending_dot_products(self, name):
        corpus, index = self.index(name)
        embed = functools.lru_cache(maxsize=None)(ROW_CORPORA[name][2])
        w = 0.37
        rows = index.rows(np.arange(len(corpus.objects)), w)
        objects = corpus.objects
        for a, obj_a in enumerate(objects):
            for b, obj_b in enumerate(objects[a:], start=a):  # rows are symmetric
                want = ascending_entry(obj_a, obj_b, w, embed)
                assert rows[a, b].hex() == want.hex(), (obj_a.id, obj_b.id)

    def test_batched_nearest_returns_per_member_lists(self, name):
        corpus, provider, _ = ROW_CORPORA[name]
        ids = corpus.object_ids()
        members = ids[::3] + ids[1::3]  # not in id order
        # one cache computes each member's row alone, the other all at once
        alone, batched = (CompatibilityCache(corpus, provider) for _ in range(2))
        for oid in members:
            alone.nominate([oid], 1)
        for k in (1, 3, len(ids)):
            assert batched.nominate(members, k) == alone.nominate(members, k)


def unit_index_edge_cases():
    """(name, objects): each named layout the unit index numbers with care,
    beside a table and a passage that share tokens with it."""
    cases = {
        "tokenless cells": [
            make_table("t", "x", ["a", "b"], [["!!", "w1"], ["--", "!!"]])
        ],
        "header equal to a cell": [
            make_table("t", "x", ["w1", "w2"], [["w1", "w3"]])
        ],
        "header that is a tokenless cell": [
            make_table("t", "x", ["!!", "w2"], [["!!", "w2"], ["w1", "--"]])
        ],
        "rowless table": [make_table("t", "x", ["w1", "w5"], [])],
        "repeated column values": [
            make_table("t", "x", ["a", "b"], [["w1", "w1"], ["w1", "w2"]] * 2)
        ],
        "sentences shared across objects": [
            make_passage("p1", "x", ["w1 w2.", "w3 w4."]),
            make_passage("p2", "x", ["w3 w4.", "w1 w2.", "w1 w2."]),
        ],
    }
    for name, objects in cases.items():
        yield name, objects + [
            make_table("u", "y", ["w2", "c"], [["w1 w2", "w4"], ["w4", "!!"]]),
            make_passage("q", "y", ["w1 w2.", "!!", "w4"]),
        ]


def reference_corpora():
    """(name, objects, provider, oracle embed) for the reference unit index."""
    for name, (corpus, provider, embed) in ROW_CORPORA.items():
        yield name, corpus.objects, provider, embed
    for seed in range(4):
        rng = random.Random(100 + seed)
        vocab = [f"w{i}" for i in range(8)] + ["!!", "w1 w2", "w3."]
        objects = [
            random_table(rng, f"t{i}", vocab) if rng.random() < 0.5
            else random_passage(rng, f"p{i}", vocab)
            for i in range(30)
        ]
        yield f"random-{seed}", objects, PROVIDER, oracles.hash_embed
    for name, objects in unit_index_edge_cases():
        yield name, objects, PROVIDER, oracles.hash_embed


REFERENCE_CORPORA = {name: rest for name, *rest in reference_corpora()}


def assert_same_arrays(got, want, where):
    assert (got is None) == (want is None), where
    if got is not None:
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert got.tobytes() == want.tobytes(), where


def assert_matches_reference(index, objects, provider, embed):
    want = oracles.unit_index_reference(objects, embed, provider.dimension)
    assert set(vars(index)) == set(want) | {"objects"}
    for name, arrays in want.items():
        got = getattr(index, name)
        if isinstance(arrays, tuple):
            for part, array in zip(("ptr", "indices", "values"), arrays):
                assert_same_arrays(getattr(got, part), array, f"{name}.{part}")
        elif isinstance(arrays, int):
            assert type(got) is int and got == arrays, name
        else:
            assert_same_arrays(got, arrays, name)


class TestUnitIndexReference:
    """Every array of the unit index equals the loop-by-loop reference in
    dtype, shape and bytes."""

    @pytest.mark.parametrize("name", list(REFERENCE_CORPORA))
    def test_matches_reference(self, name):
        objects, provider, embed = REFERENCE_CORPORA[name]
        index = struct_align._UnitIndex(objects, provider)
        assert_matches_reference(index, objects, provider, embed)

    @pytest.mark.parametrize("kind", ["hash", "file"])
    def test_mixed_corpus_matches_reference(self, kind, tmp_path):
        corpus, provider, embed = mixed_corpus(kind, tmp_path)
        index = CompatibilityCache(corpus, provider)._index
        assert_matches_reference(index, index.objects, provider, embed)


@pytest.mark.parametrize("name", list(ROW_CORPORA))
class TestConnectionBatch:
    """A batch of connections, computed in one scoring pass, equals the
    same pairs computed one at a time and the enumeration oracle."""

    def test_every_pair_in_one_batch(self, name, monkeypatch):
        corpus, provider, embed = ROW_CORPORA[name]
        embed = functools.lru_cache(maxsize=None)(embed)
        ids = sorted(corpus.object_ids())
        pairs = list(combinations(ids, 2))
        kinds = {
            tuple(sorted(corpus.by_id[oid].kind.value for oid in pair))
            for pair in pairs
        }
        if name in ("planted", "mixed"):
            # the batch mixes table-table, table-passage and passage-passage
            assert len(kinds) == 3
        batched, alone = (CompatibilityCache(corpus, provider) for _ in range(2))
        index = batched._index
        passes = []
        inner = struct_align._UnitIndex._pairs

        def counted(*args, **kwargs):
            passes.append(True)
            return inner(*args, **kwargs)

        monkeypatch.setattr(struct_align._UnitIndex, "_pairs", counted)
        # each pair in both orders and twice over still takes one pass
        batched.connect(pairs + [(b, a) for a, b in pairs[::2]])
        assert len(passes) == 1
        for a, b in pairs:
            conn = batched.get(a, b)
            assert conn == alone.get(a, b)
            want, ids_ab, where = oracle_witness(
                corpus.by_id[a], corpus.by_id[b], embed=embed
            )
            assert_witness(conn, alone.score(a, b), ids_ab, where)
        # every pair was read from the batch; ``alone`` made one pass a pair
        assert len(passes) == 1 + len(pairs) + len(alone._rows)

    def test_random_batches_match_pairs_alone(self, name, monkeypatch):
        """Interleaved ``get`` and ``connect`` calls, some naming memoized
        pairs alone: a call that names an unmemoized pair makes one scoring
        pass, one that does not makes none, and ``compatibility`` runs
        once per newly memoized pair."""
        corpus, provider, _ = ROW_CORPORA[name]
        ids = sorted(corpus.object_ids())
        alone = CompatibilityCache(corpus, provider)
        passes, built = [], []
        pairs = struct_align._UnitIndex._pairs
        compatibility = struct_align.compatibility

        def counted_pairs(index, *args, **kwargs):
            passes.append(index)
            return pairs(index, *args, **kwargs)

        def counted_compatibility(index, *args):
            built.append(index)
            return compatibility(index, *args)

        monkeypatch.setattr(struct_align._UnitIndex, "_pairs", counted_pairs)
        monkeypatch.setattr(struct_align, "compatibility", counted_compatibility)
        rng = random.Random(len(ids))
        calls = {True: 0, False: 0}  # by whether the call named a new pair
        for _ in range(10):
            cache = CompatibilityCache(corpus, provider)
            index = cache._index
            for _ in range(6):
                memo = list(cache._connections)
                batch = [
                    rng.choice(memo)[:: rng.choice((1, -1))]
                    if memo and rng.random() < 0.5
                    else tuple(rng.sample(ids, 2))
                    for _ in range(rng.choice((1, rng.randint(1, 12))))
                ]
                new = {tuple(sorted(pair)) for pair in batch} - set(memo)
                passes.clear()
                built.clear()
                if len(batch) == 1 and rng.random() < 0.5:
                    assert cache.get(*batch[0]) == alone.get(*batch[0])
                else:
                    cache.connect(batch)
                assert passes.count(index) == (1 if new else 0)
                assert built.count(index) == len(new)
                calls[bool(new)] += 1
                for a, b in batch:
                    assert cache._connections[min(a, b), max(a, b)] == alone.get(a, b)
        assert all(calls.values())

    def test_self_pair_rejected(self, name):
        corpus, provider, _ = ROW_CORPORA[name]
        oid = corpus.object_ids()[0]
        with pytest.raises(ValidationError, match="itself"):
            CompatibilityCache(corpus, provider).connect([(oid, oid)])


def test_connection_batch_edge_sides():
    """In the mixed corpus, a passage with no token-carrying sentence
    connects to nothing, and a rowless table, whose value sets are empty,
    joins other tables through its headers alone, with the row score."""
    corpus, provider, _ = ROW_CORPORA["mixed"]
    cache = CompatibilityCache(corpus, provider)
    others = [oid for oid in corpus.object_ids() if oid != "p-silent"]
    cache.connect([("p-silent", oid) for oid in others])
    assert all(cache.get("p-silent", oid) is None for oid in others)
    tables = [
        obj.id
        for obj in corpus.objects
        if obj.kind is ObjectKind.TABLE and obj.id != "t-empty"
    ]
    cache.connect([(oid, "t-empty") for oid in tables])
    joined = 0
    for oid in tables:
        conn = cache.get("t-empty", oid)
        assert (conn.score if conn else 0.0) == cache.score("t-empty", oid)
        if conn is not None:
            assert conn.kind is ConnectionKind.JOIN_COLUMN
            joined += 1
    assert joined


class TestStrengths:
    def test_instance_matches_pairwise_scores(self):
        corpus, provider, _ = ROW_CORPORA["mixed"]
        ids = corpus.object_ids()
        rng = random.Random(2)
        cache, other = (CompatibilityCache(corpus, provider) for _ in range(2))
        for _ in range(5):
            members = rng.sample(ids, 8)
            relevance = {oid: rng.random() for oid in members}
            # the instance reads rows that expansion filled, members' and
            # picks' alike; the fresh cache fills each first id's row
            cache.nominate(members, 1)
            got = build_mip_instance(members, relevance, cache.score, 3)
            want = build_mip_instance(members, relevance, other.score, 3)
            assert got == want
            assert bits(list(got.compat.values())) == bits(list(want.compat.values()))


WALK_COMPAT = {
    ("a", "b"): 0.9,
    ("a", "c"): 0.5,
    ("b", "c"): 0.8,
    ("c", "d"): 0.7,
    ("d", "e"): 0.6,
}


def walk_fn(x, y):
    return WALK_COMPAT.get((x, y)) or WALK_COMPAT.get((y, x)) or 0.0


def nominate_from(compat, ids):
    """A ``nominate`` over ``ids`` that ranks, for each member, every id
    outside the members by ``compat``."""

    def nominate(members, k):
        outside = [oid for oid in ids if oid not in members]
        return [
            sorted(outside, key=lambda oid: (-compat(member, oid), oid))[:k]
            for member in members
        ]

    return nominate


def plain_walk(base, compat, ids, per_step, steps):
    """Expansion as its definition reads: every member re-ranks the absent
    objects each round."""
    members = list(dict.fromkeys(base))
    for _ in range(steps):
        nominated = set()
        for member in members:
            absent = [o for o in ids if o not in members]
            absent.sort(key=lambda o: (-compat(member, o), o))
            nominated.update(absent[:per_step])
        members += sorted(nominated)
    return tuple(members)


WALK = nominate_from(walk_fn, ["a", "b", "c", "d", "e"])


class TestExpandBase:
    def test_strategies_hand_walk(self):
        sets = expand_base(["a"], WALK, strategies=[(1, 1), (2, 1), (1, 2)])
        by_strategy = {s.strategy: s.object_ids for s in sets}
        assert by_strategy[(1, 1)] == ("a", "b")
        assert by_strategy[(2, 1)] == ("a", "b", "c")
        # second step: a nominates c (0.5), b nominates c (0.8)
        assert by_strategy[(1, 2)] == ("a", "b", "c")

    def test_two_steps_reach_further(self):
        sets = expand_base(["a"], WALK, strategies=[(1, 3)])
        # a->b, then b->c, then c->d
        assert sets[0].object_ids == ("a", "b", "c", "d")

    def test_zero_compat_ties_break_by_id(self):
        nominate = nominate_from(lambda a, b: 0.0, ["m", "z", "y", "x"])
        sets = expand_base(["m"], nominate, strategies=[(1, 1)])
        assert sets[0].object_ids == ("m", "x")

    def test_base_duplicates_dropped(self):
        nominate = nominate_from(walk_fn, ["a", "b"])
        sets = expand_base(["a", "a"], nominate, strategies=[(1, 1)])
        assert sets[0].object_ids == ("a", "b")

    def test_invalid_strategy(self):
        with pytest.raises(ValidationError):
            expand_base(["a"], nominate_from(walk_fn, ["a", "b"]), strategies=[(0, 1)])

    def test_matches_plain_walk(self):
        rng = random.Random(11)
        ids = [f"o{i:02d}" for i in range(30)]
        table = {
            pair: rng.choice([0.0, 0.25, 0.5, 0.75])  # few values: many ties
            for pair in combinations(ids, 2)
        }

        def compat(a, b):
            return table[(a, b) if a < b else (b, a)]

        strategies = [(1, 1), (2, 2), (3, 3), (1, 4)]
        base = ["o07", "o21", "o07"]
        sets = expand_base(base, nominate_from(compat, ids), strategies)
        for search_set, strategy in zip(sets, strategies):
            assert search_set.object_ids == plain_walk(base, compat, ids, *strategy)

    @pytest.mark.parametrize("name", ["planted", "mixed"])
    def test_cache_nominations_match_plain_walk(self, name):
        corpus, provider, _ = ROW_CORPORA[name]
        ids = sorted(corpus.object_ids())
        cache, scores = (CompatibilityCache(corpus, provider) for _ in range(2))
        # the last strategy nominates every object outside
        strategies = [(1, 1), (2, 2), (3, 3), (1, 4), (len(ids), 1)]
        base = ids[1::9] + ids[:1]
        sets = expand_base(base, cache.nominate, strategies)
        for search_set, strategy in zip(sets, strategies):
            want = plain_walk(base, scores.score, ids, *strategy)
            assert search_set.object_ids == want

    def test_each_round_is_nominated_once(self):
        """Every walk takes its opening round from one call at the largest
        k, and strategies with the same k share their later rounds: under
        the default strategies, (1, 1), (2, 1) and (1, 2) open with one
        call at k = 2, and the sets are the ones each strategy gives
        alone."""
        corpus, provider, _ = ROW_CORPORA["planted"]
        ids = sorted(corpus.object_ids())
        cache = CompatibilityCache(corpus, provider)
        calls = []

        def nominate(members, k):
            calls.append((tuple(members), k))
            return cache.nominate(members, k)

        base = ids[1::9]
        strategies = build_planted().config.strategies
        assert strategies == ((1, 1), (2, 1), (1, 2))
        sets = expand_base(base, nominate, strategies)
        assert len(calls) == len(set(calls)) == 2
        assert calls[0] == (tuple(base), 2)
        for search_set, strategy in zip(sets, strategies):
            [alone] = expand_base(base, cache.nominate, [strategy])
            assert search_set == alone
        # any order, repeats, and a walk that stops at its fixed point
        calls.clear()
        strategies = [(1, 3), (2, 1), (1, 1), (1, 3), (len(ids), 2), (len(ids), 1)]
        sets = expand_base(base, nominate, strategies)
        # one opening call at k = len(ids), then k = 1's rounds two and
        # three, and k = len(ids)'s second round, which nominates nothing
        assert len(calls) == len(set(calls)) == 1 + 2 + 1
        assert calls[0] == (tuple(base), len(ids))
        for search_set, strategy in zip(sets, strategies):
            [alone] = expand_base(base, cache.nominate, [strategy])
            assert search_set == alone

    def test_rounds_stop_at_the_fixed_point(self):
        corpus, provider, _ = ROW_CORPORA["planted"]
        ids = sorted(corpus.object_ids())
        cache = CompatibilityCache(corpus, provider)
        calls = []

        def nominate(members, k):
            calls.append(len(members))
            return cache.nominate(members, k)

        base = ids[1::9]
        [endless] = expand_base(base, nominate, [(1, 10_000)])
        [bounded] = expand_base(base, cache.nominate, [(1, 100)])
        assert endless.object_ids == bounded.object_ids
        assert sorted(endless.object_ids) == ids
        # each round but the last adds an object; the last is the first
        # round with every object a member, and it nominates nothing
        assert len(calls) <= len(ids) + 1
        assert calls.index(len(ids)) == len(calls) - 1


class TestInstance:
    def test_build_canonicalizes(self):
        inst = build_mip_instance(
            ["b", "a", "b"], {"a": 1.2, "b": -0.5}, walk_fn, k=1
        )
        assert inst.object_ids == ("a", "b")
        assert inst.relevance == (1.0, 0.0)
        assert inst.compat == {(0, 1): 0.9}

    def test_build_drops_nonpositive_compat(self):
        inst = build_mip_instance(
            ["a", "b", "x"], {"a": 0.5}, walk_fn, k=2
        )
        assert set(inst.compat) == {(0, 1)}  # (a, x) and (b, x) are 0.0

    def test_validation(self):
        with pytest.raises(ValidationError, match="duplicate"):
            MipInstance(object_ids=("a", "a"), relevance=(0.5, 0.5))
        with pytest.raises(ValidationError, match="length"):
            MipInstance(object_ids=("a", "b"), relevance=(0.5,))
        with pytest.raises(ValidationError, match="relevance"):
            MipInstance(object_ids=("a",), relevance=(1.5,))
        with pytest.raises(ValidationError, match="compat key"):
            MipInstance(
                object_ids=("a", "b"), relevance=(0.5, 0.5), compat={(1, 0): 0.5}
            )
        with pytest.raises(ValidationError, match="compat key"):
            MipInstance(
                object_ids=("a", "b"), relevance=(0.5, 0.5), compat={(0, 2): 0.5}
            )
        with pytest.raises(ValidationError, match="compat"):
            MipInstance(
                object_ids=("a", "b"), relevance=(0.5, 0.5), compat={(0, 1): 1.5}
            )
        with pytest.raises(ValidationError, match="k must be"):
            MipInstance(object_ids=("a",), relevance=(0.5,), k=0)


def random_instance(rng, max_size=12, max_k=4, min_k=1, density=0.5, digits=None):
    m = rng.randint(max(2, min_k), max_size)
    k = rng.randint(min_k, min(max_k, m))
    value = rng.random if digits is None else lambda: round(rng.random(), digits)
    ids = tuple(f"o{i:02d}" for i in range(m))
    rel = tuple(value() for _ in range(m))
    compat = {}
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                compat[(i, j)] = value()
    return MipInstance(object_ids=ids, relevance=rel, compat=compat, k=k)


def dense_instance(rng, m, k=5):
    return MipInstance(
        object_ids=tuple(f"o{i:02d}" for i in range(m)),
        relevance=tuple(rng.random() for _ in range(m)),
        compat={key: rng.random() for key in combinations(range(m), 2)},
        k=k,
    )


class TestSolvers:
    def test_bridge_selection_beats_raw_relevance(self):
        inst = MipInstance(
            object_ids=("x", "y", "z"),
            relevance=(0.9, 0.8, 0.0),
            compat={(0, 2): 0.9},
            k=2,
        )
        for solve in (solve_mip, oracles.brute_force_mip):
            draft = solve(inst)
            assert draft.object_ids == ("x", "z")
            assert draft.connections == (("x", "z"),)
            assert draft.objective == pytest.approx(0.9 + 0.0 + 0.9, abs=1e-12)

    def test_connection_cap_binds(self):
        # complete graph on 5 at k=5: 10 positive pairs, cap 2(k-1) = 8,
        # so the two weakest connections must be left out
        from itertools import combinations

        ids = ("a", "b", "c", "d", "e")
        pairs = list(combinations(range(5), 2))
        compat = {key: 0.40 + 0.05 * n for n, key in enumerate(pairs)}
        inst = MipInstance(
            object_ids=ids, relevance=(0.1,) * 5, compat=compat, k=5
        )
        for solve in (solve_mip, oracles.brute_force_mip):
            draft = solve(inst)
            assert draft.object_ids == ids
            assert len(draft.connections) == 8
            assert ("a", "b") not in draft.connections  # 0.40 dropped
            assert ("a", "c") not in draft.connections  # 0.45 dropped
            assert draft.objective == pytest.approx(0.5 + 5.4, abs=1e-9)

    def test_routes_agree_exactly(self):
        rng = random.Random(60)
        for _ in range(60):
            inst = random_instance(rng)
            a = solve_mip(inst)
            b = oracles.brute_force_mip(inst)
            assert a.objective == b.objective  # exact, not approximate
            assert a.object_ids == b.object_ids
            assert a.connections == b.connections

    def test_routes_agree_where_cap_binds_and_ties_occur(self):
        # k of 5 or 6, where 2(k-1) < k(k-1)/2 so the connection cap can
        # bind; every other instance rounds its values to 0.1 to force ties
        rng = random.Random(64)
        for n in range(240):
            inst = random_instance(
                rng,
                max_size=13,
                min_k=5,
                max_k=6,
                density=rng.uniform(0.3, 1.0),
                digits=1 if n % 2 else None,
            )
            a = solve_mip(inst)
            b = oracles.brute_force_mip(inst)
            assert a.objective == b.objective
            assert a.object_ids == b.object_ids
            assert a.connections == b.connections

    def test_dense_twenty_objects_match_brute_force(self):
        inst = dense_instance(random.Random(65), 20)
        a = solve_mip(inst)
        b = oracles.brute_force_mip(inst, limit=20)
        assert a.objective == b.objective
        assert a.object_ids == b.object_ids
        assert a.connections == b.connections

    def test_node_budget_raises(self, monkeypatch):
        inst = dense_instance(random.Random(65), 20)
        monkeypatch.setattr(struct_align, "_NODE_BUDGET", 10)
        with pytest.raises(TooLarge, match="20 objects with k=5"):
            solve_mip(inst)

    def test_routes_agree_with_enumeration_oracle(self):
        rng = random.Random(61)
        for _ in range(25):
            inst = random_instance(rng, max_size=7, max_k=3)
            want_obj, want_sel = oracles.mip_optimum(
                list(inst.relevance), dict(inst.compat), inst.k
            )
            want_ids = tuple(inst.object_ids[i] for i in want_sel)
            for solve in (solve_mip, oracles.brute_force_mip):
                draft = solve(inst)
                assert draft.objective == pytest.approx(want_obj, abs=1e-9)
                assert draft.object_ids == want_ids

    @pytest.mark.parametrize("density", [1.0, 0.7], ids=["complete", "dense"])
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_routes_agree_with_enumeration_oracle_where_cap_binds(self, k, density):
        # a selection of k holds up to k(k-1)/2 positive pairs, more than
        # the 2(k-1) cap from k = 4 on, so the cap binds on these graphs
        rng = random.Random(66 + k)
        for _ in range(4):
            inst = random_instance(
                rng, max_size=k + 1, min_k=k, max_k=k, density=density
            )
            want_obj, want_sel = oracles.mip_optimum(
                list(inst.relevance), dict(inst.compat), inst.k
            )
            want_ids = tuple(inst.object_ids[i] for i in want_sel)
            for solve in (solve_mip, oracles.brute_force_mip):
                draft = solve(inst)
                assert draft.objective == pytest.approx(want_obj, abs=1e-9)
                assert draft.object_ids == want_ids
                assert len(draft.connections) == min(
                    2 * (k - 1), sum(a in want_sel and b in want_sel for a, b in inst.compat)
                )

    def test_ties_resolve_to_smallest_ids(self):
        inst = MipInstance(
            object_ids=("a", "b", "c", "d"),
            relevance=(0.5, 0.5, 0.5, 0.5),
            k=2,
        )
        assert solve_mip(inst).object_ids == ("a", "b")
        assert oracles.brute_force_mip(inst).object_ids == ("a", "b")

    def test_ties_with_symmetric_connections(self):
        compat = {(0, 1): 0.4, (2, 3): 0.4}
        inst = MipInstance(
            object_ids=("a", "b", "c", "d"),
            relevance=(0.3, 0.3, 0.3, 0.3),
            compat=compat,
            k=2,
        )
        for solve in (solve_mip, oracles.brute_force_mip):
            draft = solve(inst)
            assert draft.object_ids == ("a", "b")
            assert draft.connections == (("a", "b"),)

    def test_infeasible(self):
        inst = MipInstance(object_ids=("a", "b"), relevance=(0.5, 0.5), k=3)
        with pytest.raises(Infeasible):
            solve_mip(inst)
        with pytest.raises(ValueError, match="exceeds 2 objects"):
            oracles.brute_force_mip(inst)

    def test_brute_force_size_limit(self):
        ids = tuple(f"o{i:02d}" for i in range(16))
        inst = MipInstance(object_ids=ids, relevance=(0.5,) * 16, k=2)
        with pytest.raises(ValueError, match="exceed the limit 15"):
            oracles.brute_force_mip(inst)
        assert oracles.brute_force_mip(inst, limit=16).object_ids == ("o00", "o01")
        assert solve_mip(inst).object_ids == ("o00", "o01")  # no size limit

    def test_draft_shape(self):
        rng = random.Random(62)
        for _ in range(20):
            inst = random_instance(rng)
            draft = solve_mip(inst)
            assert draft.object_ids == tuple(sorted(draft.object_ids))
            assert draft.connections == tuple(sorted(draft.connections))
            assert all(a < b for a, b in draft.connections)


class TestCheckDraft:
    def test_solver_output_is_clean(self):
        rng = random.Random(63)
        for _ in range(40):
            inst = random_instance(rng)
            assert check_draft(inst, solve_mip(inst)) == []
            assert check_draft(inst, oracles.brute_force_mip(inst)) == []

    def test_detects_violations(self):
        inst = MipInstance(
            object_ids=("a", "b", "c"),
            relevance=(0.5, 0.5, 0.5),
            compat={(0, 1): 0.5},
            k=2,
        )
        bad_size = Draft(object_ids=("a",), connections=(), objective=0.5)
        assert any("size" in v for v in check_draft(inst, bad_size))

        repeated = Draft(object_ids=("a", "a"), connections=(), objective=1.0)
        assert any("binary" in v for v in check_draft(inst, repeated))

        unknown = Draft(object_ids=("a", "zz"), connections=(), objective=1.0)
        assert any("outside" in v for v in check_draft(inst, unknown))

        over_cap = Draft(
            object_ids=("a", "b"),
            connections=(("a", "b"),) * 3,
            objective=1.0,
        )
        findings = check_draft(inst, over_cap)
        assert any("cap" in v for v in findings)
        assert any("duplicate connection" in v for v in findings)

        loose_end = Draft(
            object_ids=("a", "b"),
            connections=(("a", "c"),),
            objective=1.0,
        )
        assert any("unselected" in v for v in check_draft(inst, loose_end))

        self_loop = Draft(
            object_ids=("a", "b"),
            connections=(("a", "a"),),
            objective=1.0,
        )
        assert any("self connection" in v for v in check_draft(inst, self_loop))
