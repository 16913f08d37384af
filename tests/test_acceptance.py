"""Acceptance criteria, one test per criterion.

Each test prints a single `[Cnn] label: PASS/FAIL` line (visible with
`pytest -s` or in captured output) and asserts the same condition, so the
suite result and the printed report always agree. Tolerances are pinned
per criterion: exact equality for dual-route comparisons and determinism,
1e-12 for hand-computed metrics, 1e-9 for score oracles.
"""

from __future__ import annotations

import dataclasses
import random
import time

import pytest

import oracles
from planted import build_planted
from alignrag.baselines_eval import (
    METHODS,
    agentic_retrieve,
    build_runner,
    compute_metrics,
    eval_to_csv,
    eval_to_json,
    run_eval,
)
from alignrag.corpus import Chunk, DataObject, ObjectKind, build_corpus
from alignrag.embedding import HashEmbeddingProvider
from alignrag.errors import AllBeamsDead
from alignrag.lm import MockScorer, constrained_ngram_decode
from alignrag.ngram_index import (
    bm25_search,
    build_bm25,
    build_trie,
    corpus_ngrams,
    normalize_tokens,
)
from alignrag.pipeline import RetrievalEngine
from alignrag.struct_align import (
    CompatibilityCache,
    Draft,
    MipInstance,
    build_mip_instance,
    check_draft,
    solve_mip,
)
from alignrag.verify_agg import serialize_draft, verify_select


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[C{num:02d}] {label}: {status}{suffix}")
    assert ok, f"criterion C{num:02d} failed: {label}{suffix}"


def random_instance(rng: random.Random) -> MipInstance:
    size = rng.randint(4, 12)
    ids = tuple(f"o{n:02d}" for n in range(size))
    relevance = tuple(rng.random() for _ in ids)
    compat = {}
    for i in range(size):
        for j in range(i + 1, size):
            if rng.random() < 0.5:
                compat[(i, j)] = rng.random()
    k = rng.randint(1, min(4, size))
    return MipInstance(object_ids=ids, relevance=relevance, compat=compat, k=k)


@pytest.fixture(scope="module")
def bench():
    return build_planted()


@pytest.fixture(scope="module")
def engine(bench):
    return RetrievalEngine(bench.corpus, config=bench.config)


@pytest.fixture(scope="module")
def arm_runs(bench, engine):
    return {q.question_id: engine.run_arm(q.question) for q in bench.questions}


def test_c01_dual_route_mip_equivalence():
    rng = random.Random(1)
    started = time.monotonic()
    for _ in range(200):
        instance = random_instance(rng)
        fast = solve_mip(instance)
        slow = oracles.brute_force_mip(instance)
        assert fast.objective == slow.objective
        assert fast.object_ids == slow.object_ids
        assert fast.connections == slow.connections
    elapsed = time.monotonic() - started
    report(
        1,
        "branch-and-bound matches exhaustive search on 200 seeded instances",
        elapsed < 10.0,
        f"exact equality, {elapsed:.2f}s",
    )


def test_c02_every_draft_satisfies_constraints(bench, engine, arm_runs):
    violations: list[str] = []
    audited = 0
    rng = random.Random(2)
    for _ in range(200):
        instance = random_instance(rng)
        for solver in (solve_mip, oracles.brute_force_mip):
            violations.extend(check_draft(instance, solver(instance)))
            audited += 1
    for question in bench.questions:
        run = arm_runs[question.question_id]
        relevance = engine.relevance_map(engine.provider.embed(question.question))
        for search_set, draft in zip(run.search_sets, run.drafts):
            k = min(engine.config.mip_k, len(search_set.object_ids))
            instance = build_mip_instance(
                search_set.object_ids, relevance, engine.cache.score, k
            )
            violations.extend(check_draft(instance, draft))
            audited += 1
    report(
        2,
        "every produced draft passes the feasibility audit",
        not violations,
        f"{audited} drafts, {len(violations)} violations",
    )


def _random_corpus(rng: random.Random):
    pool = [f"w{n}" for n in range(20)]
    objects = []
    for n in range(rng.randint(2, 5)):
        if rng.random() < 0.5:
            cols = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
            rows = tuple(
                tuple(rng.choice(pool) for _ in cols)
                for _ in range(rng.randint(1, 3))
            )
            objects.append(
                DataObject(
                    id=f"r{n}",
                    kind=ObjectKind.TABLE,
                    title=" ".join(rng.sample(pool, 2)),
                    columns=cols,
                    rows=rows,
                )
            )
        else:
            sentences = tuple(
                " ".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            )
            objects.append(
                DataObject(
                    id=f"r{n}",
                    kind=ObjectKind.PASSAGE,
                    title=" ".join(rng.sample(pool, 2)),
                    sentences=sentences,
                )
            )
    return build_corpus(objects)


def test_c03_constrained_outputs_stay_in_bounds(bench, engine):
    rng = random.Random(3)
    ngrams_checked = 0
    for trial in range(100):
        corpus = _random_corpus(rng)
        allowed = corpus_ngrams(corpus.chunks)
        trie = build_trie(allowed)
        scorer = MockScorer(seed=trial, context_weight=1.0)
        question = " ".join(rng.choice([f"w{n}" for n in range(20)]) for _ in range(3))
        try:
            beams = constrained_ngram_decode(scorer, trie, question)
        except AllBeamsDead:
            continue
        for beam in beams:
            assert beam.ngrams, "finished beam without any emitted ngram"
            for ngram in beam.ngrams:
                assert ngram.tokens in allowed
                ngrams_checked += 1

    all_ids = list(bench.corpus.object_ids())
    question_vec = engine.provider.embed(bench.questions[0].question)
    selections_checked = 0
    for trial in range(100):
        subset = tuple(sorted(rng.sample(all_ids, rng.randint(1, 5))))
        draft = Draft(object_ids=subset, connections=(), objective=0.0)
        relevance = {oid: rng.random() for oid in subset}
        sdraft = serialize_draft(
            draft, relevance, bench.corpus, engine.provider, question_vec
        )
        scorer = MockScorer(seed=1000 + trial, context_weight=1.0)
        selection = verify_select(scorer, "q", ["q"], sdraft)
        assert set(selection.selected) <= set(subset)
        assert set(selection.weights) == set(selection.selected)
        selections_checked += 1
    report(
        3,
        "decoded ngrams stay in the index and selections stay in the draft",
        ngrams_checked >= 100 and selections_checked == 100,
        f"{ngrams_checked} ngrams, {selections_checked} selections",
    )


def test_c04_planted_bridge_benchmark(bench):
    started = time.monotonic()
    config = dataclasses.replace(bench.config, final_k=5)
    engine = RetrievalEngine(bench.corpus, config=config)
    questions = list(bench.questions)
    results = run_eval(engine, questions, methods=["dense", "arm"])
    arm_pr = results["arm"].perfect_recall_pct
    dense_pr = results["dense"].perfect_recall_pct

    dense_runner = build_runner("dense", engine, 5)
    bridge_ok = True
    for question, bridge_id in zip(questions, bench.bridge_ids):
        dense_ids, _, _ = dense_runner(question)
        run = engine.run_arm(question.question)
        base_ids = [entry.object_id for entry in run.base]
        bridge_ok = bridge_ok and bridge_id not in dense_ids
        bridge_ok = bridge_ok and bridge_id not in base_ids
        bridge_ok = bridge_ok and all(
            bridge_id in s.object_ids for s in run.search_sets
        )
        bridge_ok = bridge_ok and bridge_id in run.final
        bridge_ok = bridge_ok and all(
            set(question.gold_ids) <= set(d.object_ids) for d in run.drafts
        )
    elapsed = time.monotonic() - started
    ok = (
        arm_pr == 100.0
        and dense_pr <= 50.0
        and arm_pr - dense_pr >= 50.0
        and bridge_ok
        and elapsed < 60.0
    )
    report(
        4,
        "planted bridges: full pipeline 100% perfect recall, dense misses them",
        ok,
        f"arm {arm_pr:.1f} vs dense {dense_pr:.1f}, {elapsed:.1f}s",
    )


HAND_METRICS = [
    # retrieved, gold, precision, recall, f1, perfect recall
    (["a", "b", "c"], ["a", "d"], 1 / 3, 1 / 2, 0.4, False),
    (["a", "b"], ["a", "b"], 1.0, 1.0, 1.0, True),
    (["a", "b", "c", "d"], ["a", "b"], 1 / 2, 1.0, 2 / 3, True),
    ([], ["g"], 0.0, 0.0, 0.0, False),
    (["x"], ["g"], 0.0, 0.0, 0.0, False),
    (["g", "g", "g"], ["g"], 1.0, 1.0, 1.0, True),
    (["a", "b", "c", "d", "e"], ["a", "b", "c", "d", "e"], 1.0, 1.0, 1.0, True),
    (["a", "b", "c", "d", "e"], ["e", "f"], 1 / 5, 1 / 2, 2 / 7, False),
    (["a", "x", "y"], ["a", "b", "c", "d"], 1 / 3, 1 / 4, 2 / 7, False),
    (["b", "a"], ["a", "b", "c"], 1.0, 2 / 3, 0.8, False),
]


def test_c05_metrics_match_hand_computation(bench, engine, arm_runs):
    tol = 1e-12
    for retrieved, gold, p, r, f1, perfect in HAND_METRICS:
        m = compute_metrics(retrieved, gold)
        assert abs(m.precision - p) <= tol, (retrieved, gold)
        assert abs(m.recall - r) <= tol, (retrieved, gold)
        assert abs(m.f1 - f1) <= tol, (retrieved, gold)
        assert m.perfect_recall == perfect, (retrieved, gold)
    expected_pr = 100.0 * sum(pf for *_, pf in HAND_METRICS) / len(HAND_METRICS)
    assert expected_pr == 40.0

    # aggregate consistency on a real run: corpus PR is the mean of the
    # per-question perfect-recall indicators, scaled to a percentage
    results = run_eval(engine, list(bench.questions), methods=["arm"])
    arm = results["arm"]
    rows = arm.rows
    assert abs(arm.precision - sum(r.precision for r in rows) / len(rows)) <= tol
    assert abs(arm.recall - sum(r.recall for r in rows) / len(rows)) <= tol
    assert (
        abs(
            arm.perfect_recall_pct
            - 100.0 * sum(r.perfect_recall for r in rows) / len(rows)
        )
        <= tol
    )
    report(5, "metrics match hand-computed values", True, "10 rows at 1e-12")


def test_c06_llm_call_accounting(bench, arm_runs):
    arm_ok = all(run.llm_calls == 1 for run in arm_runs.values())

    from alignrag.embedding import embed_corpus
    from conftest import make_passage, make_table

    corpus = build_corpus(
        [
            make_table(
                "t1",
                "city populations",
                ["city", "pop"],
                [["paris", "2m"], ["lyon", "500k"]],
            ),
            make_passage("p1", "paris overview", ["paris is the capital of france."]),
        ]
    )
    provider = HashEmbeddingProvider(dimension=64, seed=0)
    store = embed_corpus(provider, corpus.chunks)

    def agent(scorer):
        return agentic_retrieve(scorer, "paris", store, provider)

    finisher = MockScorer()
    finisher.script(("next",), ["finish", "<>"])
    immediate = agent(finisher)

    looper = MockScorer()
    looper.script(("next",), ["search", "paris", "<>"])
    forced = agent(looper)

    babbler = MockScorer()
    babbler.script(("next",), ["pondering", "<>"])
    malformed = agent(babbler)

    react_ok = (
        immediate.iterations == 1
        and immediate.llm_calls == 0
        and immediate.termination == "finish"
        and forced.iterations == 8
        and forced.llm_calls == 7
        and forced.termination == "max_iterations"
        and malformed.iterations == 1
        and malformed.llm_calls == 0
        and malformed.termination == "malformed"
    )
    for result in (immediate, forced, malformed):
        assert result.llm_calls == result.iterations - 1
    report(
        6,
        "call accounting: one batched call per question, agent pays per step",
        arm_ok and react_ok,
        f"arm always 1, react 0/7/0 over {len(arm_runs)} questions",
    )


def test_c07_bm25_against_oracle():
    chunks = [
        Chunk(object_id="c1", index=0, text="paris paris lyon", span=(0, 1)),
        Chunk(object_id="c2", index=0, text="paris rome", span=(0, 1)),
        Chunk(object_id="c3", index=0, text="rome rome lyon", span=(0, 1)),
    ]
    index = build_bm25(chunks)
    query = ["paris", "lyon"]
    got = dict(bm25_search(index, query))
    docs = {c.chunk_id: normalize_tokens(c.text) for c in chunks}
    expected = oracles.bm25_scores(docs, query)
    assert set(got) == set(expected)
    for chunk_id, score in expected.items():
        assert abs(got[chunk_id] - score) <= 1e-9, chunk_id

    rng = random.Random(7)
    for trial in range(100):
        length = rng.randint(3, 12)
        tf_high = rng.randint(1, length)
        tf_low = rng.randint(0, tf_high - 1)

        def doc(tag, tf):
            fillers = [f"f{tag}{n}" for n in range(length - tf)]
            return " ".join(["zz"] * tf + fillers)

        trial_chunks = [
            Chunk(object_id="a", index=0, text=doc("a", tf_high), span=(0, 1)),
            Chunk(object_id="b", index=0, text=doc("b", tf_low), span=(0, 1)),
            Chunk(object_id="c", index=0, text=doc("c", 0), span=(0, 1)),
        ]
        scores = dict(bm25_search(build_bm25(trial_chunks), ["zz"]))
        assert scores["a#0"] > scores.get("b#0", 0.0), trial
    report(7, "lexical scoring matches the oracle", True, "1e-9 + tf monotonicity")


def _random_table(rng, pool, oid):
    cols = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
    rows = tuple(
        tuple(rng.choice(pool) for _ in cols) for _ in range(rng.randint(1, 4))
    )
    return DataObject(
        id=oid, kind=ObjectKind.TABLE, title="t", columns=cols, rows=rows
    )


def _random_passage(rng, pool, oid):
    sentences = tuple(
        " ".join(rng.choice(pool) for _ in range(rng.randint(1, 4)))
        for _ in range(rng.randint(1, 3))
    )
    return DataObject(id=oid, kind=ObjectKind.PASSAGE, title="t", sentences=sentences)


def test_c08_compatibility_against_enumeration_oracle():
    rng = random.Random(8)
    pool = [f"w{n}" for n in range(12)]
    provider = HashEmbeddingProvider(dimension=64, seed=0)
    checked = 0
    for trial in range(50):
        w = rng.random()
        kind = trial % 3
        if kind == 0:
            a = _random_table(rng, pool, "a")
            b = _random_table(rng, pool, "b")
            want, where = oracles.witness_table_table(
                (list(a.columns), [list(r) for r in a.rows]),
                (list(b.columns), [list(r) for r in b.rows]),
                w,
            )
        elif kind == 1:
            a = _random_table(rng, pool, "a")
            b = _random_passage(rng, pool, "b")
            want, where = oracles.witness_table_passage(
                (list(a.columns), [list(r) for r in a.rows]), list(b.sentences), w
            )
        else:
            a = _random_passage(rng, pool, "a")
            b = _random_passage(rng, pool, "b")
            want, where = oracles.witness_passage_passage(
                list(a.sentences), list(b.sentences), w
            )
        cache = CompatibilityCache(build_corpus([a, b]), provider, w)
        got = cache.score("a", "b")
        assert abs(got - want) <= 1e-9, (trial, kind)
        conn = cache.get("a", "b")
        if where is None:
            assert conn is None and got == 0.0, (trial, kind)
        else:
            assert conn.score == got, (trial, kind)
            assert (conn.a.object_id, conn.b.object_id) == ("a", "b"), trial
            assert (conn.a.locator, conn.b.locator) == where, (trial, kind)
        checked += 1
    report(
        8,
        "compatibility rows and connection witnesses match the enumeration oracle",
        checked == 50,
        "50 random pairs at 1e-9",
    )


def test_c09_stage_ablation_is_monotone(bench, engine):
    rates = {}
    for stage in ("ia", "sa", "full"):
        hits = 0
        for question in bench.questions:
            run = engine.run_arm(question.question, stage=stage)
            hits += set(question.gold_ids) <= set(run.final)
        rates[stage] = 100.0 * hits / len(bench.questions)
    ok = (
        rates["ia"] <= rates["sa"] <= rates["full"]
        and rates["full"] == 100.0
        and rates["ia"] == 0.0
    )
    report(
        9,
        "each added stage only helps on the planted benchmark",
        ok,
        f"ia {rates['ia']:.0f} / sa {rates['sa']:.0f} / full {rates['full']:.0f}",
    )


def test_c10_evaluation_is_deterministic(bench):
    def one_pass():
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        results = run_eval(engine, list(bench.questions), methods=list(METHODS))
        return eval_to_json(results).encode(), eval_to_csv(results).encode()

    json_a, csv_a = one_pass()
    json_b, csv_b = one_pass()
    report(
        10,
        "repeated evaluation is byte-identical",
        json_a == json_b and csv_a == csv_b,
        f"{len(json_a)} json bytes, {len(csv_a)} csv bytes",
    )
