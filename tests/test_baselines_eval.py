"""Baseline retrievers, metrics, and the evaluation harness."""

from __future__ import annotations

import collections
import json
import random
import re

import pytest

import oracles
from alignrag import baselines_eval
from alignrag.baselines_eval import (
    METHODS,
    OverlapReranker,
    Question,
    agentic_retrieve,
    build_runner,
    compute_metrics,
    decomposed_retrieve,
    dense_retrieve,
    eval_to_csv,
    eval_to_json,
    load_questions,
    overlap_coefficient,
    rerank_retrieve,
    run_eval,
)
from alignrag.config import Config
from alignrag.corpus import serialize_object
from alignrag.embedding import HashEmbeddingProvider, embed_corpus
from alignrag.errors import (
    EmptyGold,
    ParseError,
    UnknownGoldId,
    ValidationError,
)
from alignrag.lm import MockScorer, SEP_TOKEN, STOP_TOKEN
from alignrag.pipeline import RetrievalEngine
from planted import build_planted


def city_setup(city_corpus):
    provider = HashEmbeddingProvider(dimension=64, seed=0)
    store = embed_corpus(provider, city_corpus.chunks)
    return provider, store


def oracle_dense(corpus, question, top_k):
    qv = oracles.hash_embed(question)
    scored = []
    for obj in corpus.objects:
        sim = max(
            oracles.cosine_np(qv, oracles.hash_embed(c.text))
            for c in corpus.chunks_by_object[obj.id]
        )
        scored.append((-sim, obj.id))
    scored.sort()
    return [oid for _, oid in scored[:top_k]]


class TestDense:
    def test_matches_oracle_ordering(self, city_corpus):
        provider, store = city_setup(city_corpus)
        for question in ["paris", "france 643", "lyon is", "city populations"]:
            got = dense_retrieve(question, store, provider, top_k=3)
            assert got == oracle_dense(city_corpus, question, 3)

    def test_top_k(self, city_corpus):
        provider, store = city_setup(city_corpus)
        assert len(dense_retrieve("paris", store, provider, top_k=1)) == 1
        with pytest.raises(ValidationError):
            dense_retrieve("paris", store, provider, top_k=0)


class CountryReranker:
    """Stub: anything mentioning 'country' wins."""

    def score(self, question, serialized_object):
        return 1.0 if "country" in serialized_object else 0.0


def count_tokenized(monkeypatch) -> list[str]:
    """Every text ``baselines_eval`` tokenizes from now on, in order."""
    tokenized: list[str] = []
    tokenize = baselines_eval.normalize_tokens

    def counted(text):
        tokenized.append(text)
        return tokenize(text)

    monkeypatch.setattr(baselines_eval, "normalize_tokens", counted)
    return tokenized


class TestRerank:
    def test_overlap_coefficient(self):
        assert overlap_coefficient(set(), {"a"}) == 0.0
        assert overlap_coefficient({"a", "b"}, {"b", "c"}) == 0.5
        assert overlap_coefficient({"a"}, {"a", "b", "c"}) == 1.0

    def test_overlap_reranker_matches_oracle(self, city_corpus):
        reranker = OverlapReranker()
        for obj in city_corpus.objects:
            text = serialize_object(obj)
            got = reranker.score("city pop lyon", text)
            want = oracles.overlap(
                set(oracles.tokenize("city pop lyon")), set(oracles.tokenize(text))
            )
            assert got == pytest.approx(want, abs=1e-12)

    def test_overlap_reranker_tokenizes_each_question_once(
        self, city_corpus, monkeypatch
    ):
        tokenized = count_tokenized(monkeypatch)
        texts = [serialize_object(obj) for obj in city_corpus.objects]
        reranker = OverlapReranker()
        for question in ("city pop lyon", "paris", "city pop lyon"):
            tokenized.clear()
            got = [reranker.score(question, text) for text in texts]
            assert tokenized.count(question) == 1
            want = [OverlapReranker().score(question, text) for text in texts]
            assert got == want
            assert got == [
                oracles.overlap(
                    set(oracles.tokenize(question)), set(oracles.tokenize(text))
                )
                for text in texts
            ]

    def test_overlap_reranker_tokenizes_each_object_text_once(
        self, city_corpus, monkeypatch
    ):
        tokenized = count_tokenized(monkeypatch)
        texts = [serialize_object(obj) for obj in city_corpus.objects]
        reranker = OverlapReranker()
        for question in ("city pop lyon", "paris", "france 643", "city pop lyon"):
            # memoized scores equal the oracle's, not only the first ones
            assert [reranker.score(question, text) for text in texts] == [
                oracles.overlap(
                    set(oracles.tokenize(question)), set(oracles.tokenize(text))
                )
                for text in texts
            ]
        assert sorted(t for t in tokenized if t in texts) == sorted(texts)

    def test_reranker_reorders_dense_pool(self, city_corpus):
        provider, store = city_setup(city_corpus)
        dense = dense_retrieve("paris", store, provider, top_k=3)
        assert dense[0] != "t2"
        reranked = rerank_retrieve(
            "paris", store, provider, city_corpus, CountryReranker(),
            pool=3, top_k=3,
        )
        assert reranked[0] == "t2"
        assert sorted(reranked) == sorted(dense)  # same pool, new order

    def test_pool_restricts_candidates(self, city_corpus):
        provider, store = city_setup(city_corpus)
        got = rerank_retrieve(
            "paris", store, provider, city_corpus, CountryReranker(),
            pool=1, top_k=1,
        )
        # t2 would win the rerank but never enters the size-1 pool
        assert got == dense_retrieve("paris", store, provider, top_k=1)

    def test_pool_must_cover_top_k(self, city_corpus):
        provider, store = city_setup(city_corpus)
        with pytest.raises(ValidationError):
            rerank_retrieve(
                "paris", store, provider, city_corpus, CountryReranker(),
                pool=2, top_k=3,
            )


@pytest.fixture(scope="module")
def planted_engine():
    planted = build_planted()
    engine = RetrievalEngine(planted.corpus, config=planted.config)
    return engine, list(planted.questions)


class TestRerankRunners:
    """A rerank runner keeps one reranker, and so one token memo, for its
    whole life; it answers as a fresh reranker per question did."""

    @pytest.mark.parametrize("method", ["rerank", "rerank-decomp"])
    @pytest.mark.parametrize("workload", ["planted_engine", "synth_engine"])
    def test_one_runner_answers_as_a_fresh_one_per_question(
        self, request, workload, method
    ):
        engine, questions = request.getfixturevalue(workload)
        k = engine.config.final_k
        runner = build_runner(method, engine, k)
        for q in questions:
            # a fresh runner builds a fresh OverlapReranker
            assert runner(q) == build_runner(method, engine, k)(q)

    @pytest.mark.parametrize("method", ["rerank", "rerank-decomp"])
    def test_runner_tokenizes_each_object_text_once(
        self, planted_engine, method, monkeypatch
    ):
        engine, questions = planted_engine
        texts = {serialize_object(obj) for obj in engine.corpus.objects}
        tokenized = count_tokenized(monkeypatch)
        scored = []
        overlap = baselines_eval.overlap_coefficient

        def counted(a, b):
            scored.append(b)
            return overlap(a, b)

        monkeypatch.setattr(baselines_eval, "overlap_coefficient", counted)
        runner = build_runner(method, engine, engine.config.final_k)
        for q in questions:
            runner(q)
        object_texts = [t for t in tokenized if t in texts]
        assert len(object_texts) == len(set(object_texts))
        # the memo answered most scores: far more were made than texts exist
        assert len(scored) > 2 * len(texts)

    @pytest.mark.parametrize("method", ["rerank", "rerank-decomp"])
    def test_runner_serializes_each_pooled_object_once(
        self, planted_engine, method, monkeypatch
    ):
        engine, questions = planted_engine
        serialized = []
        serialize = baselines_eval.serialize_object

        def counted(obj):
            serialized.append(obj.id)
            return serialize(obj)

        pooled = collections.defaultdict(set)

        class Recording(OverlapReranker):
            def score(self, question, serialized_object):
                pooled[question].add(serialized_object)
                return super().score(question, serialized_object)

        monkeypatch.setattr(baselines_eval, "serialize_object", counted)
        monkeypatch.setattr(baselines_eval, "OverlapReranker", Recording)
        runner = build_runner(method, engine, engine.config.final_k)
        first, second = questions[:2]
        runner(first)
        runner(second)
        assert pooled[first.question] & pooled[second.question]
        assert sorted(serialized) == sorted(set(serialized))


class TestDecomposition:
    def scripted(self, tokens):
        scorer = MockScorer()
        scorer.script(("subquestions",), tokens + [STOP_TOKEN])
        return scorer

    def test_scripted_subquestions_and_union(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = decomposed_retrieve(
            self.scripted(["paris", SEP_TOKEN, "lyon"]),
            "paris and lyon",
            store,
            provider,
            city_corpus,
        )
        assert result.subquestions == ("paris", "lyon")
        assert result.llm_calls == 1
        # union ranked by the best dense similarity over any subquestion
        best = {}
        for sub in ("paris", "lyon"):
            qv = oracles.hash_embed(sub)
            for obj in city_corpus.objects:
                sim = max(
                    oracles.cosine_np(qv, oracles.hash_embed(c.text))
                    for c in city_corpus.chunks_by_object[obj.id]
                )
                best[obj.id] = max(best.get(obj.id, 0.0), sim)
        want = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
        assert list(result.retrieved) == [oid for oid, _ in want]

    def test_empty_segments_skipped(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = decomposed_retrieve(
            self.scripted([SEP_TOKEN, "paris", SEP_TOKEN, SEP_TOKEN, "lyon"]),
            "q",
            store,
            provider,
            city_corpus,
        )
        assert result.subquestions == ("paris", "lyon")

    def test_subquestion_cap(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = decomposed_retrieve(
            self.scripted(["paris", SEP_TOKEN, "lyon", SEP_TOKEN, "france"]),
            "q",
            store,
            provider,
            city_corpus,
            max_subquestions=2,
        )
        assert result.subquestions == ("paris", "lyon")

    def test_fallback_to_whole_question(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = decomposed_retrieve(
            MockScorer(), "paris population", store, provider, city_corpus
        )
        assert result.subquestions == ("paris population",)
        assert result.llm_calls == 1

    def test_reranker_rescores_union(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = decomposed_retrieve(
            self.scripted(["paris"]),
            "paris",
            store,
            provider,
            city_corpus,
            reranker=CountryReranker(),
        )
        assert result.retrieved[0] == "t2"


class TestAgentic:
    def test_immediate_finish(self, city_corpus):
        provider, store = city_setup(city_corpus)
        scorer = MockScorer()
        scorer.script(("next",), ["finish", STOP_TOKEN])
        result = agentic_retrieve(scorer, "q", store, provider)
        assert result.termination == "finish"
        assert result.iterations == 1
        assert result.llm_calls == 0
        assert result.retrieved == ()
        assert result.objects_provided == 0
        assert result.steps[0].action == "finish"

    def test_forced_search_loop_hits_iteration_cap(self, city_corpus):
        provider, store = city_setup(city_corpus)
        scorer = MockScorer()
        scorer.script(("next",), ["search", "paris", STOP_TOKEN])
        result = agentic_retrieve(scorer, "q", store, provider)
        assert result.termination == "max_iterations"
        assert result.iterations == 8
        assert result.llm_calls == 7
        assert len(result.steps) == 8
        assert all(s.action == "search" and s.argument == "paris" for s in result.steps)
        # every round returns the full 3-object corpus; seen stays deduped
        assert result.objects_provided == 24
        assert sorted(result.retrieved) == ["p1", "t1", "t2"]
        assert result.steps[0].observation == " ".join(result.retrieved)

    def test_search_then_finish(self, city_corpus):
        provider, store = city_setup(city_corpus)
        scorer = MockScorer()
        scorer.script(("next",), ["search", "paris", STOP_TOKEN])
        # fires only once history ends with the first observation
        scorer.add_rule(("t2", "next"), ["finish"])
        result = agentic_retrieve(scorer, "q", store, provider)
        assert result.termination == "finish"
        assert result.iterations == 2
        assert result.llm_calls == 1
        assert [s.action for s in result.steps] == ["search", "finish"]
        assert result.retrieved == ("p1", "t1", "t2")

    def test_malformed_generation_ends_loop(self, city_corpus):
        provider, store = city_setup(city_corpus)
        scorer = MockScorer()
        scorer.script(("next",), ["gibberish", STOP_TOKEN])
        result = agentic_retrieve(scorer, "q", store, provider)
        assert result.termination == "malformed"
        assert result.iterations == 1
        assert result.llm_calls == 0
        assert result.steps[0].action == "malformed"
        assert result.retrieved == ()

    def test_empty_generation_is_malformed(self, city_corpus):
        provider, store = city_setup(city_corpus)
        result = agentic_retrieve(MockScorer(), "q", store, provider)
        assert result.termination == "malformed"

    def test_validation(self, city_corpus):
        provider, store = city_setup(city_corpus)
        with pytest.raises(ValidationError):
            agentic_retrieve(MockScorer(), "q", store, provider, max_iterations=0)


class TestMetrics:
    def test_hand_computed(self):
        m = compute_metrics(["a", "b", "c"], ["a", "d"])
        assert m.precision == pytest.approx(1 / 3, abs=1e-12)
        assert m.recall == pytest.approx(1 / 2, abs=1e-12)
        assert m.f1 == pytest.approx(0.4, abs=1e-12)
        assert m.perfect_recall is False

    def test_perfect_recall_allows_extras(self):
        m = compute_metrics(["a", "b", "x"], ["a", "b"])
        assert m.perfect_recall is True
        assert m.recall == 1.0

    def test_empty_retrieved(self):
        m = compute_metrics([], ["a"])
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.perfect_recall is False

    def test_duplicates_collapse(self):
        m = compute_metrics(["a", "a", "b"], ["a", "b"])
        assert m.precision == 1.0

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(9)
        pool = [f"o{i}" for i in range(12)]
        for _ in range(100):
            retrieved = rng.sample(pool, rng.randint(0, 8))
            gold = rng.sample(pool, rng.randint(1, 5))
            m = compute_metrics(retrieved, gold)
            p, r, f1, perfect = oracles.prf(retrieved, gold)
            assert m.precision == pytest.approx(p, abs=1e-12)
            assert m.recall == pytest.approx(r, abs=1e-12)
            assert m.f1 == pytest.approx(f1, abs=1e-12)
            assert m.perfect_recall == perfect

    def test_empty_gold_rejected(self):
        with pytest.raises(EmptyGold):
            compute_metrics(["a"], [])


class TestLoadQuestions:
    def write(self, tmp_path, lines):
        path = tmp_path / "questions.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps(
                    {
                        "question_id": "q1",
                        "question": "paris?",
                        "gold_object_ids": ["t1", "p1"],
                    }
                ),
                "",
                json.dumps(
                    {"question_id": 2, "question": "x", "gold_object_ids": [7]}
                ),
            ],
        )
        questions = load_questions(path)
        assert questions[0] == Question("q1", "paris?", ("t1", "p1"))
        assert questions[1] == Question("2", "x", ("7",))  # coerced to str

    def test_bad_json_line(self, tmp_path):
        path = self.write(tmp_path, ['{"question_id": "q1"', ""])
        with pytest.raises(ParseError, match="line 1"):
            load_questions(path)

    def test_missing_field(self, tmp_path):
        path = self.write(
            tmp_path,
            [
                json.dumps(
                    {"question_id": "q1", "question": "x", "gold_object_ids": ["a"]}
                ),
                json.dumps({"question_id": "q2", "question": "y"}),
            ],
        )
        with pytest.raises(ParseError, match="line 2"):
            load_questions(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            ([1], "expected a JSON object"),
            ("q1", "expected a JSON object"),
            ({"gold_object_ids": "t1"}, "list of ids"),
            ({"gold_object_ids": [["t1"]]}, "list of ids"),
            ({"gold_object_ids": [None]}, "list of ids"),
            ({"gold_object_ids": [True]}, "list of ids"),
            ({"question": None}, "question must be a string"),
            ({"question": ["x"]}, "question must be a string"),
            ({"question_id": {"x": 1}}, "question_id must be a string"),
            ({"question_id": None}, "question_id must be a string"),
            ({"question_id": True}, "question_id must be a string"),
            ({"question_id": 1.5}, "question_id must be a string"),
        ],
    )
    def test_malformed_line_is_parse_error(self, tmp_path, record, message):
        if isinstance(record, dict):
            base = {"question_id": "q", "question": "x", "gold_object_ids": ["t"]}
            record = dict(base, **record)
        path = self.write(tmp_path, [json.dumps(record)])
        with pytest.raises(ParseError, match=message) as info:
            load_questions(path)
        assert f"{path} line 1" in str(info.value)


QUESTIONS = [
    Question("q1", "paris population", ("t1",)),
    Question("q2", "france area", ("t2",)),
]


class TestRunEval:
    def test_all_methods_produce_rows(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        results = run_eval(engine, QUESTIONS)
        assert set(results) == set(METHODS)
        for res in results.values():
            assert len(res.rows) == 2
            assert [r.question_id for r in res.rows] == ["q1", "q2"]

    def test_macro_means_recompute(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        results = run_eval(engine, QUESTIONS, methods=("dense", "arm"))
        for res in results.values():
            n = len(res.rows)
            assert res.precision == pytest.approx(
                sum(r.precision for r in res.rows) / n, abs=1e-12
            )
            assert res.recall == pytest.approx(
                sum(r.recall for r in res.rows) / n, abs=1e-12
            )
            assert res.f1 == pytest.approx(
                sum(r.f1 for r in res.rows) / n, abs=1e-12
            )
            assert res.perfect_recall_pct == pytest.approx(
                100.0 * sum(r.perfect_recall for r in res.rows) / n, abs=1e-12
            )

    def test_call_accounting(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        results = run_eval(
            engine, QUESTIONS, methods=("dense", "rerank", "dense-decomp", "arm")
        )
        assert results["dense"].avg_llm_calls == 0.0
        assert results["rerank"].avg_llm_calls == 0.0
        assert results["dense-decomp"].avg_llm_calls == 1.0
        assert results["arm"].avg_llm_calls == 1.0

    def test_top_k_override(self, city_corpus):
        engine = RetrievalEngine(city_corpus, config=Config(final_k=1))
        results = run_eval(engine, QUESTIONS, methods=("dense",))
        assert all(len(r.retrieved) == 1 for r in results["dense"].rows)

    def test_gold_validation(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        with pytest.raises(EmptyGold):
            run_eval(engine, [Question("q", "x", ())], methods=("dense",))
        with pytest.raises(UnknownGoldId, match="zz"):
            run_eval(engine, [Question("q", "x", ("zz",))], methods=("dense",))
        with pytest.raises(ValidationError):
            run_eval(engine, [], methods=("dense",))

    def test_unknown_method(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        with pytest.raises(ValidationError, match="sparta"):
            build_runner("sparta", engine, 5)
        with pytest.raises(ValidationError):
            run_eval(engine, QUESTIONS, methods=("sparta",))
        # run_eval and the CLI answer arm through engine.run_arm themselves
        with pytest.raises(ValidationError, match="'arm'"):
            build_runner("arm", engine, 5)


class TestBlankQuestion:
    @pytest.mark.parametrize("method", [m for m in METHODS if m != "arm"])
    def test_every_runner_rejects_a_blank_question(self, planted_engine, method):
        engine, _ = planted_engine
        runner = build_runner(method, engine, engine.config.final_k)
        for text in ("", "  ", "\t\n"):
            with pytest.raises(ValidationError, match="question is empty"):
                runner(Question("q", text, ("d00",)))
        with pytest.raises(ValidationError, match="question is empty"):
            engine.run_arm("  ")


class TestReports:
    def results(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        return run_eval(engine, QUESTIONS, methods=("dense", "arm"))

    def test_json_shape(self, city_corpus):
        text = eval_to_json(self.results(city_corpus))
        payload = json.loads(text)
        assert payload["version"] == 1
        assert sorted(payload["methods"]) == ["arm", "dense"]
        row = payload["methods"]["dense"]["rows"][0]
        assert set(row) == {
            "question_id",
            "retrieved",
            "precision",
            "recall",
            "f1",
            "perfect_recall",
            "llm_calls",
            "objects_provided",
        }
        assert text.endswith("\n")
        assert eval_to_json(self.results(city_corpus)) == text  # stable

    def test_csv_shape(self, city_corpus):
        text = eval_to_csv(self.results(city_corpus))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "method,precision,recall,f1,perfect_recall_pct,"
            "avg_llm_calls,avg_objects"
        )
        assert [line.split(",")[0] for line in lines[1:]] == ["arm", "dense"]
        for line in lines[1:]:
            assert re.fullmatch(
                r"[a-z-]+(,\d+\.\d{6}){6}", line
            ), line
