"""Engine wiring, staged runs, and trace output."""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import alignrag
from alignrag import info_align, pipeline, struct_align
from alignrag.baselines_eval import build_runner
from alignrag.config import Config
from alignrag.corpus import build_corpus
from alignrag.embedding import (
    FileVectorProvider,
    HashEmbeddingProvider,
    object_similarity,
)
from alignrag.errors import ConfigError, ValidationError
from alignrag.info_align import AlignedList, KeywordAlignment
from alignrag.lm import MockScorer
from alignrag.ngram_index import NGram, NGramTrie
from alignrag.pipeline import (
    RetrievalEngine,
    STAGES,
    TRACE_SCHEMA,
    build_provider,
    build_scorer,
    render_alignment,
)
import oracles
from conftest import make_passage
from planted import build_planted


class TestBuilders:
    def test_default_scorer_is_frequency_mode(self):
        scorer = build_scorer(Config())
        assert isinstance(scorer, MockScorer)
        assert scorer.seed is None
        assert scorer.context_weight == 1.0
        assert scorer.token_bias == {"<>": 1.5}

    def test_random_scorer_is_seeded(self):
        scorer = build_scorer(Config(scorer="mock-random", seed=7))
        assert scorer.seed == 7

    def test_stop_bias_override(self):
        scorer = build_scorer(Config(mock_stop_bias=2.5))
        assert scorer.token_bias == {"<>": 2.5}

    def test_hash_provider(self):
        provider = build_provider(Config(embed_dim=32, seed=4))
        assert isinstance(provider, HashEmbeddingProvider)
        assert provider.dimension == 32

    def test_file_provider(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            json.dumps({"chunk_id": "c#0", "vector": [1.0, 0.0]}) + "\n"
        )
        provider = build_provider(Config(provider="file", vector_file=str(path)))
        assert isinstance(provider, FileVectorProvider)
        assert provider.dimension == 2


class TestEngine:
    def test_prepares_artifacts(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        assert engine.corpus is city_corpus
        assert len(engine.trie) > 0
        assert engine.bm25.size == len(city_corpus.chunks)
        assert len(engine.store) == len(city_corpus.chunks)
        assert set(engine.templates) == {
            "keyword", "align", "verify", "decompose", "react",
        }

    def test_explicit_components_kept(self, city_corpus):
        scorer = MockScorer(seed=1)
        provider = HashEmbeddingProvider(dimension=16, seed=2)
        engine = RetrievalEngine(city_corpus, scorer=scorer, provider=provider)
        assert engine.scorer is scorer
        assert engine.provider is provider
        assert engine.store.dimension == 16

    @pytest.mark.parametrize(
        "overrides",
        [
            {"provider": "bogus"},
            {"scorer": "bogus"},
            {"template_files": None},
            {"final_k": 0},
            {"final_k": -2},
        ],
        ids=["provider", "scorer", "template-name", "final_k-0", "final_k-negative"],
    )
    def test_rejects_an_invalid_config(self, city_corpus, tmp_path, overrides):
        if "template_files" in overrides:
            # a readable file under a name no template has
            path = tmp_path / "template.txt"
            path.write_text("{user_question}")
            overrides = {"template_files": {"bogus": str(path)}}
        with pytest.raises(ConfigError):
            RetrievalEngine(city_corpus, config=Config(**overrides))

    def test_config_cannot_change_under_an_engine(self):
        # setting strategies to () once made run_arm's "sa" stage raise a
        # bare ValueError and its full run return no ids
        planted = build_planted()
        question = planted.questions[0].question
        engine = RetrievalEngine(planted.corpus, config=planted.config)
        with pytest.raises(dataclasses.FrozenInstanceError):
            engine.config.strategies = ()
        assert engine.config.strategies == ((1, 1), (2, 1), (1, 2))
        fresh = RetrievalEngine(planted.corpus, config=planted.config)
        for stage in ("sa", "full"):
            result = engine.run_arm(question, stage=stage)
            assert result.final
            expected = fresh.run_arm(question, stage=stage)
            assert result.to_trace("q") == expected.to_trace("q")

    def test_empty_trie_kept(self, city_corpus):
        # an empty trie is falsy, and is not to be swapped for the corpus's
        trie = NGramTrie()
        engine = RetrievalEngine(city_corpus, trie=trie)
        assert engine.trie is trie
        with pytest.raises(ValidationError, match="empty trie"):
            engine.run_arm("what is the population of paris")

    def test_relevance_map_is_clamped_best_chunk(self, city_corpus):
        engine = RetrievalEngine(city_corpus)
        relevance = engine.relevance_map(engine.provider.embed("paris"))
        assert set(relevance) == {"t1", "t2", "p1"}
        assert all(0.0 <= v <= 1.0 for v in relevance.values())
        assert relevance["p1"] > relevance["t2"]

    @staticmethod
    def clamped(cosine):
        return 0.0 if cosine <= 0.0 else (1.0 if cosine >= 1.0 else cosine)

    def test_relevance_map_matches_oracle(self, city_objects):
        corpus = build_corpus(city_objects, chunk_units=1)
        assert any(len(cs) > 1 for cs in corpus.chunks_by_object.values())
        provider = HashEmbeddingProvider(dimension=64, seed=0)
        engine = RetrievalEngine(corpus, provider=provider)
        for question in ["paris population", "lyon", "country area of france", "zz"]:
            question_vec = provider.embed(question)
            relevance = engine.relevance_map(question_vec)
            assert list(relevance) == sorted(obj.id for obj in corpus.objects)
            for oid, chunks in corpus.chunks_by_object.items():
                best = max(
                    oracles.cosine_np(question_vec, oracles.hash_embed(c.text, 0, 64))
                    for c in chunks
                )
                assert repr(relevance[oid]) == repr(self.clamped(best))

    def test_relevance_map_clamps_negative_cosines(self, tmp_path):
        # against the question [-1, 0], "neg" has a negative cosine and
        # "orth" a zero one
        objects = [
            make_passage("neg", "a", ["b"]),
            make_passage("orth", "c", ["d"]),
            make_passage("pos", "e", ["f"]),
            make_passage("same", "g", ["h"]),
        ]
        corpus = build_corpus(objects)
        vectors = {
            "neg#0": [1.0, 0.5],
            "orth#0": [0.0, 1.0],
            "pos#0": [-0.5, 0.25],
            "same#0": [-2.0, 0.0],
            "q": [-1.0, 0.0],
        }
        assert {c.chunk_id for c in corpus.chunks} == set(vectors) - {"q"}
        path = tmp_path / "vectors.jsonl"
        path.write_text(
            "".join(
                json.dumps({"chunk_id": key, "vector": vector}) + "\n"
                for key, vector in vectors.items()
            )
        )
        provider = FileVectorProvider(str(path))
        engine = RetrievalEngine(corpus, provider=provider)
        relevance = engine.relevance_map(provider.embed("q"))
        for oid, chunks in corpus.chunks_by_object.items():
            best = max(
                oracles.cosine_np(vectors["q"], vectors[c.chunk_id]) for c in chunks
            )
            assert repr(relevance[oid]) == repr(self.clamped(best))
        assert repr(relevance["neg"]) == repr(relevance["orth"]) == "0.0"
        assert 0.0 < relevance["pos"] < 1.0
        assert relevance["same"] == 1.0

    def test_relevance_map_turns_signed_zero_positive(self, city_corpus, monkeypatch):
        # a dot product of signed zeros can sum to -0.0, depending on the
        # BLAS; relevance reads it as 0.0, as clamping a float does
        engine = RetrievalEngine(city_corpus)
        sims = np.array([-0.0, -0.25, 1.5])
        monkeypatch.setattr(pipeline, "object_similarity", lambda store, vec: sims)
        relevance = engine.relevance_map(engine.provider.embed("paris"))
        assert [repr(v) for v in relevance.values()] == ["0.0", "0.0", "1.0"]


class TestWorkDoneOnce:
    """On one engine, over the ``synth-1k`` seed-7 questions after the
    first: each distinct (draft, beam) is verified once, the unit index
    scores rows at most once per expansion round depth, a draft's
    connections take at most one scoring pass, and there is no other."""

    def test_counts(self, synth_engine, monkeypatch):
        engine, questions = synth_engine
        engine.run_arm(questions[0].question)
        counts = dict.fromkeys(("verify", "rows", "connections", "passes"), 0)
        watched = [
            (pipeline, "verify_select", "verify"),
            (struct_align._UnitIndex, "rows", "rows"),
            (struct_align._UnitIndex, "witnesses", "connections"),
            (struct_align._UnitIndex, "_pairs", "passes"),
        ]
        for owner, name, key in watched:

            def counted(*args, _inner=getattr(owner, name), _key=key, **kwargs):
                counts[_key] += 1
                return _inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        # depth 0, the base set, then one per round
        depths = 1 + max(steps for _, steps in engine.config.strategies)
        branches = verified = 0
        for question in questions[1:]:
            counts.update(dict.fromkeys(counts, 0))
            result = engine.run_arm(question.question)
            beams = len(result.selections) // len(result.drafts)
            distinct = len(set(result.drafts))
            assert counts["verify"] == distinct * beams
            assert counts["rows"] <= depths
            assert counts["connections"] <= distinct
            assert counts["passes"] == counts["rows"] + counts["connections"]
            # a repeated draft keeps its own branch names and the first
            # occurrence's serialization and selections
            first = {}
            for si, draft in enumerate(result.drafts):
                first.setdefault(draft, si)
                assert result.serialized[si] is result.serialized[first[draft]]
                for bi in range(beams):
                    selection = result.selections[si * beams + bi]
                    origin = result.selections[first[draft] * beams + bi]
                    assert selection.branch == f"s{si}b{bi}"
                    assert (selection.selected, selection.weights) == (
                        origin.selected,
                        origin.weights,
                    )
            branches += len(result.selections)
            verified += counts["verify"]
        assert verified < branches


def test_unit_index_keeps_no_question_state(synth_engine):
    """Answering the ``synth-1k`` questions on one engine leaves the unit
    index's attributes as the first question left them: the same names,
    and every array the same in dtype, shape and bytes. No attribute is a
    mutable container, which could empty itself between questions."""
    engine, questions = synth_engine

    def state(index):
        """Each attribute's arrays, a sparse layout's by field, as (dtype,
        shape, bytes); any other value as itself."""
        out = {}
        for name, value in vars(index).items():
            assert not isinstance(value, (dict, list, set)), name
            parts = [value]
            if dataclasses.is_dataclass(value):
                parts = [getattr(value, f.name) for f in dataclasses.fields(value)]
            out[name] = [
                (part.dtype, part.shape, part.tobytes())
                if isinstance(part, np.ndarray)
                else part
                for part in parts
            ]
        return out

    engine.run_arm(questions[0].question)
    index = engine.cache._index
    first = state(index)
    for question in questions[1:]:
        engine.run_arm(question.question)
    assert engine.cache._index is index
    assert state(index) == first


class TestCompatibilityCost:
    def test_expansion_and_instances_read_rows(self, monkeypatch):
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        calls = []
        original = struct_align.compatibility

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return original(*args, **kwargs)

        monkeypatch.setattr(struct_align, "compatibility", counted)
        for question in bench.questions[:3]:
            result = engine.run_arm(question.question, stage="sa")
            assert result.drafts
        # stage "sa" stops after expand_base, build_mip_instance and solve_mip
        assert calls == []

    @pytest.mark.parametrize(
        "stage_fn, owner, watched",
        [
            # expansion picks from rows, never pair by pair
            pytest.param(
                "expand_base",
                struct_align.CompatibilityCache,
                "score",
                id="expansion-score",
            ),
            # expansion has filled the row of every search-set member
            pytest.param(
                "build_mip_instance", struct_align._UnitIndex, "rows", id="instance-rows"
            ),
        ],
    )
    def test_no_compatibility_call_inside(self, monkeypatch, stage_fn, owner, watched):
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        inside = []
        calls = []
        inner, outer = getattr(owner, watched), getattr(pipeline, stage_fn)

        def counted(*args):
            if inside:
                calls.append(args[1:])
            return inner(*args)

        def traced(*args, **kwargs):
            inside.append(True)
            try:
                return outer(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(owner, watched, counted)
        monkeypatch.setattr(pipeline, stage_fn, traced)
        for question in bench.questions:
            result = engine.run_arm(question.question, stage="sa")
            assert result.search_sets and result.drafts
        assert calls == []

    def test_alignment_stage_embeds_only_the_question(self, monkeypatch):
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        embedded = []
        embed = engine.provider.embed

        def counted(text):
            embedded.append(text)
            return embed(text)

        monkeypatch.setattr(engine.provider, "embed", counted)
        question = bench.questions[0].question
        engine.run_arm(question, stage="ia")
        assert embedded == [question]

    @pytest.mark.parametrize("stage", ["sa", "full"])
    def test_structure_stages_score_the_question_once(self, monkeypatch, stage):
        # base fusion and the structure stage weigh one relevance array
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        embedded, scored, weighed = [], [], []
        embed = engine.provider.embed
        build = pipeline.build_mip_instance

        def counted_embed(text):
            embedded.append(text)
            return embed(text)

        def counted_similarity(store, question_vec):
            scored.append(question_vec)
            return object_similarity(store, question_vec)

        def recording_build(ids, relevance, *args):
            weighed.append(relevance)
            return build(ids, relevance, *args)

        monkeypatch.setattr(engine.provider, "embed", counted_embed)
        for module in (info_align, pipeline):
            monkeypatch.setattr(module, "object_similarity", counted_similarity)
        monkeypatch.setattr(pipeline, "build_mip_instance", recording_build)
        question = bench.questions[0].question
        engine.run_arm(question, stage=stage)
        assert embedded.count(question) == 1 and len(scored) == 1
        want = engine.relevance_map(embed(question))
        assert weighed and all(relevance == want for relevance in weighed)


# answers one full question and one alignment-only question with every
# baseline on the planted engine, in a fresh interpreter
QUESTION_PATH = """
import sys
from alignrag.baselines_eval import build_runner
from alignrag.pipeline import RetrievalEngine
from planted import build_planted

bench = build_planted()
engine = RetrievalEngine(bench.corpus, config=bench.config)
question = bench.questions[0]
full = engine.run_arm(question.question, stage="full")
engine.run_arm(question.question, stage="ia")
for method in ("dense", "rerank", "dense-decomp", "rerank-decomp", "react"):
    build_runner(method, engine, engine.config.final_k)(question)
print(len(full.search_sets), "numpy.ma" in sys.modules)
"""


class TestImports:
    def test_questions_do_not_import_numpy_ma(self):
        """NumPy 2.4's ``np.unique`` without a ``return_*`` flag imports
        ``numpy.ma`` (and ``inspect``) on first use, 10–15 ms and 1.5 MB of
        resident memory on a 2-CPU x86 host; no question path of a fresh
        process may pay that."""
        paths = [Path(alignrag.__file__).parent.parent, Path(__file__).parent]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
        done = subprocess.run(
            [sys.executable, "-c", QUESTION_PATH],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        n_sets = len(build_planted().config.strategies)
        assert done.stdout.split() == [str(n_sets), "False"]


class ForwardingScorer:
    """Exposes only the scorer protocol, as the benchmark's counting
    wrapper does, so a wide row's ids reach ``score`` as tokens; counts
    score calls and candidates."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.calls = self.candidates = 0

    def tokenize(self, text):
        return self._inner.tokenize(text)

    def score(self, context, candidates):
        self.calls += 1
        self.candidates += len(candidates)
        return self._inner.score(context, candidates)

    def free_next(self, context):
        self.calls += 1
        return self._inner.free_next(context)


class CountedMockScorer(MockScorer):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.calls = self.candidates = self.id_calls = 0

    def score(self, context, candidates):
        self.calls += 1
        self.candidates += len(candidates)
        return super().score(context, candidates)

    def score_ids(self, context, ids, vocab):
        self.calls += 1
        self.candidates += len(ids)
        self.id_calls += 1
        return super().score_ids(context, ids, vocab)


class TestScorerProtocol:
    @pytest.mark.parametrize("scorer_kind", ["mock", "mock-random"])
    def test_protocol_only_wrapper_changes_nothing(self, scorer_kind):
        bench = build_planted()
        config = dataclasses.replace(bench.config, scorer=scorer_kind)
        built = build_scorer(config)
        bare = CountedMockScorer(
            seed=built.seed,
            context_weight=built.context_weight,
            token_bias=built.token_bias,
        )
        wrapped = ForwardingScorer(build_scorer(config))
        results = []
        for scorer in (bare, wrapped):
            engine = RetrievalEngine(bench.corpus, config=config, scorer=scorer)
            results.append(
                [engine.run_arm(q.question, stage="full") for q in bench.questions]
            )
        assert results[0] == results[1]
        assert all(r.selections for r in results[0])
        assert (bare.calls, bare.candidates) == (wrapped.calls, wrapped.candidates)
        assert bare.calls > 0
        assert bare.id_calls > 0  # the bare scorer decodes wide nodes by id


class TestRunArm:
    QUESTION = "paris population"

    def engine(self, **overrides):
        from alignrag.corpus import build_corpus
        from conftest import make_passage, make_table

        objects = [
            make_table(
                "t1",
                "city populations",
                ["city", "pop"],
                [["paris", "2m"], ["lyon", "500k"]],
            ),
            make_table(
                "t2", "country areas", ["country", "area"], [["france", "643"]]
            ),
            make_passage(
                "p1",
                "paris overview",
                ["paris is the capital of france.", "lyon is smaller."],
            ),
        ]
        return RetrievalEngine(build_corpus(objects), config=Config(**overrides))

    def test_stage_validation(self):
        with pytest.raises(ValidationError):
            self.engine().run_arm(self.QUESTION, stage="retrieval")

    def test_ia_stage_is_base_cut(self):
        result = self.engine().run_arm(self.QUESTION, stage="ia")
        assert result.stage == "ia"
        assert result.final == [e.object_id for e in result.base][: len(result.final)]
        assert result.search_sets == [] and result.drafts == []
        assert result.selections == [] and result.confidence == []

    def test_sa_stage_ranks_best_draft(self):
        engine = self.engine()
        result = engine.run_arm(self.QUESTION, stage="sa")
        assert result.stage == "sa"
        assert len(result.drafts) == len(engine.config.strategies)
        best = max(result.drafts, key=lambda d: d.objective)
        assert set(result.final) <= set(best.object_ids)
        assert result.serialized == [] and result.selections == []

    def test_full_stage_branches_and_votes(self):
        engine = self.engine()
        result = engine.run_arm(self.QUESTION)
        assert result.stage == "full"
        n_beams = max(len(al.lists) for al in result.alignments) or 1
        assert len(result.selections) == len(result.drafts) * n_beams
        branches = {sel.branch for sel in result.selections}
        assert f"s0b0" in branches
        assert len(branches) == len(result.selections)
        assert result.final == [e.object_id for e in result.confidence][
            : len(result.final)
        ]
        assert result.llm_calls == 1
        confidences = [e.confidence for e in result.confidence]
        assert confidences == sorted(confidences, reverse=True)

    def test_draft_k_shrinks_to_search_set(self):
        engine = self.engine(mip_k=5)  # corpus has only 3 objects
        result = engine.run_arm(self.QUESTION, stage="sa")
        for search_set, draft in zip(result.search_sets, result.drafts):
            expect_k = min(5, len(search_set.object_ids))
            assert len(draft.object_ids) == expect_k

    @pytest.mark.parametrize("stage", STAGES)
    @pytest.mark.parametrize("final_k", [0, -3])
    def test_final_k_below_one_rejected_up_front(self, stage, final_k):
        # no config, and so no engine, holds a bad final_k for run_arm to read
        with pytest.raises(ConfigError, match="final_k must be an integer >= 1"):
            self.engine(final_k=final_k).run_arm(self.QUESTION, stage=stage)

    def test_final_k_override(self):
        result = self.engine(final_k=1).run_arm(self.QUESTION)
        assert len(result.final) == 1

    def test_deterministic_across_fresh_engines(self):
        trace_a = self.engine().run_arm(self.QUESTION).to_trace("q0")
        trace_b = self.engine().run_arm(self.QUESTION).to_trace("q0")
        assert trace_a == trace_b

    def test_seeded_random_scorer_deterministic(self):
        kwargs = dict(scorer="mock-random", seed=11)
        trace_a = self.engine(**kwargs).run_arm(self.QUESTION).to_trace("q0")
        trace_b = self.engine(**kwargs).run_arm(self.QUESTION).to_trace("q0")
        assert trace_a == trace_b

    def test_traces_validate_against_schema(self):
        engine = self.engine()
        for stage in STAGES:
            trace = engine.run_arm(self.QUESTION, stage=stage).to_trace("q0")
            jsonschema.validate(instance=trace, schema=TRACE_SCHEMA)
            assert trace["stage"] == stage
            json.dumps(trace)  # JSON-serializable end to end

    def test_trace_pairs_drafts_with_strategies(self):
        engine = self.engine()
        trace = engine.run_arm(self.QUESTION).to_trace("q0")
        strategies = [tuple(d["strategy"]) for d in trace["drafts"]]
        assert strategies == list(engine.config.strategies)


# the path to the first of each kind of record in a full trace
TRACE_RECORDS = {
    "trace": (),
    "alignment": ("alignments", 0),
    "beam step": ("alignments", 0, "beams", 0, 0),
    "base": ("base", 0),
    "draft": ("drafts", 0),
    "selection": ("selections", 0),
    "confidence": ("confidence", 0),
}


class TestTraceSchema:
    @pytest.fixture(scope="class")
    def trace(self):
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        question = bench.questions[0]
        trace = engine.run_arm(question.question).to_trace(question.question_id)
        jsonschema.validate(instance=trace, schema=TRACE_SCHEMA)
        return trace

    @staticmethod
    def record(trace: dict, path: tuple) -> dict:
        for step in path:
            trace = trace[step]
        return trace

    @pytest.mark.parametrize("path", TRACE_RECORDS.values(), ids=list(TRACE_RECORDS))
    def test_every_record_field_is_required(self, trace, path):
        fields = list(self.record(trace, path))
        assert fields
        for field in fields:
            broken = copy.deepcopy(trace)
            del self.record(broken, path)[field]
            with pytest.raises(jsonschema.ValidationError, match=field):
                jsonschema.validate(instance=broken, schema=TRACE_SCHEMA)

    @pytest.mark.parametrize("path", TRACE_RECORDS.values(), ids=list(TRACE_RECORDS))
    def test_no_record_takes_an_unknown_key(self, trace, path):
        broken = copy.deepcopy(trace)
        self.record(broken, path)["unknown"] = 0
        with pytest.raises(jsonschema.ValidationError, match="unknown"):
            jsonschema.validate(instance=broken, schema=TRACE_SCHEMA)


class TestCorpusOrder:
    def test_answers_do_not_depend_on_object_order(self):
        # ties rank by id and a cosine's bits depend on the chunk's store
        # row, so the store must lay objects out the same way for any order
        bench = build_planted()
        objects = list(bench.corpus.objects)
        shuffled = objects[:]
        random.Random(20).shuffle(shuffled)
        answers = []
        for order in (objects, objects[::-1], shuffled):
            engine = RetrievalEngine(build_corpus(order), config=bench.config)
            runners = {m: build_runner(m, engine, 5) for m in ("dense", "rerank")}
            answers.append(
                {
                    q.question_id: (
                        json.dumps(engine.run_arm(q.question).to_trace(q.question_id)),
                        {m: run(q)[0] for m, run in runners.items()},
                    )
                    for q in bench.questions
                }
            )
        assert len(answers[0]) == 20
        for other in answers[1:]:
            for qid, answer in answers[0].items():
                assert other[qid] == answer, qid


class TestRenderAlignment:
    def alignment(self, keyword, *gram_texts):
        grams = tuple(NGram(tuple(t.split())) for t in gram_texts)
        return KeywordAlignment(
            keyword=keyword,
            lists=(AlignedList(ngrams=grams, scores=(1.0,) * len(grams)),),
        )

    def test_format(self):
        text = render_alignment(
            [self.alignment("city pop", "city populations", "pop")], 0
        )
        assert text == "city pop ( city populations, pop )"

    def test_multiple_keywords_joined(self):
        text = render_alignment(
            [self.alignment("a", "x"), self.alignment("b", "y")], 0
        )
        assert text == "a ( x ) b ( y )"

    def test_beam_index_clamps_to_last_list(self):
        alignment = KeywordAlignment(
            keyword="kw",
            lists=(
                AlignedList(ngrams=(NGram(("first",)),), scores=(1.0,)),
                AlignedList(ngrams=(NGram(("second",)),), scores=(0.5,)),
            ),
        )
        assert render_alignment([alignment], 1) == "kw ( second )"
        assert render_alignment([alignment], 9) == "kw ( second )"

    def test_empty_alignments_skipped(self):
        empty = KeywordAlignment(keyword="kw", lists=())
        assert render_alignment([empty], 0) == ""
        assert render_alignment([empty, self.alignment("a", "x")], 0) == "a ( x )"
