"""Draft serialization, constrained verification, and vote aggregation."""

from __future__ import annotations

import dataclasses
import math
import random
import re
from collections import Counter

import pytest

import oracles
from alignrag import prompts
from alignrag.corpus import build_corpus
from alignrag.embedding import HashEmbeddingProvider
from alignrag.errors import ValidationError
from alignrag.lm import MockScorer, STOP_TOKEN
from alignrag.pipeline import RetrievalEngine, render_alignment
from alignrag.struct_align import (
    CompatibilityCache,
    Connection,
    ConnectionKind,
    Draft,
    Endpoint,
)
from alignrag.verify_agg import (
    BeamSelection,
    ConfidenceEntry,
    aggregate,
    finalize,
    render_connection,
    serialize_draft,
    verify_select,
)
from conftest import make_passage, make_table
from planted import EMBED_DIM, HASH_SEED, build_planted

PROVIDER = HashEmbeddingProvider(dimension=64, seed=0)


def frequency_scorer() -> MockScorer:
    return MockScorer(context_weight=1.0, token_bias={STOP_TOKEN: 1.5})


class TestRenderConnection:
    def test_join_column(self, city_corpus):
        conn = Connection(
            kind=ConnectionKind.JOIN_COLUMN,
            a=Endpoint("t1", "city"),
            b=Endpoint("t2", "country"),
            score=0.5,
        )
        assert render_connection(conn, city_corpus) == (
            "column city in t1 connects with column country in t2"
        )

    def test_entity_link(self, city_corpus):
        conn = Connection(
            kind=ConnectionKind.ENTITY_LINK,
            a=Endpoint("t1", (0, 0)),
            b=Endpoint("p1", 0),
            score=0.5,
        )
        assert render_connection(conn, city_corpus) == (
            "paris in t1 connects with paris is the capital of france. in p1"
        )

    def test_sentence_link(self):
        corpus = build_corpus(
            [
                make_passage("pa", "first", ["one sentence."]),
                make_passage("pb", "second", ["another sentence."]),
            ]
        )
        conn = Connection(
            kind=ConnectionKind.SENTENCE_LINK,
            a=Endpoint("pa", 0),
            b=Endpoint("pb", 0),
            score=0.5,
        )
        assert render_connection(conn, corpus) == (
            "one sentence. in pa connects with another sentence. in pb"
        )


class TestSerializeDraft:
    def draft(self):
        return Draft(
            object_ids=("p1", "t1", "t2"),
            connections=(("p1", "t1"),),
            objective=2.0,
        )

    def test_objects_ordered_by_relevance_then_id(self, city_corpus):
        sdraft = serialize_draft(
            self.draft(),
            {"t1": 0.9, "p1": 0.5, "t2": 0.5},
            city_corpus,
            PROVIDER,
            PROVIDER.embed("paris"),
        )
        assert sdraft.object_ids == ("t1", "p1", "t2")
        assert sdraft.object_lines[0] == (
            "t1 | city populations | city | pop | paris | 2m | lyon | 500k"
        )
        assert sdraft.object_lines[1] == (
            "p1 | paris overview | paris is the capital of france. | lyon is smaller."
        )

    def test_connection_lines_from_cache(self, city_corpus):
        cache = CompatibilityCache(city_corpus, PROVIDER)
        sdraft = serialize_draft(
            self.draft(),
            {},
            city_corpus,
            PROVIDER,
            PROVIDER.embed("paris"),
            cache=cache,
        )
        # lyon cell <-> short lyon sentence is the strongest t1/p1 pair
        assert sdraft.connection_lines == (
            "lyon in t1 connects with lyon is smaller. in p1",
        )
        assert sdraft.text == "\n".join(
            sdraft.object_lines + sdraft.connection_lines
        )

    def test_without_cache_no_connection_lines(self, city_corpus):
        sdraft = serialize_draft(
            self.draft(), {}, city_corpus, PROVIDER, PROVIDER.embed("paris")
        )
        assert sdraft.connection_lines == ()
        assert sdraft.text == "\n".join(sdraft.object_lines)

    def test_unit_k_keeps_most_question_like_units(self, city_corpus):
        draft = Draft(object_ids=("t1",), connections=(), objective=1.0)
        sdraft = serialize_draft(
            draft,
            {},
            city_corpus,
            PROVIDER,
            PROVIDER.embed("lyon"),
            unit_k=1,
        )
        assert sdraft.object_lines == (
            "t1 | city populations | city | pop | lyon | 500k",
        )

    def test_kept_units_rank_each_object_once(self, city_corpus):
        class CountingProvider:
            name = "counting"
            dimension = PROVIDER.dimension

            def __init__(self):
                self.texts = []

            def embed(self, text):
                self.texts.append(text)
                return PROVIDER.embed(text)

        question_vec = PROVIDER.embed("paris")
        drafts = [
            self.draft(),
            Draft(object_ids=("t1", "t2"), connections=(), objective=1.0),
            Draft(object_ids=("p1",), connections=(), objective=0.5),
        ]
        plain_provider, kept_provider = CountingProvider(), CountingProvider()
        kept: dict = {}
        for draft in drafts:
            plain = serialize_draft(
                draft, {}, city_corpus, plain_provider, question_vec, unit_k=1
            )
            memo = serialize_draft(
                draft,
                {},
                city_corpus,
                kept_provider,
                question_vec,
                unit_k=1,
                kept_units=kept,
            )
            assert memo == plain
        # t2's one row is kept without ranking
        units = sum(city_corpus.by_id[oid].units for oid in ("p1", "t1"))
        assert len(kept_provider.texts) == units
        assert len(plain_provider.texts) > units
        assert set(kept) == {"p1", "t1", "t2"}

    def test_objects_within_unit_k_embed_nothing(self, city_corpus):
        class RefusingProvider:
            name = "refusing"
            dimension = PROVIDER.dimension

            def embed(self, text):
                raise AssertionError(f"embedded {text!r}")

        provider = RefusingProvider()
        question_vec = PROVIDER.embed("q")
        sdraft = serialize_draft(
            self.draft(), {}, city_corpus, provider, question_vec, unit_k=2
        )
        assert sdraft.object_lines == (
            "p1 | paris overview | paris is the capital of france. | lyon is smaller.",
            "t1 | city populations | city | pop | paris | 2m | lyon | 500k",
            "t2 | country areas | country | area | france | 643",
        )

    @pytest.mark.parametrize("unit_k", [1, 2, 3])
    def test_unit_ranking_matches_dense_oracle(self, unit_k):
        # kept units are the unit_k of highest dense cosine with the
        # question, ties by position; planted tokens sit in distinct
        # buckets, so most cosines are exactly 0 and ties are common
        bench = build_planted()
        provider = HashEmbeddingProvider(dimension=EMBED_DIM, seed=HASH_SEED)
        objects = [o for o in bench.corpus.objects if o.units > unit_k]
        draft = Draft(tuple(o.id for o in objects), (), 0.0)
        checked = 0
        for q in bench.questions:
            qv = provider.embed(q.question)
            kept: dict = {}
            serialize_draft(
                draft, {}, bench.corpus, provider, qv, unit_k=unit_k, kept_units=kept
            )
            for obj in objects:
                texts = [" | ".join(r) for r in obj.rows] or list(obj.sentences)
                vecs = [oracles.hash_embed(t, HASH_SEED, EMBED_DIM) for t in texts]
                sims = [min(1.0, oracles.cosine_np(qv, v)) for v in vecs]
                ranked = sorted(range(len(texts)), key=lambda i: (-sims[i], i))
                assert kept[obj.id] == sorted(ranked[:unit_k])
                checked += 1
        assert checked >= 20 * len(bench.questions)

    def test_table_description_rendered(self):
        corpus = build_corpus(
            [
                make_table(
                    "t9", "named", ["c"], [["v"]], description="about things"
                )
            ]
        )
        draft = Draft(object_ids=("t9",), connections=(), objective=1.0)
        sdraft = serialize_draft(
            draft, {}, corpus, PROVIDER, PROVIDER.embed("q")
        )
        assert sdraft.object_lines == ("t9 | named | about things | c | v",)

    def test_unit_k_validated(self, city_corpus):
        with pytest.raises(ValidationError):
            serialize_draft(
                self.draft(),
                {},
                city_corpus,
                PROVIDER,
                PROVIDER.embed("q"),
                unit_k=0,
            )


def toy_sdraft(text: str, *ids: str):
    from alignrag.verify_agg import SerializedDraft

    return SerializedDraft(
        text=text, object_ids=tuple(ids), object_lines=(), connection_lines=()
    )


class TestVerifySelect:
    def test_scripted_selection_and_weights(self):
        scorer = MockScorer()
        scorer.add_rule(("selected",), ["t1"])
        scorer.add_rule(("selected", "t1"), ["p1"])
        scorer.add_rule(("selected", "t1", "p1"), [STOP_TOKEN])
        sel = verify_select(
            scorer, "q", ["kw"], toy_sdraft("body", "t1", "p1", "t2"), branch="s0b1"
        )
        assert sel.branch == "s0b1"
        assert sel.selected == ("t1", "p1")
        assert sel.weights == {"t1": 1001.0, "p1": 1001.0}

    def test_stop_after_first_pick(self):
        scorer = MockScorer()
        scorer.add_rule(("selected",), ["p1"])
        scorer.add_rule(("selected", "p1"), [STOP_TOKEN])
        sel = verify_select(scorer, "q", [], toy_sdraft("body", "t1", "p1"))
        assert sel.selected == ("p1",)

    def test_frequency_scorer_keeps_repeated_ids(self):
        sdraft = toy_sdraft("t1 is listed here and t1 again\np1 once", "t1", "p1")
        sel = verify_select(frequency_scorer(), "q", [], sdraft)
        assert sel.selected == ("t1",)
        assert sel.weights["t1"] == 2.0  # its mention count in the prompt

    def test_always_selects_at_least_one(self):
        for seed in range(50):
            scorer = MockScorer(seed=seed)
            sdraft = toy_sdraft("body text", "a", "b", "c")
            sel = verify_select(scorer, "q", [], sdraft)
            assert len(sel.selected) >= 1
            assert set(sel.selected) <= {"a", "b", "c"}
            assert set(sel.weights) == set(sel.selected)

    def test_empty_draft_rejected(self):
        with pytest.raises(ValidationError):
            verify_select(MockScorer(), "q", [], toy_sdraft("text"))

    def test_template_is_parsed_once(self):
        template = "pick one: {selected} from {draft}"
        assert prompts.split_selected(template) is prompts.split_selected(template)
        # an error is not cached: a bad template raises on every call
        for _ in range(2):
            with pytest.raises(ValueError, match="whitespace"):
                prompts.split_selected("pick:{selected}")


def synth_style_draft(rng: random.Random):
    """A draft shaped like a synthetic-corpus one: chain and distractor ids,
    object lines that start with their id and mention others, connection
    lines that name two ids; ids recur, so their counts differ. Some ids
    are two tokens that share their first, so a pick changes the counts
    the next pick reads."""
    size = rng.randint(1, 6)
    ids = sorted(
        {
            rng.choice(("", "", "x7 ", "code "))
            + f"{rng.choice('abpt')}{rng.randrange(40):04d}"
            for _ in range(size)
        }
    )
    words = ["code", "river", "x7", "population", "rank", "bridge", "|", "in"]
    lines = [
        " | ".join([oid] + [rng.choice(words + ids) for _ in range(rng.randint(2, 9))])
        for oid in ids
    ]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(ids), rng.choice(ids)
        lines.append(f"column code in {a} connects with column code in {b}")
    keywords = [" ".join(rng.sample(words, 2)) for _ in range(rng.randint(1, 3))]
    return toy_sdraft("\n".join(lines), *ids), keywords


SCORERS = [  # (context weight, stop bias, seed)
    (1.0, 1.5, None),
    (1.0, 1.5, 0),
    (0.5, -0.0, 3),
    (-1.0, 2.0, None),
    (2.5, 0.0, 11),
]


def assert_matches_reference(
    sel, reference, template, question, keywords, sdraft, alignment
):
    fields = {
        "user_question": question,
        "keywords": " | ".join(keywords),
        "alignment": alignment,
        "draft": sdraft.text,
    }
    want = oracles.verify_select_reference(
        reference, template or prompts.VERIFY_TEMPLATE, fields, sdraft.object_ids
    )
    assert (sel.selected, repr(sel.weights)) == (want[0], repr(want[1]))


def check_against_reference(
    scorer_args, template, question, keywords, sdraft, alignment
):
    weight, stop_bias, seed = scorer_args
    scorer = MockScorer(
        seed=seed, context_weight=weight, token_bias={STOP_TOKEN: stop_bias}
    )
    reference = oracles.CountingScorerReference(weight, {STOP_TOKEN: stop_bias}, seed)
    sel = verify_select(
        scorer, question, keywords, sdraft, alignment_text=alignment, template=template
    )
    assert_matches_reference(
        sel, reference, template, question, keywords, sdraft, alignment
    )


CUSTOM_TEMPLATES = {
    "middle": "question: {user_question} selected: {selected} candidates: {draft} "
    "keywords: {keywords} aligned: {alignment} pick:",
    "absent": "question: {user_question} candidates: {draft} pick one:",
    "twice": "{selected} question: {user_question} {draft} so far:\t{selected}\nnext",
    "lines": "{draft}\n{selected}",
    "braces": "x{{y}}z {draft} {{ {selected} }}w{{v",
}


class TestVerifyAgainstReference:
    """verify_select tokenizes the prompt's fixed text once and extends it
    by each pick; the reference formats and tokenizes the whole prompt on
    every pick and counts the context afresh on every score."""

    @pytest.mark.parametrize("scorer_kind", ["mock", "mock-random"])
    def test_planted_selections(self, scorer_kind):
        bench = build_planted()
        config = dataclasses.replace(bench.config, scorer=scorer_kind)
        engine = RetrievalEngine(bench.corpus, config=config)
        seed = config.seed if scorer_kind == "mock-random" else None
        reference = oracles.CountingScorerReference(
            config.mock_context_weight, {STOP_TOKEN: config.mock_stop_bias}, seed
        )
        checked = 0
        for q in bench.questions:
            result = engine.run_arm(q.question, stage="full")
            for sel in result.selections:
                si, bi = map(int, sel.branch[1:].split("b"))
                alignment = render_alignment(result.alignments, bi)
                assert_matches_reference(
                    sel,
                    reference,
                    None,
                    q.question,
                    result.keywords,
                    result.serialized[si],
                    alignment,
                )
                checked += 1
        assert checked >= 3 * len(bench.questions)

    def test_each_draft_text_is_tokenized_once_per_question(self):
        bench = build_planted()
        engine = RetrievalEngine(bench.corpus, config=bench.config)
        calls: Counter = Counter()
        tokenize = engine.scorer.tokenize

        def counting(text):
            calls[text] += 1
            return tokenize(text)

        engine.scorer.tokenize = counting
        most_beams = 0
        for q in bench.questions:
            calls.clear()
            result = engine.run_arm(q.question, stage="full")
            most_beams = max(most_beams, len(result.selections) // len(result.drafts))
            for sdraft in result.serialized:
                assert calls[sdraft.text] == 1
        assert most_beams > 1  # so tokenizing per branch would count more

    @pytest.mark.parametrize("case", range(40))
    def test_synth_style_drafts(self, case):
        rng = random.Random(case)
        sdraft, keywords = synth_style_draft(rng)
        alignment = f"{keywords[0]} ( river, x7 code )"
        scorer_args = SCORERS[case % len(SCORERS)]
        check_against_reference(
            scorer_args, None, "which river code?", keywords, sdraft, alignment
        )

    @pytest.mark.parametrize("name", sorted(CUSTOM_TEMPLATES))
    @pytest.mark.parametrize("scorer_args", SCORERS)
    def test_custom_templates(self, name, scorer_args):
        template = CUSTOM_TEMPLATES[name]
        prompts.check_template("verify", template)  # the config accepts it
        for case in range(8):
            sdraft, keywords = synth_style_draft(random.Random(100 + case))
            check_against_reference(
                scorer_args, template, "which code?", keywords, sdraft, "aligned x7"
            )

    @pytest.mark.parametrize(
        "template, field",
        [
            pytest.param(t, f, id=t)
            for t, f in [
                ("selected:{selected}", "selected"),
                ("{selected}. done", "selected"),
                ("pick {draft}{selected} now", "draft"),
                ("pick {selected}{draft}", "selected"),
                ("pick {selected!r}", "selected"),
                ("pick {selected:>9}", "selected"),
            ]
        ],
    )
    def test_glued_selected_is_rejected(self, template, field):
        with pytest.raises(ValidationError, match=f"{{{field}}}"):
            verify_select(
                frequency_scorer(),
                "q",
                [],
                toy_sdraft("a1 b2", "a1"),
                template=template,
            )

    @pytest.mark.parametrize(
        "template, field",
        [
            ("{foo} {selected}", "foo"),
            ("{0} {selected}", "0"),
            ("{draft[0]} {selected}", "draft[0]"),
            ("{draft.x} {selected}", "draft.x"),
        ],
    )
    def test_field_outside_the_verify_set_is_rejected(self, template, field):
        message = re.escape(f"unknown field {{{field}}}")
        with pytest.raises(ValidationError, match=message):
            verify_select(
                frequency_scorer(),
                "q",
                [],
                toy_sdraft("a1 b2", "a1"),
                template=template,
            )


class TestAggregate:
    def make_selections(self):
        sels = [
            BeamSelection(branch=str(i), selected=("a",), weights={"a": 2.0})
            for i in range(3)
        ]
        sels.append(
            BeamSelection(branch="3", selected=("b",), weights={"b": 4.0})
        )
        return sels

    def test_frozen_fixture(self):
        entries = aggregate(self.make_selections())
        assert [e.object_id for e in entries] == ["b", "a"]
        b, a = entries
        assert a.avg_weight == 2.0 and b.avg_weight == 4.0
        assert a.weight_norm == 0.0 and b.weight_norm == 1.0
        # [frozen] softmax over vote counts 3 and 1
        assert a.count_norm == pytest.approx(0.8807970779778824, abs=1e-12)
        assert b.count_norm == pytest.approx(0.11920292202211755, abs=1e-12)
        assert a.confidence == pytest.approx(0.4403985389889412, abs=1e-12)
        assert b.confidence == pytest.approx(0.5596014610110588, abs=1e-12)

    def test_matches_direct_arithmetic(self):
        entries = {e.object_id: e for e in aggregate(self.make_selections())}
        e3, e1 = math.exp(3), math.exp(1)
        assert entries["a"].count_norm == pytest.approx(e3 / (e3 + e1), abs=1e-12)
        assert entries["b"].confidence == pytest.approx(
            0.5 * 1.0 + 0.5 * e1 / (e3 + e1), abs=1e-12
        )

    def test_weight_span_zero_normalizes_to_one(self):
        sels = [
            BeamSelection(branch="0", selected=("a",), weights={"a": 1.0}),
            BeamSelection(branch="1", selected=("b",), weights={"b": 1.0}),
        ]
        entries = aggregate(sels)
        assert all(e.weight_norm == 1.0 for e in entries)
        assert all(e.confidence == pytest.approx(0.75) for e in entries)
        assert [e.object_id for e in entries] == ["a", "b"]  # tie broken by id

    def test_lambda_extremes(self):
        sels = self.make_selections()
        for e in aggregate(sels, vote_lambda=1.0):
            assert e.confidence == e.weight_norm
        for e in aggregate(sels, vote_lambda=0.0):
            assert e.confidence == e.count_norm

    def test_multi_branch_average_weight(self):
        sels = [
            BeamSelection(branch="0", selected=("a",), weights={"a": 2.0}),
            BeamSelection(branch="1", selected=("a",), weights={"a": 4.0}),
        ]
        entries = aggregate(sels)
        assert entries[0].avg_weight == 3.0

    @pytest.mark.parametrize(
        "voters, most",
        [
            pytest.param(("a",), 710, id="exponential"),
            pytest.param(("a", "b", "c"), 709, id="sum"),
        ],
    )
    def test_vote_count_overflow_is_validation_error(self, voters, most):
        sels = [
            BeamSelection(
                branch=str(i),
                selected=voters,
                weights=dict.fromkeys(voters, 1.0),
            )
            for i in range(most)
        ]
        with pytest.raises(ValidationError, match=f"overflows at {most} votes"):
            aggregate(sels)
        # one vote fewer each is below the limit
        entries = aggregate(sels[1:])
        assert [e.count_norm for e in entries] == [1.0 / len(voters)] * len(voters)

    def test_empty_and_validation(self):
        assert aggregate([]) == []
        with pytest.raises(ValidationError):
            aggregate([], vote_lambda=1.5)
        with pytest.raises(ValidationError):
            aggregate([], vote_lambda=-0.5)


class TestFinalize:
    def entries(self):
        return [
            ConfidenceEntry(
                object_id=f"o{i}",
                avg_weight=0.0,
                weight_norm=0.0,
                count_norm=0.0,
                confidence=1.0 - i / 10,
            )
            for i in range(4)
        ]

    def test_top_k(self):
        assert finalize(self.entries(), final_k=2) == ["o0", "o1"]
        assert finalize(self.entries(), final_k=10) == ["o0", "o1", "o2", "o3"]

    def test_validation(self):
        with pytest.raises(ValidationError):
            finalize(self.entries(), final_k=0)
