"""Mock scorer behavior and the constrained decoders."""

from __future__ import annotations

import collections
import hashlib
import random

import numpy as np
import pytest

import oracles
from alignrag import lm, prompts
from alignrag.errors import AllBeamsDead, ScorerError, ValidationError
from alignrag.info_align import extract_keywords
from alignrag.lm import (
    Beam,
    CLOSE_TOKEN,
    Context,
    MockScorer,
    OPEN_TOKEN,
    SEP_TOKEN,
    STOP_TOKEN,
    constrained_choice_decode,
    constrained_ngram_decode,
    free_decode,
    ngram_score,
)
from alignrag.ngram_index import (
    NGramTrie,
    Vocabulary,
    build_trie,
    corpus_ngrams,
)
from alignrag.corpus import Chunk
from alignrag.pipeline import RetrievalEngine, build_scorer
from planted import build_planted


def trie_of(*token_tuples) -> NGramTrie:
    return NGramTrie(token_tuples)


CITY_TRIE = (
    ("city",),
    ("city", "populations"),
    ("paris",),
    ("lyon",),
    ("pop",),
)


class TestMockScorer:
    def test_preferred_rule_dominates(self):
        scorer = MockScorer(context_weight=1.0, token_bias={"other": 500.0})
        scorer.add_rule(("cue",), ["wanted"])
        logits = scorer.score(["cue"], ["other", "wanted"])
        assert logits[1] > logits[0]
        assert logits[1] == 1001.0

    def test_ranked_order(self):
        scorer = MockScorer()
        scorer.add_rule(("cue",), ["first", "second"])
        first, second = scorer.score(["cue"], ["first", "second"])
        assert first == 1002.0 and second == 1001.0

    def test_longest_suffix_wins(self):
        scorer = MockScorer()
        scorer.add_rule(("a",), ["short"])
        scorer.add_rule(("b", "a"), ["long"])
        logits = scorer.score(["x", "b", "a"], ["short", "long"])
        assert logits[1] > logits[0]

    def test_same_length_latest_rule_wins(self):
        scorer = MockScorer()
        scorer.add_rule(("a",), ["old"])
        scorer.add_rule(("a",), ["new"])
        logits = scorer.score(["a"], ["old", "new"])
        assert logits[1] > logits[0]

    def test_context_counting(self):
        scorer = MockScorer(context_weight=1.0)
        logits = scorer.score(["x", "y", "x"], ["x", "y", "z"])
        assert logits == [2.0, 1.0, 0.0]

    def test_bias(self):
        scorer = MockScorer(token_bias={STOP_TOKEN: 1.5})
        assert scorer.score([], [STOP_TOKEN, "a"]) == [1.5, 0.0]

    def test_seeded_noise_deterministic_and_bounded(self):
        a = MockScorer(seed=4)
        b = MockScorer(seed=4)
        ctx = ["some", "context"]
        cands = ["t1", "t2", "t3"]
        la, lb = a.score(ctx, cands), b.score(ctx, cands)
        assert la == lb
        assert all(0.0 <= v < 1.0 for v in la)
        assert len(set(la)) == 3  # noise separates the candidates

    def test_unseeded_has_no_noise(self):
        scorer = MockScorer()
        assert scorer.score(["ctx"], ["a", "b"]) == [0.0, 0.0]

    def test_free_next_rule_and_default(self):
        scorer = MockScorer()
        scorer.add_rule(("go",), ["token"])
        assert scorer.free_next(["go"])[0] == "token"
        assert scorer.free_next(["nothing"]) == (STOP_TOKEN, 0.0)

    def test_script_chains(self):
        scorer = MockScorer()
        scorer.script(("cue",), ["a", "b", "c"])
        ctx = ["cue"]
        for expected in ["a", "b", "c"]:
            tok, _ = scorer.free_next(ctx)
            assert tok == expected
            ctx = ctx + [tok]


RESERVED = (OPEN_TOKEN, CLOSE_TOKEN, SEP_TOKEN, STOP_TOKEN)
SCORER_VOCAB = ("a", "b", "c", "paris", "\x01w", "0", "9a") + RESERVED


def documented_logit(rules, bias, weight, seed, context, tok):
    """MockScorer's documented formula, restated without its code.

    The longest rule suffix matching the context wins, the later rule on
    equal length; a token on its ranked list scores 1000 + len(ranked) -
    (first position). Any other token scores its bias, plus weight times
    its count in the context when the weight is nonzero, plus, when
    seeded, blake2b noise over the seed, the last four context tokens
    and the token.
    """
    ctx = tuple(context)
    matched = None
    for suffix, ranked in rules:
        n = len(suffix)
        if n <= len(ctx) and ctx[len(ctx) - n :] == tuple(suffix):
            if matched is None or n >= len(matched[0]):
                matched = (suffix, ranked)
    if matched is not None and tok in matched[1]:
        ranked = matched[1]
        return 1000.0 + len(ranked) - ranked.index(tok)
    value = bias.get(tok, 0.0)
    if weight:
        value += weight * ctx.count(tok)
    if seed is not None:
        tail = "\x1f".join(ctx[-4:])
        payload = f"{seed}\x1e{tail}\x1e{tok}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        value += int.from_bytes(digest, "big") / 2.0**64
    return value


class TestScorerAgainstFormula:
    @pytest.mark.parametrize("case", range(300))
    def test_logits_equal_formula(self, case):
        rng = random.Random(case)

        def tokens(low, high):
            return [rng.choice(SCORER_VOCAB) for _ in range(rng.randint(low, high))]

        rules = [(tokens(0, 2), tokens(1, 4)) for _ in range(rng.randint(0, 3))]
        bias_values = (0.5, -0.25, 2, 0.0, -0.0, 1e-300, -3.75)
        bias = {tok: rng.choice(bias_values) for tok in tokens(0, 4)}
        weight = rng.choice((0.0, -0.0, 1.0, -1.0, 0.5, -2.5))
        seed = rng.choice((None, case))
        scorer = MockScorer(seed=seed, context_weight=weight, token_bias=bias)
        for suffix, ranked in rules:
            scorer.add_rule(suffix, ranked)
        for _ in range(5):
            context = tokens(0, 8)
            candidates = tokens(0, 12)  # duplicates included
            want = [
                documented_logit(rules, bias, weight, seed, context, tok)
                for tok in candidates
            ]
            got = scorer.score(context, candidates)
            assert type(got) is list
            assert repr(got) == repr(want)  # also tells -0.0 from 0.0, 2 from 2.0
            # a Context brings its own counts; the scorer reads, never writes
            shared = Context(context[:1]).plus(context[1:])
            assert repr(scorer.score(shared, candidates)) == repr(want)
            assert shared == context
            assert shared.counts == collections.Counter(context)

    @pytest.mark.parametrize("case", range(100))
    def test_id_logits_equal_token_logits(self, case):
        rng = random.Random(1000 + case)

        def tokens(low, high):
            return [rng.choice(SCORER_VOCAB) for _ in range(rng.randint(low, high))]

        bias_values = (0.5, -0.25, 2.0, 0.0, -0.0, 1e-300, -3.75)
        bias = {tok: rng.choice(bias_values) for tok in tokens(0, 4)}
        weight = rng.choice((0.0, -0.0, 1.0, -1.0, 0.5, -2.5))
        seed = rng.choice((None, case))
        scorer = MockScorer(seed=seed, context_weight=weight, token_bias=bias)
        for _ in range(rng.randint(0, 3)):
            scorer.add_rule(tokens(0, 2), tokens(1, 4))
        vocab = Vocabulary(SCORER_VOCAB)
        for _ in range(5):
            # contexts with fewer and more distinct tokens than the vocabulary
            context = Context(tokens(0, 12))
            ids = np.array(sorted(rng.sample(range(len(vocab)), rng.randint(1, 11))))
            got = scorer.score_ids(context, ids, vocab)
            want = scorer.score(context, [vocab.tokens[i] for i in ids])
            assert got.dtype == np.float64
            assert repr(got.tolist()) == repr(want)


class TestContext:
    def test_counts_follow_plus_and_push(self):
        rng = random.Random(3)
        for _ in range(50):
            tokens = [rng.choice(SCORER_VOCAB) for _ in range(rng.randint(0, 12))]
            cut = rng.randint(0, len(tokens))
            base = Context(tokens[:cut])
            extended = base.plus(tokens[cut:])
            assert extended == tokens
            assert extended.counts == collections.Counter(tokens)
            assert base == tokens[:cut]  # plus leaves its source alone
            assert base.counts == collections.Counter(tokens[:cut])
            copy = Context(extended)
            copy.push("extra")
            assert copy.counts == collections.Counter(tokens + ["extra"])
            assert extended.counts == collections.Counter(tokens)

    def test_choice_decoder_leaves_its_context_alone(self):
        scorer = MockScorer(seed=1, context_weight=1.0)
        scorer.add_rule(("pick", "alpha"), ["alpha"])
        context = Context(["pick", "alpha"])
        chosen, logits = constrained_choice_decode(
            scorer, ["alpha beta gamma", "delta"], context
        )
        assert chosen == "alpha beta gamma" and len(logits) == 3
        assert context == ["pick", "alpha"]
        assert context.counts == collections.Counter(["pick", "alpha"])

    def test_choice_decoder_rejects_an_untokenized_prompt(self):
        with pytest.raises(ValidationError, match="Context"):
            constrained_choice_decode(MockScorer(), ["a"], "pick one")


class TestNgramDecode:
    def test_scripted_bigram_path_ranks_first(self):
        trie = trie_of(*CITY_TRIE)
        scorer = MockScorer()
        scorer.script(("aligned",), [OPEN_TOKEN, "city", "populations", CLOSE_TOKEN])
        beams = constrained_ngram_decode(scorer, trie, "keyword: city aligned")
        assert beams[0].tokens == ("(", "city", "populations", ")")
        assert [g.text for g in beams[0].ngrams] == ["city populations"]
        assert beams[0].score == 1001.0

    def test_scripted_list_with_separator(self):
        trie = trie_of(*CITY_TRIE)
        scorer = MockScorer()
        scorer.script(("aligned",), [OPEN_TOKEN, "city", SEP_TOKEN, "paris", CLOSE_TOKEN])
        beams = constrained_ngram_decode(scorer, trie, "xx aligned")
        assert beams[0].tokens == ("(", "city", ",", "paris", ")")
        assert [g.text for g in beams[0].ngrams] == ["city", "paris"]

    def test_every_emitted_ngram_is_indexed(self):
        rng = random.Random(0)
        vocab = [f"w{i}" for i in range(15)]
        text = " ".join(rng.choice(vocab) for _ in range(60))
        chunks = [Chunk(object_id="c", index=0, text=text, span=(0, 1))]
        trie = build_trie(corpus_ngrams(chunks))
        stored = set(trie.ngrams())
        for seed in range(100):
            scorer = MockScorer(seed=seed)
            beams = constrained_ngram_decode(scorer, trie, f"probe {seed}")
            assert beams
            for beam in beams:
                assert len(beam.ngrams) >= 1
                for gram in beam.ngrams:
                    assert gram.tokens in stored

    def test_max_ngrams_respected(self):
        trie = trie_of(("a",), ("b",), ("c",))
        for cap in (1, 2, 3):
            for seed in range(10):
                scorer = MockScorer(seed=seed)
                beams = constrained_ngram_decode(
                    scorer, trie, "q", max_ngrams=cap
                )
                assert all(len(b.ngrams) <= cap for b in beams)

    def test_single_ngram_score_equals_beam_score(self):
        trie = trie_of(("a",), ("b",))
        scorer = MockScorer(seed=1)
        beams = constrained_ngram_decode(scorer, trie, "q", max_ngrams=1)
        for beam in beams:
            assert len(beam.ngrams) == 1
            assert beam.score == pytest.approx(beam.ngram_scores[0], abs=1e-12)

    def test_beams_sorted_by_score(self):
        trie = trie_of(("a",), ("b",), ("c",), ("a", "b"))
        scorer = MockScorer(seed=7)
        beams = constrained_ngram_decode(scorer, trie, "q")
        scores = [b.score for b in beams]
        assert scores == sorted(scores, reverse=True)

    def test_frequency_scorer_prefers_context_tokens(self):
        trie = trie_of(("paris",), ("lyon",), ("pop",))
        scorer = MockScorer(context_weight=1.0)
        beams = constrained_ngram_decode(scorer, trie, "all about paris")
        assert beams[0].ngrams[0].tokens == ("paris",)

    def test_dead_trie_raises(self, dead_trie):
        with pytest.raises(AllBeamsDead, match="label-x"):
            constrained_ngram_decode(MockScorer(), dead_trie, "q", label="label-x")

    def test_parameter_validation(self):
        trie = trie_of(("a",))
        with pytest.raises(ValidationError):
            constrained_ngram_decode(MockScorer(), trie, "q", beam_width=0)
        with pytest.raises(ValidationError):
            constrained_ngram_decode(MockScorer(), trie, "q", max_ngrams=0)
        with pytest.raises(ValidationError):
            constrained_ngram_decode(MockScorer(), NGramTrie(), "q")


def random_grams(rng: random.Random) -> set[tuple[str, ...]]:
    vocab = [f"w{i}" for i in range(rng.randint(2, 8))]
    return {
        tuple(rng.choice(vocab) for _ in range(rng.randint(1, 3)))
        for _ in range(rng.randint(1, 40))
    }


def as_plain(beam: Beam) -> tuple:
    grams = tuple(g.tokens for g in beam.ngrams)
    return (beam.tokens, beam.logits, grams, beam.ngram_scores, beam.score)


def assert_matches_reference(scorer, grams, seed_text):
    trie = trie_of(*grams)
    for beam_width in range(1, 6):
        for max_ngrams in range(1, 5):
            want = oracles.beam_decode_reference(
                scorer, grams, seed_text, beam_width, max_ngrams
            )
            if not want:
                with pytest.raises(AllBeamsDead):
                    constrained_ngram_decode(
                        scorer, trie, seed_text, beam_width, max_ngrams
                    )
                continue
            beams = constrained_ngram_decode(
                scorer, trie, seed_text, beam_width, max_ngrams
            )
            got = [as_plain(b) for b in beams]
            assert got == want
            assert repr(got) == repr(want)  # also tells -0.0 from 0.0


# tokens that sort before the reserved ones ("\x01w") and between them
# and the letters (digits), so the place of "," and ")" among a node's
# children is pinned
WIDE_VOCAB = ("\x01w", "0", "9a", "w1", "w2", "w3")


class TestDecodeAgainstReference:
    @pytest.mark.parametrize("case", range(8))
    def test_beams_equal_reference(self, case):
        rng = random.Random(case)
        grams = random_grams(rng)
        vocab = sorted({tok for gram in grams for tok in gram})
        seed_text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
        scorers = [
            MockScorer(),  # every logit 0.0: ties everywhere
            MockScorer(context_weight=1.0, token_bias={CLOSE_TOKEN: 0.5}),
            MockScorer(seed=case, context_weight=1.0, token_bias={SEP_TOKEN: 0.25}),
        ]
        for scorer in scorers:
            assert_matches_reference(scorer, grams, seed_text)

    @pytest.mark.parametrize("case", range(8))
    def test_wide_vocabulary_rules_and_negative_weight(self, case):
        rng = random.Random(100 + case)
        grams = {
            tuple(rng.choice(WIDE_VOCAB) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 40))
        }
        # complete grams with continuations that sort before "," and ")"
        # (the first live beam, so a tie with "," decides) and after them
        grams |= {("\x01w",), ("\x01w", "\x01w"), ("0",), ("0", "0"), ("0", "9a")}
        vocab = sorted({tok for gram in grams for tok in gram})
        seed_text = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 6)))
        scripted = MockScorer(context_weight=1.0)
        path = list(rng.choice(sorted(grams)))
        scripted.script(("(",), path + [rng.choice((SEP_TOKEN, CLOSE_TOKEN))])
        scripted.add_rule((SEP_TOKEN,), [rng.choice(vocab), CLOSE_TOKEN, "zz"])
        scripted.add_rule((), [rng.choice(vocab), SEP_TOKEN])
        scorers = [
            MockScorer(),  # ties everywhere: token order decides
            scripted,
            MockScorer(
                context_weight=-1.0,
                token_bias={SEP_TOKEN: 0.25, CLOSE_TOKEN: -0.5, vocab[0]: -0.0},
            ),
            MockScorer(seed=case, context_weight=-0.5, token_bias={CLOSE_TOKEN: 0.5}),
        ]
        for scorer in scorers:
            assert_matches_reference(scorer, grams, seed_text)

    def test_only_survivors_are_built(self, monkeypatch):
        # 40 first tokens, each with 5 continuations: every step scores far
        # more candidates than the 2 * beam_width hypotheses it may build
        grams = {(f"a{i:02d}",) for i in range(40)}
        grams |= {(f"a{i:02d}", f"b{j}") for i in range(40) for j in range(5)}
        trie = trie_of(*grams)
        built: collections.Counter = collections.Counter()
        child = lm._Hypothesis.child

        def counting_child(self, token, logit):
            built[len(self.tokens)] += 1  # live hypotheses of a step share a length
            return child(self, token, logit)

        monkeypatch.setattr(lm._Hypothesis, "child", counting_child)
        scorer = MockScorer(seed=3)
        scored = []
        score = scorer.score

        def counting_score(context, candidates):
            scored.append(len(candidates))
            return score(context, candidates)

        scorer.score = counting_score
        score_ids = scorer.score_ids

        def counting_score_ids(context, ids, vocab):
            scored.append(len(ids))
            return score_ids(context, ids, vocab)

        scorer.score_ids = counting_score_ids
        for beam_width in (1, 3, 5):
            built.clear()
            scored.clear()
            beams = constrained_ngram_decode(scorer, trie, "q", beam_width, 3)
            assert beams
            assert built[0] == 1  # the open delimiter
            assert max(built.values()) <= 2 * beam_width
            assert sum(scored) > 3 * sum(built.values())

    @pytest.mark.parametrize("parent_total", [0.0, -1.5, -1.7e308])
    @pytest.mark.parametrize("n", [7, 3520])
    def test_kept_row_with_close_and_separator(self, parent_total, n):
        # the delimiters hold the row's best logits, so they are among its
        # best entries; at -1.7e308 the -1e308 logits' totals overflow to
        # -inf, silently, and rank last by position
        rng = np.random.default_rng(n)
        scored = rng.choice(np.array([0.5, 0.0, -0.0, -0.25, -1e308]), size=n)
        close, sep = 2, n - 3
        scored[[close, sep]] = [2.0, 1.0]
        for skip in ([close, sep], [close]):
            content = [j for j in range(n) if j not in skip]
            total = {j: parent_total + float(scored[j]) for j in content}
            ranked = sorted(content, key=lambda j: (-total[j], j))
            for width in (1, 3, 5, n - 1):
                want = sorted(ranked[:width] + skip[1:])
                got = lm._kept(parent_total, scored, list(skip), width)
                assert got == want


class TokensOnly:
    """Exposes only the scorer protocol, so the decoder scores a wide row's
    ids through ``score`` of their tokens."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def tokenize(self, text):
        return self._inner.tokenize(text)

    def score(self, context, candidates):
        return self._inner.score(context, candidates)

    def free_next(self, context):
        return self._inner.free_next(context)


class IdCounting(MockScorer):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.id_calls = 0

    def score_ids(self, context, ids, vocab):
        self.id_calls += 1
        return super().score_ids(context, ids, vocab)


# "\x01" tokens sort before "(", ")" and ","; digits after them and before
# the letters
ID_VOCAB = ("\x01a", "\x01b", "0", "5x", "a", "b", "c", "d", "e", "f", "g")


def decode_or_dead(scorer, trie, seed_text, beam_width, max_ngrams) -> list:
    try:
        return constrained_ngram_decode(
            scorer, trie, seed_text, beam_width, max_ngrams
        )
    except AllBeamsDead:
        return []


class TestIdPathMatchesTokenPath:
    @pytest.mark.parametrize("case", range(12))
    def test_beams_equal(self, case):
        rng = random.Random(500 + case)
        grams = {
            tuple(rng.choice(ID_VOCAB) for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(5, 60))
        }
        # wide terminal nodes: complete grams with more continuations than
        # any beam width tried, so the close and the separator join them
        for head in rng.sample(ID_VOCAB, 2):
            grams.add((head,))
            grams |= {(head, tok) for tok in rng.sample(ID_VOCAB, 7)}
        grams |= {("\x01a", "\x01b"), ("0",), ("0", "\x01a")}
        vocab = sorted({tok for gram in grams for tok in gram})
        trie = trie_of(*grams)
        scripted = IdCounting(context_weight=1.0)
        scripted.script((OPEN_TOKEN,), list(rng.choice(sorted(grams))) + [SEP_TOKEN])
        scripted.add_rule((SEP_TOKEN,), [rng.choice(vocab), CLOSE_TOKEN, "zz"])
        scorers = [
            IdCounting(),  # every logit 0.0: ties everywhere
            IdCounting(
                context_weight=1.0,
                token_bias={CLOSE_TOKEN: 0.5, SEP_TOKEN: 0.25, STOP_TOKEN: 1.5},
            ),
            scripted,
            IdCounting(
                context_weight=-0.5,
                token_bias={vocab[0]: -0.0, SEP_TOKEN: 1.0, CLOSE_TOKEN: -0.5},
            ),
            IdCounting(seed=case, context_weight=1.0, token_bias={CLOSE_TOKEN: 0.5}),
        ]
        for scorer in scorers:
            for _ in range(3):
                # short contexts take the scatter, long ones score by token
                words = [rng.choice(vocab) for _ in range(rng.randint(0, 14))]
                seed_text = " ".join(words)
                for beam_width in range(1, 5):
                    for max_ngrams in range(1, 4):
                        by_id = decode_or_dead(
                            scorer, trie, seed_text, beam_width, max_ngrams
                        )
                        by_token = decode_or_dead(
                            TokensOnly(scorer), trie, seed_text, beam_width, max_ngrams
                        )
                        assert repr(by_id) == repr(by_token)
                        # both paths select a wide row's best alike, so also
                        # pin them to the search that keeps every candidate
                        want = oracles.beam_decode_reference(
                            scorer, grams, seed_text, beam_width, max_ngrams
                        )
                        assert repr([as_plain(b) for b in by_id]) == repr(want)
            assert scorer.id_calls > 0

    def test_planted_trie_beams_equal(self):
        # the planted corpus's trie: its root is wide, with 520 children
        bench = build_planted()
        trie = build_trie(corpus_ngrams(bench.corpus.chunks))
        assert trie.ptr[1] - trie.ptr[0] == 520
        scorers = [
            build_scorer(bench.config),
            MockScorer(),
            MockScorer(seed=7, context_weight=1.0),
        ]
        for question in bench.questions:
            seed_text = prompts.ALIGN_TEMPLATE.format(
                user_question=question.question, keyword=question.question
            )
            for scorer in scorers:
                for beam_width in (1, 3):
                    by_id = decode_or_dead(scorer, trie, seed_text, beam_width, 3)
                    by_token = decode_or_dead(
                        TokensOnly(scorer), trie, seed_text, beam_width, 3
                    )
                    assert repr(by_id) == repr(by_token)


class TestChoiceDecode:
    def test_always_a_member(self):
        rng = random.Random(6)
        pool = [f"obj{i}" for i in range(20)]
        for seed in range(100):
            choices = rng.sample(pool, rng.randint(1, 6))
            scorer = MockScorer(seed=seed)
            chosen, logits = constrained_choice_decode(
                scorer, choices, Context(["pick", "one"])
            )
            assert chosen in choices
            assert len(logits) == len(scorer.tokenize(chosen))

    def test_scripted_choice(self):
        scorer = MockScorer()
        scorer.script(("pick",), ["beta"])
        chosen, _ = constrained_choice_decode(
            scorer, ["alpha", "beta"], Context(["pick"])
        )
        assert chosen == "beta"

    def test_single_choice_short_circuits(self):
        chosen, logits = constrained_choice_decode(
            MockScorer(), ["only"], Context(["q"])
        )
        assert chosen == "only"
        assert len(logits) == 1

    def test_prefix_choice_stop_vs_continue(self):
        stopper = MockScorer()
        stopper.add_rule(("alpha",), [STOP_TOKEN])
        chosen, _ = constrained_choice_decode(
            stopper, ["alpha", "alpha beta"], Context(["q"])
        )
        assert chosen == "alpha"

        continuer = MockScorer()
        continuer.add_rule(("alpha",), ["beta"])
        chosen, _ = constrained_choice_decode(
            continuer, ["alpha", "alpha beta"], Context(["q"])
        )
        assert chosen == "alpha beta"

    def test_stop_symbol_is_a_legal_choice(self):
        scorer = MockScorer(token_bias={STOP_TOKEN: 5.0})
        chosen, _ = constrained_choice_decode(scorer, ["a", STOP_TOKEN], Context(["q"]))
        assert chosen == STOP_TOKEN

    def test_stop_inside_choice_rejected(self):
        class VerbatimScorer(MockScorer):
            def tokenize(self, text):
                return text.split()

        with pytest.raises(ValidationError, match="stop token"):
            constrained_choice_decode(VerbatimScorer(), ["a <> b"], Context(["q"]))

    def test_empty_choices(self):
        with pytest.raises(ValidationError):
            constrained_choice_decode(MockScorer(), [], Context(["q"]))


class TestFreeDecode:
    def test_scripted_until_stop(self):
        scorer = MockScorer()
        scorer.script(("go",), ["one", "two", STOP_TOKEN])
        tokens, logits = free_decode(scorer, "go")
        assert tokens == ["one", "two"]
        assert len(logits) == 2

    def test_immediate_stop(self):
        assert free_decode(MockScorer(), "nothing scripted") == ([], [])

    def test_length_cap(self):
        scorer = MockScorer()
        scorer.add_rule(("loop",), ["loop"])  # self-sustaining rule
        tokens, _ = free_decode(scorer, "loop", max_tokens=7)
        assert tokens == ["loop"] * 7


class Spoiling(MockScorer):
    """A seeded mock scorer whose ``call`` spoils its output: ``bad`` in
    place of the last logit, ``"short"`` one logit too few, ``"token"`` a
    token that is not a string."""

    def __init__(self, call, bad) -> None:
        super().__init__(seed=3)
        self.call, self.bad = call, bad

    def _spoiled(self, call, logits):
        if call != self.call:
            return logits
        if self.bad == "short":
            return logits[:-1]
        logits = logits.copy()
        logits[-1] = self.bad
        return logits

    def score(self, context, candidates):
        return self._spoiled("score", super().score(context, candidates))

    def score_ids(self, context, ids, vocab):
        return self._spoiled("score_ids", super().score_ids(context, ids, vocab))

    def free_next(self, context):
        token, logit = super().free_next(context)
        if self.call != "free_next":
            return token, logit
        return (None, logit) if self.bad == "token" else (token, self.bad)


DECODERS = {
    # the open delimiter's logit, then the root's children as one wide row
    "ngram": lambda scorer: constrained_ngram_decode(scorer, trie_of(*CITY_TRIE), "x"),
    "choice": lambda scorer: constrained_choice_decode(
        scorer, ["paris", "lyon"], Context(["q"])
    ),
    "keywords": lambda scorer: extract_keywords(scorer, "paris population"),
    "free": lambda scorer: free_decode(scorer, "go"),
}
BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf")}


class TestScorerOutputsChecked:
    @pytest.mark.parametrize(
        "call, decoder, bad",
        [("score", d, b) for d in ("ngram", "choice", "keywords") for b in BAD]
        + [("score", d, "short") for d in ("ngram", "choice", "keywords")]
        + [("score_ids", "ngram", b) for b in [*BAD, "short"]]
        + [("free_next", "free", b) for b in [*BAD, "token"]],
    )
    def test_bad_output_is_a_scorer_error(self, call, decoder, bad):
        scorer = Spoiling(call, BAD.get(bad, bad))
        with pytest.raises(ScorerError, match=rf"^Spoiling\.{call} must return"):
            DECODERS[decoder](scorer)

    def test_finite_logits_whose_sum_overflows_pass(self):
        huge = {"paris": 1.5e308, "lyon": 1.7e308, "population": 1.6e308}
        for decoder in ("choice", "keywords"):
            DECODERS[decoder](MockScorer(token_bias=huge))
        assert DECODERS["choice"](MockScorer(token_bias=huge))[0] == "lyon"
        # the root has more children than the context has tokens, so after
        # a huge first N-gram and a separator the root is a wide row again,
        # whose huge logits overflow the parent total
        trie = trie_of(*CITY_TRIE, ("nice",), ("metz",), ("brest",), ("lille",))
        beams = constrained_ngram_decode(MockScorer(token_bias=huge), trie, "x")
        assert beams[0].tokens[:2] == (OPEN_TOKEN, "lyon")

    @pytest.mark.parametrize("bad", list(BAD))
    def test_planted_question_is_a_scorer_error(self, bad):
        """A scorer whose logits are not finite changed every planted
        final list, with no error."""
        bench = build_planted()
        scorer = Spoiling("score", BAD[bad])
        engine = RetrievalEngine(bench.corpus, config=bench.config, scorer=scorer)
        with pytest.raises(ScorerError):
            engine.run_arm(bench.questions[0].question)


class TestBeamTypes:
    def test_ngram_score_is_mean(self):
        assert ngram_score([2.0, 4.0]) == 3.0
        with pytest.raises(ValidationError):
            ngram_score([])

    def test_beam_length_mismatch(self):
        with pytest.raises(ValidationError):
            Beam(tokens=("a",), logits=(), ngrams=(), ngram_scores=(), score=0.0)
