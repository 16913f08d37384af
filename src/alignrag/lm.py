"""Token scoring contract, deterministic mock scorer, constrained decoding.

Decoding is masked: at every step the caller computes the set of valid
next tokens (from a trie or a choice set) and the scorer only ranks
within that set, so emitted sequences are valid by construction. The
N-gram beam search ranks every scored candidate by a key built from its
parent, but only materializes the hypotheses that survive a step.

Reserved tokens open/close alignment segments, separate list items, and
stop generation. Text normalization strips bare punctuation, so none of
them can collide with a real corpus token.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Optional, Protocol, Sequence

from .errors import AllBeamsDead, ValidationError
from .ngram_index import MAX_NGRAM, NGram, NGramTrie, normalize_tokens

OPEN_TOKEN = "("
CLOSE_TOKEN = ")"
SEP_TOKEN = ","
STOP_TOKEN = "<>"

_PREFERRED_BASE = 1000.0


class TokenScorer(Protocol):
    """Deterministic next-token scoring over string tokens.

    Implementations may compute logits over a full vocabulary internally;
    the contract only requires scoring a caller-supplied candidate set and
    proposing an unconstrained next token.
    """

    def tokenize(self, text: str) -> list[str]: ...

    def score(
        self, context: Sequence[str], candidates: Sequence[str]
    ) -> list[float]: ...

    def free_next(self, context: Sequence[str]) -> tuple[str, float]: ...


@dataclass(frozen=True)
class _Rule:
    suffix: tuple[str, ...]
    ranked: tuple[str, ...]
    order: int


def _stable_unit(seed: int, context: Sequence[str], token: str) -> float:
    tail = "\x1f".join(context[-4:])
    payload = f"{seed}\x1e{tail}\x1e{token}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


class MockScorer:
    """Scripted, optionally seeded-random, token scorer.

    Preference rules map a context suffix to a ranked continuation list;
    the longest matching suffix wins and its ranked tokens dominate every
    other signal. Without a matching rule, logits fall back to
    context_weight * (occurrences of the candidate in the context)
    plus a fixed per-token bias plus, when seeded, a stable pseudo-random
    value in [0, 1).
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        context_weight: float = 0.0,
        token_bias: Optional[dict[str, float]] = None,
    ) -> None:
        self.seed = seed
        self.context_weight = context_weight
        self.token_bias = dict(token_bias or {})
        self._rules: list[_Rule] = []

    def tokenize(self, text: str) -> list[str]:
        return normalize_tokens(text)

    def add_rule(self, suffix: Sequence[str], ranked: Sequence[str]) -> None:
        self._rules.append(
            _Rule(suffix=tuple(suffix), ranked=tuple(ranked), order=len(self._rules))
        )

    def script(self, trigger: Sequence[str], tokens: Sequence[str]) -> None:
        """Install chained rules so `tokens` decode in order after `trigger`."""
        context = tuple(trigger)
        for tok in tokens:
            self.add_rule(context, [tok])
            context = context + (tok,)

    def _match(self, context: Sequence[str]) -> Optional[_Rule]:
        best: Optional[_Rule] = None
        ctx = tuple(context)
        for rule in self._rules:
            n = len(rule.suffix)
            if n > len(ctx) or ctx[len(ctx) - n :] != rule.suffix:
                continue
            if best is None or (n, rule.order) > (len(best.suffix), best.order):
                best = rule
        return best

    def score(
        self, context: Sequence[str], candidates: Sequence[str]
    ) -> list[float]:
        rule = self._match(context)
        counts = Counter(context) if self.context_weight else None
        logits = []
        for tok in candidates:
            if rule is not None and tok in rule.ranked:
                logits.append(
                    _PREFERRED_BASE + len(rule.ranked) - rule.ranked.index(tok)
                )
                continue
            value = self.token_bias.get(tok, 0.0)
            if counts is not None:
                value += self.context_weight * counts.get(tok, 0)
            if self.seed is not None:
                value += _stable_unit(self.seed, context, tok)
            logits.append(value)
        return logits

    def free_next(self, context: Sequence[str]) -> tuple[str, float]:
        rule = self._match(context)
        if rule is not None:
            return rule.ranked[0], _PREFERRED_BASE + len(rule.ranked)
        return STOP_TOKEN, 0.0


@dataclass(frozen=True)
class Beam:
    """One decoded hypothesis for a single alignment segment."""

    tokens: tuple[str, ...]
    logits: tuple[float, ...]
    ngrams: tuple[NGram, ...]
    ngram_scores: tuple[float, ...]
    score: float

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logits):
            raise ValidationError("beam tokens and logits length mismatch")


def ngram_score(logits: Sequence[float]) -> float:
    """Score of one N-gram: the mean logit of its tokens."""
    if not logits:
        raise ValidationError("ngram_score of empty logit list")
    return sum(logits) / len(logits)


def _rank_key(total: float, count: int, tokens: tuple) -> tuple:
    """Beam order: mean content logit, then total content logit, then tokens.

    The total breaks ties so a beam is never outranked by its own
    early-closed prefix. ``total`` is a running sum of the content logits
    taken left to right, which on CPython 3.11 is bit for bit what ``sum``
    of the logit list gives, so the order is the one a full re-sum gives.
    """
    mean = total / count if count else 0.0
    return (-mean, -total, tokens)


@dataclass(frozen=True)
class _Hypothesis:
    tokens: tuple[str, ...] = ()
    logits: tuple[float, ...] = ()
    prefix_tokens: tuple[str, ...] = ()
    prefix_logits: tuple[float, ...] = ()
    ngrams: tuple[NGram, ...] = ()
    ngram_scores: tuple[float, ...] = ()
    content_total: float = 0.0
    content_count: int = 0

    def sort_key(self) -> tuple:
        return _rank_key(self.content_total, self.content_count, self.tokens)

    def rank_score(self) -> float:
        return -self.sort_key()[0]

    def child(self, token: str, logit: float) -> "_Hypothesis":
        tokens = self.tokens + (token,)
        logits = self.logits + (logit,)
        if token == OPEN_TOKEN:
            # delimiter only: opens the segment, carries no content
            return replace(self, tokens=tokens, logits=logits)
        if token == SEP_TOKEN or token == CLOSE_TOKEN:
            return replace(
                self,
                tokens=tokens,
                logits=logits,
                prefix_tokens=(),
                prefix_logits=(),
                ngrams=self.ngrams + (NGram(tokens=self.prefix_tokens),),
                ngram_scores=self.ngram_scores + (ngram_score(self.prefix_logits),),
            )
        return replace(
            self,
            tokens=tokens,
            logits=logits,
            prefix_tokens=self.prefix_tokens + (token,),
            prefix_logits=self.prefix_logits + (logit,),
            content_total=self.content_total + logit,
            content_count=self.content_count + 1,
        )

    def freeze(self) -> Beam:
        return Beam(
            tokens=self.tokens,
            logits=self.logits,
            ngrams=self.ngrams,
            ngram_scores=self.ngram_scores,
            score=self.rank_score(),
        )


def constrained_ngram_decode(
    scorer: TokenScorer,
    trie: NGramTrie,
    seed_text: str,
    beam_width: int = 3,
    max_ngrams: int = 3,
    label: str = "",
) -> list[Beam]:
    """Beam-decode one alignment segment of indexed N-grams.

    The segment opens with the open delimiter and closes with the close
    delimiter; between them only trie continuations, the item separator
    after a complete N-gram, or the close delimiter after a complete
    N-gram may appear. Beams with no valid continuation are dropped;
    when every beam dies the decode fails.

    Only survivors are materialized: an open candidate is ranked by a key
    built from its parent, token and logit, and only the ``beam_width``
    best of a step, plus the candidates that close the segment, become
    hypotheses. Every candidate's tokens are unique, so keys never tie
    and ``heapq.nsmallest`` keeps exactly the beams a full sort keeps.
    """
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    if max_ngrams < 1:
        raise ValidationError(f"max_ngrams must be >= 1, got {max_ngrams}")
    if len(trie) == 0:
        raise ValidationError("cannot decode against an empty trie")

    context = scorer.tokenize(seed_text)
    root = _Hypothesis()
    open_logit = scorer.score(context, [OPEN_TOKEN])[0]
    live = [root.child(OPEN_TOKEN, open_logit)]
    done: list[_Hypothesis] = []
    max_steps = max_ngrams * (MAX_NGRAM + 1) + 2

    for _ in range(max_steps):
        if not live:
            break
        ranked: list[tuple[tuple, _Hypothesis, str, float]] = []
        for hyp in live:
            nexts, terminal = trie.valid_continuations(hyp.prefix_tokens)
            candidates = set(nexts)
            if terminal and hyp.prefix_tokens:
                candidates.add(CLOSE_TOKEN)
                if len(hyp.ngrams) + 1 < max_ngrams:
                    candidates.add(SEP_TOKEN)
            if not candidates:
                continue  # dead end: beam dropped
            ordered = sorted(candidates)
            logits = scorer.score(context + list(hyp.tokens), ordered)
            # an open candidate's key is its child's sort_key, with the
            # tokens as (parent tokens, token): live hypotheses of a step
            # have equal length, so that orders them as the joined tuple
            total, count, tokens = hyp.content_total, hyp.content_count, hyp.tokens
            for tok, logit in zip(ordered, logits):
                if tok == CLOSE_TOKEN:
                    done.append(hyp.child(tok, logit))
                elif tok == SEP_TOKEN:
                    key = _rank_key(total, count, (tokens, tok))
                    ranked.append((key, hyp, tok, logit))
                else:
                    key = _rank_key(total + logit, count + 1, (tokens, tok))
                    ranked.append((key, hyp, tok, logit))
        done.sort(key=_Hypothesis.sort_key)
        del done[beam_width:]
        survivors = heapq.nsmallest(beam_width, ranked, key=itemgetter(0))
        live = [hyp.child(tok, logit) for _, hyp, tok, logit in survivors]

    if not done:
        raise AllBeamsDead(f"no alignment decoded for {label or seed_text!r}")
    return [h.freeze() for h in done[:beam_width]]


class _ChoiceNode:
    __slots__ = ("children", "choice")

    def __init__(self) -> None:
        self.children: dict[str, _ChoiceNode] = {}
        self.choice: Optional[str] = None


def _choice_tokens(scorer: TokenScorer, choice: str) -> list[str]:
    tokens = scorer.tokenize(choice)
    if not tokens:
        tokens = [choice.strip().lower() or choice]
    if STOP_TOKEN in tokens and tokens != [STOP_TOKEN]:
        raise ValidationError(f"choice {choice!r} collides with the stop token")
    return tokens


def constrained_choice_decode(
    scorer: TokenScorer, choices: Sequence[str], prompt: str
) -> tuple[str, list[float]]:
    """Greedy-decode exactly one of `choices`, returning it with its logits.

    Decoding is masked to the union trie of the tokenized choices, so the
    result is always a member of the choice set.
    """
    if not choices:
        raise ValidationError("cannot decode from an empty choice set")
    root = _ChoiceNode()
    for choice in sorted(choices):
        node = root
        for tok in _choice_tokens(scorer, choice):
            node = node.children.setdefault(tok, _ChoiceNode())
        if node.choice is None:
            node.choice = choice

    context = scorer.tokenize(prompt)
    emitted: list[str] = []
    logits: list[float] = []
    node = root
    while True:
        if node.choice is not None and not node.children:
            return node.choice, logits
        candidates = sorted(node.children)
        if node.choice is not None:
            candidates.append(STOP_TOKEN)
        scored = scorer.score(context + emitted, candidates)
        token, logit = min(
            zip(candidates, scored), key=lambda pair: (-pair[1], pair[0])
        )
        if token == STOP_TOKEN and token not in node.children:
            assert node.choice is not None
            return node.choice, logits
        emitted.append(token)
        logits.append(logit)
        node = node.children[token]


def free_decode(
    scorer: TokenScorer, prompt: str, max_tokens: int = 64
) -> tuple[list[str], list[float]]:
    """Unconstrained generation until the stop token or the length cap."""
    context = scorer.tokenize(prompt)
    tokens: list[str] = []
    logits: list[float] = []
    for _ in range(max_tokens):
        token, logit = scorer.free_next(context + tokens)
        if token == STOP_TOKEN:
            break
        tokens.append(token)
        logits.append(logit)
    return tokens, logits
