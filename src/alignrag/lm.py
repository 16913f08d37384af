"""Token scoring contract, deterministic mock scorer, constrained decoding.

Decoding is masked: at every step the caller computes the set of valid
next tokens (from a trie or a choice set) and the scorer only ranks
within that set, so emitted sequences are valid by construction.

Reserved tokens open/close alignment segments, separate list items, and
stop generation. Text normalization strips bare punctuation, so none of
them can collide with a real corpus token.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
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
        logits = []
        for tok in candidates:
            if rule is not None and tok in rule.ranked:
                logits.append(
                    _PREFERRED_BASE + len(rule.ranked) - rule.ranked.index(tok)
                )
                continue
            value = self.token_bias.get(tok, 0.0)
            if self.context_weight:
                value += self.context_weight * sum(1 for c in context if c == tok)
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


@dataclass
class _Hypothesis:
    tokens: list[str] = field(default_factory=list)
    logits: list[float] = field(default_factory=list)
    prefix_tokens: list[str] = field(default_factory=list)
    prefix_logits: list[float] = field(default_factory=list)
    ngrams: list[NGram] = field(default_factory=list)
    ngram_scores: list[float] = field(default_factory=list)
    content_logits: list[float] = field(default_factory=list)
    closed: bool = False

    def rank_score(self) -> float:
        if not self.content_logits:
            return 0.0
        return sum(self.content_logits) / len(self.content_logits)

    def sort_key(self) -> tuple:
        # mean content logit first; total content breaks ties so a beam
        # is never outranked by its own early-closed prefix
        return (-self.rank_score(), -sum(self.content_logits), tuple(self.tokens))

    def child(self, token: str, logit: float) -> "_Hypothesis":
        new = _Hypothesis(
            tokens=self.tokens + [token],
            logits=self.logits + [logit],
            prefix_tokens=list(self.prefix_tokens),
            prefix_logits=list(self.prefix_logits),
            ngrams=list(self.ngrams),
            ngram_scores=list(self.ngram_scores),
            content_logits=list(self.content_logits),
        )
        if token == OPEN_TOKEN:
            pass  # delimiter only: opens the segment, carries no content
        elif token == SEP_TOKEN or token == CLOSE_TOKEN:
            new.ngrams.append(NGram(tokens=tuple(new.prefix_tokens)))
            new.ngram_scores.append(ngram_score(new.prefix_logits))
            new.prefix_tokens = []
            new.prefix_logits = []
            new.closed = token == CLOSE_TOKEN
        else:
            new.prefix_tokens.append(token)
            new.prefix_logits.append(logit)
            new.content_logits.append(logit)
        return new

    def freeze(self) -> Beam:
        return Beam(
            tokens=tuple(self.tokens),
            logits=tuple(self.logits),
            ngrams=tuple(self.ngrams),
            ngram_scores=tuple(self.ngram_scores),
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
        expansions: list[_Hypothesis] = []
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
            logits = scorer.score(context + hyp.tokens, ordered)
            for tok, logit in zip(ordered, logits):
                expansions.append(hyp.child(tok, logit))
        done.extend(h for h in expansions if h.closed)
        done.sort(key=_Hypothesis.sort_key)
        del done[beam_width:]
        open_hyps = sorted(
            (h for h in expansions if not h.closed), key=_Hypothesis.sort_key
        )
        live = open_hyps[:beam_width]

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
