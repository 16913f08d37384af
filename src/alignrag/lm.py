"""Token scoring contract, deterministic mock scorer, constrained decoding.

Decoding is masked: at every step the caller computes the set of valid
next tokens (from a trie or a choice set) and the scorer only ranks
within that set, so emitted sequences are valid by construction. The
N-gram beam search scores a wide trie node's children (more than its
context has distinct tokens) as one id array, keeps their ``beam_width``
best and builds only the hypotheses that survive the step's ranking.

Reserved tokens open/close alignment segments, separate list items, and
stop generation. Text normalization strips bare punctuation, so none of
them can collide with a real corpus token; the trie rejects any indexed
token that is not its own normalization.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Collection, Iterable, MutableMapping, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Optional, Protocol

import numpy as np

from .embedding import hash64, top_objects
from .errors import AllBeamsDead, ScorerError, ValidationError
from .ngram_index import (
    CLOSE_TOKEN,
    MAX_NGRAM,
    OPEN_TOKEN,
    SEP_TOKEN,
    NGram,
    NGramTrie,
    Vocabulary,
    normalize_tokens,
)

STOP_TOKEN = "<>"
_DELIMITERS = frozenset((OPEN_TOKEN, SEP_TOKEN, CLOSE_TOKEN))

_PREFERRED_BASE = 1000.0


class TokenScorer(Protocol):
    """Deterministic next-token scoring over string tokens.

    Implementations may compute logits over a full vocabulary internally;
    the contract only requires scoring a caller-supplied candidate set and
    proposing an unconstrained next token. ``tokenize`` splits on
    whitespace, as ``normalize_tokens`` does: two texts joined by
    whitespace tokenize to the tokens of each, one after the other, which
    lets verification tokenize a prompt's fixed text once. ``score`` and
    ``free_next`` read their context and never change it; the decoders
    pass a ``Context``, which is a sequence of tokens and may grow after
    the call, so a scorer copies any context it keeps.

    A scorer may also offer ``score_ids(context, ids, vocab)``: the
    logits ``score`` gives for the tokens ``vocab.tokens[i]`` of an
    ascending int array of ids, as a float64 array. The N-gram decoder
    scores a wide trie node's ids through it, or through ``score`` of
    their tokens when a scorer has none.

    Every logit is finite: ``score`` and ``score_ids`` give one finite
    float per candidate, ``free_next`` a string token and a finite float.
    ``-inf`` is not a mask value, since the decoders mask by the
    candidates they pass. The decoders check each output and raise
    ``ScorerError`` on any other.
    """

    def tokenize(self, text: str) -> list[str]: ...

    def score(
        self, context: Sequence[str], candidates: Sequence[str]
    ) -> list[float]: ...

    def free_next(self, context: Sequence[str]) -> tuple[str, float]: ...


class Context(list):
    """Decoding context: its tokens, and how often each one occurs.

    The decoders build one per prompt, tokenized once, and grow it with
    ``plus`` (a new context) or ``push`` (in place, for a context the
    caller owns), so a scorer that counts context tokens reads ``counts``
    instead of counting the whole context on every call. Grow it only
    through these two methods: list methods would leave ``counts`` stale.
    """

    __slots__ = ("counts",)

    def __init__(self, tokens: Iterable[str] = ()) -> None:
        super().__init__(tokens)
        self.counts: Counter[str] = (
            tokens.counts.copy() if isinstance(tokens, Context) else Counter(self)
        )

    def plus(self, tokens: Iterable[str]) -> "Context":
        """A new context: this one followed by ``tokens``."""
        extended = Context(self)
        for tok in tokens:
            extended.push(tok)
        return extended

    def push(self, tok: str) -> None:
        """Append one token in place."""
        self.append(tok)
        self.counts[tok] += 1


@dataclass(frozen=True)
class _Rule:
    suffix: tuple[str, ...]
    ranked: tuple[str, ...]
    order: int


def _via_score(
    score: Callable, context: Sequence[str], ids: np.ndarray, vocab: Vocabulary
) -> np.ndarray:
    """``score_ids`` via a ``score`` function: its logits of the ids' tokens."""
    return np.array(score(context, vocab.array[ids].tolist()), np.float64)


def _check_logits(scorer: object, call: str, logits, count: int) -> None:
    """Raise ``ScorerError`` unless ``logits``, the output of ``scorer``'s
    ``call``, holds ``count`` finite floats.

    An array takes one ``np.isfinite(...).all()``. A list, which is
    short, is summed first: an infinite or NaN term makes a float sum
    infinite or NaN, so a finite sum clears every logit at once, in about
    a tenth of the time ``np.isfinite`` takes over a few logits; only a
    sum that is not finite, which finite logits give when it overflows,
    is checked logit by logit.
    """
    try:
        if isinstance(logits, np.ndarray):
            finite = logits.shape == (count,) and bool(np.isfinite(logits).all())
        else:
            finite = len(logits) == count and (
                math.isfinite(sum(logits)) or bool(np.isfinite(logits).all())
            )
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ScorerError(
            f"{type(scorer).__name__}.{call} must return one finite float per"
            f" candidate ({count})"
        )


def checked_score(
    scorer: TokenScorer, context: Sequence[str], candidates: Sequence[str]
) -> list[float]:
    """``scorer.score(context, candidates)``, checked as the decoders
    check it."""
    logits = scorer.score(context, candidates)
    _check_logits(scorer, "score", logits, len(candidates))
    return logits


def _noise_prefix(seed: int, context: Sequence[str]) -> bytes:
    tail = "\x1f".join(context[-4:])
    return f"{seed}\x1e{tail}\x1e".encode("utf-8")


def _stable_unit(prefix: bytes, token: str) -> float:
    return hash64(prefix + token.encode("utf-8")) / 2.0**64


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
        size = len(context)
        for rule in self._rules:
            n = len(rule.suffix)
            if n > size or tuple(context[size - n :]) != rule.suffix:
                continue
            if best is None or (n, rule.order) > (len(best.suffix), best.order):
                best = rule
        return best

    def _tables(
        self, context: Sequence[str], candidates: Collection[str]
    ) -> tuple[dict[str, float], dict[str, float]]:
        # one table per call: bias + weight * count for every biased or
        # context token, and the matched rule's ranks; every other
        # candidate scores 0.0, the same expression with no bias and count
        # 0 (weights are finite). A Context brings its counts; any other
        # sequence is counted here, to the same integers. Only candidates
        # are read, so when they are fewer than the distinct context
        # tokens, the table leaves out context tokens that are not
        # candidates.
        table = dict(self.token_bias)
        if self.context_weight:
            counts = (
                context.counts if isinstance(context, Context) else Counter(context)
            )
            counted = counts.keys()
            if len(candidates) < len(counted):
                counted = counted & candidates
            for tok in table.keys() | counted:
                value = table.get(tok, 0.0)
                value += self.context_weight * counts.get(tok, 0)
                table[tok] = value
        ruled: dict[str, float] = {}
        rule = self._match(context)
        if rule is not None:
            top = _PREFERRED_BASE + len(rule.ranked)
            for i, tok in enumerate(rule.ranked):
                ruled.setdefault(tok, top - i)
        return table, ruled

    def _logits(
        self, context: Sequence[str], candidates: Sequence[str]
    ) -> list[float]:
        table, ruled = self._tables(context, candidates)
        if self.seed is None:
            table.update(ruled)
            return list(map(table.get, candidates, repeat(0.0)))
        prefix = _noise_prefix(self.seed, context)
        return [
            ruled[tok]
            if tok in ruled
            else table.get(tok, 0.0) + _stable_unit(prefix, tok)
            for tok in candidates
        ]

    def score(
        self, context: Sequence[str], candidates: Sequence[str]
    ) -> list[float]:
        return self._logits(context, candidates)

    def score_ids(
        self, context: Sequence[str], ids: np.ndarray, vocab: Vocabulary
    ) -> np.ndarray:
        """``score`` of the tokens ``ids`` of ``vocab``, as a float64 array.

        Unseeded, this is a zero vector over the vocabulary with the
        table's tokens scattered in, read at ``ids``: the same floats
        ``score`` gives. A seeded scorer, whose noise is hashed per token,
        scores the ids' tokens as ``score`` does.
        """
        if self.seed is not None:
            return _via_score(self._logits, context, ids, vocab)
        index = vocab.ids
        table, ruled = self._tables(context, index)
        table.update(ruled)
        logits = np.zeros(len(vocab))
        hits = [(index[tok], value) for tok, value in table.items() if tok in index]
        if hits:
            at, values = zip(*hits)
            logits[list(at)] = values
        return logits[ids]

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


def left_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from 0.0, as ``sum`` added floats
    before CPython 3.12 (whose ``sum`` compensates rounding). Scores that
    reach an output add through this, so their bits match on every version."""
    total = 0.0
    for value in values:
        total += value
    return total


def ngram_score(logits: Sequence[float]) -> float:
    """Score of one N-gram: the mean logit of its tokens."""
    if not logits:
        raise ValidationError("ngram_score of empty logit list")
    return left_sum(logits) / len(logits)


@dataclass(frozen=True)
class _Hypothesis:
    """A partial segment: its tokens and logits, and the running sum and
    count of its content logits.

    Its N-grams are the runs between delimiters. Reading them off the
    tokens is safe because no trie token is a delimiter: the trie holds
    only tokens that are their own normalization.
    """

    tokens: tuple[str, ...] = ()
    logits: tuple[float, ...] = ()
    content_total: float = 0.0
    content_count: int = 0

    def sort_key(self) -> tuple:
        """Beam order: mean content logit, then total content logit, then tokens.

        The total breaks ties so a beam is never outranked by its own
        early-closed prefix. ``content_total`` is a running sum of the
        content logits taken left to right, bit for bit what ``left_sum``
        of the logit list gives on every CPython, so the order is the one
        a full re-sum gives.
        """
        count = self.content_count
        mean = self.content_total / count if count else 0.0
        return (-mean, -self.content_total, self.tokens)

    def child(self, token: str, logit: float) -> "_Hypothesis":
        tokens = self.tokens + (token,)
        logits = self.logits + (logit,)
        if token in _DELIMITERS:
            # opens, separates or closes: carries no content
            return _Hypothesis(tokens, logits, self.content_total, self.content_count)
        return _Hypothesis(
            tokens, logits, self.content_total + logit, self.content_count + 1
        )

    def freeze(self) -> Beam:
        """The finished beam, with its N-grams cut out of the tokens."""
        ngrams: list[NGram] = []
        scores: list[float] = []
        start = 1  # after the open delimiter
        for end, tok in enumerate(self.tokens):
            if tok == SEP_TOKEN or tok == CLOSE_TOKEN:
                ngrams.append(NGram(tokens=self.tokens[start:end]))
                scores.append(ngram_score(self.logits[start:end]))
                start = end + 1
        return Beam(
            tokens=self.tokens,
            logits=self.logits,
            ngrams=tuple(ngrams),
            ngram_scores=tuple(scores),
            score=-self.sort_key()[0],
        )


def _kept(
    parent_total: float, scored: np.ndarray, skip: list[int], width: int
) -> list[int]:
    """Positions of a wide row's candidates that may survive its step,
    ascending.

    ``skip`` holds the row's close position, then its separator's, if any;
    the separator may survive, the close never does. Of the content
    candidates, the ``width`` best by ``parent_total + logit``, ties by
    position, may. Every content candidate of one hypothesis has the same
    count, so this is the step's order among them, and the step's
    ``width`` best lie among the survivors of its rows. They are the
    content candidates among the row's ``width + len(skip)`` best
    (``top_objects``), in that order. A total past the float range is
    ±inf, silently, as Python floats' sums are elsewhere in the decoder.
    """
    with np.errstate(over="ignore"):
        totals = parent_total + scored
    best = top_objects(totals, width + len(skip))
    content = [j for j in best if j not in skip][:width]
    return sorted(content + skip[1:])


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

    Each live hypothesis keeps its trie node number, the root 0 at the
    start and after a separator, and is scored once per step over its
    candidates in token order. A wide row, whose node has more children
    than the hypothesis's context has distinct tokens, scores the node's
    slice of ``trie.tokens``, the delimiters merged in by id (token
    order), with one ``score_ids`` call and keeps only the ``beam_width``
    best of its content candidates (``_kept``); a narrow row scores its
    slice of ``trie.words`` through ``score`` and keeps them all. The
    survivors and the separators are then ranked together by (-mean,
    -total) content logit, ties in flat order: hypotheses are laid out in
    token order and each one's candidates in token order, so, as live
    hypotheses have equal length, the flat order is the order of the
    candidates' token tuples and the ranking is exactly
    ``_Hypothesis.sort_key``'s. Only the ``beam_width`` best, plus the
    candidates that close the segment, become hypotheses. NumPy float64
    ``+`` gives the bits Python floats give.
    """
    if beam_width < 1:
        raise ValidationError(f"beam_width must be >= 1, got {beam_width}")
    if max_ngrams < 1:
        raise ValidationError(f"max_ngrams must be >= 1, got {max_ngrams}")
    if len(trie) == 0:
        raise ValidationError("cannot decode against an empty trie")

    context = Context(scorer.tokenize(seed_text))
    open_logit = checked_score(scorer, context, [OPEN_TOKEN])[0]
    live = [(_Hypothesis().child(OPEN_TOKEN, open_logit), 0)]
    done: list[_Hypothesis] = []
    max_steps = max_ngrams * (MAX_NGRAM + 1) + 2
    vocab, ptr, terminal = trie.vocab, trie.ptr, trie.terminal
    score_ids = getattr(scorer, "score_ids", None)
    ids_call = "score" if score_ids is None else "score_ids"
    score_ids = score_ids or partial(_via_score, scorer.score)
    # a terminal node's delimiters: the close alone, or with the separator
    close_sep = np.array([vocab.ids[CLOSE_TOKEN], vocab.ids[SEP_TOKEN]])
    delimiters = (close_sep[:1], close_sep)

    for _ in range(max_steps):
        if not live:
            break
        live.sort(key=lambda entry: entry[0].tokens)
        # each survivor's rank key, hypothesis, token and logit, in flat order
        step: list[tuple[tuple, int, str, float]] = []
        for p, (hyp, node) in enumerate(live):
            # only a complete N-gram may close: the root, the node after a
            # delimiter, is never terminal, as every N-gram has a token
            closes = terminal.item(node)
            seps = closes and hyp.tokens.count(SEP_TOKEN) + 1 < max_ngrams
            skip: list[int] = []  # positions of the close, then the separator
            start, stop = ptr.item(node), ptr.item(node + 1)
            row = context.plus(hyp.tokens)
            if stop - start > len(row.counts):  # wide, as the trie's root is
                ids = trie.tokens[start:stop]
                if closes:
                    ids = np.sort(np.concatenate((ids, delimiters[seps])))
                    skip = ids.searchsorted(delimiters[seps]).tolist()
                scored = score_ids(row, ids, vocab)
                _check_logits(scorer, ids_call, scored, len(ids))
                kept = _kept(hyp.content_total, scored, skip, beam_width)
                names = vocab.array[ids[kept]].tolist()
                logits = scored[kept + skip[:1]].tolist()
            else:
                ordered = trie.words[start:stop]
                if closes:
                    extra = (CLOSE_TOKEN, SEP_TOKEN) if seps else (CLOSE_TOKEN,)
                    ordered = tuple(sorted(ordered + extra))
                    skip = [ordered.index(CLOSE_TOKEN)]  # the separator is kept
                if not ordered:
                    continue  # dead end: beam dropped
                scored = checked_score(scorer, row, ordered)
                kept = [i for i in range(len(ordered)) if i not in skip]
                names = [ordered[i] for i in kept]
                logits = [scored[i] for i in kept + skip]
            if closes:
                done.append(hyp.child(CLOSE_TOKEN, logits.pop()))
            for tok, logit in zip(names, logits):
                total, count = hyp.content_total, hyp.content_count
                if tok != SEP_TOKEN:  # a separator leaves sum and count unchanged
                    total, count = total + logit, count + 1
                step.append(((-(total / count), -total, len(step)), p, tok, logit))
        done.sort(key=_Hypothesis.sort_key)
        del done[beam_width:]
        step.sort()
        live = [
            (
                live[p][0].child(tok, logit),
                0 if tok == SEP_TOKEN else trie.child(live[p][1], tok),
            )
            for _, p, tok, logit in step[:beam_width]
        ]

    if not done:
        raise AllBeamsDead(f"no alignment decoded for {label or seed_text!r}")
    return [h.freeze() for h in done[:beam_width]]


class _ChoiceNode:
    __slots__ = ("children", "choice")

    def __init__(self) -> None:
        self.children: dict[str, _ChoiceNode] = {}
        self.choice: Optional[str] = None


def _choice_tokens(
    scorer: TokenScorer, choice: str, tokenized: MutableMapping[str, list[str]]
) -> list[str]:
    tokens = tokenized.get(choice)
    if tokens is None:
        tokens = tokenized[choice] = scorer.tokenize(choice)
    if not tokens:
        tokens = [choice.strip().lower() or choice]
    if STOP_TOKEN in tokens and tokens != [STOP_TOKEN]:
        raise ValidationError(f"choice {choice!r} collides with the stop token")
    return tokens


def constrained_choice_decode(
    scorer: TokenScorer,
    choices: Sequence[str],
    context: Context,
    tokenized: Optional[MutableMapping[str, list[str]]] = None,
) -> tuple[str, list[float]]:
    """Greedy-decode exactly one of `choices` after `context`, returning
    it with its logits.

    Decoding is masked to the union trie of the tokenized choices, so the
    result is always a member of the choice set. ``tokenized`` memoizes
    ``scorer.tokenize`` of each choice: pass one dict for every decode
    with the same scorer so each choice is tokenized once. ``context`` is
    left as it was: a step after the first scores a copy extended by the
    tokens emitted so far.
    """
    if not choices:
        raise ValidationError("cannot decode from an empty choice set")
    if not isinstance(context, Context):
        raise ValidationError("the choice decoder takes a tokenized Context")
    if tokenized is None:
        tokenized = {}
    root = _ChoiceNode()
    for choice in sorted(choices):
        node = root
        for tok in _choice_tokens(scorer, choice, tokenized):
            node = node.children.setdefault(tok, _ChoiceNode())
        if node.choice is None:
            node.choice = choice

    emitted: list[str] = []
    logits: list[float] = []
    node = root
    while True:
        if node.choice is not None and not node.children:
            return node.choice, logits
        candidates = sorted(node.children)
        if node.choice is not None:
            candidates.append(STOP_TOKEN)
        scored = checked_score(
            scorer, context.plus(emitted) if emitted else context, candidates
        )
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
        try:
            valid = isinstance(token, str) and math.isfinite(logit)
        except TypeError:
            valid = False
        if not valid:
            raise ScorerError(
                f"{type(scorer).__name__}.free_next must return a string token"
                " and a finite float"
            )
        if token == STOP_TOKEN:
            break
        tokens.append(token)
        logits.append(logit)
    return tokens, logits
