"""Seeded synthetic corpus of bridge chains over a dense shared value pool.

Every question has one chain of three gold objects:

- an *anchor* table whose title is the question itself;
- a *bridge* table that shares no token with any question and is reached
  only through a join column whose code values overlap the anchor's;
- a *passage* linked to the bridge by an entity mention.

Table cells outside the join column draw from one shared value pool and
passage words from one shared word pool. The pools are small, so most
pairs of objects share some value or word and have a positive
compatibility score, even under the benchmark's 4096-dimension hashed
embedding, in which unrelated tokens never collide. That makes
compatibility scoring and its cache the dominant cost of a
full-pipeline question, which is why the benchmark uses this corpus.
The pools are disjoint, so only the planted links are strong.

The same seed always yields the same objects and questions, so the
corpus written with ``alignrag.corpus.save_corpus`` is byte-identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from alignrag.baselines_eval import Question
from alignrag.corpus import DataObject, ObjectKind

N_OBJECTS = 1000
N_CHAINS = 200
VALUE_POOL = 60
WORD_POOL = 60
ANCHOR_ROWS = 3
BRIDGE_ROWS = 4
DISTRACTOR_ROWS = 3
PASSAGE_SENTENCES = 1
SENTENCE_WORDS = 5

_ONSETS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


class ConstructionError(Exception):
    """The generated corpus lacks a property the workloads rely on."""


class _Vocab:
    """Seeded factory of distinct lowercase pseudo-words."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def word(self) -> str:
        while True:
            syllables = self.rng.randint(2, 3)
            text = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                for _ in range(syllables)
            )
            if text not in self.used:
                self.used.add(text)
                return text

    def words(self, n: int) -> list[str]:
        return [self.word() for _ in range(n)]


@dataclass(frozen=True)
class Chain:
    anchor_id: str
    bridge_id: str
    passage_id: str


@dataclass(frozen=True)
class SynthCorpus:
    seed: int
    objects: tuple[DataObject, ...]
    questions: tuple[Question, ...]
    chains: tuple[Chain, ...]


def generate(seed: int) -> SynthCorpus:
    """Build and check the corpus for one seed."""
    rng = random.Random(seed)
    vocab = _Vocab(rng)
    values = vocab.words(VALUE_POOL)
    pool = vocab.words(WORD_POOL)

    def sentence(lead: list[str]) -> str:
        return " ".join(lead + rng.sample(pool, SENTENCE_WORDS - len(lead)))

    objects: list[DataObject] = []
    questions: list[Question] = []
    chains: list[Chain] = []
    for i in range(N_CHAINS):
        q_tokens = vocab.words(3)
        codes = vocab.words(BRIDGE_ROWS)
        code_header, ref_header, entity = vocab.words(3)
        chain = Chain(f"a{i:04d}", f"b{i:04d}", f"p{i:04d}")
        objects.append(
            DataObject(
                id=chain.anchor_id,
                kind=ObjectKind.TABLE,
                title=" ".join(q_tokens),
                columns=(vocab.word(), code_header),
                rows=tuple(
                    (rng.choice(values), codes[r]) for r in range(ANCHOR_ROWS)
                ),
            )
        )
        objects.append(
            DataObject(
                id=chain.bridge_id,
                kind=ObjectKind.TABLE,
                title=" ".join(vocab.words(2)),
                columns=(code_header, ref_header),
                rows=tuple(
                    (codes[r], entity if r == 0 else rng.choice(values))
                    for r in range(BRIDGE_ROWS)
                ),
            )
        )
        objects.append(
            DataObject(
                id=chain.passage_id,
                kind=ObjectKind.PASSAGE,
                title=f"{q_tokens[0]} {vocab.word()}",
                sentences=(
                    sentence([entity, vocab.word()]),
                    *(sentence([]) for _ in range(PASSAGE_SENTENCES - 1)),
                ),
            )
        )
        chains.append(chain)
        questions.append(
            Question(
                question_id=f"q{i:04d}",
                question=" ".join(q_tokens),
                gold_ids=(chain.anchor_id, chain.bridge_id, chain.passage_id),
            )
        )

    n_distractors = N_OBJECTS - 3 * N_CHAINS
    for j in range(n_distractors):
        if j % 2 == 0:
            objects.append(
                DataObject(
                    id=f"t{j:04d}",
                    kind=ObjectKind.TABLE,
                    title=" ".join(rng.sample(values, 2)),
                    columns=tuple(vocab.words(2)),
                    rows=tuple(
                        tuple(rng.sample(values, 2)) for _ in range(DISTRACTOR_ROWS)
                    ),
                )
            )
        else:
            objects.append(
                DataObject(
                    id=f"s{j:04d}",
                    kind=ObjectKind.PASSAGE,
                    title=" ".join(rng.sample(pool, 2)),
                    sentences=tuple(sentence([]) for _ in range(PASSAGE_SENTENCES)),
                )
            )

    corpus = SynthCorpus(
        seed=seed,
        objects=tuple(objects),
        questions=tuple(questions),
        chains=tuple(chains),
    )
    check_construction(corpus)
    return corpus


def _tokens(obj: DataObject) -> set[str]:
    texts = [obj.title, *obj.columns, *obj.sentences]
    texts.extend(cell for row in obj.rows for cell in row)
    return {tok for text in texts for tok in text.split()}


def check_construction(corpus: SynthCorpus) -> None:
    """Raise ConstructionError unless every chain has its designed shape."""
    by_id = {obj.id: obj for obj in corpus.objects}
    if len(by_id) != len(corpus.objects):
        raise ConstructionError("duplicate object ids")
    question_tokens = {t for q in corpus.questions for t in q.question.split()}
    for chain, question in zip(corpus.chains, corpus.questions, strict=True):
        missing = [
            oid
            for oid in (chain.anchor_id, chain.bridge_id, chain.passage_id)
            if oid not in by_id
        ]
        if missing:
            raise ConstructionError(f"{question.question_id}: chain lacks {missing}")
        if set(question.gold_ids) != {chain.anchor_id, chain.bridge_id, chain.passage_id}:
            raise ConstructionError(f"{question.question_id}: gold is not its chain")
        anchor = by_id[chain.anchor_id]
        bridge = by_id[chain.bridge_id]
        passage = by_id[chain.passage_id]
        if anchor.title != question.question:
            raise ConstructionError(f"{question.question_id}: anchor title differs")
        if _tokens(bridge) & question_tokens:
            raise ConstructionError(
                f"{question.question_id}: bridge shares a token with a question"
            )
        if anchor.columns[1] != bridge.columns[0]:
            raise ConstructionError(f"{question.question_id}: join headers differ")
        anchor_codes = {row[1] for row in anchor.rows}
        bridge_codes = {row[0] for row in bridge.rows}
        if anchor_codes - bridge_codes or len(bridge_codes) != BRIDGE_ROWS:
            raise ConstructionError(
                f"{question.question_id}: join column does not share its codes"
            )
        if bridge.rows[0][1] != passage.sentences[0].split()[0]:
            raise ConstructionError(
                f"{question.question_id}: passage does not mention the bridge entity"
            )
