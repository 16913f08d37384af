"""Retrieval baselines, set metrics, and the evaluation harness."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import AbstractSet, Callable, Optional, Protocol, Sequence

from . import prompts
from .corpus import Corpus, serialize_object
from .embedding import EmbeddingProvider, VectorStore, object_similarity, top_objects
from .errors import EmptyGold, ParseError, UnknownGoldId, ValidationError
from .jsonio import read_jsonl
from .lm import SEP_TOKEN, TokenScorer, free_decode, left_sum
from .ngram_index import normalize_tokens
from .pipeline import ArmResult, RetrievalEngine


def _dense_ranking(
    question: str, store: VectorStore, provider: EmbeddingProvider, top_k: int
) -> list[tuple[str, float]]:
    """The top_k (id, best-chunk cosine) pairs, best first, ties by id."""
    if top_k < 1:
        raise ValidationError(f"top_k must be >= 1, got {top_k}")
    sims = object_similarity(store, provider.embed(question))
    ids = store.object_ids
    return [(ids[j], float(sims[j])) for j in top_objects(sims, top_k)]


def dense_retrieve(
    question: str,
    store: VectorStore,
    provider: EmbeddingProvider,
    top_k: int = 5,
) -> list[str]:
    """Rank objects by best-chunk cosine against the question."""
    return [oid for oid, _ in _dense_ranking(question, store, provider, top_k)]


class Reranker(Protocol):
    """Scores a question against one serialized object; higher is better."""

    def score(self, question: str, serialized_object: str) -> float: ...


def overlap_coefficient(a: AbstractSet[str], b: AbstractSet[str]) -> float:
    """Intersection over the smaller set; 0 when either set is empty."""
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


class OverlapReranker:
    """Token-overlap coefficient between question and object text.

    A ranking scores many objects against one question, so the question's
    token set is kept from the last call and rebuilt only for a new
    question. Each object text's token set is kept for the reranker's
    life, keyed by the text itself, so a text is tokenized once however
    many questions pool it. The memo holds one entry per distinct text
    scored: through a runner, at most one per corpus object.
    """

    def __init__(self) -> None:
        self._question: Optional[str] = None
        self._question_tokens: set[str] = set()
        self._object_tokens: dict[str, frozenset[str]] = {}

    def score(self, question: str, serialized_object: str) -> float:
        if question != self._question:
            self._question = question
            self._question_tokens = set(normalize_tokens(question))
        tokens = self._object_tokens.get(serialized_object)
        if tokens is None:
            tokens = frozenset(normalize_tokens(serialized_object))
            self._object_tokens[serialized_object] = tokens
        return overlap_coefficient(self._question_tokens, tokens)


def _serialized(corpus: Corpus, texts: dict[str, str], oid: str) -> str:
    """``oid``'s ``serialize_object`` text, made on first use and kept in
    ``texts``, keyed by id."""
    text = texts.get(oid)
    if text is None:
        text = texts[oid] = serialize_object(corpus.by_id[oid])
    return text


def rerank_retrieve(
    question: str,
    store: VectorStore,
    provider: EmbeddingProvider,
    corpus: Corpus,
    reranker: Reranker,
    pool: int = 50,
    top_k: int = 5,
    texts: Optional[dict[str, str]] = None,
) -> list[str]:
    """Rescore the dense top pool with the reranker. Each pooled object's
    text is read from ``texts``, by id, or made and added there; a caller
    that passes the same dict for many questions serializes an object
    once."""
    if pool < top_k:
        raise ValidationError(f"pool {pool} smaller than top_k {top_k}")
    texts = {} if texts is None else texts
    candidates = dense_retrieve(question, store, provider, top_k=pool)
    scored = [
        (-reranker.score(question, _serialized(corpus, texts, oid)), oid)
        for oid in candidates
    ]
    scored.sort()
    return [oid for _, oid in scored[:top_k]]


@dataclass(frozen=True)
class DecompositionResult:
    retrieved: tuple[str, ...]
    subquestions: tuple[str, ...]
    llm_calls: int


def decomposed_retrieve(
    scorer: TokenScorer,
    question: str,
    store: VectorStore,
    provider: EmbeddingProvider,
    corpus: Corpus,
    reranker: Optional[Reranker] = None,
    per_sub: int = 30,
    top_k: int = 5,
    max_subquestions: int = 6,
    template: Optional[str] = None,
    texts: Optional[dict[str, str]] = None,
) -> DecompositionResult:
    """Decompose, retrieve per sub-question, rescore the union.

    The single decomposition pass is the one model call. Without a
    reranker the union is ranked by its best dense score over any
    sub-question; with one, by reranker score against the original
    question, each object's text read from ``texts`` or made and added
    there, as ``rerank_retrieve`` does. A decode that yields nothing falls
    back to the question itself as the only sub-question.
    """
    prompt = (template or prompts.DECOMPOSE_TEMPLATE).format(user_question=question)
    tokens, _ = free_decode(scorer, prompt)
    subquestions: list[str] = []
    current: list[str] = []
    for tok in tokens:
        if tok == SEP_TOKEN:
            if current:
                subquestions.append(" ".join(current))
            current = []
        else:
            current.append(tok)
    if current:
        subquestions.append(" ".join(current))
    subquestions = subquestions[:max_subquestions]
    if not subquestions:
        subquestions = [question]

    union: dict[str, float] = {}
    for sub in subquestions:
        for oid, score in _dense_ranking(sub, store, provider, per_sub):
            if score > union.get(oid, float("-inf")):
                union[oid] = score
    if reranker is not None:
        texts = {} if texts is None else texts
        rescored = {
            oid: reranker.score(question, _serialized(corpus, texts, oid))
            for oid in union
        }
    else:
        rescored = union
    ranked = sorted(rescored.items(), key=lambda item: (-item[1], item[0]))
    return DecompositionResult(
        retrieved=tuple(oid for oid, _ in ranked[:top_k]),
        subquestions=tuple(subquestions),
        llm_calls=1,
    )


@dataclass(frozen=True)
class AgentStep:
    thought: str
    action: str
    argument: str
    observation: str


@dataclass(frozen=True)
class AgentResult:
    retrieved: tuple[str, ...]
    steps: tuple[AgentStep, ...]
    iterations: int
    llm_calls: int
    objects_provided: int
    termination: str  # finish | max_iterations | malformed


SEARCH_ACTION = "search"
FINISH_ACTION = "finish"


def agentic_retrieve(
    scorer: TokenScorer,
    question: str,
    store: VectorStore,
    provider: EmbeddingProvider,
    max_iterations: int = 8,
    per_search: int = 5,
    template: Optional[str] = None,
) -> AgentResult:
    """Thought / search / finish loop over dense lookups.

    Each iteration is one model call; accounting reports calls as
    iterations minus one. A generation with no recognizable action is
    counted and ends the loop.
    """
    if max_iterations < 1:
        raise ValidationError(f"max_iterations must be >= 1, got {max_iterations}")
    tmpl = template or prompts.REACT_TEMPLATE
    history = ""
    seen: list[str] = []
    steps: list[AgentStep] = []
    provided = 0
    iterations = 0
    termination = "max_iterations"
    while iterations < max_iterations:
        iterations += 1
        prompt = tmpl.format(user_question=question, history=history)
        tokens, _ = free_decode(scorer, prompt)
        action_pos = next(
            (
                i
                for i, tok in enumerate(tokens)
                if tok in (SEARCH_ACTION, FINISH_ACTION)
            ),
            None,
        )
        if action_pos is None:
            steps.append(
                AgentStep(
                    thought=" ".join(tokens),
                    action="malformed",
                    argument="",
                    observation="",
                )
            )
            termination = "malformed"
            break
        thought = " ".join(tokens[:action_pos])
        action = tokens[action_pos]
        argument = " ".join(tokens[action_pos + 1 :])
        if action == FINISH_ACTION:
            steps.append(
                AgentStep(
                    thought=thought, action=action, argument=argument, observation=""
                )
            )
            termination = "finish"
            break
        ids = dense_retrieve(argument or question, store, provider, top_k=per_search)
        provided += len(ids)
        for oid in ids:
            if oid not in seen:
                seen.append(oid)
        observation = " ".join(ids)
        steps.append(
            AgentStep(
                thought=thought,
                action=action,
                argument=argument,
                observation=observation,
            )
        )
        history += (
            f" thought: {thought} action: {action} {argument} "
            f"observation: {observation}"
        )
    return AgentResult(
        retrieved=tuple(seen),
        steps=tuple(steps),
        iterations=iterations,
        llm_calls=iterations - 1,
        objects_provided=provided,
        termination=termination,
    )


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    perfect_recall: bool


def compute_metrics(retrieved: Sequence[str], gold: Sequence[str]) -> Metrics:
    """Set precision/recall/F1 plus the all-gold-found indicator.

    Duplicate retrievals collapse into a set before scoring.
    """
    gold_set = set(gold)
    if not gold_set:
        raise EmptyGold("gold set is empty")
    retrieved_set = set(retrieved)
    hits = len(retrieved_set & gold_set)
    precision = hits / len(retrieved_set) if retrieved_set else 0.0
    recall = hits / len(gold_set)
    f1 = (
        0.0
        if precision + recall == 0.0
        else 2.0 * precision * recall / (precision + recall)
    )
    return Metrics(
        precision=precision,
        recall=recall,
        f1=f1,
        perfect_recall=gold_set <= retrieved_set,
    )


@dataclass(frozen=True)
class Question:
    question_id: str
    question: str
    gold_ids: tuple[str, ...]


def load_questions(path: str) -> list[Question]:
    questions = []
    for record, where in read_jsonl(path, "questions file"):
        try:
            question_id = record["question_id"]
            question = record["question"]
            gold = record["gold_object_ids"]
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc}") from exc
        # ids are strings; an integer id reads as its decimal text
        if type(question_id) not in (str, int):
            raise ParseError(f"{where}: question_id must be a string or an integer")
        if not isinstance(question, str):
            raise ParseError(f"{where}: question must be a string")
        if not isinstance(gold, list) or not all(type(g) in (str, int) for g in gold):
            raise ParseError(f"{where}: gold_object_ids must be a list of ids")
        questions.append(
            Question(str(question_id), question, tuple(str(g) for g in gold))
        )
    return questions


@dataclass(frozen=True)
class QuestionRow:
    question_id: str
    retrieved: tuple[str, ...]
    precision: float
    recall: float
    f1: float
    perfect_recall: bool
    llm_calls: int
    objects_provided: int
    # the full answer behind an arm row, so a trace can reuse it
    arm_result: Optional[ArmResult] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class EvalResult:
    method: str
    rows: tuple[QuestionRow, ...]
    precision: float
    recall: float
    f1: float
    perfect_recall_pct: float
    avg_llm_calls: float
    avg_objects: float


# the per-method summary of results.json and results.csv, in CSV column order
SUMMARY_COLUMNS = tuple(f.name for f in fields(EvalResult) if f.type == "float")

METHODS = ("dense", "rerank", "dense-decomp", "rerank-decomp", "react", "arm")

# retrieved ids, llm calls, objects provided
MethodRunner = Callable[[Question], tuple[list[str], int, int]]


def build_runner(method: str, engine: RetrievalEngine, top_k: int) -> MethodRunner:
    """The runner of one baseline; ``arm`` has none, as its callers keep
    the whole ``engine.run_arm`` result. A runner rejects a blank
    question, as ``run_arm`` does."""
    runner = _method_runner(method, engine, top_k)

    def run(q: Question) -> tuple[list[str], int, int]:
        if not q.question.strip():
            raise ValidationError("question is empty")
        return runner(q)

    return run


def _method_runner(method: str, engine: RetrievalEngine, top_k: int) -> MethodRunner:
    cfg = engine.config
    dense = (engine.store, engine.provider)
    common = (*dense, engine.corpus)
    if method == "dense":
        def run_dense(q: Question) -> tuple[list[str], int, int]:
            ids = dense_retrieve(q.question, *dense, top_k=top_k)
            return ids, 0, len(ids)

        return run_dense
    # the rerank runners keep one reranker, and one dict of object texts,
    # for their life, so each memo serves every question
    texts: dict[str, str] = {}
    if method == "rerank":
        reranker = OverlapReranker()
        pool = max(min(cfg.rerank_pool, len(engine.corpus.objects)), top_k)

        def run_rerank(q: Question) -> tuple[list[str], int, int]:
            ids = rerank_retrieve(
                q.question, *common, reranker, pool=pool, top_k=top_k, texts=texts
            )
            return ids, 0, len(ids)

        return run_rerank
    if method in ("dense-decomp", "rerank-decomp"):
        reranker = OverlapReranker() if method == "rerank-decomp" else None

        def run_decomp(q: Question) -> tuple[list[str], int, int]:
            result = decomposed_retrieve(
                engine.scorer,
                q.question,
                *common,
                reranker=reranker,
                per_sub=cfg.per_sub,
                top_k=top_k,
                max_subquestions=cfg.max_subquestions,
                template=engine.templates["decompose"],
                texts=texts,
            )
            return list(result.retrieved), result.llm_calls, len(result.retrieved)

        return run_decomp
    if method == "react":
        def run_react(q: Question) -> tuple[list[str], int, int]:
            result = agentic_retrieve(
                engine.scorer,
                q.question,
                *dense,
                max_iterations=cfg.max_iterations,
                per_search=cfg.per_search,
                template=engine.templates["react"],
            )
            return list(result.retrieved), result.llm_calls, result.objects_provided

        return run_react
    raise ValidationError(f"unknown method {method!r}")


def run_eval(
    engine: RetrievalEngine,
    questions: Sequence[Question],
    methods: Sequence[str] = METHODS,
) -> dict[str, EvalResult]:
    """Score each method over the question set; macro-averaged summary."""
    if not questions:
        raise ValidationError("no questions to evaluate")
    known = set(engine.corpus.by_id)
    for q in questions:
        if not q.question.strip():
            raise ValidationError(f"question {q.question_id!r} is empty")
        if not q.gold_ids:
            raise EmptyGold(f"question {q.question_id!r} has no gold objects")
        missing = [g for g in q.gold_ids if g not in known]
        if missing:
            raise UnknownGoldId(
                f"question {q.question_id!r}: unknown gold ids {missing}"
            )
    k = engine.config.final_k
    results: dict[str, EvalResult] = {}
    for method in methods:
        runner = None if method == "arm" else build_runner(method, engine, k)

        def score_one(q: Question) -> QuestionRow:
            arm_result = None
            if runner is None:
                arm_result = engine.run_arm(q.question)
                retrieved = list(arm_result.final)
                llm_calls, provided = arm_result.llm_calls, len(retrieved)
            else:
                retrieved, llm_calls, provided = runner(q)
            metrics = compute_metrics(retrieved, q.gold_ids)
            return QuestionRow(
                question_id=q.question_id,
                retrieved=tuple(retrieved),
                precision=metrics.precision,
                recall=metrics.recall,
                f1=metrics.f1,
                perfect_recall=metrics.perfect_recall,
                llm_calls=llm_calls,
                objects_provided=provided,
                arm_result=arm_result,
            )

        rows = tuple(score_one(q) for q in questions)
        n = len(rows)
        results[method] = EvalResult(
            method=method,
            rows=rows,
            precision=left_sum(r.precision for r in rows) / n,
            recall=left_sum(r.recall for r in rows) / n,
            f1=left_sum(r.f1 for r in rows) / n,
            perfect_recall_pct=100.0 * sum(r.perfect_recall for r in rows) / n,
            avg_llm_calls=sum(r.llm_calls for r in rows) / n,
            avg_objects=sum(r.objects_provided for r in rows) / n,
        )
    return results


def eval_to_json(results: dict[str, EvalResult]) -> str:
    payload = {
        "version": 1,
        "methods": {
            name: {
                **{column: getattr(res, column) for column in SUMMARY_COLUMNS},
                "rows": [
                    {
                        "question_id": row.question_id,
                        "retrieved": list(row.retrieved),
                        "precision": row.precision,
                        "recall": row.recall,
                        "f1": row.f1,
                        "perfect_recall": row.perfect_recall,
                        "llm_calls": row.llm_calls,
                        "objects_provided": row.objects_provided,
                    }
                    for row in res.rows
                ],
            }
            for name, res in sorted(results.items())
        },
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def eval_to_csv(results: dict[str, EvalResult]) -> str:
    lines = [",".join(("method",) + SUMMARY_COLUMNS)]
    for name, res in sorted(results.items()):
        values = (f"{getattr(res, column):.6f}" for column in SUMMARY_COLUMNS)
        lines.append(",".join((name, *values)))
    return "\n".join(lines) + "\n"
