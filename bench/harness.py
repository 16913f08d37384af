"""Workloads, the closed measurement loop, the correctness gate and metrics.

Imported by ``run.py`` once ``src/`` and ``tests/`` are on the path. One
process runs one workload, single-threaded: each question is sent only
after the previous one returned.
"""

from __future__ import annotations

import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from itertools import count, islice
from pathlib import Path
from typing import Callable, Iterator, Optional

from alignrag.baselines_eval import Question, build_runner, compute_metrics, load_questions
from alignrag.config import Config, load_config
from alignrag.corpus import build_corpus, load_corpus, save_corpus
from alignrag.errors import AlignragError
from alignrag.ngram_index import (
    build_bm25,
    build_trie,
    corpus_ngrams,
    load_index,
    save_index,
)
from alignrag.pipeline import ArmResult, RetrievalEngine, build_provider, build_scorer
from alignrag.struct_align import build_mip_instance, check_draft

import spans
import synth
from planted import build_planted

WORKLOADS = ("planted", "synth-1k", "scan-1k")
BASELINES = ("dense", "rerank", "dense-decomp", "rerank-decomp")
PREPARE = Path(__file__).resolve().with_name("prepare.py")
PREPARE_TIMEOUT_S = 120
# Timed engine builds at the start of every pass; setup_s is their
# median. Builds spread over the whole run sample the machine at several
# times, so a slow moment of a shared host moves few of them; ten builds
# in a row at the start of a run spread by 0.43 over five seeds.
BUILDS_PER_PASS = 3
REPLAY = 3  # questions answered again after the loop for the determinism check
COVERAGE_LIMIT = 0.05  # stage spans must cover all but this share of run_arm
# The synthetic corpus hashes into 4096 buckets, like the planted set, so
# unrelated tokens never collide. base_size 5 keeps search sets at no more
# than 20 objects, so one full-pipeline question takes well under a second
# and a run answers enough questions for a steady median.
SYNTH_CONFIG = dict(embed_dim=4096, base_size=5)
# Questions each fresh engine answers; a pass takes the next distinct
# questions of the seed's order. On synth-1k the cache thus warms over
# the same number of questions in every pass. scan-1k has no cache to
# warm; its passes only spread the set-up builds over the run.
PASS_SIZES = {"planted": 20, "synth-1k": 15, "scan-1k": 25}
# Nominal seconds of one pass, builds included, on the machine of the
# baseline profile in README.md. A run of --seconds answers
# round(seconds / PASS_SECONDS) passes, at least one, so its work
# depends on --seconds and the seed but not on the machine's speed: a
# run on a faster host does not answer more, or other, questions.
PASS_SECONDS = {"planted": 2.6, "synth-1k": 10.5, "scan-1k": 5.5}
# A much slower program stops starting passes after this many times
# --seconds, so that a run still ends in time.
OVERRUN = 2.0
# recall is scored on the first this many distinct questions of the
# seed's order: those the timed loop did not reach are answered after
# it, untimed.
QUALITY_SIZES = {"planted": 20, "synth-1k": 60, "scan-1k": 200}


@dataclass
class Inputs:
    """Files on disk plus what the loop needs to replay them."""

    workload: str
    corpus_path: Path
    index_path: Path
    config: Config
    questions: list[Question]
    pass_size: int  # questions per fresh engine
    pass_seconds: float
    quality_size: int
    stage: str
    baselines: tuple[str, ...]

    def passes(self) -> Iterator[list[Question]]:
        """The questions of a timed loop, one list per fresh engine."""
        questions, size = self.questions, self.pass_size
        for k in count():
            yield [questions[(k * size + i) % len(questions)] for i in range(size)]

    def n_passes(self, seconds: float) -> int:
        """Passes a run of this many seconds answers."""
        return max(1, round(seconds / self.pass_seconds))


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's corpus, index, config and ordered questions."""
    if workload == "planted":
        bench = build_planted()
        objects, questions, config = bench.corpus.objects, list(bench.questions), bench.config
    else:
        generated = synth.generate(seed)
        objects, questions = generated.objects, list(generated.questions)
        config = Config(**SYNTH_CONFIG)
    config.validate()
    random.Random(seed).shuffle(questions)
    corpus = build_corpus(objects, chunk_units=config.chunk_units)
    save_corpus(corpus, str(workdir / "corpus.jsonl"))
    save_index(
        str(workdir / "index.json"),
        build_trie(corpus_ngrams(corpus.chunks)),
        build_bm25(corpus.chunks, k1=config.bm25_k1, b=config.bm25_b),
        corpus.chunk_units,
    )
    (workdir / "config.json").write_text(json.dumps(asdict(config)), encoding="utf-8")
    with open(workdir / "questions.jsonl", "w", encoding="utf-8") as handle:
        for q in questions:
            record = {
                "question_id": q.question_id,
                "question": q.question,
                "gold_object_ids": list(q.gold_ids),
            }
            handle.write(json.dumps(record) + "\n")


def load_inputs(workload: str, seed: int, workdir: Path) -> Inputs:
    """Prepare the inputs in a child process, then read them as the CLI does.

    Generating the corpus and building its index happen in the child, so
    the measuring process's peak memory covers only loading the files and
    the loop.
    """
    subprocess.run(
        [sys.executable, str(PREPARE), workload, str(seed), str(workdir)],
        check=True,
        timeout=PREPARE_TIMEOUT_S,
    )
    return Inputs(
        workload=workload,
        corpus_path=workdir / "corpus.jsonl",
        index_path=workdir / "index.json",
        config=load_config(str(workdir / "config.json")),
        questions=load_questions(str(workdir / "questions.jsonl")),
        pass_size=PASS_SIZES[workload],
        pass_seconds=PASS_SECONDS[workload],
        quality_size=QUALITY_SIZES[workload],
        stage="ia" if workload == "scan-1k" else "full",
        baselines=BASELINES if workload == "scan-1k" else (),
    )


def _untraced(name: str, fn: Callable, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Record:
    """One answered question: the arm result and every method's list."""

    question: Question
    arm: ArmResult
    lists: list[list[str]]


@dataclass
class Run:
    setup_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    cpu_s: float = 0.0
    failed: int = 0
    records: list[Record] = field(default_factory=list)  # timed, then untimed
    plan: list[list[Question]] = field(default_factory=list)
    engine: Optional[RetrievalEngine] = None
    peak_rss_mb: float = 0.0


class Loop:
    """Closed-loop runner for one workload, optionally traced."""

    def __init__(self, inputs: Inputs, tracer: Optional[spans.Tracer] = None) -> None:
        self.inputs = inputs
        self.tracer = tracer
        self.call = tracer.call if tracer is not None else _untraced

    def build_engine(self) -> RetrievalEngine:
        """The CLI's path from files on disk to a ready engine."""
        inputs, call, tracer = self.inputs, self.call, self.tracer
        scorer = provider = None
        if tracer is not None:
            tracer.question = "setup"
            scorer = spans.CountingScorer(build_scorer(inputs.config))
            provider = spans.CountingProvider(build_provider(inputs.config))
            tracer.scorers.append(scorer)
        trie, bm25, chunk_units = call(
            "ngram_index.load_index", load_index, str(inputs.index_path)
        )
        corpus = call(
            "corpus.load_corpus",
            load_corpus,
            str(inputs.corpus_path),
            chunk_units=chunk_units,
        )
        engine = call(
            "pipeline.RetrievalEngine",
            RetrievalEngine,
            corpus,
            config=inputs.config,
            provider=provider,
            scorer=scorer,
            trie=trie,
            bm25=bm25,
        )
        if tracer is not None:
            tracer.setup_embed_texts += provider.texts
        return engine

    def fresh_engine(self) -> RetrievalEngine:
        """Build an engine on a clean heap; callers drop the previous one first."""
        gc.collect()
        return self.build_engine()

    def runners(self, engine: RetrievalEngine) -> list:
        return [
            (m, build_runner(m, engine, engine.config.final_k))
            for m in self.inputs.baselines
        ]

    def answer(self, engine: RetrievalEngine, runners, question: Question):
        arm = self.call(
            "pipeline.run_arm", engine.run_arm, question.question, stage=self.inputs.stage
        )
        lists = [list(arm.final)]
        for method, runner in runners:
            ids, _, _ = self.call(f"baselines_eval.{method}", runner, question)
            lists.append(list(ids))
        return arm, lists

    def run(
        self, seconds: Optional[float], plan: Optional[list[list[Question]]] = None
    ) -> Run:
        """Answer the passes a run of ``seconds`` takes, or exactly the given plan.

        Each pass builds the engine BUILDS_PER_PASS times, timed, and the
        last build answers the pass. After the loop one more engine is
        built for the gate. No build overlaps a live engine, as in a CLI
        process, which holds one.
        """
        inputs = self.inputs
        run = Run()
        cutoff = math.inf
        if plan is None:
            plan = list(islice(inputs.passes(), inputs.n_passes(seconds)))
            cutoff = time.perf_counter() + OVERRUN * seconds
        engine = runners = None
        for questions in plan:
            if run.plan and time.perf_counter() >= cutoff:
                break
            for _ in range(BUILDS_PER_PASS):
                engine = runners = None
                gc.collect()
                start = time.perf_counter()
                engine = self.build_engine()
                run.setup_s.append(time.perf_counter() - start)
            runners = self.runners(engine)
            for question in questions:
                if self.tracer is not None:
                    self.tracer.question = question.question_id
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    arm, lists = self.answer(engine, runners, question)
                except AlignragError:
                    run.failed += 1
                    continue
                run.latency_s.append(time.perf_counter() - t0)
                run.cpu_s += time.process_time() - cpu0
                run.records.append(Record(question, arm, lists))
            run.plan.append(questions)
        run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        engine = runners = None
        run.engine = self.fresh_engine()
        return run

    def complete(self, run: Run) -> None:
        """Answer, untimed, the quality questions the timed loop missed.

        They are answered in the loop's order and in passes of the same
        size, each on a fresh engine, so every one sees the cache state it
        would have had in the timed loop.
        """
        inputs = self.inputs
        answered = {r.question.question_id for r in run.records}
        missing = [
            q
            for q in inputs.questions[: inputs.quality_size]
            if q.question_id not in answered
        ]
        size = inputs.pass_size
        for start in range(0, len(missing), size):
            engine = runners = None
            engine = self.fresh_engine()
            runners = self.runners(engine)
            for question in missing[start : start + size]:
                try:
                    arm, lists = self.answer(engine, runners, question)
                except AlignragError:
                    run.failed += 1
                    continue
                run.records.append(Record(question, arm, lists))


# -- correctness gate ------------------------------------------------------


def gate(loop: Loop, run: Run) -> list[str]:
    """Check the invariants the paper promises on every recorded answer."""
    engine = run.engine
    violations: list[str] = []
    if not run.records:
        return ["no question was answered"]
    for rec in run.records:
        qid, arm = rec.question.question_id, rec.arm
        for alignment in arm.alignments:
            for aligned in alignment.lists:
                for gram in aligned.ngrams:
                    if gram not in engine.trie:
                        violations.append(f"{qid}: aligned {gram.text!r} not in trie (C03)")
        if not arm.drafts:
            continue
        relevance = engine.relevance_map(engine.provider.embed(rec.question.question))
        for search_set, draft in zip(arm.search_sets, arm.drafts, strict=True):
            k = min(engine.config.mip_k, len(search_set.object_ids))
            instance = build_mip_instance(
                search_set.object_ids, relevance, engine.cache.score, k
            )
            for problem in check_draft(instance, draft):
                violations.append(f"{qid}: draft {search_set.strategy}: {problem} (C02)")
        for selection in arm.selections:
            draft_index = int(selection.branch[1:].split("b")[0])
            outside = set(selection.selected) - set(arm.drafts[draft_index].object_ids)
            if outside:
                violations.append(
                    f"{qid}: branch {selection.branch} selected {sorted(outside)} "
                    "outside its draft (C03)"
                )

    first: dict[str, Record] = {}
    for rec in run.records:
        earlier = first.setdefault(rec.question.question_id, rec)
        if rec.lists != earlier.lists:
            violations.append(f"{rec.question.question_id}: answers differ (C10)")
    runners = loop.runners(engine)
    for rec in run.records[:REPLAY]:
        _, lists = loop.answer(engine, runners, rec.question)
        if lists != rec.lists:
            violations.append(f"{rec.question.question_id}: replay differs (C10)")

    if loop.inputs.workload == "planted" and _quality(loop.inputs, run)[1] != 100.0:
        violations.append("planted perfect recall below 100% (C04)")
    return violations


def _quality(inputs: Inputs, run: Run) -> tuple[float, float, int]:
    """Mean recall, perfect-recall percentage and count over the quality set."""
    wanted = {q.question_id for q in inputs.questions[: inputs.quality_size]}
    first: dict[str, Record] = {}
    for rec in run.records:
        if rec.question.question_id in wanted:
            first.setdefault(rec.question.question_id, rec)
    scores = [compute_metrics(r.arm.final, r.question.gold_ids) for r in first.values()]
    recall = statistics.fmean(m.recall for m in scores)
    perfect = 100.0 * sum(m.perfect_recall for m in scores) / len(scores)
    return recall, perfect, len(scores)


# -- metrics ---------------------------------------------------------------


def end_to_end(inputs: Inputs, run: Run) -> dict[str, tuple[float, str, int]]:
    """Every user-visible figure: (value, unit, sample count)."""
    n = len(run.latency_s)
    if n == 0:
        return {}
    ordered = sorted(run.latency_s)
    recall, perfect, scored = _quality(inputs, run)
    attempted = len(run.records) + run.failed
    metrics = {
        "latency_p50_ms": (statistics.median(ordered) * 1000.0, "ms", n),
        "qps": (n / sum(run.latency_s), "1/s", n),
        "cpu_ms_per_question": (run.cpu_s * 1000.0 / n, "ms", n),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
        "setup_s": (statistics.median(run.setup_s), "s", len(run.setup_s)),
        "recall": (recall, "ratio", scored),
        "perfect_recall_pct": (perfect, "%", scored),
        "failed_frac": (run.failed / attempted, "ratio", attempted),
    }
    # p90 only where at least ten samples lie beyond it
    if n >= 100:
        p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
        metrics["latency_p90_ms"] = (p90 * 1000.0, "ms", n)
    return metrics


def traced(
    inputs: Inputs, seconds: float, out_dir: Path, seed: int
) -> tuple[Run, dict[str, tuple[float, str, int]], list[str]]:
    """Untraced half, then the same questions traced; per-layer figures."""
    plain_loop = Loop(inputs)
    plain = plain_loop.run(seconds / 2.0)
    violations = gate(plain_loop, plain)
    if not plain.records:
        return plain, {}, violations

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_run = Loop(inputs, tracer).run(None, plan=plain.plan)
    finally:
        tracer.uninstall()
    if [r.lists for r in traced_run.records] != [r.lists for r in plain.records]:
        violations.append("traced answers differ from untraced answers")

    n = len(traced_run.latency_s)
    layers = spans.layer_metrics(
        tracer,
        n_questions=n,
        trie_ngrams=len(traced_run.engine.trie),
    )
    # CPU time, not wall time: steadier on a shared machine
    layers["trace.overhead_pct"] = (
        100.0 * (traced_run.cpu_s - plain.cpu_s) / plain.cpu_s,
        "%",
    )
    run_arm_ms = layers["pipeline.run_arm_ms"][0]
    unaccounted = layers["pipeline.unaccounted_ms"][0]
    if run_arm_ms <= 0.0 or unaccounted > COVERAGE_LIMIT * run_arm_ms:
        violations.append(
            f"stage spans cover {100.0 * (1 - unaccounted / run_arm_ms):.1f}% of "
            f"run_arm, below {100.0 * (1 - COVERAGE_LIMIT):.0f}%"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{inputs.workload}-seed{seed}"
    tracer.write(out_dir / f"spans-{stem}.jsonl")
    with_counts = {
        name: (v, unit, spans.setup_count(tracer) if name in spans.SETUP_METRICS else n)
        for name, (v, unit) in layers.items()
    }
    (out_dir / f"layers-{stem}.json").write_text(
        json.dumps(
            {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n",
        encoding="utf-8",
    )
    return plain, with_counts, violations


def execute(
    workload: str, seed: int, seconds: float, trace: bool, work_root: Path
) -> tuple[dict[str, tuple[float, str, int]], int, int, list[str]]:
    """Run one workload; return metrics, attempted, failed, violations."""
    work_root.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root, prefix=f"{workload}-") as tmp:
        inputs = load_inputs(workload, seed, Path(tmp))
        if trace:
            run, metrics, violations = traced(
                inputs, seconds, work_root / "out", seed
            )
        else:
            loop = Loop(inputs)
            run = loop.run(seconds)
            loop.complete(run)
            metrics = end_to_end(inputs, run)
            violations = gate(loop, run)
    attempted = len(run.records) + run.failed
    return metrics, attempted, run.failed, violations
