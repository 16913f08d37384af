"""Command line entry points: retrieval and evaluation over a corpus file.

Each command reads the corpus and derives its lexical index, the n-gram
trie and the BM25 statistics, from the corpus's chunks, with the config's
``chunk_units``, ``bm25_k1`` and ``bm25_b``; no index file is read.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .baselines_eval import (
    METHODS,
    Question,
    build_runner,
    eval_to_csv,
    eval_to_json,
    load_questions,
    run_eval,
)
from .config import Config, resolve_config
from .corpus import load_corpus
from .errors import AlignragError, ConfigError, ValidationError
from .pipeline import RetrievalEngine


def _check_writable(path: Optional[str]) -> None:
    """Raise the ``OSError`` naming ``path`` that writing it would raise,
    before any work; a file this check creates is removed again."""
    if path is None:
        return
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _build_engine(args: argparse.Namespace, config: Config) -> RetrievalEngine:
    """The engine over ``--corpus``, its lexical index derived from it."""
    corpus = load_corpus(args.corpus, chunk_units=config.chunk_units)
    return RetrievalEngine(corpus, config=config)


def _resolve_config(args: argparse.Namespace) -> Config:
    """The ``--config`` or ``ARM_CONFIG`` config, ``--top-k`` its ``final_k``."""
    config = resolve_config(args.config)
    if args.top_k is not None:
        config = dataclasses.replace(config, final_k=args.top_k)
    return config


def cmd_retrieve(args: argparse.Namespace) -> int:
    if not args.question.strip():
        raise ValidationError("question is empty")
    if args.trace is not None and args.method != "arm":
        # the trace is ARM's staged record; a baseline has none to write
        raise ConfigError(f"--trace needs --method arm, got --method {args.method}")
    config = _resolve_config(args)
    _check_writable(args.trace)
    engine = _build_engine(args, config)
    if args.method == "arm":
        result = engine.run_arm(args.question)
        retrieved = result.final
        confidence = {e.object_id: e.confidence for e in result.confidence}
        for oid in retrieved:
            print(f"{oid}\t{confidence.get(oid, 0.0):.6f}")
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as handle:
                handle.write(json.dumps(result.to_trace("q0"), sort_keys=True))
                handle.write("\n")
            print(f"trace written to {args.trace}", file=sys.stderr)
    else:
        runner = build_runner(args.method, engine, config.final_k)
        retrieved, _, _ = runner(
            Question(question_id="q0", question=args.question, gold_ids=("_",))
        )
        for oid in retrieved:
            print(oid)
    return 0


def cmd_eval_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    os.makedirs(args.out, exist_ok=True)
    json_path = os.path.join(args.out, "results.json")
    csv_path = os.path.join(args.out, "results.csv")
    for path in (json_path, csv_path, args.trace):
        _check_writable(path)
    engine = _build_engine(args, config)
    questions = load_questions(args.questions)
    methods = list(dict.fromkeys(args.method or METHODS))  # a repeated --method runs once
    results = run_eval(engine, questions, methods=methods)
    with open(json_path, "w", encoding="utf-8") as handle:
        handle.write(eval_to_json(results))
    with open(csv_path, "w", encoding="utf-8") as handle:
        handle.write(eval_to_csv(results))
    if args.trace:
        if "arm" in results:
            answers = [row.arm_result for row in results["arm"].rows]
        else:
            answers = [engine.run_arm(q.question) for q in questions]
        with open(args.trace, "w", encoding="utf-8") as handle:
            for q, result in zip(questions, answers):
                handle.write(json.dumps(result.to_trace(q.question_id), sort_keys=True))
                handle.write("\n")
    header = (
        f"{'method':<14}{'P':>8}{'R':>8}{'F1':>8}{'PR':>8}"
        f"{'#calls':>8}{'#obj':>8}"
    )
    print(header)
    for name in methods:
        res = results[name]
        print(
            f"{name:<14}{res.precision:>8.3f}{res.recall:>8.3f}{res.f1:>8.3f}"
            f"{res.perfect_recall_pct:>8.1f}{res.avg_llm_calls:>8.2f}"
            f"{res.avg_objects:>8.2f}"
        )
    print(f"wrote {json_path} and {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alignrag",
        description="Aligned retrieval over mixed table/passage collections",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    retrieve = sub.add_parser("retrieve", help="answer one question")
    retrieve.add_argument("question")
    retrieve.add_argument("--corpus", required=True)
    retrieve.add_argument("--method", choices=METHODS, default="arm")
    retrieve.add_argument("--top-k", type=int, default=None)
    retrieve.add_argument("--trace", default=None)
    retrieve.add_argument("--config", default=None)
    retrieve.set_defaults(func=cmd_retrieve)

    ev = sub.add_parser("eval", help="evaluation harness")
    ev_sub = ev.add_subparsers(dest="eval_command", required=True)
    run = ev_sub.add_parser("run", help="run methods over a question set")
    run.add_argument("--corpus", required=True)
    run.add_argument("--questions", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--method", action="append", choices=METHODS, default=None)
    run.add_argument("--top-k", type=int, default=None)
    run.add_argument("--trace", default=None)
    run.add_argument("--config", default=None)
    run.set_defaults(func=cmd_eval_run)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # --top-k is checked before any file is read
        if args.top_k is not None and args.top_k < 1:
            raise ConfigError(f"--top-k must be >= 1, got {args.top_k}")
        return args.func(args)
    except (AlignragError, OSError) as exc:
        # an input file that cannot be read raises AlignragError, so an
        # OSError is an output path that cannot be written; it names the
        # path, and each command checks its output paths before any work
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
