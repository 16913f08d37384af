"""Tests of the benchmark's synthetic corpus generator.

    python3 -m pytest bench/test_synth.py
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from alignrag.corpus import build_corpus, load_corpus, save_corpus  # noqa: E402

import synth  # noqa: E402


def _jsonl(tmp_path: Path, name: str, corpus: synth.SynthCorpus) -> bytes:
    path = tmp_path / name
    save_corpus(build_corpus(corpus.objects), str(path))
    return path.read_bytes()


def test_same_seed_gives_identical_jsonl(tmp_path):
    first = _jsonl(tmp_path, "a.jsonl", synth.generate(7))
    second = _jsonl(tmp_path, "b.jsonl", synth.generate(7))
    assert first == second
    assert first != _jsonl(tmp_path, "c.jsonl", synth.generate(8))


def test_full_size_corpus_loads_through_the_cli_path(tmp_path):
    corpus = synth.generate(3)
    assert len(corpus.objects) == synth.N_OBJECTS
    assert len(corpus.questions) == synth.N_CHAINS
    _jsonl(tmp_path, "corpus.jsonl", corpus)
    loaded = load_corpus(str(tmp_path / "corpus.jsonl"))
    assert loaded.objects == corpus.objects


def test_every_chain_has_its_designed_shape():
    corpus = synth.generate(5)
    by_id = {obj.id: obj for obj in corpus.objects}
    question_tokens = {t for q in corpus.questions for t in q.question.split()}
    for chain in corpus.chains:
        anchor, bridge = by_id[chain.anchor_id], by_id[chain.bridge_id]
        assert not synth._tokens(bridge) & question_tokens
        shared = {r[1] for r in anchor.rows} & {r[0] for r in bridge.rows}
        assert len(shared) == synth.ANCHOR_ROWS
        assert bridge.rows[0][1] in by_id[chain.passage_id].sentences[0].split()


def _replace(corpus, object_id, **changes):
    objects = tuple(
        dataclasses.replace(obj, **changes) if obj.id == object_id else obj
        for obj in corpus.objects
    )
    return dataclasses.replace(corpus, objects=objects)


def test_check_rejects_a_bridge_that_shares_a_question_token():
    corpus = synth.generate(5)
    chain, question = corpus.chains[0], corpus.questions[0]
    leaked = _replace(corpus, chain.bridge_id, title=question.question.split()[0])
    with pytest.raises(synth.ConstructionError, match="shares a token"):
        synth.check_construction(leaked)


def test_check_rejects_a_join_column_without_shared_codes():
    corpus = synth.generate(5)
    chain = corpus.chains[1]
    bridge = next(o for o in corpus.objects if o.id == chain.bridge_id)
    rows = tuple((f"x{r}", row[1]) for r, row in enumerate(bridge.rows))
    with pytest.raises(synth.ConstructionError, match="join column"):
        synth.check_construction(_replace(corpus, chain.bridge_id, rows=rows))


def test_check_rejects_an_incomplete_chain():
    corpus = synth.generate(5)
    missing = corpus.chains[2].passage_id
    broken = dataclasses.replace(
        corpus, objects=tuple(o for o in corpus.objects if o.id != missing)
    )
    with pytest.raises(synth.ConstructionError, match="chain lacks"):
        synth.check_construction(broken)
