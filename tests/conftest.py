"""Shared fixtures: a small mixed corpus and ready-made engines."""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from alignrag.config import Config
from alignrag.corpus import DataObject, ObjectKind, build_corpus
from alignrag.ngram_index import CLOSE_TOKEN, OPEN_TOKEN, SEP_TOKEN, Vocabulary
from alignrag.pipeline import RetrievalEngine

BENCH_DIR = str(Path(__file__).resolve().parents[1] / "bench")


def make_table(oid, title, columns, rows, description=None):
    return DataObject(
        id=oid,
        kind=ObjectKind.TABLE,
        title=title,
        description=description,
        columns=tuple(columns),
        rows=tuple(tuple(r) for r in rows),
    )


def make_passage(oid, title, sentences, description=None):
    return DataObject(
        id=oid,
        kind=ObjectKind.PASSAGE,
        title=title,
        description=description,
        sentences=tuple(sentences),
    )


class VectorTable:
    """A provider that reads each text's vector from a dict."""

    name = "table"

    def __init__(self, vectors, dimension):
        self.vectors, self.dimension = vectors, dimension

    def embed(self, text):
        return self.vectors[text]

    def embed_chunk(self, chunk):
        return self.vectors[chunk.text]


@pytest.fixture
def city_objects():
    return [
        make_table(
            "t1",
            "city populations",
            ["city", "pop"],
            [["paris", "2m"], ["lyon", "500k"]],
        ),
        make_table("t2", "country areas", ["country", "area"], [["france", "643"]]),
        make_passage(
            "p1",
            "paris overview",
            ["paris is the capital of france.", "lyon is smaller."],
        ),
    ]


@pytest.fixture
def city_corpus(city_objects):
    return build_corpus(city_objects)


class DeadTrie:
    """A one-gram trie whose root has no children, so every beam dies at
    the first step. No non-empty ``NGramTrie`` does this, as its root and
    every non-terminal node have children; this fake is the only way to
    reach the decoder's all-beams-dead branch."""

    ptr = np.array([1, 1])
    tokens = np.array([-1])
    words = ("",)
    terminal = np.array([False])
    vocab = Vocabulary((OPEN_TOKEN, CLOSE_TOKEN, SEP_TOKEN))

    def __len__(self):
        return 1

    def child(self, node, token):
        return -1


@pytest.fixture
def dead_trie():
    return DeadTrie()


@pytest.fixture(scope="module")
def synth_engine():
    """An engine on the ``synth-1k`` seed-7 corpus and its first 60
    questions, in the benchmark's order and at its config."""
    if BENCH_DIR not in sys.path:
        sys.path.append(BENCH_DIR)
    harness = importlib.import_module("harness")
    generated = importlib.import_module("synth").generate(7)
    questions = list(generated.questions)
    random.Random(7).shuffle(questions)
    config = Config(**harness.SYNTH_CONFIG)
    corpus = build_corpus(generated.objects, chunk_units=config.chunk_units)
    return RetrievalEngine(corpus, config=config), questions[:60]
