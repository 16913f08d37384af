"""End-to-end command line checks: retrieve, eval."""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import alignrag
from alignrag import baselines_eval, cli, struct_align
from alignrag.baselines_eval import METHODS
from alignrag.cli import main
from alignrag.corpus import build_corpus, load_corpus, save_corpus
from alignrag.pipeline import TRACE_SCHEMA, RetrievalEngine

import oracles
from planted import build_planted

CITY_RECORDS = [
    {
        "id": "t1",
        "kind": "table",
        "title": "city populations",
        "columns": ["city", "pop"],
        "rows": [["paris", "2m"], ["lyon", "500k"]],
    },
    {
        "id": "t2",
        "kind": "table",
        "title": "country areas",
        "columns": ["country", "area"],
        "rows": [["france", "643"]],
    },
    {
        "id": "p1",
        "kind": "passage",
        "title": "paris overview",
        "sentences": ["paris is the capital of france.", "lyon is smaller."],
    },
]

QUESTION_RECORDS = [
    {"question_id": "q1", "question": "paris population", "gold_object_ids": ["t1"]},
    {"question_id": "q2", "question": "france area", "gold_object_ids": ["t2"]},
]


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


def no_work(*args, **kwargs):
    raise AssertionError("the corpus was loaded before the output path was checked")


def planted_eval_argv(tmp_path, scorer):
    """``eval run`` argv for an all-method traced run on the planted
    benchmark, its questions in seed-1 order, under ``scorer``; the files
    go to ``tmp_path / "out"``."""
    planted = build_planted()
    config = dataclasses.replace(planted.config, scorer=scorer)
    questions = list(planted.questions)
    random.Random(1).shuffle(questions)
    corpus = tmp_path / "corpus.jsonl"
    objects = planted.corpus.objects
    save_corpus(build_corpus(objects, config.chunk_units), str(corpus))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(dataclasses.asdict(config)))
    records = [
        {
            "question_id": q.question_id,
            "question": q.question,
            "gold_object_ids": list(q.gold_ids),
        }
        for q in questions
    ]
    questions_path = write_jsonl(tmp_path / "questions.jsonl", records)
    out_dir = tmp_path / "out"
    argv = ["eval", "run", "--corpus", str(corpus), "--questions", questions_path]
    argv += ["--config", str(config_path), "--out", str(out_dir)]
    return argv + ["--trace", str(out_dir / "trace.jsonl")]


# the files a traced eval run writes
EVAL_FILES = ("results.json", "results.csv", "trace.jsonl")

# the SHA-256 of every file an all-method traced planted run writes, by scorer
PLANTED_PINS = {
    "mock": {
        "results.json": (
            "436c98ad01fa7f45993e4246ea97ee7467533b9ebc5b54e79c75845529f657ad"
        ),
        "results.csv": (
            "ae811e38a83aecc59c972e855bb58734fe0f6b0323cc253fb36e48283079fbef"
        ),
        "trace.jsonl": (
            "ef9b08e54990bc6aa9a02bf0201a4f44b9e8bb3c5756070a25d1574912c47a62"
        ),
    },
    # only the seeded scorer hashes noise into its logits
    "mock-random": {
        "results.json": (
            "7da708e8b7d19320b0e268f6f5626a79e70b7349c0da69bf1ad53c01f599f162"
        ),
        "results.csv": (
            "960a63ba3eb7540624fe08baed8bb5a76f8bbaf7d34954a74e42b268f12150fa"
        ),
        "trace.jsonl": (
            "eb477746230fb9fa585a822b3d2412c2be4b50dd6701e6bcfa733242de06f22e"
        ),
    },
}


# README's SHA-256 of the 60-question synth-1k seed-7 trace, by base size,
# and at base size 5 under the seeded scorer
SYNTH_TRACE_PINS = {
    5: "f2c907128cb1e7aa2c02deee56fde76ef768107cdebf6cae722bf1e4651b4c2f",
    10: "a286af9c9ae18f596ab2e1b6a67ab7e3d7ded9c0a773aa4bdbf8759e10d6ad5c",
    "mock-random": "65babc835e5171cc3e0294b75ba0bd818329da85c2fd7f8a56ede1edb738dd3a",
}
BENCH_DIR = str(Path(__file__).resolve().parents[1] / "bench")


def output_digests(out_dir):
    """The SHA-256 of every file ``planted_eval_argv``'s run writes, so
    that a change to any output shows."""
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in EVAL_FILES
    }


def reverse_lines(path):
    """Rewrite the file at ``path`` with its lines in reverse order."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(reversed(lines)))


def planted_digests(tmp_path, scorer):
    """The digests of ``planted_eval_argv``'s run, by the corpus file's
    line order: as saved, and reversed."""
    digests = {}
    for order in ("saved", "reversed"):
        workdir = tmp_path / order
        workdir.mkdir()
        argv = planted_eval_argv(workdir, scorer)
        if order == "reversed":
            reverse_lines(workdir / "corpus.jsonl")
        assert main(argv) == 0
        digests[order] = output_digests(workdir / "out")
    return digests


def assert_output_path_reported(capsys, path):
    """Exit 1 was reported on stderr by one ``error:`` line naming ``path``,
    and nothing reached stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]


@pytest.fixture()
def workdir(tmp_path):
    corpus = write_jsonl(tmp_path / "corpus.jsonl", CITY_RECORDS)
    questions = write_jsonl(tmp_path / "questions.jsonl", QUESTION_RECORDS)
    return {"corpus": corpus, "questions": questions, "tmp": tmp_path}


class TestRetrieve:
    def test_arm_prints_confidence(self, workdir, capsys):
        code = main(
            [
                "retrieve",
                "paris population",
                "--corpus",
                workdir["corpus"],
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            assert re.fullmatch(r"\S+\t\d+\.\d{6}", line)

    def test_dense_prints_plain_ids(self, workdir, capsys):
        code = main(
            [
                "retrieve",
                "paris population",
                "--corpus",
                workdir["corpus"],
                "--method",
                "dense",
                "--top-k",
                "2",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert all("\t" not in line for line in lines)
        assert set(lines) <= {"t1", "t2", "p1"}

    @pytest.mark.parametrize("method", ["arm", "dense"])
    def test_zero_top_k_rejected(self, workdir, capsys, method):
        code = main(
            [
                "retrieve",
                "paris population",
                "--corpus",
                workdir["corpus"],
                "--method",
                method,
                "--top-k",
                "0",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "got 0" in captured.err

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("method", ["arm", "dense", "eval"])
    def test_top_k_below_one_rejected_before_any_work(
        self, workdir, capsys, method, value
    ):
        # the corpus does not exist, so only a check made before any file
        # is read can name the flag
        corpus = str(workdir["tmp"] / "absent.jsonl")
        out = workdir["tmp"] / "out"
        args = ["--corpus", corpus, "--top-k", value]
        if method == "eval":
            argv = ["eval", "run", "--questions", workdir["questions"]]
            argv += ["--out", str(out), *args]
        else:
            argv = ["retrieve", "q", "--method", method, *args]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --top-k must be >= 1, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("by_env", [False, True])
    def test_missing_config_reported(self, workdir, capsys, monkeypatch, by_env):
        config = str(workdir["tmp"] / "missing.json")
        argv = ["retrieve", "q", "--corpus", workdir["corpus"]]
        if by_env:
            monkeypatch.setenv("ARM_CONFIG", config)
        else:
            argv += ["--config", config]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config not found: {config}\n"

    @pytest.mark.parametrize(
        "payload",
        [
            {"strategies": [1, 2]},
            {"alpha": "0.5"},
            {"base_size": True},
            {"template_files": {"keyword": "no-such-dir/missing.txt"}},
        ],
    )
    def test_bad_config_reported(self, workdir, capsys, payload):
        config = workdir["tmp"] / "config.json"
        config.write_text(json.dumps(payload))
        args = ["--corpus", workdir["corpus"]]
        code = main(["retrieve", "paris", *args, "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize(
        "name,text",
        [
            ("keyword", "custom {foo} keywords:"),
            ("verify", "question: {user_question} {draft} selected: {selected"),
            ("verify", "question: {user_question} {draft} selected:{selected}"),
        ],
    )
    def test_bad_template_reported_before_any_question(
        self, workdir, capsys, name, text
    ):
        template = workdir["tmp"] / f"{name}.txt"
        template.write_text(text)
        config = workdir["tmp"] / "config.json"
        config.write_text(json.dumps({"template_files": {name: str(template)}}))
        args = ["--corpus", workdir["corpus"]]
        code = main(["retrieve", "paris", *args, "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: template {name!r} in {template}")

    def test_solver_node_budget_reported(self, workdir, capsys, monkeypatch):
        monkeypatch.setattr(struct_align, "_NODE_BUDGET", 1)
        args = ["--corpus", workdir["corpus"]]
        assert main(["retrieve", "paris population", *args]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "nodes" in captured.err

    def test_trace_file_matches_schema(self, workdir, capsys):
        trace_path = workdir["tmp"] / "trace.json"
        code = main(
            [
                "retrieve",
                "paris population",
                "--corpus",
                workdir["corpus"],
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        raw = trace_path.read_text()
        assert raw.endswith("\n")
        trace = json.loads(raw)
        jsonschema.validate(instance=trace, schema=TRACE_SCHEMA)
        assert trace["question_id"] == "q0"
        assert "trace written to" in capsys.readouterr().err

    def test_unwritable_trace_reported(self, workdir, capsys):
        trace_path = str(workdir["tmp"] / "nodir" / "trace.json")
        args = ["--corpus", workdir["corpus"]]
        assert main(["retrieve", "paris population", *args, "--trace", trace_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and trace_path in captured.err
        assert "Traceback" not in captured.err

    def test_unwritable_trace_reported_before_any_work(
        self, workdir, capsys, monkeypatch
    ):
        monkeypatch.setattr(cli, "load_corpus", no_work)
        trace_path = workdir["tmp"] / "nodir" / "trace.json"
        args = ["--corpus", workdir["corpus"]]
        argv = ["retrieve", "paris population", *args, "--trace", str(trace_path)]
        assert main(argv) == 1
        assert_output_path_reported(capsys, trace_path)

    @pytest.mark.parametrize("method", [m for m in METHODS if m != "arm"])
    def test_trace_with_baseline_rejected_before_any_work(
        self, workdir, capsys, method
    ):
        # the corpus does not exist, so only a check made before any file
        # is read can name the flags
        corpus = str(workdir["tmp"] / "absent.jsonl")
        trace_path = workdir["tmp"] / "trace.json"
        argv = ["retrieve", "q", "--corpus", corpus]
        argv += ["--method", method, "--trace", str(trace_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --trace needs --method arm, got --method {method}\n"
        )
        assert not trace_path.exists()

    @pytest.mark.parametrize("method", METHODS)
    def test_blank_question_rejected_before_any_work(
        self, workdir, capsys, monkeypatch, method
    ):
        monkeypatch.setattr(cli, "load_corpus", no_work)
        argv = ["retrieve", " \t ", "--corpus", workdir["corpus"], "--method", method]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: question is empty\n"

    def test_unknown_method_rejected_by_parser(self, workdir):
        with pytest.raises(SystemExit):
            main(
                [
                    "retrieve",
                    "q",
                    "--corpus",
                    workdir["corpus"],
                    "--method",
                    "sparta",
                ]
            )

    def test_missing_corpus(self, capsys):
        assert main(["retrieve", "q", "--corpus", "nope.jsonl"]) == 1
        assert "error: corpus file not found: nope.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [None, b"\xff\n"], ids=["dir", "latin1"])
    def test_unreadable_corpus_reported(self, tmp_path, capsys, content):
        corpus = tmp_path / "c.jsonl"
        if content is None:
            corpus.mkdir()
        else:
            corpus.write_bytes(content)
        assert main(["retrieve", "q", "--corpus", str(corpus)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: corpus file {corpus}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "swap", ["zzzzz qqqqq", "pad0b pad0a"], ids=["new-tokens", "reordered"]
    )
    def test_edited_corpus_answered_from_its_own_text(self, tmp_path, capsys, swap):
        # the edits keep each chunk's token count, or its tokens, so only
        # the edited text itself tells the old phrase from the new
        planted = build_planted()
        corpus = tmp_path / "corpus.jsonl"
        save_corpus(planted.corpus, str(corpus))
        text = corpus.read_text()
        corpus.write_text(text.replace("pad0a pad0b", swap))
        assert corpus.read_text() != text
        config = tmp_path / "config.json"
        config.write_text(json.dumps(dataclasses.asdict(planted.config)))
        trace_path = tmp_path / "trace.json"
        argv = ["retrieve", "pad0a pad0b", "--corpus", str(corpus)]
        argv += ["--config", str(config), "--trace", str(trace_path)]
        assert main(argv) == 0
        capsys.readouterr()
        chunks = load_corpus(str(corpus), planted.config.chunk_units).chunks
        phrases = set().union(*(oracles.ngram_set(c.text) for c in chunks))
        trace = json.loads(trace_path.read_text())
        aligned = {
            tuple(entry["ngram"].split())
            for alignment in trace["alignments"]
            for beam in alignment["beams"]
            for entry in beam
        }
        assert aligned and aligned <= phrases
        if swap == "zzzzz qqqqq":
            assert any("zzzzz" in gram for gram in aligned), aligned

    def test_env_config_picked_up(self, workdir, capsys, monkeypatch):
        cfg = workdir["tmp"] / "cfg.json"
        cfg.write_text(json.dumps({"final_k": 1}))
        monkeypatch.setenv("ARM_CONFIG", str(cfg))
        argv = [
            "retrieve",
            "paris population",
            "--corpus",
            workdir["corpus"],
        ]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_explicit_config_beats_env(self, workdir, capsys, monkeypatch):
        env_cfg = workdir["tmp"] / "env.json"
        env_cfg.write_text(json.dumps({"final_k": 1}))
        cli_cfg = workdir["tmp"] / "cli.json"
        cli_cfg.write_text(json.dumps({"final_k": 2}))
        monkeypatch.setenv("ARM_CONFIG", str(env_cfg))
        argv = [
            "retrieve",
            "paris population",
            "--corpus",
            workdir["corpus"],
            "--config",
            str(cli_cfg),
        ]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_seeded_runs_repeat(self, workdir, capsys):
        cfg = workdir["tmp"] / "rand.json"
        cfg.write_text(json.dumps({"scorer": "mock-random", "seed": 3}))
        argv = [
            "retrieve",
            "paris population",
            "--corpus",
            workdir["corpus"],
            "--config",
            str(cfg),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    def test_seed_flag_is_gone(self, workdir, capsys, command):
        # the seed is set one way, as the config's seed field
        argv = ["--corpus", workdir["corpus"], "--seed", "3"]
        if command == "eval":
            argv = ["eval", "run", "--questions", workdir["questions"], *argv]
            argv += ["--out", str(workdir["tmp"] / "out")]
        else:
            argv = ["retrieve", "paris population", *argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 3" in captured.err

    @pytest.mark.parametrize("method", ["arm", "dense"])
    def test_top_k_sets_final_k(self, workdir, capsys, method):
        # --top-k 1 answers as a config with final_k 1 does
        cfg = workdir["tmp"] / "k1.json"
        cfg.write_text(json.dumps({"final_k": 1}))
        argv = ["retrieve", "paris population", "--corpus", workdir["corpus"]]
        argv += ["--method", method]
        assert main([*argv, "--config", str(cfg)]) == 0
        by_config = capsys.readouterr().out
        assert main([*argv, "--top-k", "1"]) == 0
        assert capsys.readouterr().out == by_config
        assert len(by_config.splitlines()) == 1

    def test_oversized_embedding_dimension_reported(self, workdir, capsys):
        # the provider rejects the width before any vector is allocated
        cfg = workdir["tmp"] / "wide.json"
        cfg.write_text(json.dumps({"embed_dim": 2**20 + 1}))
        argv = ["retrieve", "paris population", "--corpus", workdir["corpus"]]
        assert main([*argv, "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: dimension must be in [1, {2**20}], got {2**20 + 1}\n"
        )


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    """The files ``bench/prepare.py synth-1k 7`` writes, with the first 60
    questions in ``q60.jsonl``, the config at ``base_size`` 10 in
    ``config10.json``, the config with the seeded scorer in
    ``seeded.json`` and the corpus file's lines reversed in
    ``reversed.jsonl``."""
    if BENCH_DIR not in sys.path:
        sys.path.append(BENCH_DIR)
    workdir = tmp_path_factory.mktemp("synth")
    importlib.import_module("harness").prepare("synth-1k", 7, workdir)
    lines = (workdir / "questions.jsonl").read_text().splitlines(keepends=True)
    (workdir / "q60.jsonl").write_text("".join(lines[:60]))
    config = json.loads((workdir / "config.json").read_text())
    (workdir / "config10.json").write_text(json.dumps({**config, "base_size": 10}))
    seeded = {**config, "scorer": "mock-random"}
    (workdir / "seeded.json").write_text(json.dumps(seeded))
    (workdir / "reversed.jsonl").write_text((workdir / "corpus.jsonl").read_text())
    reverse_lines(workdir / "reversed.jsonl")
    return workdir


def synth_eval(workdir, corpus, config, out, methods=()):
    """Run ``eval run`` with a trace over the 60 synthetic questions; the
    files go to ``workdir / out``."""
    out_dir = workdir / out
    argv = ["eval", "run", "--corpus", str(workdir / corpus)]
    argv += ["--questions", str(workdir / "q60.jsonl")]
    argv += ["--config", str(workdir / config), "--out", str(out_dir)]
    argv += ["--trace", str(out_dir / "trace.jsonl")]
    for method in methods:
        argv += ["--method", method]
    assert main(argv) == 0
    return out_dir


class TestSynthDigests:
    """README's digests of the 60-question ``synth-1k`` trace, as CI's
    prepared files give them; CI also checks them under forced OpenBLAS
    kernels and an emulation of CPython 3.12's ``sum``."""

    def test_base_5_digest_for_either_corpus_line_order(self, synth_dir, capsys):
        in_order = synth_eval(synth_dir, "corpus.jsonl", "config.json", "out5")
        trace = (in_order / "trace.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == SYNTH_TRACE_PINS[5]
        flipped = synth_eval(synth_dir, "reversed.jsonl", "config.json", "rev5")
        capsys.readouterr()
        for name in EVAL_FILES:
            assert (flipped / name).read_bytes() == (in_order / name).read_bytes()

    def test_base_10_digest(self, synth_dir, capsys):
        out = synth_eval(synth_dir, "corpus.jsonl", "config10.json", "out10", ["arm"])
        capsys.readouterr()
        trace = (out / "trace.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == SYNTH_TRACE_PINS[10]

    def test_seeded_scorer_digest(self, synth_dir, capsys):
        out = synth_eval(synth_dir, "corpus.jsonl", "seeded.json", "seeded", ["arm"])
        capsys.readouterr()
        trace = (out / "trace.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == SYNTH_TRACE_PINS["mock-random"]


# CI's verify templates: the picks mid-prompt, a field glued to text, and
# a field outside the verify set
VERIFY_TEMPLATES = {
    "middle": (
        "question: {user_question} selected: {selected} candidates: {draft}"
        " keywords: {keywords} aligned: {alignment} pick:"
    ),
    "glued": "candidates:{draft} {selected}",
    "unknown": "question: {user_question} {foo} {selected}",
}


@pytest.fixture(scope="module")
def template_dir(tmp_path_factory):
    """The files ``bench/prepare.py planted 1`` writes, the corpus file's
    lines reversed in ``reversed.jsonl``, and for each verify template its
    file ``<name>.txt`` and the config using it, ``<name>.json``."""
    if BENCH_DIR not in sys.path:
        sys.path.append(BENCH_DIR)
    workdir = tmp_path_factory.mktemp("templates")
    importlib.import_module("harness").prepare("planted", 1, workdir)
    (workdir / "reversed.jsonl").write_text((workdir / "corpus.jsonl").read_text())
    reverse_lines(workdir / "reversed.jsonl")
    config = json.loads((workdir / "config.json").read_text())
    for name, template in VERIFY_TEMPLATES.items():
        path = workdir / f"{name}.txt"
        path.write_text(template + "\n")
        payload = {**config, "template_files": {"verify": str(path)}}
        (workdir / f"{name}.json").write_text(json.dumps(payload))
    return workdir


def template_eval_argv(workdir, corpus, template, out):
    """``eval run`` argv over every method with ``template``'s config;
    the files, a trace included, go to ``workdir / out``."""
    argv = ["eval", "run", "--corpus", str(workdir / corpus)]
    argv += ["--questions", str(workdir / "questions.jsonl")]
    argv += ["--config", str(workdir / f"{template}.json"), "--out", str(workdir / out)]
    return argv + ["--trace", str(workdir / out / "trace.jsonl")]


class TestVerifyTemplates:
    """CI's verify template step, through ``main`` on planted."""

    def test_middle_template_outputs_ignore_corpus_line_order(
        self, template_dir, capsys
    ):
        for corpus, out in [("corpus.jsonl", "saved"), ("reversed.jsonl", "flipped")]:
            assert main(template_eval_argv(template_dir, corpus, "middle", out)) == 0
        capsys.readouterr()
        for name in EVAL_FILES:
            saved = (template_dir / "saved" / name).read_bytes()
            assert saved and saved == (template_dir / "flipped" / name).read_bytes()

    @pytest.mark.parametrize("template", ["glued", "unknown"])
    def test_malformed_template_rejected(self, template_dir, capsys, template):
        argv = template_eval_argv(template_dir, "corpus.jsonl", template, template)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(template_dir / f"{template}.txt") in captured.err


class TestEvalRun:
    def run(self, workdir, out_name, extra=()):
        out_dir = workdir["tmp"] / out_name
        argv = [
            "eval",
            "run",
            "--corpus",
            workdir["corpus"],
            "--questions",
            workdir["questions"],
            "--out",
            str(out_dir),
            *extra,
        ]
        assert main(argv) == 0
        return out_dir

    def test_writes_reports_and_table(self, workdir, capsys):
        out_dir = self.run(workdir, "rep")
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].split() == ["method", "P", "R", "F1", "PR", "#calls", "#obj"]
        assert [ln.split()[0] for ln in lines[1:-1]] == list(METHODS)
        assert lines[-1].startswith("wrote ")
        results = json.loads((out_dir / "results.json").read_text())
        assert results["version"] == 1
        assert set(results["methods"]) == set(METHODS)
        csv_lines = (out_dir / "results.csv").read_text().splitlines()
        assert csv_lines[0].startswith("method,")
        assert len(csv_lines) == 1 + len(METHODS)

    def test_method_flag_limits_rows(self, workdir, capsys):
        out_dir = self.run(
            workdir, "two", extra=["--method", "arm", "--method", "dense"]
        )
        results = json.loads((out_dir / "results.json").read_text())
        assert sorted(results["methods"]) == ["arm", "dense"]
        table = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in table[1:3]] == ["arm", "dense"]

    def test_repeated_method_runs_once(self, workdir, capsys, monkeypatch):
        built = []
        build_runner = baselines_eval.build_runner

        def counting_build_runner(method, *args):
            built.append(method)
            return build_runner(method, *args)

        monkeypatch.setattr(baselines_eval, "build_runner", counting_build_runner)
        extra = ["--method", "dense", "--method", "arm", "--method", "dense"]
        out_dir = self.run(workdir, "dup", extra=extra)
        results = json.loads((out_dir / "results.json").read_text())
        assert sorted(results["methods"]) == ["arm", "dense"]
        table = capsys.readouterr().out.splitlines()
        assert [ln.split()[0] for ln in table[1:-1]] == ["dense", "arm"]
        assert built == ["dense"]

    def test_reruns_byte_identical(self, workdir, capsys):
        first = self.run(workdir, "a")
        second = self.run(workdir, "b")
        capsys.readouterr()
        for name in ("results.json", "results.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_top_k_sets_final_k(self, workdir, capsys):
        # --top-k 1 writes what a config with final_k 1 writes
        cfg = workdir["tmp"] / "k1.json"
        cfg.write_text(json.dumps({"final_k": 1}))
        outputs = []
        for extra in (["--config", str(cfg)], ["--top-k", "1"]):
            out_dir = workdir["tmp"] / f"out{len(outputs)}"
            trace = out_dir / "trace.jsonl"
            self.run(workdir, out_dir.name, extra=[*extra, "--trace", str(trace)])
            outputs.append(
                [(out_dir / name).read_bytes() for name in EVAL_FILES]
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]
        results = json.loads(outputs[1][0])
        # the agent baseline returns what its searches found, at any top-k
        ranked = [m for name, m in results["methods"].items() if name != "react"]
        rows = [row for m in ranked for row in m["rows"]]
        assert len(ranked) == 5 and all(len(row["retrieved"]) == 1 for row in rows)

    def test_planted_outputs_are_pinned(self, tmp_path, capsys):
        pins = PLANTED_PINS["mock"]
        assert planted_digests(tmp_path, "mock") == {"saved": pins, "reversed": pins}
        capsys.readouterr()

    def test_planted_seeded_scorer_outputs_are_pinned(self, tmp_path, capsys):
        pins = PLANTED_PINS["mock-random"]
        digests = planted_digests(tmp_path, "mock-random")
        assert digests == {"saved": pins, "reversed": pins}
        capsys.readouterr()

    @pytest.mark.parametrize("scorer", sorted(PLANTED_PINS))
    def test_planted_pins_hold_under_compensated_sum(self, tmp_path, scorer):
        """From CPython 3.12 on, ``sum`` compensates float rounding. A fresh
        interpreter whose ``builtins.sum`` does so (``oracles.neumaier_sum``)
        writes the pinned files all the same."""
        script = (
            "import builtins, sys\n"
            "import oracles\n"
            "builtins.sum = oracles.neumaier_sum\n"
            "from alignrag.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
        )
        src = Path(alignrag.__file__).parent.parent
        path = os.pathsep.join((str(src), str(Path(__file__).parent)))
        done = subprocess.run(
            [sys.executable, "-c", script, *planted_eval_argv(tmp_path, scorer)],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert output_digests(tmp_path / "out") == PLANTED_PINS[scorer]

    def test_run_loads_no_openssl(self, tmp_path):
        """A fresh interpreter's all-method traced run under the seeded
        scorer, which hashes both buckets and noise, never loads
        ``_hashlib`` or ``ssl``; pytest's own process may have."""
        script = (
            "import sys\n"
            "from alignrag.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(*(m in sys.modules for m in ('_blake2', '_hashlib', 'ssl')))\n"
        )
        argv = planted_eval_argv(tmp_path, "mock-random")
        src = Path(alignrag.__file__).parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1].split() == ["True", "False", "False"]

    def test_trace_lines_per_question(self, workdir, capsys, monkeypatch):
        answered = []
        run_arm = RetrievalEngine.run_arm

        def counted(engine, question, *args, **kwargs):
            answered.append(question)
            return run_arm(engine, question, *args, **kwargs)

        monkeypatch.setattr(RetrievalEngine, "run_arm", counted)
        trace_path = workdir["tmp"] / "traces.jsonl"
        self.run(
            workdir,
            "traced",
            extra=["--method", "arm", "--trace", str(trace_path)],
        )
        capsys.readouterr()
        # the trace reuses the arm pass's answers
        assert answered == [record["question"] for record in QUESTION_RECORDS]
        lines = trace_path.read_text().splitlines()
        assert len(lines) == len(QUESTION_RECORDS)
        for line, record in zip(lines, QUESTION_RECORDS):
            trace = json.loads(line)
            jsonschema.validate(instance=trace, schema=TRACE_SCHEMA)
            assert trace["question_id"] == record["question_id"]

    @pytest.mark.parametrize("target", ["trace", "out"])
    def test_unwritable_output_reported(self, workdir, capsys, target):
        out_dir = workdir["tmp"] / "out"
        trace_path = workdir["tmp"] / "nodir" / "traces.jsonl"
        if target == "out":
            # --out names an existing file, not a directory
            out_dir.write_text("")
        argv = ["eval", "run", "--questions", workdir["questions"]]
        argv += ["--corpus", workdir["corpus"]]
        argv += ["--out", str(out_dir), "--method", "arm", "--trace", str(trace_path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        named = out_dir if target == "out" else trace_path
        assert err.startswith("error: ") and str(named) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "target", ["trace", "out", "results.json", "results.csv"]
    )
    def test_unwritable_output_reported_before_any_work(
        self, workdir, capsys, monkeypatch, target
    ):
        # no engine is built: building one loads the corpus first
        monkeypatch.setattr(cli, "load_corpus", no_work)
        out_dir = workdir["tmp"] / "out"
        trace_path = workdir["tmp"] / "traces.jsonl"
        if target == "trace":
            trace_path = named = workdir["tmp"] / "nodir" / "traces.jsonl"
        elif target == "out":
            named = out_dir
            out_dir.write_text("")
        else:
            # a directory where a results file goes
            named = out_dir / target
            named.mkdir(parents=True)
        argv = ["eval", "run", "--questions", workdir["questions"]]
        argv += ["--corpus", workdir["corpus"]]
        argv += ["--out", str(out_dir), "--trace", str(trace_path)]
        assert main(argv) == 1
        assert_output_path_reported(capsys, named)
        for path in (out_dir / "results.json", out_dir / "results.csv", trace_path):
            assert not path.is_file()

    def test_missing_questions(self, workdir, capsys):
        code = main(
            [
                "eval",
                "run",
                "--corpus",
                workdir["corpus"],
                "--questions",
                str(workdir["tmp"] / "absent.jsonl"),
                "--out",
                str(workdir["tmp"] / "out"),
            ]
        )
        assert code == 1
        assert "error: questions file not found" in capsys.readouterr().err

    def test_malformed_questions_reported(self, workdir, capsys):
        questions = workdir["tmp"] / "bad.jsonl"
        questions.write_text("[1]\n")
        argv = ["eval", "run", "--questions", str(questions)]
        argv += ["--corpus", workdir["corpus"]]
        argv += ["--out", str(workdir["tmp"] / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: questions file {questions} line 1: ")
        assert "expected a JSON object" in err

    @pytest.mark.parametrize("method", [None, *METHODS])
    def test_blank_question_reported_by_id(self, workdir, capsys, method):
        blank = {"question_id": "q3", "question": "  ", "gold_object_ids": ["t1"]}
        questions = write_jsonl(
            workdir["tmp"] / "blank.jsonl", [*QUESTION_RECORDS, blank]
        )
        out_dir = workdir["tmp"] / "out"
        argv = ["eval", "run", "--corpus", workdir["corpus"]]
        argv += ["--questions", questions, "--out", str(out_dir)]
        argv += ["--trace", str(out_dir / "trace.jsonl")]
        if method is not None:
            argv += ["--method", method]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: question 'q3' is empty\n"
        assert list(out_dir.iterdir()) == []

    def test_unknown_gold_id_reported(self, workdir, capsys):
        bad = write_jsonl(
            workdir["tmp"] / "bad.jsonl",
            [{"question_id": "q", "question": "x", "gold_object_ids": ["zz"]}],
        )
        code = main(
            [
                "eval",
                "run",
                "--corpus",
                workdir["corpus"],
                "--questions",
                bad,
                "--out",
                str(workdir["tmp"] / "out"),
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
