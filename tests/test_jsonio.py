"""The JSON and JSONL reader every input file goes through."""

from __future__ import annotations

import json

import pytest

from alignrag.baselines_eval import load_questions
from alignrag.config import load_config
from alignrag.corpus import load_corpus
from alignrag.embedding import FileVectorProvider
from alignrag.errors import ConfigError, ParseError
from alignrag.jsonio import read_json, read_jsonl
from alignrag.ngram_index import load_index

PASSAGE = {"id": "a", "kind": "passage", "title": "t", "sentences": ["s"]}
QUESTION = {"question_id": "q", "question": "x", "gold_object_ids": ["a"]}
VECTOR = {"chunk_id": "a#0", "vector": [1.0, 0.0]}

# loader, the name its messages give the file, its error, a valid first line
# (JSONL files only; None for a file holding one JSON object)
LOADERS = {
    "corpus": (load_corpus, "corpus file", ParseError, PASSAGE),
    "questions": (load_questions, "questions file", ParseError, QUESTION),
    "vectors": (FileVectorProvider, "vector file", ParseError, VECTOR),
    "index": (load_index, "index file", ParseError, None),
    "config": (load_config, "config", ConfigError, None),
}


@pytest.mark.parametrize("kind", sorted(LOADERS))
class TestLoadersRaiseTypedErrors:
    def test_missing_file(self, tmp_path, kind):
        load, what, error, _ = LOADERS[kind]
        path = tmp_path / "absent.json"
        with pytest.raises(error) as info:
            load(str(path))
        assert str(info.value) == f"{what} not found: {path}"

    def test_directory(self, tmp_path, kind):
        load, what, error, _ = LOADERS[kind]
        with pytest.raises(error) as info:
            load(str(tmp_path))
        assert str(info.value).startswith(f"{what} {tmp_path}: cannot read: ")

    def test_non_utf8_byte(self, tmp_path, kind):
        load, what, error, first = LOADERS[kind]
        path = tmp_path / "latin1.json"
        if first is None:
            path.write_bytes(b'{"title": "caf\xe9"}\n')
            where = f"{what} {path}"
        else:
            path.write_bytes(json.dumps(first).encode() + b'\n{"x": "caf\xe9"}\n')
            where = f"{what} {path} line 2"
        with pytest.raises(error) as info:
            load(str(path))
        assert str(info.value).startswith(f"{where}: not UTF-8 text")


class TestReadJsonl:
    def test_objects_with_their_lines(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n\n   \n \n{"b": "  café"}\n')
        got = list(read_jsonl(str(path), "test file"))
        assert got == [
            ({"a": 1}, f"test file {path} line 1"),
            ({"b": "  café"}, f"test file {path} line 5"),
        ]

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_bytes(b'{"a": 1}\r\n\r\n{"b": 2}\r\n')
        got = [where for _, where in read_jsonl(str(path), "f")]
        assert got == [f"f {path} line 1", f"f {path} line 3"]

    @pytest.mark.parametrize(
        "line, message",
        [("{oops", "Expecting property name"), ("[1]", "expected a JSON object")],
    )
    def test_bad_line_named(self, tmp_path, line, message):
        path = tmp_path / "f.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        records = read_jsonl(str(path), "test file")
        assert next(records)[0] == {"a": 1}
        with pytest.raises(ParseError) as info:
            next(records)
        assert str(info.value).startswith(f"test file {path} line 2: {message}")


class TestReadJson:
    def test_object(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{\n  "a": [1, 2]\n}\n')
        assert read_json(str(path), "test file") == {"a": [1, 2]}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{oops", "Expecting property name"),
            ("[1]", "expected a JSON object"),
            ("", "Expecting value"),
        ],
    )
    def test_error_is_the_callers(self, tmp_path, text, message):
        path = tmp_path / "f.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            read_json(str(path), "test file", ConfigError)
        assert str(info.value).startswith(f"test file {path}: {message}")
