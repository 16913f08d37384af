"""Corpus loading, validation, serialization, and chunking."""

from __future__ import annotations

import json
import re

import pytest

from alignrag.corpus import (
    Chunk,
    DataObject,
    FIELD_SEP,
    ObjectKind,
    build_corpus,
    chunk_object,
    load_corpus,
    object_to_record,
    save_corpus,
    serialize_object,
    serialize_span,
)
from alignrag.errors import ParseError, ValidationError

from conftest import make_passage, make_table


class TestSerialization:
    def test_table_single_row(self):
        """A one-column, one-row table flattens to 'title | col | cell'."""
        obj = make_table("t", "T", ["c1"], [["v"]])
        assert serialize_object(obj) == "T | c1 | v"

    def test_table_multi_row(self):
        obj = make_table(
            "t", "city populations", ["city", "pop"],
            [["paris", "2m"], ["lyon", "500k"]],
        )
        assert (
            serialize_object(obj)
            == "city populations | city | pop | paris | 2m | lyon | 500k"
        )

    def test_table_description_included(self):
        obj = make_table("t", "T", ["c1"], [["v"]], description="desc here")
        assert serialize_object(obj) == "T | desc here | c1 | v"

    def test_passage_sentences_joined(self):
        """Passage sentences join with spaces into one body field."""
        obj = make_passage("p", "X", ["a.", "b."])
        assert serialize_object(obj) == "X | a. b."

    def test_passage_description_not_rendered(self):
        obj = make_passage("p", "X", ["a."], description="hidden")
        assert "hidden" not in serialize_object(obj)

    def test_span_subset_of_rows(self):
        obj = make_table(
            "t", "T", ["c"], [["r0"], ["r1"], ["r2"], ["r3"]],
        )
        assert serialize_span(obj, 1, 3) == "T | c | r1 | r2"

    def test_span_empty_passage_is_title_only(self):
        obj = make_passage("p", "X", ["a.", "b."])
        assert serialize_span(obj, 0, 0) == "X"

    def test_field_separator(self):
        assert FIELD_SEP == " | "


class TestChunking:
    def test_windows_are_disjoint_and_cover(self):
        obj = make_table("t", "T", ["c"], [[f"r{i}"] for i in range(45)])
        chunks = chunk_object(obj, max_units=20)
        assert [c.span for c in chunks] == [(0, 20), (20, 40), (40, 45)]
        assert [c.chunk_id for c in chunks] == ["t#0", "t#1", "t#2"]

    def test_chunk_text_matches_span(self):
        obj = make_table("t", "T", ["c"], [[f"r{i}"] for i in range(5)])
        chunks = chunk_object(obj, max_units=2)
        for chunk in chunks:
            assert chunk.text == serialize_span(obj, *chunk.span)

    def test_unitless_table_yields_header_chunk(self):
        obj = make_table("t", "T", ["c"], [])
        chunks = chunk_object(obj)
        assert len(chunks) == 1
        assert chunks[0].span == (0, 0)
        assert chunks[0].text == "T | c"

    def test_invalid_window(self):
        obj = make_table("t", "T", ["c"], [["v"]])
        with pytest.raises(ValidationError):
            chunk_object(obj, max_units=0)


class TestValidation:
    def test_table_needs_columns(self):
        obj = DataObject(id="t", kind=ObjectKind.TABLE, title="T")
        with pytest.raises(ValidationError, match="no columns"):
            obj.validate()

    def test_row_arity_names_object(self):
        obj = make_table("odd", "T", ["a", "b"], [["1"]])
        with pytest.raises(ValidationError, match="odd"):
            obj.validate()

    def test_table_with_sentences_rejected(self):
        obj = DataObject(
            id="t",
            kind=ObjectKind.TABLE,
            title="T",
            columns=("c",),
            sentences=("s",),
        )
        with pytest.raises(ValidationError):
            obj.validate()

    def test_passage_needs_sentences(self):
        obj = DataObject(id="p", kind=ObjectKind.PASSAGE, title="P")
        with pytest.raises(ValidationError):
            obj.validate()

    def test_passage_with_table_fields_rejected(self):
        obj = DataObject(
            id="p",
            kind=ObjectKind.PASSAGE,
            title="P",
            columns=("c",),
            sentences=("s",),
        )
        with pytest.raises(ValidationError):
            obj.validate()

    def test_empty_id(self):
        obj = make_passage("", "P", ["s"])
        with pytest.raises(ValidationError):
            obj.validate()

    def test_units(self):
        assert make_table("t", "T", ["c"], [["a"], ["b"]]).units == 2
        assert make_passage("p", "P", ["x.", "y.", "z."]).units == 3


class TestCorpus:
    def test_lookup_maps(self, city_corpus):
        assert set(city_corpus.by_id) == {"t1", "t2", "p1"}
        assert [c.object_id for c in city_corpus.chunks_by_object["t1"]] == ["t1"]
        assert city_corpus.object_ids() == ("t1", "t2", "p1")

    def test_duplicate_ids_rejected(self, city_objects):
        with pytest.raises(ValidationError, match="duplicate"):
            build_corpus(city_objects + [make_passage("t1", "again", ["s."])])


class TestLoadSave:
    def test_round_trip(self, tmp_path, city_corpus):
        path = tmp_path / "corpus.jsonl"
        save_corpus(city_corpus, str(path))
        loaded = load_corpus(str(path))
        assert loaded.objects == city_corpus.objects
        assert loaded.chunks == city_corpus.chunks

    def test_save_is_deterministic(self, tmp_path, city_corpus):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(city_corpus, str(a))
        save_corpus(city_corpus, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_record_round_trip(self, city_objects):
        for obj in city_objects:
            record = object_to_record(obj)
            assert record["id"] == obj.id
            assert record["kind"] == obj.kind.value

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "kind": "passage", "title": "t", "sentences": ["s"]}\n{oops\n')
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(str(path))

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "kind": "graph", "title": "t"}) + "\n")
        with pytest.raises(ParseError, match="kind"):
            load_corpus(str(path))

    def test_unexpected_field(self, tmp_path):
        record = {
            "id": "a",
            "kind": "passage",
            "title": "t",
            "sentences": ["s"],
            "rows": [],
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        message = re.escape(f"corpus file {path} line 1: unexpected fields ['rows']")
        with pytest.raises(ParseError, match=message):
            load_corpus(str(path))

    def test_missing_title(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"id": "a", "kind": "passage", "sentences": ["s"]}) + "\n")
        with pytest.raises(ParseError, match="title"):
            load_corpus(str(path))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"kind": "passage", "sentences": "abc"}, "'sentences' must be a list"),
            ({"kind": "passage", "sentences": ["a", 7]}, "'sentences' must be a list"),
            ({"kind": "passage", "sentences": [["a"]]}, "'sentences' must be a list"),
            ({"kind": "table", "columns": "ab"}, "'columns' must be a list of strings"),
            ({"kind": "table", "columns": ["a", None]}, "'columns' must be a list"),
            ({"kind": "table", "columns": {"a": 1}}, "'columns' must be a list"),
            ({"kind": "table", "columns": ["a"], "rows": "zz"}, "'rows' must be a list"),
            ({"kind": "table", "columns": ["a"], "rows": ["z"]}, "'rows' must be a list"),
            ({"kind": "table", "columns": ["a"], "rows": [[1.5]]}, "lists of strings"),
            ({"kind": "table", "columns": ["a"], "rows": [[True]]}, "lists of strings"),
            ({"kind": "passage", "sentences": ["s"], "description": 3}, "description"),
            ({"kind": "passage", "sentences": ["s"], "id": 5}, "'id'"),
        ],
    )
    def test_wrong_field_types_name_file_and_line(self, tmp_path, fields, message):
        good = {"id": "a", "kind": "passage", "title": "t", "sentences": ["s"]}
        record = dict({"id": "b", "title": "t"}, **fields)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ParseError, match=message) as info:
            load_corpus(str(path))
        assert f"{path} line 2" in str(info.value)

    @pytest.mark.parametrize("line", ["{oops", "[1]", '{"id": "b", "kind": "graph"}'])
    def test_malformed_line_names_file(self, tmp_path, line):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as info:
            load_corpus(str(path))
        assert f"{path} line 1" in str(info.value)

    def test_duplicate_id_across_lines(self, tmp_path):
        record = {"id": "a", "kind": "passage", "title": "t", "sentences": ["s"]}
        path = tmp_path / "dup.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(record) + "\n")
        with pytest.raises(ValidationError, match="duplicate"):
            load_corpus(str(path))

    def test_blank_lines_skipped(self, tmp_path):
        record = {"id": "a", "kind": "passage", "title": "t", "sentences": ["s"]}
        path = tmp_path / "ok.jsonl"
        path.write_text("\n" + json.dumps(record) + "\n\n")
        assert len(load_corpus(str(path)).objects) == 1

    def test_chunk_units_respected(self, tmp_path):
        rows = [[f"r{i}"] for i in range(7)]
        obj = make_table("t", "T", ["c"], rows)
        path = tmp_path / "c.jsonl"
        save_corpus(build_corpus([obj]), str(path))
        corpus = load_corpus(str(path), chunk_units=3)
        assert [c.span for c in corpus.chunks] == [(0, 3), (3, 6), (6, 7)]


def test_chunk_id_format():
    chunk = Chunk(object_id="obj", index=4, text="x", span=(0, 1))
    assert chunk.chunk_id == "obj#4"
