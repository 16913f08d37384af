"""Data objects, JSONL loading, serialization, and chunking.

A collection mixes two kinds of objects: tables (columns + rows) and
passages (sentences). Both serialize to flat text with a fixed " | "
field delimiter so downstream indexing sees one uniform surface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

from .errors import ParseError, ValidationError

FIELD_SEP = " | "

_TABLE_KEYS = {"id", "kind", "title", "description", "columns", "rows"}
_PASSAGE_KEYS = {"id", "kind", "title", "description", "sentences"}


class ObjectKind(str, Enum):
    TABLE = "table"
    PASSAGE = "passage"


@dataclass(frozen=True)
class DataObject:
    """One retrievable unit: a table or a passage."""

    id: str
    kind: ObjectKind
    title: str
    description: Optional[str] = None
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[str, ...], ...] = ()
    sentences: tuple[str, ...] = ()

    def validate(self) -> None:
        if not self.id:
            raise ValidationError("object with empty id")
        if self.kind is ObjectKind.TABLE:
            if not self.columns:
                raise ValidationError(f"table {self.id!r} has no columns")
            for r, row in enumerate(self.rows):
                if len(row) != len(self.columns):
                    raise ValidationError(
                        f"table {self.id!r} row {r} has {len(row)} cells, "
                        f"expected {len(self.columns)}"
                    )
            if self.sentences:
                raise ValidationError(f"table {self.id!r} carries sentences")
        else:
            if not self.sentences:
                raise ValidationError(f"passage {self.id!r} has no sentences")
            if self.columns or self.rows:
                raise ValidationError(f"passage {self.id!r} carries table fields")

    @property
    def units(self) -> int:
        """Number of content units: rows for tables, sentences for passages."""
        if self.kind is ObjectKind.TABLE:
            return len(self.rows)
        return len(self.sentences)


@dataclass(frozen=True)
class Chunk:
    """A contiguous window of one object's units, serialized with its header."""

    object_id: str
    index: int
    text: str
    span: tuple[int, int]  # half-open unit range

    @property
    def chunk_id(self) -> str:
        return f"{self.object_id}#{self.index}"


@dataclass(frozen=True)
class Corpus:
    objects: tuple[DataObject, ...]
    chunks: tuple[Chunk, ...]
    chunk_units: int
    by_id: dict[str, DataObject] = field(default_factory=dict, compare=False)
    chunks_by_object: dict[str, tuple[Chunk, ...]] = field(
        default_factory=dict, compare=False
    )

    def __post_init__(self) -> None:
        by_id = {obj.id: obj for obj in self.objects}
        grouped: dict[str, list[Chunk]] = {obj.id: [] for obj in self.objects}
        for chunk in self.chunks:
            grouped[chunk.object_id].append(chunk)
        object.__setattr__(self, "by_id", by_id)
        object.__setattr__(
            self, "chunks_by_object", {k: tuple(v) for k, v in grouped.items()}
        )

    def object_ids(self) -> tuple[str, ...]:
        return tuple(obj.id for obj in self.objects)


def serialize_span(obj: DataObject, start: int, end: int) -> str:
    """Render the object header plus units in [start, end) as delimited text.

    Tables emit title, description when present, column headers, then the
    cells of each row in range. Passages emit title then the sentences in
    range joined by single spaces; passage descriptions are not rendered.
    """
    if obj.kind is ObjectKind.TABLE:
        fields: list[str] = [obj.title]
        if obj.description:
            fields.append(obj.description)
        fields.extend(obj.columns)
        for row in obj.rows[start:end]:
            fields.extend(row)
        return FIELD_SEP.join(fields)
    body = " ".join(obj.sentences[start:end])
    return FIELD_SEP.join([obj.title, body]) if body else obj.title


def serialize_object(obj: DataObject) -> str:
    """Full-object serialization: the span covering every unit."""
    return serialize_span(obj, 0, obj.units)


def chunk_object(obj: DataObject, max_units: int = 20) -> tuple[Chunk, ...]:
    """Split an object into disjoint contiguous windows of at most max_units.

    Every object yields at least one chunk; a unit-less table yields a
    single header-only chunk.
    """
    if max_units < 1:
        raise ValidationError(f"max_units must be >= 1, got {max_units}")
    total = obj.units
    spans = [(s, min(s + max_units, total)) for s in range(0, total, max_units)]
    if not spans:
        spans = [(0, 0)]
    return tuple(
        Chunk(object_id=obj.id, index=i, text=serialize_span(obj, s, e), span=(s, e))
        for i, (s, e) in enumerate(spans)
    )


def _strings(values: object) -> bool:
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _object_from_record(record: object, where: str) -> DataObject:
    """The object a parsed JSONL line describes. Text fields must be
    strings and ``columns``, ``rows`` and ``sentences`` lists of them;
    a malformed record raises ParseError naming ``where``."""
    if not isinstance(record, dict):
        raise ParseError(f"{where}: expected a JSON object")
    kind_raw = record.get("kind")
    if kind_raw not in (ObjectKind.TABLE.value, ObjectKind.PASSAGE.value):
        raise ParseError(f"{where}: unknown kind {kind_raw!r}")
    kind = ObjectKind(kind_raw)
    allowed = _TABLE_KEYS if kind is ObjectKind.TABLE else _PASSAGE_KEYS
    extra = set(record) - allowed
    if extra:
        raise ValidationError(
            f"object {record.get('id')!r}: unexpected fields {sorted(extra)}"
        )
    for key in ("id", "title"):
        if not isinstance(record.get(key), str):
            raise ParseError(f"{where}: missing or non-string {key!r}")
    description = record.get("description")
    if description is not None and not isinstance(description, str):
        raise ParseError(f"{where}: description must be a string")
    if kind is ObjectKind.TABLE:
        columns, rows = record.get("columns", []), record.get("rows", [])
        if not _strings(columns):
            raise ParseError(f"{where}: 'columns' must be a list of strings")
        if not (isinstance(rows, list) and all(map(_strings, rows))):
            raise ParseError(f"{where}: 'rows' must be a list of lists of strings")
        return DataObject(
            id=record["id"],
            kind=kind,
            title=record["title"],
            description=description,
            columns=tuple(columns),
            rows=tuple(map(tuple, rows)),
        )
    sentences = record.get("sentences", [])
    if not _strings(sentences):
        raise ParseError(f"{where}: 'sentences' must be a list of strings")
    return DataObject(
        id=record["id"],
        kind=kind,
        title=record["title"],
        description=description,
        sentences=tuple(sentences),
    )


def load_corpus(path: str, chunk_units: int = 20) -> Corpus:
    """Load a JSONL collection file, validate it, and chunk every object."""
    objects: list[DataObject] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            where = f"corpus file {path} line {line_no}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{where}: {exc.msg}") from exc
            objects.append(_object_from_record(record, where))
    return build_corpus(objects, chunk_units=chunk_units)


def build_corpus(objects: Iterable[DataObject], chunk_units: int = 20) -> Corpus:
    """Assemble a corpus from in-memory objects, validating each."""
    objs = tuple(objects)
    seen: set[str] = set()
    for obj in objs:
        obj.validate()
        if obj.id in seen:
            raise ValidationError(f"duplicate object id {obj.id!r}")
        seen.add(obj.id)
    chunks: list[Chunk] = []
    for obj in objs:
        chunks.extend(chunk_object(obj, max_units=chunk_units))
    return Corpus(objects=objs, chunks=tuple(chunks), chunk_units=chunk_units)


def object_to_record(obj: DataObject) -> dict:
    record: dict = {"id": obj.id, "kind": obj.kind.value, "title": obj.title}
    if obj.description is not None:
        record["description"] = obj.description
    if obj.kind is ObjectKind.TABLE:
        record["columns"] = list(obj.columns)
        record["rows"] = [list(row) for row in obj.rows]
    else:
        record["sentences"] = list(obj.sentences)
    return record


def save_corpus(corpus: Corpus, path: str) -> None:
    """Write the collection back to JSONL, one object per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for obj in corpus.objects:
            handle.write(json.dumps(object_to_record(obj), sort_keys=True))
            handle.write("\n")
