"""Reading the package's JSON and JSONL input files.

Collections, indexes, question sets, vector files and configs are all read
here. A missing file, any other failure to open it, text that is not
UTF-8, malformed JSON and a value that is not a JSON object each raise a
typed error naming the file (and, for JSONL, the line); the loaders check
only their own record fields. JSONL lines end at ``\\n`` (a ``\\r`` before it
is JSON whitespace), so a line number counts ``\\n`` bytes.
"""

from __future__ import annotations

import json
from typing import BinaryIO, Iterator

from .errors import AlignragError, ParseError


def _decode(data: bytes, where: str, error: type[AlignragError]) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where}: not UTF-8 text at byte {exc.start}") from None


def _object(text: str, where: str, error: type[AlignragError]) -> dict:
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}: {exc.msg}") from exc
    if not isinstance(value, dict):
        raise error(f"{where}: expected a JSON object")
    return value


def _open(path: str, what: str, error: type[AlignragError]) -> BinaryIO:
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise error(f"{what} not found: {path}") from None
    except OSError as exc:
        raise error(f"{what} {path}: cannot read: {exc.strerror}") from None


def read_json(path: str, what: str, error: type[AlignragError] = ParseError) -> dict:
    """The one JSON object the file at ``path`` holds. ``what`` names the
    file in messages (``index file``); failures raise ``error``."""
    with _open(path, what, error) as handle:
        data = handle.read()
    where = f"{what} {path}"
    return _object(_decode(data, where, error), where, error)


def read_jsonl(path: str, what: str) -> Iterator[tuple[dict, str]]:
    """Each non-blank line's JSON object with the ``where`` that names it
    (``corpus file P line N``); every failure is a ParseError."""
    with _open(path, what, ParseError) as handle:
        for line_no, data in enumerate(handle, start=1):
            where = f"{what} {path} line {line_no}"
            line = _decode(data, where, ParseError)
            if line.strip():
                yield _object(line, where, ParseError), where
