"""Default prompt templates; all are plain format strings.

Each template can be replaced through configuration. Placeholders use
str.format names, and templates end with a short stable cue so scripted
scorers can anchor preference rules on the final prompt tokens.
"""

from __future__ import annotations

import functools
import string
from typing import Optional

KEYWORD_TEMPLATE = (
    "break the user question into contiguous substrings that carry its "
    "information. question: {user_question} keywords:"
)

ALIGN_TEMPLATE = (
    "question: {user_question} rewrite the keyword with phrases that occur "
    "in the collection. keyword: {keyword} aligned:"
)

VERIFY_TEMPLATE = (
    "question: {user_question} keywords: {keywords} aligned: {alignment} "
    "candidates: {draft} pick the objects needed to answer, then stop. "
    "selected: {selected}"
)

DECOMPOSE_TEMPLATE = (
    "split the question into simpler subquestions. "
    "question: {user_question} subquestions:"
)

REACT_TEMPLATE = (
    "solve the question by interleaving thought search and finish steps. "
    "question: {user_question} {history} next:"
)

DEFAULT_TEMPLATES = {
    "keyword": KEYWORD_TEMPLATE,
    "align": ALIGN_TEMPLATE,
    "verify": VERIFY_TEMPLATE,
    "decompose": DECOMPOSE_TEMPLATE,
    "react": REACT_TEMPLATE,
}

# template name -> the only field names it may use
TEMPLATE_FIELDS = {
    "keyword": frozenset({"user_question"}),
    "align": frozenset({"user_question", "keyword"}),
    "verify": frozenset(
        {"user_question", "keywords", "alignment", "draft", "selected"}
    ),
    "decompose": frozenset({"user_question"}),
    "react": frozenset({"user_question", "history"}),
}


def _check_name(field: str, names: frozenset[str]) -> None:
    if field not in names:
        raise ValueError(f"unknown field {{{field}}}; allowed: {sorted(names)}")


@functools.lru_cache(maxsize=16)
def split_selected(template: str) -> tuple[tuple[tuple[str, Optional[str]], ...], ...]:
    """The verify template as (literal text, field name or None) pairs,
    cut at each ``{selected}``, parsed once per template text.

    A prompt is the first piece, then for each later piece the selected
    ids and that piece; a piece is each pair's literal followed by its
    field's value. Every field must be one of the verify fields, with no
    conversion or format spec, and whitespace, or the template's start or
    end, must sit on each side of it: whitespace ends a token, so the
    prompt's tokens are then the tokens of its literals, values and picks
    in order, and a verifier can tokenize each of them once. Raises
    ValueError otherwise.
    """
    names = TEMPLATE_FIELDS["verify"]
    pieces: list[list[tuple[str, Optional[str]]]] = [[]]
    literal, previous = "", None
    for text, field, spec, conversion in string.Formatter().parse(template):
        if field is not None:
            _check_name(field, names)
        literal += text  # an escaped brace splits one literal in two
        # whitespace must follow the previous field and precede this one
        for name, edge in ((previous, text[:1]), (field, literal[-1:] or " ")):
            if name is not None and not edge.isspace():
                raise ValueError(
                    f"{{{name}}} needs whitespace, or the start or end of the "
                    "template, on each side"
                )
        previous = field
        if field is None:
            continue
        if spec or conversion:
            raise ValueError(f"{{{field}}} takes no conversion or format spec")
        pieces[-1].append((literal, None if field == "selected" else field))
        if field == "selected":
            pieces.append([])
        literal = ""
    pieces[-1].append((literal, None))
    return tuple(map(tuple, pieces))


def check_template(name: str, template: str) -> None:
    """Raise ValueError unless the template formats with string values for
    exactly its own field names; a verify template must split into fields
    and literals (see ``split_selected``)."""
    if name == "verify":
        split_selected(template)
        return
    names = TEMPLATE_FIELDS[name]
    for _, field, spec, _ in string.Formatter().parse(template):
        if field is None:
            continue
        _check_name(field, names)
        if "{" in spec:
            raise ValueError(f"field {{{field}}} nests a field in its format spec")
    # names and specs are now fixed, so formatting fails for every value or none
    template.format(**dict.fromkeys(names, ""))
