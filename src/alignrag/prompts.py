"""Default prompt templates; all are plain format strings.

Each template can be replaced through configuration. Placeholders use
str.format names, and templates end with a short stable cue so scripted
scorers can anchor preference rules on the final prompt tokens.
"""

from __future__ import annotations

import functools
import string
from typing import Union

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


def _items(template: str) -> list[Union[str, tuple[str, str, str]]]:
    """The template as literal texts and (field, spec, conversion) fields,
    in order; raises ValueError on malformed braces."""
    items: list[Union[str, tuple[str, str, str]]] = []
    for literal, field, spec, conversion in string.Formatter().parse(template):
        if literal:
            items.append(literal)
        if field is not None:
            items.append((field, spec or "", conversion or ""))
    return items


@functools.lru_cache(maxsize=16)
def split_selected(template: str) -> tuple[str, ...]:
    """The verify template cut at each ``{selected}``, as format strings,
    parsed once per template text.

    A prompt is the first piece, then for each later piece the selected
    ids and that piece. Whitespace, or the template's start or end, must
    sit on each side of ``{selected}``: whitespace ends a token, so the
    prompt's tokens are then the tokens of its parts in order, and a
    verifier can tokenize the pieces once and extend them by each pick's
    tokens. Raises ValueError otherwise.
    """
    items = _items(template)
    pieces = [""]
    for i, item in enumerate(items):
        if isinstance(item, str):
            pieces[-1] += item.replace("{", "{{").replace("}", "}}")
            continue
        field, spec, conversion = item
        if field != "selected":
            conversion = f"!{conversion}" if conversion else ""
            spec = f":{spec}" if spec else ""
            pieces[-1] += "{" + field + conversion + spec + "}"
            continue
        if spec or conversion:
            raise ValueError("{selected} takes no conversion or format spec")
        before = items[i - 1] if i else " "
        after = items[i + 1] if i + 1 < len(items) else " "
        if not (
            isinstance(before, str)
            and before[-1].isspace()
            and isinstance(after, str)
            and after[0].isspace()
        ):
            raise ValueError(
                "{selected} needs whitespace, or the start or end of the "
                "template, on each side"
            )
        pieces.append("")
    return tuple(pieces)


def check_template(name: str, template: str) -> None:
    """Raise ValueError unless the template formats with string values for
    exactly its own field names, and a verify template splits at
    ``{selected}``."""
    names = TEMPLATE_FIELDS[name]
    for item in _items(template):
        if isinstance(item, str):
            continue
        field, spec, _ = item
        if field not in names:
            raise ValueError(f"unknown field {{{field}}}; allowed: {sorted(names)}")
        if "{" in spec:
            raise ValueError(f"field {{{field}}} nests a field in its format spec")
    # names and specs are now fixed, so formatting fails for every value or none
    template.format(**dict.fromkeys(names, ""))
    if name == "verify":
        split_selected(template)
