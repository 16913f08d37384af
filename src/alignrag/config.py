"""Run configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .jsonio import read_json
from .prompts import DEFAULT_TEMPLATES, check_template

ENV_CONFIG = "ARM_CONFIG"

_PROVIDERS = ("hash", "file")
_SCORERS = ("mock", "mock-random")
# field annotation (a string, as annotations are postponed) -> value types
_TYPES = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "Optional[str]": (str, type(None)),
}


class _ReadOnlyDict(dict):
    """A ``dict`` no method can change, so a frozen ``Config`` holding one
    stays as checked and hashes; ``dataclasses.asdict``, ``json``,
    ``pickle`` and ``copy`` still treat it as a ``dict``."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("template_files cannot change; use dataclasses.replace")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)

    def __hash__(self):
        # equal dicts hold equal items, whatever their insertion order
        return hash(frozenset(self.items()))


@dataclass(frozen=True)
class Config:
    """Every run knob, checked when made (``ConfigError``) and frozen after:
    ``dataclasses.replace`` makes a changed copy, checked alike. Comments
    name what a field controls and which stage reads it; engine set-up
    reads a field once per engine."""

    # embedding provider, "hash" or "file" (engine set-up)
    provider: str = "hash"
    # JSONL of precomputed vectors for the "file" provider (engine set-up)
    vector_file: Optional[str] = None
    # hash-embedding dimension, 1 to 2**20; "file" ignores it (engine set-up)
    embed_dim: int = 64
    # "mock" counts context tokens, "mock-random" adds seeded noise (engine set-up)
    scorer: str = "mock"
    # mock scorer's logit per occurrence of a candidate in the context (all decoding)
    mock_context_weight: float = 1.0
    # mock scorer's logit bias on the stop token (all decoding)
    mock_stop_bias: float = 1.5
    # BM25 weight in base fusion, the embedding taking 1 - alpha (retrieve_base)
    alpha: float = 0.5
    # semantic weight in compatibility, overlap taking 1 - w (CompatibilityCache)
    compat_w: float = 0.5
    # share of vote weight against softmax vote count in confidence (aggregate)
    vote_lambda: float = 0.5
    # objects in the fused base set (retrieve_base)
    base_size: int = 10
    # objects each draft selects (solve_mip)
    mip_k: int = 5
    # ids a run returns, ARM and baselines; the CLI's --top-k sets it (finalize)
    final_k: int = 5
    # beams kept per step when aligning a keyword (align_keyword)
    beam_width: int = 3
    # most N-grams one aligned list may hold (align_keyword)
    max_ngrams: int = 3
    # BM25 term saturation (build_bm25, engine set-up)
    bm25_k1: float = 1.2
    # BM25 length normalization (build_bm25, engine set-up)
    bm25_b: float = 0.75
    # rows or sentences per chunk; the CLI chunks its corpus with it (load_corpus)
    chunk_units: int = 20
    # expansion strategies (per_step, steps), one draft each (expand_base)
    strategies: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (1, 2))
    # dense candidates the rerank baseline rescores (rerank_retrieve)
    rerank_pool: int = 50
    # dense hits kept per subquestion (decomposed_retrieve)
    per_sub: int = 30
    # cap on decoded subquestions (decomposed_retrieve)
    max_subquestions: int = 6
    # cap on search/finish steps of the agent baseline (agentic_retrieve)
    max_iterations: int = 8
    # objects each agent search returns (agentic_retrieve)
    per_search: int = 5
    # rows or sentences shown per object in a draft (serialize_draft)
    unit_k: int = 5
    # hash-embedding seed and the "mock-random" scorer's seed (engine set-up)
    seed: int = 0
    # prompt name -> file overriding that default template, held as a
    # read-only copy (engine set-up)
    template_files: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if type(self.strategies) in (tuple, list):
            pairs = tuple(tuple(s) if type(s) is list else s for s in self.strategies)
            object.__setattr__(self, "strategies", pairs)
        if type(self.template_files) is dict:
            paths = _ReadOnlyDict(self.template_files)
            object.__setattr__(self, "template_files", paths)
        self.validate()

    def validate(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if type(value) not in _TYPES.get(f.type, (type(value),)):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
        if self.provider not in _PROVIDERS:
            raise ConfigError(f"unknown provider {self.provider!r}")
        if self.provider == "file" and not self.vector_file:
            raise ConfigError("provider 'file' requires vector_file")
        if self.scorer not in _SCORERS:
            raise ConfigError(f"unknown scorer {self.scorer!r}")
        for name in ("alpha", "compat_w", "vote_lambda", "bm25_b"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {value}")
        if self.bm25_k1 < 0.0:
            raise ConfigError(f"bm25_k1 must be >= 0, got {self.bm25_k1}")
        for name in COUNT_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if type(self.strategies) is not tuple or not self.strategies:
            raise ConfigError("strategies must be a non-empty list of pairs")
        for strategy in self.strategies:
            pair = strategy if type(strategy) is tuple else ()
            if len(pair) != 2 or not all(type(n) is int and n >= 1 for n in pair):
                raise ConfigError(f"invalid strategy {strategy!r}")
        paths = self.template_files
        if type(paths) is not _ReadOnlyDict or any(
            type(p) is not str for p in paths.values()
        ):
            raise ConfigError("template_files must map template names to paths")
        unknown_templates = set(self.template_files) - set(DEFAULT_TEMPLATES)
        if unknown_templates:
            raise ConfigError(f"unknown template names {sorted(unknown_templates)}")

    def templates(self) -> dict[str, str]:
        """Default templates overlaid with any configured template files.

        Each file's template is checked once, here: it may use only its own
        field names, with well-formed braces, and a verify template needs
        whitespace or its start or end on each side of ``{selected}``.
        """
        resolved = dict(DEFAULT_TEMPLATES)
        for name, path in sorted(self.template_files.items()):
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    resolved[name] = handle.read().strip()
            except (OSError, UnicodeDecodeError) as exc:
                raise ConfigError(f"template {name!r}: cannot read {path}: {exc}")
            try:
                check_template(name, resolved[name])
            except ValueError as exc:
                raise ConfigError(f"template {name!r} in {path}: {exc}") from None
        return resolved


# every integer field but the seed is a count or size and must be >= 1
COUNT_FIELDS = tuple(
    f.name for f in dataclasses.fields(Config) if f.type == "int" and f.name != "seed"
)


def load_config(path: str) -> Config:
    """Read a JSON config; unknown keys are an error."""
    raw = read_json(path, "config", ConfigError)
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    return Config(**raw)


def resolve_config(path: Optional[str]) -> Config:
    """Explicit path, else the environment fallback, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    return Config() if path is None else load_config(path)
