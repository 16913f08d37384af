"""Run configuration: defaults, JSON loading, validation."""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError
from .prompts import DEFAULT_TEMPLATES

ENV_CONFIG = "ARM_CONFIG"

_PROVIDERS = ("hash", "file")
_SCORERS = ("mock", "mock-random")


@dataclass
class Config:
    provider: str = "hash"
    vector_file: Optional[str] = None
    embed_dim: int = 64
    scorer: str = "mock"
    mock_context_weight: float = 1.0
    mock_stop_bias: float = 1.5
    alpha: float = 0.5
    compat_w: float = 0.5
    vote_lambda: float = 0.5
    base_size: int = 10
    mip_k: int = 5
    final_k: int = 5
    beam_width: int = 3
    max_ngrams: int = 3
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    chunk_units: int = 20
    strategies: tuple[tuple[int, int], ...] = ((1, 1), (2, 1), (1, 2))
    rerank_pool: int = 50
    per_sub: int = 30
    max_subquestions: int = 6
    max_iterations: int = 8
    per_search: int = 5
    unit_k: int = 5
    seed: int = 0
    template_files: dict[str, str] = field(default_factory=dict)

    def validate(self) -> None:
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
        for name in (
            "embed_dim",
            "base_size",
            "mip_k",
            "final_k",
            "beam_width",
            "max_ngrams",
            "chunk_units",
            "rerank_pool",
            "per_sub",
            "max_subquestions",
            "max_iterations",
            "per_search",
            "unit_k",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not self.strategies:
            raise ConfigError("strategies must not be empty")
        for strategy in self.strategies:
            if len(strategy) != 2 or strategy[0] < 1 or strategy[1] < 1:
                raise ConfigError(f"invalid strategy {strategy!r}")
        unknown_templates = set(self.template_files) - set(DEFAULT_TEMPLATES)
        if unknown_templates:
            raise ConfigError(f"unknown template names {sorted(unknown_templates)}")

    def templates(self) -> dict[str, str]:
        """Default templates overlaid with any configured template files."""
        resolved = dict(DEFAULT_TEMPLATES)
        for name, path in sorted(self.template_files.items()):
            with open(path, "r", encoding="utf-8") as handle:
                resolved[name] = handle.read().strip()
        return resolved


def load_config(path: str) -> Config:
    """Read a JSON config; unknown keys are an error."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    known = {f.name for f in dataclasses.fields(Config)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    if "strategies" in raw:
        raw["strategies"] = tuple(tuple(s) for s in raw["strategies"])
    config = Config(**raw)
    config.validate()
    return config


def resolve_config(path: Optional[str]) -> Config:
    """Explicit path, else the environment fallback, else defaults."""
    if path is None:
        path = os.environ.get(ENV_CONFIG) or None
    if path is None:
        config = Config()
        config.validate()
        return config
    return load_config(path)
