"""Exception types shared across the package."""

from __future__ import annotations


class AlignragError(Exception):
    """Base class for all package errors."""


class ParseError(AlignragError):
    """A corpus or config file could not be parsed."""


class ValidationError(AlignragError):
    """A parsed object violates a structural constraint."""


class ConfigError(AlignragError):
    """Invalid configuration value or unknown key."""


class DimensionMismatch(AlignragError):
    """Two vectors of different dimension were compared."""


class ZeroVector(AlignragError):
    """Cosine similarity requested against a zero-norm vector."""


class ProviderError(AlignragError):
    """An embedding provider could not produce a vector."""


class Infeasible(AlignragError):
    """Selection problem asks for more objects than exist."""


class TooLarge(AlignragError):
    """A selection search exceeds the exact solver's node budget."""


class ScorerError(AlignragError):
    """A token scorer returned an output outside its contract."""


class AllBeamsDead(AlignragError):
    """Every decoding beam reached a state with no valid continuation."""


class EmptyGold(AlignragError):
    """A question was evaluated with an empty gold set."""


class UnknownGoldId(AlignragError):
    """A gold object id does not exist in the corpus."""
