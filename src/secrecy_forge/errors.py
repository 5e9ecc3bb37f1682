"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations


class SecrecyForgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDistribution(SecrecyForgeError, ValueError):
    """A probability array violates normalization, positivity or shape."""


class InvalidChannel(SecrecyForgeError, ValueError):
    """A stochastic matrix violates row-stochasticity or shape."""


class InvalidState(SecrecyForgeError, ValueError):
    """A density matrix or amplitude vector violates its invariants."""


class DimensionCapExceeded(SecrecyForgeError, ValueError):
    """An operation would build an object above the configured size cap."""


class InvalidProtocol(SecrecyForgeError, ValueError):
    """An instrument tree or classical protocol violates its invariants."""


class UsageError(SecrecyForgeError, ValueError):
    """Bad command-line usage or malformed input files (CLI exit code 2)."""
