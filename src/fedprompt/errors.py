"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command-line entry point can
translate failures into stable process statuses without a big isinstance
ladder.
"""

from __future__ import annotations


class FedPromptError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ConfigError(FedPromptError):
    """Invalid or contradictory run configuration."""

    exit_code = 2


class BackendError(FedPromptError):
    """A language-model backend failed to produce a result."""

    exit_code = 3


class TransportFailure(BackendError):
    """The remote endpoint stayed unreachable after retrying."""


class NoScriptMatch(BackendError):
    """The scripted backend has no entry for a request; it never improvises."""


class EmptyGradient(FedPromptError):
    """A prompt update was requested with no criticisms."""


class EmptyText(FedPromptError):
    """Surprisal measurement of empty text is undefined."""


class ExtractionFailure(FedPromptError):
    """No ``Answer: VALUE`` line found in a response."""


class ContextWindowExceeded(FedPromptError):
    """A request or aggregate would not fit in the model's context window."""

    exit_code = 4

    def __init__(self, message: str, needed: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


class AggregationError(FedPromptError):
    """Prompt aggregation could not produce a usable global prompt."""

    exit_code = 5


class EmptyOutput(AggregationError):
    """The summarization model returned blank text."""


class DatasetError(FedPromptError):
    """Problem loading or partitioning task data."""

    exit_code = 6


class ParseError(DatasetError):
    """A dataset line could not be parsed; the message names the 1-based line."""


class DuplicateId(DatasetError):
    """Two dataset records share an id."""


class TooManyClients(DatasetError):
    """More clients requested than the partitioning scheme can serve."""


class EmptyPartition(DatasetError):
    """A client was asked to train on an empty partition."""
