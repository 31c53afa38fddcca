"""Language-model backends: remote HTTP, scripted mock, n-gram oracle."""

from fedprompt.backends.base import (
    DEFAULT_CONTEXT_WINDOW,
    DEFAULT_MAX_OUTPUT_TOKENS,
    DEFAULT_TEMPERATURES,
    GENERATION_TAGS,
    Backend,
    BackendDescriptor,
    CallLog,
    CallRecord,
    GenerationRequest,
    GenerationResult,
    TokenLogprobs,
    count_tokens,
)
from fedprompt.backends.mock import MockBackend, load_script
from fedprompt.backends.ngram import NgramBackend


def __getattr__(name: str):  # backends.remote imports requests, so it loads on first use
    if name in ("Cassette", "RemoteBackend", "request_hash"):
        from fedprompt.backends import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DEFAULT_CONTEXT_WINDOW",
    "DEFAULT_MAX_OUTPUT_TOKENS",
    "DEFAULT_TEMPERATURES",
    "GENERATION_TAGS",
    "Backend",
    "BackendDescriptor",
    "CallLog",
    "CallRecord",
    "Cassette",
    "GenerationRequest",
    "GenerationResult",
    "MockBackend",
    "NgramBackend",
    "RemoteBackend",
    "TokenLogprobs",
    "count_tokens",
    "load_script",
    "request_hash",
]
