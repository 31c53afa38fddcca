"""Deterministic scripted backend for tests and offline runs.

The mock answers from a script table and an optional rule layer; it never
improvises. A miss is a hard :class:`~fedprompt.errors.NoScriptMatch` so a
test that drifts from its expected call pattern fails loudly instead of
silently absorbing a canned reply.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from fedprompt.backends.base import (
    GENERATION_TAGS,
    Backend,
    BackendDescriptor,
    GenerationRequest,
    GenerationResult,
    count_tokens,
)
from fedprompt.errors import ConfigError, NoScriptMatch
from fedprompt.inputs import fault, read_json

RuleFn = Callable[[GenerationRequest], "str | None"]

#: The fields every script entry sets, in :meth:`MockBackend.add` order.
_ENTRY_KEYS = ("tag", "user_text", "response")


def _normalize(text: str) -> str:
    """Collapse whitespace runs so scripts are insensitive to formatting."""
    return " ".join(text.split())


class MockBackend(Backend):
    """Script-table backend.

    Lookup order for a request: exact match on ``(tag, normalized user_text)``,
    then the longest matching prefix entry for the tag, then the rule layer
    (callables that see the whole request and may return a reply or ``None``).
    If nothing matches, raise.
    """

    def __init__(self, descriptor: BackendDescriptor | None = None):
        super().__init__(descriptor or BackendDescriptor(kind="mock", model_id="mock"))
        self._exact: dict[tuple[str, str], str] = {}
        self._prefix: dict[str, list[tuple[str, str]]] = {}
        self._rules: list[RuleFn] = []

    # -- script construction -------------------------------------------------

    def add(self, tag: str, user_text: str, response: str, match: str = "exact") -> None:
        if tag not in GENERATION_TAGS:
            raise ValueError(f"unknown generation tag: {tag!r}")
        key = _normalize(user_text)
        if match == "exact":
            self._exact[(tag, key)] = response
        elif match == "prefix":
            self._prefix.setdefault(tag, []).append((key, response))
            # longest prefix should win, so keep the list sorted
            self._prefix[tag].sort(key=lambda kv: len(kv[0]), reverse=True)
        else:
            raise ValueError(f"unknown match mode: {match!r}")

    def add_rule(self, rule: RuleFn) -> None:
        self._rules.append(rule)

    # -- generation -----------------------------------------------------------

    def _serve(self, request: GenerationRequest) -> tuple[GenerationResult, str]:
        reply = self._lookup(request)
        if reply is None:
            raise NoScriptMatch(
                f"no script entry or rule for tag={request.tag!r} "
                f"user_text={_normalize(request.user_text)[:120]!r}"
            )
        return GenerationResult(reply, request.prompt_token_count(), count_tokens(reply)), "live"

    def _lookup(self, request: GenerationRequest) -> str | None:
        key = _normalize(request.user_text)
        hit = self._exact.get((request.tag, key))
        if hit is not None:
            return hit
        for prefix, response in self._prefix.get(request.tag, ()):
            if key.startswith(prefix):
                return response
        for rule in self._rules:
            reply = rule(request)
            if reply is not None:
                return reply
        return None


def load_script(path: str | Path) -> MockBackend:
    """Build a :class:`MockBackend` from a JSON script file.

    The file holds a list of entries::

        [{"tag": "forward", "user_text": "...", "response": "...",
          "match": "exact"}]

    ``match`` defaults to ``"exact"``; ``"prefix"`` matches any request whose
    normalized user text starts with the entry's text. A file that is not
    UTF-8 JSON of this shape raises :class:`ConfigError` naming the file.
    """
    backend = MockBackend()
    entries = read_json(path, ConfigError, "mock script")
    try:
        if not isinstance(entries, list):
            raise ValueError("not a JSON list of entries")
        for n, entry in enumerate(entries, start=1):
            if not isinstance(entry, dict) or not all(isinstance(entry.get(k), str) for k in _ENTRY_KEYS):
                raise ValueError(f"entry {n} needs string fields {', '.join(_ENTRY_KEYS)}")
            backend.add(*(entry[k] for k in _ENTRY_KEYS), match=entry.get("match", "exact"))
    except ValueError as exc:  # a shape check, here or in MockBackend.add
        raise fault(ConfigError, "mock script", path, str(exc)) from exc
    return backend
