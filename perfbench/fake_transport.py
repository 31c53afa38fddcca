"""In-process stand-in for an OpenAI-compatible chat-completions endpoint.

``FakeTransport.installed()`` replaces ``requests.Session`` for its duration,
so every ``RemoteBackend`` built inside it (through ``fedprompt run --backend
remote``) posts here instead of the network. The fake works out each
request's tag from the bundled templates' fixed openings, answers with the
public rule functions in ``fedprompt.backends.rules``, optionally sleeps a
fixed latency, and counts what it was sent.

No live endpoint is reachable from the benchmark, so the injected sleep is
what stands in for a remote model's latency.
"""

from __future__ import annotations

import contextlib
import json
import re
import threading
import time
from typing import Any, Iterator

import requests

from fedprompt.backends import rules
from fedprompt.backends.base import GenerationRequest, count_tokens

#: Fixed openings of the bundled templates that go out without a system
#: text. A request with a non-empty system text is a forward call; a user
#: text that starts with none of these is an evaluation call (the judge's
#: input starts with the response under judgement).
TAG_BY_OPENING = (
    ("Below are the criticisms on", "tgd_step"),
    ("Merge the following", "aggregation_summarize"),
    ("The system prompt below produced", "gradient_prompt"),
    ("Here is a response:", "gradient_response"),
)

RULE_BY_TAG = {
    "forward": rules.forward_rule,
    "evaluation": rules.evaluation_rule,
    "gradient_response": rules.gradient_response_rule,
    "gradient_prompt": rules.gradient_prompt_rule,
    "tgd_step": rules.tgd_rule,
    "aggregation_summarize": rules.summarize_rule,
}

_STAMP = re.compile(r"\[v\d+\]")


def classify(system_text: str, user_text: str) -> str:
    """The generation tag a chat request was built for."""
    if system_text:
        return "forward"
    for opening, tag in TAG_BY_OPENING:
        if user_text.startswith(opening):
            return tag
    return "evaluation"


class FakeResponse:
    def __init__(self, status_code: int, body: dict[str, Any]):
        self.status_code = status_code
        self._body = body

    def json(self) -> dict[str, Any]:
        return self._body

    @property
    def text(self) -> str:
        return json.dumps(self._body)


class FakeSession:
    """What ``requests.Session()`` returns while a transport is installed."""

    def __init__(self, transport: "FakeTransport"):
        self._transport = transport

    def post(self, url: str, json: dict[str, Any] | None = None, **_: Any) -> FakeResponse:
        return self._transport.post(url, json or {})


class FakeTransport:
    """Answers chat completions from the rule functions and counts them.

    ``stamped`` selects the stamped rule set: every ``tgd_step`` mints a new
    ``[vK]`` prompt and every forward response echoes the stamp of the prompt
    it answered, so nearly every downstream request is new.

    ``tracer`` (optional) receives one ``backends.transport`` span per request.
    """

    def __init__(self, latency_s: float = 0.0, stamped: bool = False, tracer: Any = None):
        self.latency_s = latency_s
        self.stamped = stamped
        self.tracer = tracer
        self.requests = 0
        self.tokens = 0
        self.by_tag: dict[str, int] = {}
        self.greedy_requests = 0
        self.greedy_repeats = 0
        self._greedy_seen: set[tuple[str, str, str]] = set()
        self._stamps = 0
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def installed(self) -> Iterator["FakeTransport"]:
        original = requests.Session
        requests.Session = lambda: FakeSession(self)  # type: ignore[assignment]
        try:
            yield self
        finally:
            requests.Session = original  # type: ignore[assignment]

    @property
    def greedy_repeat_share(self) -> float:
        """Share of temperature-0 requests whose content was seen before."""
        return self.greedy_repeats / self.greedy_requests if self.greedy_requests else 0.0

    def post(self, url: str, payload: dict[str, Any]) -> FakeResponse:
        start = time.perf_counter()
        if not url.endswith("/chat/completions"):
            return FakeResponse(404, {"error": f"no route {url}"})
        system_text = user_text = ""
        for message in payload.get("messages", ()):
            if message.get("role") == "system":
                system_text = message.get("content", "")
            elif message.get("role") == "user":
                user_text = message.get("content", "")
        tag = classify(system_text, user_text)
        temperature = payload.get("temperature")
        text = self._answer(tag, system_text, user_text, temperature)
        if text is None:
            return FakeResponse(500, {"error": f"no rule answers this {tag} request"})
        prompt_tokens = count_tokens(system_text) + count_tokens(user_text)
        completion_tokens = count_tokens(text)
        if self.latency_s:
            time.sleep(self.latency_s)
        end = time.perf_counter()
        with self._lock:
            self.requests += 1
            self.tokens += prompt_tokens + completion_tokens
            self.by_tag[tag] = self.by_tag.get(tag, 0) + 1
            if temperature == 0:
                key = (payload.get("model", ""), system_text, user_text)
                self.greedy_requests += 1
                if key in self._greedy_seen:
                    self.greedy_repeats += 1
                else:
                    self._greedy_seen.add(key)
        if self.tracer is not None:
            self.tracer.record("backends.transport", start, end)
        return FakeResponse(
            200,
            {
                "choices": [{"index": 0, "message": {"role": "assistant", "content": text}}],
                "usage": {
                    "prompt_tokens": prompt_tokens,
                    "completion_tokens": completion_tokens,
                    "total_tokens": prompt_tokens + completion_tokens,
                },
            },
        )

    def _answer(self, tag: str, system_text: str, user_text: str, temperature: Any) -> str | None:
        request = GenerationRequest(
            tag=tag, system_text=system_text, user_text=user_text, temperature=temperature
        )
        text = RULE_BY_TAG[tag](request)
        if not self.stamped or text is None:
            return text
        if tag == "tgd_step":
            with self._lock:
                self._stamps += 1
                return f"[v{self._stamps}] {text}"
        if tag == "forward":
            stamp = _STAMP.search(system_text)
            if stamp:
                return f"{stamp.group(0)} {text}"
        return text
