"""OpenAI-compatible HTTP backend with retry and record/replay support.

Credentials come from the environment at call time and are never written to
disk; cassette files hold requests and responses only.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable

import requests

from fedprompt.backends.base import (
    Backend,
    BackendDescriptor,
    GenerationRequest,
    GenerationResult,
    TokenLogprobs,
    count_tokens,
    ordered_write,
)
from fedprompt.errors import BackendError, ContextWindowExceeded, LogprobsUnsupported, TransportFailure

MAX_ATTEMPTS = 5


def request_hash(payload: dict[str, Any]) -> str:
    """Stable content hash of a request payload (canonical JSON, sha256)."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _retry_after(resp: requests.Response) -> float | None:
    """The ``Retry-After`` header in seconds, or ``None`` if absent or a date."""
    try:
        seconds = float(resp.headers.get("Retry-After"))
    except (TypeError, ValueError):
        return None
    return seconds if 0 <= seconds < math.inf else None


def _error_code(resp: requests.Response) -> Any:
    """The ``error.code`` of an OpenAI-style error body, or ``None``."""
    try:
        return resp.json()["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return None


class Cassette:
    """JSONL request/response store.

    ``mode="record"`` appends every live exchange, in program order (see
    :func:`~fedprompt.backends.base.ordered_write`); ``mode="replay"`` serves
    stored responses by request hash, each once and in recorded order, and
    never touches the network. Each line is ``{"request_hash", "request",
    "response", "timestamp"}``.
    """

    def __init__(self, path: str | Path, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown cassette mode: {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._store: dict[str, deque[dict[str, Any]]] = {}
        self._write_lock = threading.Lock()
        if mode == "replay":
            self._load()

    def _load(self) -> None:
        if not self.path.exists():
            raise BackendError(f"cassette not found: {self.path}")
        with self.path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                entry = json.loads(line)
                self._store.setdefault(entry["request_hash"], deque()).append(entry["response"])

    def record(self, payload: dict[str, Any], response: dict[str, Any]) -> None:
        entry = {
            "request_hash": request_hash(payload),
            "request": payload,
            "response": response,
            "timestamp": time.time(),
        }
        ordered_write(self._append_line, json.dumps(entry) + "\n")

    def _append_line(self, line: str) -> None:
        with self._write_lock, self.path.open("a", encoding="utf-8") as fh:
            fh.write(line)

    def replay(self, payload: dict[str, Any]) -> dict[str, Any]:
        key = request_hash(payload)
        try:
            return self._store[key].popleft()
        except (KeyError, IndexError):
            raise BackendError(
                f"cassette {self.path} has no response left for request hash {key[:12]}…"
            ) from None


class RemoteBackend(Backend):
    """Chat-completions client for any OpenAI-compatible endpoint.

    Retries (up to :data:`MAX_ATTEMPTS` total attempts, exponential backoff,
    or a 429's ``Retry-After`` seconds when it gives them) are for transport
    failures and HTTP 429 only; other HTTP errors surface
    immediately, an HTTP 400 with error code ``context_length_exceeded`` as
    :class:`ContextWindowExceeded`. Token scoring uses echo-style completions
    and requires the descriptor to advertise ``supports_logprobs``.

    Responses come from one store with two layers. A temperature-0 chat
    request whose exact content was already answered is served from memory
    (source ``"memo"``, no cost, no exchange); every other request goes to
    the cassette (replay) or the endpoint. Concurrent identical greedy
    requests wait for the first one instead of issuing their own, and a
    failed request stores nothing, so a waiter then tries it itself.

    An injected ``session`` is shared by every thread; without one, each
    thread gets its own ``requests.Session``, which is not thread-safe.
    """

    def __init__(
        self,
        descriptor: BackendDescriptor,
        api_key_env: str = "FEDPROMPT_API_KEY",
        cassette: Cassette | None = None,
        session: requests.Session | None = None,
        backoff_base: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
        timeout: float = 60.0,
    ):
        if descriptor.kind != "remote":
            raise ValueError("RemoteBackend needs a descriptor with kind='remote'")
        if not descriptor.endpoint:
            raise ValueError("RemoteBackend needs an endpoint")
        super().__init__(descriptor)
        self.api_key_env = api_key_env
        self.cassette = cassette
        self._shared_session = session
        self._local = threading.local()
        self.backoff_base = backoff_base
        self.sleep = sleep
        self.timeout = timeout
        self._memo: dict[tuple, GenerationResult] = {}
        self._in_flight: set[tuple] = set()
        self._memo_changed = threading.Condition(threading.Lock())

    # -- HTTP plumbing ---------------------------------------------------------

    @property
    def session(self) -> requests.Session:
        if self._shared_session is not None:
            return self._shared_session
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _url(self, path: str) -> str:
        return self.descriptor.endpoint.rstrip("/") + path

    def _post_with_retries(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        last_reason = "unknown"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            wait = None
            try:
                resp = self.session.post(
                    self._url(path),
                    json=payload,
                    headers=self._headers(),
                    timeout=self.timeout,
                )
            except requests.RequestException as exc:
                last_reason = f"transport error: {exc}"
            else:
                if resp.status_code == 429:
                    last_reason = "HTTP 429 (rate limited)"
                    wait = _retry_after(resp)
                elif resp.status_code == 400 and _error_code(resp) == "context_length_exceeded":
                    raise ContextWindowExceeded(f"endpoint found the request for {path} too long: {resp.text[:200]}")
                elif resp.status_code >= 400:
                    raise BackendError(
                        f"endpoint returned HTTP {resp.status_code} for {path}: {resp.text[:200]}"
                    )
                else:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise BackendError(f"endpoint returned non-JSON body: {exc}") from exc
            if attempt < MAX_ATTEMPTS:
                self.sleep(self.backoff_base * 2 ** (attempt - 1) if wait is None else wait)
        raise TransportFailure(
            f"giving up on {path} after {MAX_ATTEMPTS} attempts ({last_reason})",
            attempts=MAX_ATTEMPTS,
        )

    # -- backend interface -----------------------------------------------------

    def _serve(self, request: GenerationRequest) -> tuple[GenerationResult, str]:
        replaying = self.cassette is not None and self.cassette.mode == "replay"
        source = "cassette" if replaying else "live"
        if request.temperature != 0:
            return self._generate(request), source
        key = (
            self.descriptor.model_id,
            request.system_text,
            request.user_text,
            request.temperature,
            request.max_output_tokens,
        )
        with self._memo_changed:
            while key in self._in_flight:
                self._memo_changed.wait()
            if key in self._memo:
                return self._memo[key], "memo"
            self._in_flight.add(key)
        result = None
        try:
            result = self._generate(request)
        finally:
            with self._memo_changed:
                self._in_flight.discard(key)
                if result is not None:
                    self._memo[key] = result
                self._memo_changed.notify_all()
        return result, source

    def _generate(self, request: GenerationRequest) -> GenerationResult:
        payload = {
            "op": "chat.completions",
            "model": self.descriptor.model_id,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        response = self._exchange_tagged(payload, "/chat/completions")
        try:
            text = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat completion response: {exc}") from exc
        usage = response.get("usage") or {}
        return GenerationResult(
            text=text,
            prompt_tokens=usage["prompt_tokens"] if "prompt_tokens" in usage else request.prompt_token_count(),
            completion_tokens=usage["completion_tokens"] if "completion_tokens" in usage else count_tokens(text),
        )

    def _exchange_tagged(self, keyed: dict[str, Any], path: str) -> dict[str, Any]:
        """Replay/record under the op-tagged payload, send it without ``op``."""
        if self.cassette is not None and self.cassette.mode == "replay":
            return self.cassette.replay(keyed)
        wire = {k: v for k, v in keyed.items() if k != "op"}
        response = self._post_with_retries(path, wire)
        if self.cassette is not None:
            self.cassette.record(keyed, response)
        return response

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        if not self.descriptor.supports_logprobs:
            raise LogprobsUnsupported(
                f"descriptor for {self.descriptor.model_id!r} does not advertise logprobs"
            )
        prompt = context + text
        payload = {
            "op": "completions.echo",
            "model": self.descriptor.model_id,
            "prompt": prompt,
            "echo": True,
            "logprobs": 0,
            "max_tokens": 0,
        }
        try:
            response = self._exchange_tagged(payload, "/completions")
        except BackendError as exc:
            if "HTTP 404" in str(exc):
                raise LogprobsUnsupported(
                    "endpoint has no echo-capable /completions route"
                ) from exc
            raise
        try:
            lp = response["choices"][0]["logprobs"]
            tokens = lp["tokens"]
            logprobs = lp["token_logprobs"]
            offsets = lp["text_offset"]
        except (KeyError, IndexError, TypeError) as exc:
            raise LogprobsUnsupported(
                f"endpoint response carries no echoed logprobs: {exc}"
            ) from exc
        boundary = len(context)
        out_tokens: list[str] = []
        out_logprobs: list[float] = []
        for tok, logprob, offset in zip(tokens, logprobs, offsets):
            if offset >= boundary:
                out_tokens.append(tok)
                out_logprobs.append(logprob if logprob is not None else float("-inf"))
        return TokenLogprobs(tokens=out_tokens, logprobs=out_logprobs)
