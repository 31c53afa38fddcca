"""OpenAI-compatible HTTP backend with retry and record/replay support.

Credentials come from the environment at a run's first post and are never
written to disk; cassette files hold requests and responses only.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import IO, Any, Callable

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


def _canonical(payload: dict[str, Any]) -> tuple[str, str]:
    """A request payload's canonical JSON and the sha256 hex digest of it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return canonical, hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def request_hash(payload: dict[str, Any]) -> str:
    """Stable content hash of a request payload (canonical JSON, sha256)."""
    return _canonical(payload)[1]


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
    "response", "timestamp"}``, the request in the canonical JSON that
    :func:`request_hash` hashes. Recording keeps one append handle open and
    flushes it after every line, so a killed process keeps every committed
    line; :meth:`close` closes the handle, and a later line reopens it.
    """

    def __init__(self, path: str | Path, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown cassette mode: {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._store: dict[str, deque[dict[str, Any]]] = {}
        self._write_lock = threading.Lock()
        self._file: IO[str] | None = None
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
        canonical, digest = _canonical(payload)
        ordered_write(self._append_line, f'{{"request_hash": "{digest}", "request": {canonical}, '
                      f'"response": {json.dumps(response)}, "timestamp": {time.time()!r}}}\n')

    def _append_line(self, line: str) -> None:
        with self._write_lock:
            if self._file is None:
                self._file = self.path.open("a", encoding="utf-8")
            self._file.write(line)
            self._file.flush()

    def close(self) -> None:
        with self._write_lock:
            if self._file is not None:
                self._file.close()
                self._file = None

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
    :meth:`close` closes the sessions the backend created (never an injected
    one) and the cassette; later calls open new ones.
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
        self._base_url = descriptor.endpoint.rstrip("/")
        self.cassette = cassette
        self._shared_session = session
        self._local = threading.local()
        self._created: list[requests.Session] = []
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
            self._created.append(session)
        return session

    def close(self) -> None:
        super().close()  # first, so that no worker thread is left to post
        created, self._created = self._created, []
        self._local = threading.local()
        for session in created:
            close = getattr(session, "close", None)  # stand-ins for a Session may have none
            if close is not None:
                close()
        if self.cassette is not None:
            self.cassette.close()
        vars(self).pop("_headers", None)  # the next run reads the key afresh

    @functools.cached_property
    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        key = os.environ.get(self.api_key_env, "")
        if key:
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def _post_with_retries(self, path: str, payload: dict[str, Any]) -> dict[str, Any]:
        last_reason = "unknown"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            wait = None
            try:
                resp = self.session.post(
                    self._base_url + path, json=payload, headers=self._headers, timeout=self.timeout
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
        result = self._memo.get(key)  # a hit needs no lock: entries are never replaced
        if result is not None:
            return result, "memo"
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
            "model": self.descriptor.model_id,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_output_tokens,
        }
        response = self._exchange_tagged("chat.completions", payload, "/chat/completions")
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

    def _exchange_tagged(self, op: str, wire: dict[str, Any], path: str) -> dict[str, Any]:
        """Send ``wire``; a cassette keys it with ``op`` added, so that a chat
        and a completions request never share a hash."""
        if self.cassette is None:
            return self._post_with_retries(path, wire)
        keyed = {"op": op, **wire}
        if self.cassette.mode == "replay":
            return self.cassette.replay(keyed)
        response = self._post_with_retries(path, wire)
        self.cassette.record(keyed, response)
        return response

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        if not self.descriptor.supports_logprobs:
            raise LogprobsUnsupported(
                f"descriptor for {self.descriptor.model_id!r} does not advertise logprobs"
            )
        prompt = context + text
        payload = {
            "model": self.descriptor.model_id,
            "prompt": prompt,
            "echo": True,
            "logprobs": 0,
            "max_tokens": 0,
        }
        try:
            response = self._exchange_tagged("completions.echo", payload, "/completions")
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
