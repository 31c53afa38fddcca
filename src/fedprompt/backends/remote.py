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
from pathlib import Path
from typing import IO, Any, Callable

import requests

from fedprompt.backends.base import (
    Backend,
    BackendDescriptor,
    GenerationRequest,
    GenerationResult,
    count_tokens,
    ordered_write,
)
from fedprompt.errors import BackendError, ContextWindowExceeded, TransportFailure
from fedprompt.inputs import end_torn_tail, fault, read_jsonl

MAX_ATTEMPTS = 5

#: Seconds before the second attempt; each later wait doubles it.
BACKOFF_BASE_S = 0.5

#: Seconds one post may take before it counts as a transport error.
TIMEOUT_S = 60.0

#: The ``max_tokens`` every chat-completions payload asks for.
MAX_OUTPUT_TOKENS = 512

_CHAT_PATH = "/chat/completions"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(payload: dict[str, Any]) -> tuple[str, str]:
    """A request payload's canonical JSON and the sha256 hex digest of it."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return canonical, _sha256(canonical)


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
    "response", "response_sha256", "timestamp"}``, the request in the
    canonical JSON that :func:`request_hash` hashes and ``response_sha256``
    the sha256 of the response's ``json.dumps``, the text that replay holds
    and decodes anew on each serve. Recording keeps one append handle open
    and flushes it after every line, so a killed process keeps every
    committed line; :meth:`close` closes the handle, and a later line
    reopens it.
    A last line without its newline is kept if it parses and is otherwise a
    killed recording's fragment: replay skips the fragment, and recording,
    before its first append, cuts it off or ends the whole line. Replay
    rejects a line whose ``request`` does not hash to its ``request_hash``,
    or whose ``response`` does not hash to its ``response_sha256``; a line
    without ``response_sha256``, as older cassettes have, is not checked.
    """

    def __init__(self, path: str | Path, mode: str = "replay"):
        if mode not in ("record", "replay"):
            raise ValueError(f"unknown cassette mode: {mode!r}")
        self.path = Path(path)
        self.mode = mode
        self._store: dict[str, list[str]] = {}  # each key's responses, last served first
        self._write_lock = threading.Lock()
        self._file: IO[str] | None = None
        if mode == "record":
            end_torn_tail(self.path)
            return
        for n, entry in read_jsonl(path, BackendError, "cassette", skip_torn_tail=True):
            if not (isinstance(entry, dict) and isinstance(entry.get("request_hash"), str)
                    and isinstance(entry.get("request"), dict) and isinstance(entry.get("response"), dict)):
                raise fault(BackendError, "cassette", path,
                            "needs a string request_hash, an object request and an object response", n)
            if request_hash(entry["request"]) != entry["request_hash"]:
                raise fault(BackendError, "cassette", path, "request_hash is not the hash of its request", n)
            body = json.dumps(entry["response"])
            if "response_sha256" in entry and _sha256(body) != entry["response_sha256"]:
                raise fault(BackendError, "cassette", path, "response_sha256 is not the hash of its response", n)
            self._store.setdefault(entry["request_hash"], []).append(body)
        for bodies in self._store.values():  # a list, not a deque: a deque of one costs 760 bytes
            bodies.reverse()

    def record(self, payload: dict[str, Any], response: dict[str, Any]) -> None:
        canonical, digest = _canonical(payload)
        body = json.dumps(response)
        ordered_write(self._append_line, f'{{"request_hash": "{digest}", "request": {canonical}, '
                      f'"response": {body}, "response_sha256": "{_sha256(body)}", "timestamp": {time.time()!r}}}\n')

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
            body = self._store[key].pop()
        except (KeyError, IndexError):
            raise fault(BackendError, "cassette", self.path, f"no response left for request {key[:12]}…") from None
        return json.loads(body)


class RemoteBackend(Backend):
    """Chat-completions client for any OpenAI-compatible endpoint.

    Retries (up to :data:`MAX_ATTEMPTS` total attempts, exponential backoff
    from :data:`BACKOFF_BASE_S`, or a 429's ``Retry-After`` seconds when it
    gives them) are for transport failures and HTTP 429 only; other HTTP
    errors surface immediately, an HTTP 400 with error code
    ``context_length_exceeded`` as :class:`ContextWindowExceeded`. It only
    generates; surprisal is scored by the local n-gram oracle.

    Requests are looked up in one order: the memo, the replay cassette, the
    endpoint. A temperature-0 chat request whose texts match one already
    answered is served from memory (source ``"memo"``, no cost, no
    exchange); others come from a replaying cassette (``"cassette"``) or the
    endpoint (``"live"``), whose exchange a recording cassette keeps.
    Concurrent identical greedy requests wait for the first one instead of
    issuing their own, and a failed request stores nothing, so a waiter then
    tries it itself. A response whose content is not a string, or whose
    ``usage`` is not an object of non-negative integer counts, is a
    :class:`BackendError`.

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
        sleep: Callable[[float], None] = time.sleep,
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
        self.sleep = sleep
        self._memo: dict[tuple[str, str], GenerationResult] = {}
        self._in_flight: set[tuple[str, str]] = set()
        self._memo_lock = threading.Lock()
        self._memo_changed = threading.Condition(self._memo_lock)

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

    def _post_with_retries(self, payload: dict[str, Any]) -> dict[str, Any]:
        last_reason = "unknown"
        for attempt in range(1, MAX_ATTEMPTS + 1):
            wait = None
            try:
                resp = self.session.post(
                    self._base_url + _CHAT_PATH, json=payload, headers=self._headers, timeout=TIMEOUT_S
                )
            except requests.RequestException as exc:
                last_reason = f"transport error: {exc}"
            else:
                if resp.status_code == 429:
                    last_reason = "HTTP 429 (rate limited)"
                    wait = _retry_after(resp)
                elif resp.status_code == 400 and _error_code(resp) == "context_length_exceeded":
                    raise ContextWindowExceeded(
                        f"endpoint found the request for {_CHAT_PATH} too long: {resp.text[:200]}"
                    )
                elif resp.status_code >= 400:
                    raise BackendError(
                        f"endpoint returned HTTP {resp.status_code} for {_CHAT_PATH}: {resp.text[:200]}"
                    )
                else:
                    try:
                        return resp.json()
                    except ValueError as exc:
                        raise BackendError(f"endpoint returned non-JSON body: {exc}") from exc
            if attempt < MAX_ATTEMPTS:
                self.sleep(BACKOFF_BASE_S * 2 ** (attempt - 1) if wait is None else wait)
        raise TransportFailure(
            f"giving up on {_CHAT_PATH} after {MAX_ATTEMPTS} attempts ({last_reason})"
        )

    # -- backend interface -----------------------------------------------------

    def _serve(self, request: GenerationRequest) -> tuple[GenerationResult, str]:
        if request.temperature != 0:
            return self._fetch(request)
        key = (request.system_text, request.user_text)  # one model, one temperature, one output limit
        result = self._memo.get(key)  # a hit needs no lock: entries are never replaced
        if result is not None:
            return result, "memo"
        with self._memo_lock:
            while key in self._in_flight:
                self._memo_changed.wait()
            if key in self._memo:
                return self._memo[key], "memo"
            self._in_flight.add(key)
        result = None
        try:
            result, source = self._fetch(request)
        finally:
            with self._memo_lock:
                self._in_flight.discard(key)
                if result is not None:
                    self._memo[key] = result
                self._memo_changed.notify_all()
        return result, source

    def _fetch(self, request: GenerationRequest) -> tuple[GenerationResult, str]:
        """The result for ``request``, and its source, from the replay cassette
        or the endpoint; a cassette keys the payload with ``"op":
        "chat.completions"``, as existing cassettes do."""
        payload = {
            "model": self.descriptor.model_id,
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": request.temperature,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        cassette = self.cassette
        if cassette is not None and cassette.mode == "replay":
            response, source = cassette.replay({"op": "chat.completions", **payload}), "cassette"
        else:
            response, source = self._post_with_retries(payload), "live"
            if cassette is not None:
                cassette.record({"op": "chat.completions", **payload}, response)
        try:
            text = response["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed chat completion response: {exc}") from exc
        usage = response.get("usage")
        usage = {} if usage is None else usage  # null, as some servers send, is no usage
        if not isinstance(text, str):
            raise BackendError("malformed chat completion response: content is not a string")
        if not isinstance(usage, dict):
            raise BackendError("malformed chat completion response: usage is not an object")
        for name in ("prompt_tokens", "completion_tokens"):
            if name in usage and not (type(usage[name]) is int and usage[name] >= 0):  # JSON true is no count
                raise BackendError(f"malformed chat completion response: usage.{name} is not a non-negative integer")
        return GenerationResult(
            text=text,
            prompt_tokens=usage["prompt_tokens"] if "prompt_tokens" in usage else request.prompt_token_count(),
            completion_tokens=usage["completion_tokens"] if "completion_tokens" in usage else count_tokens(text),
        ), source
