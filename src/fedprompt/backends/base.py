"""Core backend contract: requests, results, accounting, and the ABC.

Every model interaction in the package goes through :meth:`Backend.generate`
with a tagged :class:`GenerationRequest`. The tag says *why* the call is being
made, which is what the bookkeeping (per-tag call counts, cost attribution)
and the scripted test backends key on.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Any

from fedprompt.errors import ContextWindowExceeded, LogprobsUnsupported

#: Sampling temperature for each of the six reasons a model gets called, used
#: when a request does not pin one. Optimization moves (forward rollout,
#: prompt rewrite, summarization) keep the usual creative default; judging
#: and feedback calls are greedy so that scores and criticisms are
#: reproducible.
DEFAULT_TEMPERATURES = {
    "forward": 0.7,
    "evaluation": 0.0,
    "gradient_response": 0.0,
    "gradient_prompt": 0.0,
    "tgd_step": 0.7,
    "aggregation_summarize": 0.7,
}

#: The six reasons a model gets called.
GENERATION_TAGS = tuple(DEFAULT_TEMPERATURES)

DEFAULT_MAX_OUTPUT_TOKENS = 512

#: Context window of the reference model profile.
DEFAULT_CONTEXT_WINDOW = 8192


def count_tokens(text: str) -> int:
    """Number of whitespace-delimited tokens in ``text``.

    This is the package's single counting rule: splitting on runs of
    whitespace, so ``"count these four tokens"`` is 4 and empty or
    all-whitespace text is 0. All budgets (context windows, aggregation
    thresholds) are expressed in these units.
    """
    return len(text.split())


@dataclass
class GenerationRequest:
    """One tagged model call.

    ``tag`` must be one of :data:`GENERATION_TAGS`. ``temperature`` left as
    ``None`` resolves to the tag's default; an explicit value always wins.
    """

    tag: str
    system_text: str
    user_text: str
    temperature: float | None = None
    max_output_tokens: int = DEFAULT_MAX_OUTPUT_TOKENS
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.tag not in GENERATION_TAGS:
            raise ValueError(f"unknown generation tag: {self.tag!r}")
        if self.temperature is None:
            self.temperature = DEFAULT_TEMPERATURES[self.tag]

    def prompt_token_count(self) -> int:
        """Combined size of both text fields under the package counting rule."""
        return count_tokens(self.system_text) + count_tokens(self.user_text)


@dataclass(slots=True)
class GenerationResult:
    """What came back from one call."""

    text: str
    prompt_tokens: int
    completion_tokens: int


@dataclass
class TokenLogprobs:
    """Per-token log probabilities for a scored continuation.

    ``logprobs`` are natural logarithms, exactly as model APIs report them;
    conversion to bits happens in the metrics layer, not here.
    """

    tokens: list[str]
    logprobs: list[float]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.logprobs):
            raise ValueError("tokens and logprobs must be parallel lists")


@dataclass
class BackendDescriptor:
    """Identity and limits of a backend instance."""

    kind: str  # "remote" | "mock" | "ngram_oracle"
    model_id: str
    endpoint: str | None = None
    context_window: int = DEFAULT_CONTEXT_WINDOW
    usd_per_1k_prompt_tokens: float = 0.0
    usd_per_1k_completion_tokens: float = 0.0
    tokenizer: str = "whitespace"
    supports_logprobs: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("remote", "mock", "ngram_oracle"):
            raise ValueError(f"unknown backend kind: {self.kind!r}")
        if self.context_window <= 0:
            raise ValueError("context_window must be positive")
        if self.usd_per_1k_prompt_tokens < 0 or self.usd_per_1k_completion_tokens < 0:
            raise ValueError("prices must be non-negative")

    def cost_usd(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens / 1000.0 * self.usd_per_1k_prompt_tokens
            + completion_tokens / 1000.0 * self.usd_per_1k_completion_tokens
        )


@dataclass(slots=True)
class CallRecord:
    """One completed call, as kept in the log.

    ``source`` says where the result came from: ``"live"`` (the backend
    computed or fetched it), ``"cassette"`` (a replay cassette) or ``"memo"``
    (an earlier identical greedy call; such a record costs nothing).
    """

    index: int
    tag: str
    request: GenerationRequest
    result: GenerationResult
    cost_usd: float
    source: str = "live"


def _add_exact(partials: list[float], x: float) -> None:
    """Add ``x`` to a list of non-overlapping partial sums, exactly.

    Shewchuk's algorithm: afterwards the partials still sum, with no rounding
    error, to the exact total of everything added, so ``math.fsum`` over them
    equals ``math.fsum`` over the addends themselves.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class CallLog:
    """Append-only, thread-safe record of every call a backend served.

    Client updates may run concurrently, so appends take a lock; reads hand
    back snapshots. Per-tag counts and the exact running cost are kept as
    records arrive, so reading them does not scan the log. A call counts as
    *issued* unless the memo served it.
    """

    def __init__(self) -> None:
        self._records: list[CallRecord] = []
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(GENERATION_TAGS, 0)
        self._issued = dict.fromkeys(GENERATION_TAGS, 0)
        self._cost_partials: list[float] = []

    def append(
        self,
        request: GenerationRequest,
        result: GenerationResult,
        cost_usd: float,
        source: str = "live",
    ) -> CallRecord:
        with self._lock:
            record = CallRecord(len(self._records), request.tag, request, result, cost_usd, source)
            self._records.append(record)
            self._counts[request.tag] += 1
            if source != "memo":
                self._issued[request.tag] += 1
            if cost_usd:
                _add_exact(self._cost_partials, cost_usd)
            return record

    def records(self) -> list[CallRecord]:
        with self._lock:
            return list(self._records)

    def tags(self) -> list[str]:
        return [r.tag for r in self.records()]

    def counts_by_tag(self) -> dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def issued_counts_by_tag(self) -> dict[str, int]:
        with self._lock:
            return dict(self._issued)

    def total_cost_usd(self) -> float:
        # correctly rounded, so the total does not depend on the order in
        # which concurrent clients appended their calls
        with self._lock:
            return math.fsum(self._cost_partials)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


class Backend:
    """Abstract language-model backend.

    Subclasses implement :meth:`_generate`; this class owns the shared
    pre-condition (the request must fit the context window) and the shared
    bookkeeping (cost, call log). ``token_logprobs`` is optional and raises
    :class:`~fedprompt.errors.LogprobsUnsupported` unless a subclass can
    score text.
    """

    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor
        self.call_log = CallLog()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        needed = request.prompt_token_count()
        budget = self.descriptor.context_window
        if needed > budget:
            raise ContextWindowExceeded(
                f"request needs {needed} tokens but the context window is {budget}",
                needed=needed,
                budget=budget,
            )
        result, source = self._serve(request)
        cost = 0.0 if source == "memo" else self.descriptor.cost_usd(
            result.prompt_tokens, result.completion_tokens
        )
        self.call_log.append(request, result, cost, source)
        return result

    def _serve(self, request: GenerationRequest) -> tuple[GenerationResult, str]:
        """The result for ``request`` and its :attr:`CallRecord.source`."""
        return self._generate(request), "live"

    def _generate(self, request: GenerationRequest) -> GenerationResult:
        raise NotImplementedError

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        raise LogprobsUnsupported(
            f"backend {self.descriptor.model_id!r} cannot score token log probabilities"
        )

    def _make_result(self, request: GenerationRequest, text: str) -> GenerationResult:
        """Build a result with token counts derived from the counting rule."""
        return GenerationResult(
            text=text,
            prompt_tokens=request.prompt_token_count(),
            completion_tokens=count_tokens(text),
        )
