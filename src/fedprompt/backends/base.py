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


@dataclass
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


@dataclass
class CallRecord:
    """One completed call, as kept in the log."""

    index: int
    tag: str
    request: GenerationRequest
    result: GenerationResult
    cost_usd: float


class CallLog:
    """Append-only, thread-safe record of every call a backend served.

    Client updates may run concurrently, so appends take a lock; reads hand
    back snapshots.
    """

    def __init__(self) -> None:
        self._records: list[CallRecord] = []
        self._lock = threading.Lock()

    def append(self, request: GenerationRequest, result: GenerationResult, cost_usd: float) -> CallRecord:
        with self._lock:
            record = CallRecord(len(self._records), request.tag, request, result, cost_usd)
            self._records.append(record)
            return record

    def records(self) -> list[CallRecord]:
        with self._lock:
            return list(self._records)

    def tags(self) -> list[str]:
        return [r.tag for r in self.records()]

    def counts_by_tag(self) -> dict[str, int]:
        counts = {tag: 0 for tag in GENERATION_TAGS}
        for record in self.records():
            counts[record.tag] += 1
        return counts

    def total_cost_usd(self) -> float:
        # fsum is correctly rounded, so the total does not depend on the
        # order in which concurrent clients appended their calls
        return math.fsum(r.cost_usd for r in self.records())

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
        result = self._generate(request)
        cost = self.descriptor.cost_usd(result.prompt_tokens, result.completion_tokens)
        self.call_log.append(request, result, cost)
        return result

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
