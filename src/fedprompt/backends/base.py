"""Core backend contract: requests, results, accounting, and the ABC.

Every model interaction in the package goes through :meth:`Backend.generate`
with a tagged :class:`GenerationRequest`. The tag says *why* the call is being
made, which is what the bookkeeping (per-tag call counts, cost attribution)
and the scripted test backends key on.
"""

from __future__ import annotations

import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

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


@dataclass(slots=True)
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


_pending = threading.local()


def ordered_write(write: Callable[..., None], *args: Any) -> None:
    """Do ``write(*args)`` now or, inside a thunk that :class:`FanOut` runs
    ahead of program order, when that thunk is committed."""
    ops = getattr(_pending, "ops", None)
    if ops is None:
        write(*args)
    else:
        ops.append((write, args))


class CallLog:
    """Append-only, thread-safe record of every call a backend served.

    Appends go through :func:`ordered_write`, so the log follows program
    order even while a fan-out overlaps calls; reads hand back snapshots.
    Per-tag counts and the exact running cost are kept as records arrive, so
    reading them does not scan the log. A call counts as *issued* unless the
    memo served it.
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
    ) -> None:
        ordered_write(self._append, request, result, cost_usd, source)

    def _append(
        self, request: GenerationRequest, result: GenerationResult, cost_usd: float, source: str
    ) -> None:
        with self._lock:
            self._records.append(
                CallRecord(len(self._records), request.tag, request, result, cost_usd, source)
            )
            self._counts[request.tag] += 1
            if source != "memo":
                self._issued[request.tag] += 1
            if cost_usd:
                _add_exact(self._cost_partials, cost_usd)

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
        # correctly rounded, so the total does not depend on summation order
        with self._lock:
            return math.fsum(self._cost_partials)

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)


#: Most worker threads one backend's fan-outs use. The thread that opens a
#: fan-out runs every thunk no worker has claimed, so nested fan-outs cannot
#: wait on a thunk that nobody runs.
MAX_WORKERS = 8

#: Issued calls (memo answers aside) on which :class:`FanOut` decides, per
#: run, whether the backend's calls wait.
DECIDING_CALLS = 8


class _Thunks:
    """One open fan-out: its thunks, how many are claimed, what each left.

    Thunks are claimed in index order. An outcome is ``(value, error, ops)``,
    where ``ops`` holds the thunk's deferred writes, or ``None`` when the
    thunk wrote straight through.
    """

    def __init__(self, thunks: Sequence[Callable[[], Any]]):
        self.thunks = thunks
        self.claimed = 0
        self.failed = False
        self.outcomes: list[tuple[Any, BaseException | None, list | None] | None] = [None] * len(thunks)
        self.changed = threading.Condition(threading.Lock())

    def claim(self) -> int | None:
        with self.changed:
            if self.failed or self.claimed == len(self.thunks):
                return None
            self.claimed += 1
            return self.claimed - 1

    def execute(self, i: int, deferred: bool) -> None:
        ops = [] if deferred else None
        outer = getattr(_pending, "ops", None)
        if deferred:
            _pending.ops = ops
        try:
            outcome = (self.thunks[i](), None, ops)
        except BaseException as exc:  # re-raised by the thread that joins
            outcome = (None, exc, ops)
        finally:
            _pending.ops = outer
        with self.changed:
            self.outcomes[i] = outcome
            self.failed = self.failed or outcome[1] is not None
            self.changed.notify_all()

    def work(self) -> None:
        """A worker's share: run unclaimed thunks until none is left. Never
        raises, since :meth:`execute` hands every error to the join."""
        while (i := self.claim()) is not None:
            self.execute(i, deferred=True)


class FanOut:
    """Ordered fan-out of independent thunks that call one backend.

    :meth:`gather` returns the thunks' values in order. While the backend's
    calls have not been found to wait, every thunk runs inline, one after
    another. Calls wait when more than half of the first
    :data:`DECIDING_CALLS` issued calls spent more than half their wall time
    off-CPU (wall clock minus thread CPU time). Counting calls rather than
    seconds keeps one preempted call from making a busy backend look like a
    waiting one. The decision is latched for the run: the unstarted thunks
    of every open fan-out, and every later fan-out, go to up to
    :data:`MAX_WORKERS` worker threads.

    A thunk that runs while an earlier one is unfinished defers its call-log
    records and cassette lines (:func:`ordered_write`); the join commits
    them in thunk order, so both follow program order in every mode. When a
    thunk raises, no further thunk starts, the started ones finish and are
    committed, and the first error in thunk order propagates.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._open: set[_Thunks] = set()
        self._pool: ThreadPoolExecutor | None = None
        self.close()

    def observe(self, wall_s: float, cpu_s: float) -> None:
        """Account one issued call while :attr:`deciding`."""
        self._issued += 1
        self._waited += 2 * cpu_s < wall_s
        if 2 * self._waited <= DECIDING_CALLS:
            self.deciding = self._issued < DECIDING_CALLS
            return
        with self._lock:
            if self.waiting:
                return
            self.deciding, self.waiting = False, True
            opened, self._open = self._open, set()
        for batch in opened:
            self._dispatch(batch)

    def _dispatch(self, batch: _Thunks) -> None:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(MAX_WORKERS, thread_name_prefix="fedprompt-fan-out")
            pool = self._pool
        for _ in range(min(len(batch.thunks) - batch.claimed, MAX_WORKERS)):
            pool.submit(batch.work)

    def gather(self, thunks: Sequence[Callable[[], Any]]) -> list[Any]:
        if len(thunks) < 2 or not (self.deciding or self.waiting):  # decided: sequential
            return [thunk() for thunk in thunks]
        batch = _Thunks(thunks)
        with self._lock:
            waiting = self.waiting
            if not waiting:
                self._open.add(batch)
        try:
            if waiting:
                batch.claim()  # the first thunk is the caller's own
                self._dispatch(batch)
                batch.execute(0, deferred=False)
            return self._join(batch)
        finally:
            if not waiting:
                with self._lock:
                    self._open.discard(batch)

    def _join(self, batch: _Thunks) -> list[Any]:
        """Run or await each thunk in order and commit what it left."""
        for i in range(len(batch.thunks)):
            while batch.outcomes[i] is None:
                k = batch.claim()
                if k is not None:
                    # every thunk before i is committed, so i may write through
                    batch.execute(k, deferred=k != i)
                elif i >= batch.claimed:  # never started: a thunk failed
                    break
                else:
                    with batch.changed:
                        batch.changed.wait_for(lambda: batch.outcomes[i] is not None)
            outcome = batch.outcomes[i]
            if outcome is None:
                break
            for write, args in outcome[2] or ():
                ordered_write(write, *args)
        for outcome in batch.outcomes:
            if outcome is not None and outcome[1] is not None:
                raise outcome[1]
        return [outcome[0] for outcome in batch.outcomes]

    def close(self) -> None:
        """Stop the worker threads; the next run decides afresh."""
        with self._lock:
            pool, self._pool = self._pool, None
            self.deciding, self.waiting = True, False
            self._issued = self._waited = 0
        if pool is not None:
            pool.shutdown(wait=True)


class Backend:
    """Abstract language-model backend.

    Subclasses implement :meth:`_generate`; this class owns the shared
    pre-condition (the request must fit the context window) and the shared
    bookkeeping (cost, call log, the fan-out's view of whether calls wait).
    ``token_logprobs`` is optional and raises
    :class:`~fedprompt.errors.LogprobsUnsupported` unless a subclass can
    score text.
    """

    def __init__(self, descriptor: BackendDescriptor):
        self.descriptor = descriptor
        self.call_log = CallLog()
        self.fan_out = FanOut()

    def generate(self, request: GenerationRequest) -> GenerationResult:
        budget = self.descriptor.context_window
        # n characters hold at most (n+1)//2 tokens; count only when that bound does not fit
        if (len(request.system_text) + 1) // 2 + (len(request.user_text) + 1) // 2 > budget:
            needed = request.prompt_token_count()
            if needed > budget:
                raise ContextWindowExceeded(
                    f"request needs {needed} tokens but the context window is {budget}",
                    needed=needed,
                    budget=budget,
                )
        if not self.fan_out.deciding:
            result, source = self._serve(request)
        else:
            wall, cpu = time.perf_counter(), time.thread_time()
            result, source = self._serve(request)
            if source != "memo":  # a memo answer tells nothing about the endpoint
                self.fan_out.observe(time.perf_counter() - wall, time.thread_time() - cpu)
        cost = 0.0 if source == "memo" else self.descriptor.cost_usd(
            result.prompt_tokens, result.completion_tokens
        )
        self.call_log.append(request, result, cost, source)
        return result

    def close(self) -> None:
        """Release what the backend holds for a run (the fan-out's workers);
        the backend still serves later calls."""
        self.fan_out.close()

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
