"""Span tracing around the public functions of each fedprompt layer.

``Tracer.install()`` wraps the functions and methods named in ``TARGETS``
from outside the package: each wrapper records one span (id, parent id, name,
start, end, attributes) in memory. Parents come from a per-thread stack, so a
span's parent is the innermost traced call that was open on the same thread
when it started. Self time is a span's duration minus the part of it that its
direct children cover; the busy time of a layer counts only its outermost
spans, so nested calls of the same layer are not counted twice.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from fedprompt import aggregation, cli, engine, runtime, tasks, uid
from fedprompt.backends.base import Backend, CallLog, count_tokens
from fedprompt.backends.ngram import NgramBackend
from fedprompt.backends.remote import Cassette

#: Short and long scored texts for the n-gram cost per token, in tokens.
SHORT_TEXT_MAX = 500
LONG_TEXT_MIN = 2000

CALLLOG_SPANS = (
    "backends.calllog.total_cost_usd",
    "backends.calllog.counts_by_tag",
    "backends.calllog.records",
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tag_and_log_size(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    backend, request = args[0], args[1] if len(args) > 1 else kwargs["request"]
    return {"tag": request.tag, "log_size": len(backend.call_log)}


def _decisions(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"decisions": len(result.decisions), "accepted": sum(d.accepted for d in result.decisions)}


def _merged_tokens(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"tokens": count_tokens(result.text)}


def _cassette_mode(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"mode": kwargs.get("mode", args[2] if len(args) > 2 else "replay")}


def _scored_tokens(args: tuple, kwargs: dict, result: Any) -> dict[str, Any]:
    return {"tokens": len(result.tokens)}


#: (owner, attribute, span name, attribute extractor). Module-level functions
#: are rebound in every fedprompt module that imported them by name.
TARGETS: tuple[tuple[Any, str, str, Callable | None], ...] = (
    (cli, "cmd_run", "cli.cmd_run", None),
    (cli, "cmd_surprisal", "cli.cmd_surprisal", None),
    (runtime, "run", "runtime.run", None),
    (runtime, "server_round", "runtime.server_round", None),
    (runtime, "client_update", "runtime.client_update", _decisions),
    (engine, "forward_response", "engine.forward_response", None),
    (engine, "evaluate", "engine.evaluate", None),
    (engine, "backward", "engine.backward", None),
    (engine, "tgd_step", "engine.tgd_step", None),
    (tasks, "score", "tasks.score", None),
    (aggregation, "aggregate", "aggregation.aggregate", _merged_tokens),
    (uid, "uid_stats", "uid.uid_stats", None),
    (uid, "compare_uniformity", "uid.compare_uniformity", None),
    (Backend, "generate", "backends.generate", _tag_and_log_size),
    (CallLog, "total_cost_usd", "backends.calllog.total_cost_usd", None),
    (CallLog, "counts_by_tag", "backends.calllog.counts_by_tag", None),
    (CallLog, "records", "backends.calllog.records", None),
    (Cassette, "__init__", "backends.cassette.init", _cassette_mode),
    (Cassette, "record", "backends.cassette.record", None),
    (Cassette, "replay", "backends.cassette.replay", None),
    (NgramBackend, "token_logprobs", "backends.ngram.token_logprobs", _scored_tokens),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float) -> None:
        """Record a leaf span measured by the caller."""
        stack = self._stack()
        self.spans.append(Span(next(self._ids), stack[-1] if stack else 0, name, start, end))

    def wrap(self, name: str, fn: Callable, attrs: Callable | None) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            span = Span(next(tracer._ids), stack[-1] if stack else 0, name, 0.0, 0.0)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        for owner, attr, name, attrs in TARGETS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, attrs)
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("fedprompt") and vars(module).get(attr) is original:
                    self._rebind(module, attr, wrapper)

    def _rebind(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans = []

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                row = {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end}
                if s.attrs:
                    row["attrs"] = s.attrs
                fh.write(json.dumps(row) + "\n")


# -- span arithmetic ------------------------------------------------------------------


def _covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanIndex:
    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            self.children.setdefault(s.parent, []).append(s)

    def named(self, *names: str) -> list[Span]:
        wanted = set(names)
        return [s for s in self.spans if s.name in wanted]

    def outermost(self, *names: str) -> list[Span]:
        """Spans of ``names`` with no ancestor of ``names``."""
        wanted = set(names)
        out = []
        for s in self.spans:
            if s.name not in wanted:
                continue
            parent = self.by_id.get(s.parent)
            while parent is not None and parent.name not in wanted:
                parent = self.by_id.get(parent.parent)
            if parent is None:
                out.append(s)
        return out

    def busy(self, *names: str) -> float:
        return sum(s.duration for s in self.outermost(*names))

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.id, ())
        return span.duration - _covered((k.start, k.end) for k in kids)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer numbers of one traced job."""
    ix = SpanIndex(spans)
    m: dict[str, float] = {}

    generate = ix.outermost("backends.generate")
    for tag in ("forward", "evaluation", "gradient_response", "gradient_prompt", "tgd_step", "aggregation_summarize"):
        m[f"backends.generate.calls.{tag}"] = sum(1 for s in generate if s.attrs and s.attrs["tag"] == tag)
    m["backends.generate.self_us_per_call"] = _ratio(sum(ix.self_time(s) for s in generate), len(generate)) * 1e6
    m["backends.transport.busy_s"] = ix.busy("backends.transport")
    m["backends.transport.busy_share"] = _ratio(m["backends.transport.busy_s"], wall_s)

    m["backends.calllog.busy_s"] = ix.busy(*CALLLOG_SPANS)
    m["backends.calllog.busy_share"] = _ratio(m["backends.calllog.busy_s"], wall_s)
    m["backends.calllog.records_max"] = max((s.attrs["log_size"] for s in generate if s.attrs), default=0)

    m["backends.cassette.record.busy_s"] = ix.busy("backends.cassette.record")
    m["backends.cassette.replay.busy_s"] = ix.busy("backends.cassette.replay")
    m["backends.cassette.load_s"] = sum(
        s.duration for s in ix.named("backends.cassette.init") if s.attrs and s.attrs["mode"] == "replay"
    )

    scored = ix.named("backends.ngram.token_logprobs")
    m["backends.ngram.token_logprobs.busy_s"] = ix.busy("backends.ngram.token_logprobs")
    for label, keep in (
        ("short", lambda n: n <= SHORT_TEXT_MAX),
        ("long", lambda n: n >= LONG_TEXT_MIN),
    ):
        chosen = [s for s in scored if s.attrs and keep(s.attrs["tokens"])]
        m[f"backends.ngram.us_per_token.{label}"] = _ratio(
            sum(s.duration for s in chosen), sum(s.attrs["tokens"] for s in chosen)
        ) * 1e6
    m["uid.uid_stats.busy_s"] = ix.busy("uid.uid_stats")
    m["uid.compare_uniformity.busy_s"] = ix.busy("uid.compare_uniformity")

    rounds = ix.named("runtime.server_round")
    durations = sorted(s.duration for s in rounds)
    m["runtime.server_round.s.p50"] = statistics.median(durations) if durations else 0.0
    m["runtime.server_round.s.max"] = durations[-1] if durations else 0.0
    updates = ix.named("runtime.client_update")
    m["runtime.client_update.busy_s"] = ix.busy("runtime.client_update")
    spans_of_clients = 0.0
    for r in rounds:
        kids = [k for k in ix.children.get(r.id, ()) if k.name == "runtime.client_update"]
        if kids:
            spans_of_clients += max(k.end for k in kids) - min(k.start for k in kids)
    m["runtime.client_parallelism"] = _ratio(m["runtime.client_update.busy_s"], spans_of_clients)
    m["runtime.accept_ratio"] = _ratio(
        sum(s.attrs["accepted"] for s in updates if s.attrs),
        sum(s.attrs["decisions"] for s in updates if s.attrs),
    )

    for fn in ("forward_response", "evaluate", "backward", "tgd_step"):
        name = f"engine.{fn}"
        m[f"{name}.busy_s"] = ix.busy(name)
        m[f"{name}.calls"] = len(ix.named(name))
    m["tasks.score.busy_s"] = ix.busy("tasks.score")
    m["tasks.score.calls"] = len(ix.named("tasks.score"))

    merges = ix.named("aggregation.aggregate")
    m["aggregation.aggregate.busy_s"] = ix.busy("aggregation.aggregate")
    m["aggregation.merged_tokens"] = _ratio(sum(s.attrs["tokens"] for s in merges if s.attrs), len(merges))

    m["cli.self_s"] = sum(ix.self_time(s) for s in ix.outermost("cli.cmd_run", "cli.cmd_surprisal"))
    return m
