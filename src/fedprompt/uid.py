"""Surprisal-based information-density metrics.

A token's surprisal is -log2 of its conditional probability under a
reference language model. Uniformity is summarized by the mean, the
population variance (divide by N, no Bessel correction), and the maximum of
the per-token surprisal series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol

from fedprompt.backends.base import TokenLogprobs
from fedprompt.errors import EmptyText

_LN2 = math.log(2.0)


class Scorer(Protocol):
    """A reference model the metrics can score text under, such as the n-gram oracle."""

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs: ...


@dataclass
class SurprisalStats:
    surprisals: list[float]
    mean: float
    variance: float
    max: float
    token_count: int

    @classmethod
    def from_series(cls, series: list[float]) -> "SurprisalStats":
        if not series:
            raise EmptyText("cannot summarize an empty surprisal series")
        if any(s < 0 for s in series):
            raise ValueError("surprisals cannot be negative")
        if not all(map(math.isfinite, series)):
            raise ValueError("surprisals must be finite")
        n = len(series)
        mu = sum(series) / n
        var = sum((s - mu) ** 2 for s in series) / n
        return cls(
            surprisals=list(series),
            mean=mu,
            variance=var,
            max=max(series),
            token_count=n,
        )

    def as_dict(self) -> dict:
        return {
            "mu": self.mean,
            "sigma2": self.variance,
            "max": self.max,
            "n": self.token_count,
        }


def scored_series(text: str, context: str, backend: Scorer) -> tuple[TokenLogprobs, list[float]]:
    """Score ``text`` once: the backend's token log probabilities and the
    per-token surprisal of ``text`` given ``context``, in bits.

    The backend reports natural-log probabilities; conversion to base 2
    happens here. Adding 0.0 normalizes the -0.0 a certain token would
    otherwise produce.
    """
    if not text.split():
        raise EmptyText("cannot measure surprisal of empty text")
    scored = backend.token_logprobs(context, text)
    return scored, [-(lp / _LN2) + 0.0 for lp in scored.logprobs]


def surprisal_series(text: str, context: str, backend: Scorer) -> list[float]:
    """Per-token surprisal of ``text`` given ``context``, in bits."""
    return scored_series(text, context, backend)[1]


def uid_stats(text: str, context: str, backend: Scorer) -> SurprisalStats:
    series = surprisal_series(text, context, backend)
    return SurprisalStats.from_series(series)


@dataclass
class UniformityReport:
    """Side-by-side surprisal stats with the lower-variance verdict."""

    stats_a: SurprisalStats
    stats_b: SurprisalStats
    more_uniform: str  # "a" | "b" | "tie"


def compare_uniformity(a: str, b: str, context: str, backend: Scorer) -> UniformityReport:
    """Which of two texts is more uniform (lower surprisal variance)?"""
    stats_a = uid_stats(a, context, backend)
    stats_b = uid_stats(b, context, backend)
    if stats_a.variance < stats_b.variance:
        verdict = "a"
    elif stats_b.variance < stats_a.variance:
        verdict = "b"
    else:
        verdict = "tie"
    return UniformityReport(stats_a=stats_a, stats_b=stats_b, more_uniform=verdict)
