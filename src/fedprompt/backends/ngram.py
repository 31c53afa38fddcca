"""Count-based n-gram scoring oracle.

This backend exists to give the surprisal metrics an exactly computable
probability model: every log probability it returns can be re-derived by
hand from n-gram counts. It scores text; it does not generate.

Model: Laplace-smoothed conditional probabilities

    P(w | h) = (count(h, w) + alpha) / (count(h) + alpha * |V|)

where ``h`` is the preceding ``order - 1`` tokens. Near the start of a
sequence the history is shorter, so position ``i`` is scored with the
``min(i, order - 1)`` tokens available — the first token of any sequence is
scored from the unigram distribution. With ``alpha == 0`` (maximum
likelihood) an unseen history falls back to the uniform distribution
``1 / |V|``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence

from fedprompt.backends.base import (
    Backend,
    BackendDescriptor,
    GenerationRequest,
    GenerationResult,
    TokenLogprobs,
)
from fedprompt.errors import BackendError

UNK = "<unk>"


class NgramBackend(Backend):
    """Scoring-only backend over hand-checkable n-gram counts.

    ``corpus`` is one training sequence (a string) or several (an iterable of
    strings); histories never cross sequence boundaries. With ``vocab=None``
    the vocabulary is the corpus vocabulary plus :data:`UNK`, and unknown
    tokens in scored text map to :data:`UNK`. An explicit ``vocab`` is taken
    literally: tokens outside it (in the corpus or in scored text) are an
    error unless it contains :data:`UNK`.
    """

    def __init__(
        self,
        corpus: str | Iterable[str],
        order: int = 2,
        alpha: float = 1.0,
        vocab: Iterable[str] | None = None,
    ):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        super().__init__(
            BackendDescriptor(
                kind="ngram_oracle",
                model_id=f"ngram-{order}",
                supports_logprobs=True,
            )
        )
        self.order = order
        self.alpha = alpha

        sequences = [corpus] if isinstance(corpus, str) else list(corpus)
        tokenized = [seq.split() for seq in sequences]

        if vocab is None:
            self.vocab = sorted({tok for seq in tokenized for tok in seq} | {UNK})
            self._map_oov = True
        else:
            self.vocab = sorted(set(vocab))
            self._map_oov = UNK in self.vocab
        self._vocab_set = set(self.vocab)

        # Co-occurrence counts for every history length 0 .. order-1, over
        # every position in every sequence.
        self._next: dict[tuple[str, ...], Counter[str]] = {}
        self._totals: Counter[tuple[str, ...]] = Counter()
        for seq in tokenized:
            mapped = [self._map_token(tok, training=True) for tok in seq]
            for i, tok in enumerate(mapped):
                for hist_len in range(min(i, order - 1) + 1):
                    hist = tuple(mapped[i - hist_len : i])
                    self._next.setdefault(hist, Counter())[tok] += 1
                    self._totals[hist] += 1

    # -- probabilities ---------------------------------------------------------

    def _map_token(self, token: str, training: bool = False) -> str:
        if token in self._vocab_set:
            return token
        if self._map_oov:
            return UNK
        where = "training corpus" if training else "scored text"
        raise BackendError(f"token {token!r} in {where} is outside the explicit vocabulary")

    def prob(self, word: str, history: Sequence[str] = ()) -> float:
        """Conditional probability of ``word`` after ``history``.

        ``history`` may be any length; only its last ``order - 1`` tokens
        condition the estimate, matching how sequences are scored.
        """
        word = self._map_token(word)
        window = history[max(0, len(history) - (self.order - 1)) :]
        hist = tuple(self._map_token(t) for t in window)
        c_hw = self._next.get(hist, Counter())[word]
        c_h = self._totals[hist]
        v = len(self.vocab)
        if self.alpha > 0:
            return (c_hw + self.alpha) / (c_h + self.alpha * v)
        if c_h == 0:
            return 1.0 / v
        return c_hw / c_h

    def logprob(self, word: str, history: Sequence[str] = ()) -> float:
        """Natural-log probability; ``-inf`` when MLE assigns zero."""
        p = self.prob(word, history)
        return math.log(p) if p > 0 else float("-inf")

    # -- backend interface -----------------------------------------------------

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        keep = self.order - 1
        window = [self._map_token(t) for t in context.split()]
        text_tokens = text.split()
        logprobs = []
        for tok in text_tokens:
            # only the last order-1 tokens condition the estimate
            window = window[max(0, len(window) - keep) :]
            logprobs.append(self.logprob(tok, window))
            window.append(tok)
        return TokenLogprobs(tokens=text_tokens, logprobs=logprobs)

    def _generate(self, request: GenerationRequest) -> GenerationResult:
        raise BackendError("the n-gram oracle scores text; it does not generate")
