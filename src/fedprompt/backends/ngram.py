"""Count-based n-gram scoring oracle.

This oracle exists to give the surprisal metrics an exactly computable
probability model: every log probability it returns can be re-derived by
hand from n-gram counts. It scores text; it does not generate.

Model: Laplace-smoothed conditional probabilities

    P(w | h) = (count(h, w) + alpha) / (count(h) + alpha * |V|)

where ``h`` is the preceding ``order - 1`` tokens, ``count(h, w)`` is the
number of times the n-gram ``h + (w,)`` occurs inside one training sequence,
and ``count(h)`` is the number of times ``h`` is followed by a token inside
one sequence: the sum of ``count(h, w)`` over all ``w``. An occurrence of
``h`` that ends a sequence is not counted in ``count(h)``. Near the start of a
sequence the history is shorter, so position ``i`` is scored with the
``min(i, order - 1)`` tokens available — the first token of any sequence is
scored from the unigram distribution. With ``alpha == 0`` (maximum
likelihood) an unseen history falls back to the uniform distribution
``1 / |V|``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import Iterable, Sequence

from fedprompt.backends.base import BackendDescriptor, TokenLogprobs
from fedprompt.errors import BackendError

UNK = "<unk>"


class NgramBackend:
    """Scoring oracle over hand-checkable n-gram counts.

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
        self.descriptor = BackendDescriptor(kind="ngram_oracle", model_id=f"ngram-{order}", supports_logprobs=True)
        self.order = order
        self.alpha = alpha

        sequences = [corpus] if isinstance(corpus, str) else list(corpus)
        tokenized = [seq.split() for seq in sequences]

        derived = vocab is None
        self.vocab = sorted(({tok for seq in tokenized for tok in seq} | {UNK}) if derived else set(vocab))
        self._vocab_set = set(self.vocab)
        self._map_oov = UNK in self._vocab_set
        if not derived:  # a derived vocabulary holds every corpus token
            tokenized = [[self._map_token(tok, training=True) for tok in seq] for seq in tokenized]

        # count(h, w) for every n-gram h + (w,) of length 1 .. order, then count(h).
        self._grams: Counter[tuple[str, ...]] = Counter()
        for n in range(1, order + 1):
            self._grams.update(chain.from_iterable(zip(*(seq[k:] for k in range(n))) for seq in tokenized))
        self._totals: Counter[tuple[str, ...]] = Counter()
        for gram, count in self._grams.items():
            self._totals[gram[:-1]] += count

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
        c_hw = self._grams.get(hist + (word,), 0)
        c_h = self._totals.get(hist, 0)
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
