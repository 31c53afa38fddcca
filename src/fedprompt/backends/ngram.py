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

Counts are keyed by integer ids: ``vocab[i - 1]`` has id ``i``. The corpus
is one flat id stream in which id 0 closes each sequence. Scored tokens never
map to 0, so an n-gram across a sequence boundary is never looked up, and
``count(h)`` sums only the n-grams whose last id is not 0.

A build holds one string per distinct corpus token, the id stream and the
count tables: each token split from the corpus is swapped at once for the
first string equal to it, the per-sequence token lists are dropped once the
stream is made, and the n-grams are counted over shifted views of the stream,
not copies of it. Building is linear in corpus tokens times ``order``.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import islice
from typing import Iterable, Sequence

from fedprompt.backends.base import TokenLogprobs

UNK = "<unk>"


class NgramBackend:
    """Scoring oracle over hand-checkable n-gram counts.

    ``corpus`` is one training sequence (a string) or several (an iterable of
    strings); histories never cross sequence boundaries. The vocabulary is
    the corpus's tokens plus :data:`UNK`, and tokens of scored text outside
    the corpus map to :data:`UNK`.
    """

    def __init__(self, corpus: str | Iterable[str], order: int = 2, alpha: float = 1.0):
        if order < 1:
            raise ValueError("order must be >= 1")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.order = order
        self.alpha = alpha

        distinct: dict[str, str] = {}  # each distinct token to its first string, in first-occurrence order
        tokenized = [
            list(map(distinct.setdefault, toks, toks))
            for toks in map(str.split, [corpus] if isinstance(corpus, str) else corpus)
        ]

        self.vocab = sorted(set(distinct) | {UNK})
        self._ids = {tok: i for i, tok in enumerate(self.vocab, 1)}
        self._unk_id = self._ids[UNK]
        stream: list[int] = []
        for seq in tokenized:
            stream += map(self._ids.__getitem__, seq)
            stream.append(0)
        del tokenized

        # count(h, w) for every n-gram h + (w,) of length 1 .. order, then count(h).
        self._grams: Counter[tuple[int, ...]] = Counter({(w,): c for w, c in Counter(stream).items()})
        for n in range(2, order + 1):
            self._grams.update(zip(*(islice(stream, k, None) for k in range(n))))
        self._totals: Counter[tuple[int, ...]] = Counter()
        for gram, count in self._grams.items():
            if gram[-1]:
                self._totals[gram[:-1]] += count

    # -- probabilities ---------------------------------------------------------

    def _id(self, token: str) -> int:
        return self._ids.get(token, self._unk_id)

    def _probs(self, ids: list[int], start: int) -> list[float]:
        """``P(ids[i] | the order - 1 ids before it)`` for every ``i >= start``."""
        keep, alpha, v = self.order - 1, self.alpha, len(self.vocab)
        grams, totals = self._grams, self._totals
        probs = []
        for i in range(start, len(ids)):
            hist = tuple(ids[max(0, i - keep) : i])
            c_hw = grams.get(hist + (ids[i],), 0)
            c_h = totals.get(hist, 0)
            if alpha > 0:
                probs.append((c_hw + alpha) / (c_h + alpha * v))
            else:
                probs.append(c_hw / c_h if c_h else 1.0 / v)
        return probs

    def prob(self, word: str, history: Sequence[str] = ()) -> float:
        """Conditional probability of ``word`` after ``history``.

        ``history`` may be any length; only its last ``order - 1`` tokens
        condition the estimate, matching how sequences are scored.
        """
        wid = self._id(word)
        ids = [self._id(t) for t in history[max(0, len(history) - (self.order - 1)) :]] + [wid]
        return self._probs(ids, len(ids) - 1)[0]

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        text_tokens = text.split()
        ids = [self._id(t) for t in context.split() + text_tokens]
        probs = self._probs(ids, len(ids) - len(text_tokens))
        logprobs = [math.log(p) if p > 0 else float("-inf") for p in probs]
        return TokenLogprobs(tokens=text_tokens, logprobs=logprobs)
