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

Counts are keyed by integer ids, given to tokens in the order they first
occur in the corpus, from 1; ``vocab`` is sorted and says nothing of the ids.
The corpus is one flat id stream in which id 0 closes each sequence. Scored
tokens never map to 0, so an n-gram across a sequence boundary is never
looked up. Only one table is kept, ``grams[g]``: the number of times the
n-gram ``g`` occurs in the stream, with ``grams[()]`` the stream's length.
A history ``h`` holds no 0, so each of its occurrences is followed by either
a token or the 0 that ends its sequence, which gives

    count(h) = grams[h] - grams[h + (0,)]

exactly, the empty history included.

A build holds one string per distinct corpus token, the id stream and the
count table: each token split from the corpus is swapped at once for its id,
and the n-grams are counted over shifted views of the stream, not copies of
it. No n-gram longer than the longest sequence plus its closing 0 is counted,
since any longer one would hold a 0 before its last id. Building is linear in
corpus tokens times ``min(order, longest sequence + 1)``.

Scoring cuts histories at ``min(order - 1, longest sequence)`` ids. Where that
cuts one, both have ``count(h) == count(h, w) == 0`` (the cut one only ever
ends a sequence), so the probability is the same, exactly. Scoring is linear
in text tokens times ``min(order, longest sequence + 1)``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from itertools import count, islice
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
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        if alpha < 0:
            raise ValueError("alpha must be >= 0")
        self.order = order
        self.alpha = alpha

        ids: defaultdict[str, int] = defaultdict(count(1).__next__)  # ids in first-occurrence order
        stream: list[int] = []
        longest = 0
        for seq in [corpus] if isinstance(corpus, str) else corpus:
            start = len(stream)
            stream += map(ids.__getitem__, seq.split())
            longest = max(longest, len(stream) - start)
            stream.append(0)
        self._unk_id = ids[UNK]
        self._ids = dict(ids)
        self.vocab = sorted(self._ids)
        self._keep = min(order - 1, longest)  # no longer history occurs in the corpus

        # grams[g] for every n-gram g of length 0 .. keep + 1
        self._grams: Counter[tuple[int, ...]] = Counter({(w,): c for w, c in Counter(stream).items()})
        self._grams[()] = len(stream)
        for n in range(2, self._keep + 2):
            self._grams.update(zip(*(islice(stream, k, None) for k in range(n))))

    # -- probabilities ---------------------------------------------------------

    def _id(self, token: str) -> int:
        return self._ids.get(token, self._unk_id)

    def _probs(self, ids: list[int], start: int) -> list[float]:
        """``P(ids[i] | the _keep ids before it)`` for every ``i >= start``."""
        keep, alpha, v = self._keep, self.alpha, len(self.vocab)
        grams = self._grams
        probs = []
        for i in range(start, len(ids)):
            hist = tuple(ids[max(0, i - keep) : i])
            c_hw = grams.get(hist + (ids[i],), 0)
            c_h = grams.get(hist, 0) - grams.get(hist + (0,), 0)
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
        ids = [self._id(t) for t in history[max(0, len(history) - self._keep) :]] + [wid]
        return self._probs(ids, len(ids) - 1)[0]

    def token_logprobs(self, context: str, text: str) -> TokenLogprobs:
        text_tokens = text.split()
        ids = [self._id(t) for t in context.split() + text_tokens]
        probs = self._probs(ids, len(ids) - len(text_tokens))
        logprobs = [math.log(p) if p > 0 else float("-inf") for p in probs]
        return TokenLogprobs(tokens=text_tokens, logprobs=logprobs)
