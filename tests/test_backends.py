from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fedprompt.backends.base import (
    GENERATION_TAGS,
    Backend,
    BackendDescriptor,
    CallLog,
    GenerationRequest,
    GenerationResult,
    TokenLogprobs,
    count_tokens,
)
from fedprompt.backends.mock import MockBackend, load_script
from fedprompt.backends.ngram import UNK, NgramBackend
from fedprompt.backends.remote import MAX_OUTPUT_TOKENS, Cassette, RemoteBackend, request_hash
from fedprompt.errors import (
    BackendError,
    ConfigError,
    ContextWindowExceeded,
    FedPromptError,
    NoScriptMatch,
    TransportFailure,
)


class TestCountTokens:
    def test_four_tokens(self):
        assert count_tokens("count these four tokens") == 4

    def test_empty_and_whitespace(self):
        assert count_tokens("") == 0
        assert count_tokens("   \n\t ") == 0

    def test_concatenation_with_separator(self):
        a = "x " * 40
        b = "y " * 60
        joined = a.strip() + " ### " + b.strip()
        assert count_tokens(joined) == 40 + 60 + 1


class TestDescriptor:
    def test_defaults(self):
        d = BackendDescriptor(kind="mock", model_id="m")
        assert d.context_window == 8192

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            BackendDescriptor(kind="carrier-pigeon", model_id="m")

    def test_rejects_negative_price(self):
        with pytest.raises(ValueError):
            BackendDescriptor(kind="mock", model_id="m", usd_per_1k_prompt_tokens=-1.0)

    def test_cost(self):
        d = BackendDescriptor(
            kind="mock",
            model_id="m",
            usd_per_1k_prompt_tokens=3.0,
            usd_per_1k_completion_tokens=6.0,
        )
        assert d.cost_usd(1000, 500) == pytest.approx(3.0 + 3.0)


class TestRequestDefaults:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            GenerationRequest(tag="telepathy", system_text="", user_text="x")

    def test_temperature_defaults_per_tag(self):
        greedy = GenerationRequest(tag="evaluation", system_text="", user_text="x")
        sampled = GenerationRequest(tag="forward", system_text="", user_text="x")
        assert greedy.temperature == 0.0
        assert sampled.temperature == 0.7

    def test_explicit_temperature_wins(self):
        req = GenerationRequest(tag="forward", system_text="", user_text="x", temperature=0.0)
        assert req.temperature == 0.0


class TestGeneratePrecondition:
    def test_request_over_window_raises(self):
        backend = MockBackend(
            BackendDescriptor(kind="mock", model_id="m", context_window=8)
        )
        with pytest.raises(ContextWindowExceeded) as err:
            backend.generate(
                GenerationRequest(tag="forward", system_text="a b c d e", user_text="f g h i")
            )
        assert err.value.needed == 9
        assert err.value.budget == 8
        assert len(backend.call_log) == 0  # failed calls are not logged

    def test_combined_count_uses_both_channels(self):
        backend = MockBackend(
            BackendDescriptor(kind="mock", model_id="m", context_window=8)
        )
        backend.add("forward", "f g h i", "ok")
        backend.generate(
            GenerationRequest(tag="forward", system_text="a b c d", user_text="f g h i")
        )
        assert len(backend.call_log) == 1


class TestCallLog:
    def test_records_and_cost(self):
        descriptor = BackendDescriptor(
            kind="mock",
            model_id="m",
            usd_per_1k_prompt_tokens=1.0,
            usd_per_1k_completion_tokens=2.0,
        )
        backend = MockBackend(descriptor)
        backend.add("forward", "two tokens", "one two three")
        backend.generate(GenerationRequest(tag="forward", system_text="sys", user_text="two tokens"))
        record = backend.call_log.records()[0]
        assert record.request.tag == "forward"
        assert record.result.prompt_tokens == 3
        assert record.result.completion_tokens == 3
        assert backend.call_log.total_cost_usd() == pytest.approx(3 / 1000 + 2 * 3 / 1000)

    def test_thread_safety_of_appends(self):
        backend = MockBackend()
        backend.add_rule(lambda req: "ok")

        def hammer():
            for _ in range(200):
                backend.generate(
                    GenerationRequest(tag="forward", system_text="", user_text="x")
                )

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(backend.call_log) == 1600

    def test_running_counts_match_the_records(self):
        log = CallLog()
        result = GenerationResult("ok", 1, 1)
        for tag, source in (("forward", "live"), ("evaluation", "memo"), ("evaluation", "cassette")):
            log.append(GenerationRequest(tag=tag, system_text="", user_text="x"), result, 0.5, source)
        assert log.counts_by_tag() == {**dict.fromkeys(GENERATION_TAGS, 0), "forward": 1, "evaluation": 2}
        assert log.issued_counts_by_tag() == {**dict.fromkeys(GENERATION_TAGS, 0), "forward": 1, "evaluation": 1}
        assert [r.source for r in log.records()] == ["live", "memo", "cassette"]
        assert log.total_cost_usd() == 1.5

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
            max_size=60,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_running_total_equals_fsum_in_any_append_order(self, costs, seed):
        random.Random(seed).shuffle(costs)
        log = CallLog()
        result = GenerationResult("ok", 1, 1)
        request = GenerationRequest(tag="forward", system_text="", user_text="x")
        for cost in costs:
            log.append(request, result, cost)
        assert log.total_cost_usd() == math.fsum(costs)
        assert log.total_cost_usd() == math.fsum(r.cost_usd for r in log.records())

    def test_drain_hands_over_the_records_and_keeps_the_counts_and_costs(self):
        log = CallLog()
        result = GenerationResult("ok", 1, 1)
        appended = [("forward", "live", 0.25), ("evaluation", "memo", 0.0), ("tgd_step", "cassette", 0.5)]
        for tag, source, cost in appended:
            log.append(GenerationRequest(tag=tag, system_text="", user_text=tag), result, cost, source)
        counts, issued, cost = log.counts_by_tag(), log.issued_counts_by_tag(), log.total_cost_usd()

        drained = log.drain()
        assert [(r.request.tag, r.source, r.cost_usd) for r in drained] == appended
        assert log.drain() == []
        assert len(log) == 0
        assert log.records() == [] and log.tags() == []
        assert (log.counts_by_tag(), log.issued_counts_by_tag(), log.total_cost_usd()) == (counts, issued, cost)

        log.append(GenerationRequest(tag="forward", system_text="", user_text="later"), result, 0.25)
        assert len(log) == 1
        assert [r.request.user_text for r in log.drain()] == ["later"]
        assert log.counts_by_tag()["forward"] == 2
        assert log.total_cost_usd() == 1.0


class TestMockBackend:
    def test_exact_match_normalizes_whitespace(self):
        backend = MockBackend()
        backend.add("forward", "what   is\nthis", "a thing")
        result = backend.generate(
            GenerationRequest(tag="forward", system_text="", user_text="what is this")
        )
        assert result.text == "a thing"

    def test_longest_prefix_wins(self):
        backend = MockBackend()
        backend.add("forward", "count", "short", match="prefix")
        backend.add("forward", "count these", "long", match="prefix")
        result = backend.generate(
            GenerationRequest(tag="forward", system_text="", user_text="count these tokens")
        )
        assert result.text == "long"

    def test_rule_layer_sees_full_request(self):
        backend = MockBackend()
        backend.add_rule(
            lambda req: req.system_text.upper() if req.tag == "forward" else None
        )
        result = backend.generate(
            GenerationRequest(tag="forward", system_text="shout", user_text="unscripted")
        )
        assert result.text == "SHOUT"

    def test_miss_raises_no_script_match(self):
        backend = MockBackend()
        backend.add("evaluation", "only this", "resp")
        with pytest.raises(NoScriptMatch):
            backend.generate(
                GenerationRequest(tag="forward", system_text="", user_text="only this")
            )

    def test_add_rejects_an_unknown_tag(self):
        # a misspelt tag would otherwise load and never match
        with pytest.raises(ValueError, match="unknown generation tag: 'forwrd'"):
            MockBackend().add("forwrd", "q", "r")

    def test_load_script(self, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(
                [
                    {"tag": "forward", "user_text": "q one", "response": "r one"},
                    {"tag": "forward", "user_text": "q", "response": "fallback", "match": "prefix"},
                ]
            )
        )
        backend = load_script(script)
        assert (
            backend.generate(
                GenerationRequest(tag="forward", system_text="", user_text="q one")
            ).text
            == "r one"
        )
        assert (
            backend.generate(
                GenerationRequest(tag="forward", system_text="", user_text="q two")
            ).text
            == "fallback"
        )


class _ReferenceNgram:
    """Brute-force reference for :class:`NgramBackend`: counts every history
    length 0 .. order-1 at every position of every sequence, one token at a time."""

    def __init__(self, corpus: list[str], order: int, alpha: float, vocab: list[str]):
        self.order, self.alpha, self.vocab = order, alpha, vocab
        self.successors: dict[tuple[str, ...], Counter[str]] = {}
        for seq in corpus:
            toks = [self.map(tok) for tok in seq.split()]
            for i, tok in enumerate(toks):
                for hist_len in range(min(i, order - 1) + 1):
                    self.successors.setdefault(tuple(toks[i - hist_len : i]), Counter())[tok] += 1

    def map(self, tok: str) -> str:
        return tok if tok in self.vocab else UNK

    def prob(self, word: str, history) -> float:
        hist = tuple(self.map(tok) for tok in history[max(0, len(history) - (self.order - 1)) :])
        following = self.successors.get(hist, Counter())
        c_hw, c_h = following[self.map(word)], sum(following.values())
        if self.alpha > 0:
            return (c_hw + self.alpha) / (c_h + self.alpha * len(self.vocab))
        return 1.0 / len(self.vocab) if c_h == 0 else c_hw / c_h


class TestNgramBackend:
    @settings(max_examples=60, deadline=None)
    @given(
        corpus=st.lists(st.lists(st.sampled_from(["a", "b", "c", UNK]), max_size=6).map(" ".join), max_size=5),
        order=st.integers(1, 4),
        alpha=st.sampled_from([0.0, 0.5, 1.0]),
        context=st.lists(st.sampled_from("abcz"), max_size=4),
        text=st.lists(st.sampled_from("abcz"), max_size=6),
    )
    def test_probabilities_equal_a_brute_force_count(self, corpus, order, alpha, context, text):
        oracle = NgramBackend(corpus, order=order, alpha=alpha)
        assert oracle.vocab == sorted({tok for seq in corpus for tok in seq.split()} | {UNK})
        reference = _ReferenceNgram(corpus, order, alpha, oracle.vocab)
        # every history of length 0 .. order over the vocabulary (seen or not), and one with an OOV token
        histories = [h for n in range(order + 1) for h in itertools.product(oracle.vocab, repeat=n)] + [("z",)]
        for history in histories:
            for word in oracle.vocab:
                assert oracle.prob(word, history) == reference.prob(word, history)
        scored = oracle.token_logprobs(" ".join(context), " ".join(text))
        expected = []
        for i, word in enumerate(text):
            p = reference.prob(word, context + text[:i])
            expected.append(math.log(p) if p > 0 else float("-inf"))
        assert scored.tokens == text
        assert scored.logprobs == expected

    def test_ids_past_the_small_int_cache_equal_a_brute_force_count(self):
        rng = random.Random(7)
        words = [f"w{i:03d}" for i in range(300)]
        corpus = [" ".join(rng.choices(words[:280], k=rng.randint(1, 40))) for _ in range(60)]
        context = rng.choices(words, k=3)
        text = rng.choices(words, k=200) + ["zebra"]
        for order, alpha in ((2, 0.0), (3, 0.5), (4, 1.0)):
            oracle = NgramBackend(corpus, order=order, alpha=alpha)
            assert len(oracle.vocab) > 256
            reference = _ReferenceNgram(corpus, order, alpha, oracle.vocab)
            expected = []
            for i, word in enumerate(text):
                history = context + text[:i]
                p = reference.prob(word, history)
                assert oracle.prob(word, history) == p
                expected.append(math.log(p) if p > 0 else float("-inf"))
            assert oracle.token_logprobs(" ".join(context), " ".join(text)).logprobs == expected

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_an_order_past_the_longest_line_equals_a_brute_force_count(self, alpha):
        corpus, order = ["a b c a", "b b", "c a b"], 10**6
        oracle = NgramBackend(corpus, order=order, alpha=alpha)
        reference = _ReferenceNgram(corpus, order, alpha, oracle.vocab)
        text = "a b c a b z b b c a".split()
        for i, word in enumerate(text):
            assert oracle.prob(word, text[:i]) == reference.prob(word, text[:i])

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_a_long_text_scores_alike_under_any_order_past_the_longest_line(self, alpha):
        corpus = ["a b c a", "b b", "c a b"]
        text = " ".join(["a b c a b z b b c a"] * 2000)  # 20,000 tokens, "z" out of vocabulary
        huge = NgramBackend(corpus, order=10**6, alpha=alpha).token_logprobs("", text)
        assert len(huge.tokens) == 20_000
        assert huge == NgramBackend(corpus, order=4 + 1, alpha=alpha).token_logprobs("", text)

    def test_mle_deterministic_bigram(self):
        # "a b a b a b": a is always followed by b, so P(b|a) = 3/3
        oracle = NgramBackend("a b a b a b", order=2, alpha=0.0)
        assert oracle.prob("b", ["a"]) == 1.0

    def test_laplace_hand_example(self):
        # alpha=1, vocab {<unk>, a}, corpus "a a": b maps to <unk>, P(b|a) = (0+1)/(1+2) = 1/3
        oracle = NgramBackend("a a", order=2, alpha=1.0)
        assert oracle.prob("b", ["a"]) == 1 / 3

    def test_uniform_unigram_logprob(self):
        # vocab {<unk>, a, b}, two corpus tokens: P(a) = P(b) = (1+1)/(2+3) = 2/5
        oracle = NgramBackend("a b", order=1, alpha=1.0)
        scored = oracle.token_logprobs("", "a b a")
        assert scored.logprobs == [math.log(2 / 5)] * 3

    def test_mle_unseen_history_uniform(self):
        oracle = NgramBackend("a b", order=2, alpha=0.0)
        # b is sequence-final in the corpus: no successors observed, so 1/|V| over {<unk>, a, b}
        assert oracle.prob("a", ["b"]) == 1 / 3

    def test_distribution_normalizes(self):
        corpus = ["we count three apples", "we count four pears", "they count pears"]
        oracle = NgramBackend(corpus, order=2, alpha=1.0)
        for history in ([], ["count"], ["we"], ["zebra"]):
            total = sum(oracle.prob(word, history) for word in oracle.vocab)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_default_vocab_maps_oov_to_unk(self):
        oracle = NgramBackend("a b a", order=2, alpha=1.0)
        assert "<unk>" in oracle.vocab
        scored = oracle.token_logprobs("", "zebra")
        assert len(scored.logprobs) == 1
        assert math.isfinite(scored.logprobs[0])

    def test_histories_do_not_cross_sequences(self):
        oracle = NgramBackend(["a b", "a b"], order=2, alpha=1.0)
        # b never has a successor: both sequences end with it
        assert oracle.prob("a", ["b"]) == 1 / 3  # (0+1)/(0+3), |V| counting <unk>

    def test_start_of_sequence_backoff(self):
        oracle = NgramBackend("a a b", order=3, alpha=1.0)
        scored = oracle.token_logprobs("", "a a b")
        # first token scored from unigrams: P(a) = (2+1)/(3+3), |V| counting <unk>
        assert scored.logprobs[0] == math.log(3 / 6)

    def test_a_build_peaks_under_ten_times_its_corpus_bytes(self):
        # 54,000 tokens over 64 distinct ones: a string held per token would cost about 12 times the corpus bytes
        rng = random.Random(5)
        things = ["pens", "cups", "keys", "coins", "books", "plates", "shoes", "forks", "lamps", "rings"]
        corpus = []
        for _ in range(3000):
            items = rng.sample(things, rng.randint(2, 4))
            counts = [rng.randint(1, 9) for _ in items]
            listing = ", ".join(f"{n} {thing}" for n, thing in zip(counts, items))
            corpus.append(f"you have {listing} . how many items do you have ? Answer: {sum(counts)}")
        corpus_bytes = sum(len(line.encode("utf-8")) + 1 for line in corpus)
        assert 200_000 < corpus_bytes < 260_000
        tracemalloc.start()
        try:
            oracle = NgramBackend(corpus, order=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(oracle.vocab) == 65
        assert peak < 10 * corpus_bytes

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NgramBackend("a", order=0)
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            NgramBackend("a", alpha=-0.1)
        for alpha in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="alpha must be finite"):
                NgramBackend("a", alpha=alpha)


_SOME_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003\u3000"


class TestContextWindowPrecheck:
    class _Fixed(Backend):
        def _serve(self, request):
            return GenerationResult("ok", 1, 1), "live"

    @settings(max_examples=300, deadline=None)
    @given(
        system=st.text(alphabet=st.sampled_from("ab" + _SOME_WHITESPACE), max_size=40),
        user=st.text(alphabet=st.sampled_from("xy" + _SOME_WHITESPACE), max_size=40),
        budget=st.integers(min_value=1, max_value=45),
    )
    def test_decision_equals_the_exact_count(self, system, user, budget):
        backend = self._Fixed(BackendDescriptor(kind="mock", model_id="m", context_window=budget))
        request = GenerationRequest(tag="forward", system_text=system, user_text=user)
        needed = len(system.split()) + len(user.split())
        if needed > budget:
            with pytest.raises(ContextWindowExceeded) as err:
                backend.generate(request)
            assert (err.value.needed, err.value.budget) == (needed, budget)
            assert len(backend.call_log) == 0
        else:
            assert backend.generate(request).text == "ok"
            assert len(backend.call_log) == 1

    def test_short_texts_are_not_split(self, monkeypatch):
        calls = []
        monkeypatch.setattr(GenerationRequest, "prompt_token_count", lambda self: calls.append(1) or 0)
        # bounds: "a b" holds at most 2 tokens, "c d e" 3, "c d e f" 4
        backend = self._Fixed(BackendDescriptor(kind="mock", model_id="m", context_window=5))
        backend.generate(GenerationRequest(tag="forward", system_text="a b", user_text="c d e"))
        assert calls == []
        backend.generate(GenerationRequest(tag="forward", system_text="a b", user_text="c d e f"))
        assert calls == [1]


# -- remote backend ----------------------------------------------------------------


class _FakeResponse:
    def __init__(self, status_code=200, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self._payload is None:
            raise ValueError("no body")
        return self._payload


class _FakeSession:
    """Scripted stand-in for requests.Session."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _chat_payload(text="hello", prompt_tokens=7, completion_tokens=2):
    return {
        "choices": [{"message": {"content": text}}],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def _remote(session, cassette=None):
    descriptor = BackendDescriptor(kind="remote", model_id="test-model", endpoint="http://fake.test/v1")
    return RemoteBackend(descriptor, cassette=cassette, session=session, sleep=lambda s: None)


class TestRemoteBackend:
    def test_happy_path_uses_usage_counts(self):
        session = _FakeSession([_FakeResponse(200, _chat_payload())])
        backend = _remote(session)
        result = backend.generate(
            GenerationRequest(tag="forward", system_text="sys", user_text="hi there")
        )
        assert result.text == "hello"
        assert result.prompt_tokens == 7
        assert session.calls[0]["url"].endswith("/chat/completions")
        sent = session.calls[0]["json"]
        assert sent["messages"][0]["role"] == "system"
        assert "op" not in sent

    def test_api_key_header_from_env(self, monkeypatch):
        session = _FakeSession([_FakeResponse(200, _chat_payload())])
        backend = _remote(session)
        monkeypatch.setenv("FEDPROMPT_API_KEY", "sk-secret")
        backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        assert session.calls[0]["headers"]["Authorization"] == "Bearer sk-secret"

    def test_api_key_is_read_once_per_run(self, monkeypatch):
        session = _FakeSession([_FakeResponse(200, _chat_payload())] * 3)
        backend = _remote(session)
        monkeypatch.setenv("FEDPROMPT_API_KEY", "sk-first")  # exported after construction
        backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        monkeypatch.setenv("FEDPROMPT_API_KEY", "sk-second")
        backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        backend.close()  # ends the run; the next one reads the key afresh
        backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        assert [c["headers"]["Authorization"] for c in session.calls] == [
            "Bearer sk-first", "Bearer sk-first", "Bearer sk-second"
        ]

    def test_retries_on_429_then_succeeds(self):
        import requests

        session = _FakeSession(
            [
                _FakeResponse(429, text="slow down"),
                requests.ConnectionError("boom"),
                _FakeResponse(200, _chat_payload("finally")),
            ]
        )
        backend = _remote(session)
        result = backend.generate(
            GenerationRequest(tag="forward", system_text="", user_text="x")
        )
        assert result.text == "finally"
        assert len(session.calls) == 3

    @pytest.mark.parametrize(
        "retry_after, slept",
        [("3", [3.0]), ("0.25", [0.25]), (None, [0.5]), ("Wed, 21 Oct 2015 07:28:00 GMT", [0.5]), ("-1", [0.5])],
        ids=["seconds", "fractional", "absent", "http-date", "negative"],
    )
    def test_429_waits_retry_after_seconds(self, retry_after, slept):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        session = _FakeSession(
            [_FakeResponse(429, text="slow down", headers=headers), _FakeResponse(200, _chat_payload("ok"))]
        )
        sleeps = []
        backend = RemoteBackend(
            BackendDescriptor(kind="remote", model_id="test-model", endpoint="http://fake.test/v1"),
            session=session, sleep=sleeps.append,
        )
        assert backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x")).text == "ok"
        assert sleeps == slept

    def test_gives_up_after_max_attempts(self):
        session = _FakeSession([_FakeResponse(429, text="nope")] * 5)
        backend = _remote(session)
        with pytest.raises(TransportFailure) as err:
            backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        assert "after 5 attempts" in str(err.value)
        assert len(session.calls) == 5

    def test_client_error_is_not_retried(self):
        session = _FakeSession([_FakeResponse(400, text="bad request")])
        backend = _remote(session)
        with pytest.raises(BackendError):
            backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
        assert len(session.calls) == 1

    def test_context_length_error_is_context_window_exceeded(self):
        def rejected(code):
            body = {"error": {"code": code, "message": "rejected"}}
            session = _FakeSession([_FakeResponse(400, body, text=json.dumps(body))])
            with pytest.raises(FedPromptError) as err:
                _remote(session).generate(GenerationRequest(tag="forward", system_text="", user_text="x"))
            assert len(session.calls) == 1  # not retried
            return type(err.value)

        assert rejected("context_length_exceeded") is ContextWindowExceeded
        assert rejected("invalid_request_error") is BackendError

    def test_reported_usage_is_not_recounted(self, monkeypatch):
        from fedprompt.backends import base, remote

        counted = []

        def counting(text):
            counted.append(text)
            return count_tokens(text)

        monkeypatch.setattr(base, "count_tokens", counting)
        monkeypatch.setattr(remote, "count_tokens", counting)
        request = GenerationRequest(tag="forward", system_text="sys text", user_text="hi there you")
        session = _FakeSession([_FakeResponse(200, _chat_payload("a b c", 7, 2))])
        result = _remote(session).generate(request)
        assert (result.prompt_tokens, result.completion_tokens) == (7, 2)
        # the endpoint reported usage, and the request is far inside the
        # context window, so nothing is counted
        assert counted == []

        unreported = {"choices": [{"message": {"content": "a b c"}}]}
        result = _remote(_FakeSession([_FakeResponse(200, unreported)])).generate(request)
        assert (result.prompt_tokens, result.completion_tokens) == (5, 3)
        assert counted == ["sys text", "hi there you", "a b c"]

    def test_each_thread_gets_its_own_session(self, monkeypatch):
        from fedprompt.backends import remote

        made = []

        class Recording:
            def __init__(self):
                self.threads = set()
                made.append(self)

            def post(self, url, json=None, headers=None, timeout=None):
                self.threads.add(threading.get_ident())
                return _FakeResponse(200, _chat_payload("ok"))

        monkeypatch.setattr(remote.requests, "Session", Recording)
        backend = _remote(None)

        def call(i):
            for _ in range(2):
                backend.generate(GenerationRequest(tag="forward", system_text="", user_text=f"q{i}"))

        threads = [threading.Thread(target=call, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        call(3)
        assert len(made) == 4
        assert all(len(session.threads) == 1 for session in made)

    def test_close_closes_the_sessions_it_created_and_a_closed_backend_still_serves(self, monkeypatch):
        from fedprompt.backends import remote

        made = []

        class Closable:
            def __init__(self):
                self.closed = False
                made.append(self)

            def post(self, url, json=None, headers=None, timeout=None):
                assert not self.closed
                return _FakeResponse(200, _chat_payload("ok"))

            def close(self):
                self.closed = True

        monkeypatch.setattr(remote.requests, "Session", Closable)
        backend = _remote(None)
        request = GenerationRequest(tag="forward", system_text="", user_text="q")
        thread = threading.Thread(target=backend.generate, args=(request,))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        backend.generate(request)
        backend.close()
        assert [session.closed for session in made] == [True, True]
        assert backend.generate(request).text == "ok"
        assert [session.closed for session in made] == [True, True, False]

    def test_close_leaves_an_injected_session_open(self):
        injected, closed = _SlowSession(), []
        injected.close = lambda: closed.append(injected)
        backend = _remote(injected)
        backend.generate(GenerationRequest(tag="forward", system_text="", user_text="q"))
        backend.close()
        assert closed == []
        assert backend.generate(GenerationRequest(tag="forward", system_text="", user_text="q")).text == "judged"

    def test_injected_session_is_shared_by_threads(self):
        session = _SlowSession()
        backend = _remote(session)
        threads = [
            threading.Thread(
                target=backend.generate,
                args=(GenerationRequest(tag="forward", system_text="", user_text=f"q{i}"),),
            )
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert session.posts == 3
        assert backend.session is session


#: JSON objects as a response may hold them: any text, ints past 64 bits,
#: finite floats, nested lists and objects
_JSON_OBJECTS = st.dictionaries(
    st.text(max_size=8),
    st.recursive(
        st.none() | st.booleans() | st.integers(-(10**30), 10**30)
        | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=12,
    ),
    max_size=5,
)


class TestCassette:
    def test_record_then_replay_round_trip(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession([_FakeResponse(200, _chat_payload("recorded"))])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        request = GenerationRequest(tag="forward", system_text="s", user_text="u")
        first = recorder.generate(request)
        recorder.close()

        entry = json.loads(path.read_text().splitlines()[0])
        assert set(entry) == {"request_hash", "request", "response", "response_sha256", "timestamp"}
        assert entry["request_hash"] == request_hash(entry["request"])
        assert entry["response_sha256"] == hashlib.sha256(json.dumps(entry["response"]).encode()).hexdigest()

        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        second = replayer.generate(
            GenerationRequest(tag="forward", system_text="s", user_text="u")
        )
        assert second.text == first.text  # no network call happened

    def test_replay_miss_is_an_error(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        path.write_text("")
        backend = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        with pytest.raises(BackendError):
            backend.generate(GenerationRequest(tag="forward", system_text="", user_text="x"))

    def test_replay_of_missing_file_is_an_error(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        with pytest.raises(ConfigError) as excinfo:
            Cassette(path, mode="replay")
        assert str(excinfo.value) == f"cassette file not found: {path}"

    @pytest.mark.parametrize(
        "line, problem",
        [
            ("[1]", "needs a string request_hash, an object request and an object response"),
            ("5", "needs a string request_hash, an object request and an object response"),
            ('{"request_hash": "x"}', "needs a string request_hash, an object request and an object response"),
            ('{"response": {}}', "needs a string request_hash, an object request and an object response"),
            ('{"request_hash": 1, "request": {}, "response": {}}',
             "needs a string request_hash, an object request and an object response"),
            ('{"request_hash": "x", "request": {}, "response": []}',
             "needs a string request_hash, an object request and an object response"),
            ('{"request_hash": "x", "request": {}, "response": {}}', "request_hash is not the hash of its request"),
            (json.dumps({"request_hash": request_hash({}), "request": {}, "response": {"text": "edited"},
                         "response_sha256": hashlib.sha256(b'{"text": "recorded"}').hexdigest()}),
             "response_sha256 is not the hash of its response"),
            ("{broken", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        ],
        ids=["list", "number", "no-request", "no-hash", "hash-not-a-string", "response-not-an-object", "wrong-hash",
             "wrong-response-hash", "not-json"],
    )
    def test_a_bad_line_is_an_error_naming_the_file_and_line(self, tmp_path, line, problem):
        path = tmp_path / "exchange.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        with pytest.raises(BackendError) as excinfo:
            Cassette(path, mode="replay")
        assert str(excinfo.value) == f"cassette file {path} line 2: {problem}"

    def test_a_line_whose_request_was_edited_is_not_served(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession([_FakeResponse(200, _chat_payload("recorded"))])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        recorder.generate(GenerationRequest(tag="forward", system_text="s", user_text="u"))
        recorder.close()
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["request"]["messages"][1]["content"] = "edited"
        path.write_text(json.dumps(entry) + "\n", encoding="utf-8")
        with pytest.raises(BackendError) as excinfo:
            Cassette(path, mode="replay")
        assert str(excinfo.value) == f"cassette file {path} line 1: request_hash is not the hash of its request"

    def test_a_torn_last_line_is_cut_before_recording_and_skipped_on_replay(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        texts = ["first", "second", "third"]
        requests = [GenerationRequest(tag="forward", system_text="s", user_text=f"u{i}") for i in range(3)]
        recorder = _remote(_FakeSession([_FakeResponse(200, _chat_payload(t)) for t in texts[:2]]),
                           cassette=Cassette(path, mode="record"))
        for request in requests[:2]:
            recorder.generate(request)
        recorder.close()
        whole = path.read_bytes()
        second = whole.splitlines(keepends=True)[1]
        path.write_bytes(whole[: len(whole) - len(second) + 30])  # a killed recorder's fragment
        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert replayer.generate(requests[0]).text == "first"
        with pytest.raises(BackendError, match="no response left"):
            replayer.generate(requests[1])

        recorder = _remote(_FakeSession([_FakeResponse(200, _chat_payload(t)) for t in texts[1:]]),
                           cassette=Cassette(path, mode="record"))
        for request in requests[1:]:
            recorder.generate(request)
        recorder.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["response"]["choices"][0]["message"]["content"] for line in lines] == texts
        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert [replayer.generate(request).text for request in requests] == texts

    def test_a_whole_last_line_without_its_newline_is_kept(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        texts = ["first", "second", "third"]
        requests = [GenerationRequest(tag="forward", system_text="s", user_text=f"u{i}") for i in range(3)]
        recorder = _remote(_FakeSession([_FakeResponse(200, _chat_payload(t)) for t in texts[:2]]),
                           cassette=Cassette(path, mode="record"))
        for request in requests[:2]:
            recorder.generate(request)
        recorder.close()
        path.write_bytes(path.read_bytes().rstrip(b"\n"))  # as "\n".join(lines) or an editor leaves it
        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert [replayer.generate(request).text for request in requests[:2]] == texts[:2]

        recorder = _remote(_FakeSession([_FakeResponse(200, _chat_payload(texts[2]))]),
                           cassette=Cassette(path, mode="record"))
        recorder.generate(requests[2])
        recorder.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["response"]["choices"][0]["message"]["content"] for line in lines] == texts
        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert [replayer.generate(request).text for request in requests] == texts

    def test_repeated_requests_replay_in_recorded_order(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession(
            [_FakeResponse(200, _chat_payload("first")), _FakeResponse(200, _chat_payload("second"))]
        )
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        for _ in range(2):
            recorder.generate(GenerationRequest(tag="forward", system_text="s", user_text="u"))
        recorder.close()

        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        texts = [
            replayer.generate(
                GenerationRequest(tag="forward", system_text="s", user_text="u")
            ).text
            for _ in range(2)
        ]
        assert texts == ["first", "second"]

    def test_replay_past_recorded_responses_is_an_error(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession([_FakeResponse(200, _chat_payload("only"))])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        request = GenerationRequest(tag="forward", system_text="s", user_text="u")
        recorder.generate(request)
        recorder.close()

        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert replayer.generate(request).text == "only"
        with pytest.raises(BackendError, match="no response left"):
            replayer.generate(request)


    def test_recorded_lines_are_on_disk_before_close_and_recording_after_close_appends(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        outcomes = [_FakeResponse(200, _chat_payload(text)) for text in ("first", "second")]
        recorder = _remote(_FakeSession(outcomes), cassette=Cassette(path, mode="record"))
        request = GenerationRequest(tag="forward", system_text="s", user_text="u")
        recorder.generate(request)
        assert len(path.read_text(encoding="utf-8").splitlines()) == 1
        recorder.close()
        recorder.generate(request)
        recorder.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["response"]["choices"][0]["message"]["content"] for line in lines] == [
            "first", "second"
        ]

    def test_concurrent_records_leave_one_parseable_line_each(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        cassette = Cassette(path, mode="record")
        cassette.path = _ChunkedPath(path)
        n = 8
        start = threading.Barrier(n)

        def record(i):
            start.wait()
            cassette.record({"op": "chat.completions", "i": i}, {"text": str(i) * 20_000})

        threads = [threading.Thread(target=record, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cassette.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert sorted(json.loads(line)["request"]["i"] for line in lines) == list(range(n))

    def test_memo_cassette_holds_each_greedy_exchange_once(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession([_FakeResponse(200, _chat_payload("judged"))])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        for _ in range(3):
            recorder.generate(_greedy())
        recorder.close()
        assert len(path.read_text().splitlines()) == 1

        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        texts = [replayer.generate(_greedy()).text for _ in range(3)]
        assert texts == ["judged"] * 3
        assert [r.source for r in replayer.call_log.records()] == ["cassette", "memo", "memo"]

    def test_a_line_splices_in_the_canonical_request_it_hashes(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        session = _FakeSession([_FakeResponse(200, _chat_payload("recorded"))])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        recorder.generate(GenerationRequest(tag="forward", system_text="s \u00e9", user_text='u "q"'))
        recorder.close()
        (line,) = path.read_text(encoding="utf-8").splitlines()
        entry = json.loads(line)
        assert entry["request_hash"] == request_hash(entry["request"])
        assert entry["request"]["op"] == "chat.completions"
        canonical = json.dumps(entry["request"], sort_keys=True, separators=(",", ":"))
        # every other byte is laid out as json.dumps(entry) lays it out
        assert line == json.dumps(entry).replace(json.dumps(entry["request"]), canonical)

    def test_a_cassette_in_the_older_line_layout_replays(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        texts = ["first", "second", "third"]
        session = _FakeSession([_FakeResponse(200, _chat_payload(text)) for text in texts])
        recorder = _remote(session, cassette=Cassette(path, mode="record"))
        sent = [
            GenerationRequest(tag="forward", system_text="s", user_text="u"),
            GenerationRequest(tag="forward", system_text="s", user_text="u"),
            _greedy(),
        ]
        for request in sent:
            recorder.generate(request)
        recorder.close()
        # the older writer dumped each entry whole: json.dumps(entry)
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("".join(json.dumps(json.loads(line)) + "\n" for line in lines), encoding="utf-8")
        assert path.read_text(encoding="utf-8").splitlines() != lines

        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert [replayer.generate(request).text for request in sent] == texts

    def test_cassette_recorded_without_memo_still_replays(self, tmp_path):
        # a cassette written before greedy calls were memoized holds every
        # repeat; replay uses the first and leaves the rest unread
        request = _greedy()
        payload = {
            "op": "chat.completions",
            "model": "test-model",
            "messages": [
                {"role": "system", "content": request.system_text},
                {"role": "user", "content": request.user_text},
            ],
            "temperature": 0.0,
            "max_tokens": MAX_OUTPUT_TOKENS,
        }
        path = tmp_path / "old.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for _ in range(3):
                entry = {"request_hash": request_hash(payload), "request": payload,
                         "response": _chat_payload("judged"), "timestamp": 0.0}
                fh.write(json.dumps(entry) + "\n")
        replayer = _remote(_FakeSession([]), cassette=Cassette(path, mode="replay"))
        assert [replayer.generate(_greedy()).text for _ in range(3)] == ["judged"] * 3

    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(responses=st.lists(_JSON_OBJECTS, min_size=1, max_size=6))
    @example(responses=[{"text": "caf\u00e9 \u2028 \u2029 \U0001f600", "escapes": "\"\\/\b\f\n\r\t\u0000",
                         "ints": [2**64, -(10**40)], "floats": [0.1, -0.0, 1e308, 5e-324],
                         "nested": [[[1, [2]], []], {"a": [None, True]}]}])
    def test_recorded_json_replays_equal_and_repeats_in_recorded_order(self, tmp_path, responses):
        path = tmp_path / "exchange.jsonl"
        path.unlink(missing_ok=True)
        recorder = Cassette(path, mode="record")
        payloads = [{"op": "chat.completions", "i": i % 2} for i in range(len(responses))]
        for payload, response in zip(payloads, responses):
            recorder.record(payload, response)
        recorder.close()
        replayer = Cassette(path, mode="replay")
        assert [replayer.replay(payload) for payload in payloads] == responses

    def test_each_replay_is_a_new_object(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        response = {"choices": [{"message": {"content": "same"}}], "usage": {"prompt_tokens": 3}}
        recorder = Cassette(path, mode="record")
        for _ in range(2):
            recorder.record({"op": "chat.completions"}, response)
        recorder.close()
        replayer = Cassette(path, mode="replay")
        served = replayer.replay({"op": "chat.completions"})
        served["choices"][0]["message"]["content"] = "mutated"
        served["usage"].clear()
        assert replayer.replay({"op": "chat.completions"}) == response

    def test_a_line_without_response_sha256_replays(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        payload = {"op": "chat.completions", "model": "m"}
        response = {"choices": [{"message": {"content": "caf\u00e9"}}]}
        entry = {"request_hash": request_hash(payload), "request": payload, "response": response, "timestamp": 0.0}
        path.write_text(json.dumps(entry, ensure_ascii=False) + "\n", encoding="utf-8")
        assert Cassette(path, mode="replay").replay(payload) == response

    def test_a_loaded_replay_store_retains_at_most_three_times_its_response_bytes(self, tmp_path):
        path = tmp_path / "exchange.jsonl"
        recorder = Cassette(path, mode="record")
        rng = random.Random(0)
        response_bytes = 0
        for i in range(1000):
            content = " ".join(rng.choice(["Answer:", "count", "the", "pens", str(i)]) for _ in range(20))
            response = {"choices": [{"index": 0, "message": {"role": "assistant", "content": content}}],
                        "usage": {"prompt_tokens": 40 + i % 7, "completion_tokens": 20}}
            response_bytes += len(json.dumps(response))
            recorder.record({"op": "chat.completions", "i": i}, response)
        recorder.close()
        assert 200_000 < response_bytes < 300_000  # about 250 bytes a response
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cassette = Cassette(path, mode="replay")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert cassette.replay({"op": "chat.completions", "i": 0})["usage"]["completion_tokens"] == 20
        assert retained <= 3 * response_bytes


class _ChunkedPath:
    """A path whose files write long strings in small pieces, letting other
    threads run in between, as a filesystem may when it takes partial writes."""

    def __init__(self, path):
        self._path = path

    def open(self, mode, encoding=None):
        fh = self._path.open(mode, encoding=encoding, buffering=1)

        class Chunked:
            flush, close = fh.flush, fh.close

            def write(self, text):
                for i in range(0, len(text), 4096):
                    fh.write(text[i : i + 4096])
                    fh.flush()
                    time.sleep(0)

        return Chunked()


def _greedy(user_text: str = "judge this") -> GenerationRequest:
    return GenerationRequest(tag="evaluation", system_text="", user_text=user_text)


class _SlowSession:
    """Thread-safe session that holds each post open for ``delay`` seconds
    and fails the first ``failures`` posts with HTTP 400."""

    def __init__(self, delay: float = 0.0, failures: int = 0):
        self.delay = delay
        self.failures = failures
        self.posts = 0
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._lock:
            self.posts += 1
            fail = self.posts <= self.failures
        time.sleep(self.delay)
        if fail:
            return _FakeResponse(400, text="bad request")
        return _FakeResponse(200, _chat_payload("judged"))


class TestResponseMemo:
    def _priced(self, session) -> RemoteBackend:
        descriptor = BackendDescriptor(
            kind="remote", model_id="test-model", endpoint="http://fake.test/v1",
            usd_per_1k_prompt_tokens=1.0, usd_per_1k_completion_tokens=2.0,
        )
        return RemoteBackend(descriptor, session=session, sleep=lambda s: None)

    def test_repeated_greedy_request_posts_once(self):
        session = _FakeSession([_FakeResponse(200, _chat_payload("judged"))])
        backend = _remote(session)
        first = backend.generate(_greedy())
        second = backend.generate(_greedy())
        assert len(session.calls) == 1
        assert second is first
        assert len(backend.call_log) == 2

    def test_memo_records_are_marked_and_free(self):
        backend = self._priced(_FakeSession([_FakeResponse(200, _chat_payload("judged"))]))
        for _ in range(3):
            backend.generate(_greedy())
        records = backend.call_log.records()
        assert [r.source for r in records] == ["live", "memo", "memo"]
        assert [r.cost_usd for r in records[1:]] == [0.0, 0.0]
        assert records[0].cost_usd == pytest.approx((7 * 1.0 + 2 * 2.0) / 1000)
        assert backend.call_log.total_cost_usd() == records[0].cost_usd
        assert backend.call_log.counts_by_tag()["evaluation"] == 3
        assert backend.call_log.issued_counts_by_tag()["evaluation"] == 1

    def test_sampled_request_always_posts(self):
        session = _FakeSession([_FakeResponse(200, _chat_payload("a")), _FakeResponse(200, _chat_payload("b"))])
        backend = _remote(session)
        texts = [
            backend.generate(
                GenerationRequest(tag="evaluation", system_text="", user_text="x", temperature=0.7)
            ).text
            for _ in range(2)
        ]
        assert texts == ["a", "b"]
        assert len(session.calls) == 2
        assert [r.source for r in backend.call_log.records()] == ["live", "live"]

    def test_differing_content_is_not_shared(self):
        session = _FakeSession([_FakeResponse(200, _chat_payload("a")), _FakeResponse(200, _chat_payload("b"))])
        backend = _remote(session)
        assert backend.generate(_greedy("one")).text == "a"
        assert backend.generate(_greedy("two")).text == "b"
        assert len(session.calls) == 2

    def test_failure_is_not_memoized(self):
        session = _FakeSession(
            [_FakeResponse(400, text="bad request"), _FakeResponse(200, _chat_payload("judged"))]
        )
        backend = _remote(session)
        with pytest.raises(BackendError):
            backend.generate(_greedy())
        assert backend.generate(_greedy()).text == "judged"
        assert len(session.calls) == 2
        assert [r.source for r in backend.call_log.records()] == ["live"]

    def _concurrently(self, backend: RemoteBackend, n: int) -> list:
        start = threading.Barrier(n)
        outcomes: list = [None] * n

        def call(i):
            start.wait()
            try:
                outcomes[i] = backend.generate(_greedy())
            except BackendError as exc:
                outcomes[i] = exc

        threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        return outcomes

    def test_concurrent_identical_greedy_requests_post_once(self):
        session = _SlowSession(delay=0.05)
        backend = _remote(session)
        outcomes = self._concurrently(backend, 8)
        assert session.posts == 1
        assert all(o is outcomes[0] for o in outcomes)
        sources = sorted(r.source for r in backend.call_log.records())
        assert sources == ["live"] + ["memo"] * 7

    def test_memo_hits_without_the_lock_under_rapid_switching(self):
        session = _SlowSession(delay=0.0)
        backend = _remote(session)
        n = 16
        start = threading.Barrier(n)
        results: list = [None] * n

        def call(i):
            start.wait()
            results[i] = backend.generate(_greedy())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,)) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert session.posts == 1
        assert all(r is not None and r is results[0] for r in results)
        sources = Counter(r.source for r in backend.call_log.records())
        assert sources == {"live": 1, "memo": n - 1}

    def test_waiters_retry_after_a_failed_owner(self):
        session = _SlowSession(delay=0.05, failures=1)
        backend = _remote(session)
        outcomes = self._concurrently(backend, 4)
        failed = [o for o in outcomes if isinstance(o, BackendError)]
        assert len(failed) == 1
        assert session.posts == 2
        assert sorted(r.source for r in backend.call_log.records()) == ["live", "memo", "memo"]


class _StubHandler(BaseHTTPRequestHandler):
    """Minimal OpenAI-compatible endpoint for live record tests."""

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if self.path.endswith("/chat/completions"):
            text = "echo: " + body["messages"][1]["content"]
            payload = _chat_payload(text)
        else:
            self.send_response(404)
            self.end_headers()
            return
        doc = json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(doc)))
        self.end_headers()
        self.wfile.write(doc)

    def log_message(self, *args):
        pass


class TestLiveHTTPRecordReplay:
    def test_record_against_local_stub_then_replay_offline(self, tmp_path):
        server = HTTPServer(("127.0.0.1", 0), _StubHandler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            endpoint = f"http://127.0.0.1:{server.server_address[1]}/v1"
            descriptor = BackendDescriptor(
                kind="remote", model_id="stub", endpoint=endpoint
            )
            path = tmp_path / "live.jsonl"
            recorder = RemoteBackend(
                descriptor, cassette=Cassette(path, mode="record"), sleep=lambda s: None
            )
            try:
                live = recorder.generate(
                    GenerationRequest(tag="forward", system_text="s", user_text="ping")
                )
            finally:
                recorder.close()
            assert live.text == "echo: ping"
        finally:
            server.shutdown()
            server.server_close()
            thread.join()

        # server is down; the cassette must carry the exchange alone
        offline = RemoteBackend(
            BackendDescriptor(kind="remote", model_id="stub", endpoint="http://127.0.0.1:1/v1"),
            cassette=Cassette(path, mode="replay"),
            sleep=lambda s: None,
        )
        replayed = offline.generate(
            GenerationRequest(tag="forward", system_text="s", user_text="ping")
        )
        offline.close()
        assert replayed.text == "echo: ping"


class TestTokenLogprobsType:
    def test_parallel_lists_enforced(self):
        with pytest.raises(ValueError):
            TokenLogprobs(tokens=["a"], logprobs=[])
