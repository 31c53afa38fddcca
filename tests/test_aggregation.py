from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprompt.aggregation import (
    STRATEGY_IDS,
    AggregationInput,
    aggregate,
    aggregate_concat,
    aggregate_dynamic,
)
from fedprompt.backends.base import count_tokens
from fedprompt.backends.mock import MockBackend
from fedprompt.errors import ContextWindowExceeded, EmptyOutput
from fedprompt.prompts import PromptState
from tests.conftest import FINAL_INSTRUCTION


def _summarizer(response: str = "") -> MockBackend:
    backend = MockBackend()
    reply = response or f"Merged prompt body. {FINAL_INSTRUCTION}"
    backend.add_rule(lambda r: reply if r.tag == "aggregation_summarize" else None)
    return backend


def _inputs(
    texts: dict[int, str],
    separator: str = "\n\n",
    budget: int = 8192,
    backend: MockBackend | None = None,
) -> AggregationInput:
    prompts = [(cid, PromptState(text, producer="tgd")) for cid, text in texts.items()]
    return AggregationInput(prompts, separator=separator, budget=budget, backend=backend)


WORDS = st.text(alphabet="abcdefgh", min_size=1, max_size=8)
PROMPT_TEXTS = st.lists(
    st.lists(WORDS, min_size=1, max_size=30).map(" ".join), min_size=1, max_size=6
)


class TestConcat:
    def test_two_prompts_joined_with_separator(self):
        merged = aggregate_concat(_inputs({0: "alpha one", 1: "beta two"}))
        assert merged.text == "alpha one\n\nbeta two"
        assert merged.producer == "concat"

    def test_single_prompt_is_identity(self):
        merged = aggregate_concat(_inputs({0: "only prompt"}))
        assert merged.text == "only prompt"

    def test_client_order_not_input_order(self):
        merged = aggregate_concat(
            _inputs({2: "third", 0: "first", 1: "second"}, separator=" | ")
        )
        assert merged.text == "first | second | third"

    @settings(max_examples=200, deadline=None)
    @given(texts=PROMPT_TEXTS)
    def test_token_length_law(self, texts):
        merged = aggregate_concat(_inputs(dict(enumerate(texts)), budget=10**9))
        assert count_tokens(merged.text) == sum(count_tokens(t) for t in texts)

    def test_overflow_raises_with_sizes(self):
        texts = {i: " ".join(["tok"] * 2731) for i in range(3)}
        with pytest.raises(ContextWindowExceeded) as excinfo:
            aggregate_concat(_inputs(texts, budget=8192))
        assert excinfo.value.needed == 8193
        assert excinfo.value.budget == 8192

    def test_exact_fit_is_allowed(self):
        texts = {0: " ".join(["tok"] * 4096), 1: " ".join(["tok"] * 4096)}
        merged = aggregate_concat(_inputs(texts, budget=8192))
        assert count_tokens(merged.text) == 8192

    def test_no_backend_calls(self):
        backend = _summarizer()
        aggregate("concat", _inputs({0: "a", 1: "b"}, backend=backend))
        assert len(backend.call_log) == 0


class TestSummarize:
    def test_single_backend_call_with_tag(self):
        backend = _summarizer()
        merged = aggregate("summarize", _inputs({0: "alpha", 1: "beta"}, backend=backend))
        assert backend.call_log.tags() == ["aggregation_summarize"]
        assert merged.producer == "summarize"
        assert merged.text == f"Merged prompt body. {FINAL_INSTRUCTION}"

    def test_request_carries_template_and_numbered_prompts(self):
        backend = _summarizer()
        aggregate("summarize", _inputs({1: "beta prompt", 0: "alpha prompt"}, backend=backend))
        user_text = backend.call_log.records()[0].request.user_text
        assert user_text.startswith(
            "Merge the following list of prompts into a single, cohesive prompt"
        )
        assert "Provide only the merged prompt." in user_text
        assert "1. alpha prompt" in user_text
        assert "2. beta prompt" in user_text
        assert user_text.index("1. alpha prompt") < user_text.index("2. beta prompt")

    def test_uid_variant_adds_density_clause(self):
        backend = _summarizer()
        merged = aggregate("summarize-uid", _inputs({0: "alpha", 1: "beta"}, backend=backend))
        user_text = backend.call_log.records()[0].request.user_text
        assert "Apply Uniform Information Density Principles." in user_text
        assert merged.producer == "summarize_uid"

    def test_plain_variant_lacks_density_clause(self):
        backend = _summarizer()
        aggregate("summarize", _inputs({0: "alpha", 1: "beta"}, backend=backend))
        user_text = backend.call_log.records()[0].request.user_text
        assert "Uniform Information Density" not in user_text

    def test_blank_summary_rejected(self):
        backend = _summarizer("   \n  ")
        with pytest.raises(EmptyOutput):
            aggregate("summarize", _inputs({0: "alpha", 1: "beta"}, backend=backend))

    def test_without_backend_rejected(self):
        with pytest.raises(ValueError):
            aggregate("summarize", _inputs({0: "alpha"}))

    def test_dropped_final_instruction_warns(self, caplog):
        inputs = _inputs(
            {0: f"alpha. {FINAL_INSTRUCTION}", 1: f"beta. {FINAL_INSTRUCTION}"},
            backend=_summarizer("Merged without the required suffix."),
        )
        with caplog.at_level(logging.WARNING, logger="fedprompt.aggregation"):
            merged = aggregate("summarize", inputs, final_instruction=FINAL_INSTRUCTION)
        assert merged.text == "Merged without the required suffix."
        assert any("final instruction" in r.message.lower() for r in caplog.records)

    def test_preserved_final_instruction_is_silent(self, caplog):
        inputs = _inputs(
            {0: f"alpha. {FINAL_INSTRUCTION}"},
            backend=_summarizer(f"Merged body. {FINAL_INSTRUCTION}"),
        )
        with caplog.at_level(logging.WARNING, logger="fedprompt.aggregation"):
            aggregate("summarize", inputs, final_instruction=FINAL_INSTRUCTION)
        assert not caplog.records


class TestDynamic:
    def _texts(self, total_tokens: int, parts: int = 2) -> dict[int, str]:
        base = total_tokens // parts
        sizes = [base] * parts
        sizes[-1] += total_tokens - base * parts
        return {i: " ".join(["tok"] * size) for i, size in enumerate(sizes)}

    def test_below_threshold_concats(self):
        backend = _summarizer()
        merged = aggregate_dynamic(_inputs(self._texts(799), backend=backend), threshold=800)
        assert merged.producer == "concat"
        assert len(backend.call_log) == 0

    def test_at_threshold_concats(self):
        backend = _summarizer()
        merged = aggregate_dynamic(_inputs(self._texts(800), backend=backend), threshold=800)
        assert merged.producer == "concat"
        assert count_tokens(merged.text) == 800

    def test_above_threshold_summarizes(self):
        backend = _summarizer()
        merged = aggregate_dynamic(_inputs(self._texts(801), backend=backend), threshold=800)
        assert merged.producer == "summarize"
        assert backend.call_log.tags() == ["aggregation_summarize"]

    def test_matches_chosen_branch_exactly(self):
        small_a = _inputs(self._texts(640), backend=_summarizer())
        small_b = _inputs(self._texts(640), backend=_summarizer())
        big_a = _inputs(self._texts(1200), backend=_summarizer())
        big_b = _inputs(self._texts(1200), backend=_summarizer())
        assert (
            aggregate_dynamic(small_a, threshold=800).text == aggregate_concat(small_b).text
        )
        assert (
            aggregate_dynamic(big_a, threshold=800).text == aggregate("summarize", big_b).text
        )


class TestDispatcher:
    def test_strategy_ids(self):
        assert STRATEGY_IDS == ("concat", "summarize", "summarize-uid", "dynamic")

    @pytest.mark.parametrize("strategy", STRATEGY_IDS)
    def test_producer_matches_strategy(self, strategy):
        merged = aggregate(strategy, _inputs({0: "alpha", 1: "beta"}, backend=_summarizer()))
        expected = "concat" if strategy == "dynamic" else strategy.replace("-", "_")
        assert merged.producer == expected

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            aggregate("majority_vote", _inputs({0: "a"}))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            AggregationInput([])
