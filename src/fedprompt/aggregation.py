"""Server-side prompt aggregation strategies.

Four ways to merge the sampled clients' prompts into the next global prompt:
plain concatenation, LLM summarization, LLM summarization nudged toward
uniform information density, and a dynamic switch that concatenates while the
result stays under a token threshold and summarizes beyond it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from fedprompt.backends.base import DEFAULT_CONTEXT_WINDOW, Backend, GenerationRequest, count_tokens
from fedprompt.errors import ContextWindowExceeded, EmptyOutput
from fedprompt.prompts import PromptState
from fedprompt.templates import Templates, default_templates, fill

logger = logging.getLogger(__name__)

DEFAULT_SEPARATOR = "\n\n"
DEFAULT_DYNAMIC_THRESHOLD = 800


@dataclass
class AggregationInput:
    """Client prompts to merge, kept in ascending client-id order."""

    prompts: list[tuple[int, PromptState]]
    separator: str = DEFAULT_SEPARATOR
    budget: int = DEFAULT_CONTEXT_WINDOW
    backend: Backend | None = None

    def __post_init__(self) -> None:
        if not self.prompts:
            raise ValueError("aggregation needs at least one prompt")
        if self.budget <= 0:
            raise ValueError("budget must be positive")
        self.prompts = sorted(self.prompts, key=lambda cp: cp[0])

    def texts(self) -> list[str]:
        return [state.text for _, state in self.prompts]

    def concat_text(self) -> str:
        return self.separator.join(self.texts())


def aggregate_concat(agg_input: AggregationInput) -> PromptState:
    """Join the prompts with the separator; no model call.

    Token length is additive: parts plus (k-1) separators. The result must
    fit the budget — overflow is this strategy's documented failure mode.
    """
    text = agg_input.concat_text()
    tokens = count_tokens(text)
    if tokens > agg_input.budget:
        raise ContextWindowExceeded(
            f"concatenated prompt is {tokens} tokens against a budget of {agg_input.budget}",
            needed=tokens,
            budget=agg_input.budget,
        )
    return PromptState(text=text, producer="concat")


def _summarize(
    agg_input: AggregationInput,
    templates: Templates | None,
    final_instruction: str | None,
    uid: bool,
) -> PromptState:
    """One call merging the numbered client prompts; ``uid`` adds the
    uniform-information-density nudge to the request."""
    if agg_input.backend is None:
        raise ValueError("summarization strategies need a backend")
    templates = templates or default_templates()
    template = templates.summarize_uid_template if uid else templates.summarize_template
    numbered = "\n\n".join(
        f"{i}. {text}" for i, text in enumerate(agg_input.texts(), start=1)
    )
    result = agg_input.backend.generate(
        GenerationRequest(
            tag="aggregation_summarize",
            system_text="",
            user_text=fill(template, prompts=numbered),
        )
    )
    merged = result.text.strip()
    if not merged:
        raise EmptyOutput("summarization returned blank text")
    if final_instruction and not merged.endswith(final_instruction.strip()):
        logger.warning(
            "summarized prompt does not end with the designated final instruction"
        )
    return PromptState(text=merged, producer="summarize_uid" if uid else "summarize")


def aggregate_dynamic(
    agg_input: AggregationInput,
    threshold: int = DEFAULT_DYNAMIC_THRESHOLD,
    templates: Templates | None = None,
    final_instruction: str | None = None,
) -> PromptState:
    """Concatenate while the result fits ``threshold`` tokens, else summarize.

    The boundary stays with concatenation: exactly ``threshold`` tokens does
    not switch.
    """
    would_be = count_tokens(agg_input.concat_text())
    if would_be <= threshold:
        return aggregate_concat(agg_input)
    return _summarize(agg_input, templates, final_instruction, uid=False)


STRATEGY_IDS = ("concat", "summarize", "summarize-uid", "dynamic")


def aggregate(
    strategy: str,
    agg_input: AggregationInput,
    templates: Templates | None = None,
    threshold: int = DEFAULT_DYNAMIC_THRESHOLD,
    final_instruction: str | None = None,
) -> PromptState:
    """Dispatch on a strategy id from :data:`STRATEGY_IDS`."""
    if strategy == "concat":
        return aggregate_concat(agg_input)
    if strategy in ("summarize", "summarize-uid"):
        return _summarize(agg_input, templates, final_instruction, uid=strategy == "summarize-uid")
    if strategy == "dynamic":
        return aggregate_dynamic(agg_input, threshold, templates, final_instruction)
    raise ValueError(f"unknown aggregation strategy: {strategy!r}")
