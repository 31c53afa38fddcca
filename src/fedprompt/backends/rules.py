"""A fully self-contained rule backend for the bundled counting task.

Answers every request kind deterministically: forwards solve the counting
question by summing the item counts it mentions, the judge compares the
response's answer line to the ground truth, gradient and update calls return
fixed texts, and summarization does an order-preserving sentence merge that
keeps the designated final instruction last. This is what ``--backend mock``
uses when no script file is supplied.
"""

from __future__ import annotations

import re

from fedprompt.backends.base import GenerationRequest
from fedprompt.backends.mock import MockBackend
from fedprompt.prompts import FINAL_INSTRUCTION
from fedprompt.templates import TGD_ANCHOR

REVISED_PROMPT = (
    "Count the objects in the question by adding the stated quantities one by one, "
    "showing the addition. " + FINAL_INSTRUCTION
)

_ANSWER_LINE = re.compile(r"(?i)answer\s*:\s*\$?([-\d.,]+)")


def forward_rule(request: GenerationRequest) -> str | None:
    if request.tag != "forward":
        return None
    counts = [int(n) for n in re.findall(r"\d+", request.user_text)]
    total = sum(counts)
    if counts:
        steps = " + ".join(str(n) for n in counts)
        return f"Adding the items gives {steps} = {total}. Answer: {total}"
    return f"There is nothing to count. Answer: {total}"


def evaluation_rule(request: GenerationRequest) -> str | None:
    if request.tag != "evaluation":
        return None
    # judge input is response, then instruction, then ground truth
    truth = request.user_text.strip().split()[-1]
    matches = _ANSWER_LINE.findall(request.user_text)
    answered = matches[0].rstrip(".") if matches else None
    if answered == truth:
        return "The response is correct."
    return "This response can be improved by checking the arithmetic against the question."


def gradient_response_rule(request: GenerationRequest) -> str | None:
    if request.tag != "gradient_response":
        return None
    return "The response should show each addition step and end with the required answer line."


def gradient_prompt_rule(request: GenerationRequest) -> str | None:
    if request.tag != "gradient_prompt":
        return None
    return (
        "This response can be improved by making the prompt demand explicit step-by-step "
        "addition before the answer line."
    )


def tgd_rule(request: GenerationRequest) -> str | None:
    if request.tag != "tgd_step" or TGD_ANCHOR not in request.user_text:
        return None
    return REVISED_PROMPT


def summarize_rule(request: GenerationRequest) -> str | None:
    if request.tag != "aggregation_summarize":
        return None
    marker = "Provide only the merged prompt."
    idx = request.user_text.find(marker)
    body = request.user_text[idx + len(marker) :] if idx >= 0 else request.user_text
    items = [p.strip() for p in re.split(r"(?m)^\s*\d+\.\s+", body) if p.strip()]
    seen: set[str] = set()
    sentences: list[str] = []
    for item in items:
        for sentence in re.split(r"(?<=\.)\s+", item):
            sentence = sentence.strip()
            if sentence and sentence not in seen:
                seen.add(sentence)
                sentences.append(sentence)
    if FINAL_INSTRUCTION in seen:
        sentences = [s for s in sentences if s != FINAL_INSTRUCTION] + [FINAL_INSTRUCTION]
    return " ".join(sentences)


def counting_rule_backend(descriptor=None) -> MockBackend:
    """Mock backend whose rules cover all six request kinds."""
    backend = MockBackend(descriptor)
    for rule in (forward_rule, evaluation_rule, gradient_response_rule, gradient_prompt_rule, tgd_rule, summarize_rule):
        backend.add_rule(rule)
    return backend
