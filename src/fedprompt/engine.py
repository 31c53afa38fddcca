"""Textual-gradient steps over plain strings.

The optimization variable is text. A forward pass answers a query with the
current prompt; an evaluation pass judges the answer; the backward pass asks
the model for criticism — first of the response, then of the prompt given
that criticism (the chain rule, in prose) — and the update step rewrites the
prompt to incorporate the criticisms gathered for it.

Each function records the ``metadata`` it is given as is, without a copy, so
one example's calls share the caller's dict; callers must not mutate it
afterwards.
"""

from __future__ import annotations

from typing import Any

from fedprompt.backends.base import Backend, GenerationRequest
from fedprompt.errors import EmptyGradient
from fedprompt.templates import Templates, default_templates, fill

Metadata = dict[str, Any] | None


def _generate(backend: Backend, tag: str, system_text: str, user_text: str, metadata: Metadata) -> str:
    request = GenerationRequest(tag=tag, system_text=system_text, user_text=user_text, metadata=metadata or {})
    return backend.generate(request).text


def forward_response(prompt: str, query: str, backend: Backend, metadata: Metadata = None) -> str:
    """Generate a response to ``query`` under ``prompt``.

    The prompt rides in the system channel and the query in the user channel.
    """
    if not prompt or not query:
        raise ValueError("forward_response needs a non-empty prompt and query")
    return _generate(backend, "forward", prompt, query, metadata)


def evaluate(
    response: str, ground_truth: str, eval_instruction: str, backend: Backend, metadata: Metadata = None
) -> str:
    """Judge ``response`` against ``ground_truth``.

    The judge sees response, instruction, and ground truth concatenated in
    that order; its prose verdict is the evaluation.
    """
    if not eval_instruction:
        raise ValueError("evaluate needs a non-empty eval_instruction")
    user_text = "\n\n".join([response, eval_instruction, ground_truth])
    return _generate(backend, "evaluation", "", user_text, metadata)


def backward(
    prompt: str,
    response: str,
    evaluation: str,
    backend: Backend,
    templates: Templates | None = None,
    metadata: Metadata = None,
) -> str:
    """Turn the evaluation of ``response`` into criticism of ``prompt``.

    Two calls, in order: criticism of the response given the evaluation,
    then criticism of the prompt given the response and that criticism.
    Returns the prompt's criticism.
    """
    templates = templates or default_templates()
    user_text = fill(templates.gradient_response_template, response=response, evaluation=evaluation)
    feedback = _generate(backend, "gradient_response", "", user_text, metadata)
    user_text = fill(
        templates.gradient_prompt_template, prompt=prompt, response=response, response_feedback=feedback
    )
    return _generate(backend, "gradient_prompt", "", user_text, metadata)


def tgd_step(
    prompt: str,
    criticisms: list[str],
    backend: Backend,
    templates: Templates | None = None,
    metadata: Metadata = None,
) -> str:
    """Rewrite ``prompt`` to incorporate ``criticisms``, in their order.

    Unconditional: whether the rewritten prompt replaces the old one is the
    caller's decision, not this function's.
    """
    templates = templates or default_templates()
    if not criticisms:
        raise EmptyGradient("tgd_step called with no criticisms")
    user_text = fill(templates.tgd_template, prompt=prompt, criticisms="\n".join(f"- {c}" for c in criticisms))
    return _generate(backend, "tgd_step", "", user_text, metadata)
