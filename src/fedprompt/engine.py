"""Textual-gradient computation graph.

The optimization variable is text. A forward pass answers a query with the
current prompt; an evaluation pass judges the answer; the backward pass asks
the model for criticism — first of the response, then of the prompt given
that criticism (the chain rule, in prose) — and the update step rewrites the
prompt to incorporate the accumulated criticisms.

Each function records the ``metadata`` it is given as is, without a copy, so
one example's calls share the caller's dict; callers must not mutate it
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from fedprompt.backends.base import Backend, GenerationRequest
from fedprompt.errors import EmptyGradient, GraphNotEvaluated
from fedprompt.templates import Templates, default_templates, fill


@dataclass
class Variable:
    """A node in the graph: a text value plus its role and feedback."""

    value: str
    role_description: str = ""
    requires_grad: bool = False
    gradients: list[str] = field(default_factory=list)
    predecessors: list["Variable"] = field(default_factory=list)


def forward_response(
    prompt: Variable,
    query: Variable,
    backend: Backend,
    metadata: dict[str, Any] | None = None,
) -> Variable:
    """Generate a response to ``query`` under ``prompt``.

    The prompt rides in the system channel and the query in the user channel.
    """
    if not prompt.value or not query.value:
        raise ValueError("forward_response needs non-empty prompt and query values")
    result = backend.generate(
        GenerationRequest(
            tag="forward",
            system_text=prompt.value,
            user_text=query.value,
            metadata=metadata or {},
        )
    )
    return Variable(
        value=result.text,
        role_description="response to the query",
        requires_grad=True,
        predecessors=[prompt, query],
    )


def evaluate(
    response: Variable,
    ground_truth: str,
    eval_instruction: str,
    backend: Backend,
    metadata: dict[str, Any] | None = None,
) -> Variable:
    """Judge ``response`` against ``ground_truth``.

    The judge sees response, instruction, and ground truth concatenated in
    that order; its prose verdict becomes the evaluation variable.
    """
    if not eval_instruction:
        raise ValueError("evaluate needs a non-empty eval_instruction")
    user_text = "\n\n".join([response.value, eval_instruction, ground_truth])
    result = backend.generate(
        GenerationRequest(
            tag="evaluation",
            system_text="",
            user_text=user_text,
            metadata=metadata or {},
        )
    )
    return Variable(
        value=result.text,
        role_description="evaluation of the response",
        requires_grad=False,
        predecessors=[response],
    )


def backward(
    evaluation: Variable,
    backend: Backend,
    templates: Templates | None = None,
    metadata: dict[str, Any] | None = None,
) -> None:
    """Propagate the evaluation back to the prompt as textual feedback.

    Two calls, in order: criticism of the response given the evaluation,
    then criticism of the prompt given the response and that criticism.
    Feedback is appended only to variables with ``requires_grad`` set.
    """
    templates = templates or default_templates()
    if not evaluation.predecessors:
        raise GraphNotEvaluated("evaluation variable has no response predecessor")
    response = evaluation.predecessors[0]
    if not response.predecessors:
        raise GraphNotEvaluated("response variable has no prompt predecessor")
    prompt = next(
        (v for v in response.predecessors if v.requires_grad), response.predecessors[0]
    )

    response_feedback = backend.generate(
        GenerationRequest(
            tag="gradient_response",
            system_text="",
            user_text=fill(
                templates.gradient_response_template,
                response=response.value,
                evaluation=evaluation.value,
            ),
            metadata=metadata or {},
        )
    ).text
    if response.requires_grad:
        response.gradients.append(response_feedback)

    prompt_feedback = backend.generate(
        GenerationRequest(
            tag="gradient_prompt",
            system_text="",
            user_text=fill(
                templates.gradient_prompt_template,
                prompt=prompt.value,
                response=response.value,
                response_feedback=response_feedback,
            ),
            metadata=metadata or {},
        )
    ).text
    if prompt.requires_grad:
        prompt.gradients.append(prompt_feedback)


def tgd_step(
    prompt: Variable,
    backend: Backend,
    templates: Templates | None = None,
    metadata: dict[str, Any] | None = None,
) -> Variable:
    """Rewrite the prompt to incorporate its accumulated criticisms.

    Unconditional: whether the rewritten prompt replaces the old one is the
    caller's decision, not this function's.
    """
    templates = templates or default_templates()
    if not prompt.gradients:
        raise EmptyGradient("tgd_step called with no accumulated gradients")
    criticisms = "\n".join(f"- {g}" for g in prompt.gradients)
    result = backend.generate(
        GenerationRequest(
            tag="tgd_step",
            system_text="",
            user_text=fill(templates.tgd_template, prompt=prompt.value, criticisms=criticisms),
            metadata=metadata or {},
        )
    )
    return Variable(
        value=result.text,
        role_description=prompt.role_description,
        requires_grad=True,
        gradients=[],
        predecessors=[prompt],
    )
