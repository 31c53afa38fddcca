"""Prompt lineage state and the default final instruction, shared by the
runtime, the aggregation strategies and the rule backend."""

from __future__ import annotations

from dataclasses import dataclass

#: (round, client_id) for client-produced prompts, (round, "server") for
#: server-produced ones. The initial prompt is (0, "server").
Version = tuple[int, "int | str"]

PRODUCERS = ("init", "tgd", "concat", "summarize", "summarize_uid")

#: Default final instruction: the sentence merged prompts keep last, since it
#: fixes the answer-line format that scoring extracts.
FINAL_INSTRUCTION = (
    'The last line of your response should be of the following format: '
    '"Answer: $VALUE" where VALUE is a numerical value.'
)


@dataclass
class PromptState:
    """One node in the prompt lineage tree rooted at the initial prompt."""

    text: str
    version: Version | None = None
    parent_version: Version | None = None
    producer: str = "init"

    def __post_init__(self) -> None:
        if self.producer not in PRODUCERS:
            raise ValueError(f"unknown producer: {self.producer!r}")

