"""Prompt templates for gradient, update, and summarization calls.

Templates live in a JSON file so a run manifest can pin their exact bytes.
Placeholders are spelled ``{name}`` and substituted in one pass — prompts
routinely contain braces, so ``str.format`` is a trap here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from fedprompt.errors import ConfigError
from fedprompt.inputs import BUNDLED, fault, read_json

TGD_ANCHOR = "Below are the criticisms on"

#: The placeholders the package fills in each template; each must be present.
PLACEHOLDERS = {
    "gradient_response_template": ("{response}", "{evaluation}"),
    "gradient_prompt_template": ("{prompt}", "{response}", "{response_feedback}"),
    "tgd_template": ("{prompt}", "{criticisms}"),
    "summarize_template": ("{prompts}",),
    "summarize_uid_template": ("{prompts}",),
}


def fill(template: str, **values: str) -> str:
    """Substitute ``{key}`` placeholders in one pass over ``template``.

    Other braces are left alone, and inserted text is never searched again,
    so a value holding ``{response}`` stays as written.
    """
    return re.sub(r"\{(\w+)\}", lambda m: values.get(m[1], m[0]), template)


@dataclass(frozen=True)
class Templates:
    evaluation_instruction: str
    gradient_response_template: str
    gradient_prompt_template: str
    tgd_template: str
    summarize_template: str
    summarize_uid_template: str

    def __post_init__(self) -> None:
        if TGD_ANCHOR not in self.tgd_template:
            raise ConfigError(f"tgd_template must contain the anchor {TGD_ANCHOR!r}")
        for name, placeholders in PLACEHOLDERS.items():
            for placeholder in placeholders:
                if placeholder not in getattr(self, name):
                    raise ConfigError(f"{name} must contain the placeholder {placeholder}")

    @classmethod
    def from_file(cls, path: str | Path, digests: dict[str, str] | None = None) -> "Templates":
        """Templates from a JSON file; with ``digests``, its sha256 is stored under its path."""
        return cls.from_dict(read_json(path, ConfigError, "template", digests), source=str(path))

    @classmethod
    def from_dict(cls, raw: object, source: str = "<dict>") -> "Templates":
        names = [f.name for f in fields(cls)]
        wrong = [n for n in names if not (isinstance(raw, dict) and isinstance(raw.get(n), str))]
        if wrong:
            raise fault(ConfigError, "template", source, f"needs a JSON object with string keys {', '.join(wrong)}")
        try:
            return cls(**{n: raw[n] for n in names})
        except ConfigError as exc:
            raise fault(ConfigError, "template", source, str(exc)) from exc


@lru_cache(maxsize=1)
def default_templates() -> Templates:
    """The templates bundled with the package."""
    return Templates.from_file(BUNDLED / "templates.json")
