"""Prompt templates for gradient, update, and summarization calls.

Templates live in a JSON file so a run manifest can pin their exact bytes.
Placeholders are spelled ``{name}`` and substituted with plain string
replacement — prompts routinely contain braces, so ``str.format`` is a trap
here.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path

from fedprompt.errors import ConfigError
from fedprompt.inputs import BUNDLED, fault, read_json

TGD_ANCHOR = "Below are the criticisms on"


def fill(template: str, **values: str) -> str:
    """Substitute ``{key}`` placeholders without interpreting other braces."""
    out = template
    for key, value in values.items():
        out = out.replace("{" + key + "}", value)
    return out


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
        for placeholder in ("{prompt}", "{criticisms}"):
            if placeholder not in self.tgd_template:
                raise ConfigError(f"tgd_template must contain the placeholder {placeholder}")
        for name in ("summarize_template", "summarize_uid_template"):
            if "{prompts}" not in getattr(self, name):
                raise ConfigError(f"{name} must contain the placeholder {{prompts}}")

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
        return cls(**{n: raw[n] for n in names})


@lru_cache(maxsize=1)
def default_templates() -> Templates:
    """The templates bundled with the package."""
    return Templates.from_file(BUNDLED / "templates.json")
