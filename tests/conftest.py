from __future__ import annotations

import json
import random
import re
import threading
import time
from importlib import resources
from pathlib import Path

import pytest

from fedprompt.backends.base import GenerationRequest
from fedprompt.backends.mock import MockBackend
from fedprompt.backends.rules import (
    counting_rule_backend,
    evaluation_rule,
    forward_rule,
    gradient_prompt_rule,
    gradient_response_rule,
    summarize_rule,
    tgd_rule,
)
from fedprompt.tasks import TaskExample, build_federated_data, load_dataset

FINAL_INSTRUCTION = (
    'The last line of your response should be of the following format: '
    '"Answer: $VALUE" where VALUE is a numerical value.'
)


@pytest.fixture()
def demo_examples() -> list[TaskExample]:
    with resources.as_file(
        resources.files("fedprompt").joinpath("data/demo_counting.jsonl")
    ) as path:
        return load_dataset(path)


@pytest.fixture()
def demo_data(demo_examples):
    return build_federated_data(demo_examples, 3, seed=7)


@pytest.fixture()
def rule_backend() -> MockBackend:
    return counting_rule_backend()


def write_jsonl(path: Path, rows: list[dict]) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def make_counting_rows(n: int, start: int = 1) -> list[dict]:
    """Tiny deterministic counting questions, one item pair per row."""
    rows = []
    for i in range(start, start + n):
        a, b = (i % 7) + 1, (i % 5) + 2
        rows.append(
            {
                "id": f"t:{i}",
                "question": f"You have {a} pens and {b} mugs. How many objects do you have in total?",
                "answer": str(a + b),
            }
        )
    return rows


def make_examples(n: int, task_name: str = "counting") -> list[TaskExample]:
    return [
        TaskExample(
            id=row["id"], question=row["question"], answer=row["answer"], task_name=task_name
        )
        for row in make_counting_rows(n)
    ]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion at the end of the run."""
    outcomes: dict[str, str] = {}
    for status, label in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for report in terminalreporter.stats.get(status, []):
            if "test_acceptance.py::" in report.nodeid and report.when == "call":
                outcomes[report.nodeid.split("::")[-1]] = label
    if outcomes:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name in sorted(outcomes):
            terminalreporter.write_line(f"{outcomes[name]}  {name}")


def alternating_backend() -> MockBackend:
    """Mock whose update steps alternate worse/better candidate prompts.

    Every ``tgd_step`` call mints a prompt stamped ``[vN]`` with N counting
    up from 1. Forward calls answer correctly only when the prompt's stamp is
    even (an unstamped prompt counts as v0, correct) — so candidates
    alternate wrong, right, wrong, right as the optimization proceeds.
    """
    backend = MockBackend()
    counter = {"n": 0}

    def alternating_tgd(request):
        if request.tag != "tgd_step":
            return None
        counter["n"] += 1
        return f"[v{counter['n']}] Answer the counting question. {FINAL_INSTRUCTION}"

    def versioned_forward(request):
        if request.tag != "forward":
            return None
        stamp = re.search(r"\[v(\d+)\]", request.system_text)
        version = int(stamp.group(1)) if stamp else 0
        total = sum(int(n) for n in re.findall(r"\d+", request.user_text))
        if version % 2 == 0:
            return f"Answer: {total}"
        return "Answer: 999999"

    backend.add_rule(alternating_tgd)
    backend.add_rule(versioned_forward)
    backend.add_rule(evaluation_rule)
    backend.add_rule(gradient_response_rule)
    backend.add_rule(gradient_prompt_rule)
    return backend


#: Fixed openings of the bundled templates that go out without a system text;
#: a request with a system text is a forward call, anything else is a judge call.
_TAG_BY_OPENING = (
    ("Below are the criticisms on", "tgd_step"),
    ("Merge the following", "aggregation_summarize"),
    ("The system prompt below produced", "gradient_prompt"),
    ("Here is a response:", "gradient_response"),
)

COUNTING_RULES = (
    forward_rule, evaluation_rule, gradient_response_rule, gradient_prompt_rule, tgd_rule, summarize_rule,
)


def chat_request(payload: dict) -> GenerationRequest:
    """The tagged request a chat-completions payload was built from."""
    texts = {m["role"]: m["content"] for m in payload["messages"]}
    system, user = texts.get("system", ""), texts["user"]
    tag = "forward" if system else next(
        (tag for opening, tag in _TAG_BY_OPENING if user.startswith(opening)), "evaluation"
    )
    return GenerationRequest(tag=tag, system_text=system, user_text=user, temperature=payload["temperature"])


class ChatResponse:
    status_code = 200
    text = ""
    headers: dict = {}

    def __init__(self, content: str):
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


class ServerError:
    """A response with HTTP 500, which the remote backend does not retry."""

    status_code = 500
    text = "internal server error"
    headers: dict = {}


class LatencySession:
    """Thread-safe stand-in for ``requests.Session`` that answers chat
    completions with rule functions after sleeping ``delay`` seconds (times a
    seeded factor in [0.5, 1.5) with ``jitter``), which stands in for a
    remote model. ``peak`` is the most posts that were in flight at once."""

    def __init__(self, delay: float = 0.0, rules=COUNTING_RULES, jitter: bool = False):
        self.delay = delay
        self.rules = rules
        self.posts = 0
        self.peak = 0
        self._in_flight = 0
        self._jitter = random.Random(0) if jitter else None
        self._lock = threading.Lock()

    def post(self, url, json=None, headers=None, timeout=None):
        request = chat_request(json)
        with self._lock:
            self.posts += 1
            self._in_flight += 1
            self.peak = max(self.peak, self._in_flight)
            delay = self.delay * (0.5 + self._jitter.random()) if self._jitter else self.delay
        try:
            if delay:
                time.sleep(delay)
            return ChatResponse(next(text for text in (rule(request) for rule in self.rules) if text is not None))
        finally:
            with self._lock:
                self._in_flight -= 1
