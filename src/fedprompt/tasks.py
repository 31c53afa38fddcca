"""Task data: loading, splitting, federated partitioning, and exact-match scoring."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from pathlib import Path
from random import Random
from typing import Any, Iterable

from fedprompt.backends.base import Backend, GenerationRequest
from fedprompt.errors import (
    DuplicateId,
    ExtractionFailure,
    ParseError,
    TooManyClients,
)
from fedprompt.inputs import fault, read_jsonl

DEFAULT_SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class TaskExample:
    id: str
    question: str
    answer: str
    task_name: str = ""


@dataclass
class FederatedData:
    """Splits plus the client assignment of training example ids."""

    train: list[TaskExample]
    val: list[TaskExample]
    test: list[TaskExample]
    assignments: dict[int, list[str]]
    by_id: dict[str, TaskExample] = field(init=False)

    def __post_init__(self) -> None:
        self.by_id = {ex.id: ex for ex in self.train + self.val + self.test}

    def client_examples(self, client_id: int) -> list[TaskExample]:
        return [self.by_id[i] for i in self.assignments[client_id]]


def load_dataset(path: str | Path, digests: dict[str, str] | None = None) -> list[TaskExample]:
    """Load a JSONL task file (see :func:`~fedprompt.inputs.read_json` for ``digests``).

    Each line holds ``{id?, question|input, answer|target}``. The task is
    named after the file's stem; missing ids are synthesized from it and the
    line numbers. Answers carrying the ``#### N`` final-answer convention are
    reduced to the part after the last ``####``.
    """
    task_name = Path(str(path)).stem
    bad = partial(fault, ParseError, "dataset", path)
    examples: list[TaskExample] = []
    seen: set[str] = set()
    for line_no, raw in read_jsonl(path, ParseError, "dataset", digests):
        raw = raw if isinstance(raw, dict) else {}
        question = raw.get("question", raw.get("input"))
        answer = raw.get("answer", raw.get("target"))
        if question is None or answer is None:
            raise bad("needs an object with a question/input and an answer/target field", line_no)
        answer = str(answer).rsplit("####", 1)[-1].strip().replace(",", "")
        if not str(question).strip() or not answer:
            raise bad("has an empty question or answer", line_no)
        ex_id = str(raw.get("id") or f"{task_name}:{line_no}")
        if ex_id in seen:
            raise fault(DuplicateId, "dataset", path, f"duplicate example id {ex_id!r}", line_no)
        seen.add(ex_id)
        examples.append(TaskExample(id=ex_id, question=str(question), answer=answer, task_name=task_name))
    return examples


def exact_fraction(x: float | int | str) -> Fraction:
    """The decimal a human wrote, not the binary float they got.

    ``Fraction(str(0.7))`` is 7/10; ``Fraction(0.7)`` is not. Split ratios and
    sampling-rate arithmetic must use the former.
    """
    return Fraction(str(x))


def _exact_sizes(n: int, ratios: Iterable[float]) -> list[int]:
    """Split sizes by largest remainder over exact decimal ratios."""
    fractions = [exact_fraction(r) for r in ratios]
    if any(f <= 0 for f in fractions) or sum(fractions) != 1:
        raise ValueError(f"ratios must be positive and sum to 1, got {tuple(ratios)}")
    raw = [f * n for f in fractions]
    sizes = [math.floor(r) for r in raw]
    remainders = [r - s for r, s in zip(raw, sizes)]
    leftover = n - sum(sizes)
    # hand leftover items to the largest remainders, earlier splits first on ties
    order = sorted(range(len(sizes)), key=lambda i: (-remainders[i], i))
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split_dataset(
    examples: list[TaskExample],
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
) -> dict[str, list[TaskExample]]:
    """Deterministic train/val/test split."""
    shuffled = list(examples)
    Random(f"{seed}:split").shuffle(shuffled)
    n_train, n_val, n_test = _exact_sizes(len(shuffled), ratios)
    return {
        "train": shuffled[:n_train],
        "val": shuffled[n_train : n_train + n_val],
        "test": shuffled[n_train + n_val :],
    }


def partition_homogeneous(train: list[TaskExample], n_clients: int, seed: int = 0) -> dict[int, list[str]]:
    """Random equal split of the training example ids across clients."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > len(train):
        raise TooManyClients(f"{n_clients} clients but only {len(train)} training examples")
    ids = [ex.id for ex in train]
    Random(f"{seed}:partition").shuffle(ids)
    return {cid: ids[cid::n_clients] for cid in range(n_clients)}


def build_federated_data(
    examples: list[TaskExample],
    n_clients: int,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
    heterogeneous: bool = False,
) -> FederatedData:
    """Split a dataset and assign its training ids to clients.

    Homogeneous mode splits one pooled group and shuffles its training ids
    across the clients. Heterogeneous mode splits one group per task name,
    and client *i* holds the training ids of the *i*-th task in name order.
    Validation and test stay pooled at the server in both modes.
    """
    groups = [examples]
    if heterogeneous:
        tasks = sorted({ex.task_name for ex in examples})
        if len(tasks) != n_clients:
            raise TooManyClients(
                f"heterogeneous mode needs one task per client: {len(tasks)} tasks, "
                f"{n_clients} clients"
            )
        groups = [[ex for ex in examples if ex.task_name == task] for task in tasks]
    splits = [split_dataset(rows, ratios, seed) for rows in groups]
    train, val, test = ([ex for s in splits for ex in s[name]] for name in ("train", "val", "test"))
    if heterogeneous:
        assignments = {cid: [ex.id for ex in s["train"]] for cid, s in enumerate(splits)}
    else:
        assignments = partition_homogeneous(train, n_clients, seed)
    return FederatedData(train=train, val=val, test=test, assignments=assignments)


# -- answer extraction and scoring ----------------------------------------------

_ANSWER_RE = re.compile(r"(?i)answer\s*:\s*(.+?)\s*$")
_NUMERIC_RE = re.compile(r"^-?(\d+\.?\d*|\.\d+)$")


@lru_cache(maxsize=4096)  # scoring normalizes each expected answer again and again
def normalize_answer(value: str) -> str:
    """Canonical form of an extracted VALUE.

    Strips markdown emphasis, currency signs, thousands separators, and a
    trailing period, then renders numerics canonically (``11.0`` → ``11``,
    ``011`` → ``11``). Non-numeric remainders are returned stripped.
    """
    value = value.strip()
    while True:  # decoration can nest ("**11.**"), so strip to a fixpoint
        before = value
        value = re.sub(r"^[*_`]+|[*_`]+$", "", value).strip()
        if value.endswith("."):
            value = value[:-1].strip()
        value = value.replace("$", "").replace(",", "").strip()
        if value == before:
            break
    if _NUMERIC_RE.match(value):
        if "." not in value:
            return str(int(value))  # exact for integers of any width
        number = float(value)
        if math.isfinite(number):
            if number == int(number):
                return str(int(number))
            return repr(number)
    return value


def extract_answer(response_text: str) -> str:
    """VALUE from the last ``Answer: VALUE`` line of a response."""
    for line in reversed(response_text.splitlines()):
        match = _ANSWER_RE.search(line)
        if match:
            return normalize_answer(match.group(1))
    raise ExtractionFailure("no 'Answer: VALUE' line in response")


@dataclass
class ScoreReport:
    accuracy: float
    correct: int
    total: int
    parse_failures: int


def score(
    prompt_text: str,
    examples: list[TaskExample],
    backend: Backend,
    metadata: dict[str, Any] | None = None,
) -> ScoreReport:
    """Exact-match accuracy of a prompt over examples.

    Issues one greedy forward call per example, through the backend's
    fan-out. Extraction failures count as incorrect and are tallied
    separately.
    """
    if not examples:
        raise ValueError("score needs at least one example")

    def answer(ex: TaskExample) -> str:
        return backend.generate(
            GenerationRequest(
                tag="forward",
                system_text=prompt_text,
                user_text=ex.question,
                temperature=0.0,
                metadata={**(metadata or {}), "example_id": ex.id},
            )
        ).text

    responses = backend.fan_out.gather([partial(answer, ex) for ex in examples])
    correct = parse_failures = 0
    for ex, response in zip(examples, responses):
        try:
            correct += extract_answer(response) == normalize_answer(ex.answer)
        except ExtractionFailure:
            parse_failures += 1
    return ScoreReport(
        accuracy=correct / len(examples),
        correct=correct,
        total=len(examples),
        parse_failures=parse_failures,
    )
