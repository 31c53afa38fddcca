"""Task data: loading, splitting, federated partitioning, and exact-match scoring."""

from __future__ import annotations

import json
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

DEFAULT_SPLIT_RATIOS = (0.6, 0.2, 0.2)


@dataclass
class TaskExample:
    id: str
    question: str
    answer: str
    task_name: str = ""
    split: str = ""


@dataclass
class Partition:
    """Assignment of training example ids to clients."""

    assignments: dict[int, list[str]]
    mode: str  # "homogeneous" | "heterogeneous"
    seed: int | None = None


@dataclass
class FederatedData:
    """Splits plus the client partition of the training split."""

    train: list[TaskExample]
    val: list[TaskExample]
    test: list[TaskExample]
    partition: Partition
    by_id: dict[str, TaskExample] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_id:
            self.by_id = {ex.id: ex for ex in self.train + self.val + self.test}

    def client_examples(self, client_id: int) -> list[TaskExample]:
        return [self.by_id[i] for i in self.partition.assignments[client_id]]


def load_dataset(path: str | Path, task_name: str = "") -> list[TaskExample]:
    """Load a JSONL task file.

    Each line holds ``{id?, question|input, answer|target}``. Missing ids are
    synthesized from line numbers. Answers carrying the ``#### N`` final-answer
    convention are reduced to the part after the last ``####``.
    """
    path = Path(path)
    task_name = task_name or path.stem
    examples: list[TaskExample] = []
    seen: set[str] = set()
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except ValueError as exc:
                raise ParseError(f"line {line_no} is not valid JSON: {exc}", line=line_no) from exc
            if not isinstance(raw, dict):
                raise ParseError(f"line {line_no} is not an object", line=line_no)
            question = raw.get("question", raw.get("input"))
            answer = raw.get("answer", raw.get("target"))
            if question is None or answer is None:
                raise ParseError(
                    f"line {line_no} lacks a question/input or answer/target field",
                    line=line_no,
                )
            answer = str(answer)
            if "####" in answer:
                answer = answer.rsplit("####", 1)[1]
            answer = answer.strip().replace(",", "")
            if not str(question).strip() or not answer:
                raise ParseError(f"line {line_no} has an empty question or answer", line=line_no)
            ex_id = str(raw.get("id") or f"{task_name}:{line_no}")
            if ex_id in seen:
                raise DuplicateId(f"duplicate example id {ex_id!r} at line {line_no}")
            seen.add(ex_id)
            examples.append(
                TaskExample(id=ex_id, question=str(question), answer=answer, task_name=task_name)
            )
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
    splits = {
        "train": shuffled[:n_train],
        "val": shuffled[n_train : n_train + n_val],
        "test": shuffled[n_train + n_val :],
    }
    for name, rows in splits.items():
        for ex in rows:
            ex.split = name
    return splits


def partition_homogeneous(train: list[TaskExample], n_clients: int, seed: int = 0) -> Partition:
    """Random equal split of the training examples across clients."""
    if n_clients < 1:
        raise ValueError("n_clients must be >= 1")
    if n_clients > len(train):
        raise TooManyClients(f"{n_clients} clients but only {len(train)} training examples")
    ids = [ex.id for ex in train]
    Random(f"{seed}:partition").shuffle(ids)
    assignments = {cid: ids[cid::n_clients] for cid in range(n_clients)}
    return Partition(assignments=assignments, mode="homogeneous", seed=seed)


def partition_heterogeneous(datasets_by_task: dict[str, list[TaskExample]]) -> Partition:
    """One task per client, clients ordered by task name."""
    assignments: dict[int, list[str]] = {}
    for cid, task_name in enumerate(sorted(datasets_by_task)):
        rows = datasets_by_task[task_name]
        impure = [ex.id for ex in rows if ex.task_name != task_name]
        if impure:
            raise ValueError(f"client {cid} holds examples from other tasks: {impure[:3]}")
        assignments[cid] = [ex.id for ex in rows]
    return Partition(assignments=assignments, mode="heterogeneous")


def build_federated_data(
    examples: list[TaskExample],
    n_clients: int,
    ratios: tuple[float, float, float] = DEFAULT_SPLIT_RATIOS,
    seed: int = 0,
    heterogeneous: bool = False,
) -> FederatedData:
    """Split a dataset and partition its training half across clients.

    Homogeneous mode shuffles one pooled dataset. Heterogeneous mode groups
    by task name — one task per client — while validation and test stay
    pooled at the server.
    """
    if heterogeneous:
        tasks = sorted({ex.task_name for ex in examples})
        if len(tasks) != n_clients:
            raise TooManyClients(
                f"heterogeneous mode needs one task per client: {len(tasks)} tasks, "
                f"{n_clients} clients"
            )
        train: list[TaskExample] = []
        val: list[TaskExample] = []
        test: list[TaskExample] = []
        train_by_task: dict[str, list[TaskExample]] = {}
        for task_name in tasks:
            rows = [ex for ex in examples if ex.task_name == task_name]
            splits = split_dataset(rows, ratios, seed)
            train_by_task[task_name] = splits["train"]
            train += splits["train"]
            val += splits["val"]
            test += splits["test"]
        partition = partition_heterogeneous(train_by_task)
        return FederatedData(train=train, val=val, test=test, partition=partition)
    splits = split_dataset(examples, ratios, seed)
    partition = partition_homogeneous(splits["train"], n_clients, seed)
    return FederatedData(
        train=splits["train"], val=splits["val"], test=splits["test"], partition=partition
    )


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
class ScoreRecord:
    example_id: str
    expected: str
    extracted: str | None
    correct: bool


@dataclass
class ScoreReport:
    accuracy: float
    correct: int
    total: int
    parse_failures: int
    records: list[ScoreRecord]


def score(
    prompt: "str | Any",
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
    prompt_text = getattr(prompt, "text", prompt)

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
    records: list[ScoreRecord] = []
    for ex, response in zip(examples, responses):
        expected = normalize_answer(ex.answer)
        try:
            extracted: str | None = extract_answer(response)
        except ExtractionFailure:
            extracted = None
        records.append(ScoreRecord(ex.id, expected, extracted, extracted == expected))
    correct = sum(r.correct for r in records)
    return ScoreReport(
        accuracy=correct / len(examples),
        correct=correct,
        total=len(examples),
        parse_failures=sum(r.extracted is None for r in records),
        records=records,
    )
