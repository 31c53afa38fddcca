"""Seeded input generator for the benchmark workloads.

Everything here is a pure function of its seed: the same seed writes the same
bytes. The module imports nothing from ``fedprompt``, so generating inputs can
be timed as part of set-up without pulling the package in.
"""

from __future__ import annotations

import json
from pathlib import Path
from random import Random

OBJECTS = (
    "tables", "chairs", "trumpets", "cars", "lamps", "bananas", "violins", "drums",
    "oranges", "bicycles", "fridges", "pianos", "ovens", "apples", "toasters", "plums",
    "grapes", "trucks", "stoves", "pears", "flutes", "couches", "beds", "microwaves",
    "peaches",
)

#: fed-long-mock dataset size. 600 × (0.6, 0.2, 0.2) splits exactly into
#: 360/120/120, and 360 training questions split evenly over 10 clients, so
#: every client partition holds 36 questions and the call-count law needs no
#: knowledge of which clients were sampled.
LONG_DATASET_SIZE = 600

#: surprisal-long: the oracle's training corpus and the scored texts.
CORPUS_LINES = 2000
SHORT_TEXT_TOKENS = 50
LONG_TEXT_TOKENS = 3000
COMPARE_TEXT_TOKENS = (1000, 2000)


def counting_question(rng: Random) -> tuple[str, int]:
    """One question in the bundled demo's wording, and its answer."""
    items = rng.sample(OBJECTS, rng.randint(2, 4))
    counts = [rng.randint(1, 9) for _ in items]
    parts = [f"{n} {obj}" for n, obj in zip(counts, items)]
    listing = ", ".join(parts[:-1]) + ", and " + parts[-1]
    return f"You have {listing}. How many objects do you have in total?", sum(counts)


def counting_dataset(seed: int, n: int = LONG_DATASET_SIZE) -> list[dict]:
    rng = Random(f"{seed}:dataset")
    rows = []
    for i in range(1, n + 1):
        question, answer = counting_question(rng)
        rows.append({"id": f"gen:{i}", "question": question, "answer": str(answer)})
    return rows


def counting_text(rng: Random, n_tokens: int) -> str:
    """Counting prose cut to exactly ``n_tokens`` whitespace tokens."""
    tokens: list[str] = []
    while len(tokens) < n_tokens:
        question, answer = counting_question(rng)
        tokens.extend(f"{question} Answer: {answer}".split())
    return " ".join(tokens[:n_tokens])


def corpus_lines(seed: int, n: int = CORPUS_LINES) -> list[str]:
    rng = Random(f"{seed}:corpus")
    out = []
    for _ in range(n):
        question, answer = counting_question(rng)
        out.append(f"{question} Answer: {answer}")
    return out


def write_fed_long_inputs(seed: int, directory: Path) -> dict[str, Path]:
    path = directory / "counting.jsonl"
    with path.open("w", encoding="utf-8") as fh:
        for row in counting_dataset(seed):
            fh.write(json.dumps(row) + "\n")
    return {"dataset": path}


def write_surprisal_inputs(seed: int, directory: Path) -> dict[str, Path]:
    rng = Random(f"{seed}:texts")
    texts = {
        "short": counting_text(rng, SHORT_TEXT_TOKENS),
        "long": counting_text(rng, LONG_TEXT_TOKENS),
        "compare_a": counting_text(rng, COMPARE_TEXT_TOKENS[0]),
        "compare_b": counting_text(rng, COMPARE_TEXT_TOKENS[1]),
    }
    paths = {"corpus": directory / "corpus.txt"}
    paths["corpus"].write_text("\n".join(corpus_lines(seed)) + "\n", encoding="utf-8")
    for name, text in texts.items():
        paths[name] = directory / f"{name}.txt"
        paths[name].write_text(text + "\n", encoding="utf-8")
    return paths


def write_inputs(workload: str, seed: int, directory: Path) -> dict[str, Path]:
    """Generate a workload's input files; the demo workloads have none."""
    if workload == "fed-long-mock":
        return write_fed_long_inputs(seed, directory)
    if workload == "surprisal-long":
        return write_surprisal_inputs(seed, directory)
    return {}
