"""Acceptance suite: one test per release criterion.

Each test is self-contained and runs against mock or oracle backends only.
The terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from random import Random

import pytest

from fedprompt.aggregation import AggregationInput, aggregate_concat, aggregate_dynamic
from fedprompt.backends.base import count_tokens
from fedprompt.backends.mock import MockBackend
from fedprompt.backends.ngram import NgramBackend
from fedprompt.backends.rules import counting_rule_backend
from fedprompt.cli import main
from fedprompt.engine import backward, evaluate, forward_response, tgd_step
from fedprompt.errors import ContextWindowExceeded
from fedprompt.prompts import PromptState
from fedprompt.runtime import RunConfig, run, sample_clients
from fedprompt.tasks import (
    FederatedData,
    build_federated_data,
    extract_answer,
    score,
)
from fedprompt.templates import default_templates
from fedprompt.uid import SurprisalStats, surprisal_series, uid_stats
from tests.conftest import alternating_backend, make_examples
from tests.test_tasks import EXTRACTION_CASES

# ---------------------------------------------------------------------------
# criterion 1 — round-loop golden trace
# ---------------------------------------------------------------------------


def _expected_tags(
    *,
    n_clients: int,
    epochs: int,
    batches: int,
    batch_size: int,
    rounds: int,
    n_val: int,
    n_test: int,
    summarize_calls: int,
) -> list[str]:
    """The exact call-tag sequence one run must produce."""
    per_batch = (
        ["forward", "evaluation", "gradient_response", "gradient_prompt"] * batch_size
        + ["tgd_step"]
        + ["forward"] * (2 * batch_size)  # incumbent + candidate on the same batch
    )
    per_round = (
        per_batch * batches * epochs * n_clients
        + ["aggregation_summarize"] * summarize_calls
        + ["forward"] * n_val
    )
    return per_round * rounds + ["forward"] * n_test


def _interleave_check(tags: list[str], batch_size: int) -> None:
    """Within each update batch, every example finishes all four calls."""
    i = 0
    while i < len(tags) and tags[i] == "forward" and tags[i + 1] == "evaluation":
        assert tags[i : i + 4] == [
            "forward",
            "evaluation",
            "gradient_response",
            "gradient_prompt",
        ]
        i += 4


def test_criterion_01_round_loop_golden_trace(demo_data):
    started = time.monotonic()
    for strategy, summarize_calls in (("concat", 0), ("summarize", 1)):
        backend = counting_rule_backend()
        cfg = RunConfig(
            num_clients=3,
            sampling_rate=1.0,
            rounds=2,
            local_epochs=3,
            batch_size=3,
            strategy=strategy,
            seed=0,
        )
        run(cfg, demo_data, backend)
        expected = _expected_tags(
            n_clients=3,
            epochs=3,
            batches=3,  # 9 training examples per client, batches of 3
            batch_size=3,
            rounds=2,
            n_val=len(demo_data.val),
            n_test=len(demo_data.test),
            summarize_calls=summarize_calls,
        )
        got = backend.call_log.tags()
        assert got == expected, (
            f"{strategy}: call sequence diverged at index "
            f"{next(i for i, (a, b) in enumerate(zip(got, expected)) if a != b)}"
        )
        _interleave_check(got, 3)
    assert time.monotonic() - started < 5.0


# ---------------------------------------------------------------------------
# criterion 2 — client sampling law
# ---------------------------------------------------------------------------


def test_criterion_02_client_sampling_law():
    rates = [i / 10 for i in range(1, 11)]
    for n_clients in range(1, 21):
        for rate in rates:
            sampled = sample_clients(n_clients, rate, Random(f"grid:{n_clients}:{rate}"))
            # decimal arithmetic as the independent floor oracle
            expected_m = max(int(Decimal(str(rate)) * n_clients), 1)
            assert len(sampled) == expected_m, (n_clients, rate)
            assert len(set(sampled)) == len(sampled)
            assert all(0 <= cid < n_clients for cid in sampled)
    # the binary-float trap explicitly: 0.29 * 100 floors to 28 as floats,
    # but the decimal a user wrote means 29 clients
    assert math.floor(0.29 * 100) == 28
    assert len(sample_clients(100, 0.29, Random("trap"))) == 29

    draws = 10_000
    rng = Random("frequency:0.3:10")
    inclusion = Counter()
    for _ in range(draws):
        inclusion.update(sample_clients(10, 0.3, rng))
    for cid in range(10):
        assert abs(inclusion[cid] / draws - 0.3) <= 0.02, (cid, inclusion[cid])


# ---------------------------------------------------------------------------
# criterion 3 — no-regression acceptance rule
# ---------------------------------------------------------------------------


def test_criterion_03_no_regression_acceptance():
    backend = alternating_backend()
    cfg = RunConfig(num_clients=2, rounds=2, local_epochs=3, batch_size=2, seed=1)
    data = build_federated_data(make_examples(20), 2, seed=1)
    report = run(cfg, data, backend)

    assert any(d.accepted for d in report.decisions)
    assert any(not d.accepted for d in report.decisions)
    for decision in report.decisions:
        # the rule itself: candidates are adopted exactly when they don't drop
        assert decision.accepted == (
            decision.candidate_accuracy >= decision.incumbent_accuracy
        )
        # the held prompt's batch accuracy never decreases at an accept point
        held = (
            decision.candidate_accuracy if decision.accepted else decision.incumbent_accuracy
        )
        assert held >= decision.incumbent_accuracy


# ---------------------------------------------------------------------------
# criterion 4 — concatenation token-length law
# ---------------------------------------------------------------------------


def test_criterion_04_concat_token_length_law():
    rng = Random("concat-law")
    words = ["count", "items", "answer", "prompt", "total", "list", "value", "sum"]
    separators = ["\n\n", " | ", " AND ", "\n---\n"]
    for _ in range(200):
        parts = [
            " ".join(rng.choice(words) for _ in range(rng.randint(1, 40)))
            for _ in range(rng.randint(1, 6))
        ]
        separator = rng.choice(separators)
        merged = aggregate_concat(
            AggregationInput(
                prompts=[(i, PromptState(p)) for i, p in enumerate(parts)],
                separator=separator,
                budget=10**9,
            )
        )
        expected = sum(count_tokens(p) for p in parts) + (len(parts) - 1) * count_tokens(
            separator
        )
        assert count_tokens(merged.text) == expected

    overflowing = AggregationInput(
        prompts=[(i, PromptState(" ".join(["tok"] * 2731))) for i in range(3)],
        separator="\n\n",
        budget=8192,
    )
    with pytest.raises(ContextWindowExceeded) as excinfo:
        aggregate_concat(overflowing)
    assert excinfo.value.needed == 8193
    assert excinfo.value.budget == 8192


# ---------------------------------------------------------------------------
# criterion 5 — dynamic threshold boundary
# ---------------------------------------------------------------------------


def test_criterion_05_dynamic_threshold_boundary():
    def merge(total_tokens: int):
        backend = MockBackend()
        backend.add_rule(
            lambda r: "Summarized merged prompt."
            if r.tag == "aggregation_summarize"
            else None
        )
        half = total_tokens // 2
        agg_input = AggregationInput(
            prompts=[
                (0, PromptState(" ".join(["tok"] * half))),
                (1, PromptState(" ".join(["tok"] * (total_tokens - half)))),
            ],
            backend=backend,
        )
        merged = aggregate_dynamic(agg_input, threshold=800)
        return merged.producer, len(backend.call_log)

    assert merge(799) == ("concat", 0)
    assert merge(800) == ("concat", 0)
    assert merge(801) == ("summarize", 1)


# ---------------------------------------------------------------------------
# criterion 6 — surprisal math against a brute-force bigram oracle
# ---------------------------------------------------------------------------

ORACLE_CORPUS = [
    "the cat sat on the mat",
    "the dog sat on the log",
    "a cat and a dog sat",
    "the mat was flat and wide",
    "a dog on the mat sat still",
]


def _brute_force_bigram_bits(
    corpus: list[str], text: str, alpha: float
) -> list[float]:
    """Per-token surprisal in bits via direct count tables (order 2)."""
    vocab = {"<unk>"}
    for sentence in corpus:
        vocab.update(sentence.split())
    v_size = len(vocab)

    unigram: Counter = Counter()
    bigram: Counter = Counter()
    history: Counter = Counter()
    total = 0
    for sentence in corpus:
        tokens = sentence.split()
        for i, token in enumerate(tokens):
            unigram[token] += 1
            total += 1
            if i >= 1:
                bigram[(tokens[i - 1], token)] += 1
                history[tokens[i - 1]] += 1

    def prob(token: str, prev: str | None) -> float:
        token = token if token in vocab else "<unk>"
        if prev is None:
            return (unigram[token] + alpha) / (total + alpha * v_size)
        prev = prev if prev in vocab else "<unk>"
        if alpha == 0 and history[prev] == 0:
            return 1.0 / v_size
        return (bigram[(prev, token)] + alpha) / (history[prev] + alpha * v_size)

    bits = []
    prev: str | None = None
    for token in text.split():
        bits.append(-math.log2(prob(token, prev)))
        prev = token
    return bits


def test_criterion_06_surprisal_matches_brute_force_oracle():
    backend = NgramBackend(ORACLE_CORPUS, order=2, alpha=1.0)
    for text in (
        "the cat sat on the log",
        "a dog sat on the mat",
        "the zebra sat on a unicycle",  # OOV tokens route through <unk>
    ):
        expected_bits = _brute_force_bigram_bits(ORACLE_CORPUS, text, alpha=1.0)
        got_bits = surprisal_series(text, context="", backend=backend)
        assert len(got_bits) == len(expected_bits)
        for got, expected in zip(got_bits, expected_bits):
            assert got == pytest.approx(expected, abs=1e-9)
        stats = uid_stats(text, "", backend)
        n = len(expected_bits)
        mu = sum(expected_bits) / n
        var = sum((b - mu) ** 2 for b in expected_bits) / n
        assert stats.mean == pytest.approx(mu, abs=1e-9)
        assert stats.variance == pytest.approx(var, abs=1e-9)
        assert stats.max == pytest.approx(max(expected_bits), abs=1e-9)

    # a fair coin at every position: exactly one bit per token, zero variance
    coin = NgramBackend("h t h t t h h t", order=1, alpha=0.0)
    flat = SurprisalStats.from_series(surprisal_series("h t t h", "", coin))
    assert flat.surprisals == [1.0, 1.0, 1.0, 1.0]
    assert flat.variance == 0.0

    # population variance, by hand: [0, 2] -> sigma^2 = 1 (sample variance: 2)
    assert SurprisalStats.from_series([0.0, 2.0]).variance == 1.0


# ---------------------------------------------------------------------------
# criterion 7 — template fidelity on live requests
# ---------------------------------------------------------------------------

SUMMARIZE_TEMPLATE_VERBATIM = (
    "Merge the following list of prompts into a single, cohesive prompt while "
    "preserving all original information. Ensure that the final instruction "
    "remains unchanged and is placed as the last sentence. Provide only the "
    "merged prompt."
)


def test_criterion_07_template_fidelity():
    requests_by_strategy = {}
    for strategy in ("summarize", "summarize-uid"):
        backend = counting_rule_backend()
        cfg = RunConfig(
            num_clients=2, rounds=1, local_epochs=1, batch_size=1, strategy=strategy
        )
        run(cfg, build_federated_data(make_examples(10), 2, seed=2), backend)
        requests_by_strategy[strategy] = [
            r.request for r in backend.call_log.records()
        ]

    merge_requests = [
        r
        for r in requests_by_strategy["summarize"]
        if r.tag == "aggregation_summarize"
    ]
    assert len(merge_requests) == 1
    assert SUMMARIZE_TEMPLATE_VERBATIM in merge_requests[0].user_text
    assert "Provide only the merged prompt." in merge_requests[0].user_text
    assert "Uniform Information Density" not in merge_requests[0].user_text

    uid_requests = [
        r
        for r in requests_by_strategy["summarize-uid"]
        if r.tag == "aggregation_summarize"
    ]
    assert len(uid_requests) == 1
    assert "Apply Uniform Information Density Principles." in uid_requests[0].user_text

    update_requests = [
        r for r in requests_by_strategy["summarize"] if r.tag == "tgd_step"
    ]
    assert update_requests
    for request in update_requests:
        assert "Below are the criticisms on" in request.user_text
        assert "Incorporate the criticisms and generate an updated prompt." in (
            request.user_text
        )


# ---------------------------------------------------------------------------
# criterion 8 — answer extraction and scoring oracle
# ---------------------------------------------------------------------------


def test_criterion_08_answer_extraction_oracle(rule_backend):
    assert len(EXTRACTION_CASES) == 20
    hits = sum(extract_answer(text) == expected for text, expected in EXTRACTION_CASES)
    assert hits == 20

    # the worked arithmetic answer, end to end through scoring
    backend = MockBackend()
    question = (
        "I have a microwave, a table, a bed, a stove, an oven, a toaster, "
        "a lamp, and four cars. How many objects do I have?"
    )
    backend.add(
        "forward",
        question,
        "Adding one per item plus the cars: 1 + 1 + 1 + 1 + 1 + 1 + 1 + 4 = 11. Answer: 11",
    )
    examples = make_examples(1)
    examples[0].question = question
    examples[0].answer = "11"
    assert score("p", examples, backend).accuracy == 1.0

    # 43 of 50 correct renders as 0.86
    fifty = make_examples(50)
    for ex in fifty[:7]:
        ex.answer = "999"
    report = score("p", fifty, rule_backend)
    assert report.correct == 43
    assert f"{report.accuracy:.2f}" == "0.86"


# ---------------------------------------------------------------------------
# criterion 9 — byte-level determinism of full runs
# ---------------------------------------------------------------------------


def test_criterion_09_run_determinism(tmp_path):
    started = time.monotonic()
    args = [
        "run", "--rounds", "2", "--local-steps", "3", "--batch-size", "3",
        "--clients", "3", "--seed", "0", "--strategy", "concat",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main([*args, "--out", str(out_a)]) == 0
    assert main([*args, "--out", str(out_b)]) == 0

    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
    report = json.loads((out_a / "report.json").read_text())
    assert "started_at" not in report and "finished_at" not in report

    tree_a = sorted(p.relative_to(out_a) for p in (out_a / "prompts").rglob("*.txt"))
    tree_b = sorted(p.relative_to(out_b) for p in (out_b / "prompts").rglob("*.txt"))
    assert tree_a == tree_b and tree_a
    for rel in tree_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()
    assert (out_a / "rounds.jsonl").read_bytes() == (out_b / "rounds.jsonl").read_bytes()
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# criterion 10 — single-client degeneracy equals the centralized loop
# ---------------------------------------------------------------------------


def _centralized_reference(
    data: FederatedData, cfg: RunConfig, backend
) -> None:
    """Plain (non-federated) optimization driven by the engine primitives.

    Written independently of client_update/server_round: with one client and
    concatenation the federated loop must collapse to exactly this.
    """
    templates = default_templates()
    partition = data.client_examples(0)
    batches_per_epoch = math.ceil(len(partition) / cfg.batch_size)
    current = cfg.initial_prompt
    best: str | None = None
    best_accuracy: float | None = None

    for round_no in range(1, cfg.rounds + 1):
        Random(f"{cfg.seed}:sample:round:{round_no}").sample(range(1), 1)
        rng = Random(f"{cfg.seed}:client:0:round:{round_no}")
        for _epoch in range(cfg.local_epochs):
            for _batch_no in range(batches_per_epoch):
                batch = [rng.choice(partition) for _ in range(cfg.batch_size)]
                criticisms = []
                for ex in batch:
                    response = forward_response(current, ex.question, backend)
                    evaluation = evaluate(
                        response, ex.answer, templates.evaluation_instruction, backend
                    )
                    criticisms.append(backward(current, response, evaluation, backend, templates))
                candidate = tgd_step(current, criticisms, backend, templates)
                incumbent_report = score(current, batch, backend)
                candidate_report = score(candidate, batch, backend)
                if candidate_report.accuracy >= incumbent_report.accuracy:
                    current = candidate
        validation = score(current, data.val, backend)
        if best_accuracy is None or validation.accuracy > best_accuracy:
            best, best_accuracy = current, validation.accuracy
    assert best is not None
    score(best, data.test, backend)


def test_criterion_10_single_client_degeneracy():
    data = build_federated_data(make_examples(15), 1, seed=3)
    cfg = RunConfig(
        num_clients=1, sampling_rate=1.0, rounds=2, local_epochs=2, batch_size=3,
        strategy="concat", seed=11,
    )

    federated = alternating_backend()
    run(cfg, data, federated)
    centralized = alternating_backend()
    _centralized_reference(data, cfg, centralized)

    federated_trace = [
        (r.request.tag, r.request.system_text, r.request.user_text)
        for r in federated.call_log.records()
    ]
    centralized_trace = [
        (r.request.tag, r.request.system_text, r.request.user_text)
        for r in centralized.call_log.records()
    ]
    assert len(federated_trace) == len(centralized_trace)
    assert federated_trace == centralized_trace
