"""Federated round loop: client sampling, local textual-gradient epochs with
the no-regression acceptance rule, the aggregation barrier, and
validation-based selection of the best global prompt."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from random import Random
from typing import Callable

from fedprompt.aggregation import (
    DEFAULT_DYNAMIC_THRESHOLD,
    DEFAULT_SEPARATOR,
    STRATEGY_IDS,
    AggregationInput,
    aggregate,
)
from fedprompt.backends.base import Backend, count_tokens
from fedprompt.engine import backward, evaluate, forward_response, tgd_step
from fedprompt.errors import ConfigError, ContextWindowExceeded, EmptyPartition
from fedprompt.prompts import FINAL_INSTRUCTION, PromptState
from fedprompt.tasks import FederatedData, TaskExample, exact_fraction, score
from fedprompt.templates import Templates, default_templates

DEFAULT_INITIAL_PROMPT = (
    "You will answer a reasoning question. Think step by step. " + FINAL_INSTRUCTION
)


@dataclass
class RunConfig:
    num_clients: int = 3
    sampling_rate: float = 1.0
    rounds: int = 1
    local_epochs: int = 3
    batch_size: int = 3
    strategy: str = "concat"
    seed: int = 0
    initial_prompt: str = DEFAULT_INITIAL_PROMPT
    final_instruction: str = FINAL_INSTRUCTION
    separator: str = DEFAULT_SEPARATOR
    dynamic_threshold: int = DEFAULT_DYNAMIC_THRESHOLD

    def validate(self, data: FederatedData | None = None) -> None:
        """Reject bad settings and, given ``data``, data the run cannot use."""
        if self.num_clients < 1:
            raise ConfigError("num_clients must be >= 1")
        if not 0 < self.sampling_rate <= 1:
            raise ConfigError("sampling_rate must be in (0, 1]")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.strategy not in STRATEGY_IDS:
            raise ConfigError(
                f"strategy must be one of {', '.join(STRATEGY_IDS)}, got {self.strategy!r}"
            )
        if not self.initial_prompt.strip():
            raise ConfigError("initial_prompt must be non-empty")
        if data is None:
            return
        if set(data.assignments) != set(range(self.num_clients)):
            raise ConfigError(
                f"partition covers clients {sorted(data.assignments)} "
                f"but the run wants {self.num_clients} clients"
            )
        if not data.val or not data.test:
            raise ConfigError("run needs non-empty validation and test splits")


@dataclass
class BatchDecision:
    """One accept/reject decision during a client update."""

    client_id: int
    round: int
    epoch: int
    batch_index: int
    example_ids: list[str]
    incumbent_accuracy: float
    candidate_accuracy: float
    accepted: bool


@dataclass
class ClientUpdateResult:
    prompt: PromptState
    decisions: list[BatchDecision]


@dataclass
class RoundRecord:
    round: int
    strategy: str
    global_prompt_tokens: int
    per_client_tokens: list[int]
    val_accuracy: float
    round_cost_usd: float
    cumulative_cost_usd: float
    llm_calls_by_tag: dict[str, int]
    llm_calls_issued_by_tag: dict[str, int]


@dataclass
class RunReport:
    best_prompt: PromptState
    final_prompt: PromptState
    best_val_accuracy: float
    test_accuracy: float
    test_parse_failures: int
    total_cost_usd: float
    final_test_cost_usd: float
    records: list[RoundRecord]
    decisions: list[BatchDecision]


def sample_clients(n_clients: int, sampling_rate: float, rng: Random) -> list[int]:
    """Uniform sample of m = max(floor(C*N), 1) client ids, sorted."""
    m = max(math.floor(exact_fraction(sampling_rate) * n_clients), 1)
    return sorted(rng.sample(range(n_clients), m))


def client_update(
    client_id: int,
    partition: list[TaskExample],
    incoming_prompt: PromptState,
    cfg: RunConfig,
    backend: Backend,
    templates: Templates | None = None,
    round_no: int = 1,
) -> ClientUpdateResult:
    """Local training of client ``client_id``: E epochs of batch-wise prompt updates.

    Each epoch draws ceil(|partition| / B) batches of size B with replacement.
    Per batch: a forward/evaluate/backward pass per example, one update step,
    then the incumbent and the candidate are both scored on that same batch —
    the candidate is kept only if it does not score lower. The per-example
    passes, and the two scorings, are independent and go through the
    backend's fan-out.
    """
    templates = templates or default_templates()
    if not partition:
        raise EmptyPartition(f"client {client_id} has no training examples")
    longest_query = max(count_tokens(ex.question) for ex in partition)
    needed = count_tokens(incoming_prompt.text) + longest_query
    if needed > backend.descriptor.context_window:
        raise ContextWindowExceeded(
            f"client {client_id}: prompt plus longest query needs {needed} tokens "
            f"but the context window is {backend.descriptor.context_window}",
            needed=needed,
            budget=backend.descriptor.context_window,
        )

    rng = Random(f"{cfg.seed}:client:{client_id}:round:{round_no}")
    current = incoming_prompt
    decisions: list[BatchDecision] = []
    batches_per_epoch = math.ceil(len(partition) / cfg.batch_size)

    for epoch in range(cfg.local_epochs):
        for batch_index in range(batches_per_epoch):
            batch = [rng.choice(partition) for _ in range(cfg.batch_size)]
            meta = {"client_id": client_id, "round": round_no, "epoch": epoch, "batch_index": batch_index}

            def criticize(prompt: str, ex: TaskExample) -> str:
                example_meta = {**meta, "example_id": ex.id}
                response = forward_response(prompt, ex.question, backend, metadata=example_meta)
                evaluation = evaluate(
                    response, ex.answer, templates.evaluation_instruction, backend, metadata=example_meta
                )
                return backward(prompt, response, evaluation, backend, templates, metadata=example_meta)

            # one criticism per example, in batch order however the passes overlap
            criticisms = backend.fan_out.gather([partial(criticize, current.text, ex) for ex in batch])
            candidate_text = tgd_step(current.text, criticisms, backend, templates, metadata=meta)

            incumbent, candidate = backend.fan_out.gather([
                partial(score, current.text, batch, backend, metadata={**meta, "phase": "acceptance_pre"}),
                partial(score, candidate_text, batch, backend, metadata={**meta, "phase": "acceptance_post"}),
            ])
            accepted = candidate.accuracy >= incumbent.accuracy
            if accepted:
                current = PromptState(
                    text=candidate_text,
                    version=(round_no, client_id),
                    parent_version=incoming_prompt.version,
                    producer="tgd",
                )
            decisions.append(
                BatchDecision(
                    client_id=client_id,
                    round=round_no,
                    epoch=epoch,
                    batch_index=batch_index,
                    example_ids=[ex.id for ex in batch],
                    incumbent_accuracy=incumbent.accuracy,
                    candidate_accuracy=candidate.accuracy,
                    accepted=accepted,
                )
            )
    return ClientUpdateResult(prompt=current, decisions=decisions)


def server_round(
    global_prompt: PromptState,
    round_no: int,
    partitions: list[list[TaskExample]],
    cfg: RunConfig,
    backend: Backend,
    val_examples: list[TaskExample],
    templates: Templates | None = None,
) -> tuple[RoundRecord, dict[str, PromptState], list[BatchDecision]]:
    """Round ``round_no`` from ``global_prompt``: sample, dispatch, barrier, aggregate, validate.

    Returns the round record, the round's prompt snapshots (per sampled client
    plus the new global under ``"global"``), and the decision log.
    """
    sample_rng = Random(f"{cfg.seed}:sample:round:{round_no}")
    sampled = sample_clients(cfg.num_clients, cfg.sampling_rate, sample_rng)

    log = backend.call_log
    cost_before = log.total_cost_usd()
    calls_before = log.counts_by_tag()
    issued_before = log.issued_counts_by_tag()

    # barrier: every sampled client must return before any aggregation
    updates = [
        partial(client_update, cid, partitions[cid], global_prompt, cfg, backend, templates, round_no)
        for cid in sampled
    ]
    results = dict(zip(sampled, backend.fan_out.gather(updates)))

    agg_input = AggregationInput(
        prompts=[(cid, results[cid].prompt) for cid in sampled],
        separator=cfg.separator,
        budget=backend.descriptor.context_window,
        backend=backend,
    )
    merged = aggregate(
        cfg.strategy,
        agg_input,
        templates=templates,
        threshold=cfg.dynamic_threshold,
        final_instruction=cfg.final_instruction,
    )
    new_global = PromptState(
        text=merged.text,
        version=(round_no, "server"),
        parent_version=global_prompt.version,
        producer=merged.producer,
    )

    val_report = score(
        new_global.text, val_examples, backend, metadata={"phase": "validation", "round": round_no}
    )

    cost_after = log.total_cost_usd()
    calls_after = log.counts_by_tag()
    issued_after = log.issued_counts_by_tag()
    record = RoundRecord(
        round=round_no,
        strategy=cfg.strategy,
        global_prompt_tokens=count_tokens(new_global.text),
        per_client_tokens=[count_tokens(results[cid].prompt.text) for cid in sampled],
        val_accuracy=val_report.accuracy,
        round_cost_usd=cost_after - cost_before,
        cumulative_cost_usd=cost_after,
        llm_calls_by_tag={
            tag: calls_after[tag] - calls_before[tag] for tag in calls_after
        },
        llm_calls_issued_by_tag={
            tag: issued_after[tag] - issued_before[tag] for tag in issued_after
        },
    )
    snapshots: dict[str, PromptState] = {str(cid): results[cid].prompt for cid in sampled}
    snapshots["global"] = new_global
    decisions = [d for cid in sampled for d in results[cid].decisions]
    return record, snapshots, decisions


def run(
    cfg: RunConfig,
    data: FederatedData,
    backend: Backend,
    templates: Templates | None = None,
    on_barrier: Callable[[RoundRecord, dict[str, PromptState], list[BatchDecision]], None] | None = None,
) -> RunReport:
    """Execute the full round loop and score the selected prompt on test data.

    ``on_barrier`` gets what :func:`server_round` returns, on this thread, after each round.
    """
    cfg.validate(data)
    partitions = [data.client_examples(cid) for cid in range(cfg.num_clients)]
    global_prompt = PromptState(
        text=cfg.initial_prompt, version=(0, "server"), parent_version=None, producer="init"
    )

    records: list[RoundRecord] = []
    all_decisions: list[BatchDecision] = []
    try:
        for round_no in range(1, cfg.rounds + 1):
            record, snapshots, decisions = server_round(
                global_prompt, round_no, partitions, cfg, backend, data.val, templates
            )
            global_prompt = snapshots["global"]
            # selection: a later round must validate strictly higher; a tie keeps the earlier prompt
            if round_no == 1 or record.val_accuracy > best_val_accuracy:
                best_prompt, best_val_accuracy = global_prompt, record.val_accuracy
            records.append(record)
            all_decisions.extend(decisions)
            if on_barrier is not None:
                on_barrier(record, snapshots, decisions)

        cost_before_test = backend.call_log.total_cost_usd()
        test_report = score(best_prompt.text, data.test, backend, metadata={"phase": "test"})
        final_test_cost = backend.call_log.total_cost_usd() - cost_before_test
    finally:
        backend.close()  # no worker thread or created session outlives the run

    return RunReport(
        best_prompt=best_prompt,
        final_prompt=global_prompt,
        best_val_accuracy=best_val_accuracy,
        test_accuracy=test_report.accuracy,
        test_parse_failures=test_report.parse_failures,
        total_cost_usd=sum(r.round_cost_usd for r in records),
        final_test_cost_usd=final_test_cost,
        records=records,
        decisions=all_decisions,
    )
