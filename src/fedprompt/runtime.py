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
from fedprompt.engine import Variable, backward, evaluate, forward_response, tgd_step
from fedprompt.errors import ConfigError, ContextWindowExceeded, EmptyPartition
from fedprompt.prompts import FINAL_INSTRUCTION, PromptState
from fedprompt.tasks import FederatedData, ScoreReport, TaskExample, exact_fraction, score
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
        if set(data.partition.assignments) != set(range(self.num_clients)):
            raise ConfigError(
                f"partition covers clients {sorted(data.partition.assignments)} "
                f"but the run wants {self.num_clients} clients"
            )
        if not data.val or not data.test:
            raise ConfigError("run needs non-empty validation and test splits")


@dataclass
class ClientState:
    id: int
    partition: list[TaskExample]


@dataclass
class ServerState:
    global_prompt: PromptState
    round: int = 0
    best_prompt: PromptState | None = None
    best_val_score: float | None = None


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


def client_rng(seed: int, client_id: int, round_no: int) -> Random:
    return Random(f"{seed}:client:{client_id}:round:{round_no}")


def client_update(
    client: ClientState,
    incoming_prompt: PromptState,
    cfg: RunConfig,
    backend: Backend,
    templates: Templates | None = None,
    round_no: int = 1,
) -> ClientUpdateResult:
    """Local training: E epochs of batch-wise prompt updates.

    Each epoch draws ceil(|partition| / B) batches of size B with replacement.
    Per batch: a forward/evaluate/backward pass per example, one update step,
    then the incumbent and the candidate are both scored on that same batch —
    the candidate is kept only if it does not score lower. The per-example
    passes, and the two scorings, are independent and go through the
    backend's fan-out.
    """
    templates = templates or default_templates()
    if not client.partition:
        raise EmptyPartition(f"client {client.id} has no training examples")
    longest_query = max(count_tokens(ex.question) for ex in client.partition)
    needed = count_tokens(incoming_prompt.text) + longest_query
    if needed > backend.descriptor.context_window:
        raise ContextWindowExceeded(
            f"client {client.id}: prompt plus longest query needs {needed} tokens "
            f"but the context window is {backend.descriptor.context_window}",
            needed=needed,
            budget=backend.descriptor.context_window,
        )

    rng = client_rng(cfg.seed, client.id, round_no)
    current = incoming_prompt
    decisions: list[BatchDecision] = []
    batches_per_epoch = math.ceil(len(client.partition) / cfg.batch_size)

    for epoch in range(cfg.local_epochs):
        for batch_index in range(batches_per_epoch):
            batch = [rng.choice(client.partition) for _ in range(cfg.batch_size)]
            meta = {"client_id": client.id, "round": round_no, "epoch": epoch, "batch_index": batch_index}
            prompt_var = Variable(
                current.text, "system prompt for reasoning task", requires_grad=True
            )

            def criticize(ex: TaskExample) -> list[str]:
                # its own copy of the prompt variable, so passes may overlap;
                # the criticisms join in batch order below
                prompt = Variable(prompt_var.value, prompt_var.role_description, requires_grad=True)
                example_meta = {**meta, "example_id": ex.id}
                query_var = Variable(ex.question, "query to be answered")
                response = forward_response(prompt, query_var, backend, metadata=example_meta)
                evaluation = evaluate(
                    response, ex.answer, templates.evaluation_instruction, backend, metadata=example_meta
                )
                backward(evaluation, backend, templates, metadata=example_meta)
                return prompt.gradients

            for gradients in backend.fan_out.gather([partial(criticize, ex) for ex in batch]):
                prompt_var.gradients.extend(gradients)
            candidate_var = tgd_step(prompt_var, backend, templates, metadata=meta)

            incumbent, candidate = backend.fan_out.gather([
                partial(score, current.text, batch, backend, metadata={**meta, "phase": "acceptance_pre"}),
                partial(score, candidate_var.value, batch, backend, metadata={**meta, "phase": "acceptance_post"}),
            ])
            accepted = candidate.accuracy >= incumbent.accuracy
            if accepted:
                current = PromptState(
                    text=candidate_var.value,
                    version=(round_no, client.id),
                    parent_version=incoming_prompt.version,
                    producer="tgd",
                )
            decisions.append(
                BatchDecision(
                    client_id=client.id,
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
    server: ServerState,
    clients: list[ClientState],
    cfg: RunConfig,
    backend: Backend,
    val_examples: list[TaskExample],
    templates: Templates | None = None,
) -> tuple[RoundRecord, dict[str, PromptState], list[BatchDecision]]:
    """One round: sample, dispatch, barrier, aggregate, validate, select.

    Mutates ``server`` in place and returns the round record, the round's
    prompt snapshots (per sampled client plus the new global), and the
    decision log.
    """
    round_no = server.round + 1
    sample_rng = Random(f"{cfg.seed}:sample:round:{round_no}")
    sampled = sample_clients(cfg.num_clients, cfg.sampling_rate, sample_rng)
    by_id = {c.id: c for c in clients}

    log = backend.call_log
    cost_before = log.total_cost_usd()
    calls_before = log.counts_by_tag()
    issued_before = log.issued_counts_by_tag()

    def update(cid: int) -> ClientUpdateResult:
        return client_update(
            by_id[cid], server.global_prompt, cfg, backend, templates, round_no
        )

    # barrier: every sampled client must return before any aggregation
    results = dict(zip(sampled, backend.fan_out.gather([partial(update, cid) for cid in sampled])))

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
        parent_version=server.global_prompt.version,
        producer=merged.producer,
    )

    val_report: ScoreReport = score(
        new_global.text, val_examples, backend, metadata={"phase": "validation", "round": round_no}
    )
    server.global_prompt = new_global
    server.round = round_no
    if server.best_val_score is None or val_report.accuracy > server.best_val_score:
        server.best_prompt = new_global
        server.best_val_score = val_report.accuracy

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

    clients = [
        ClientState(id=cid, partition=data.client_examples(cid))
        for cid in range(cfg.num_clients)
    ]
    server = ServerState(
        global_prompt=PromptState(
            text=cfg.initial_prompt, version=(0, "server"), parent_version=None, producer="init"
        )
    )

    records: list[RoundRecord] = []
    all_decisions: list[BatchDecision] = []
    try:
        for _ in range(cfg.rounds):
            record, snapshots, decisions = server_round(
                server, clients, cfg, backend, data.val, templates
            )
            records.append(record)
            all_decisions.extend(decisions)
            if on_barrier is not None:
                on_barrier(record, snapshots, decisions)

        assert server.best_prompt is not None and server.best_val_score is not None
        cost_before_test = backend.call_log.total_cost_usd()
        test_report = score(
            server.best_prompt.text, data.test, backend, metadata={"phase": "test"}
        )
        final_test_cost = backend.call_log.total_cost_usd() - cost_before_test
    finally:
        backend.close()  # no worker thread or created session outlives the run

    return RunReport(
        best_prompt=server.best_prompt,
        final_prompt=server.global_prompt,
        best_val_accuracy=server.best_val_score,
        test_accuracy=test_report.accuracy,
        test_parse_failures=test_report.parse_failures,
        total_cost_usd=sum(r.round_cost_usd for r in records),
        final_test_cost_usd=final_test_cost,
        records=records,
        decisions=all_decisions,
    )
