from __future__ import annotations

import re
from fractions import Fraction
from random import Random

import pytest

from fedprompt.backends.base import BackendDescriptor
from fedprompt.backends.mock import MockBackend
from fedprompt.backends.remote import RemoteBackend
from fedprompt.backends.rules import (
    REVISED_PROMPT,
    counting_rule_backend,
    evaluation_rule,
    forward_rule,
    gradient_prompt_rule,
    gradient_response_rule,
    tgd_rule,
)
from fedprompt.errors import (
    ConfigError,
    ContextWindowExceeded,
    EmptyPartition,
    NoScriptMatch,
)
from fedprompt.prompts import PromptState
from fedprompt.runtime import (
    RunConfig,
    client_update,
    run,
    sample_clients,
    server_round,
)
from fedprompt.tasks import FederatedData, exact_fraction
from tests.conftest import FINAL_INSTRUCTION, LatencySession, alternating_backend, make_examples


def stamping_backend() -> MockBackend:
    """Counting mock whose update step stamps the requesting client's id."""
    backend = MockBackend()

    def stamping_tgd(request):
        if request.tag != "tgd_step":
            return None
        cid = request.metadata.get("client_id", "?")
        return f"[client {cid}] Count carefully. {FINAL_INSTRUCTION}"

    backend.add_rule(stamping_tgd)
    backend.add_rule(forward_rule)
    backend.add_rule(evaluation_rule)
    backend.add_rule(gradient_response_rule)
    backend.add_rule(gradient_prompt_rule)
    return backend


def _p0(text: str = "Count the items. " + FINAL_INSTRUCTION) -> PromptState:
    return PromptState(text=text, version=(0, "server"), producer="init")


class TestSampling:
    def test_full_participation(self):
        assert sample_clients(3, 1.0, Random("x")) == [0, 1, 2]

    def test_sorted_subset(self):
        sampled = sample_clients(10, 0.5, Random("x"))
        assert sampled == sorted(sampled)
        assert len(sampled) == 5
        assert all(0 <= cid < 10 for cid in sampled)

    def test_decimal_rate_floors_exactly(self):
        # floor(0.7 * 10) must be 7; binary-float arithmetic would say 6.
        assert len(sample_clients(10, 0.7, Random("x"))) == 7
        assert exact_fraction(0.7) == Fraction(7, 10)

    def test_at_least_one_client(self):
        assert len(sample_clients(3, 0.1, Random("x"))) == 1

    def test_same_stream_same_sample(self):
        assert sample_clients(20, 0.35, Random("s:1")) == sample_clients(
            20, 0.35, Random("s:1")
        )


class TestClientUpdate:
    def test_mini_trace_single_example(self):
        backend = counting_rule_backend()
        cfg = RunConfig(local_epochs=1, batch_size=1)
        result = client_update(0, make_examples(1), _p0(), cfg, backend)
        assert backend.call_log.tags() == [
            "forward",
            "evaluation",
            "gradient_response",
            "gradient_prompt",
            "tgd_step",
            "forward",
            "forward",
        ]
        phases = [
            r.request.metadata.get("phase")
            for r in backend.call_log.records()
            if r.request.metadata.get("phase")
        ]
        assert phases == ["acceptance_pre", "acceptance_post"]
        assert len(result.decisions) == 1

    def test_update_count_three_epochs(self):
        backend = counting_rule_backend()
        cfg = RunConfig(local_epochs=3, batch_size=3)
        result = client_update(0, make_examples(9), _p0(), cfg, backend)
        assert backend.call_log.counts_by_tag()["tgd_step"] == 9
        assert len(result.decisions) == 9

    def test_partial_batch_rounds_up(self):
        backend = counting_rule_backend()
        cfg = RunConfig(local_epochs=1, batch_size=3)
        result = client_update(0, make_examples(4), _p0(), cfg, backend)
        assert len(result.decisions) == 2  # ceil(4 / 3)

    def test_acceptance_scores_the_update_batch(self):
        backend = counting_rule_backend()
        cfg = RunConfig(local_epochs=1, batch_size=2)
        result = client_update(0, make_examples(6), _p0(), cfg, backend)
        for decision in result.decisions:
            assert len(decision.example_ids) == cfg.batch_size
            for phase in ("acceptance_pre", "acceptance_post"):
                scored = [
                    r.request.metadata["example_id"]
                    for r in backend.call_log.records()
                    if r.request.metadata.get("phase") == phase
                    and r.request.metadata.get("batch_index") == decision.batch_index
                    and r.request.metadata.get("epoch") == decision.epoch
                ]
                assert scored == decision.example_ids

    def test_accepted_update_takes_candidate_text(self):
        backend = counting_rule_backend()
        result = client_update(5, make_examples(2), _p0(), RunConfig(local_epochs=1, batch_size=2), backend, round_no=3)
        assert result.decisions[0].accepted is True
        assert result.prompt.text == REVISED_PROMPT
        assert result.prompt.version == (3, 5)
        assert result.prompt.producer == "tgd"

    def test_rejected_update_keeps_incoming_bytes(self):
        # Candidate v1 is wrong on every question, so every decision in a
        # single-batch update rejects and the outgoing prompt is the incoming
        # object, byte for byte.
        backend = alternating_backend()
        incoming = _p0()
        cfg = RunConfig(local_epochs=1, batch_size=2)
        result = client_update(0, make_examples(2), incoming, cfg, backend)
        assert [d.accepted for d in result.decisions] == [False]
        assert result.prompt is incoming
        assert result.prompt.text == incoming.text

    def test_acceptance_rule_is_no_regression(self):
        backend = alternating_backend()
        cfg = RunConfig(local_epochs=3, batch_size=2)
        result = client_update(0, make_examples(8), _p0(), cfg, backend)
        assert any(d.accepted for d in result.decisions)
        assert any(not d.accepted for d in result.decisions)
        for decision in result.decisions:
            assert decision.accepted == (
                decision.candidate_accuracy >= decision.incumbent_accuracy
            )

    def test_same_seed_same_batches(self):
        cfg = RunConfig(local_epochs=2, batch_size=3, seed=11)
        first = client_update(0, make_examples(7), _p0(), cfg, counting_rule_backend())
        second = client_update(0, make_examples(7), _p0(), cfg, counting_rule_backend())
        assert [d.example_ids for d in first.decisions] == [
            d.example_ids for d in second.decisions
        ]

    def test_empty_partition_rejected(self):
        with pytest.raises(EmptyPartition):
            client_update(0, [], _p0(), RunConfig(), counting_rule_backend())

    def test_oversized_prompt_rejected_before_any_call(self):
        descriptor = BackendDescriptor(kind="mock", model_id="tiny", context_window=16)
        backend = counting_rule_backend(descriptor)
        big = _p0(" ".join(["word"] * 30))
        with pytest.raises(ContextWindowExceeded):
            client_update(0, make_examples(2), big, RunConfig(), backend)
        assert len(backend.call_log) == 0


class TestServerRound:
    def _setup(self, n_clients: int = 3, sampling_rate: float = 1.0, **overrides):
        cfg = RunConfig(
            num_clients=n_clients,
            sampling_rate=sampling_rate,
            local_epochs=1,
            batch_size=2,
            **overrides,
        )
        partitions = [make_examples(4) for _ in range(n_clients)]
        return cfg, partitions

    def test_concat_joins_client_prompts_by_id(self):
        cfg, partitions = self._setup()
        backend = stamping_backend()
        record, snapshots, _ = server_round(
            _p0(), 1, partitions, cfg, backend, make_examples(3), templates=None
        )
        expected = "\n\n".join(
            f"[client {cid}] Count carefully. {FINAL_INSTRUCTION}" for cid in range(3)
        )
        assert snapshots["global"].text == expected
        assert record.per_client_tokens == [
            len(snapshots[str(cid)].text.split()) for cid in range(3)
        ]

    def test_global_prompt_version_restamped(self):
        cfg, partitions = self._setup()
        incoming = _p0()
        record, snapshots, _ = server_round(incoming, 1, partitions, cfg, stamping_backend(), make_examples(3))
        assert snapshots["global"].version == (1, "server")
        assert snapshots["global"].parent_version == (0, "server")
        assert snapshots["global"].producer == "concat"
        assert record.round == 1
        assert incoming == _p0()  # the round changes nothing it was given

    def test_subsampled_round_snapshots_only_sampled_clients(self):
        cfg, partitions = self._setup(sampling_rate=0.5)
        record, snapshots, _ = server_round(
            _p0(), 1, partitions, cfg, stamping_backend(), make_examples(3)
        )
        assert len(record.per_client_tokens) == 1  # floor(0.5 * 3) = 1
        sampled_keys = set(snapshots) - {"global"}
        assert len(sampled_keys) == 1
        assert sampled_keys < {"0", "1", "2"}

    def test_client_failure_aborts_round(self):
        cfg, partitions = self._setup()
        backend = MockBackend()  # no rules at all: first forward has no match
        with pytest.raises(NoScriptMatch):
            server_round(_p0(), 1, partitions, cfg, backend, make_examples(3))

    def test_round_record_call_accounting(self):
        cfg, partitions = self._setup()
        backend = stamping_backend()
        record, _, decisions = server_round(_p0(), 1, partitions, cfg, backend, make_examples(3))
        # 3 clients x 2 batches: per batch 2 update forwards, 2+2 acceptance
        # forwards, 1 update step; plus 3 validation forwards at the server
        assert record.llm_calls_by_tag["tgd_step"] == 6
        assert record.llm_calls_by_tag["evaluation"] == 12
        assert record.llm_calls_by_tag["forward"] == 12 + 24 + 3
        assert record.llm_calls_issued_by_tag == record.llm_calls_by_tag  # no memo on the mock
        assert record.round == 1
        assert record.strategy == "concat"
        assert 0.0 <= record.val_accuracy <= 1.0
        assert len(decisions) == 6

    def test_costs_accumulate_with_priced_backend(self):
        descriptor = BackendDescriptor(
            kind="mock",
            model_id="priced",
            usd_per_1k_prompt_tokens=0.5,
            usd_per_1k_completion_tokens=1.5,
        )
        cfg, partitions = self._setup()
        backend = counting_rule_backend(descriptor)
        record, _, _ = server_round(_p0(), 1, partitions, cfg, backend, make_examples(3))
        assert record.round_cost_usd > 0
        assert record.cumulative_cost_usd == pytest.approx(record.round_cost_usd)
        assert record.round_cost_usd == pytest.approx(backend.call_log.total_cost_usd())


def _federated(n_examples: int = 20, n_clients: int = 3, seed: int = 7) -> FederatedData:
    from fedprompt.tasks import build_federated_data

    return build_federated_data(make_examples(n_examples), n_clients, seed=seed)


class TestRun:
    def test_two_round_report_shape(self):
        cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2, seed=3)
        barriers = []
        report = run(cfg, _federated(), counting_rule_backend(), on_barrier=lambda *round_: barriers.append(round_))
        assert len(report.records) == 2
        assert [r.round for r in report.records] == [1, 2]
        assert [record for record, _, _ in barriers] == report.records
        assert [set(snapshots) for _, snapshots, _ in barriers] == [{"0", "1", "2", "global"}] * 2
        assert [d for _, _, decisions in barriers for d in decisions] == report.decisions
        assert barriers[-1][1]["global"] == report.final_prompt
        assert report.final_prompt.version == (2, "server")

    def test_validation_tie_keeps_the_earlier_prompt(self):
        cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2)
        report = run(cfg, _federated(), counting_rule_backend())
        assert report.records[0].val_accuracy == report.records[1].val_accuracy
        assert report.best_prompt.version == (1, "server")
        assert report.final_prompt.version == (2, "server")

    def test_strictly_higher_validation_selects_the_later_prompt(self):
        def wrong_in_round_1(request):
            meta = request.metadata
            if request.tag == "forward" and (meta.get("phase"), meta.get("round")) == ("validation", 1):
                return "Answer: -1"
            return None

        backend = MockBackend()
        rules = (wrong_in_round_1, forward_rule, evaluation_rule, gradient_response_rule, gradient_prompt_rule, tgd_rule)
        for rule in rules:
            backend.add_rule(rule)
        cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2)
        report = run(cfg, _federated(), backend)
        assert [r.val_accuracy for r in report.records] == [0.0, 1.0]
        assert report.best_prompt.version == (2, "server")
        assert report.best_prompt is report.final_prompt
        assert report.best_val_accuracy == 1.0

    def test_initial_prompt_never_validated(self):
        cfg = RunConfig(num_clients=2, rounds=1, local_epochs=1, batch_size=2)
        backend = counting_rule_backend()
        data = _federated(n_clients=2)
        run(cfg, data, backend)
        validated = {
            r.request.system_text
            for r in backend.call_log.records()
            if r.request.metadata.get("phase") == "validation"
        }
        assert cfg.initial_prompt not in validated

    def test_test_split_scored_once_with_best_prompt(self):
        cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2)
        backend = counting_rule_backend()
        data = _federated()
        report = run(cfg, data, backend)
        test_calls = [
            r
            for r in backend.call_log.records()
            if r.request.metadata.get("phase") == "test"
        ]
        assert len(test_calls) == len(data.test)
        assert {r.request.system_text for r in test_calls} == {report.best_prompt.text}

    def test_cost_split_between_rounds_and_final_test(self):
        descriptor = BackendDescriptor(
            kind="mock", model_id="priced", usd_per_1k_prompt_tokens=1.0,
            usd_per_1k_completion_tokens=1.0,
        )
        backend = counting_rule_backend(descriptor)
        cfg = RunConfig(num_clients=2, rounds=2, local_epochs=1, batch_size=2)
        report = run(cfg, _federated(n_clients=2), backend)
        assert report.total_cost_usd == pytest.approx(
            sum(r.round_cost_usd for r in report.records)
        )
        assert report.final_test_cost_usd > 0
        assert report.total_cost_usd + report.final_test_cost_usd == pytest.approx(
            backend.call_log.total_cost_usd()
        )

    def test_threaded_and_sequential_agree(self):
        # float sums of these prices depend on summation order
        descriptor = BackendDescriptor(
            kind="remote", model_id="priced", endpoint="http://fake.test/v1",
            usd_per_1k_prompt_tokens=0.0013, usd_per_1k_completion_tokens=0.0071,
        )
        data = _federated()
        outcomes = []
        # a session that answers at once keeps the run sequential; 1 ms of
        # latency per call makes the fan-outs overlap calls
        for delay in (0.0, 0.001):
            session = LatencySession(delay)
            backend = RemoteBackend(descriptor, session=session, sleep=lambda s: None)
            cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2, seed=5)
            outcomes.append((run(cfg, data, backend), session.peak))
        (sequential, seq_peak), (threaded, thr_peak) = outcomes
        assert (seq_peak, thr_peak > 1) == (1, True)
        assert threaded.final_prompt.text == sequential.final_prompt.text
        assert threaded.best_prompt.text == sequential.best_prompt.text
        assert [d.example_ids for d in threaded.decisions] == [
            d.example_ids for d in sequential.decisions
        ]
        assert threaded.records == sequential.records
        assert threaded.total_cost_usd == sequential.total_cost_usd
        assert threaded.final_test_cost_usd == sequential.final_test_cost_usd

    def test_threaded_and_sequential_agree_on_a_priced_remote(self):
        descriptor = BackendDescriptor(
            kind="remote", model_id="priced", endpoint="http://fake.test/v1",
            usd_per_1k_prompt_tokens=0.0013, usd_per_1k_completion_tokens=0.0071,
        )
        data = _federated()
        outcomes = []
        for delay in (0.0, 0.001):
            session = _SummingSession(delay)
            backend = RemoteBackend(descriptor, session=session, sleep=lambda s: None)
            cfg = RunConfig(num_clients=3, rounds=2, local_epochs=1, batch_size=2, seed=5)
            outcomes.append((run(cfg, data, backend), session, backend.call_log))
        (sequential, seq_session, seq_log), (threaded, thr_session, thr_log) = outcomes
        seq_posts, thr_posts = seq_session.posts, thr_session.posts
        assert (seq_session.peak, thr_session.peak > 1) == (1, True)
        assert threaded.records == sequential.records
        assert threaded.total_cost_usd == sequential.total_cost_usd
        assert threaded.final_test_cost_usd == sequential.final_test_cost_usd
        assert thr_posts == seq_posts
        assert thr_log.issued_counts_by_tag() == seq_log.issued_counts_by_tag()
        assert sum(seq_log.issued_counts_by_tag().values()) == seq_posts
        issued = sum(sum(r.llm_calls_issued_by_tag.values()) for r in sequential.records)
        logical = sum(sum(r.llm_calls_by_tag.values()) for r in sequential.records)
        assert 0 < issued < logical

    def test_partition_coverage_checked(self):
        data = _federated(n_clients=3)
        cfg = RunConfig(num_clients=4, rounds=1)
        with pytest.raises(ConfigError):
            run(cfg, data, counting_rule_backend())

    def test_empty_val_split_rejected(self):
        examples = make_examples(6)
        data = FederatedData(
            train=examples,
            val=[],
            test=examples[:2],
            assignments={0: [ex.id for ex in examples]},
        )
        with pytest.raises(ConfigError):
            run(RunConfig(num_clients=1), data, counting_rule_backend())

    def test_config_validation_rejects_bad_values(self):
        for broken in (
            RunConfig(num_clients=0),
            RunConfig(sampling_rate=0.0),
            RunConfig(sampling_rate=1.5),
            RunConfig(rounds=0),
            RunConfig(local_epochs=0),
            RunConfig(batch_size=0),
            RunConfig(strategy="merge"),
            RunConfig(initial_prompt="  "),
        ):
            with pytest.raises(ConfigError):
                broken.validate()


def _sum_rule(request) -> str:
    total = sum(int(n) for n in re.findall(r"\d+", request.user_text))
    return f"Adding the items gives {total}. Answer: {total}"


class _SummingSession(LatencySession):
    """Every chat completion answers with the sum of the numbers in its user
    text, after ``delay`` seconds."""

    def __init__(self, delay: float):
        super().__init__(delay, rules=(_sum_rule,))
