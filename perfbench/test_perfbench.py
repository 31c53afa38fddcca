"""Tests of the benchmark's own parts: the fake transport, the call-count law,
the input generator and the span arithmetic.

    python -m pytest perfbench
"""

from __future__ import annotations

import dataclasses

import requests

import gen
import workloads
from fake_transport import FakeTransport, classify
from fedprompt import aggregation, engine, runtime, tasks
from fedprompt.aggregation import AggregationInput
from fedprompt.backends.base import GENERATION_TAGS, BackendDescriptor, GenerationRequest, count_tokens
from fedprompt.backends.ngram import NgramBackend
from fedprompt.backends.remote import RemoteBackend
from fedprompt.engine import Variable
from fedprompt.prompts import PromptState
from fedprompt.tasks import TaskExample
from spans import Span, SpanIndex, Tracer, layer_metrics


def remote_backend() -> RemoteBackend:
    return RemoteBackend(BackendDescriptor(kind="remote", model_id="fake-model", endpoint=workloads.ENDPOINT))


def test_every_tag_built_by_the_package_is_classified_correctly():
    transport = FakeTransport()
    with transport.installed():
        backend = remote_backend()
        prompt = Variable("Count carefully. Answer: $VALUE", "system prompt", requires_grad=True)
        query = Variable("You have 2 pens, and 3 mugs. How many objects do you have in total?")
        response = engine.forward_response(prompt, query, backend)
        evaluation = engine.evaluate(response, "5", "Judge the response.", backend)
        engine.backward(evaluation, backend)
        engine.tgd_step(prompt, backend)
        tasks.score(prompt.value, [TaskExample("q", query.value, "5")], backend)
        merge = AggregationInput(
            prompts=[(0, PromptState("First. Answer.")), (1, PromptState("Second. Answer."))],
            backend=backend,
        )
        aggregation.aggregate("summarize", merge)
        aggregation.aggregate("summarize-uid", merge)
    logged = backend.call_log.counts_by_tag()
    assert set(transport.by_tag) == set(GENERATION_TAGS)
    assert transport.by_tag == {tag: n for tag, n in logged.items() if n}


def test_classify_falls_back_to_evaluation_for_unknown_openings():
    assert classify("a system prompt", "Below are the criticisms on x") == "forward"
    assert classify("", "Some response text. Answer: 4") == "evaluation"


def test_usage_is_returned_and_counted():
    transport = FakeTransport()
    request = GenerationRequest("forward", "Add the numbers.", "You have 2 pens, and 3 mugs.")
    with transport.installed():
        result = remote_backend().generate(request)
    assert result.text.endswith("Answer: 5")
    assert result.prompt_tokens == request.prompt_token_count()
    assert result.completion_tokens == count_tokens(result.text)
    assert transport.requests == 1
    assert transport.tokens == result.prompt_tokens + result.completion_tokens


def test_greedy_repeat_share_counts_only_temperature_zero_repeats():
    transport = FakeTransport()
    with transport.installed():
        backend = remote_backend()
        for temperature in (0.0, 0.0, 0.7, 0.7):
            backend.generate(GenerationRequest("forward", "p", "You have 1 cars.", temperature=temperature))
    assert (transport.greedy_requests, transport.greedy_repeats) == (2, 1)
    assert transport.greedy_repeat_share == 0.5


def test_installed_restores_the_session_class():
    original = requests.Session
    with FakeTransport().installed():
        assert requests.Session is not original
    assert requests.Session is original


def test_stamped_rules_mint_versions_and_forwards_echo_them():
    transport = FakeTransport(stamped=True)
    with transport.installed():
        backend = remote_backend()
        prompt = Variable("Count.", "system prompt", requires_grad=True, gradients=["be explicit"])
        first = engine.tgd_step(prompt, backend).value
        second = engine.tgd_step(prompt, backend).value
        answer = engine.forward_response(Variable(first), Variable("You have 2 pens, and 3 mugs."), backend).value
    assert first.startswith("[v1] ") and second.startswith("[v2] ")
    assert answer.startswith("[v1] ")
    assert tasks.extract_answer(answer) == "5"


def test_call_law_matches_the_demo_figures():
    assert sum(workloads.expected_calls(workloads.FED_REMOTE, workloads.DEMO_SIZE, with_test=True).values()) == 1575


def test_a_small_run_passes_every_output_check(tmp_path):
    cfg = workloads.FedConfig(clients=3, sampling_rate="1.0", local_steps=1, batch_size=3,
                              strategy="summarize", rounds=2)
    result = workloads.FedRun(5, tmp_path, cfg, latency_s=0.0, stamped=True).run_once()
    assert result.errors == []
    law = workloads.expected_calls(cfg, workloads.DEMO_SIZE, with_test=True)
    assert result.calls == sum(law.values())


def test_a_wrong_call_count_fails_the_check(tmp_path):
    cfg = workloads.FedConfig(clients=3, sampling_rate="1.0", local_steps=1, batch_size=3,
                              strategy="concat", rounds=1)
    out = tmp_path / "run"
    with FakeTransport().installed():
        _, code, _, err = workloads.invoke(workloads.FedRun(5, tmp_path, cfg, 0.0, False).argv(out))
    assert workloads.check_run_dir(out, code, err, cfg, workloads.DEMO_SIZE) == []
    two_epochs = dataclasses.replace(cfg, local_steps=2)
    errors = workloads.check_run_dir(out, code, err, two_epochs, workloads.DEMO_SIZE)
    assert any("closed-form law" in e for e in errors)


def test_generator_is_a_function_of_its_seed(tmp_path):
    a, b, c = (tmp_path / name for name in "abc")
    for directory, seed in ((a, 1), (b, 1), (c, 2)):
        directory.mkdir()
        gen.write_inputs("surprisal-long", seed, directory)
        gen.write_inputs("fed-long-mock", seed, directory)
    names = sorted(p.name for p in a.iterdir())
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    assert any((a / n).read_bytes() != (c / n).read_bytes() for n in names)
    assert len((a / "long.txt").read_text().split()) == gen.LONG_TEXT_TOKENS
    assert len((a / "counting.jsonl").read_text().splitlines()) == gen.LONG_DATASET_SIZE


def test_busy_counts_outermost_spans_and_self_time_subtracts_children():
    spans = [
        Span(1, 0, "outer", 0.0, 10.0),
        Span(2, 1, "layer", 1.0, 5.0),
        Span(3, 2, "layer", 2.0, 3.0),  # nested in the same layer: not counted twice
        Span(4, 1, "other", 4.0, 7.0),  # overlaps span 2: the union is subtracted
    ]
    ix = SpanIndex(spans)
    assert ix.busy("layer") == 4.0
    assert ix.self_time(spans[0]) == 4.0


def test_surprisal_check_accepts_the_cli_output_and_rejects_a_wrong_reference(tmp_path):
    corpus, text = tmp_path / "corpus.txt", tmp_path / "text.txt"
    corpus.write_text("\n".join(gen.corpus_lines(3, 50)) + "\n")
    text.write_text("You have 3 lamps, and 2 cars. Answer: 5\n")
    oracle = NgramBackend([line for line in corpus.read_text().splitlines() if line.strip()], order=workloads.ORDER)
    ref = workloads.reference_stats(oracle, text.read_text().strip())
    _, code, out, _ = workloads.invoke(
        ["surprisal", "--text", str(text), "--corpus", str(corpus), "--order", str(workloads.ORDER)])
    assert code == 0 and workloads.check_csv(out, ref, "t") == []
    ref["series"][0] += 1e-6
    ref["mu"] += 1e-6
    assert len(workloads.check_csv(out, ref, "t")) == 2


def test_tracer_spans_cover_a_run_and_uninstall_restores_the_package(tmp_path):
    original = engine.forward_response
    cfg = workloads.FedConfig(clients=3, sampling_rate="1.0", local_steps=1, batch_size=3,
                              strategy="concat", rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        result = workloads.FedRun(5, tmp_path, cfg, 0.0, False).run_once(tracer)
    finally:
        tracer.uninstall()
    assert engine.forward_response is original and runtime.forward_response is original
    m = layer_metrics(tracer.spans, result.wall_s)
    law = workloads.expected_calls(cfg, workloads.DEMO_SIZE, with_test=True)
    assert {tag: m[f"backends.generate.calls.{tag}"] for tag in law} == law
    assert m["engine.tgd_step.calls"] == law["tgd_step"]
    assert 0 < m["backends.transport.busy_s"] < m["runtime.client_update.busy_s"]
