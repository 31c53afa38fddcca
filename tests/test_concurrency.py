"""The ordered fan-out: independent model calls overlap once the backend's
calls are seen to wait, and the call log, the recorded cassette and every
report still follow program order."""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
import threading
import zlib
from pathlib import Path

import pytest

from fedprompt.backends import base, remote
from fedprompt.backends.base import BackendDescriptor, GenerationRequest
from fedprompt.backends.remote import Cassette, RemoteBackend
from fedprompt.backends.rules import (
    counting_rule_backend,
    evaluation_rule,
    forward_rule,
    gradient_response_rule,
    summarize_rule,
    tgd_rule,
)
from fedprompt.cli import main
from fedprompt.runtime import RunConfig, run
from fedprompt.tasks import build_federated_data
from tests.conftest import LatencySession, make_counting_rows, make_examples, write_jsonl

_ENDPOINT = "http://127.0.0.1:9/v1"
#: per-call latency that stands in for a remote model
_LATENCY = 0.001


def _remote(session, cassette: Cassette | None = None) -> RemoteBackend:
    descriptor = BackendDescriptor(
        kind="remote", model_id="priced", endpoint=_ENDPOINT,
        usd_per_1k_prompt_tokens=0.0013, usd_per_1k_completion_tokens=0.0071,
    )
    return RemoteBackend(descriptor, cassette=cassette, session=session, backoff_base=0.0, sleep=lambda s: None)


def _sampled(user_text: str) -> GenerationRequest:
    return GenerationRequest(tag="forward", system_text="s", user_text=user_text, temperature=0.7)


def _latched(backend: RemoteBackend) -> RemoteBackend:
    """``backend`` after enough waiting calls that its fan-outs overlap."""
    for i in range(base.DECIDING_CALLS):
        backend.generate(_sampled(f"warm-up {i}"))
    assert backend.fan_out.waiting
    return backend


@pytest.fixture()
def thread_starts(monkeypatch) -> list[threading.Thread]:
    """Every thread started while the test runs."""
    started: list[threading.Thread] = []
    original = threading.Thread.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestFanOut:
    def test_nested_results_and_log_follow_thunk_order(self):
        session = LatencySession(_LATENCY, jitter=True)
        backend = _remote(session)

        def inner(i, j):
            return backend.generate(_sampled(f"q{i}{j}")).text

        def outer(i):
            return backend.fan_out.gather([lambda j=j: inner(i, j) for j in range(3)])

        results = backend.fan_out.gather([lambda i=i: outer(i) for i in range(4)])
        backend.fan_out.close()
        expected = [f"q{i}{j}" for i in range(4) for j in range(3)]
        assert [text for row in results for text in row] == [forward_rule(_sampled(q)) for q in expected]
        assert [r.request.user_text for r in backend.call_log.records()] == expected
        assert [r.index for r in backend.call_log.records()] == list(range(len(expected)))
        assert session.peak > 1

    def test_fan_out_opened_before_the_first_call_overlaps_once_calls_wait(self):
        # the decision is made while this fan-out is already open: its
        # unstarted thunks must go to workers then, not stay inline
        session = LatencySession(_LATENCY)
        backend = _remote(session)
        thunks = [lambda i=i: [backend.generate(_sampled(f"q{i}.{k}")) for k in range(2)] for i in range(8)]
        backend.fan_out.gather(thunks)
        backend.fan_out.close()
        assert session.peak > 1
        assert [r.request.user_text for r in backend.call_log.records()] == [
            f"q{i}.{k}" for i in range(8) for k in range(2)
        ]

    def test_a_raising_thunk_lets_the_started_ones_finish_and_commit(self, tmp_path):
        path = tmp_path / "cassette.jsonl"
        session = LatencySession(_LATENCY)
        backend = _latched(_remote(session, Cassette(path, mode="record")))
        warm_up_lines = len(path.read_text().splitlines())
        everyone_called = threading.Barrier(4)
        finished = []

        def thunk(i):
            backend.generate(_sampled(f"q{i}"))
            everyone_called.wait(timeout=10)  # all four run at once
            if i in (1, 3):
                raise RuntimeError(f"thunk {i} failed")
            finished.append(i)

        with pytest.raises(RuntimeError, match="thunk 1 failed"):
            backend.fan_out.gather([lambda i=i: thunk(i) for i in range(4)])
        backend.fan_out.close()
        assert sorted(finished) == [0, 2]
        texts = [r.request.user_text for r in backend.call_log.records()]
        assert texts[base.DECIDING_CALLS:] == ["q0", "q1", "q2", "q3"]
        lines = path.read_text().splitlines()[warm_up_lines:]
        assert [json.loads(line)["request"]["messages"][1]["content"] for line in lines] == [
            "q0", "q1", "q2", "q3"
        ]

    def test_stress_many_thunks_keep_every_record_in_order(self):
        # more workers than cores, and threads switching as often as the
        # interpreter allows: a lost or misplaced record breaks the log
        session = LatencySession(0.0002, jitter=True)
        backend = _latched(_remote(session))
        n = 96
        outcome = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            driver = threading.Thread(
                target=lambda: outcome.append(backend.fan_out.gather(
                    [lambda i=i: backend.generate(_sampled(f"q{i}")).text for i in range(n)]
                )),
                daemon=True,
            )
            driver.start()
            driver.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
            backend.fan_out.close()
        assert not driver.is_alive()
        records = backend.call_log.records()[base.DECIDING_CALLS:]
        assert [r.request.user_text for r in records] == [f"q{i}" for i in range(n)]
        assert outcome[0] == [forward_rule(_sampled(f"q{i}")) for i in range(n)]
        assert [r.index for r in backend.call_log.records()] == list(range(base.DECIDING_CALLS + n))
        assert backend.call_log.counts_by_tag()["forward"] == base.DECIDING_CALLS + n
        assert backend.call_log.total_cost_usd() == math.fsum(r.cost_usd for r in backend.call_log.records())
        assert session.peak > 2

    def test_no_thunk_starts_after_one_failed(self):
        backend = counting_rule_backend()  # never waits, so thunks run inline
        ran = []

        def thunk(i):
            ran.append(i)
            if i == 1:
                raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            backend.fan_out.gather([lambda i=i: thunk(i) for i in range(4)])
        assert ran == [0, 1]

    def test_nested_fan_outs_finish_with_a_single_worker(self, monkeypatch):
        monkeypatch.setattr(base, "MAX_WORKERS", 1)
        backend = _latched(_remote(LatencySession(_LATENCY)))
        outcome = []

        def nested():
            outcome.append(backend.fan_out.gather([
                lambda i=i: backend.fan_out.gather([
                    lambda j=j: backend.generate(_sampled(f"q{i}{j}")).text for j in range(4)
                ])
                for i in range(4)
            ]))

        driver = threading.Thread(target=nested, daemon=True)
        driver.start()
        driver.join(timeout=30)
        backend.fan_out.close()
        assert not driver.is_alive(), "nested fan-outs deadlocked"
        assert outcome[0] == [[forward_rule(_sampled(f"q{i}{j}")) for j in range(4)] for i in range(4)]

    def test_a_backend_that_does_not_wait_runs_thunks_inline(self, thread_starts):
        backend = _remote(LatencySession(0.0))
        threads = backend.fan_out.gather(
            [lambda i=i: (backend.generate(_sampled(f"q{i}")), threading.get_ident())[1] for i in range(12)]
        )
        assert set(threads) == {threading.get_ident()}
        assert (backend.fan_out.deciding, backend.fan_out.waiting) == (False, False)
        assert thread_starts == []

    def test_memo_answers_do_not_decide(self):
        backend = _remote(LatencySession(_LATENCY))
        greedy = GenerationRequest(tag="evaluation", system_text="", user_text="judge this")
        for _ in range(3 * base.DECIDING_CALLS):
            backend.generate(greedy)
        assert (backend.fan_out.deciding, backend.fan_out.waiting) == (True, False)
        _latched(backend)


def _cfg() -> RunConfig:
    return RunConfig(num_clients=3, rounds=2, local_epochs=2, batch_size=2, seed=5)


def _data():
    return build_federated_data(make_examples(20), 3, seed=7)


class TestRun:
    def test_records_match_a_sequential_run(self):
        outcomes = []
        for delay in (0.0, _LATENCY):
            session = LatencySession(delay, jitter=True)
            backend = _remote(session)
            report = run(_cfg(), _data(), backend)
            calls = [(r.tag, r.request.system_text, r.request.user_text) for r in backend.call_log.records()]
            outcomes.append((report, calls, session.peak))
        (sequential, seq_calls, seq_peak), (concurrent, calls, peak) = outcomes
        assert (seq_peak, peak > 1) == (1, True)
        assert calls == seq_calls
        assert concurrent.records == sequential.records
        assert concurrent.decisions == sequential.decisions
        assert concurrent.prompt_history == sequential.prompt_history

    def test_mock_run_starts_no_thread(self, thread_starts):
        backend = counting_rule_backend()
        run(_cfg(), _data(), backend)
        assert thread_starts == []

    def test_no_thread_outlives_run(self, thread_starts):
        session = LatencySession(_LATENCY)
        before = set(threading.enumerate())
        run(_cfg(), _data(), _remote(session))
        assert session.peak > 1
        assert thread_starts
        assert not any(t.is_alive() for t in thread_starts)
        assert set(threading.enumerate()) <= before


def _run_argv(tmp_path: Path, out: str, *extra: str) -> list[str]:
    dataset = tmp_path / "counting.jsonl"
    if not dataset.exists():
        write_jsonl(dataset, make_counting_rows(20))
    return [
        "run", "--dataset", str(dataset), "--out", str(tmp_path / out), "--clients", "3", "--rounds", "2",
        "--local-steps", "2", "--batch-size", "2", "--seed", "5", "--backend", "remote", "--endpoint", _ENDPOINT,
        *extra,
    ]


def _run_dir_files(out: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(out)): path.read_bytes()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


class TestCommandLine:
    def test_run_dir_matches_a_sequential_run_byte_for_byte(self, tmp_path, monkeypatch):
        outputs = []
        for label, delay in (("sequential", 0.0), ("concurrent", _LATENCY)):
            session = LatencySession(delay, jitter=True)
            monkeypatch.setattr(remote.requests, "Session", lambda: session)
            assert main(_run_argv(tmp_path, label)) == 0
            outputs.append((_run_dir_files(tmp_path / label), session.peak))
        (sequential, seq_peak), (concurrent, peak) = outputs
        assert (seq_peak, peak > 1) == (1, True)
        assert "report.json" in concurrent
        assert concurrent == sequential

    def test_concurrent_recording_replays_byte_identically(self, tmp_path, monkeypatch, thread_starts):
        # Identical temperature-0.7 forward requests get different answers,
        # and each answer flows into the criticisms and so into the rewritten
        # prompt. A cassette whose lines follow completion order rather than
        # program order would hand them back to the wrong requests.
        draws = itertools.count(1)

        def drawn_forward(request):
            text = forward_rule(request)
            return text if text is None or request.temperature == 0 else f"Draw {next(draws)}. {text}"

        def draw_echoing_criticism(request):
            if request.tag != "gradient_prompt":
                return None
            draw = re.search(r"Draw \d+", request.user_text)
            return f"{draw.group(0) if draw else 'Greedy'}: demand each addition step before the answer line."

        def digest_rewrite(request):
            text = tgd_rule(request)
            return text and f"[{zlib.crc32(request.user_text.encode())}] {text}"

        rules = (drawn_forward, evaluation_rule, gradient_response_rule, draw_echoing_criticism,
                 digest_rewrite, summarize_rule)
        session = LatencySession(_LATENCY, rules=rules, jitter=True)
        monkeypatch.setattr(remote.requests, "Session", lambda: session)
        cassette = tmp_path / "cassette.jsonl"
        assert main(_run_argv(tmp_path, "record", "--cassette", str(cassette), "--cassette-mode", "record")) == 0
        assert session.peak > 1
        repeated = [
            line["request"] for line in map(json.loads, cassette.read_text().splitlines())
            if line["request"]["temperature"] == 0.7 and line["request"]["messages"][0]["content"]
        ]
        assert len(repeated) > len({json.dumps(r, sort_keys=True) for r in repeated})

        replayer = LatencySession()
        monkeypatch.setattr(remote.requests, "Session", lambda: replayer)
        started = len(thread_starts)
        assert main(_run_argv(tmp_path, "replay", "--cassette", str(cassette), "--cassette-mode", "replay")) == 0
        assert replayer.posts == 0
        assert thread_starts[started:] == []
        assert _run_dir_files(tmp_path / "replay") == _run_dir_files(tmp_path / "record")
