from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import fedprompt
from fedprompt.backends import remote
from fedprompt.backends.ngram import NgramBackend
from fedprompt.backends.base import GENERATION_TAGS, CallLog
from fedprompt.cli import _BUILDERS, _open_run_dir, _resolve_run_settings, build_backend, build_parser, main
from fedprompt.errors import ConfigError
from fedprompt.inputs import BUNDLED
from fedprompt.prompts import PromptState
from fedprompt.runtime import BatchDecision, RoundRecord, RunConfig
from fedprompt.tasks import build_federated_data, load_dataset
from tests.conftest import FINAL_INSTRUCTION, LatencySession, ServerError, make_counting_rows, write_jsonl


def _dataset(tmp_path: Path, n: int = 20, name: str = "counting.jsonl") -> Path:
    return write_jsonl(tmp_path / name, make_counting_rows(n))


def _run_args(dataset: Path, out: Path, **extra: str) -> list[str]:
    args = [
        "run",
        "--dataset", str(dataset),
        "--out", str(out),
        "--clients", "2",
        "--rounds", "1",
        "--local-steps", "1",
        "--batch-size", "2",
        "--seed", "3",
    ]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


_ANSWER = "Answer: 7"


class _AnswerSession:
    """Stands in for ``requests.Session`` and for each response it returns:
    every chat completion answers ``_ANSWER``."""

    status_code = 200
    text = ""

    def post(self, url, json=None, headers=None, timeout=None):
        return self

    def json(self):
        return {"choices": [{"message": {"content": _ANSWER}}]}


class _BodySession(_AnswerSession):
    """Answers every chat completion with HTTP 200 and ``body``."""

    def __init__(self, body):
        self.body = body

    def json(self):
        return self.body


class _NonJsonSession(_AnswerSession):
    """Answers every chat completion with HTTP 200 and a body that is not JSON."""

    text = "<html>busy</html>"

    def json(self):
        return json.loads(self.text)


class _ContextLengthSession(_AnswerSession):
    """Rejects every request as too long for the model's context."""

    status_code = 400
    text = '{"error": {"code": "context_length_exceeded"}}'

    def json(self):
        return json.loads(self.text)


class _DyingSession(LatencySession):
    """Answers like :class:`LatencySession` for ``lives`` posts, then with HTTP 500."""

    def __init__(self, lives: int):
        super().__init__()
        self.lives = lives

    def post(self, url, json=None, headers=None, timeout=None):
        if self.posts < self.lives:
            return super().post(url, json, headers, timeout)
        self.posts += 1
        return ServerError()


_ENDPOINT = "http://127.0.0.1:9/v1"
#: ``run`` flags that replay the cassette named by the next argument
_REPLAY = ("--backend", "remote", "--endpoint", _ENDPOINT, "--cassette-mode", "replay", "--cassette")


def _lines(out: Path, name: str) -> list[str]:
    return (out / name).read_text(encoding="utf-8").splitlines()


def _tree(root: Path) -> dict[str, bytes]:
    """Every file under ``root`` but a manifest, by path relative to ``root``."""
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def _run_actions() -> list[argparse.Action]:
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return subcommands.choices["run"]._actions


def _error_payload(capsys) -> dict:
    err_lines = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
    return json.loads(err_lines[-1])


class TestRunCommand:
    def test_happy_path_writes_run_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(_dataset(tmp_path), out)) == 0
        stdout = capsys.readouterr().out
        assert "best_val_accuracy=" in stdout
        assert "test_accuracy=" in stdout
        for name in ("manifest.json", "report.json", "rounds.jsonl", "decisions.jsonl"):
            assert (out / name).is_file()
        assert (out / "prompts" / "round_0" / "global.txt").is_file()
        for name in ("client_0.txt", "client_1.txt", "global.txt"):
            assert (out / "prompts" / "round_1" / name).is_file()

    def test_report_shape(self, tmp_path):
        out = tmp_path / "out"
        main(_run_args(_dataset(tmp_path), out))
        report = json.loads((out / "report.json").read_text())
        assert report["rounds"] == 1
        assert len(report["per_round_val_accuracy"]) == 1
        assert report["best_prompt"]["producer"] == "concat"
        assert "tgd_step" in report["llm_calls_by_tag"]
        assert report["llm_calls_issued_by_tag"] == report["llm_calls_by_tag"]  # no memo on the mock
        assert "started_at" not in report

    def test_manifest_records_hashes_not_secrets(self, tmp_path):
        out = tmp_path / "out"
        dataset = _dataset(tmp_path)
        main(_run_args(dataset, out))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_sha256"][str(dataset)]
        assert manifest["templates_sha256"]
        assert manifest["backend_descriptor"]["kind"] == "mock"
        assert "api_key" not in json.dumps(manifest).lower().replace("api_key_env", "")

    def test_bundled_demo_dataset_is_default(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "run", "--out", str(out), "--rounds", "1", "--local-steps", "1",
                "--batch-size", "2", "--seed", "0",
            ]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["dataset_sha256"]) == ["bundled:demo_counting"]

    def test_config_file_with_flag_override(self, tmp_path):
        dataset = _dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "num_clients": 2,
                    "rounds": 2,
                    "local_epochs": 1,
                    "batch_size": 2,
                    "seed": 9,
                    "datasets": [str(dataset)],
                }
            )
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--rounds", "1", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["rounds"] == 1  # flag beat the file
        assert manifest["config"]["seed"] == 9

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"round_count": 2}))
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["category"] == "config"
        assert "round_count" in payload["message"]

    def test_manifest_reexecution_reproduces_report(self, tmp_path):
        dataset = _dataset(tmp_path)
        out1, out2 = tmp_path / "first", tmp_path / "second"
        assert main(_run_args(dataset, out1)) == 0
        assert main(["run", "--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_same_seed_byte_identical_outputs(self, tmp_path):
        dataset = _dataset(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(_run_args(dataset, out1))
        main(_run_args(dataset, out2))
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        prompts1 = sorted(p.relative_to(out1) for p in (out1 / "prompts").rglob("*.txt"))
        prompts2 = sorted(p.relative_to(out2) for p in (out2 / "prompts").rglob("*.txt"))
        assert prompts1 == prompts2
        for rel in prompts1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    def test_missing_dataset_is_config_error_and_no_run_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(_run_args(tmp_path / "absent.jsonl", out))
        assert code == 2
        assert _error_payload(capsys)["category"] == "config"
        assert not out.exists()

    def test_corrupt_dataset_is_dataset_error_and_no_run_dir(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"question": "q", "answer": "1"}\nnot json\n')
        out = tmp_path / "out"
        code = main(_run_args(bad, out))
        assert code == 6
        assert _error_payload(capsys)["category"] == "dataset"
        assert not out.exists()

    def test_an_id_shared_by_two_dataset_files_is_dataset_error_and_no_run_dir(self, tmp_path, capsys):
        rows = (BUNDLED / "demo_counting.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)[:20]
        first, copy = tmp_path / "counting_a.jsonl", tmp_path / "counting_c.jsonl"
        for path in (first, copy):
            path.write_text("".join(rows), encoding="utf-8")
        out = tmp_path / "out"
        argv = ["run", "--dataset", str(first), "--dataset", str(copy), "--clients", "2", "--rounds", "1"]
        assert main([*argv, "--out", str(out)]) == 6
        payload = _error_payload(capsys)
        assert payload["error"] == "DuplicateId"
        assert payload["message"] == f"dataset file {copy}: example id 'demo:1' is also in {first}"
        assert not out.exists()

    def test_the_log_holds_one_round_of_records_at_a_time(self, tmp_path, monkeypatch):
        logs, drained = [], []
        drain = CallLog.drain

        def counting_drain(log):
            logs.append(log)
            records = drain(log)
            drained.append(Counter(r.request.tag for r in records))
            return records

        monkeypatch.setattr(CallLog, "drain", counting_drain)
        out = tmp_path / "out"
        assert main(["run", "--out", str(out), "--rounds", "3", "--seed", "0"]) == 0
        rounds = [json.loads(line) for line in _lines(out, "rounds.jsonl")]
        assert drained == [Counter(r["llm_calls_by_tag"]) for r in rounds]
        (log,) = set(logs)
        test = build_federated_data(load_dataset(BUNDLED / "demo_counting.jsonl"), 3, seed=0).test
        assert len(log) == len(test)  # test scoring comes after the last barrier: only its calls are held
        assert [r.request.metadata["example_id"] for r in log.records()] == [ex.id for ex in test]

    def test_invalid_sampling_rate_is_config_error(self, tmp_path, capsys):
        code = main(
            _run_args(_dataset(tmp_path), tmp_path / "out", sampling_rate="1.5")
        )
        assert code == 2
        assert _error_payload(capsys)["category"] == "config"

    def test_config_file_blank_prompts_and_string_numbers_match_flags(self, tmp_path):
        dataset = _dataset(tmp_path)
        by_flags = tmp_path / "flags"
        assert main(
            _run_args(dataset, by_flags, rounds="2", sampling_rate="0.5", strategy="summarize")
        ) == 0
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "num_clients": 2,
                    "local_epochs": 1,
                    "batch_size": 2,
                    "seed": 3,
                    "strategy": "summarize",
                    "datasets": [str(dataset)],
                    "initial_prompt": "",
                    "final_instruction": None,
                    "rounds": "2",
                    "sampling_rate": "0.5",
                }
            )
        )
        by_file = tmp_path / "file"
        assert main(["run", "--config", str(config), "--out", str(by_file)]) == 0
        assert (by_file / "report.json").read_bytes() == (by_flags / "report.json").read_bytes()
        configs = [
            json.loads((out / "manifest.json").read_text())["config"] for out in (by_flags, by_file)
        ]
        for snapshot in configs:
            del snapshot["output_dir"]
        assert configs[0] == configs[1]

    def test_defaults_come_from_run_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run"]) == 0
        (manifest,) = tmp_path.glob("runs/*/manifest.json")
        snapshot = json.loads(manifest.read_text())["config"]
        defaults = dataclasses.asdict(RunConfig())
        assert {key: snapshot[key] for key in defaults} == defaults

    def test_cassette_replay_past_recording_exits_backend(self, tmp_path, monkeypatch, capsys):
        # One client, one repeated question, and a prompt that already equals
        # every model answer: round 2 repeats round 1's requests exactly, so
        # only running out of recorded responses can stop a two-round replay
        # of a one-round recording.
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        rows = [{"id": f"q:{i}", "question": "How many pens?", "answer": "7"} for i in range(10)]
        dataset = write_jsonl(tmp_path / "same.jsonl", rows)
        cassette = tmp_path / "cassette.jsonl"

        def run_with_cassette(mode: str, rounds: str) -> int:
            return main(
                _run_args(
                    dataset, tmp_path / f"{mode}-{rounds}", clients="1", rounds=rounds,
                    initial_prompt=_ANSWER, backend="remote", endpoint="http://127.0.0.1:9/v1",
                    cassette=cassette, cassette_mode=mode,
                )
            )

        assert run_with_cassette("record", "1") == 0
        assert run_with_cassette("replay", "1") == 0
        capsys.readouterr()
        assert run_with_cassette("replay", "2") == 3
        payload = _error_payload(capsys)
        assert payload["category"] == "backend"
        assert "no response left" in payload["message"]

    def _config_run(self, tmp_path: Path, **config) -> int:
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {"datasets": [str(_dataset(tmp_path))], "num_clients": 2, "local_epochs": 1,
                 "batch_size": 2, **config}
            )
        )
        return main(["run", "--config", str(path), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"rounds": "two"}, "rounds"),
            ({"backend": {"kind": "mock", "context_window": "big"}}, "backend.context_window"),
        ],
        ids=["run-config-field", "backend-field"],
    )
    def test_malformed_number_exits_config(self, tmp_path, capsys, config, key):
        assert self._config_run(tmp_path, **config) == 2
        payload = _error_payload(capsys)
        assert payload["category"] == "config"
        assert payload["message"].startswith(f"{key} must be an integer")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, message",
        [
            # the key is gone: concurrency is no longer a setting
            ({"deterministic": "false"}, "unknown config key: 'deterministic'"),
            ({"heterogeneous": "false"}, "must be true or false"),
        ],
        ids=["deterministic", "heterogeneous"],
    )
    def test_string_booleans_exit_config(self, tmp_path, capsys, monkeypatch, config, message):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        assert self._config_run(tmp_path, **config) == 2
        payload = _error_payload(capsys)
        assert payload["category"] == "config"
        assert message in payload["message"]

    def test_manifest_with_the_removed_deterministic_key_exits_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(_run_args(_dataset(tmp_path), out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["deterministic"] = True
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["run", "--config", str(old), "--out", str(tmp_path / "again")]) == 2
        assert _error_payload(capsys)["message"] == "unknown config key: 'deterministic'"

    @pytest.mark.parametrize(
        "backend, manifest",
        [
            ({"kind": "mock", "modle_id": "typo"}, False),
            ({"kind": "remote", "endpoint": _ENDPOINT, "supports_logprobs": False}, False),
            ({"supports_logprobs": False}, True),
            ({"kind": "remote", "endpoint": _ENDPOINT, "api_key": "sk-test"}, False),
        ],
        ids=["typo", "removed-key", "old-manifest", "credential"],
    )
    def test_unknown_backend_key_exits_config_before_the_run_directory(self, tmp_path, capsys, backend, manifest):
        (key,) = backend.keys() - {"kind", "endpoint"}
        if manifest:  # a manifest written while the key existed
            assert main(_run_args(_dataset(tmp_path), tmp_path / "first")) == 0
            doc = json.loads((tmp_path / "first" / "manifest.json").read_text())
            doc["config"]["backend"].update(backend)
            config = tmp_path / "old-manifest.json"
            config.write_text(json.dumps(doc))
            capsys.readouterr()
            code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
        else:
            code = self._config_run(tmp_path, backend=backend)
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["message"] == f"unknown config key: 'backend.{key}'"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            # a mock run asked to replay a cassette used to run without one
            (["--cassette", "/nonexistent.jsonl", "--cassette-mode", "replay"], None,
             "backend.cassette is not a key of the mock backend"),
            # a remote run used to ignore the script without a word
            (["--backend", "remote", "--endpoint", _ENDPOINT, "--script", "/nonexistent.json"], None,
             "backend.script is not a key of the remote backend"),
            ([], {"kind": "mock", "api_key_env": "KEY"}, "backend.api_key_env is not a key of the mock backend"),
        ],
        ids=["mock-cassette-flags", "remote-script-flag", "mock-api-key-env-config"],
    )
    def test_a_key_of_another_backend_kind_exits_config_before_the_run_directory(
        self, tmp_path, monkeypatch, capsys, argv, config, message
    ):
        session = LatencySession()
        monkeypatch.setattr(remote.requests, "Session", lambda: session)
        if config is None:
            code = main([*_run_args(_dataset(tmp_path), tmp_path / "out"), *argv])
        else:
            code = self._config_run(tmp_path, backend=config)
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"category": "config", "error": "ConfigError", "message": message}
        assert session.posts == 0
        assert not (tmp_path / "out").exists()

    def test_a_remote_manifest_rerun_on_the_mock_exits_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        first = tmp_path / "remote"
        assert main(_run_args(_dataset(tmp_path), first, backend="remote", endpoint=_ENDPOINT)) == 0
        capsys.readouterr()
        argv = ["run", "--config", str(first / "manifest.json"), "--backend", "mock", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert _error_payload(capsys)["message"] == "backend.endpoint is not a key of the mock backend"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"\xe4[]", " line 1: not UTF-8 text: 'utf-8' codec can't decode byte 0xe4"),
            (b"[{", ": not valid JSON: Expecting property name"),
            (b'{"tag": "forward", "user_text": "q", "response": "Answer: 1"}', ": not a JSON list of entries"),
            (b'[{"user_text": "q", "response": "Answer: 1"}]',
             ": entry 1 needs string fields tag, user_text, response"),
            (b'[{"tag": "forward", "response": "Answer: 1"}]', ": entry 1 needs string fields"),
            (b'[{"tag": "forward", "user_text": "q"}]', ": entry 1 needs string fields"),
            (b'[{"tag": "forwrd", "user_text": "q", "response": "Answer: 1"}]', ": unknown generation tag: 'forwrd'"),
        ],
        ids=["not-utf8", "not-json", "not-a-list", "no-tag", "no-user-text", "no-response", "unknown-tag"],
    )
    def test_a_bad_mock_script_exits_config_naming_the_file(self, tmp_path, capsys, content, problem):
        script = tmp_path / "script.json"
        script.write_bytes(content)
        out = tmp_path / "out"
        assert main([*_run_args(_dataset(tmp_path), out), "--script", str(script)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("ConfigError", "config")
        assert payload["message"].startswith(f"mock script file {script}{problem}")
        assert not out.exists()

    def test_a_templates_file_missing_a_placeholder_exits_config_before_the_run_directory(self, tmp_path, capsys):
        doc = json.loads((BUNDLED / "templates.json").read_text(encoding="utf-8"))
        doc["gradient_response_template"] = doc["gradient_response_template"].replace("{evaluation}", "")
        templates = tmp_path / "templates.json"
        templates.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "out"
        assert main([*_run_args(_dataset(tmp_path), out), "--templates", str(templates)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        problem = "gradient_response_template must contain the placeholder {evaluation}"
        assert json.loads(line) == {
            "category": "config", "error": "ConfigError", "message": f"template file {templates}: {problem}"
        }
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flags", "config-file"])
    def test_cassette_mode_without_a_cassette_exits_config_before_any_post(self, tmp_path, monkeypatch, capsys, source):
        session = LatencySession()
        monkeypatch.setattr(remote.requests, "Session", lambda: session)
        spec = {"endpoint": _ENDPOINT, "cassette_mode": "replay"}
        if source == "flags":
            code = main(_run_args(_dataset(tmp_path), tmp_path / "out", backend="remote", **spec))
        else:
            code = self._config_run(tmp_path, backend={"kind": "remote", **spec})
        assert code == 2
        assert _error_payload(capsys)["message"] == "backend.cassette_mode needs backend.cassette"
        assert session.posts == 0
        assert not (tmp_path / "out").exists()

    # the n-gram oracle scores text and answers no model call, so no run takes it
    def test_ngram_backend_flag_is_refused_before_the_run_directory(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([*_run_args(_dataset(tmp_path), out), "--backend", "ngram", "--corpus", str(corpus)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_ngram_backend_in_a_config_file_exits_config_before_the_run_directory(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\n")
        assert self._config_run(tmp_path, backend={"kind": "ngram", "corpus": str(corpus)}) == 2
        (line,) = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("ConfigError", "config")
        assert payload["message"] == "backend.kind must be one of mock, remote, got 'ngram'"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flags", "config-file"])
    @pytest.mark.parametrize("ratios", [[0.5, 0.5, 0.5], [1.2, -0.1, -0.1]], ids=["sum-1.5", "negative"])
    def test_bad_ratios_exit_config(self, tmp_path, capsys, source, ratios):
        if source == "flags":
            argv = _run_args(_dataset(tmp_path), tmp_path / "out")
            code = main([*argv, "--ratios", *map(str, ratios)])
        else:
            code = self._config_run(tmp_path, ratios=ratios)
        assert code == 2
        payload = _error_payload(capsys)
        assert payload["category"] == "config"
        assert payload["message"].startswith("ratios must be positive and sum to 1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"rounds": 2.5},
            {"rounds": True},
            {"sampling_rate": None},
            {"ratios": [0.5, 0.5]},
            {"backend": "mock"},
            {"backend": {"kind": "mock", "context_window": 0}},
        ],
        ids=["fraction-as-int", "bool-as-int", "null-number", "two-ratios", "backend-not-object", "zero-window"],
    )
    def test_mistyped_values_exit_config(self, tmp_path, capsys, config):
        assert self._config_run(tmp_path, **config) == 2
        assert _error_payload(capsys)["category"] == "config"

    def test_config_file_must_be_an_object(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        assert main(["run", "--config", str(config)]) == 2
        assert _error_payload(capsys)["category"] == "config"

    def test_endpoint_context_length_error_exits_context_window(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(remote.requests, "Session", _ContextLengthSession)
        out = tmp_path / "out"
        code = main(_run_args(_dataset(tmp_path), out, backend="remote", endpoint=_ENDPOINT))
        assert code == 4
        assert _error_payload(capsys)["category"] == "context-window"
        assert "finished_at" not in json.loads((out / "manifest.json").read_text())
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
    def test_out_that_cannot_be_created_exits_config_before_any_call(self, tmp_path, monkeypatch, capsys, under):
        session = LatencySession()
        monkeypatch.setattr(remote.requests, "Session", lambda: session)
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "out" if under else blocker
        assert main(_run_args(_dataset(tmp_path), out, backend="remote", endpoint=_ENDPOINT)) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["category"] == "config"
        assert session.posts == 0

    def _dying_run(self, tmp_path, monkeypatch, out: Path, full: Path) -> int:
        """Run ``full``'s three rounds into ``out`` against an endpoint that
        answers HTTP 500 from the fifth post of round 2 on."""
        round_1 = json.loads((full / "rounds.jsonl").read_text().splitlines()[0])
        session = _DyingSession(sum(round_1["llm_calls_issued_by_tag"].values()) + 4)
        monkeypatch.setattr(remote.requests, "Session", lambda: session)
        code = main(_run_args(_dataset(tmp_path), out, rounds="3", backend="remote", endpoint=_ENDPOINT))
        assert session.posts > session.lives
        return code

    def _full_run(self, tmp_path, monkeypatch, out: Path) -> None:
        monkeypatch.setattr(remote.requests, "Session", LatencySession)
        assert main(_run_args(_dataset(tmp_path), out, rounds="3", backend="remote", endpoint=_ENDPOINT)) == 0

    def test_a_run_dead_in_round_2_keeps_round_1_and_its_manifest_finishes_it(self, tmp_path, monkeypatch, capsys):
        full, dead = tmp_path / "full", tmp_path / "dead"
        self._full_run(tmp_path, monkeypatch, full)
        assert self._dying_run(tmp_path, monkeypatch, dead, full) == 3
        assert _error_payload(capsys)["category"] == "backend"
        assert "finished_at" not in json.loads((dead / "manifest.json").read_text())
        assert not (dead / "report.json").exists()
        assert _lines(dead, "rounds.jsonl") == _lines(full, "rounds.jsonl")[:1]
        assert _lines(dead, "decisions.jsonl") == [
            line for line in _lines(full, "decisions.jsonl") if json.loads(line)["round"] == 1
        ]
        assert _tree(dead / "prompts") == {
            name: text for name, text in _tree(full / "prompts").items() if name.startswith(("round_0/", "round_1/"))
        }

        monkeypatch.setattr(remote.requests, "Session", LatencySession)
        assert main(["run", "--config", str(dead / "manifest.json")]) == 0
        assert "finished_at" in json.loads((dead / "manifest.json").read_text())
        assert _tree(dead) == _tree(full)

    def test_a_rerun_that_dies_keeps_nothing_of_the_finished_run_before_it(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        self._full_run(tmp_path, monkeypatch, out)
        finished = _lines(out, "rounds.jsonl")
        assert len(finished) == 3
        assert self._dying_run(tmp_path, monkeypatch, out, out) == 3
        assert not (out / "report.json").exists()
        assert "finished_at" not in json.loads((out / "manifest.json").read_text())
        assert _lines(out, "rounds.jsonl") == finished[:1]
        assert {json.loads(line)["round"] for line in _lines(out, "decisions.jsonl")} == {1}

    def test_a_shorter_rerun_leaves_no_prompts_of_the_longer_run_before_it(self, tmp_path):
        out = tmp_path / "out"
        assert main(_run_args(_dataset(tmp_path), out, rounds="3")) == 0
        assert main(_run_args(_dataset(tmp_path), out, rounds="1")) == 0
        assert sorted(p.name for p in (out / "prompts").iterdir()) == ["round_0", "round_1"]
        assert len(_lines(out, "rounds.jsonl")) == 1

    def test_round_and_decision_lines_equal_the_asdict_dumps(self, tmp_path):
        calls = {"forward": 12, "evaluation": 3, "tgd_step": 0}
        record = RoundRecord(
            round=1, strategy="summarize-uid", global_prompt_tokens=41, per_client_tokens=[40, 39],
            val_accuracy=2 / 3, round_cost_usd=0.1 + 0.2, cumulative_cost_usd=1e-17,
            llm_calls_by_tag=calls, llm_calls_issued_by_tag={**calls, "forward": 9},
        )
        decision = BatchDecision(
            client_id=2, round=1, epoch=0, batch_index=3, example_ids=["t:1", "t:\u00e9"],
            incumbent_accuracy=0.5, candidate_accuracy=1 / 3, accepted=False,
        )
        out = tmp_path / "out"
        on_barrier = _open_run_dir(out, {"artifact_version": "test"}, "initial")
        on_barrier(record, {"global": PromptState(text="merged")}, [decision, decision])
        assert _lines(out, "rounds.jsonl") == [json.dumps(dataclasses.asdict(record), sort_keys=True)]
        assert _lines(out, "decisions.jsonl") == [json.dumps(dataclasses.asdict(decision), sort_keys=True)] * 2

    def test_a_replay_of_an_edited_response_exits_backend(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        cassette = tmp_path / "cassette.jsonl"

        def run_with_cassette(mode: str) -> int:
            return main(_run_args(_dataset(tmp_path), tmp_path / mode, backend="remote", endpoint=_ENDPOINT,
                                  cassette=cassette, cassette_mode=mode))

        assert run_with_cassette("record") == 0
        lines = cassette.read_text(encoding="utf-8").splitlines()
        entry = json.loads(lines[-1])
        entry["response"]["choices"][0]["message"]["content"] = "Answer: 8"
        cassette.write_text("\n".join([*lines[:-1], json.dumps(entry)]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_with_cassette("replay") == 3
        payload = _error_payload(capsys)
        assert payload["message"] == (
            f"cassette file {cassette} line {len(lines)}: response_sha256 is not the hash of its response"
        )
        assert not (tmp_path / "replay").exists()

    @pytest.mark.parametrize(
        "body, problem",
        [
            ({"choices": [{"message": {"content": None}}]}, "content is not a string"),
            ({"choices": [{"message": {"content": _ANSWER}}], "usage": 5}, "usage is not an object"),
            ({"choices": [{"message": {"content": _ANSWER}}], "usage": {"prompt_tokens": "12"}},
             "usage.prompt_tokens is not a non-negative integer"),
            ({"choices": [{"message": {"content": _ANSWER}}], "usage": {"prompt_tokens": None}},
             "usage.prompt_tokens is not a non-negative integer"),
            ({"choices": [{"message": {"content": _ANSWER}}], "usage": {"completion_tokens": True}},
             "usage.completion_tokens is not a non-negative integer"),
            ({}, "'choices'"),
            ({"choices": []}, "list index out of range"),
        ],
        ids=["content-null", "usage-a-number", "count-a-string", "count-null", "count-a-bool", "no-choices",
             "empty-choices"],
    )
    def test_a_malformed_chat_completion_exits_backend(self, tmp_path, monkeypatch, capsys, body, problem):
        monkeypatch.setattr(remote.requests, "Session", lambda: _BodySession(body))
        assert main(_run_args(_dataset(tmp_path), tmp_path / "out", backend="remote", endpoint=_ENDPOINT)) == 3
        (line,) = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        assert json.loads(line) == {"category": "backend", "error": "BackendError",
                                    "message": f"malformed chat completion response: {problem}"}

    def test_a_body_that_is_not_json_exits_backend(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(remote.requests, "Session", _NonJsonSession)
        assert main(_run_args(_dataset(tmp_path), tmp_path / "out", backend="remote", endpoint=_ENDPOINT)) == 3
        (line,) = [line for line in capsys.readouterr().err.splitlines() if line.strip()]
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("BackendError", "backend")
        assert payload["message"].startswith("endpoint returned non-JSON body: ")

    @pytest.mark.parametrize("tail", ["", '{"request_hash": "ab'], ids=["whole", "torn"])
    def test_a_recording_remote_run_without_an_endpoint_exits_config_and_leaves_the_cassette(
        self, tmp_path, capsys, tail
    ):
        # the endpoint is checked before the cassette is opened, since a recording cassette ends a torn tail
        cassette = tmp_path / "cassette.jsonl"
        cassette.write_bytes(b'{"request_hash": "0", "request": {}, "response": {}}\n' + tail.encode())
        before = cassette.read_bytes()
        argv = _run_args(_dataset(tmp_path), tmp_path / "out", backend="remote", cassette=cassette,
                         cassette_mode="record")
        assert main(argv) == 2
        assert _error_payload(capsys) == {"category": "config", "error": "ConfigError",
                                          "message": "remote backend needs an endpoint"}
        assert cassette.read_bytes() == before
        assert not (tmp_path / "out").exists()

    def test_a_replayed_response_with_an_edited_usage_exits_backend(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        cassette = tmp_path / "cassette.jsonl"

        def run_with_cassette(mode: str) -> int:
            return main(_run_args(_dataset(tmp_path), tmp_path / mode, backend="remote", endpoint=_ENDPOINT,
                                  cassette=cassette, cassette_mode=mode))

        assert run_with_cassette("record") == 0
        first, *rest = cassette.read_text(encoding="utf-8").splitlines()
        entry = json.loads(first)
        entry["response"]["usage"] = {"prompt_tokens": -1}
        entry["response_sha256"] = hashlib.sha256(json.dumps(entry["response"]).encode()).hexdigest()
        cassette.write_text("\n".join([json.dumps(entry), *rest]) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run_with_cassette("replay") == 3
        assert _error_payload(capsys) == {"category": "backend", "error": "BackendError", "message":
                                          "malformed chat completion response: usage.prompt_tokens is not a "
                                          "non-negative integer"}

    def test_report_counts_issued_calls_and_replays_byte_identically(self, tmp_path, monkeypatch):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        cassette = tmp_path / "cassette.jsonl"

        def run_with_cassette(mode: str) -> dict:
            out = tmp_path / mode
            assert main(
                _run_args(
                    _dataset(tmp_path), out, backend="remote", endpoint="http://127.0.0.1:9/v1",
                    cassette=cassette, cassette_mode=mode,
                )
            ) == 0
            return (out / "report.json").read_bytes()

        recorded = run_with_cassette("record")
        report = json.loads(recorded)
        logical, issued = report["llm_calls_by_tag"], report["llm_calls_issued_by_tag"]
        assert set(issued) == set(logical)
        assert all(issued[tag] <= logical[tag] for tag in logical)
        assert issued["tgd_step"] == logical["tgd_step"]
        assert issued["evaluation"] < logical["evaluation"]
        # the cassette holds only issued exchanges: the report's issued calls
        # plus the test split's
        lines = cassette.read_text(encoding="utf-8").splitlines()
        assert sum(issued.values()) < len(lines) < sum(logical.values())

        monkeypatch.setattr(remote.requests, "Session", lambda: None)  # replay must not post
        assert run_with_cassette("replay") == recorded


class TestAggregateCommand:
    def _prompt_files(self, tmp_path: Path, texts: list[str]) -> list[str]:
        paths = []
        for i, text in enumerate(texts):
            p = tmp_path / f"prompt_{i}.txt"
            p.write_text(text + "\n")
            paths.append(str(p))
        return paths

    def test_concat_prints_joined_prompt(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["alpha one", "beta two"])
        assert main(["aggregate", *files, "--strategy", "concat"]) == 0
        assert capsys.readouterr().out == "alpha one\n\nbeta two\n"
        Path(files[0]).write_bytes(b"alpha\r\none\r\n")  # Windows and classic Mac OS line endings read as "\n"
        Path(files[1]).write_bytes(b"beta\rtwo\r")
        assert main(["aggregate", *files, "--strategy", "concat"]) == 0
        assert capsys.readouterr().out == "alpha\none\n\nbeta\ntwo\n"

    def test_dynamic_notes_branch_on_stderr(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["short alpha", "short beta"])
        assert main(["aggregate", *files, "--strategy", "dynamic"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "short alpha\n\nshort beta\n"
        assert "dynamic: concat branch used" in captured.err

    def test_stats_prints_surprisal_summary(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["alpha beta alpha", "beta alpha beta"])
        assert main(["aggregate", *files, "--strategy", "concat", "--stats"]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert set(payload) >= {"mu", "sigma2", "max", "n", "tokens"}
        assert payload["tokens"]["inputs"] == [3, 3]

    @pytest.mark.parametrize("strategy", ["concat", "summarize"])
    def test_stats_on_prompts_with_no_tokens_is_config_error_before_the_oracle_is_built(
        self, tmp_path, capsys, monkeypatch, strategy
    ):
        builds = []
        monkeypatch.setattr("fedprompt.cli.NgramBackend", lambda *args, **kwargs: builds.append(args))
        files = self._prompt_files(tmp_path, ["", " \t"])
        assert main(["aggregate", *files, "--strategy", strategy, "--stats"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("ConfigError", "config")
        assert payload["message"] == f"prompt file {files[0]}, {files[1]}: has no tokens"
        assert builds == []

    def test_stats_scores_a_merge_of_one_blank_and_one_worded_prompt(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["", "alpha beta"])
        assert main(["aggregate", *files, "--strategy", "concat", "--stats"]) == 0
        payload = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert payload["tokens"]["inputs"] == [0, 2]
        assert payload["n"] == 2

    def test_budget_overflow_exits_context_window(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["one two three", "four five six"])
        code = main(["aggregate", *files, "--strategy", "concat", "--budget", "5"])
        assert code == 4
        assert _error_payload(capsys)["category"] == "context-window"

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_a_budget_below_one_exits_config_before_any_merge(self, tmp_path, capsys, monkeypatch, budget):
        merges = []
        monkeypatch.setattr("fedprompt.cli.aggregate", lambda *args, **kwargs: merges.append(args))
        files = self._prompt_files(tmp_path, ["alpha one", "beta two"])
        assert main(["aggregate", *files, "--strategy", "concat", "--budget", budget]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert json.loads(line) == {"category": "config", "error": "ConfigError",
                                    "message": f"--budget must be at least 1, got {budget}"}
        assert merges == []

    def test_blank_summary_exits_aggregation(self, tmp_path, capsys):
        script = tmp_path / "script.json"
        script.write_text(
            json.dumps(
                [
                    {
                        "tag": "aggregation_summarize",
                        "user_text": "",
                        "response": "   ",
                        "match": "prefix",
                    }
                ]
            )
        )
        files = self._prompt_files(tmp_path, ["alpha", "beta"])
        code = main(
            ["aggregate", *files, "--strategy", "summarize", "--script", str(script)]
        )
        assert code == 5
        assert _error_payload(capsys)["category"] == "aggregation"

    def test_missing_prompt_file_is_config_error(self, tmp_path, capsys):
        code = main(["aggregate", str(tmp_path / "nope.txt"), "--strategy", "concat"])
        assert code == 2
        assert _error_payload(capsys)["category"] == "config"


class TestSurprisalCommand:
    def _write(self, tmp_path: Path, name: str, text: str) -> str:
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    def test_csv_and_summary_footer(self, tmp_path, capsys):
        corpus = self._write(tmp_path, "corpus.txt", "a b a b a b\na b")
        text = self._write(tmp_path, "text.txt", "a b")
        assert main(["surprisal", "--text", text, "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.replace("\r", "").splitlines() if line]
        assert lines[0] == "token,logprob_nat,surprisal_bits"
        assert lines[1].startswith("a,")
        assert lines[2].startswith("b,")
        footer = json.loads(lines[-1])
        assert set(footer) == {"mu", "sigma2", "max", "n"}
        assert footer["n"] == 2

    def test_csv_scores_the_text_once(self, tmp_path, capsys, monkeypatch):
        corpus = self._write(tmp_path, "corpus.txt", "a b a b a b\na b")
        text = self._write(tmp_path, "text.txt", "a b a")
        scored = []
        original = NgramBackend.token_logprobs

        def counted(backend, context, text):
            scored.append(text)
            return original(backend, context, text)

        monkeypatch.setattr(NgramBackend, "token_logprobs", counted)
        assert main(["surprisal", "--text", text, "--corpus", corpus]) == 0
        assert scored == ["a b a"]
        lines = capsys.readouterr().out.splitlines()
        footer = json.loads(lines[-1])
        rows = [line.split(",") for line in lines[1:-1]]
        assert [float(r[2]) for r in rows] == pytest.approx([-float(r[1]) / math.log(2) for r in rows])
        assert footer["max"] == max(float(r[2]) for r in rows)

    def test_compare_emits_verdict(self, tmp_path, capsys):
        corpus = self._write(tmp_path, "corpus.txt", "a a a a a a a a b")
        flat = self._write(tmp_path, "flat.txt", "a a a a")
        spiky = self._write(tmp_path, "spiky.txt", "a b a b")
        code = main(
            [
                "surprisal", "--text", flat, "--corpus", corpus,
                "--compare", spiky, "--order", "1", "--alpha", "0",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["more_uniform"] == "a"
        assert payload["a"]["sigma2"] < payload["b"]["sigma2"]

    def test_missing_corpus_is_config_error(self, tmp_path, capsys):
        text = self._write(tmp_path, "text.txt", "a b")
        code = main(["surprisal", "--text", text, "--corpus", str(tmp_path / "no.txt")])
        assert code == 2
        assert _error_payload(capsys)["category"] == "config"

    @pytest.mark.parametrize("corpus", ["", "."], ids=["empty", "directory"])
    def test_corpus_path_that_is_no_file_is_config_error(self, tmp_path, capsys, corpus):
        text = self._write(tmp_path, "text.txt", "a b")
        assert main(["surprisal", "--text", text, "--corpus", corpus]) == 2
        assert _error_payload(capsys)["message"] == f"corpus file not found: {corpus}"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--order", "0", "ngram backend: order must be >= 1"),
            ("--alpha", "-1", "ngram backend: alpha must be >= 0"),
            ("--alpha", "nan", "ngram backend: alpha must be finite"),
            ("--alpha", "inf", "ngram backend: alpha must be finite"),
            ("--alpha", "1e309", "ngram backend: alpha must be finite"),
        ],
    )
    def test_invalid_oracle_parameter_is_config_error(self, tmp_path, capsys, flag, value, message):
        corpus = self._write(tmp_path, "corpus.txt", "a b a b")
        text = self._write(tmp_path, "text.txt", "a b")
        assert main(["surprisal", "--text", text, "--corpus", corpus, flag, value]) == 2
        payload = _error_payload(capsys)
        assert (payload["error"], payload["category"], payload["message"]) == ("ConfigError", "config", message)

    @pytest.mark.parametrize("compare", [False, True], ids=["csv", "compare"])
    def test_alpha_zero_with_a_zero_probability_token_is_config_error(self, tmp_path, capsys, compare):
        corpus = self._write(tmp_path, "corpus.txt", "a b a b")
        text = self._write(tmp_path, "text.txt", "a a b")
        args = ["surprisal", "--corpus", corpus, "--order", "2", "--alpha", "0"]
        if compare:  # the finite text first: the zero-probability token is in the second
            args += ["--text", self._write(tmp_path, "finite.txt", "a b"), "--compare", text]
        else:
            args += ["--text", text]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("ConfigError", "config")
        assert payload["message"].startswith("token 'a' has probability 0")
        assert "--alpha must be > 0" in payload["message"]

    @pytest.mark.parametrize("missing", ["text", "corpus", "compare"])
    def test_every_input_is_read_before_the_oracle_is_built(self, tmp_path, capsys, monkeypatch, missing):
        builds = []
        original = NgramBackend.__init__

        def counted(backend, *args, **kwargs):
            builds.append(args)
            original(backend, *args, **kwargs)

        monkeypatch.setattr(NgramBackend, "__init__", counted)
        paths = {name: self._write(tmp_path, f"{name}.txt", "a b") for name in ("text", "corpus", "compare")}
        names = list(paths)
        for name in names[names.index(missing) :]:  # the missing input and every later one
            paths[name] = str(tmp_path / f"no-{name}.txt")
        argv = ["surprisal", "--text", paths["text"], "--corpus", paths["corpus"], "--compare", paths["compare"]]
        assert main(argv) == 2
        what = {"text": "text", "corpus": "corpus", "compare": "comparison text"}[missing]
        assert _error_payload(capsys)["message"] == f"{what} file not found: {paths[missing]}"
        assert builds == []

    @pytest.mark.parametrize(
        "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"],
        ids=["VT", "FF", "FS", "GS", "RS", "NEL", "LS", "PS"],
    )
    def test_a_corpus_line_ends_at_newline_only(self, tmp_path, capsys, brk):
        text = self._write(tmp_path, "text.txt", "a b")
        outputs = []
        for sep in (brk, " "):
            corpus = tmp_path / "corpus.txt"
            corpus.write_text(f"a{sep}b a b\n", encoding="utf-8")
            assert main(["surprisal", "--text", text, "--corpus", str(corpus)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        # one sequence "a b a b": P(b|a) = (2+1)/(2+3), not (1+1)/(1+3) as two sequences "a" and "b a b" give
        token, _, bits = outputs[0].splitlines()[2].split(",")
        assert token == "b" and float(bits) == pytest.approx(math.log2(5 / 3))

    @pytest.mark.parametrize("blank", ["", " \n\t\n\u3000"], ids=["empty", "whitespace"])
    @pytest.mark.parametrize("input_", ["text", "corpus", "compare"])
    def test_an_input_with_no_tokens_is_config_error_before_the_oracle_is_built(
        self, tmp_path, capsys, monkeypatch, input_, blank
    ):
        builds = []
        monkeypatch.setattr("fedprompt.cli.NgramBackend", lambda *args, **kwargs: builds.append(args))
        paths = {name: self._write(tmp_path, f"{name}.txt", "a b") for name in ("text", "corpus", "compare")}
        Path(paths[input_]).write_text(blank, encoding="utf-8")
        argv = ["surprisal", "--text", paths["text"], "--corpus", paths["corpus"], "--compare", paths["compare"]]
        assert main(argv if input_ == "compare" else argv[:-2]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        payload = json.loads(line)
        assert (payload["error"], payload["category"]) == ("ConfigError", "config")
        what = {"text": "text", "corpus": "corpus", "compare": "comparison text"}[input_]
        assert payload["message"] == f"{what} file {paths[input_]}: has no tokens"
        assert builds == []


class TestScoreCommand:
    def test_accuracy_readout(self, tmp_path, capsys):
        rows = make_counting_rows(50)
        for row in rows[:7]:
            row["answer"] = "999"
        dataset = write_jsonl(tmp_path / "fifty.jsonl", rows)
        prompt = tmp_path / "prompt.txt"
        prompt.write_text(f"Count the items. {FINAL_INSTRUCTION}\n")
        code = main(["score", "--prompt", str(prompt), "--dataset", str(dataset)])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy: 0.86" in out
        assert "parse_failures: 0" in out
        assert "correct: 43/50" in out

    def test_unparseable_dataset_exits_dataset(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("p\n")
        code = main(["score", "--prompt", str(prompt), "--dataset", str(bad)])
        assert code == 6
        assert _error_payload(capsys)["category"] == "dataset"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "--config", "{dir}"], "config file not found: {dir}"),
        (["run", "--dataset", "{dir}", "--out", "{out}"], "dataset file not found: {dir}"),
        (["run", "--script", "{dir}", "--out", "{out}"], "mock script file not found: {dir}"),
        (["run", "--templates", "{dir}", "--out", "{out}"], "template file not found: {dir}"),
        (["run", *_REPLAY, "{dir}", "--out", "{out}"], "cassette file not found: {dir}"),
        (["score", "--prompt", "{file}", "--dataset", "{dir}"], "dataset file not found: {dir}"),
        (["aggregate", "{file}", "{dir}", "--strategy", "concat"], "prompt file not found: {dir}"),
    ],
    ids=["run-config", "run-dataset", "run-script", "run-templates", "run-cassette", "score-dataset",
         "aggregate-prompt"],
)
def test_a_directory_given_as_an_input_file_is_config_error(tmp_path, capsys, argv, message):
    paths = {"dir": str(tmp_path), "out": str(tmp_path / "out"), "file": str(tmp_path / "prompt.txt")}
    (tmp_path / "prompt.txt").write_text(f"Count the items. {FINAL_INSTRUCTION}\n")
    assert main([arg.format(**paths) for arg in argv]) == 2
    payload = _error_payload(capsys)
    assert (payload["error"], payload["message"]) == ("ConfigError", message.format(**paths))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, error, code",
    [
        (["surprisal", "--text", "{bad}", "--corpus", "{file}"], "text file {bad} line 1: not UTF-8 text: ", 2),
        (["surprisal", "--text", "{file}", "--corpus", "{bad}"], "corpus file {bad} line 1: not UTF-8 text: ", 2),
        (
            ["surprisal", "--text", "{file}", "--corpus", "{file}", "--compare", "{bad}"],
            "comparison text file {bad} line 1: not UTF-8 text: ",
            2,
        ),
        (["aggregate", "{file}", "{bad}", "--strategy", "concat"], "prompt file {bad} line 1: not UTF-8 text: ", 2),
        (["score", "--prompt", "{bad}", "--dataset", "{dataset}"], "prompt file {bad} line 1: not UTF-8 text: ", 2),
        (["score", "--prompt", "{file}", "--dataset", "{bad}"], "dataset file {bad} line 1: not UTF-8 text: ", 6),
        (["run", "--dataset", "{bad}", "--out", "{out}"], "dataset file {bad} line 1: not UTF-8 text: ", 6),
        (["run", "--script", "{bad}", "--out", "{out}"], "mock script file {bad} line 1: not UTF-8 text: ", 2),
        (["run", "--templates", "{bad}", "--out", "{out}"], "template file {bad} line 1: not UTF-8 text: ", 2),
        (["run", *_REPLAY, "{bad}", "--out", "{out}"], "cassette file {bad} line 1: not UTF-8 text: ", 3),
    ],
    ids=["surprisal-text", "surprisal-corpus", "surprisal-compare", "aggregate-prompt", "score-prompt",
         "score-dataset", "run-dataset", "run-script", "run-templates", "run-cassette"],
)
def test_an_input_file_that_is_not_utf8_exits_with_its_documented_code(tmp_path, capsys, argv, error, code):
    paths = {"bad": str(tmp_path / "latin1.txt"), "file": str(tmp_path / "prompt.txt"),
             "dataset": str(_dataset(tmp_path)), "out": str(tmp_path / "out")}
    Path(paths["bad"]).write_bytes("Z\u00e4hle die Dinge.\n".encode("latin-1"))
    Path(paths["file"]).write_text(f"Count the items. {FINAL_INSTRUCTION}\n")
    assert main([arg.format(**paths) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    payload = json.loads(line)
    assert payload["category"] == {2: "config", 3: "backend", 6: "dataset"}[code]
    assert payload["message"].startswith(error.format(**paths)) and "can't decode byte 0xe4" in payload["message"]
    assert not (tmp_path / "out").exists()


class TestImports:
    def test_commands_that_never_post_do_not_import_requests(self, tmp_path):
        corpus, text = tmp_path / "corpus.txt", tmp_path / "text.txt"
        corpus.write_text("a b c a b\nb c a\n", encoding="utf-8")
        text.write_text("a b c\n", encoding="utf-8")
        prompt = tmp_path / "prompt.txt"
        prompt.write_text(f"Count the items. {FINAL_INSTRUCTION}\n", encoding="utf-8")
        dataset = _dataset(tmp_path, 3)
        script = f"""
import contextlib, io, sys
import fedprompt.cli
assert "requests" not in sys.modules, "import fedprompt.cli"
for argv in (
    ["surprisal", "--text", {str(text)!r}, "--corpus", {str(corpus)!r}],
    ["score", "--prompt", {str(prompt)!r}, "--dataset", {str(dataset)!r}],
    ["aggregate", {str(prompt)!r}, {str(prompt)!r}, "--strategy", "concat", "--stats"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert fedprompt.cli.main(argv) == 0, argv
    assert "requests" not in sys.modules, argv[0]
"""
        src = str(Path(fedprompt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


class TestParser:
    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_run_strategy_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--strategy", "majority"])

    def test_every_run_flag_writes_a_settings_key(self, tmp_path):
        settings = _resolve_run_settings(build_parser().parse_args(["run"]))
        dests = [a.dest for a in _run_actions() if a.dest not in ("config", "help")]
        backend_keys = {d.removeprefix("backend.") for d in dests if d.startswith("backend.")}
        assert [d for d in dests if d not in settings and not d.startswith("backend.")] == []
        assert backend_keys - {"kind"} <= {key for _, keys in _BUILDERS.values() for key in keys}
        # each kind's builder reads every key the kind lists: a value that
        # fits no type is then a config error naming the key
        base = {"endpoint": _ENDPOINT, "cassette": str(tmp_path / "c.jsonl"), "cassette_mode": "record"}
        for kind, (_, keys) in _BUILDERS.items():
            for key in keys:
                spec = {k: v for k, v in base.items() if k in keys}
                with pytest.raises(ConfigError, match=rf"^backend\.{key} "):
                    build_backend({**spec, "kind": kind, key: [1]})

    def test_backend_flags_and_config_keys_give_equal_manifests(self, tmp_path, monkeypatch):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        script = tmp_path / "answer-script.json"
        script.write_text(json.dumps(
            [{"tag": tag, "user_text": "", "response": _ANSWER, "match": "prefix"} for tag in GENERATION_TAGS]
        ))
        described = {"model_id": "answer-model", "context_window": 4096}
        by_kind = {
            "mock": {"kind": "mock", "script": str(script), **described},
            "remote": {
                "kind": "remote",
                "endpoint": _ENDPOINT,
                **described,
                "cassette": str(tmp_path / "cassette.jsonl"),
                "cassette_mode": "record",
                "api_key_env": "ANSWER_KEY",
            },
        }
        flag_of = {
            a.dest.removeprefix("backend."): a.option_strings[0]
            for a in _run_actions()
            if a.dest.startswith("backend.")
        }
        assert set(flag_of) == {key for values in by_kind.values() for key in values}
        dataset = _dataset(tmp_path)
        for kind, values in by_kind.items():
            flags = [arg for key, value in values.items() for arg in (flag_of[key], str(value))]
            config = tmp_path / f"{kind}-config.json"
            config.write_text(json.dumps({"backend": values}))
            assert main([*_run_args(dataset, tmp_path / f"{kind}-flags"), *flags]) == 0
            assert main([*_run_args(dataset, tmp_path / f"{kind}-file"), "--config", str(config)]) == 0
            manifests = [
                json.loads((tmp_path / f"{kind}-{src}" / "manifest.json").read_text()) for src in ("flags", "file")
            ]
            for manifest in manifests:
                del manifest["started_at"], manifest["finished_at"], manifest["config"]["output_dir"]
            assert manifests[0] == manifests[1]
            assert manifests[0]["config"]["backend"] == values
            descriptor = manifests[0]["backend_descriptor"]
            assert (descriptor["kind"], descriptor["model_id"], descriptor["context_window"]) == (
                kind, "answer-model", 4096
            )
