from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedprompt
from fedprompt.backends import remote
from fedprompt.backends.ngram import NgramBackend
from fedprompt.cli import _open_run_dir, _resolve_run_settings, build_backend, build_parser, main
from fedprompt.errors import ConfigError
from fedprompt.prompts import PromptState
from fedprompt.runtime import BatchDecision, RoundRecord, RunConfig
from tests.conftest import FINAL_INSTRUCTION, LatencySession, make_counting_rows, write_jsonl


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
        return _ServerError()


class _ServerError:
    status_code = 500
    text = "internal server error"
    headers: dict = {}


_ENDPOINT = "http://127.0.0.1:9/v1"


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
            (
                {"backend": {"kind": "remote", "endpoint": _ENDPOINT, "supports_logprobs": "false"}},
                "must be true or false",
            ),
        ],
        ids=["deterministic", "heterogeneous", "backend.supports_logprobs"],
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

    def test_budget_overflow_exits_context_window(self, tmp_path, capsys):
        files = self._prompt_files(tmp_path, ["one two three", "four five six"])
        code = main(["aggregate", *files, "--strategy", "concat", "--budget", "5"])
        assert code == 4
        assert _error_payload(capsys)["category"] == "context-window"

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
        backend_keys = [d.removeprefix("backend.") for d in dests if d.startswith("backend.")]
        assert [d for d in dests if d not in settings and not d.startswith("backend.")] == []
        assert backend_keys
        # a backend key has a home when some builder reads it: a value that
        # fits no type is then a config error naming the key
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b\n")
        base = {"endpoint": _ENDPOINT, "corpus": str(corpus), "cassette": str(tmp_path / "c.jsonl"),
                "cassette_mode": "record"}
        kinds = next(a.choices for a in _run_actions() if a.dest == "backend.kind")
        for key in backend_keys:
            named = False
            for kind in kinds:
                try:
                    build_backend({**base, "kind": kind, key: [1]})
                except ConfigError as exc:
                    named = named or str(exc).startswith(f"backend.{key} ")
            assert named, f"no backend builder reads backend.{key}"

    def test_backend_flags_and_config_keys_give_equal_manifests(self, tmp_path, monkeypatch):
        monkeypatch.setattr(remote.requests, "Session", _AnswerSession)
        values = {
            "kind": "remote",
            "endpoint": _ENDPOINT,
            "model_id": "answer-model",
            "context_window": 4096,
            "cassette": str(tmp_path / "cassette.jsonl"),
            "cassette_mode": "record",
            "api_key_env": "ANSWER_KEY",
            "script": str(tmp_path / "unread-script.json"),
            "corpus": str(tmp_path / "unread-corpus.txt"),
        }
        flags = []
        for action in _run_actions():
            if action.dest.startswith("backend."):
                flags += [action.option_strings[0], str(values[action.dest.removeprefix("backend.")])]
        assert len(flags) == 2 * len(values)
        dataset = _dataset(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": values}))
        assert main([*_run_args(dataset, tmp_path / "flags"), *flags]) == 0
        assert main([*_run_args(dataset, tmp_path / "file"), "--config", str(config)]) == 0
        manifests = [json.loads((tmp_path / out / "manifest.json").read_text()) for out in ("flags", "file")]
        for manifest in manifests:
            del manifest["started_at"], manifest["finished_at"], manifest["config"]["output_dir"]
        assert manifests[0] == manifests[1]
        assert manifests[0]["config"]["backend"] == values
        descriptor = manifests[0]["backend_descriptor"]
        assert (descriptor["model_id"], descriptor["context_window"]) == ("answer-model", 4096)
