"""The benchmark's workloads: one job each through ``fedprompt.cli.main``,
the expected outputs, and the checks that compare them.

Every job drives a real user entry point in this process. Model traffic of
``fedprompt run`` goes to ``FakeTransport`` through ``--backend remote``.
Run directories and cassettes go to the per-run scratch directory and are
removed after each job.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

from fedprompt import cli
from fedprompt.backends.ngram import NgramBackend

import gen
from fake_transport import FakeTransport

#: Never contacted: ``FakeTransport`` replaces the HTTP session. Loopback, so
#: a benchmark whose fake failed to install cannot reach another host.
ENDPOINT = "http://127.0.0.1:9/v1"
LATENCY_NOTE = "2 ms sleep stands in for a remote model; no live endpoint reachable"

DEMO_SIZE = 45
SPLIT = (Fraction("0.6"), Fraction("0.2"), Fraction("0.2"))
REL_TOL = 1e-9


@dataclass
class JobResult:
    wall_s: float
    calls: int
    tokens: int
    errors: list[str] = field(default_factory=list)
    transports: list[FakeTransport] = field(default_factory=list)
    #: per-layer numbers the job measures itself (cassette file size, ...)
    extra: dict[str, float] = field(default_factory=dict)


def invoke(argv: list[str]) -> tuple[float, int, str, str]:
    """Run ``fedprompt <argv>`` in-process: wall time, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(argv)
        wall = time.perf_counter() - start
    return wall, code, out.getvalue(), err.getvalue()


# -- fedprompt run ----------------------------------------------------------------------


@dataclass(frozen=True)
class FedConfig:
    clients: int
    sampling_rate: str
    local_steps: int
    batch_size: int
    strategy: str
    rounds: int

    def flags(self) -> list[str]:
        return [
            "--clients", str(self.clients),
            "--sampling-rate", self.sampling_rate,
            "--local-steps", str(self.local_steps),
            "--batch-size", str(self.batch_size),
            "--strategy", self.strategy,
            "--rounds", str(self.rounds),
        ]


def expected_calls(cfg: FedConfig, n_examples: int, with_test: bool = False) -> dict[str, int]:
    """Closed-form logical calls per tag over the rounds of one run.

    Per sampled client, batches = E·⌈|P|/B⌉; each batch makes 3B forward calls
    (training, incumbent and candidate scoring), B each of evaluation and the
    two gradient calls, and one tgd_step. Each round adds |V| validation
    forwards (and one summarize call for the summarizing strategies). With
    ``with_test`` the run's |T| test forwards are added, which ``report.json``
    leaves out. Needs splits and partitions that divide exactly.
    """
    n_train, n_val, n_test = (r * n_examples for r in SPLIT)
    if any(n.denominator != 1 for n in (n_train, n_val, n_test)) or n_train % cfg.clients:
        raise ValueError(f"{n_examples} examples do not split exactly over {cfg.clients} clients")
    sampled = max(math.floor(Fraction(cfg.sampling_rate) * cfg.clients), 1)
    per_client = int(n_train) // cfg.clients
    batches = sampled * cfg.local_steps * math.ceil(per_client / cfg.batch_size)
    b = cfg.batch_size
    per_round = {
        "forward": batches * 3 * b + int(n_val),
        "evaluation": batches * b,
        "gradient_response": batches * b,
        "gradient_prompt": batches * b,
        "tgd_step": batches,
        "aggregation_summarize": int(cfg.strategy in ("summarize", "summarize-uid")),
    }
    total = {tag: n * cfg.rounds for tag, n in per_round.items()}
    if with_test:
        total["forward"] += int(n_test)
    return total


def check_run_dir(out: Path, code: int, stderr: str, cfg: FedConfig, n_examples: int) -> list[str]:
    if code != 0:
        return [f"fedprompt run exited {code}: {stderr.strip()[:300]}"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    errors = []
    got = {tag: n for tag, n in report["llm_calls_by_tag"].items() if n}
    want = {tag: n for tag, n in expected_calls(cfg, n_examples).items() if n}
    if got != want:
        errors.append(f"llm_calls_by_tag {got} != closed-form law {want}")
    if report["test_accuracy"] != 1.0:
        errors.append(f"test_accuracy {report['test_accuracy']} != 1.0")
    if report["rounds"] != cfg.rounds:
        errors.append(f"rounds {report['rounds']} != {cfg.rounds}")
    return errors


class FedRun:
    """``fedprompt run --backend remote`` against the fake transport."""

    def __init__(self, seed: int, scratch: Path, cfg: FedConfig, latency_s: float,
                 stamped: bool, dataset: Path | None = None, n_examples: int = DEMO_SIZE):
        self.seed = seed
        self.scratch = scratch
        self.cfg = cfg
        self.latency_s = latency_s
        self.stamped = stamped
        self.dataset = dataset
        self.n_examples = n_examples
        self._jobs = 0

    def argv(self, out: Path, *extra: str) -> list[str]:
        argv = ["run", "--backend", "remote", "--endpoint", ENDPOINT, "--model", "fake-model",
                *self.cfg.flags(), "--seed", str(self.seed), "--out", str(out), *extra]
        if self.dataset is not None:
            argv += ["--dataset", str(self.dataset)]
        return argv

    def _next_dir(self, label: str) -> Path:
        self._jobs += 1
        return self.scratch / f"{label}-{self._jobs}"

    def run_once(self, tracer: Any = None) -> JobResult:
        out = self._next_dir("run")
        transport = FakeTransport(self.latency_s, self.stamped, tracer)
        try:
            with transport.installed():
                wall, code, _, err = invoke(self.argv(out))
            errors = check_run_dir(out, code, err, self.cfg, self.n_examples)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return JobResult(wall, transport.requests, transport.tokens, errors, [transport])


class CassetteRoundtrip(FedRun):
    """Record a run into a cassette, then replay it with the transport idle."""

    def run_once(self, tracer: Any = None) -> JobResult:
        rec_out, rep_out = self._next_dir("record"), self._next_dir("replay")
        cassette = self.scratch / f"cassette-{self._jobs}.jsonl"
        recorder = FakeTransport(self.latency_s, self.stamped, tracer)
        replayer = FakeTransport(self.latency_s, self.stamped, tracer)
        try:
            with recorder.installed():
                record_s, code, _, err = invoke(
                    self.argv(rec_out, "--cassette", str(cassette), "--cassette-mode", "record"))
            errors = check_run_dir(rec_out, code, err, self.cfg, self.n_examples)
            cassette_bytes = cassette.stat().st_size if cassette.exists() else 0
            with replayer.installed():
                replay_s, code, _, err = invoke(
                    self.argv(rep_out, "--cassette", str(cassette), "--cassette-mode", "replay"))
            if code != 0:
                errors.append(f"replay exited {code}: {err.strip()[:300]}")
            elif not errors and (rec_out / "report.json").read_bytes() != (rep_out / "report.json").read_bytes():
                errors.append("replay report.json differs from the recorded run's")
            if replayer.requests:
                errors.append(f"replay sent {replayer.requests} transport requests")
        finally:
            for path in (rec_out, rep_out):
                shutil.rmtree(path, ignore_errors=True)
            cassette.unlink(missing_ok=True)
        return JobResult(
            record_s + replay_s, recorder.requests, recorder.tokens, errors, [recorder, replayer],
            {
                "backends.cassette.bytes": cassette_bytes,
                "backends.cassette.record_run_s": record_s,
                "backends.cassette.replay_run_s": replay_s,
            },
        )


# -- fedprompt surprisal ----------------------------------------------------------------

ORDER = 3
ALPHA = 1.0


class OracleCounter:
    """Counts scoring requests and scored tokens sent to the n-gram oracle."""

    def __init__(self) -> None:
        self.calls = 0
        self.tokens = 0
        self._original = None

    def install(self) -> None:
        original = self._original = NgramBackend.token_logprobs
        counter = self

        def counted(backend: NgramBackend, context: str, text: str):
            counter.calls += 1
            counter.tokens += len(context.split()) + len(text.split())
            return original(backend, context, text)

        NgramBackend.token_logprobs = counted  # type: ignore[method-assign]

    def uninstall(self) -> None:
        NgramBackend.token_logprobs = self._original  # type: ignore[method-assign]


def reference_stats(oracle: NgramBackend, text: str) -> dict[str, Any]:
    """Surprisal series and stats from ``NgramBackend.prob`` over windowed histories."""
    tokens = text.split()
    window = ORDER - 1
    series = [
        -math.log(oracle.prob(tok, tokens[max(0, i - window) : i])) / math.log(2)
        for i, tok in enumerate(tokens)
    ]
    mu = sum(series) / len(series)
    return {
        "tokens": tokens,
        "series": series,
        "mu": mu,
        "sigma2": sum((s - mu) ** 2 for s in series) / len(series),
        "max": max(series),
        "n": len(series),
    }


def _stats_errors(label: str, got: dict[str, Any], ref: dict[str, Any]) -> list[str]:
    errors = []
    if got["n"] != ref["n"]:
        errors.append(f"{label}: n {got['n']} != {ref['n']}")
    for key in ("mu", "sigma2", "max"):
        if not math.isclose(got[key], ref[key], rel_tol=REL_TOL, abs_tol=1e-12):
            errors.append(f"{label}: {key} {got[key]!r} != reference {ref[key]!r}")
    return errors


def check_csv(stdout: str, ref: dict[str, Any], label: str) -> list[str]:
    lines = stdout.splitlines()
    rows = list(csv.reader(io.StringIO("\n".join(lines[:-1]))))
    errors = _stats_errors(label, json.loads(lines[-1]), ref)
    if rows[:1] != [["token", "logprob_nat", "surprisal_bits"]]:
        errors.append(f"{label}: unexpected CSV header {rows[:1]}")
    body = rows[1:]
    if [r[0] for r in body] != ref["tokens"]:
        errors.append(f"{label}: CSV tokens differ from the text's tokens")
    bad = sum(
        1 for r, s in zip(body, ref["series"])
        if not math.isclose(float(r[2]), s, rel_tol=REL_TOL, abs_tol=1e-12)
        or not math.isclose(float(r[1]), -s * math.log(2), rel_tol=REL_TOL, abs_tol=1e-12)
    )
    if bad:
        errors.append(f"{label}: {bad} CSV rows differ from the reference surprisals")
    return errors


class SurprisalJob:
    """CSV output on a short and a long text, then ``--compare`` on a pair."""

    def __init__(self, inputs: dict[str, Path]):
        self.inputs = inputs
        corpus = [line for line in inputs["corpus"].read_text(encoding="utf-8").splitlines() if line.strip()]
        oracle = NgramBackend(corpus, order=ORDER, alpha=ALPHA)
        self.reference = {
            name: reference_stats(oracle, inputs[name].read_text(encoding="utf-8").strip())
            for name in ("short", "long", "compare_a", "compare_b")
        }
        self.counter = OracleCounter()

    def _argv(self, text: str, *extra: str) -> list[str]:
        return ["surprisal", "--text", str(self.inputs[text]), "--corpus", str(self.inputs["corpus"]),
                "--order", str(ORDER), "--alpha", str(ALPHA), *extra]

    def run_once(self, tracer: Any = None) -> JobResult:
        self.counter.calls = self.counter.tokens = 0
        self.counter.install()
        wall, errors = 0.0, []
        try:
            for name in ("short", "long"):
                took, code, out, err = invoke(self._argv(name))
                wall += took
                errors += [f"surprisal exited {code}: {err[:300]}"] if code else check_csv(out, self.reference[name], name)
            took, code, out, err = invoke(self._argv("compare_a", "--compare", str(self.inputs["compare_b"])))
            wall += took
            if code:
                errors.append(f"surprisal --compare exited {code}: {err[:300]}")
            else:
                got = json.loads(out)
                ref_a, ref_b = self.reference["compare_a"], self.reference["compare_b"]
                errors += _stats_errors("compare a", got["a"], ref_a) + _stats_errors("compare b", got["b"], ref_b)
                verdict = "a" if ref_a["sigma2"] < ref_b["sigma2"] else "b" if ref_b["sigma2"] < ref_a["sigma2"] else "tie"
                if got["more_uniform"] != verdict:
                    errors.append(f"more_uniform {got['more_uniform']!r} != reference {verdict!r}")
        finally:
            self.counter.uninstall()
        return JobResult(wall, self.counter.calls, self.counter.tokens, errors)


# -- registry ---------------------------------------------------------------------------

FED_REMOTE = FedConfig(clients=3, sampling_rate="1.0", local_steps=3, batch_size=3, strategy="concat", rounds=3)
FED_LONG = FedConfig(clients=10, sampling_rate="0.3", local_steps=1, batch_size=3, strategy="summarize", rounds=40)
CASSETTE = FedConfig(clients=3, sampling_rate="1.0", local_steps=3, batch_size=3, strategy="concat", rounds=20)


def build(workload: str, seed: int, inputs: dict[str, Path], scratch: Path):
    if workload == "fed-remote-2ms":
        return FedRun(seed, scratch, FED_REMOTE, latency_s=0.002, stamped=False)
    if workload == "fed-long-mock":
        return FedRun(seed, scratch, FED_LONG, latency_s=0.0, stamped=True,
                      dataset=inputs["dataset"], n_examples=gen.LONG_DATASET_SIZE)
    if workload == "surprisal-long":
        return SurprisalJob(inputs)
    if workload == "cassette-roundtrip":
        return CassetteRoundtrip(seed, scratch, CASSETTE, latency_s=0.0, stamped=False)
    raise ValueError(f"unknown workload {workload!r}")
