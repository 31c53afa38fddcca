"""Command-line harness: run federated optimization, aggregate prompt files,
measure surprisal, and score prompts against datasets.

Exit codes: 0 ok, 2 config, 3 backend/transport, 4 context window,
5 aggregation, 6 dataset.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import json
import shutil
import sys
import time
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Sequence

from fedprompt import __version__
from fedprompt.aggregation import (
    DEFAULT_DYNAMIC_THRESHOLD,
    DEFAULT_SEPARATOR,
    STRATEGY_IDS,
    AggregationInput,
    aggregate,
)
from fedprompt.backends.base import DEFAULT_CONTEXT_WINDOW, GENERATION_TAGS, Backend, BackendDescriptor
from fedprompt.backends.mock import load_script
from fedprompt.backends.ngram import NgramBackend
from fedprompt.backends.rules import counting_rule_backend
from fedprompt.errors import ConfigError, FedPromptError
from fedprompt.prompts import PromptState
from fedprompt.runtime import RunConfig, RunReport, run
from fedprompt.tasks import (
    DEFAULT_SPLIT_RATIOS,
    FederatedData,
    TaskExample,
    build_federated_data,
    load_dataset,
    score,
)
from fedprompt.templates import Templates, default_templates
from fedprompt.uid import SurprisalStats, compare_uniformity, scored_series, uid_stats

CATEGORY_BY_CODE = {
    2: "config",
    3: "backend",
    4: "context-window",
    5: "aggregation",
    6: "dataset",
}

_BUNDLED_DATASET = "demo_counting"


# -- config values -----------------------------------------------------------------

#: What a config value must be, by the type of the default it replaces.
_EXPECTED = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string",
    type(None): "a string or null", list: "a list", dict: "a JSON object",
}


def _coerce(key: str, value: Any, default: Any) -> Any:
    """``value`` converted to the type of ``default``, or :class:`ConfigError`.

    Numbers may be written as strings (``"rounds": "2"``) but must keep their
    value (``2.5`` is no integer); booleans must be JSON booleans; a ``None``
    default takes a string or null; a list takes a list of as many items as a
    non-empty default, each coerced to the type of the default's first item
    (a string for an empty default).
    """
    kind = type(default)
    if kind in (int, float):
        if not isinstance(value, bool):
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                if kind(value) == float(value):
                    return kind(value)
    elif kind is list:
        if isinstance(value, list) and (not default or len(value) == len(default)):
            return [_coerce(key, item, default[0] if default else "") for item in value]
    elif kind in (bool, dict):
        if isinstance(value, kind):
            return value
    elif isinstance(value, str) or value is None and default is None:
        return value
    raise ConfigError(f"{key} must be {_EXPECTED[kind]}, got {value!r}")


# -- backend construction --------------------------------------------------------


def _spec_args(spec: dict[str, Any], target: Any, *names: str, **renamed: str) -> dict[str, Any]:
    """Keyword arguments for ``target`` from the spec keys it takes.

    ``names`` are parameters whose spec key is their own name; ``renamed``
    maps a parameter to its spec key. A key the spec does not set is left to
    ``target``'s default; a key it sets is coerced to that default's type (a
    parameter without a default takes a string).
    """
    params = inspect.signature(target).parameters
    args = {}
    for name, key in {**{n: n for n in names}, **renamed}.items():
        if key in spec:
            default = params[name].default
            args[name] = _coerce(
                f"backend.{key}", spec[key], "" if default is inspect.Parameter.empty else default
            )
    return args


#: Descriptor fields that every generating backend takes from its spec.
_DESCRIBED = ("model_id", "context_window", "usd_per_1k_prompt_tokens", "usd_per_1k_completion_tokens")


def _mock_backend(spec: dict[str, Any]) -> Backend:
    script = _coerce("backend.script", spec.get("script"), None)
    if script and not Path(script).exists():
        raise ConfigError(f"mock script not found: {script}")
    backend = load_script(script) if script else counting_rule_backend()
    backend.descriptor = dataclasses.replace(
        backend.descriptor, **_spec_args(spec, BackendDescriptor, *_DESCRIBED)
    )
    return backend


def _ngram_backend(spec: dict[str, Any]) -> Backend:
    corpus = _coerce("backend.corpus", spec.get("corpus"), None)
    if not corpus:
        raise ConfigError("ngram backend needs a corpus file")
    return NgramBackend(_corpus_lines(corpus), **_spec_args(spec, NgramBackend, "order", "alpha"))


def _remote_backend(spec: dict[str, Any]) -> Backend:
    from fedprompt.backends.remote import Cassette, RemoteBackend  # only this builder needs requests

    described = _spec_args(spec, BackendDescriptor, "endpoint", "supports_logprobs", *_DESCRIBED)
    descriptor = BackendDescriptor(**{"kind": "remote", "model_id": "gpt-4", **described})
    if not descriptor.endpoint:
        raise ConfigError("remote backend needs an endpoint")
    cassette = _coerce("backend.cassette", spec.get("cassette"), None)
    return RemoteBackend(
        descriptor,
        cassette=Cassette(cassette, **_spec_args(spec, Cassette, mode="cassette_mode")) if cassette else None,
        **_spec_args(spec, RemoteBackend, "api_key_env"),
    )


_BUILDERS = {"mock": _mock_backend, "ngram": _ngram_backend, "remote": _remote_backend}


def build_backend(spec: dict[str, Any]) -> Backend:
    """Build a backend from a config-file/flag spec dict.

    ``spec["kind"]`` picks the builder. Builders pass their constructors only
    the keys the spec sets, so every backend default lives in a constructor.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _BUILDERS:
        raise ConfigError(f"backend.kind must be one of {', '.join(_BUILDERS)}, got {kind!r}")
    try:
        return _BUILDERS[kind](spec)
    except ValueError as exc:  # a constructor rejected a value of the spec
        raise ConfigError(f"{kind} backend: {exc}") from exc


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_templates(path: str | None) -> tuple[Templates, str | None, str]:
    """Templates plus (path or None for bundled) and content hash."""
    if path:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"template file not found: {path}")
        return Templates.from_file(p), str(p), _sha256_file(p)
    bundled = resources.files("fedprompt").joinpath("data/templates.json")
    digest = hashlib.sha256(bundled.read_bytes()).hexdigest()
    return default_templates(), None, digest


def _load_datasets(settings: dict[str, Any]) -> tuple[FederatedData, dict[str, str]]:
    """Load the run's datasets (bundled demo when none given) and build the partition."""
    paths = settings["datasets"]
    hashes: dict[str, str] = {}
    examples: list[TaskExample] = []
    if not paths:
        bundled = resources.files("fedprompt").joinpath(f"data/{_BUNDLED_DATASET}.jsonl")
        hashes[f"bundled:{_BUNDLED_DATASET}"] = hashlib.sha256(bundled.read_bytes()).hexdigest()
        with resources.as_file(bundled) as p:
            examples = load_dataset(p, _BUNDLED_DATASET)
    else:
        for path in paths:
            p = Path(path)
            if not p.exists():
                raise ConfigError(f"dataset path not found: {path}")
            hashes[str(p)] = _sha256_file(p)
            examples.extend(load_dataset(p, p.stem))
    try:
        data = build_federated_data(
            examples,
            settings["num_clients"],
            ratios=tuple(settings["ratios"]),
            seed=settings["seed"],
            heterogeneous=settings["heterogeneous"] or len(paths) > 1,
        )
    except ValueError as exc:  # the split rejected the ratios
        raise ConfigError(str(exc)) from exc
    return data, hashes


# -- run subcommand ----------------------------------------------------------------


#: Parsed-argument names of ``run`` that are not settings.
_NOT_SETTINGS = ("command", "config", "func")


def _read_config(path_text: str) -> dict[str, Any]:
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"config file not found: {path_text}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and isinstance(raw.get("config"), dict) and "artifact_version" in raw:
        raw = raw["config"]  # a manifest.json doubles as a config file
    return _coerce("the config file", raw, {})


def _resolve_run_settings(args: argparse.Namespace) -> dict[str, Any]:
    """Lay the config file, then the flags, over the defaults (flags win).

    The keys are the :class:`RunConfig` fields plus the run's inputs and
    outputs; a config file may set any of them and nothing else. Each flag's
    dest is the key it sets, ``backend.<key>`` for a key of the backend spec,
    whose keys merge over the default spec. Every value is coerced to its
    default's type; an empty or null prompt text means the default text.
    """
    defaults = {
        **dataclasses.asdict(RunConfig()), "backend": {"kind": "mock"}, "datasets": [], "templates_path": None,
        "output_dir": None, "ratios": list(DEFAULT_SPLIT_RATIOS), "heterogeneous": False,
    }
    flags: dict[str, Any] = {}
    for dest, value in vars(args).items():
        if value is not None and dest not in _NOT_SETTINGS:
            section, _, key = dest.rpartition(".")
            (flags.setdefault(section, {}) if section else flags)[key] = value
    settings = dict(defaults)
    for layer in (_read_config(args.config) if args.config else {}, flags):
        for key, value in layer.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key: {key!r}")
            if key in ("initial_prompt", "final_instruction") and not value:
                value = defaults[key]
            value = _coerce(key, value, defaults[key])
            settings[key] = {**settings[key], **value} if key == "backend" else value
    return settings


def _dump_json(path: Path, doc: dict[str, Any]) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _open_run_dir(out_dir: Path, manifest: dict[str, Any], initial_prompt: str) -> Callable[..., None]:
    """Start the run directory and return the ``on_barrier`` hook that adds each round to it.
    Until ``report.json`` exists, ``manifest.json`` re-executes an unfinished run."""

    def write_round(round_no: int, records: list, snapshots: dict[str, PromptState], decisions: list, mode="a") -> None:
        for name, items in (("rounds.jsonl", records), ("decisions.jsonl", decisions)):
            with (out_dir / name).open(mode, encoding="utf-8") as fh:
                fh.writelines(json.dumps(vars(item), sort_keys=True) + "\n" for item in items)
        round_dir = out_dir / "prompts" / f"round_{round_no}"
        round_dir.mkdir(parents=True, exist_ok=True)
        for name, state in snapshots.items():
            filename = "global.txt" if name == "global" else f"client_{name}.txt"
            (round_dir / filename).write_text(state.text + "\n", encoding="utf-8")

    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").unlink(missing_ok=True)
        if (out_dir / "prompts").exists():  # an earlier, longer run's rounds
            shutil.rmtree(out_dir / "prompts")
        _dump_json(out_dir / "manifest.json", manifest)
        write_round(0, [], {"global": PromptState(text=initial_prompt)}, [], mode="w")
    except OSError as exc:
        raise ConfigError(f"cannot write the run directory {out_dir}: {exc}") from exc
    return lambda record, snapshots, decisions: write_round(record.round, [record], snapshots, decisions)


def _report_doc(report: RunReport) -> dict[str, Any]:
    def total_calls(field: str) -> dict[str, int]:
        return {tag: sum(getattr(r, field)[tag] for r in report.records) for tag in GENERATION_TAGS}

    return {
        "best_prompt": dataclasses.asdict(report.best_prompt),
        "final_prompt": dataclasses.asdict(report.final_prompt),
        "best_val_accuracy": report.best_val_accuracy,
        "test_accuracy": report.test_accuracy,
        "test_parse_failures": report.test_parse_failures,
        "total_cost_usd": report.total_cost_usd,
        "final_test_cost_usd": report.final_test_cost_usd,
        "rounds": len(report.records),
        "per_round_token_lengths": [r.global_prompt_tokens for r in report.records],
        "per_round_val_accuracy": [r.val_accuracy for r in report.records],
        "llm_calls_by_tag": total_calls("llm_calls_by_tag"),
        "llm_calls_issued_by_tag": total_calls("llm_calls_issued_by_tag"),
    }


def cmd_run(args: argparse.Namespace) -> int:
    started_at = time.time()
    settings = _resolve_run_settings(args)
    cfg = RunConfig(**{f.name: settings[f.name] for f in dataclasses.fields(RunConfig)})
    cfg.validate()

    templates, templates_path, templates_hash = _load_templates(settings["templates_path"])
    settings["templates_path"] = templates_path
    data, hashes = _load_datasets(settings)
    backend = build_backend(settings["backend"])
    cfg.validate(data)

    out_dir = Path(settings["output_dir"] or f"runs/run-s{cfg.seed}-{cfg.strategy}")
    manifest = {
        "artifact_version": __version__,
        "config": {
            **settings,
            "backend": {k: v for k, v in settings["backend"].items() if "key" not in k.lower() or k == "api_key_env"},
            "output_dir": str(out_dir),
        },
        "templates_sha256": templates_hash,
        "dataset_sha256": hashes,
        "backend_descriptor": dataclasses.asdict(backend.descriptor),
        "started_at": started_at,
    }
    report = run(cfg, data, backend, templates, _open_run_dir(out_dir, manifest, cfg.initial_prompt))
    _dump_json(out_dir / "report.json", _report_doc(report))
    _dump_json(out_dir / "manifest.json", {**manifest, "finished_at": time.time()})
    print(
        f"rounds={len(report.records)} best_val_accuracy={report.best_val_accuracy:.4f} "
        f"test_accuracy={report.test_accuracy:.4f} total_cost_usd={report.total_cost_usd:.6f} out={out_dir}"
    )
    return 0


# -- aggregate subcommand ----------------------------------------------------------


def cmd_aggregate(args: argparse.Namespace) -> int:
    texts = []
    for path in args.prompt_files:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"prompt file not found: {path}")
        texts.append(p.read_text(encoding="utf-8").rstrip("\n"))
    backend = build_backend({"kind": args.backend, "script": args.script})
    templates, _, _ = _load_templates(args.templates)
    agg_input = AggregationInput(
        prompts=[(i, PromptState(text=t)) for i, t in enumerate(texts)],
        separator=args.separator,
        budget=args.budget,
        backend=backend,
    )
    merged = aggregate(
        args.strategy,
        agg_input,
        templates=templates,
        threshold=args.threshold,
        final_instruction=args.final_instruction,
    )
    print(merged.text)
    if args.strategy == "dynamic":
        print(f"dynamic: {merged.producer} branch used", file=sys.stderr)
    if args.stats:
        oracle = NgramBackend(texts)
        stats = uid_stats(merged.text, "", oracle)
        payload = {"tokens": {"merged": len(merged.text.split()), "inputs": [len(t.split()) for t in texts]}}
        payload.update(stats.as_dict())
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return 0


# -- surprisal subcommand ----------------------------------------------------------


def _read_text_file(path: str, what: str) -> str:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} file not found: {path}")
    return p.read_text(encoding="utf-8").strip()


def _corpus_lines(path: str) -> list[str]:
    """The non-blank lines of a corpus file, one training sequence each."""
    return [line for line in _read_text_file(path, "corpus").splitlines() if line.strip()]


def cmd_surprisal(args: argparse.Namespace) -> int:
    text = _read_text_file(args.text, "text")
    spec = {key: getattr(args, key) for key in ("corpus", "order", "alpha")}
    backend = build_backend({"kind": "ngram", **{k: v for k, v in spec.items() if v is not None}})
    if args.compare:
        other = _read_text_file(args.compare, "comparison text")
        report = compare_uniformity(text, other, args.context, backend)
        print(
            json.dumps(
                {
                    "a": report.stats_a.as_dict(),
                    "b": report.stats_b.as_dict(),
                    "more_uniform": report.more_uniform,
                },
                sort_keys=True,
            )
        )
        return 0
    scored, series = scored_series(text, args.context, backend)
    stats = SurprisalStats.from_series(series, lm_id=backend.descriptor.model_id)
    writer = csv.writer(sys.stdout)
    writer.writerow(["token", "logprob_nat", "surprisal_bits"])
    for token, logprob, surprisal in zip(scored.tokens, scored.logprobs, series):
        writer.writerow([token, repr(logprob), repr(surprisal)])
    print(json.dumps(stats.as_dict(), sort_keys=True))
    return 0


# -- score subcommand --------------------------------------------------------------


def cmd_score(args: argparse.Namespace) -> int:
    prompt_text = _read_text_file(args.prompt, "prompt")
    p = Path(args.dataset)
    if not p.exists():
        raise ConfigError(f"dataset path not found: {args.dataset}")
    examples = load_dataset(p, p.stem)
    backend = build_backend({"kind": args.backend, "script": args.script})
    report = score(prompt_text, examples, backend)
    print(f"accuracy: {report.accuracy:.2f}")
    print(f"parse_failures: {report.parse_failures}")
    print(f"correct: {report.correct}/{report.total}")
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedprompt",
        description="Federated prompt optimization with textual gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a federated optimization run")
    p_run.add_argument("--config", help="JSON config file (flags override it)")
    p_run.add_argument("--clients", type=int, dest="num_clients", help="number of clients N")
    p_run.add_argument("--sampling-rate", type=float, help="client sampling rate C in (0,1]")
    p_run.add_argument("--rounds", type=int, help="number of rounds T")
    p_run.add_argument("--batch-size", type=int, help="local batch size B")
    p_run.add_argument("--local-steps", type=int, dest="local_epochs", help="local epochs E")
    p_run.add_argument("--strategy", choices=STRATEGY_IDS, help="aggregation strategy")
    p_run.add_argument("--seed", type=int, help="run seed")
    p_run.add_argument("--backend", choices=tuple(_BUILDERS), dest="backend.kind", help="backend kind")
    p_run.add_argument("--script", dest="backend.script", help="mock backend script file")
    p_run.add_argument("--corpus", dest="backend.corpus", help="ngram backend corpus file")
    p_run.add_argument("--endpoint", dest="backend.endpoint", help="remote backend base URL")
    p_run.add_argument("--model", dest="backend.model_id", help="remote model id")
    p_run.add_argument("--context-window", type=int, dest="backend.context_window", help="context window tokens")
    p_run.add_argument("--cassette", dest="backend.cassette", help="record/replay cassette path")
    p_run.add_argument("--cassette-mode", choices=("record", "replay"), dest="backend.cassette_mode")
    p_run.add_argument("--api-key-env", dest="backend.api_key_env", help="env var holding the API key")
    p_run.add_argument("--dataset", action="append", dest="datasets", help="task JSONL path (repeatable)")
    p_run.add_argument("--ratios", type=float, nargs=3, metavar=("TRAIN", "VAL", "TEST"))
    p_run.add_argument("--heterogeneous", action="store_const", const=True, help="one task per client")
    p_run.add_argument("--templates", dest="templates_path", help="template JSON file")
    p_run.add_argument("--initial-prompt", help="override the initial prompt")
    p_run.add_argument("--threshold", type=int, dest="dynamic_threshold", help="dynamic strategy token threshold")
    p_run.add_argument("--out", dest="output_dir", help="run directory")
    p_run.set_defaults(func=cmd_run)

    p_agg = sub.add_parser("aggregate", help="aggregate prompt files with a strategy")
    p_agg.add_argument("prompt_files", nargs="+", help="one or more prompt text files")
    p_agg.add_argument("--strategy", choices=STRATEGY_IDS, required=True)
    p_agg.add_argument("--separator", default=DEFAULT_SEPARATOR)
    p_agg.add_argument("--budget", type=int, default=DEFAULT_CONTEXT_WINDOW)
    p_agg.add_argument("--threshold", type=int, default=DEFAULT_DYNAMIC_THRESHOLD)
    p_agg.add_argument("--backend", choices=("mock",), default="mock")
    p_agg.add_argument("--script", help="mock backend script file")
    p_agg.add_argument("--templates", help="template JSON file")
    p_agg.add_argument("--final-instruction", dest="final_instruction", help="sentence that must stay last")
    p_agg.add_argument("--stats", action="store_true", help="print token counts and surprisal stats to stderr")
    p_agg.set_defaults(func=cmd_aggregate)

    p_sur = sub.add_parser("surprisal", help="per-token surprisal of a text under an n-gram oracle")
    p_sur.add_argument("--text", required=True, help="text file to measure")
    p_sur.add_argument("--corpus", required=True, help="oracle training corpus (one sequence per line)")
    p_sur.add_argument("--compare", help="second text file; prints the variance ordering instead of CSV")
    p_sur.add_argument("--order", type=int)
    p_sur.add_argument("--alpha", type=float)
    p_sur.add_argument("--context", default="", help="conditioning context prepended before scoring")
    p_sur.set_defaults(func=cmd_surprisal)

    p_score = sub.add_parser("score", help="exact-match accuracy of a prompt file on a dataset")
    p_score.add_argument("--prompt", required=True, help="prompt text file")
    p_score.add_argument("--dataset", required=True, help="task JSONL path")
    p_score.add_argument("--backend", choices=("mock",), default="mock")
    p_score.add_argument("--script", help="mock backend script file")
    p_score.set_defaults(func=cmd_score)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FedPromptError as exc:
        payload = {
            "error": type(exc).__name__,
            "category": CATEGORY_BY_CODE.get(exc.exit_code, "error"),
            "message": str(exc),
        }
        print(json.dumps(payload, sort_keys=True), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
