"""fedprompt benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all   # every workload, one process each

Run from the repository root. The package is imported from ``src/`` of the
checkout this file sits in. Metric names and units come from
``BENCHMARK.json``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the run repeats one job of the workload for ``--seconds``
seconds and reports end-to-end medians. With ``--trace 1`` it alternates
untraced and traced jobs, reports per-layer medians over the traced ones, and
writes the last traced job's spans to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fed-remote-2ms", "fed-long-mock", "surprisal-long", "cassette-roundtrip")
SETUP_REPEATS = 15
MIN_JOBS = 3


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def setup(workload: str, seed: int, scratch: Path) -> tuple[float, dict[str, Path]]:
    """Import the package and generate the workload's inputs, several times.

    Returns the median set-up time and the inputs of the last repeat. Each
    repeat drops every ``fedprompt`` module first, so import-time work is paid
    again.
    """
    times = []
    inputs: dict[str, Path] = {}
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        for name in [m for m in sys.modules if m == "fedprompt" or m.startswith("fedprompt.")]:
            del sys.modules[name]
        importlib.import_module("fedprompt.cli")
        directory = scratch / f"inputs-{i}"
        directory.mkdir()
        inputs = gen.write_inputs(workload, seed, directory)
        times.append(time.perf_counter() - start)
    return statistics.median(times), inputs


def run_job(job, tracer=None):
    gc.collect()
    try:
        return job.run_once(tracer)
    except Exception:  # a crashed job is a failed operation, not a crashed benchmark
        import workloads

        return workloads.JobResult(0.0, 0, 0, [traceback.format_exc()])


def keep_going(started: float, done: int, minimum: int, last_s: float, seconds: float) -> bool:
    """Run at least ``minimum`` rounds, then another only if it fits in ``seconds``."""
    return done < minimum or time.perf_counter() - started + last_s <= seconds


def end_to_end(job, seconds: float, setup_s: float) -> tuple[list, dict[str, float]]:
    results: list = []
    started = time.perf_counter()
    while keep_going(started, len(results), MIN_JOBS, results[-1].wall_s if results else 0.0, seconds):
        results.append(run_job(job))
        if len(results) == MIN_JOBS:
            # how many jobs fit in the run varies with machine speed; freed
            # job memory can leave the heap larger, so read a fixed job count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r.wall_s for r in results),
        "calls_issued": statistics.median_low(r.calls for r in results),
        "tokens_issued": statistics.median_low(r.tokens for r in results),
        "peak_rss_mb": peak_rss_mb,
    }
    return results, metrics


def per_layer(job, seconds: float, names: list[str], spans_path: Path) -> tuple[list, dict[str, float]]:
    from spans import Tracer, layer_metrics

    tracer = Tracer()
    plain: list = []
    traced: list = []
    layers: list[dict[str, float]] = []
    started = time.perf_counter()
    pair_s = 0.0
    while keep_going(started, len(traced), 2, pair_s, seconds):
        pair_started = time.perf_counter()
        plain.append(run_job(job))
        tracer.reset()
        tracer.install()
        try:
            result = run_job(job, tracer)
        finally:
            tracer.uninstall()
        traced.append(result)
        m = layer_metrics(tracer.spans, result.wall_s)
        m["backends.transport.requests"] = sum(t.requests for t in result.transports)
        greedy = sum(t.greedy_requests for t in result.transports)
        repeats = sum(t.greedy_repeats for t in result.transports)
        m["backends.greedy_repeat_share"] = repeats / greedy if greedy else 0.0
        m.update(result.extra)
        m["trace.run_s"] = result.wall_s
        layers.append(m)
        pair_s = time.perf_counter() - pair_started
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    metrics = {name: statistics.median(m.get(name, 0.0) for m in layers) for name in names}
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - statistics.median(r.wall_s for r in plain)
    return plain + traced, metrics


def run_one(args: argparse.Namespace) -> int:
    spec = load_spec()
    src = ROOT / "src"
    if not (src / "fedprompt" / "__init__.py").is_file():
        print(f"error: no fedprompt package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        setup_s, inputs = setup(args.workload, args.seed, scratch)
        import workloads

        job = workloads.build(args.workload, args.seed, inputs, scratch)
        if args.trace:
            spans_path = ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
            wanted = spec["per_layer"]
            results, values = per_layer(job, args.seconds, [m["name"] for m in wanted], spans_path)
        else:
            results, values = end_to_end(job, args.seconds, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    mismatch = {m["name"] for m in wanted} ^ set(values)
    if mismatch:
        print(f"error: metrics measured and metrics declared differ: {sorted(mismatch)}", file=sys.stderr)
        return 2
    failed = [r for r in results if r.errors]
    for r in failed:
        print(f"check failed: {'; '.join(r.errors)}", file=sys.stderr)
    if args.workload == "fed-remote-2ms":
        print(f"note: {workloads.LATENCY_NOTE}")
    for m in wanted:
        print(f"{args.workload} {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"error: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
