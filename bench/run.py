"""rmbounds benchmark runner.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  For each workload the runner starts fresh
worker processes one at a time: ``SETUP_RUNS`` set-up-only processes, then
one measuring process; ``setup_s`` is the median set-up time the processes
report.  Times are in reference seconds (see ``timing.py``).
It prints every end-to-end metric by name and unit, and as its last line one JSON
object: the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  It exits nonzero, printing no
result, when the package sources are missing or a worker fails.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 14
DEADLINE_S = 170  # whole-run limit, below the 180 s a run may take
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else None
WORKLOADS = ("verify-box", "forbidden-atlas", "scan-online", "scan-cached")


class BenchError(Exception):
    pass


def _worker(args: list[str], timeout: float) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RMBOUNDS_")}
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out after {exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed)]
    setups = [_worker(base + ["--setup-only"], deadline - perf_counter()) for _ in range(SETUP_RUNS)]
    result = _worker(base + ["--seconds", str(seconds), "--trace", str(trace)], deadline - perf_counter())
    processes = setups + [result]
    counters = result["counters"]
    attempted, failed = result["attempted"], result["failed"]
    wrappers_ok = (result["wrappers_installed"] > 0) if trace else (result["wrappers_installed"] == 0)
    end_to_end = {
        "wall_s": (result["wall_s"], "s"),
        "ops_per_s": (result["ops_per_pass"] / result["wall_s"], "1/s"),
        "op_p50_ms": (result["op_p50_ms"], "ms"),
        "op_p99_ms": (result["op_p99_ms"], "ms"),
        "setup_s": (statistics.median(info["setup_s"] for info in processes), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "requests": (counters.get("requests", 0), "count"),
        "polite_wait_s": (counters.get("polite_wait_s", 0.0), "s"),
        "fail_ratio": (failed / attempted, "ratio"),
    }
    import_s = statistics.median(info["import_s"] for info in processes)
    layers = dict(result.get("layers", {}), **{"cli.import_s": import_s})
    return {
        "result": result,
        "end_to_end": end_to_end,
        "layers": layers,
        "correct": failed == 0 and wrappers_ok,
        "attempted": attempted,
        "failed": failed,
    }


def report(name: str, run: dict, trace: int) -> None:
    result = run["result"]
    print(f"== {name}  seed {result['seed']}  passes {result['passes']} "
          f"(untraced {result['untraced_passes']})  src lines {src_lines()}")
    notes = {
        "wall_s": f"median of {result['untraced_passes']} untraced passes, each scaled by the reference "
                  f"work beside it; medians: measured {result['raw_wall_s']:.6g} s, scale {result['scale']:.4f}",
        "ops_per_s": f"{result['ops_per_pass']} ops per pass",
        "op_p50_ms": f"of {result['latency_samples']} samples, each scaled by the reference ticks beside it",
        "op_p99_ms": f"p{result['tail_percentile']} of {result['latency_samples']} samples",
        "setup_s": f"median of {SETUP_RUNS + 1} fresh processes; measured {result['raw_setup_s']:.6g} s "
                   f"in the measuring process",
        "requests": "per pass, exact",
        "polite_wait_s": "per pass, simulated clock, exact",
        "fail_ratio": f"{run['failed']} of {run['attempted']} ops",
    }
    for metric, (value, unit) in run["end_to_end"].items():
        print(f"  {metric:<14} {value:>14.6g} {unit:<6} {notes.get(metric, '')}")
    print(f"  wrappers installed: {result['wrappers_installed']}")
    if trace:
        for metric, value in sorted(run["layers"].items()):
            print(f"  {metric:<52} {value:>14.6g}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"] if SPEC else 20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if SPEC is None or not (ROOT / "src" / "rmbounds" / "__init__.py").is_file():
        print("error: run from a checkout holding BENCHMARK.json and src/rmbounds", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = perf_counter() + DEADLINE_S * len(names)
    runs = {}
    try:
        for name in names:
            runs[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            report(name, runs[name], args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for name, run in runs.items():
        values = {**{k: v for k, (v, _) in run["end_to_end"].items()}, **run["layers"]}
        prefix = "" if len(runs) == 1 else f"{name}."
        for spec in SPEC[kind]:
            metrics[prefix + spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    print(json.dumps({
        "correct": all(run["correct"] for run in runs.values()),
        "attempted": sum(run["attempted"] for run in runs.values()),
        "failed": sum(run["failed"] for run in runs.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
