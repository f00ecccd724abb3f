"""One workload in one fresh process; prints a single JSON result line.

    python3 bench/worker.py --workload NAME --seed N --setup-only
    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is the import of ``rmbounds`` and the benchmark modules, input
generation and a small warm-up; the process times it itself, so process
start-up is left out.  A measuring run then repeats timed passes over the
fixed input set for ``--seconds``.  With ``--trace 1`` the first half of
that time is untraced; then the per-layer wrappers are installed, one traced
pass runs with the ``is_prime`` cache emptied (its counts are reported),
and the rest of the time runs timed traced passes, so the tracing overhead
is the difference of the two mean pass times.  Outputs of the first pass
are checked against the oracles and every later pass must reproduce them
exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_UNTRACED_PASSES = 3
# End-to-end times are in reference seconds (see timing.py).
REFERENCE_SHARE = 0.03  # reference time run after each pass, as a share of the pass
SETUP_REFERENCE_S = 0.02  # reference time run after set-up, which is also before the first pass

ARITH = ("is_prime", "require_prime", "lambda_p", "digits_base_p", "valuation", "real_cyclotomic_degree", "primes_up_to")
BOUNDS = ("bk_bound", "bk_prime_bound", "b0_bound", "forced_subfield_exponent", "render_table")
CYCLO = ("enumerate_forbidden", "analyze_profile", "forced_compositum")
VERIFY_PROPERTIES = (
    "lambda_zero_iff_below_p", "lambda_lower_bound", "digit_reconstruction", "valuation_additivity",
    "b0_le_bk_prime", "equality_when_p_ge_2d_plus_1", "strict_when_p_ge_5_nondivisor",
    "strict_when_p_le_3_nondivisor", "bk_prime_piecewise_large_p", "bk_prime_small_p_values",
    "bk_prime_divisor_case", "bk_prime_floor_identity", "forced_exponent_monotone",
    "cyclotomic_degree_monotone", "b0_equals_forced_degree_oracle", "single_prime_boundary",
    "reference_grid_d10",
)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile, at most 99, with at least ten samples beyond it."""
    return max(0, min(99, math.floor(100 * (1 - 10 / samples)))) if samples else 0


def percentile(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _is_prime_cache():
    """The ``lru_cache`` of ``arith.is_prime``, or None if it has none."""
    from rmbounds import arith

    fn = arith.is_prime
    fn = fn.__wrapped__ if hasattr(fn, "_bench_wrapper") else fn
    return fn if hasattr(fn, "cache_info") else None


def layer_metrics(first: dict, passes: list[dict], counters: dict, cache: dict, names: dict) -> dict:
    """Per-layer metrics: counts from the cold-cache traced pass, times the median over the timed traced passes."""
    stats, seen = first["stats"], first["observed"]

    def calls(fn):
        return stats.get(fn, [0])[0]

    def median_time(fn, index):
        return statistics.median(p["stats"].get(fn, [0, 0.0, 0.0])[index] for p in passes)

    out = {}
    for layer, fns in (("arith", ARITH), ("bounds", BOUNDS), ("cyclo", CYCLO)):
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
            out[f"{layer}.{fn}.self_s"] = median_time(f"{layer}.{fn}", 2)
    lookups = cache["hits"] + cache["misses"]
    out["arith.is_prime.cache_hit_ratio"] = cache["hits"] / lookups if lookups else 0.0
    out["arith.is_prime.cache_size"] = cache["size"]
    in_enum = seen.get("cyclo.analyze_profile.calls_in_enumerate", 0)
    out["cyclo.analyze_profile.calls_in_enumerate"] = in_enum
    out["cyclo.enumerate_forbidden.profiles"] = seen.get("cyclo.enumerate_forbidden.profiles", 0)
    out["cyclo.forbidden_yield"] = out["cyclo.enumerate_forbidden.profiles"] / in_enum if in_enum else 0.0

    fetches = calls("lmfdb.OrbitDimClient.fetch_orbit_dims")
    out["lmfdb.fetch.calls"] = fetches
    for source in ("fixture", "cache", "network"):
        out[f"lmfdb.fetch.by_source.{source}"] = seen.get(f"lmfdb.fetch.by_source.{source}", 0)
    out["lmfdb.fetch.offline_miss"] = seen.get("lmfdb.fetch.offline_miss", 0)
    out["lmfdb.distinct_levels"] = first["distinct_levels"]
    out["lmfdb.fixture_levels"] = first["fixture_levels"]
    out["lmfdb.level_reuse_ratio"] = first["distinct_levels"] / fetches if fetches else 0.0
    out["lmfdb.transport.calls"] = counters.get("requests", 0)
    out["lmfdb.transport.retries"] = counters.get("retries", 0)
    out["lmfdb.sleep_s.rate_limit"] = counters.get("rate_limit_s", 0.0)
    out["lmfdb.sleep_s.backoff"] = counters.get("backoff_s", 0.0)
    out["lmfdb.cache.put.calls"] = calls("lmfdb.OrbitDimCache.put")
    out["lmfdb.cache.put.self_s"] = median_time("lmfdb.OrbitDimCache.put", 2)
    out["lmfdb.cache.put.bytes"] = counters.get("cache_bytes", 0)
    out["lmfdb.cache.load_s"] = median_time("lmfdb.OrbitDimCache.__init__", 1)
    out["requests"] = counters.get("requests", 0)
    out["polite_wait_s"] = counters.get("polite_wait_s", 0.0)

    by_property = {prop: fn for fn, prop in names.items()}
    for prop in VERIFY_PROPERTIES:
        fn = by_property.get(prop)
        out[f"verify.{prop}.self_s"] = median_time(fn, 2) if fn else 0.0
        out[f"verify.{prop}.cases"] = seen.get(f"cases:{fn}", 0) if fn else 0
    out["cli.main.self_s"] = median_time("cli.main", 2)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    start = perf_counter()
    import rmbounds.cli  # noqa: F401  (the whole package, as the CLI loads it)

    import_s = perf_counter() - start
    import timing
    import tracing
    import workloads

    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
        workload.warm_up()
        setup_s = perf_counter() - start
        if workload.appends_files:
            timing.append_in_ticks(scratch / "reference.jsonl")
        chunk = timing.run_reference(SETUP_REFERENCE_S)
        result = {} if args.setup_only else measure(workload, args, timing, tracing, chunk)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(import_s=import_s, raw_setup_s=setup_s, setup_s=setup_s * timing.scale(chunk))
    print(json.dumps(result))
    return 0


def measure(workload, args, timing, tracing, chunk) -> dict:
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    first = None
    walls, raw_walls, scales, latencies, attempted, mismatched = [], [], [], [], 0, 0

    def one_pass(timer):
        """Runs a pass; returns its measured seconds, ticks left out."""
        nonlocal first, attempted, mismatched
        start = perf_counter()
        result = workload.run_pass(timer)
        wall = perf_counter() - start - timer.overhead
        attempted += result.ops
        if first is None:
            first = result
        elif (result.outputs, result.ops, result.counters) != (first.outputs, first.ops, first.counters):
            mismatched += result.ops
        return wall

    # Each op-level call of an untraced pass is scaled by the reference ticks
    # on either side of it, the rest of the pass by the reference chunks on
    # either side of the pass.
    chunks = [chunk]
    begin = perf_counter()
    while len(walls) < MIN_UNTRACED_PASSES or perf_counter() - begin < untraced_seconds:
        timer = timing.OpTimer(paired=True)
        wall = one_pass(timer)
        chunks.append(timing.run_reference(REFERENCE_SHARE * wall))
        raw_walls.append(wall)
        walls.append(timer.scaled + (wall - timer.timed) * timing.scale(*chunks[-2:]))
        scales.append(walls[-1] / wall)
        latencies.extend(timer.samples)
    passes = len(walls)

    traced = {}
    if args.trace:
        tracer = tracing.Tracer(run_id=f"{workload.name}-{args.seed}-{os.getpid()}")
        wrappers = tracer.install()
        begin = perf_counter()
        # The counts come from one pass that starts with an empty is_prime
        # cache, so the hit ratio and cache size describe a single pass.
        cache = _is_prime_cache()
        if cache is not None:
            cache.cache_clear()
        with tracer.span("pass", {"workload": workload.name, "index": 0, "cold_cache": True}):
            one_pass(timing.OpTimer(tracer.span))
        counts = tracer.snapshot()
        hits, misses, _, size = cache.cache_info() if cache is not None else (0, 0, None, 0)
        cache_stats = {"hits": hits, "misses": misses, "size": size}
        traced_walls, snapshots = [], []
        while not traced_walls or perf_counter() - begin < args.seconds - untraced_seconds:
            tracer.reset()
            with tracer.span("pass", {"workload": workload.name, "index": len(traced_walls) + 1}):
                traced_walls.append(one_pass(timing.OpTimer(tracer.span)))
            snapshots.append(tracer.snapshot())
        passes += 1 + len(traced_walls)
        layers = layer_metrics(counts, snapshots, first.counters, cache_stats, tracer.property_names)
        untraced_wall, traced_wall = statistics.fmean(raw_walls), statistics.fmean(traced_walls)
        layers.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        })
        tracer.write_spans(OUT / f"spans-{workload.name}.jsonl")
        traced = {"layers": layers, "traced_passes": len(traced_walls), "wrappers_installed": wrappers}

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = workload.check(first.outputs) * passes + mismatched
    latencies.sort()
    tail = tail_percentile(len(latencies))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "passes": passes,
        "untraced_passes": len(walls),
        "scale": statistics.median(scales),
        "raw_wall_s": statistics.median(raw_walls),
        "wall_s": statistics.median(walls),
        "ops_per_pass": first.ops,
        "latency_samples": len(latencies),
        "op_p50_ms": percentile(latencies, 50) * 1000,
        "tail_percentile": tail,
        "op_p99_ms": percentile(latencies, tail) * 1000,
        "peak_rss_mb": peak_rss_mb,
        "counters": first.counters,
        "attempted": attempted,
        "failed": failed,
        "wrappers_installed": tracing.count_wrappers(),
        **traced,
    }


if __name__ == "__main__":
    sys.exit(main())
