"""Self-checks of the benchmark itself.

    python3 bench/checks/check_bench.py                 # fakes, oracles, wrappers
    python3 bench/checks/check_bench.py --steadiness    # also: run the suite twice and compare

Run from the repository root.  The quick checks confirm that the always-empty
fake transport reproduces the known request count of an uncached scan, that
the oracles agree with the library's d = 6 forbidden-pair list, and that only
traced runs install wrappers.  ``--steadiness`` runs every workload twice with
the same seed, untraced and traced, and requires every end-to-end metric to
agree within its bound from BENCHMARK.json and every exact count (requests,
simulated wait, per-layer calls and other counts) to agree exactly.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fakes  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
from rmbounds import cyclo, lmfdb  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_END_TO_END = ("requests", "polite_wait_s", "fail_ratio")


def check_empty_transport() -> None:
    """An uncached scan at (d_max=10, budget=2000) asks 4,848 times for 987 distinct levels."""
    fake = fakes.FakeLmfdb(fakes.OrbitData.empty())
    client = lmfdb.OrbitDimClient(transport=fake.transport, clock=fake.clock, sleep=fake.sleep)
    client.annotate_table(10, 2000)
    assert (fake.calls, len(fake.levels)) == (4848, 987), (fake.calls, len(fake.levels))
    assert fake.retries == 0 and fake.backoff_s == 0


def check_fake_data() -> None:
    fixtures = oracles.fixture_dims()
    first, again = (fakes.OrbitData.generate(7, 6, 2000, fixtures) for _ in range(2))
    assert first == again, "orbit data must be a function of the seed"
    assert first != fakes.OrbitData.generate(8, 6, 2000, fixtures)
    fake = fakes.FakeLmfdb(first)
    client = lmfdb.OrbitDimClient(transport=fake.transport, clock=fake.clock, sleep=fake.sleep)
    witnesses = client.annotate_table(6, 2000)
    assert fake.retries > 0 and fake.backoff_s > 0, "429/503 responses must exercise backoff"
    found = {d for (_, d), w in witnesses.items() if w.level is not None and w.level not in fixtures}
    assert found >= set(range(2, 7)), f"network levels must hold witnesses for d = 2..6, found {sorted(found)}"


def check_oracles() -> None:
    library = [p.entries for p in cyclo.enumerate_forbidden(6, 19, 2)]
    oracle = oracles.minimal_forbidden(6, 19, 2)
    assert oracle == library, (oracle, library)
    assert ((5, 3), (13, 3)) in oracle, "5^3 and 13^3 force degrees 2 and 6, whose product 12 does not divide 6"
    for d in (1, 2, 4, 12, 36, 60, 96):
        assert oracles.minimal_forbidden(d, 60, 3) == [p.entries for p in cyclo.enumerate_forbidden(d, 60, 3)], d
    for p in oracles.primes_to(60):
        for d in range(1, 50):
            report = cyclo.analyze_profile({p: oracles.b0(p, d)}, d)
            assert report.admissible and not cyclo.analyze_profile({p: oracles.b0(p, d) + 1}, d).admissible


def check_wrappers(seconds: float) -> None:
    deadline = perf_counter() + run.DEADLINE_S
    for trace in (0, 1):
        result = run.run_workload("scan-cached", 1, seconds, trace, deadline)["result"]
        installed = result["wrappers_installed"]
        assert (installed > 0) if trace else (installed == 0), (trace, installed)


def _exact(name: str) -> bool:
    """Counts, simulated seconds and ratios of counts repeat exactly; measured times do not."""
    return not (name.startswith("trace.") or name.endswith(("self_s", "load_s", "import_s")))


def check_steadiness(seed: int, seconds: float) -> list[str]:
    problems = []
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for name in run.WORKLOADS:
        for trace in (0, 1):
            first, second = (
                run.run_workload(name, seed, seconds, trace, perf_counter() + run.DEADLINE_S) for _ in range(2)
            )
            for key, (value, _) in first["end_to_end"].items():
                other = second["end_to_end"][key][0]
                if key in EXACT_END_TO_END:
                    if value != other:
                        problems.append(f"{name} trace={trace} {key}: {value} != {other}")
                elif not trace and abs(other - value) > bounds[key] * min(value, other):
                    problems.append(f"{name} {key}: {value:.6g} vs {other:.6g} beyond bound {bounds[key]}")
            if trace:
                for key, value in first["layers"].items():
                    if _exact(key) and value != second["layers"][key]:
                        problems.append(f"{name} {key}: {value} != {second['layers'][key]}")
            for run_ in (first, second):
                if not run_["correct"]:
                    problems.append(f"{name} trace={trace}: incorrect ({run_['failed']} failed)")
            print(f"{name} trace={trace}: compared", flush=True)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args()
    for check in (check_empty_transport, check_fake_data, check_oracles):
        check()
        print(f"ok {check.__name__}", flush=True)
    check_wrappers(min(args.seconds, 2))
    print("ok check_wrappers", flush=True)
    if args.steadiness:
        problems = check_steadiness(args.seed, args.seconds)
        for problem in problems:
            print(f"FAIL {problem}")
        if problems:
            return 1
        print("ok check_steadiness")
    return 0


if __name__ == "__main__":
    sys.exit(main())
