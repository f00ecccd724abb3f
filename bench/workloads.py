"""The four benchmark workloads: seeded inputs, one timed pass, and its checks.

A workload generates its whole input set from the seed in ``__init__``
(part of set-up), and ``run_pass`` feeds that fixed set to the library's
public API once, timing each op-level call as one latency sample through
the ``timing.OpTimer`` it is given.  ``run_pass`` returns the outputs, the
op count and exact counters.  ``check`` compares one pass's outputs with
the independent oracles and returns the number of failed ops.

Every call into the library goes through a module attribute
(``verify.run_all``, ``cyclo.analyze_profile``, ...) so the traced run's
rebinding is seen here too.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import fakes
import oracles
from rmbounds import cli, cyclo, lmfdb, verify
from rmbounds.bounds import ALMOST_SHARP, SHARP, BoundTriple


@dataclass
class PassResult:
    outputs: object
    ops: int
    counters: dict[str, float] = field(default_factory=dict)


def _stratified(rng: random.Random, low: float, high: float, count: int) -> list[float]:
    """One seeded draw from each of ``count`` equal slices of [low, high).

    Keeps the cost distribution of a pass, and so its time and tail,
    nearly independent of the seed.
    """
    width = (high - low) / count
    return [low + width * (j + rng.random()) for j in range(count)]


class VerifyBox:
    """``verify.run_all`` over a box larger than the CLI default, plus batches of bound triples at large (p, d)."""

    name = "verify-box"
    appends_files = False
    box = (2000, 150)
    # 20 p (2, 3, 5, 7 and 16 seeded p), each with 490 seeded d.  One latency
    # sample is a batch holding cells of every p, so each sample has the mix
    # of the whole set and a busy machine slows it as it slows a pass.  96
    # batches hold five d per p; one double batch, ten d per p, runs twice
    # per pass: 2% of the samples, so the p99 latency falls inside copies of
    # one batch, not on the edge between two batches of different cost.  With
    # 98 samples per pass a run always has the thousand samples p99 needs.
    # Shorter samples are not steady: a single call takes a few microseconds,
    # and batches under half a millisecond swung with the load of the machine.
    fixed_p = (2, 3, 5, 7)
    drawn_p = 16
    body_batches = 96
    per_p = 5  # cells of each p in a batch; the double batch holds twice as many

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(f"{self.name}:{seed}")
        ps = list(self.fixed_p)
        for log_p in _stratified(rng, math.log(11), math.log(1_000_000), self.drawn_p):
            p = int(math.exp(log_p))
            while not oracles.is_probable_prime(p):
                p += 1
            ps.append(p)
        body = [[] for _ in range(self.body_batches)]
        tail = []
        for p in ps:
            ds = [
                int(math.exp(log_d))
                for log_d in _stratified(rng, 0, math.log(10_000_000), (self.body_batches + 2) * self.per_p)
            ]
            # The double batch takes the d of the middle slice of each of
            # 2 * per_p equal parts of the d range, so its cost barely
            # depends on the seed.
            width = len(ds) // (2 * self.per_p)
            picks = {part * width + width // 2 for part in range(2 * self.per_p)}
            tail += [(p, ds[i]) for i in sorted(picks)]
            rest = [d for i, d in enumerate(ds) if i not in picks]
            rng.shuffle(rest)
            for j, batch in enumerate(body):
                batch += [(p, d) for d in rest[j * self.per_p : (j + 1) * self.per_p]]
        self.batches = body + [tail, tail]
        rng.shuffle(self.batches)

    def warm_up(self) -> None:
        verify.b0_le_bk_prime(50, 10)
        verify.single_prime_boundary(20, 6)
        for p, d in self.batches[0]:
            BoundTriple.compute(p, d)

    def run_pass(self, timer) -> PassResult:
        with timer.op("op.run_all", sample=False):
            results = verify.run_all(*self.box)
        triples = []
        for batch in self.batches:
            with timer.op("op.bound_batch"):
                triples += [BoundTriple.compute(p, d) for p, d in batch]
        return PassResult((results, triples), sum(r.cases for r in results) + len(triples))

    def check(self, outputs) -> int:
        results, triples = outputs
        failed = sum(r.cases for r in results if not r.ok)
        cells = [cell for batch in self.batches for cell in batch]
        for (p, d), triple in zip(cells, triples):
            failed += (triple.bk, triple.bk_prime, triple.b0) != oracles.bound_triple(p, d)
        return failed


class ForbiddenAtlas:
    """Minimal forbidden profiles for highly composite and random d, then profile queries at each d."""

    name = "forbidden-atlas"
    appends_files = False
    # The three heaviest calls cost about the same, so the p99 latency lies
    # inside one class of several samples per pass, not on a class boundary.
    composite = ((360, 1000, 4), (720, 1000, 4), (840, 1000, 3), (1260, 1000, 3), (5040, 2000, 3))
    random_dims = 15
    random_d_range = (2, 1000)
    random_prime_bound, random_max_entries = 500, 3
    queries_per_d = 8

    def __init__(self, seed: int, scratch: Path):
        rng = random.Random(f"{self.name}:{seed}")
        dims = list(self.composite) + [
            (int(d), self.random_prime_bound, self.random_max_entries)
            for d in _stratified(rng, *self.random_d_range, self.random_dims)
        ]
        rng.shuffle(dims)
        self.plan = [
            (dim, [self._profile(rng, dim[0], 1 + i % 4) for i in range(self.queries_per_d)]) for dim in dims
        ]

    @staticmethod
    def _profile(rng: random.Random, d: int, size: int) -> dict[int, int]:
        """``size`` primes, mostly ones whose forced fields can divide d, exponents up to two past B0."""
        small = oracles.primes_to(200)
        dividing = [p for p in small if (2 * d) % (p - 1) == 0]
        pool = sorted(set(dividing + rng.sample(small[:15], 3)))
        primes = rng.sample(pool, min(size, len(pool)))
        return {p: rng.randint(1, oracles.b0(p, d) + 2) for p in sorted(primes)}

    def warm_up(self) -> None:
        cyclo.enumerate_forbidden(6, 19, 2)
        cyclo.analyze_profile({2: 9, 5: 3}, 4)

    def run_pass(self, timer) -> PassResult:
        outputs = []
        for (d, prime_bound, max_entries), queries in self.plan:
            with timer.op("op.enumerate_forbidden", {"d": d}):
                profiles = cyclo.enumerate_forbidden(d, prime_bound, max_entries)
            reports = []
            for query in queries:
                with timer.op("op.analyze_profile"):
                    reports.append(cyclo.analyze_profile(query, d))
            outputs.append((profiles, reports))
        return PassResult(outputs, sum(1 + len(reports) for _, reports in outputs))

    def check(self, outputs) -> int:
        failed = 0
        for ((d, prime_bound, max_entries), queries), (profiles, reports) in zip(self.plan, outputs):
            expected = oracles.minimal_forbidden(d, prime_bound, max_entries)
            failed += [p.entries for p in profiles] != expected
            for query, report in zip(queries, reports):
                want = oracles.analysis(query, d)
                got = {
                    "admissible": report.admissible,
                    "degree": report.forced.degree,
                    "residual": report.residual_degree,
                    "refined": report.refined_bounds,
                }
                failed += got != want
        return failed


class _Scan:
    """Shared input generation and oracle for the two sharpness-scan workloads."""

    d_max_classes: tuple[int, ...] = ()
    budget_range = (0, 0)
    tables_per_class = 12
    # Tables of the largest d_max at budgets from the top of the range in
    # steps of 10, so the tail latency lies among several tables of nearly
    # one size and seeded data, not on the seeded data of the largest table.
    tail_tables = 0
    appends_files = False

    def __init__(self, seed: int, scratch: Path):
        # Fixed table sizes, since a scan's work grows with its budget; the seed
        # picks each table's orbit data and failing requests, and their order.
        low, high = self.budget_range
        width = (high - low) / self.tables_per_class
        self.tables = [
            (d_max, int(low + width * (j + 0.5))) for d_max in self.d_max_classes for j in range(self.tables_per_class)
        ] + [(max(self.d_max_classes), high + 10 * j) for j in range(self.tail_tables)]
        random.Random(f"{self.name}:{seed}").shuffle(self.tables)
        self.fixtures = oracles.fixture_dims()
        self.data = [fakes.OrbitData.generate(seed, d_max, budget, self.fixtures) for d_max, budget in self.tables]
        self.scratch = scratch

    def _client(self, fake: fakes.FakeLmfdb, cache=None):
        return lmfdb.OrbitDimClient(cache=cache, transport=fake.transport, clock=fake.clock, sleep=fake.sleep)

    def _witness_failures(self, index: int, witnesses, visited: set) -> int:
        d_max, budget = self.tables[index]
        expected = oracles.table_witnesses(d_max, budget, self.data[index].dims_at, self.fixtures, visited)
        got = {key: (w.status, w.exponent_attained, w.level) for key, w in witnesses.items()}
        return sum(got.get(key) != value for key, value in expected.items()) + len(set(got) - set(expected))


class ScanOnline(_Scan):
    """``annotate_table`` online with no cache, against the fake service."""

    name = "scan-online"
    d_max_classes = (3, 4, 5, 6)
    budget_range = (400, 1000)

    def warm_up(self) -> None:
        self._client(fakes.FakeLmfdb(self.data[0])).annotate_table(2, 100)

    def run_pass(self, timer) -> PassResult:
        outputs = []
        counters = dict.fromkeys(FAKE_COUNTERS, 0)
        for (d_max, budget), data in zip(self.tables, self.data):
            fake = fakes.FakeLmfdb(data)
            with timer.op("op.annotate_table", {"d_max": d_max, "budget": budget}):
                outputs.append(self._client(fake).annotate_table(d_max, budget))
            _add_fake_counters(counters, fake)
        return PassResult(outputs, sum(map(len, outputs)), counters)

    def check(self, outputs) -> int:
        return sum(self._witness_failures(index, witnesses, set()) for index, witnesses in enumerate(outputs))


class ScanCached(_Scan):
    """A cold online scan into a fresh cache file, then the same table offline through the CLI."""

    name = "scan-cached"
    d_max_classes = (2, 3, 4)
    budget_range = (250, 600)
    tail_tables = 3
    appends_files = True  # one cache record per distinct level

    def warm_up(self) -> None:
        self._table(0, 2, 100)

    def _table(self, index: int, d_max: int, budget: int):
        path = self.scratch / f"cache-{index}.jsonl"
        path.unlink(missing_ok=True)
        fake = fakes.FakeLmfdb(self.data[index])
        stdout = io.StringIO()
        argv = [
            "table", "--dmax", str(d_max), "--pmax", str(2 * d_max + 1), "--annotate",
            "--budget", str(budget), "--offline", "--cache", str(path), "--format", "json",
        ]
        cold = self._client(fake, lmfdb.OrbitDimCache(path)).annotate_table(d_max, budget)
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        fetched = {"calls": fake.calls, "retries": fake.retries}
        return (cold, code, stdout.getvalue(), fetched), fake, path.stat().st_size

    def run_pass(self, timer) -> PassResult:
        outputs = []
        counters = dict.fromkeys(FAKE_COUNTERS + ("cache_bytes",), 0)
        for index, (d_max, budget) in enumerate(self.tables):
            with timer.op("op.cold_then_warm", {"d_max": d_max, "budget": budget}):
                output, fake, size = self._table(index, d_max, budget)
            outputs.append(output)
            _add_fake_counters(counters, fake)
            counters["cache_bytes"] += size
        return PassResult(outputs, 2 * sum(len(out[0]) for out in outputs), counters)

    def check(self, outputs) -> int:
        failed = 0
        for index, (cold, code, text, fetched) in enumerate(outputs):
            visited: set[int] = set()
            failed += self._witness_failures(index, cold, visited)
            # The cached scan asks the service once per distinct level the
            # fixtures do not answer, plus once per retry.
            failed += fetched["calls"] - fetched["retries"] != len(visited - set(self.fixtures))
            flags = {(p, d): w.status if w.status in (SHARP, ALMOST_SHARP) else "unknown" for (p, d), w in cold.items()}
            if code != 0:
                failed += len(cold)
                continue
            warm = {(cell["p"], cell["d"]): cell["sharpness"] for cell in json.loads(text)["cells"]}
            failed += sum(warm.get(key) != flag for key, flag in flags.items())
        return failed


FAKE_COUNTERS = ("requests", "retries", "rate_limit_s", "backoff_s", "polite_wait_s")


def _add_fake_counters(counters: dict, fake: fakes.FakeLmfdb) -> None:
    counters["requests"] += fake.calls
    counters["retries"] += fake.retries
    counters["rate_limit_s"] += fake.rate_limit_s
    counters["backoff_s"] += fake.backoff_s
    counters["polite_wait_s"] += fake.rate_limit_s + fake.backoff_s


WORKLOADS = {cls.name: cls for cls in (VerifyBox, ForbiddenAtlas, ScanOnline, ScanCached)}
