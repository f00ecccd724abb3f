"""A deterministic stand-in for the LMFDB web API and the wall clock.

``FakeLmfdb`` supplies the three callables ``OrbitDimClient`` accepts
(``transport``, ``clock`` and ``sleep``), so a scan runs without a network
and without waiting: ``sleep`` only advances a simulated clock.  The
client still consults its packaged fixtures (and its cache, if any)
before it calls the transport.

Orbit degrees per level come from ``OrbitData``, generated from the seed
for one (d_max, budget) table.  Every 33rd request, counted from a seeded
phase, is answered with 429 or 503 and a ``Retry-After`` header, so the
client's backoff path runs; the retry that follows always succeeds, so no
scan fails.
"""
from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field

import oracles

FAIL_EVERY = 33  # every 33rd request (3%) is answered 429 or 503
# Each scan of a table finds its planted witness at a seeded point of this
# share of the levels it may visit.  A free draw of witnesses would make the
# length of a scan, and so the work in a pass, swing with the seed.
WITNESS_AT = (0.45, 0.55)
MAX_BACKGROUND_DEGREE = 24


@dataclass(frozen=True)
class OrbitData:
    """Seeded orbit degrees for every level of one table, and where failures fall."""

    dims: dict[int, tuple[int, ...]]
    # request n of a client fails when (n + fail_phase) % FAIL_EVERY == 0; None: never
    fail_phase: int | None

    @classmethod
    def empty(cls) -> "OrbitData":
        """No orbits at any level and no failures."""
        return cls(dims={}, fail_phase=None)

    @classmethod
    def generate(cls, seed: int, d_max: int, budget: int, fixtures: dict[int, tuple[int, ...]]) -> "OrbitData":
        """Orbit degrees at the levels up to ``budget`` for the scans of ``annotate_table(d_max, budget)``.

        Each (p, d) scan, in the table's order, gets one degree-d orbit
        planted at a seeded point of its walk (see ``WITNESS_AT``), unless an
        earlier plant or a fixture already answers it; a plant never lies
        where an earlier scan for d passes.  Every level then gets 0 to 3
        background orbits, degree g with probability 1/(g(g + 1)) (capped
        at 24); one of degree g <= d_max is dropped where a scan for g
        passes before its witness, so background orbits never move one.
        """
        rng = random.Random(f"orbit-data:{seed}:{d_max}:{budget}")
        planted: dict[int, list[int]] = defaultdict(list)
        passed: dict[int, set[int]] = defaultdict(set)  # degree -> levels a scan passes without a witness
        for d in range(1, d_max + 1):
            for p in oracles.primes_to(2 * d + 1):
                walk = [level for level, _, _ in oracles.scan_levels(p, d, budget)]
                stop = int(len(walk) * rng.uniform(*WITNESS_AT))
                found = next(
                    (i for i, level in enumerate(walk) if d in planted[level] or d in fixtures.get(level, ())), len(walk)
                )
                plant = next((i for i in range(stop, found) if walk[i] not in fixtures and walk[i] not in passed[d]), None)
                if plant is not None:
                    planted[walk[plant]].append(d)
                    found = plant
                passed[d].update(walk[:found])
        dims = {}
        for level in range(1, budget + 1):
            degrees = planted[level]
            for _ in range(rng.randrange(4)):
                degree = min(MAX_BACKGROUND_DEGREE, int(1 / (1 - rng.random())))
                if degree > d_max or level not in passed[degree]:
                    degrees.append(degree)
            dims[level] = tuple(sorted(degrees))
        return cls(dims=dims, fail_phase=rng.randrange(FAIL_EVERY))

    def dims_at(self, level: int) -> tuple[int, ...]:
        return self.dims.get(level, ())


@dataclass
class FakeLmfdb:
    """Transport, clock and sleep for one client, with exact counters."""

    data: OrbitData
    now: float = 0.0
    calls: int = 0
    retries: int = 0
    rate_limit_s: float = 0.0
    backoff_s: float = 0.0
    levels: set[int] = field(default_factory=set)
    _backoff_due: bool = False

    def transport(self, url: str, params: dict[str, str], timeout: float):
        self.calls += 1
        level = int(params["level"].lstrip("i"))
        self.levels.add(level)
        if self.data.fail_phase is not None and (self.calls + self.data.fail_phase) % FAIL_EVERY == 0:
            self.retries += 1
            self._backoff_due = True
            cycle = (self.calls + self.data.fail_phase) // FAIL_EVERY
            return (429, 503)[cycle % 2], "", {"Retry-After": str(1 + cycle % 3)}
        return 200, {"data": [{"dim": dim} for dim in self.data.dims_at(level)]}, {}

    def clock(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        # The client sleeps once right after a 429/503 (backoff); every other
        # sleep keeps min_interval between requests (rate limit).
        if self._backoff_due:
            self.backoff_s += seconds
            self._backoff_due = False
        else:
            self.rate_limit_s += seconds
        self.now += seconds
