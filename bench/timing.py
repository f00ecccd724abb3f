"""Reference timing: measured seconds converted to reference seconds.

The benchmark runs on a shared machine whose speed changes by up to a
factor of two, at times several times a second.  Every end-to-end time is
therefore divided by the time of fixed reference work measured next to it,
and reported in reference seconds: seconds on a machine on which
``reference_work()`` takes ``REFERENCE_S``.

* Each op-level call is timed between two runs of reference ticks,
  ``reference_work()`` in ``TICKS`` pieces, and scaled by them, so that a
  change of speed between two calls of one pass moves neither the latency
  percentiles nor the pass time.  The ticks after a call, which are also the
  ticks before the next, last at least ``TICK_SHARE`` of the call.
* What a pass spends outside those calls is scaled by the reference chunks
  run just before and just after the pass.

The reference work shares no code with rmbounds.
"""
from __future__ import annotations

import contextlib
from time import perf_counter

import oracles

REFERENCE_S = 0.005  # reference seconds of one reference_work()
TICKS = 40  # reference_work() is this many ticks
TICK_S = REFERENCE_S / TICKS
TICK_SHARE = 0.03
_append_to = None  # file a tick appends a line to, for workloads that write files


def append_in_ticks(path) -> None:
    """Makes every tick also append one line to ``path``, as a workload that writes a file per op does."""
    global _append_to
    _append_to = path


def tick() -> int:
    """Fixed pure-Python work of about a tenth of a millisecond."""
    total = sum(oracles.bound_triple(q, 997 * q)[0] for q in range(2, 40))
    if _append_to is not None:
        with open(_append_to, "a", encoding="utf-8") as handle:
            handle.write(f'{{"tick": {total}}}\n')
    return total


def reference_work() -> int:
    return sum(tick() for _ in range(TICKS))


def no_span(name, attrs=None):
    return contextlib.nullcontext()


def run_reference(budget: float) -> tuple[float, int]:
    """Runs reference_work() at least once and for ``budget`` seconds; returns (seconds, calls)."""
    spent, calls = 0.0, 0
    while not calls or spent < budget:
        start = perf_counter()
        reference_work()
        spent += perf_counter() - start
        calls += 1
    return spent, calls


def scale(*chunks: tuple[float, int]) -> float:
    """Reference seconds per measured second, from reference chunks run next to the measured work."""
    return REFERENCE_S * sum(calls for _, calls in chunks) / sum(seconds for seconds, _ in chunks)


class OpTimer:
    """Opens the span of each op-level call of a pass and times the call.

    Each call is one latency sample unless ``sample`` is false.  A paired
    timer takes each call between two runs of reference ticks and records it
    in reference seconds; it keeps the ticks' time in ``overhead``, to be
    left out of the pass time.  An unpaired one records measured seconds.
    """

    def __init__(self, span=no_span, paired: bool = False):
        self.span = span
        self.paired = paired
        self.samples: list[float] = []
        self.timed = 0.0  # measured seconds inside op()
        self.scaled = 0.0  # the same in reference seconds (measured seconds if unpaired)
        self.overhead = 0.0
        self._before = None  # seconds per tick of the last run of ticks

    @contextlib.contextmanager
    def op(self, name: str, attrs: dict | None = None, sample: bool = True):
        if self.paired and self._before is None:
            self._before = self._ticks(0.0)
        with self.span(name, attrs):
            start = perf_counter()
            yield
            elapsed = perf_counter() - start
        self.timed += elapsed
        if self.paired:
            after = self._ticks(TICK_SHARE * elapsed)
            elapsed *= 2 * TICK_S / (self._before + after)
            self._before = after
        self.scaled += elapsed
        if sample:
            self.samples.append(elapsed)

    def _ticks(self, budget: float) -> float:
        """Runs tick() at least once and for ``budget`` seconds; returns the seconds per tick."""
        spent, calls = 0.0, 0
        while not calls or spent < budget:
            start = perf_counter()
            tick()
            spent += perf_counter() - start
            calls += 1
        self.overhead += spent
        return spent / calls
