"""Orbit-degree data for weight-2 trivial-character newforms.

Answers "which Galois-orbit degrees occur at level N?" from three layers:
a packaged fixture store, an append-only JSON-lines cache on disk, and the
LMFDB web API.  Network results are cached; fixtures and cache are always
consulted first, so no request is ever issued for a level they can answer.

The fixture store ships the levels needed by the sharpness scanner.  For
most of them it records only the orbit degrees that are independently
attested (a partial list); level 243 carries its complete decomposition.
"""
from __future__ import annotations

import json
import logging
import math
import threading
import time
import weakref
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from .arith import primes_up_to, require_dimension, require_prime
from .bounds import ALMOST_SHARP, SHARP, b0_bound

logger = logging.getLogger(__name__)

NONE_FOUND = "none_found"

SOURCE_NETWORK = "network"
SOURCE_CACHE = "cache"
SOURCE_FIXTURE = "fixture"

# The one query: weight-2, trivial-character newforms at a level, on the LMFDB
# web API.  Only the host is a setting (OrbitDimClient's base_url).
BASE_URL = "https://www.lmfdb.org"
_PATH = "/api/mf_newforms/"
MIN_INTERVAL = 0.5  # seconds between consecutive requests
MAX_RETRIES = 4  # retries of a 429/5xx response before ServiceError
TIMEOUT = 30.0  # seconds per request


class LmfdbError(Exception):
    """Base class for data-layer failures."""


class NetworkUnavailable(LmfdbError):
    """Offline, and neither fixtures nor cache cover the level."""


class NetworkFailed(LmfdbError):
    """A request failed in transport (connection, DNS, timeout).

    Unlike NetworkUnavailable this is never an offline miss: scans do not
    skip the level, they stop.
    """


class ServiceError(LmfdbError):
    """The remote service kept failing; retry_after carries its hint, if any."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedResponse(LmfdbError):
    """The remote payload did not have the shape of an LMFDB newform query answer."""


@dataclass(frozen=True)
class LevelQueryResult:
    """Orbit degrees (ascending) of the weight-2 trivial-character newforms at one level."""

    level: int
    dims: tuple[int, ...]
    source: str
    fetched_at: str | None


@dataclass(frozen=True)
class SharpnessWitness:
    """Outcome of a sharpness scan for one (p, d) cell."""

    p: int
    d: int
    exponent_attained: int | None
    level: int | None
    status: str  # sharp | almost_sharp | none_found

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "exponent_attained": self.exponent_attained,
            "level": self.level,
            "status": self.status,
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SharpnessWitness":
        return cls(
            p=obj["p"],
            d=obj["d"],
            exponent_attained=obj["exponent_attained"],
            level=obj["level"],
            status=obj["status"],
        )


def _utcnow_iso() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _store_record(level: int, dims: list[int], fetched_at: str) -> dict:
    return {"level": level, "weight": 2, "char_trivial": True, "dims": dims, "fetched_at": fetched_at}


def _check_record(obj, where: str) -> dict:
    """obj if it is a record of the one query, else a ValueError naming where it came from."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: record is not a JSON object")
    for key in ("level", "weight", "char_trivial", "dims", "fetched_at"):
        if key not in obj:
            raise ValueError(f"{where}: record is missing {key!r}")
    level, dims = obj["level"], obj["dims"]
    # A record answers the one query: a level, weight 2 and the trivial character.
    checks = (
        ("level", type(level) is int and level >= 1, "a positive integer"),
        ("weight", obj["weight"] == 2, "2"),
        ("char_trivial", obj["char_trivial"] is True, "true"),
        (
            "dims",
            isinstance(dims, list) and all(type(dim) is int and dim >= 1 for dim in dims),
            "a list of positive integers",
        ),
        ("fetched_at", isinstance(obj["fetched_at"], str), "a string"),
    )
    for key, ok, what in checks:
        if not ok:
            raise ValueError(f"{where}: {key!r} must be {what}, got {obj[key]!r}")
    return obj


def _parse_store_line(line: str, where: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: not valid JSON: {exc}") from exc
    return _check_record(obj, where)


def load_store(lines, where: str) -> dict[int, dict]:
    """Parse JSON-lines records, last writer winning per level."""
    store: dict[int, dict] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        obj = _parse_store_line(line, f"{where}:{lineno}")
        store[obj["level"]] = obj
    return store


class OrbitDimCache:
    """Append-only JSON-lines cache of orbit-degree records.

    One writer with concurrent readers: appends are serialized by a lock
    and written as single lines; loading applies last-writer-wins per level.
    The first put opens one append handle, and every put flushes its line
    before it returns.  The handle is closed by close() or when the cache is
    dropped.  put checks each record against the loader's rules, so nothing
    it writes can make the file fail to load.

    A write cut short by a crash leaves an unterminated last line.  Loading
    skips it with a warning if it does not parse, and the first put cuts it
    off before appending, so the file stays loadable.  Malformed complete
    lines are still rejected.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._records: dict[int, dict] = {}
        # Where the first put cuts the file and what it writes back first: the
        # unterminated last line's record with its newline, if it parsed.
        self._cut: int | None = None
        self._carry = ""
        self._handle = None
        self._finalizer = None
        if self.path.exists():
            data = self.path.read_bytes()
            end = data.rfind(b"\n") + 1
            lines = data[:end].decode("utf-8").splitlines()
            self._records = load_store(lines, str(self.path))
            tail = data[end:].decode("utf-8", errors="replace").strip()
            if tail:
                self._cut = end
                try:
                    obj = _parse_store_line(tail, f"{self.path}:{len(lines) + 1}")
                except ValueError as exc:
                    logger.warning("ignoring the unterminated last line, left by an interrupted write: %s", exc)
                else:
                    self._records[obj["level"]] = obj
                    self._carry = tail + "\n"

    def get(self, level: int) -> dict | None:
        return self._records.get(level)

    def put(self, level: int, dims: list[int], fetched_at: str | None = None) -> dict:
        obj = _check_record(_store_record(level, dims, fetched_at or _utcnow_iso()), f"put to {self.path}")
        obj["dims"] = sorted(dims)  # after the check, so bad dims raise its ValueError, not a TypeError
        line = json.dumps(obj, separators=(", ", ": "), sort_keys=False)
        with self._lock:
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(self.path, "a", encoding="utf-8", newline="\n")
                # Closes the handle once: at close(), or when the cache is dropped unclosed.
                self._finalizer = weakref.finalize(self, handle.close)
                if self._cut is not None:
                    handle.truncate(self._cut)
                    handle.write(self._carry)
                    self._cut, self._carry = None, ""
                self._handle = handle
            self._handle.write(line + "\n")
            self._handle.flush()  # a crash can then tear at most the last line
            self._records[level] = obj
        return obj

    def close(self) -> None:
        """Close the append handle, if a put opened it; a later put opens it again."""
        with self._lock:
            if self._finalizer is not None:
                self._finalizer()
            self._handle = None


def load_fixture_store() -> dict[int, dict]:
    """The packaged fixture records, keyed by level."""
    text = resources.files("rmbounds.data").joinpath("fixtures.jsonl").read_text(encoding="utf-8")
    return load_store(text.splitlines(), "fixtures.jsonl")


def _parse_retry_after(headers: dict) -> float | None:
    """The Retry-After header (any case) in seconds, or None unless it is a finite number >= 0."""
    value = next((value for name, value in headers.items() if name.lower() == "retry-after"), None)
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _requests_transport(url: str, params: dict[str, str], timeout: float):
    """Default transport: GET returning (status, parsed-or-raw body, headers)."""
    import requests

    try:
        response = requests.get(url, params=params, timeout=timeout)
    except requests.RequestException as exc:
        raise NetworkFailed(f"request to {url} failed: {exc}") from exc
    try:
        body = response.json()
    except ValueError:
        body = response.text
    return response.status_code, body, dict(response.headers)


class OrbitDimClient:
    """Fetches orbit degrees with fixtures-first resolution and polite networking.

    At most one network request is in flight at a time, consecutive
    requests are separated by ``MIN_INTERVAL`` seconds, and 429/5xx
    responses are retried with exponential backoff before surfacing as
    ServiceError.
    """

    def __init__(
        self,
        base_url: str = BASE_URL,
        cache: OrbitDimCache | None = None,
        fixtures: dict[int, dict] | None = None,
        offline: bool = False,
        transport: Callable | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.base_url = base_url.rstrip("/")
        self.cache = cache
        self.fixtures = load_fixture_store() if fixtures is None else fixtures
        self.offline = offline
        self._transport = transport or _requests_transport
        self._sleep = sleep
        self._clock = clock
        self._net_lock = threading.Lock()
        self._last_request: float | None = None

    # -- fetching ---------------------------------------------------------

    def fetch_orbit_dims(self, level: int) -> LevelQueryResult:
        """Orbit degrees at a level: fixtures, then cache, then network."""
        if level < 1:
            raise ValueError(f"level must be >= 1, got {level}")
        record, source = self.fixtures.get(level), SOURCE_FIXTURE
        if record is None and self.cache is not None:
            record, source = self.cache.get(level), SOURCE_CACHE
        if record is None:
            if self.offline:
                raise NetworkUnavailable(f"offline and level {level} is neither a fixture nor cached")
            dims, source = self._fetch_from_network(level), SOURCE_NETWORK
            if self.cache is not None:
                record = self.cache.put(level, dims, _utcnow_iso())
            else:
                record = _store_record(level, dims, _utcnow_iso())
        return LevelQueryResult(
            level=level, dims=tuple(sorted(record["dims"])), source=source, fetched_at=record["fetched_at"]
        )

    def _fetch_from_network(self, level: int) -> list[int]:
        url = self.base_url + _PATH
        params = {"level": f"i{level}", "weight": "i2", "char_order": "i1", "_fields": "dim", "_format": "json"}
        dims: list[int] = []
        while True:
            body = self._request_with_backoff(url, params)
            if not isinstance(body, dict) or "data" not in body:
                raise MalformedResponse("expected a JSON object with 'data'")
            rows = body["data"]
            if not isinstance(rows, list):
                raise MalformedResponse("'data' is not a list")
            for row in rows:
                if not isinstance(row, dict) or "dim" not in row:
                    raise MalformedResponse(f"row without 'dim' field: {row!r}")
                dim = row["dim"]
                if not isinstance(dim, int) or dim < 1:
                    raise MalformedResponse(f"bad orbit dimension {dim!r}")
                dims.append(dim)
            next_url = body.get("next")
            if not next_url:
                return dims
            url, params = str(next_url), {}
            if url.startswith("/"):
                url = self.base_url + url

    def _request_with_backoff(self, url: str, params: dict[str, str]):
        with self._net_lock:
            retry_after_hint: float | None = None
            for attempt in range(MAX_RETRIES + 1):
                if self._last_request is not None:
                    elapsed = self._clock() - self._last_request
                    if elapsed < MIN_INTERVAL:
                        self._sleep(MIN_INTERVAL - elapsed)
                status, body, headers = self._transport(url, params, TIMEOUT)
                self._last_request = self._clock()
                if status == 200:
                    if isinstance(body, str):
                        raise MalformedResponse("response was not JSON")
                    return body
                if status == 429 or status >= 500:
                    retry_after_hint = _parse_retry_after(headers)
                    delay = MIN_INTERVAL * (2**attempt) if retry_after_hint is None else retry_after_hint
                    logger.info("status %d from %s; backing off %.2fs", status, url, delay)
                    self._sleep(delay)
                    continue
                raise ServiceError(f"unexpected status {status} from {url}")
            raise ServiceError(
                f"giving up on {url} after {MAX_RETRIES + 1} attempts",
                retry_after=retry_after_hint,
            )

    # -- scanning ---------------------------------------------------------

    def sharpness_scan(self, p: int, d: int, level_budget: int, strict: bool = False) -> SharpnessWitness:
        """Look for a degree-d orbit with v_p(level) hitting the cap, then the cap minus one.

        Levels p^e * M (M coprime to p) are visited in increasing order up
        to the budget.  Levels the offline store cannot answer are skipped
        (logged, resumable once cached) unless ``strict`` is set, in which
        case the NetworkUnavailable propagates.  A failed request
        (NetworkFailed) always propagates.  A none_found result means no
        witness among the answerable levels, never non-existence.
        """
        require_prime(p)
        require_dimension(d)
        cap = b0_bound(p, d)
        for exponent, status in ((cap, SHARP), (cap - 1, ALMOST_SHARP)):
            base = p**exponent
            if base > level_budget:
                continue
            skipped = 0
            for m in range(1, level_budget // base + 1):
                if m % p == 0:
                    continue
                level = base * m
                try:
                    result = self.fetch_orbit_dims(level)
                except NetworkUnavailable:
                    if strict:
                        raise
                    skipped += 1
                    continue
                if d in result.dims:
                    return SharpnessWitness(p=p, d=d, exponent_attained=exponent, level=level, status=status)
            if skipped:
                logger.info(
                    "scan (p=%d, d=%d, e=%d): %d level(s) unavailable offline; rerun online to resume",
                    p, d, exponent, skipped,
                )
        return SharpnessWitness(p=p, d=d, exponent_attained=None, level=None, status=NONE_FOUND)

    def annotate_table(
        self, d_max: int, level_budget: int, strict: bool = False, p_max: int | None = None
    ) -> dict[tuple[int, int], SharpnessWitness]:
        """Run sharpness_scan over every (p, d) grid cell with p <= 2d + 1, and p <= p_max if given."""
        if d_max < 1:
            raise ValueError(f"d_max must be >= 1, got {d_max}")
        witnesses: dict[tuple[int, int], SharpnessWitness] = {}
        for d in range(1, d_max + 1):
            for p in primes_up_to(2 * d + 1 if p_max is None else min(2 * d + 1, p_max)):
                witnesses[(p, d)] = self.sharpness_scan(p, d, level_budget, strict=strict)
        return witnesses
