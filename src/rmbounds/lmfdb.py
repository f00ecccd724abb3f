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

import functools
import json
import logging
import math
import threading
import time
import weakref
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from .arith import PMAX_LIMIT, _valuation, require_dimension, require_int, require_prime, valuation
from .bounds import ALMOST_SHARP, SHARP, _b0, _grid, table_primes

logger = logging.getLogger(__name__)

NONE_FOUND = "none_found"

SOURCE_NETWORK = "network"
SOURCE_CACHE = "cache"
SOURCE_FIXTURE = "fixture"

# The one query: weight-2, trivial-character newforms at a level, on the LMFDB
# web API.  Only the host is a setting (OrbitDimClient's base_url).
BASE_URL = "https://www.lmfdb.org"
_PATH = "/api/mf_newforms/"
_QUERY = {"weight": "i2", "char_order": "i1", "_fields": "dim", "_format": "json"}  # after the level
MIN_INTERVAL = 0.5  # seconds between consecutive requests
MAX_RETRIES = 4  # retries of a 429/5xx response before ServiceError
TIMEOUT = 30.0  # seconds per request, and the longest Retry-After hint waited out


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
        return asdict(self)

    @classmethod
    def at_level(cls, p: int, d: int, level: int | None) -> "SharpnessWitness":
        """The witness that level gives the (p, d) cell: sharp if v_p(level) = B0(p, d), almost_sharp
        if it is B0(p, d) - 1, none_found if level is None; any other level raises ValueError.

        Which level attains the exponent is database data and is taken as given.
        """
        if level is None:
            require_prime(p)
        else:
            valuation(p, level)  # checks p, then the level
        require_dimension(d)
        return cls._at_level(p, d, level)

    @classmethod
    def _at_level(cls, p: int, d: int, level: int | None) -> "SharpnessWitness":
        """at_level without the checks: p prime, d >= 1 and level None or an int >= 1 are the caller's to ensure."""
        if level is None:
            return cls(p=p, d=d, exponent_attained=None, level=None, status=NONE_FOUND)
        cap, exponent = _b0(p, d), _valuation(p, level)
        if exponent not in (cap, cap - 1):
            raise ValueError(f"v_{p}({level}) = {exponent} attains neither B0({p},{d}) = {cap} nor {cap - 1}")
        return cls(p=p, d=d, exponent_attained=exponent, level=level, status=SHARP if exponent == cap else ALMOST_SHARP)


# The last (whole UTC second, its stamp) pair: a stamp names only the second,
# so it is formatted once per second however many records are stamped in it.
_last_stamp: tuple[int, str] = (-1, "")


def _utcnow_iso() -> str:
    global _last_stamp
    second = int(time.time())
    last_second, stamp = _last_stamp
    if second != last_second:
        stamp = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(second))
        _last_stamp = (second, stamp)
    return stamp


def _is_orbit_degree(dim) -> bool:
    """Whether dim is an orbit degree: an int, not a bool, and at least 1."""
    return type(dim) is int and dim >= 1


def _check_record(obj, where: Callable[[], str]) -> dict:
    """obj if it is a record of the one query (a level, weight 2, the trivial character), else a ValueError
    naming where() it came from.  Each rule is tested once; where() and the message are built only on failure."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where()}: record is not a JSON object")
    try:  # the keys are read in this order, so the first missing one is named
        level, weight, char_trivial, dims, fetched_at = (
            obj["level"], obj["weight"], obj["char_trivial"], obj["dims"], obj["fetched_at"]
        )
    except KeyError as exc:
        raise ValueError(f"{where()}: record is missing {exc.args[0]!r}") from None
    if type(level) is not int or level < 1:
        key, what = "level", "a positive integer"
    elif type(weight) is not int or weight != 2:
        key, what = "weight", "2"
    elif char_trivial is not True:
        key, what = "char_trivial", "true"
    elif not isinstance(dims, list) or not all(map(_is_orbit_degree, dims)):
        key, what = "dims", "a list of positive integers"
    elif not isinstance(fetched_at, str):
        key, what = "fetched_at", "a string"
    else:
        return obj
    raise ValueError(f"{where()}: {key!r} must be {what}, got {obj[key]!r}")


# A stripped line is one JSON value exactly when this scan of it ends at its end.
_decode = json.JSONDecoder().raw_decode


def load_store(lines, where: str, start: int = 1) -> dict[int, dict]:
    """Parse JSON-lines records, numbered from start, last writer winning per level.

    A failing line's message names it as where:lineno; that text is built only on failure.
    """
    store: dict[int, dict] = {}

    def at() -> str:  # reads the loop's current lineno
        return f"{where}:{lineno}"

    for lineno, line in enumerate(lines, start):
        line = line.strip()
        if line:
            try:
                obj, end = _decode(line)
                if end != len(line):  # a value, then more text
                    raise ValueError
            except ValueError:  # json.loads words each failure, a BOM and "Extra data" included
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # JSONDecodeError, or an integer past the 4,300-digit conversion limit
                    raise ValueError(f"{at()}: not valid JSON: {exc}") from exc
            obj = _check_record(obj, at)
            store[obj["level"]] = obj
    return store


class OrbitDimCache:
    """Append-only JSON-lines cache of orbit-degree records.

    Appends are serialized by a lock and written as single lines; loading
    applies last-writer-wins per level.  Caches that write one after another
    keep each other's records, but writers in concurrent processes are not
    serialized.  The first put opens one unbuffered binary append handle,
    and every put hands its line to the OS in one write before it returns,
    writing again only the rest of a short write.  The handle is closed by
    close() or when the cache is dropped.  put checks each record against
    the loader's rules, so nothing it writes can make the file fail to load.
    The client appends its network answers through _append, unchecked: its
    fetch has already checked each dim, and it stamps the record itself.

    A write cut short by a crash leaves an unterminated last line.  Loading
    skips it with a warning if it does not parse, and the first put cuts it
    off before appending, so the file stays loadable; it reads the file
    again first, so it never cuts off a record another cache appended.
    Malformed complete lines are still rejected.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle = None
        self._finalizer = None
        self._load()

    def _load(self) -> None:
        """Read the file's records.  The first put is to cut an unterminated last line off, then write
        it back with its newline if it parsed as a record."""
        records: dict[int, dict] = {}
        cut, carry = None, ""
        if self.path.exists():
            data = self.path.read_bytes()
            end = data.rfind(b"\n") + 1
            try:
                # Records end at "\n" only, so line numbers count newlines, as the UTF-8 error does.
                lines = data[:end].decode("utf-8").split("\n")[:-1]
            except UnicodeDecodeError as exc:
                lineno = data.count(b"\n", 0, exc.start) + 1
                raise ValueError(f"{self.path}:{lineno}: not valid UTF-8") from exc
            records = load_store(lines, str(self.path))
            tail = data[end:].decode("utf-8", errors="replace").strip()
            if tail:
                cut = end
                try:
                    records.update(load_store([tail], str(self.path), len(lines) + 1))
                except ValueError as exc:
                    logger.warning("ignoring the unterminated last line, left by an interrupted write: %s", exc)
                else:
                    carry = tail + "\n"
        # One assignment, so a concurrent get never sees the map half-built.
        self._records, self._cut, self._carry = records, cut, carry

    def get(self, level: int) -> dict | None:
        return self._records.get(level)

    def put(self, level: int, dims: list[int], fetched_at: str | None = None) -> dict:
        """Check a record against the loader's rules, then append it: the stamp is now's unless fetched_at is given."""
        fetched_at = _utcnow_iso() if fetched_at is None else fetched_at
        obj = {"level": level, "weight": 2, "char_trivial": True, "dims": dims, "fetched_at": fetched_at}
        _check_record(obj, lambda: f"put to {self.path}")
        return self._append(level, dims, fetched_at, json.dumps(fetched_at))

    def _append(self, level: int, dims: list[int], fetched_at: str, quoted: str) -> dict:
        """put without the checks: level an int >= 1, dims a list of ints >= 1 and fetched_at a str, quoted
        being its json text, are the caller's to ensure.  Writes the record with its dims sorted."""
        dims = sorted(dims)
        # json.dumps(record) written out: the record holds exact ints only, and quoted is the str's own encoding.
        line = (
            f'{{"level": {level}, "weight": 2, "char_trivial": true, "dims": [{", ".join(map(str, dims))}], '
            f'"fetched_at": {quoted}}}\n'
        )
        obj = {"level": level, "weight": 2, "char_trivial": True, "dims": dims, "fetched_at": fetched_at}
        with self._lock:
            if self._handle is None:
                if self._cut is not None:  # another writer may have cut and appended; read before a handle opens
                    self._load()
                self.path.parent.mkdir(parents=True, exist_ok=True)
                handle = open(self.path, "ab", buffering=0)
                # Closes the handle once: at close(), or when the cache is dropped unclosed.
                self._finalizer = weakref.finalize(self, handle.close)
                if self._cut is not None:
                    handle.truncate(self._cut)
                    line = self._carry + line  # the torn tail's record goes back in the same write
                    self._cut, self._carry = None, ""
                self._handle = handle
            # Unbuffered, so a crash can tear at most the last line; a short write is followed by its rest.
            data = line.encode()
            written = self._handle.write(data)
            while written < len(data):
                written += self._handle.write(data[written:])
            self._records[level] = obj
        return obj

    def close(self) -> None:
        """Close the append handle, if a put opened it; a later put opens it again."""
        with self._lock:
            if self._finalizer is not None:
                self._finalizer()
            self._handle = None


@functools.cache
def _packaged_fixtures() -> dict[int, dict]:
    """The packaged fixture records, read and parsed once per process; never handed out."""
    text = resources.files("rmbounds.data").joinpath("fixtures.jsonl").read_text(encoding="utf-8")
    return load_store(text.split("\n"), "fixtures.jsonl")


def load_fixture_store() -> dict[int, dict]:
    """The packaged fixture records, keyed by level: a fresh copy on every call."""
    return {level: {**record, "dims": list(record["dims"])} for level, record in _packaged_fixtures().items()}


def _parse_retry_after(headers: dict) -> float | None:
    """The Retry-After header (any case) in seconds, or None unless it is a finite number >= 0."""
    value = next((value for name, value in headers.items() if name.lower() == "retry-after"), None)
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _urllib_transport(url: str, params: dict[str, str], timeout: float):
    """Default transport: an http(s) GET returning (status, parsed-or-raw body, headers); a 4xx or 5xx is an answer."""
    import http.client
    from urllib import error, parse, request

    class HttpRedirects(request.HTTPRedirectHandler):  # urllib's own follows ftp: too; a refused 30x is the answer
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if parse.urlsplit(newurl).scheme in ("http", "https"):
                return super().redirect_request(req, fp, code, msg, headers, newurl)
            return None

    target = url + "?" + parse.urlencode(params) if params else url  # a next URL carries its own query
    try:
        if parse.urlsplit(target).scheme not in ("http", "https"):  # an opener also reads file:, ftp: and data:
            raise ValueError("only http and https URLs are fetched")
        try:
            response = request.build_opener(HttpRedirects).open(target, timeout=timeout)
        except error.HTTPError as answer:
            response = answer
        with response:
            status, raw, headers = response.status, response.read(), dict(response.headers)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        raise NetworkFailed(f"request to {url} failed: {exc}") from exc
    try:
        return status, json.loads(raw), headers
    except ValueError:  # not JSON, so a 200 is a MalformedResponse
        return status, raw.decode("utf-8", errors="replace"), headers


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
        self._url = self.base_url + _PATH
        self.cache = cache
        self.fixtures = load_fixture_store() if fixtures is None else fixtures
        self.offline = offline
        self._transport = transport or _urllib_transport
        self._sleep = sleep
        self._clock = clock
        self._net_lock = threading.Lock()
        self._last_request: float | None = None

    # -- fetching ---------------------------------------------------------

    def fetch_orbit_dims(self, level: int) -> LevelQueryResult:
        """Orbit degrees at a level: fixtures, then cache, then network."""
        dims, source, fetched_at = self._resolve(require_int("level", level, 1))
        fetched_at = _utcnow_iso() if fetched_at is None else fetched_at  # an uncached network answer
        return LevelQueryResult(level=level, dims=tuple(sorted(dims)), source=source, fetched_at=fetched_at)

    def _resolve(self, level: int) -> tuple[list[int], str, str | None]:
        """(dims, source, fetched_at) at a level, unchecked: level must be an int >= 1.

        fetched_at is None for a network answer with no cache to stamp it: scans keep only the dims.

        The dims are the record's own list, in its order; callers must not mutate it.
        """
        record = self.fixtures.get(level)
        if record is not None:
            return record["dims"], SOURCE_FIXTURE, record["fetched_at"]
        if self.cache is not None:
            record = self.cache.get(level)
            if record is not None:
                return record["dims"], SOURCE_CACHE, record["fetched_at"]
        if self.offline:
            raise NetworkUnavailable(f"offline and level {level} is neither a fixture nor cached")
        dims = self._fetch_from_network(level)  # checked there: each an int >= 1
        if self.cache is None:
            return dims, SOURCE_NETWORK, None
        stamp = _utcnow_iso()  # digits, "-", ":", "T" and "Z": its json text is itself in quotes
        record = self.cache._append(level, dims, stamp, f'"{stamp}"')
        return record["dims"], SOURCE_NETWORK, record["fetched_at"]

    def _fetch_from_network(self, level: int) -> list[int]:
        url = self._url
        params = {"level": f"i{level}", **_QUERY}
        dims: list[int] = []
        followed = None  # the next URLs requested so far, once a page has one
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
                if type(dim) is not int or dim < 1:  # _is_orbit_degree, inline
                    raise MalformedResponse(f"bad orbit dimension {dim!r}")
                dims.append(dim)
            next_url = body.get("next")
            if not isinstance(next_url, str) and next_url is not None:
                raise MalformedResponse(f"'next' is not a URL: {next_url!r}")
            if not next_url:  # a missing key, null or "" ends paging
                return dims
            url, params = next_url, {}
            if url.startswith("/"):
                url = self.base_url + url
            if followed is None:
                followed = set()
            elif url in followed:
                raise MalformedResponse(f"'next' repeats {url} for level {level}")
            followed.add(url)

    def _request_with_backoff(self, url: str, params: dict[str, str]):
        clock = self._clock
        with self._net_lock:
            last = self._last_request
            for attempt in range(MAX_RETRIES + 1):
                if last is not None:
                    elapsed = clock() - last
                    if elapsed < MIN_INTERVAL:
                        self._sleep(MIN_INTERVAL - elapsed)
                status, body, headers = self._transport(url, params, TIMEOUT)
                self._last_request = last = clock()
                if status == 200:
                    if isinstance(body, str):
                        raise MalformedResponse("response was not JSON")
                    return body
                if not (isinstance(status, int) and (status == 429 or status >= 500)):
                    raise ServiceError(f"unexpected status {status} from {url}")
                hint = _parse_retry_after(headers)
                if hint is not None and hint > TIMEOUT:
                    raise ServiceError(f"giving up on {url}: Retry-After {hint:g} s is more than {TIMEOUT:g} s",
                                       retry_after=hint)
                if attempt < MAX_RETRIES:
                    delay = MIN_INTERVAL * (2**attempt) if hint is None else hint
                    logger.info("status %d from %s; backing off %.2fs", status, url, delay)
                    self._sleep(delay)
            raise ServiceError(f"giving up on {url} after {MAX_RETRIES + 1} attempts", retry_after=hint)

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
        require_int("level_budget", level_budget, 1)
        # Every level below is an int >= 1, so it goes to the unchecked resolver.
        resolve = self._resolve
        cap = _b0(p, d)
        for exponent in (cap, cap - 1):
            base = p**exponent
            skipped = 0
            for m in range(1, level_budget // base + 1):
                if m % p == 0:
                    continue
                level = base * m
                try:
                    dims = resolve(level)[0]
                except NetworkUnavailable:
                    if strict:
                        raise
                    skipped += 1
                    continue
                if d in dims:
                    return SharpnessWitness._at_level(p, d, level)
            if skipped:
                logger.info(
                    "scan (p=%d, d=%d, e=%d): %d level(s) unavailable offline; rerun online to resume",
                    p, d, exponent, skipped,
                )
        return SharpnessWitness._at_level(p, d, None)

    def annotate_table(
        self, d_max: int, level_budget: int, strict: bool = False, p_max: int | None = None
    ) -> dict[tuple[int, int], SharpnessWitness]:
        """Run sharpness_scan over the (p, d) cells render_table shows without include_trivial: those
        with p <= 2d + 1, and p <= p_max if given.

        The grid, d_max rows by the primes up to p_max (or up to 2 d_max + 1),
        is checked by bounds.table_primes before any scan, so it has at most
        GRID_LIMIT cells and p_max, if given, is an int in 2..PMAX_LIMIT.
        """
        require_int("d_max", d_max, 1)
        require_int("level_budget", level_budget, 1)
        primes = table_primes(d_max, min(2 * d_max + 1, PMAX_LIMIT) if p_max is None else p_max)
        return {(p, d): self.sharpness_scan(p, d, level_budget, strict=strict) for d, p in _grid(d_max, primes)}
