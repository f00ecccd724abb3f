from __future__ import annotations

import contextlib
import gc
import http.server
import itertools
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rmbounds
from rmbounds import lmfdb
from rmbounds.arith import primes_up_to
from rmbounds.bounds import GRID_LIMIT, b0_bound
from rmbounds.lmfdb import (
    MalformedResponse,
    NetworkFailed,
    NetworkUnavailable,
    OrbitDimCache,
    OrbitDimClient,
    ServiceError,
    SharpnessWitness,
    load_fixture_store,
    load_store,
)

PAPER_LEVELS = (243, 1331, 6859, 8750, 11264, 12032, 14592, 14641, 16384, 19683)


@pytest.fixture
def offline_client():
    return OrbitDimClient(offline=True)


def make_transport(pages, calls=None):
    """Transport faking one response per call, from a mutable list of (status, body, headers)."""
    calls = calls if calls is not None else []

    def transport(url, params, timeout):
        calls.append((url, dict(params)))
        status, body, headers = pages[min(len(calls) - 1, len(pages) - 1)]
        return status, body, headers

    return transport, calls


# -- fixtures ------------------------------------------------------------------


def test_every_cited_level_resolves_offline(offline_client):
    for level in PAPER_LEVELS:
        result = offline_client.fetch_orbit_dims(level)
        assert result.source == "fixture"
        assert result.dims


def test_level_243_complete_decomposition(offline_client):
    assert offline_client.fetch_orbit_dims(243).dims == (1, 1, 2, 2, 3, 3)


def test_records_are_sorted_and_weight2_trivial(offline_client):
    dims = offline_client.fetch_orbit_dims(243).dims
    assert list(dims) == sorted(dims)
    assert all(rec["weight"] == 2 and rec["char_trivial"] for rec in load_fixture_store().values())


def test_offline_uncached_level_raises(offline_client):
    with pytest.raises(NetworkUnavailable):
        offline_client.fetch_orbit_dims(9999)


def test_default_clients_hold_their_own_fixture_copies():
    assert load_fixture_store() is not load_fixture_store()
    first, second = OrbitDimClient(offline=True), OrbitDimClient(offline=True)
    assert first.fixtures == second.fixtures and first.fixtures is not second.fixtures
    del first.fixtures[243]
    second.fixtures[16384]["dims"].append(1)
    fresh = OrbitDimClient(offline=True)
    assert fresh.fixtures == load_fixture_store()
    assert fresh.fetch_orbit_dims(243).source == "fixture"
    assert fresh.fetch_orbit_dims(16384).dims == (8,)


def test_given_fixtures_are_used_as_given():
    given = {}
    assert OrbitDimClient(fixtures=given).fixtures is given


class FakePackage:
    """Stands in for importlib.resources: serves one text as the fixture file and counts its reads."""

    def __init__(self, text):
        self.text, self.reads = text, 0

    def files(self, package):
        return self

    def joinpath(self, name):
        return self

    def read_text(self, encoding):
        self.reads += 1
        return self.text


@pytest.fixture
def packaged(monkeypatch):
    """Serve a test's text as the packaged fixtures; the once-per-process parse is forgotten around the test."""

    def install(text):
        package = FakePackage(text)
        monkeypatch.setattr(lmfdb, "resources", package)
        lmfdb._packaged_fixtures.cache_clear()
        return package

    yield install
    lmfdb._packaged_fixtures.cache_clear()


def test_packaged_fixtures_are_read_once_per_process(packaged):
    package = packaged((Path(lmfdb.__file__).parent / "data" / "fixtures.jsonl").read_text(encoding="utf-8"))
    clients = [OrbitDimClient(offline=True) for _ in range(3)]
    assert load_fixture_store() == clients[0].fixtures
    assert package.reads == 1


# A complete record whose fetched_at holds characters str.splitlines() breaks at.
SEPARATOR_STAMP = "2026-01-01\u2028T00:00:00\x85Z"
SEPARATOR_RECORD = json.dumps(
    {"level": 5, "weight": 2, "char_trivial": True, "dims": [1], "fetched_at": SEPARATOR_STAMP}, ensure_ascii=False
)


def test_fixture_records_end_only_at_newline(packaged):
    packaged(SEPARATOR_RECORD + "\n")
    assert load_fixture_store()[5]["fetched_at"] == SEPARATOR_STAMP
    packaged(SEPARATOR_RECORD + "\n{\n")
    with pytest.raises(ValueError, match="^fixtures.jsonl:2: not valid JSON"):
        load_fixture_store()


# -- cache store -----------------------------------------------------------------


def test_cache_line_format(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = OrbitDimCache(path)
    cache.put(100, [3, 1], fetched_at="2026-01-01T00:00:00Z")
    raw = path.read_bytes()
    assert raw.endswith(b"\n") and b"\r" not in raw
    line = raw.decode("utf-8").strip()
    assert json.loads(line) == {
        "level": 100,
        "weight": 2,
        "char_trivial": True,
        "dims": [1, 3],
        "fetched_at": "2026-01-01T00:00:00Z",
    }
    assert list(json.loads(line)) == ["level", "weight", "char_trivial", "dims", "fetched_at"]


def test_cache_last_writer_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = OrbitDimCache(path)
    cache.put(7, [1])
    cache.put(7, [2, 2])
    assert cache.get(7)["dims"] == [2, 2]
    reloaded = OrbitDimCache(path)
    assert reloaded.get(7)["dims"] == [2, 2]
    assert path.read_text().count("\n") == 2  # append-only


def test_cache_rejects_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text('{"level": 1, "weight": 2}\n')
    with pytest.raises(ValueError):
        OrbitDimCache(path)


def test_cache_rejects_bad_dims(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = '{"level": 1, "weight": 2, "char_trivial": true, "dims": [1], "fetched_at": "x"}'
    for dims in ('"3"', "[0]", "[1, -2]", "[2.0]", "[true]", "null", "{}"):
        path.write_text(good + "\n" + good.replace("[1]", dims) + "\n")
        with pytest.raises(ValueError, match=":2: 'dims'"):
            OrbitDimCache(path)


# A stored record answers the one query: a positive level, weight 2, the trivial character.
@pytest.mark.parametrize(
    "key, value",
    [
        ("level", True), ("level", "77"), ("level", 0), ("level", 1.0), ("weight", 4), ("weight", "2"),
        ("weight", 2.0), ("char_trivial", False), ("char_trivial", 1), ("fetched_at", None),
    ],
)
def test_cache_rejects_records_of_another_query(tmp_path, key, value):
    path = tmp_path / "cache.jsonl"
    good = {"level": 78, "weight": 2, "char_trivial": True, "dims": [1], "fetched_at": "x"}
    path.write_text("".join(json.dumps(record) + "\n" for record in (good, {**good, key: value})))
    with pytest.raises(ValueError, match=f":2: '{key}' must be "):
        OrbitDimCache(path)


RECORD_KEYS = ("level", "weight", "char_trivial", "dims", "fetched_at")


def readme_record_fault(obj):
    """README's rules for a cache record, taken in order: the message for the first one broken, or None."""
    if not isinstance(obj, dict):
        return "record is not a JSON object"
    missing = [key for key in RECORD_KEYS if key not in obj]
    if missing:
        return f"record is missing {missing[0]!r}"

    def integer(value):
        return isinstance(value, int) and not isinstance(value, bool)

    rules = {
        "level": (integer(obj["level"]) and obj["level"] >= 1, "a positive integer"),
        "weight": (integer(obj["weight"]) and obj["weight"] == 2, "2"),
        "char_trivial": (obj["char_trivial"] is True, "true"),
        "dims": (
            isinstance(obj["dims"], list) and all(integer(dim) and dim >= 1 for dim in obj["dims"]),
            "a list of positive integers",
        ),
        "fetched_at": (isinstance(obj["fetched_at"], str), "a string"),
    }
    broken = [key for key in RECORD_KEYS if not rules[key][0]]
    return f"{broken[0]!r} must be {rules[broken[0]][1]}, got {obj[broken[0]]!r}" if broken else None


# Values a near-record may hold in place of a good one, or under an extra key.
ODD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([0, 1, 2, -1, 1.0, 2.0, 1.5, "2", 10**30, -(10**30)]),
    st.integers(),
    st.text(max_size=4),
    st.lists(st.sampled_from([1, 2, 10**30, 0, -1, True, 1.5]), max_size=4),
    st.lists(st.lists(st.integers(1, 3), max_size=2), max_size=2),
)


@st.composite
def near_records(draw):
    """Mostly a good record with up to two keys dropped or given an odd value, and up to two extra keys;
    one time in ten an odd value that is no record at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(ODD_VALUES)
    record = {
        "level": draw(st.integers(1, 10**30)),
        "weight": 2,
        "char_trivial": True,
        "dims": draw(st.lists(st.integers(1, 10**30), max_size=4)),
        "fetched_at": draw(st.text(max_size=8)),
    }
    for key in draw(st.lists(st.sampled_from(RECORD_KEYS), unique=True, max_size=2)):
        if draw(st.integers(0, 4)) == 0:
            del record[key]
        else:
            record[key] = draw(ODD_VALUES)
    record.update(draw(st.dictionaries(st.text(max_size=3), ODD_VALUES, max_size=2)))
    return record


def never_called():
    raise AssertionError("the place of a record that passes was built")


@settings(max_examples=600, derandomize=True, deadline=None)
@given(obj=near_records())
def test_check_record_agrees_with_readme_rules(obj):
    fault = readme_record_fault(obj)
    if fault is None:
        assert lmfdb._check_record(obj, never_called) is obj
    else:
        with pytest.raises(ValueError) as info:
            lmfdb._check_record(obj, lambda: "here")
        assert str(info.value) == f"here: {fault}"


# Stamps that JSON must escape: quotes, backslashes, control characters, separators and non-BMP text.
STAMPS = st.text(st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\x85\u2028\U0001f600')), max_size=12)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    puts=st.lists(
        st.tuples(st.integers(1, 10**30), st.lists(st.integers(1, 10**30), max_size=5), STAMPS), min_size=1, max_size=6
    )
)
@example(puts=[(10, [1], "")])  # an empty stamp is written as given; only None stamps the current time
def test_put_writes_the_line_json_dumps_writes(puts):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        cache = OrbitDimCache(path)
        records = [cache.put(level, dims, stamp) for level, dims, stamp in puts]
        cache.close()
        assert [record["dims"] for record in records] == [sorted(dims) for _, dims, _ in puts]
        assert [record["fetched_at"] for record in records] == [stamp for *_, stamp in puts]
        assert path.read_bytes() == b"".join(json.dumps(record).encode("utf-8") + b"\n" for record in records)
        reloaded = OrbitDimCache(path)
        assert {level: reloaded.get(level) for level, *_ in puts} == {record["level"]: record for record in records}


def test_cache_with_invalid_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    good = b'{"level": 1, "weight": 2, "char_trivial": true, "dims": [1], "fetched_at": "x"}\n'
    path.write_bytes(good + good.replace(b'"x"', b'"\xff"'))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: not valid UTF-8$"):
        OrbitDimCache(path)


def test_cache_records_end_only_at_newline(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(SEPARATOR_RECORD + "\n", encoding="utf-8")
    assert OrbitDimCache(path).get(5)["fetched_at"] == SEPARATOR_STAMP
    path.write_text(SEPARATOR_RECORD + "\n{\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:2: not valid JSON"):
        OrbitDimCache(path)


GOOD_LINE = '{"level": 1, "weight": 2, "char_trivial": true, "dims": [1], "fetched_at": "x"}'


@pytest.mark.parametrize(
    "line, message",
    [
        ("\ufeff" + GOOD_LINE,
         "not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (GOOD_LINE + " garbage", "not valid JSON: Extra data: line 1 column 81 (char 80)"),
        (GOOD_LINE + GOOD_LINE, "not valid JSON: Extra data: line 1 column 80 (char 79)"),
        ("5", "record is not a JSON object"),
    ],
    ids=["bom", "trailing-garbage", "two-objects", "bare-scalar"],
)
def test_cache_load_error_text_is_pinned(tmp_path, line, message):
    path = tmp_path / "cache.jsonl"
    path.write_text(GOOD_LINE + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        OrbitDimCache(path)
    assert str(info.value) == f"{path}:2: {message}"


def json_loads_store(line):
    """One line loaded as every line was when each went through json.loads."""
    line = line.strip()
    if not line:
        return {}
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"here:1: not valid JSON: {exc}") from exc
    obj = lmfdb._check_record(obj, lambda: "here:1")
    return {obj["level"]: obj}


def outcome(load, line):
    """load(line), or the text of the ValueError it raises."""
    try:
        return load(line)
    except ValueError as exc:
        return str(exc)


# Lines near a record: JSON tokens, a BOM, whitespace and stray text, and values with text around them.
NEAR_JSON = st.one_of(
    st.text(st.sampled_from(list('{}[]":, 0123456789.eE+-truefalsn\ufeff\\\t\x0b\x1c \u2028x')), max_size=16),
    st.tuples(
        st.text(" \t\ufeff{x", max_size=2),
        st.sampled_from([GOOD_LINE, "5", "[]", '"x"', "{}"]),
        st.text(" \t}]x0,{", max_size=3),
    ).map("".join),
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(line=NEAR_JSON)
@example(line=GOOD_LINE + " \t")
@example(line=" 5 5")
def test_load_store_reads_a_line_as_json_loads_does(line):
    assert outcome(lambda line: load_store([line], "here"), line) == outcome(json_loads_store, line)


class ShortWrites:
    """A raw file whose write takes at most 7 bytes per call; every call's size is recorded."""

    def __init__(self, raw, sizes):
        self._raw, self._sizes = raw, sizes

    def write(self, data):
        self._sizes.append(len(data))
        return self._raw.write(data[:7])

    def __getattr__(self, name):
        return getattr(self._raw, name)


def put_around_a_parsing_torn_tail(path):
    """Two puts, one stamped with non-ASCII text, then a whole record torn off before its newline, then one put
    by a new cache, which writes that record back: every record put or carried, in file order."""
    cache = OrbitDimCache(path)
    records = [cache.put(10, [3, 1], "2026-01-01T00:00:00Z"), cache.put(11, [2], "caf\u00e9 \u2028 \U0001f600")]
    cache.close()
    torn = {"level": 12, "weight": 2, "char_trivial": True, "dims": [1, 1], "fetched_at": "2026-01-01T00:00:01Z"}
    with open(path, "ab") as handle:
        handle.write(json.dumps(torn).encode())
    cache = OrbitDimCache(path)
    records += [torn, cache.put(13, [4], "2026-01-01T00:00:02Z")]
    cache.close()
    return records


def test_cache_writes_the_rest_of_a_short_write(tmp_path, monkeypatch):
    plain = tmp_path / "plain" / "cache.jsonl"
    put_around_a_parsing_torn_tail(plain)
    sizes = []
    real_open = open
    monkeypatch.setattr(lmfdb, "open", lambda *args, **kwargs: ShortWrites(real_open(*args, **kwargs), sizes),
                        raising=False)
    short = tmp_path / "short" / "cache.jsonl"
    records = put_around_a_parsing_torn_tail(short)
    assert short.read_bytes() == plain.read_bytes()
    assert plain.read_bytes() == b"".join(json.dumps(record).encode() + b"\n" for record in records)
    assert len(sizes) > 3 and max(sizes) > 7  # the writes really were cut short, and each rest written again
    reloaded = OrbitDimCache(short)
    assert [reloaded.get(record["level"]) for record in records] == records


def file_levels(path):
    """The levels stored in a cache file whose lines are all complete."""
    return sorted(load_store(path.read_text().splitlines(), str(path)))


NON_OBJECT_LINES = ["5", "null", "[1]", '"x"']


@pytest.mark.parametrize("line", NON_OBJECT_LINES)
def test_cache_rejects_non_object_line(tmp_path, line):
    path = tmp_path / "cache.jsonl"
    good = '{"level": 1, "weight": 2, "char_trivial": true, "dims": [1], "fetched_at": "x"}'
    path.write_text(good + "\n" + line + "\n")
    with pytest.raises(ValueError, match=":2: record is not a JSON object$"):
        OrbitDimCache(path)


@pytest.mark.parametrize("line", NON_OBJECT_LINES)
def test_cache_skips_unterminated_non_object_last_line(tmp_path, caplog, line):
    path = tmp_path / "cache.jsonl"
    OrbitDimCache(path).put(10, [1])
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line)
    with caplog.at_level("WARNING", logger="rmbounds.lmfdb"):
        cache = OrbitDimCache(path)
    assert cache.get(10) is not None
    assert "record is not a JSON object" in caplog.text
    cache.put(11, [2])
    assert file_levels(path) == [10, 11]
    assert path.read_text().count("\n") == 2


def write_torn_cache(path):
    """Two complete records, then a third cut off in the middle of its line."""
    cache = OrbitDimCache(path)
    cache.put(10, [1], fetched_at="2026-01-01T00:00:00Z")
    cache.put(11, [2, 3], fetched_at="2026-01-01T00:00:00Z")
    line = path.read_text().splitlines()[-1].replace("11", "12")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line[: len(line) // 2])


def test_cache_tolerates_torn_last_line(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    write_torn_cache(path)
    with caplog.at_level("WARNING", logger="rmbounds.lmfdb"):
        cache = OrbitDimCache(path)
    assert [level for level in (10, 11, 12) if cache.get(level)] == [10, 11]
    assert "unterminated last line" in caplog.text


def test_cache_put_after_torn_last_line_keeps_every_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    write_torn_cache(path)
    OrbitDimCache(path).put(13, [4])
    reloaded = OrbitDimCache(path)
    assert file_levels(path) == [10, 11, 13]
    assert reloaded.get(11)["dims"] == [2, 3] and reloaded.get(13)["dims"] == [4]
    assert path.read_text().count("\n") == 3


@pytest.mark.parametrize("tail", ["torn", "complete", "same-length"])
def test_cache_writers_one_after_another_keep_each_others_records(tmp_path, tail):
    # Both caches load the same unterminated last line; the second's first put
    # must not cut the file where it ended at the load, under the first's record.
    path = tmp_path / "cache.jsonl"
    write_torn_cache(path)
    head = path.read_text().rsplit("\n", 1)[0] + "\n"
    record = ('{"level": 12, "weight": 2, "char_trivial": true, "dims": [1, 2, 3, 4, 5, 6], '
              '"fetched_at": "2026-01-01T00:00:00Z"}')
    first_line = ('{"level": 13, "weight": 2, "char_trivial": true, "dims": [4], '
                  '"fetched_at": "2026-01-01T00:00:00Z"}\n')
    if tail == "complete":  # a whole record cut off just before its newline
        path.write_text(head + record)
    elif tail == "same-length":  # torn at the first put's line length, so that put leaves the length as it was
        path.write_text(head + record[: len(first_line)])
    first, second = OrbitDimCache(path), OrbitDimCache(path)
    first.put(13, [4], fetched_at="2026-01-01T00:00:00Z")
    assert path.read_text().endswith(first_line)
    second.put(14, [5])
    expected = [10, 11, 12, 13, 14] if tail == "complete" else [10, 11, 13, 14]
    assert file_levels(path) == expected
    assert path.read_text().count("\n") == len(expected)
    assert second.get(13)["dims"] == [4]  # the second cache read the file again before its cut
    first.close()
    second.close()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts this process's open files through /proc")
def test_cache_put_whose_read_again_fails_opens_no_file(tmp_path):
    # Another writer leaves a line that does not load before this cache's first put reads the file again.
    path = tmp_path / "cache.jsonl"
    write_torn_cache(path)
    cache = OrbitDimCache(path)
    with open(path, "ab") as handle:
        handle.write(b"\n\xff\n")
    open_files = len(os.listdir("/proc/self/fd"))
    for _ in range(2):
        with pytest.raises(ValueError, match="not valid UTF-8"):
            cache.put(13, [4])
    assert len(os.listdir("/proc/self/fd")) == open_files
    cache.close()


def test_cache_survives_a_writer_killed_in_a_burst_of_puts(tmp_path):
    # A real crash, not a hand-written torn line: the writer is SIGKILLed while it puts levels 1, 2, 3, ...
    path = tmp_path / "cache.jsonl"
    script = (
        "import sys\n"
        "from rmbounds.lmfdb import OrbitDimCache\n"
        "cache = OrbitDimCache(sys.argv[1])\n"
        "for level in range(1, 100001):\n"
        "    cache.put(level, [level % 7 + 1])\n"
        "    if level == 50:\n"
        "        print('burst', flush=True)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(rmbounds.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-c", script, str(path)], env=env, stdout=subprocess.PIPE) as child:
        try:
            assert child.stdout.readline() == b"burst\n"
        finally:
            child.send_signal(signal.SIGKILL)
        assert child.wait(timeout=10) == -signal.SIGKILL  # killed in the middle of the burst
    cache = OrbitDimCache(path)
    levels = [level for level in range(1, 100001) if cache.get(level)]
    assert len(levels) >= 50 and levels == list(range(1, len(levels) + 1))  # a prefix of the put order
    cache.put(10**6, [1])
    cache.close()
    reloaded = OrbitDimCache(path)
    assert [level for level in [*levels, 10**6] if reloaded.get(level)] == [*levels, 10**6]
    assert path.read_bytes().count(b"\n") == len(levels) + 1


def test_cache_keeps_unterminated_complete_last_line(tmp_path):
    # a write cut off just before its newline: the record is whole and is kept
    path = tmp_path / "cache.jsonl"
    OrbitDimCache(path).put(10, [1])
    path.write_text(path.read_text().rstrip("\n"))
    cache = OrbitDimCache(path)
    assert cache.get(10) is not None
    cache.put(11, [2])
    assert file_levels(path) == [10, 11]
    assert path.read_text().count("\n") == 2


def test_cache_concurrent_reads_during_writes(tmp_path):
    cache = OrbitDimCache(tmp_path / "cache.jsonl")
    errors = []

    def writer():
        for i in range(1, 51):
            cache.put(i, [1])

    def reader():
        try:
            for i in range(200):
                cache.get(i % 50 + 1)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert file_levels(tmp_path / "cache.jsonl") == list(range(1, 51))


def test_cache_makes_its_directory_once(tmp_path, monkeypatch):
    made, depth = [], [0]
    real_mkdir = Path.mkdir

    def mkdir(self, *args, **kwargs):
        # mkdir(parents=True) calls itself for missing parents; count the outer calls only
        if not depth[0]:
            made.append(self)
        depth[0] += 1
        try:
            return real_mkdir(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Path, "mkdir", mkdir)
    path = tmp_path / "a" / "b" / "cache.jsonl"
    cache = OrbitDimCache(path)
    for level in range(1, 6):
        cache.put(level, [level + 1, 1], fetched_at="2026-01-01T00:00:00Z")
    assert made == [path.parent]
    assert path.read_text() == "".join(
        f'{{"level": {level}, "weight": 2, "char_trivial": true, "dims": [1, {level + 1}], '
        f'"fetched_at": "2026-01-01T00:00:00Z"}}\n'
        for level in range(1, 6)
    )


@pytest.mark.parametrize(
    "level, dims",
    [(0, [1]), (5, [0]), (True, [1]), (5, None), (5, [1, "a"])],
    ids=["level-0", "dim-0", "level-bool", "dims-none", "dim-str"],
)
def test_cache_put_rejects_what_the_loader_rejects(tmp_path, level, dims):
    path = tmp_path / "a" / "cache.jsonl"
    cache = OrbitDimCache(path)
    with pytest.raises(ValueError, match=f"^put to {re.escape(str(path))}: '(level|dims)' must be "):
        cache.put(level, dims)
    assert not path.parent.exists()  # a rejected first put makes nothing
    cache.put(7, [1])
    before = path.read_bytes()
    with pytest.raises(ValueError):
        cache.put(level, dims)
    assert path.read_bytes() == before
    assert file_levels(path) == [7]
    assert OrbitDimCache(path).get(7)["dims"] == [1]


def test_cache_put_is_visible_to_a_new_reader_when_it_returns(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = OrbitDimCache(path)
    for level in (10, 11, 12):
        record = cache.put(level, [level % 3 + 1])
        assert OrbitDimCache(path).get(level) == record


def test_dropped_cache_leaks_no_open_file(tmp_path):
    cache = OrbitDimCache(tmp_path / "cache.jsonl")
    cache.put(10, [1])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        del cache
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_cache_close_twice_and_put_after_close(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = OrbitDimCache(path)
    cache.close()  # before any put: nothing is open
    cache.put(10, [1])
    cache.close()
    cache.close()
    cache.put(11, [2])  # opens the handle again
    cache.close()
    assert file_levels(path) == [10, 11]


# -- network path ------------------------------------------------------------------


def test_network_fetch_caches_and_prefers_cache(tmp_path):
    transport, calls = make_transport([(200, {"data": [{"dim": 2}, {"dim": 1}]}, {})])
    cache = OrbitDimCache(tmp_path / "cache.jsonl")
    client = OrbitDimClient(cache=cache, fixtures={}, transport=transport, sleep=lambda s: None)
    first = client.fetch_orbit_dims(77)
    assert first.source == "network" and first.dims == (1, 2)
    second = client.fetch_orbit_dims(77)
    assert second.source == "cache"
    assert len(calls) == 1


def test_fixture_store_wins_over_network():
    transport, calls = make_transport([(200, {"data": []}, {})])
    client = OrbitDimClient(transport=transport, sleep=lambda s: None)
    result = client.fetch_orbit_dims(243)
    assert result.source == "fixture"
    assert calls == []


def test_cache_round_trip_identity(tmp_path):
    transport, _ = make_transport([(200, {"data": [{"dim": 5}, {"dim": 1}]}, {})])
    path = tmp_path / "cache.jsonl"
    online = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, transport=transport, sleep=lambda s: None)
    fetched = online.fetch_orbit_dims(4000)
    offline = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, offline=True)
    replayed = offline.fetch_orbit_dims(4000)
    assert (replayed.level, replayed.dims) == (fetched.level, fetched.dims) == (4000, (1, 5))
    assert replayed.fetched_at == fetched.fetched_at
    assert (fetched.source, replayed.source) == ("network", "cache")


# The request path: what is sent for a level, and how a record is stamped.

FETCHED_AT = re.compile(r"^\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ$")


def test_default_config_sends_these_params():
    transport, calls = make_transport([(200, {"data": []}, {})])
    OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None).fetch_orbit_dims(77)
    url, params = calls[0]
    assert url == "https://www.lmfdb.org/api/mf_newforms/"
    assert list(params.items()) == [
        ("level", "i77"), ("weight", "i2"), ("char_order", "i1"), ("_fields", "dim"), ("_format", "json"),
    ]


def test_relative_next_url_is_joined_to_base_url():
    pages = [
        (200, {"data": [{"dim": 1}], "next": "/api/mf_newforms/?level=i55&_offset=1"}, {}),
        (200, {"data": [{"dim": 4}]}, {}),
    ]
    transport, calls = make_transport(pages)
    client = OrbitDimClient(base_url="https://mirror.example/", fixtures={}, transport=transport, sleep=lambda s: None)
    client.fetch_orbit_dims(55)
    assert calls[0][0] == "https://mirror.example/api/mf_newforms/"
    assert calls[1] == ("https://mirror.example/api/mf_newforms/?level=i55&_offset=1", {})


def test_network_result_and_cache_line_are_stamped_in_utc(tmp_path):
    transport, _ = make_transport([(200, {"data": [{"dim": 1}]}, {})])
    path = tmp_path / "cache.jsonl"
    client = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, transport=transport, sleep=lambda s: None)
    before = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    result = client.fetch_orbit_dims(77)
    after = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    assert FETCHED_AT.match(result.fetched_at)
    assert before <= result.fetched_at <= after
    assert json.loads(path.read_text())["fetched_at"] == result.fetched_at
    uncached = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None).fetch_orbit_dims(78)
    assert FETCHED_AT.match(uncached.fetched_at)


def test_pagination_follows_next():
    pages = [
        (200, {"data": [{"dim": 1}], "next": "/api/mf_newforms/?offset=1"}, {}),
        (200, {"data": [{"dim": 4}], "next": None}, {}),
    ]
    transport, calls = make_transport(pages)
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    result = client.fetch_orbit_dims(55)
    assert result.dims == (1, 4)
    assert len(calls) == 2
    assert calls[1][0].endswith("offset=1")


@pytest.mark.parametrize("page", [{}, {"next": None}, {"next": ""}], ids=["missing", "null", "empty"])
def test_missing_null_or_empty_next_ends_paging(page):
    transport, calls = make_transport([(200, {"data": [{"dim": 1}], **page}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    assert client.fetch_orbit_dims(31).dims == (1,)
    assert len(calls) == 1


@pytest.mark.parametrize("loop", [["/api/mf_newforms/?offset=1"], ["/api/mf_newforms/?offset=1", "/api/mf_newforms/?offset=2"]],
                         ids=["self", "cycle"])
def test_pagination_refuses_a_next_it_has_followed(tmp_path, loop):
    # each page points to the next in a loop; the transport stops an endless fetch after 10 calls
    calls = []

    def transport(url, params, timeout):
        calls.append(url)
        assert len(calls) <= 10, "paged past a repeated next"
        return 200, {"data": [{"dim": 1}], "next": loop[(len(calls) - 1) % len(loop)]}, {}

    path = tmp_path / "cache.jsonl"
    client = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(MalformedResponse, match=f"^'next' repeats {re.escape(lmfdb.BASE_URL + loop[0])} for level 77$"):
        client.fetch_orbit_dims(77)
    client.cache.close()
    assert len(calls) == len(loop) + 1  # the first page, then each next once
    assert not path.exists()  # nothing of the level is stored


@pytest.mark.parametrize(
    "next_url", [5, {"page": 2}, ["x"], 0, False, [], {}],
    ids=["int", "object", "list", "zero", "false", "empty-list", "empty-object"],
)
def test_next_that_is_not_a_string_is_malformed(next_url):
    transport, calls = make_transport([(200, {"data": [{"dim": 1}], "next": next_url}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(MalformedResponse, match=f"^'next' is not a URL: {re.escape(repr(next_url))}$"):
        client.fetch_orbit_dims(31)
    assert len(calls) == 1


def test_backoff_then_success():
    sleeps = []
    pages = [
        (429, "slow down", {"Retry-After": "2"}),
        (200, {"data": [{"dim": 3}]}, {}),
    ]
    transport, calls = make_transport(pages)
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append)
    result = client.fetch_orbit_dims(31)
    assert result.dims == (3,)
    assert 2.0 in sleeps  # honored Retry-After
    assert len(calls) == 2


# Retry-After is a hint in seconds; one that is not a finite number >= 0 is ignored.
BAD_RETRY_AFTER = ["-5", "nan", "inf", "1e400"]


@pytest.mark.parametrize("value", BAD_RETRY_AFTER)
def test_bad_retry_after_falls_back_to_backoff(value):
    sleeps = []
    transport, calls = make_transport([(503, "busy", {"Retry-After": value}), (200, {"data": [{"dim": 3}]}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append)
    assert client.fetch_orbit_dims(31).dims == (3,)
    assert sleeps[0] == lmfdb.MIN_INTERVAL  # then the rate-limit wait on the real clock
    assert len(calls) == 2


@pytest.mark.parametrize("value", ["-5", "nan"])
def test_bad_retry_after_does_not_reach_time_sleep(value, monkeypatch):
    monkeypatch.setattr(lmfdb, "MIN_INTERVAL", 0.001)
    transport, _ = make_transport([(429, "slow down", {"Retry-After": value}), (200, {"data": [{"dim": 3}]}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport)
    assert client.fetch_orbit_dims(31).dims == (3,)


@pytest.mark.parametrize("value", BAD_RETRY_AFTER)
def test_service_error_carries_no_bad_retry_after(value):
    transport, _ = make_transport([(503, "busy", {"Retry-After": value})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(ServiceError) as info:
        client.fetch_orbit_dims(31)
    assert info.value.retry_after is None


@pytest.mark.parametrize("name", ["RETRY-AFTER", "Retry-after"])
def test_retry_after_header_name_is_case_insensitive(name):
    sleeps = []
    transport, _ = make_transport([(429, "slow down", {name: "2"}), (200, {"data": []}, {})])
    OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append).fetch_orbit_dims(31)
    assert sleeps[0] == 2.0


def test_retry_after_zero_is_honoured():
    sleeps = []
    transport, _ = make_transport([(429, "slow down", {"Retry-After": "0"}), (200, {"data": []}, {})])
    OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append).fetch_orbit_dims(31)
    assert sleeps[0] == 0.0


def test_service_error_after_retry_exhaustion():
    sleeps, now = [], [0.0]

    def sleep(seconds):
        sleeps.append(seconds)
        now[0] += seconds

    transport, calls = make_transport([(500, "boom", {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=sleep, clock=lambda: now[0])
    with pytest.raises(ServiceError, match="after 5 attempts$"):
        client.fetch_orbit_dims(31)
    assert len(calls) == lmfdb.MAX_RETRIES + 1
    assert sleeps == [0.5, 1.0, 2.0, 4.0]  # a backoff before each retry, none after the last attempt


# A finite hint longer than TIMEOUT is not waited out: 1e308 s would overflow time.sleep and 3600 s
# would stall the run for an hour.
@pytest.mark.parametrize("value", ["1e308", "3600", "30.5"])
def test_retry_after_past_the_timeout_ends_the_retries(value):
    sleeps = []
    transport, calls = make_transport([(503, "busy", {"Retry-After": value}), (200, {"data": [{"dim": 3}]}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append)
    with pytest.raises(ServiceError, match=re.escape(f"Retry-After {float(value):g} s is more than 30 s")) as info:
        client.fetch_orbit_dims(31)
    assert info.value.retry_after == float(value)
    assert len(calls) == 1 and sleeps == []


def test_retry_after_of_the_timeout_is_waited_out():
    sleeps = []
    transport, calls = make_transport([(429, "slow down", {"Retry-After": "30"}), (200, {"data": []}, {})])
    OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append).fetch_orbit_dims(31)
    assert sleeps[0] == lmfdb.TIMEOUT and len(calls) == 2


def test_non_retryable_status_is_service_error():
    transport, calls = make_transport([(404, "nope", {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(ServiceError):
        client.fetch_orbit_dims(31)
    assert len(calls) == 1


def test_malformed_payloads(tmp_path):
    bodies = ("not json", {"rows": []}, {"data": "nope"}, {"data": [{"dim": "x"}]}, {"data": [{}]})
    bodies += ({"data": [{"dim": True}]},)  # a bool is not an orbit degree
    path = tmp_path / "cache.jsonl"
    for body in bodies:
        for cache in (None, OrbitDimCache(path)):
            transport, _ = make_transport([(200, body, {})])
            client = OrbitDimClient(fixtures={}, cache=cache, transport=transport, sleep=lambda s: None)
            with pytest.raises(MalformedResponse):
                client.fetch_orbit_dims(31)
            if cache is not None:
                cache.close()
    assert not path.exists()  # a rejected payload is never stored


def test_rate_limit_spacing():
    sleeps = []
    clock_value = [0.0]

    def clock():
        return clock_value[0]

    transport, _ = make_transport([(200, {"data": []}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=sleeps.append, clock=clock)
    client.fetch_orbit_dims(10)
    clock_value[0] += 0.1  # only 100ms later
    client.fetch_orbit_dims(11)
    assert sleeps and abs(sleeps[-1] - (lmfdb.MIN_INTERVAL - 0.1)) < 1e-9


# -- scanning -----------------------------------------------------------------------


def test_scan_finds_paper_witnesses(offline_client):
    witness = offline_client.sharpness_scan(2, 7, 16384)
    assert (witness.status, witness.level, witness.exponent_attained) == ("sharp", 12032, 8)
    witness = offline_client.sharpness_scan(3, 9, 20000)
    assert (witness.status, witness.level) == ("sharp", 19683)
    witness = offline_client.sharpness_scan(11, 10, 10000)
    assert (witness.status, witness.level, witness.exponent_attained) == ("almost_sharp", 1331, 3)


def test_scan_budget_monotone(offline_client):
    rank = {"none_found": 0, "almost_sharp": 1, "sharp": 2}
    previous = 0
    for budget in (100, 1331, 12031, 12032, 16384, 20000):
        witness = offline_client.sharpness_scan(2, 7, budget)
        assert rank[witness.status] >= previous
        previous = rank[witness.status]


def test_scan_strict_propagates(offline_client):
    with pytest.raises(NetworkUnavailable):
        offline_client.sharpness_scan(2, 7, 16384, strict=True)


# -- the default transport, against a stand-in server on loopback ---------------------

DROP = None  # an answer that closes the connection without a response
JSON = {"Content-Type": "application/json"}
NO_PROXY = {"no_proxy": "*"}  # so a proxy setting in the environment cannot route a loopback request elsewhere


class StandIn(http.server.BaseHTTPRequestHandler):
    """Answers the n-th GET with the server's n-th (status, text, headers) answer, the last one from then on."""

    def do_GET(self):
        asked, answers = self.server.asked, self.server.answers
        asked.append(self.path)
        answer = answers[min(len(asked), len(answers)) - 1]
        if answer is DROP:
            return  # HTTP/1.0 closes the connection after each request, here unanswered
        status, text, headers = answer
        data = text.encode()
        self.send_response(status)
        for name, value in {"Content-Length": str(len(data)), **headers}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


@contextlib.contextmanager
def stand_in(answers):
    """A threaded http.server on 127.0.0.1 giving answers in turn; yields (base URL, paths asked)."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), StandIn)
    server.answers, server.asked = answers, []
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05})
    thread.start()
    try:
        with mock.patch.dict(os.environ, NO_PROXY):
            yield f"http://127.0.0.1:{server.server_port}", server.asked
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.fixture
def loopback():
    """serve(answers) starts a stand-in server and returns (base URL, paths asked); each is closed after the test."""
    with contextlib.ExitStack() as stack:
        yield lambda answers: stack.enter_context(stand_in(answers))


@contextlib.contextmanager
def refusing_url():
    """The http URL of a loopback port that is bound but not listening, so every connection to it is refused."""
    with socket.socket() as sock, mock.patch.dict(os.environ, NO_PROXY):
        sock.bind(("127.0.0.1", 0))
        yield f"http://127.0.0.1:{sock.getsockname()[1]}"


def spy_opens(monkeypatch):
    """Record every URL a urllib opener opens, redirects included; returns the list."""
    real, opened = urllib.request.OpenerDirector.open, []

    def open(self, url, *args, **kwargs):
        opened.append(getattr(url, "full_url", url))
        return real(self, url, *args, **kwargs)

    monkeypatch.setattr(urllib.request.OpenerDirector, "open", open)
    return opened


def test_default_transport_returns_a_json_body_as_a_dict(loopback):
    base, asked = loopback([(200, '{"data": [{"dim": 3}]}', JSON)])
    status, body, headers = lmfdb._urllib_transport(base + "/api", {"level": "i77", "_format": "json"}, 5.0)
    assert (status, body, headers["Content-Type"]) == (200, {"data": [{"dim": 3}]}, "application/json")
    lmfdb._urllib_transport(base + "/api?level=i77&_offset=1", {}, 5.0)  # a next URL, sent as given
    assert asked == ["/api?level=i77&_format=json", "/api?level=i77&_offset=1"]


def test_default_transport_returns_a_non_json_body_as_text(loopback):
    base, asked = loopback([(200, "<html>busy</html>", {})])
    assert lmfdb._urllib_transport(base + "/api", {}, 5.0)[:2] == (200, "<html>busy</html>")
    client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(MalformedResponse, match="^response was not JSON$"):
        client.fetch_orbit_dims(31)
    assert len(asked) == 2


def test_default_transport_retries_a_503_after_its_retry_after_hint(loopback):
    base, asked = loopback([(503, "busy", {"Retry-After": "0"}), (200, '{"data": [{"dim": 3}]}', JSON)])
    sleeps = []
    client = OrbitDimClient(base_url=base, fixtures={}, sleep=sleeps.append, clock=lambda: 0.0)
    assert client.fetch_orbit_dims(31).dims == (3,)
    assert len(asked) == 2
    assert sleeps == [0.0, lmfdb.MIN_INTERVAL]  # the hint, then the rate-limit spacing


def test_default_transport_returns_a_404_as_an_answer(loopback):
    base, asked = loopback([(404, "no such page", {})])
    assert lmfdb._urllib_transport(base + "/api", {}, 5.0)[:2] == (404, "no such page")
    client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(ServiceError, match=f"^unexpected status 404 from {re.escape(base)}/api/mf_newforms/$"):
        client.fetch_orbit_dims(31)
    assert len(asked) == 2


def test_default_transport_follows_a_relative_next(loopback):
    first = '{"data": [{"dim": 1}], "next": "/api/mf_newforms/?level=i55&_offset=1"}'
    base, asked = loopback([(200, first, JSON), (200, '{"data": [{"dim": 4}]}', JSON)])
    client = OrbitDimClient(base_url=base + "/", fixtures={}, sleep=lambda seconds: None)
    assert client.fetch_orbit_dims(55).dims == (1, 4)
    assert asked == [
        "/api/mf_newforms/?level=i55&weight=i2&char_order=i1&_fields=dim&_format=json",
        "/api/mf_newforms/?level=i55&_offset=1",
    ]


def test_failed_request_is_not_an_offline_miss(loopback):
    base, asked = loopback([DROP])
    client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(NetworkFailed, match=f"^request to {re.escape(base)}/api/mf_newforms/ failed: ") as info:
        client.sharpness_scan(2, 7, 16384)
    assert not isinstance(info.value, NetworkUnavailable)
    assert len(asked) == 1


def test_refused_connection_is_a_failed_request(monkeypatch):
    opened = spy_opens(monkeypatch)
    with refusing_url() as base:
        client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
        with pytest.raises(NetworkFailed, match="(?i)connection refused") as info:
            client.sharpness_scan(2, 7, 16384)
    assert not isinstance(info.value, NetworkUnavailable)
    assert len(opened) == 1


@pytest.mark.parametrize("base_url", ["", "http://", "http://[::1"], ids=["empty", "no-host", "bad-host"])
def test_base_url_that_is_not_a_url_is_a_failed_request(base_url):
    client = OrbitDimClient(base_url=base_url, fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(NetworkFailed, match=f"^request to {re.escape(client._url)} failed: "):
        client.fetch_orbit_dims(31)


@pytest.mark.parametrize("where", ["base_url", "next"])
@pytest.mark.parametrize("scheme", ["file", "data"])
def test_only_http_and_https_urls_are_fetched(loopback, tmp_path, monkeypatch, where, scheme):
    page = '{"data": [{"dim": 6}]}'
    if scheme == "file":
        planted = tmp_path / "planted.json"
        planted.write_text(page)
        url = planted.as_uri()
    else:
        url = "data:application/json," + urllib.parse.quote(page)
    base, asked = loopback([(200, json.dumps({"data": [{"dim": 1}], "next": url}), JSON)])
    opened = spy_opens(monkeypatch)
    client = OrbitDimClient(base_url=url if where == "base_url" else base, fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(NetworkFailed, match="failed: only http and https URLs are fetched$"):
        client.fetch_orbit_dims(31)
    assert len(opened) == len(asked) == (where == "next")  # the loopback page only, if any; never the planted URL


def test_redirect_to_ftp_is_refused(loopback, monkeypatch):
    with socket.socket() as listener:  # a listening ftp port: a connection to it waits to be accepted
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        listener.setblocking(False)
        base, asked = loopback([(302, "", {"Location": f"ftp://127.0.0.1:{listener.getsockname()[1]}/x.json"})])
        opened = spy_opens(monkeypatch)
        client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
        with pytest.raises(ServiceError, match=f"^unexpected status 302 from {re.escape(base)}/api/mf_newforms/$"):
            client.fetch_orbit_dims(31)
        with pytest.raises(BlockingIOError):  # nothing to accept: no connection was made
            listener.accept()
    assert len(opened) == len(asked) == 1


def test_redirect_to_http_is_followed(loopback, monkeypatch):
    base, asked = loopback([(302, "", {"Location": "/moved?level=i31"}), (200, '{"data": [{"dim": 5}]}', JSON)])
    opened = spy_opens(monkeypatch)
    client = OrbitDimClient(base_url=base, fixtures={}, sleep=lambda seconds: None)
    assert client.fetch_orbit_dims(31).dims == (5,)
    assert asked[1] == "/moved?level=i31"
    assert opened[1] == base + "/moved?level=i31"


def test_status_that_is_not_an_int_is_a_service_error():
    transport, calls = make_transport([(None, {}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda seconds: None)
    with pytest.raises(ServiceError, match="^unexpected status None from "):
        client.fetch_orbit_dims(77)
    assert len(calls) == 1


def test_annotate_table_scans_only_cells_up_to_p_max():
    transport, calls = make_transport([(200, {"data": []}, {})])
    client = OrbitDimClient(transport=transport, sleep=lambda s: None)
    witnesses = client.annotate_table(10, 2000, p_max=5)
    assert sorted(witnesses) == sorted((p, d) for d in range(1, 11) for p in (2, 3, 5) if p <= 2 * d + 1)
    assert len(calls) == 1762
    calls.clear()
    assert len(client.annotate_table(10, 2000)) == 53
    assert len(calls) == 4848


def test_annotate_table_refuses_a_grid_past_the_limit_before_any_request():
    # p_max defaults to 2 d_max + 1: 1,800 rows by the 503 primes up to 3,601
    transport, calls = make_transport([(200, {"data": []}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    message = f"a grid of 1800 rows by 503 primes has more than {GRID_LIMIT} cells"
    with pytest.raises(ValueError, match=f"^{message}$"):
        client.annotate_table(1800, 10000)
    assert calls == []


def test_annotate_table_refuses_p_max_below_2(offline_client):
    with pytest.raises(ValueError, match=r"^expected p_max >= 2, got 1$"):
        offline_client.annotate_table(3, 100, p_max=1)


# -- checked entry points, unchecked resolver --------------------------------------


@pytest.mark.parametrize(
    "level, message",
    [
        (243.0, "level 243.0 is not an integer"),
        (True, "level True is not an integer"),
        ("243", "level '243' is not an integer"),
        (0, "expected level >= 1, got 0"),
    ],
)
def test_fetch_rejects_a_level_that_is_not_a_positive_int(offline_client, level, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        offline_client.fetch_orbit_dims(level)


def test_float_level_sends_no_request_and_stores_nothing(tmp_path):
    transport, calls = make_transport([(200, {"data": [{"dim": 1}]}, {})])
    path = tmp_path / "cache.jsonl"
    client = OrbitDimClient(cache=OrbitDimCache(path), fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(ValueError, match=r"^level 11.0 is not an integer$"):
        client.fetch_orbit_dims(11.0)
    assert calls == [] and not path.exists()


@pytest.mark.parametrize("budget", [100.0, True])
def test_scan_rejects_a_budget_that_is_not_an_int(offline_client, budget):
    with pytest.raises(ValueError, match=rf"^level_budget {budget!r} is not an integer$"):
        offline_client.sharpness_scan(5, 1, budget)


@pytest.mark.parametrize("budget", [0, -1])
def test_scan_rejects_a_budget_below_1(offline_client, budget):
    with pytest.raises(ValueError, match=rf"^expected level_budget >= 1, got {budget}$"):
        offline_client.sharpness_scan(5, 1, budget)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((True, 100), {}, "d_max True is not an integer"),
        ((2.0, 100), {}, "d_max 2.0 is not an integer"),
        ((0, 100), {}, "expected d_max >= 1, got 0"),
        ((2, 100.0), {}, "level_budget 100.0 is not an integer"),
        ((2, 100), {"p_max": 5.0}, "p_max 5.0 is not an integer"),
        ((2, 100), {"p_max": True}, "p_max True is not an integer"),
        ((2, 0), {}, "expected level_budget >= 1, got 0"),
    ],
)
def test_annotate_table_rejects_what_is_not_an_int(offline_client, args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        offline_client.annotate_table(*args, **kwargs)


# The scan resolves levels without fetch_orbit_dims; this reference walks the
# same levels through it, as the scan did before, to pin the two together.


def reference_scan(client, p, d, budget, strict=False):
    cap = b0_bound(p, d)
    for exponent, status in ((cap, "sharp"), (cap - 1, "almost_sharp")):
        base = p**exponent
        for m in range(1, budget // base + 1):
            if m % p == 0:
                continue
            try:
                result = client.fetch_orbit_dims(base * m)
            except NetworkUnavailable:
                if strict:
                    raise
                continue
            if d in result.dims:
                return SharpnessWitness(p=p, d=d, exponent_attained=exponent, level=base * m, status=status)
    return SharpnessWitness(p=p, d=d, exponent_attained=None, level=None, status="none_found")


def reference_table(client, d_max, budget, strict=False):
    return {
        (p, d): reference_scan(client, p, d, budget, strict=strict)
        for d in range(1, d_max + 1)
        for p in primes_up_to(2 * d + 1)
    }


def level_dims(level):
    return [1 + level % 5, 1 + level % 9]


def level_transport(calls):
    """A fake service answering level_dims at every level; the first request at
    every 7th level gets a 503 with a Retry-After, at every other 5th a bare 429."""
    attempts: dict[int, int] = {}

    def transport(url, params, timeout):
        calls.append((url, dict(params)))
        level = int(params["level"][1:])
        attempts[level] = attempts.get(level, 0) + 1
        if attempts[level] == 1 and level % 7 == 0:
            return 503, "busy", {"Retry-After": "0.25"}
        if attempts[level] == 1 and level % 5 == 0:
            return 429, "slow down", {}
        return 200, {"data": [{"dim": dim} for dim in level_dims(level)]}, {}

    return transport


SCAN_CASES = {
    "no cache": dict(cached=False, offline=False, strict=False),
    "fresh cache": dict(cached=True, offline=False, strict=False),
    "offline with skipped levels": dict(cached=True, offline=True, strict=False),
    "offline strict": dict(cached=True, offline=True, strict=True),
}


@pytest.mark.parametrize("case", SCAN_CASES.values(), ids=SCAN_CASES)
def test_annotate_table_matches_a_scan_through_fetch_orbit_dims(tmp_path, monkeypatch, caplog, case):
    monkeypatch.setattr(time, "time", lambda: 1_767_225_600.5)  # one stamp for both runs' cache lines
    caplog.set_level(logging.INFO, logger="rmbounds.lmfdb")
    runs = []
    for name, scan in (("reference", reference_table), ("resolver", OrbitDimClient.annotate_table)):
        calls, sleeps, cache = [], [], None
        if case["cached"]:
            cache = OrbitDimCache(tmp_path / f"{name}.jsonl")
            if case["offline"]:  # the offline store answers levels up to 300 only
                for level in range(1, 301):
                    cache.put(level, level_dims(level))
        client = OrbitDimClient(
            cache=cache, offline=case["offline"], transport=level_transport(calls),
            sleep=sleeps.append, clock=itertools.count().__next__,  # a second per call: no rate-limit waits
        )
        caplog.clear()
        try:
            outcome = scan(client, 4, 600, strict=case["strict"])
        except NetworkUnavailable as exc:
            outcome = repr(exc)
        text = cache.path.read_bytes() if cache else None
        runs.append((outcome, calls, sleeps, text))
    assert runs[1] == runs[0]
    outcome, calls, sleeps, _ = runs[1]
    if case["strict"]:
        assert outcome.startswith("NetworkUnavailable(")
    else:
        assert {witness.status for witness in outcome.values()} == {"sharp", "almost_sharp", "none_found"}
    if case["offline"]:
        assert calls == []
        assert case["strict"] or "unavailable offline" in caplog.text
    else:  # both retry branches ran: a Retry-After hint, and the exponential backoff
        assert sorted(set(sleeps)) == [0.25, lmfdb.MIN_INTERVAL]


# -- stamps ---------------------------------------------------------------------------


def test_stamp_changes_exactly_at_each_second(monkeypatch):
    start = 1_767_225_598
    times = [start + 0.5, start + 0.999999, start + 1, start + 1.25, start + 1.999999, start + 2, start + 2, start + 3.5]
    now = [0.0]
    monkeypatch.setattr(time, "time", lambda: now[0])
    stamps = []
    for now[0] in times:
        stamps.append(lmfdb._utcnow_iso())
        assert stamps[-1] == time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(now[0]))
    changed = [a != b for a, b in zip(stamps, stamps[1:])]
    assert changed == [int(a) != int(b) for a, b in zip(times, times[1:])]
    assert stamps[2] == "2025-12-31T23:59:59Z" and stamps[5] == "2026-01-01T00:00:00Z"


def test_stamped_cache_line_is_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1_767_225_600.75)
    expected = b'{"level": 100, "weight": 2, "char_trivial": true, "dims": [1, 3], "fetched_at": "2026-01-01T00:00:00Z"}\n'
    given, stamped = OrbitDimCache(tmp_path / "given.jsonl"), OrbitDimCache(tmp_path / "stamped.jsonl")
    given.put(100, [3, 1], fetched_at="2026-01-01T00:00:00Z")
    stamped.put(100, [3, 1])
    assert given.path.read_bytes() == stamped.path.read_bytes() == expected
    transport, _ = make_transport([(200, {"data": [{"dim": 3}, {"dim": 1}]}, {})])
    fetched = OrbitDimCache(tmp_path / "fetched.jsonl")
    OrbitDimClient(cache=fetched, fixtures={}, transport=transport, sleep=lambda s: None).fetch_orbit_dims(100)
    assert fetched.path.read_bytes() == expected


def test_a_scan_into_a_cache_writes_the_bytes_put_writes(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1_767_225_600.5)
    scanned = OrbitDimCache(tmp_path / "scanned.jsonl")
    client = OrbitDimClient(
        cache=scanned, fixtures={}, transport=level_transport([]), sleep=lambda s: None, clock=itertools.count().__next__
    )
    client.annotate_table(3, 400)
    scanned.close()
    levels = [json.loads(line)["level"] for line in scanned.path.read_text().splitlines()]
    assert len(levels) == len(set(levels)) > 10
    put = OrbitDimCache(tmp_path / "put.jsonl")
    for level in levels:
        put.put(level, level_dims(level))  # in the service's order, as the scan got them
    put.close()
    assert put.path.read_bytes() == scanned.path.read_bytes()
    assert {level: scanned.get(level) for level in levels} == {level: put.get(level) for level in levels}


def test_a_scan_appends_network_answers_without_checking_them_again(tmp_path, monkeypatch):
    checked = []
    check = lmfdb._check_record
    monkeypatch.setattr(lmfdb, "_check_record", lambda obj, where: checked.append(obj) or check(obj, where))
    transport, calls = make_transport([(200, {"data": [{"dim": 2}, {"dim": 1}]}, {})])
    cache = OrbitDimCache(tmp_path / "cache.jsonl")
    client = OrbitDimClient(cache=cache, fixtures={}, transport=transport, sleep=lambda s: None)
    client.sharpness_scan(5, 3, 400)
    assert len(calls) > 10 and checked == []  # _fetch_from_network checked each dim
    assert len(OrbitDimCache(cache.path)._records) == len(calls) == len(checked)  # the load checks each line once


def test_only_fetch_orbit_dims_stamps_an_uncached_answer(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1_767_225_600.5)
    stamps, stamp = [], lmfdb._utcnow_iso
    monkeypatch.setattr(lmfdb, "_utcnow_iso", lambda: stamps.append(None) or stamp())
    transport, calls = make_transport([(200, {"data": [{"dim": 2}]}, {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    client.annotate_table(2, 2000)  # a scan keeps only the dims
    assert calls and stamps == []
    assert client.fetch_orbit_dims(7).fetched_at == "2026-01-01T00:00:00Z"
    assert len(stamps) == 1
    cache = OrbitDimCache(tmp_path / "scan.jsonl")
    OrbitDimClient(cache=cache, fixtures={}, transport=transport, sleep=lambda s: None).annotate_table(2, 2000)
    records = [json.loads(line) for line in cache.path.read_text().splitlines()]
    assert len(stamps) == 1 + len(records) > 1  # one stamp per record put, none after
    assert {record["fetched_at"] for record in records} == {"2026-01-01T00:00:00Z"}


def test_scan_exponent_is_exact(offline_client):
    # 19683 = 3^9 must not witness (3, 9) at a lower target exponent budgeted out
    witness = offline_client.sharpness_scan(3, 9, 19682)
    assert witness.status == "none_found"


def test_fixture_store_contents():
    store = load_fixture_store()
    assert set(PAPER_LEVELS) <= set(store)
    assert store[243]["dims"] == [1, 1, 2, 2, 3, 3]


def test_witness_json_round_trip(offline_client):
    table = offline_client.annotate_table(10, 20000)  # the whole d <= 10 grid: every status occurs
    assert {w.status for w in table.values()} == {"sharp", "almost_sharp", "none_found"}
    for (p, d), witness in table.items():
        assert (witness.p, witness.d) == (p, d)
        assert SharpnessWitness.at_level(p, d, witness.level) == witness


# (p, d, level, message): at_level checks p, then the level, then d.
AT_LEVEL_FAULTS = [
    (4, 2, None, "4 is not prime"),
    (4, 2, 16, "4 is not prime"),
    (2.0, 2, None, "prime 2.0 is not an integer"),
    (2, 2, 0, "valuation of 0 is undefined; need n >= 1"),
    (2, 2, 2.0, "n 2.0 is not an integer"),
    (2, 0, None, "expected dimension >= 1, got 0"),
    (2, 0, 512, "expected dimension >= 1, got 0"),
    (3, 9, 3**7, "v_3(2187) = 7 attains neither B0(3,9) = 9 nor 8"),
]


@pytest.mark.parametrize("p, d, level, message", AT_LEVEL_FAULTS)
def test_at_level_messages(p, d, level, message):
    with pytest.raises(ValueError) as info:
        SharpnessWitness.at_level(p, d, level)
    assert str(info.value) == message


def test_scan_checks_each_cell_once(monkeypatch, offline_client):
    checked = []
    monkeypatch.setattr(lmfdb, "require_prime", lambda p: checked.append(p) or p)
    monkeypatch.setattr(lmfdb, "valuation", None)  # a checked valuation per witness would fail here
    table = offline_client.annotate_table(10, 20000)
    assert {w.status for w in table.values()} == {"sharp", "almost_sharp", "none_found"}
    assert sorted(checked) == sorted(p for p, _ in table)
