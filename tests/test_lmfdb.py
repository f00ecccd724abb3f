from __future__ import annotations

import gc
import json
import re
import threading
import time
import warnings
from pathlib import Path

import pytest

from rmbounds import lmfdb
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
        ("char_trivial", False), ("char_trivial", 1), ("fetched_at", None),
    ],
)
def test_cache_rejects_records_of_another_query(tmp_path, key, value):
    path = tmp_path / "cache.jsonl"
    good = {"level": 78, "weight": 2, "char_trivial": True, "dims": [1], "fetched_at": "x"}
    path.write_text("".join(json.dumps(record) + "\n" for record in (good, {**good, key: value})))
    with pytest.raises(ValueError, match=f":2: '{key}' must be "):
        OrbitDimCache(path)


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
    transport, calls = make_transport([(500, "boom", {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(ServiceError):
        client.fetch_orbit_dims(31)
    assert len(calls) == lmfdb.MAX_RETRIES + 1


def test_non_retryable_status_is_service_error():
    transport, calls = make_transport([(404, "nope", {})])
    client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
    with pytest.raises(ServiceError):
        client.fetch_orbit_dims(31)
    assert len(calls) == 1


def test_malformed_payloads():
    for body in ("not json", {"rows": []}, {"data": "nope"}, {"data": [{"dim": "x"}]}, {"data": [{}]}):
        transport, _ = make_transport([(200, body, {})])
        client = OrbitDimClient(fixtures={}, transport=transport, sleep=lambda s: None)
        with pytest.raises(MalformedResponse):
            client.fetch_orbit_dims(31)


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


def refuse_connections(monkeypatch):
    """Make every requests.get raise ConnectionError, so no request leaves the process; returns the URLs tried."""
    import requests

    tried = []

    def get(url, params=None, timeout=None):
        tried.append(url)
        raise requests.ConnectionError("connection refused")

    monkeypatch.setattr(requests, "get", get)
    return tried


def test_failed_request_is_not_an_offline_miss(monkeypatch):
    tried = refuse_connections(monkeypatch)
    client = OrbitDimClient(fixtures={}, sleep=lambda seconds: None)
    with pytest.raises(NetworkFailed) as info:
        client.sharpness_scan(2, 7, 16384)
    assert not isinstance(info.value, NetworkUnavailable)
    assert len(tried) == 1


def test_annotate_table_scans_only_cells_up_to_p_max():
    transport, calls = make_transport([(200, {"data": []}, {})])
    client = OrbitDimClient(transport=transport, sleep=lambda s: None)
    witnesses = client.annotate_table(10, 2000, p_max=5)
    assert sorted(witnesses) == sorted((p, d) for d in range(1, 11) for p in (2, 3, 5) if p <= 2 * d + 1)
    assert len(calls) == 1762
    calls.clear()
    assert len(client.annotate_table(10, 2000)) == 53
    assert len(calls) == 4848


def test_scan_exponent_is_exact(offline_client):
    # 19683 = 3^9 must not witness (3, 9) at a lower target exponent budgeted out
    witness = offline_client.sharpness_scan(3, 9, 19682)
    assert witness.status == "none_found"


def test_fixture_store_contents():
    store = load_fixture_store()
    assert set(PAPER_LEVELS) <= set(store)
    assert store[243]["dims"] == [1, 1, 2, 2, 3, 3]


def test_witness_json_round_trip(offline_client):
    witness = offline_client.sharpness_scan(2, 7, 16384)
    assert SharpnessWitness.from_json_dict(witness.to_json_dict()) == witness
