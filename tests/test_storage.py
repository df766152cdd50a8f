import os
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest

from senselink import codec, storage
from test_properties import logical_row_bytes  # the cost function of the dict model

TS = 1_400_000_000
KEY = bytes(range(16))


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":  # in-memory SQLite: the simulator's and ServerConfig's default
        st = storage.open_storage("memory")
    else:
        st = storage.SqliteStorage(str(tmp_path / "t.db"))
    yield st
    st.close()


def new_session(st, email_tag="a", start=TS, key=KEY):
    return st.upsert_session(f"{email_tag:0>32}", start, key)


def pressure_rows(n, base_ts=TS):
    return {"pressure": [{"ts": base_ts + i, "hpa": 1000.0 + i} for i in range(n)]}


# ---------------------------------------------------------------------------
# sessions


def test_upsert_is_idempotent_per_user_and_time(store):
    sid = store.upsert_session("a" * 32, TS, KEY)
    assert sid == 1
    assert store.upsert_session("a" * 32, TS, bytes(16)) == sid
    assert store.lookup_session_key(sid)[0] == bytes(16)  # key replaced
    assert store.upsert_session("a" * 32, TS + 1, KEY) == 2
    assert store.upsert_session("b" * 32, TS, KEY) == 3


def test_lookup_session_key(store):
    sid = store.upsert_session("c" * 32, TS, KEY, identifiers={"hw": "rev-a"})
    key, user_hash, start_time = store.lookup_session_key(sid)
    assert (key, user_hash, start_time) == (KEY, "c" * 32, TS)
    assert store.lookup_session_key(999) is None


def test_concurrent_upserts_yield_distinct_ids(store):
    ids = [[] for _ in range(4)]

    def worker(slot):
        for i in range(250):
            ids[slot].append(store.upsert_session("d" * 32, TS + slot * 1000 + i, KEY))

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    flat = [sid for chunk in ids for sid in chunk]
    assert len(set(flat)) == 1000
    assert set(flat) == set(range(1, 1001))


def test_concurrent_upserts_same_session_share_id(store):
    results = []

    def worker():
        for _ in range(100):
            results.append(store.upsert_session("e" * 32, TS, KEY))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert set(results) == {1}


# ---------------------------------------------------------------------------
# row writes


def test_write_rows_counts_and_idempotency(store):
    sid = new_session(store)
    rows = pressure_rows(120)
    assert store.write_rows(sid, rows) == 120
    assert store.storage_stats()["rows"]["pressure"] == 120
    # full replay: every row acked again, table unchanged
    assert store.write_rows(sid, rows) == 120
    assert store.storage_stats()["rows"]["pressure"] == 120
    # 20 overlapping + 20 new
    mixed = pressure_rows(40, base_ts=TS + 100)
    assert store.write_rows(sid, mixed) == 40
    assert store.storage_stats()["rows"]["pressure"] == 140


def test_write_rows_unknown_session(store):
    with pytest.raises(storage.UnknownSessionId):
        store.write_rows(77, pressure_rows(1))


def test_rows_isolated_between_sessions(store):
    sid_a = new_session(store, "a")
    sid_b = new_session(store, "b")
    store.write_rows(sid_a, pressure_rows(5))
    store.write_rows(sid_b, pressure_rows(3, base_ts=TS + 50))
    assert len(store.read_session_rows(sid_a)["pressure"]) == 5
    assert len(store.read_session_rows(sid_b)["pressure"]) == 3


def test_read_back_equals_written(store):
    sid = new_session(store)
    streams = {
        "gps": [{"ts": TS, "ms": 120, "lat": 48.85, "lon": 2.29, "alt": 35.0,
                 "speed": 1.0, "accuracy": 4.0, "device_ts": TS - 1}],
        "bt": [{"ts": TS, "device_id": "mouse", "rssi": -40}],
        "obd": [{"ts": TS, "ms": 0, "pid": 12, "value": 870.5}],
        "events": [{"ts": TS, "kind": "marker", "detail": "lap 1"},
                   {"ts": TS, "idx": 1, "kind": "marker"}],
    }
    validated, _ = codec.validate_streams(streams)
    store.write_rows(sid, validated)
    back = store.read_session_rows(sid)
    assert back == validated


def test_read_ordering_and_filters(store):
    sid = new_session(store)
    rows = {"obd": [
        {"ts": TS + 1, "ms": 0, "pid": 13, "value": 55},
        {"ts": TS, "ms": 500, "pid": 12, "value": 900},
        {"ts": TS, "ms": 0, "pid": 12, "value": 880},
        {"ts": TS, "ms": 0, "idx": 1, "pid": 13, "value": 54},
    ]}
    store.write_rows(sid, rows)
    back = store.read_session_rows(sid)["obd"]
    assert [(r["ts"], r["ms"], r.get("idx", 0)) for r in back] == [
        (TS, 0, 0), (TS, 0, 1), (TS, 500, 0), (TS + 1, 0, 0)]
    ranged = store.read_session_rows(sid, streams=["obd"], start_ts=TS + 1, end_ts=TS + 2)
    assert len(ranged["obd"]) == 1
    assert store.read_session_rows(sid, streams=["gps"]) == {}


def test_rows_without_ms_sort_before_ms_zero(store):
    sid = new_session(store)
    store.write_rows(sid, {"pressure": [
        {"ts": TS, "ms": 0, "hpa": 2.0},
        {"ts": TS, "hpa": 1.0},
    ]})
    back = store.read_session_rows(sid)["pressure"]
    assert "ms" not in back[0] and back[0]["hpa"] == 1.0
    assert back[1]["ms"] == 0
    assert store.storage_stats()["rows"]["pressure"] == 2  # distinct keys


def test_motion_samples_roundtrip_exact(store):
    sid = new_session(store)
    samples = [[-32768, 32767, 0], [1, -1, 12345], [-12345, 11, -11]]
    store.write_rows(sid, {"accel": [{"ts": TS, "rate": 50, "samples": samples}],
                           "gyro": [{"ts": TS, "rate": 50, "samples": samples[:1]}]})
    back = store.read_session_rows(sid)
    assert back["accel"][0]["samples"] == samples
    assert back["accel"][0]["rate"] == 50
    assert back["gyro"][0]["samples"] == samples[:1]


# ---------------------------------------------------------------------------
# access point interning


def test_wifi_interning_shares_ids(store):
    sid = new_session(store)
    scans = {"wifi": [
        {"ts": TS, "mac": "aa:bb:cc:dd:ee:01", "essid": "cafe", "rssi": -50},
        {"ts": TS + 2, "mac": "aa:bb:cc:dd:ee:01", "essid": "cafe", "rssi": -52},
        {"ts": TS + 2, "idx": 1, "mac": "aa:bb:cc:dd:ee:01", "essid": "", "rssi": -52},
    ]}
    store.write_rows(sid, scans)
    stats = store.storage_stats()
    assert stats["access_points"] == 2  # hidden "" is a distinct identity
    back = store.read_session_rows(sid)["wifi"]
    assert back[0]["ap_id"] == back[1]["ap_id"]
    assert back[0]["mac"] == "aa:bb:cc:dd:ee:01" and back[0]["essid"] == "cafe"
    assert back[2]["ap_id"] != back[0]["ap_id"]


def test_intern_auxiliary_idempotent(store):
    a = store.intern_auxiliary("mac1", "net")
    assert store.intern_auxiliary("mac1", "net") == a
    assert store.intern_auxiliary("mac1", "other") != a


def test_concurrent_interning_single_id(store):
    out = [[] for _ in range(4)]

    def worker(slot):
        for _ in range(100):
            out[slot].append(store.intern_auxiliary("aa:bb", "shared"))

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({i for chunk in out for i in chunk}) == 1


def test_ap_ids_shared_across_sessions(store):
    sid_a = new_session(store, "a")
    sid_b = new_session(store, "b")
    row = {"ts": TS, "mac": "aa:bb:cc:dd:ee:99", "essid": "shared", "rssi": -60}
    store.write_rows(sid_a, {"wifi": [row]})
    store.write_rows(sid_b, {"wifi": [dict(row, ts=TS + 5)]})
    id_a = store.read_session_rows(sid_a)["wifi"][0]["ap_id"]
    id_b = store.read_session_rows(sid_b)["wifi"][0]["ap_id"]
    assert id_a == id_b
    assert store.storage_stats()["access_points"] == 1


# ---------------------------------------------------------------------------
# accounting


def test_sqlite_ap_cache_forgets_ids_a_rollback_gave_back(tmp_path):
    """SQLite hands the ap_id of a rolled-back access point to the next new
    one, so an id remembered from a failed write must not be reused."""
    path = str(tmp_path / "t.db")
    st = storage.SqliteStorage(path)
    sid = new_session(st)
    with pytest.raises(OverflowError):  # ts beyond SQLite's 64 bits: the write rolls back
        st.write_rows(sid, {"wifi": [{"ts": TS, "rssi": -50, "mac": "m1", "essid": "one"},
                                     {"ts": 2 ** 63, "rssi": -50, "mac": "m1", "essid": "one"}]})
    st.write_rows(sid, {"wifi": [{"ts": TS + 1, "rssi": -60, "mac": "m2", "essid": "two"}]})
    st.write_rows(sid, {"wifi": [{"ts": TS + 2, "rssi": -70, "mac": "m1", "essid": "one"}]})
    rows = st.read_session_rows(sid)["wifi"]
    assert [(r["ts"], r["mac"], r["essid"]) for r in rows] == [
        (TS + 1, "m2", "two"), (TS + 2, "m1", "one")]
    st.close()
    db = sqlite3.connect(path)
    try:
        orphans = db.execute("SELECT COUNT(*) FROM wifi_rows WHERE ap_id NOT IN "
                             "(SELECT ap_id FROM access_points)").fetchone()[0]
    finally:
        db.close()
    assert orphans == 0


def test_sqlite_ap_cache_stays_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(storage, "_AP_CACHE_LIMIT", 3)
    st = storage.SqliteStorage(str(tmp_path / "t.db"))
    pairs = [(f"m{i}", "net") for i in range(10)]
    ids = [st.intern_auxiliary(*pair) for pair in pairs]
    assert len(st._ap_ids) <= 3
    assert [st.intern_auxiliary(*pair) for pair in pairs] == ids == list(range(1, 11))
    st.close()


def test_logical_row_bytes_constants():
    assert logical_row_bytes("gps", {}) == 47
    assert logical_row_bytes("wifi", {}) == 17
    assert logical_row_bytes("bt", {}) == 16
    assert logical_row_bytes("pressure", {}) == 12
    assert logical_row_bytes("obd", {}) == 14
    assert logical_row_bytes("accel", {"samples": [[1, 2, 3]] * 10}) == 8 + 60
    assert logical_row_bytes("events", {"kind": "marker", "detail": "x"}) == 8 + 6 + 1
    assert logical_row_bytes("events", {"kind": "marker"}) == 8 + 6


def test_stats_logical_bytes_match_hand_computation(store):
    sid = new_session(store)
    store.write_rows(sid, {
        "pressure": [{"ts": TS + i, "hpa": 1000.0} for i in range(10)],
        "accel": [{"ts": TS, "rate": 5, "samples": [[1, 2, 3]] * 5}],
        "events": [{"ts": TS, "kind": "go", "detail": "now"}],
    })
    stats = store.storage_stats()
    assert stats["logical_bytes"]["pressure"] == 10 * 12
    assert stats["logical_bytes"]["accel"] == 8 + 6 * 5
    assert stats["logical_bytes"]["events"] == 8 + 2 + 3
    assert stats["total_rows"] == 12
    assert stats["total_logical_bytes"] == 120 + 38 + 13


def test_stats_do_not_expose_user_identities(store):
    store.upsert_session("f" * 32, TS, KEY)
    stats = store.storage_stats()
    assert "f" * 32 not in repr(stats)
    assert "users" not in stats


# ---------------------------------------------------------------------------
# sqlite specifics


def test_sqlite_survives_process_kill(tmp_path):
    db = tmp_path / "durable.db"
    package_root = os.path.dirname(os.path.dirname(storage.__file__))
    script = textwrap.dedent(f"""
        import os, sys
        sys.path.insert(0, {package_root!r})  # the senselink under test
        from senselink import storage
        st = storage.SqliteStorage({str(db)!r})
        sid = st.upsert_session("a" * 32, {TS}, bytes(16))
        st.write_rows(sid, {{"pressure": [{{"ts": {TS} + i, "hpa": 1000.0}}
                                          for i in range(50)]}})
        print("committed", flush=True)
        os._exit(0)  # no close(), no checkpoint: simulates a crash
    """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and "committed" in proc.stdout, proc.stderr

    st = storage.SqliteStorage(str(db))
    try:
        rows = st.read_session_rows(1)
        assert len(rows["pressure"]) == 50
        key, user_hash, start_time = st.lookup_session_key(1)
        assert (key, user_hash, start_time) == (bytes(16), "a" * 32, TS)
    finally:
        st.close()


def test_sqlite_reopen_after_close(tmp_path):
    db = str(tmp_path / "reopen.db")
    st = storage.SqliteStorage(db)
    sid = st.upsert_session("b" * 32, TS, KEY)
    st.write_rows(sid, pressure_rows(7))
    st.flush()
    st.close()

    st2 = storage.SqliteStorage(db)
    try:
        assert st2.upsert_session("b" * 32, TS, KEY) == sid  # same natural key
        assert len(st2.read_session_rows(sid)["pressure"]) == 7
        assert st2.upsert_session("c" * 32, TS, KEY) == sid + 1  # counter persisted
    finally:
        st2.close()


def test_open_storage_selectors(tmp_path):
    st = storage.open_storage("memory")
    assert type(st) is storage.SqliteStorage  # not the MemoryStorage subclass
    st.close()

    path = str(tmp_path / "sel.db")
    st = storage.open_storage(f"sqlite:{path}")
    assert isinstance(st, storage.SqliteStorage)
    st.close()
    assert os.path.exists(path)

    st = storage.open_storage(str(tmp_path / "bare.db"))
    assert isinstance(st, storage.SqliteStorage)
    st.close()

    with pytest.raises(ValueError):
        storage.open_storage("")


# The on-disk format v1 as first released; SqliteStorage must keep creating
# exactly these tables and keep reading files made from them.
_SCHEMA_V1 = """
CREATE TABLE IF NOT EXISTS meta(
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS users(
    user_id INTEGER PRIMARY KEY,
    user_hash TEXT NOT NULL UNIQUE
);
CREATE TABLE IF NOT EXISTS sessions(
    session_id INTEGER PRIMARY KEY,
    user_id INTEGER NOT NULL,
    start_time INTEGER NOT NULL,
    key BLOB NOT NULL,
    version INTEGER NOT NULL,
    identifiers TEXT,
    created_at INTEGER NOT NULL,
    UNIQUE(user_id, start_time)
);
CREATE TABLE IF NOT EXISTS access_points(
    ap_id INTEGER PRIMARY KEY,
    mac TEXT NOT NULL,
    essid TEXT NOT NULL,
    UNIQUE(mac, essid)
);
CREATE TABLE IF NOT EXISTS gps_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    lat REAL NOT NULL, lon REAL NOT NULL, alt REAL NOT NULL,
    speed REAL NOT NULL, accuracy REAL NOT NULL, device_ts INTEGER NOT NULL,
    PRIMARY KEY(session_id, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS motion_rows(
    session_id INTEGER NOT NULL, stream TEXT NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    rate REAL NOT NULL, n INTEGER NOT NULL, samples BLOB NOT NULL,
    PRIMARY KEY(session_id, stream, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS wifi_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    ap_id INTEGER NOT NULL, rssi INTEGER NOT NULL,
    PRIMARY KEY(session_id, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS bt_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    device_id TEXT NOT NULL, rssi INTEGER NOT NULL,
    PRIMARY KEY(session_id, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS pressure_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    hpa REAL NOT NULL,
    PRIMARY KEY(session_id, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS obd_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    pid INTEGER NOT NULL, value REAL NOT NULL,
    PRIMARY KEY(session_id, ts, ms, idx)
);
CREATE TABLE IF NOT EXISTS event_rows(
    session_id INTEGER NOT NULL, ts INTEGER NOT NULL,
    ms INTEGER NOT NULL, idx INTEGER NOT NULL,
    kind TEXT NOT NULL, detail TEXT,
    PRIMARY KEY(session_id, ts, ms, idx)
);
"""


def _layout(db: sqlite3.Connection) -> dict:
    tables = [name for (name,) in db.execute(
        "SELECT name FROM sqlite_master WHERE type='table' ORDER BY name")]
    return {t: (db.execute(f"PRAGMA table_info({t})").fetchall(),
                [row[2:] for row in db.execute(f"PRAGMA index_list({t})")])
            for t in tables}


def test_fresh_database_has_the_v1_layout(tmp_path):
    storage.SqliteStorage(str(tmp_path / "new.db")).close()
    reference = sqlite3.connect(":memory:")
    reference.executescript(_SCHEMA_V1)
    fresh = sqlite3.connect(str(tmp_path / "new.db"))
    try:
        assert _layout(fresh) == _layout(reference)
        assert {spec.table for spec in codec.STREAM_SPECS.values()} < set(_layout(reference))
    finally:
        fresh.close()
        reference.close()


def test_v1_file_opens_and_round_trips(tmp_path):
    path = str(tmp_path / "v1.db")
    db = sqlite3.connect(path)
    db.executescript(_SCHEMA_V1)
    # rows laid out positionally, the way the v1 writer stored them
    db.executescript(f"""
        INSERT INTO meta VALUES('schema_version', '1'), ('next_session_id', '2');
        INSERT INTO users VALUES(1, '{"a" * 32}');
        INSERT INTO sessions VALUES(1, 1, {TS}, x'{KEY.hex()}', 1, NULL, {TS});
        INSERT INTO access_points VALUES(1, 'aa:bb', 'cafe');
        INSERT INTO gps_rows VALUES(1, {TS}, 5, 0, 1.5, 2.5, 3.5, 0.5, 4.0, {TS - 1});
        INSERT INTO motion_rows VALUES(1, 'gyro', {TS}, -1, 0, 50.0, 1, x'0100feff0300');
        INSERT INTO wifi_rows VALUES(1, {TS}, -1, 2, 1, -40);
        INSERT INTO bt_rows VALUES(1, {TS}, -1, 0, 'mouse', -70);
        INSERT INTO pressure_rows VALUES(1, {TS}, -1, 0, 1013.25);
        INSERT INTO obd_rows VALUES(1, {TS}, 0, 0, 12, 870.5);
        INSERT INTO event_rows VALUES(1, {TS}, 7, 0, 'lap', NULL);
    """)
    db.close()
    expected = {
        "gps": [{"ts": TS, "ms": 5, "lat": 1.5, "lon": 2.5, "alt": 3.5, "speed": 0.5,
                 "accuracy": 4.0, "device_ts": TS - 1}],
        "gyro": [{"ts": TS, "rate": 50.0, "samples": [[1, -2, 3]]}],
        "wifi": [{"ts": TS, "idx": 2, "ap_id": 1, "rssi": -40, "mac": "aa:bb", "essid": "cafe"}],
        "bt": [{"ts": TS, "device_id": "mouse", "rssi": -70}],
        "pressure": [{"ts": TS, "hpa": 1013.25}],
        "obd": [{"ts": TS, "ms": 0, "pid": 12, "value": 870.5}],
        "events": [{"ts": TS, "ms": 7, "kind": "lap"}],
    }
    st = storage.SqliteStorage(path)
    try:
        assert st.read_session_rows(1) == expected
        assert st.upsert_session("a" * 32, TS, KEY) == 1
        # written back through the current code, the file reads the same
        again = {s: [{k: v for k, v in row.items() if k not in ("mac", "essid")} for row in rows]
                 for s, rows in expected.items()}
        assert st.write_rows(1, again) == 7
        assert st.storage_stats()["total_rows"] == 7
        st.write_rows(st.upsert_session("b" * 32, TS, KEY), again)
        assert st.read_session_rows(2) == expected
    finally:
        st.close()
