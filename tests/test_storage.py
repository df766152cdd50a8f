import os
import sqlite3
import subprocess
import sys
import textwrap
import threading

import pytest

from senselink import codec, sim, storage
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
    assert store.lookup_session_key(sid) == bytes(16)  # key replaced
    assert store.upsert_session("a" * 32, TS + 1, KEY) == 2
    assert store.upsert_session("b" * 32, TS, KEY) == 3


def test_lookup_session_key(store):
    sid = store.upsert_session("c" * 32, TS, KEY, identifiers={"hw": "rev-a"})
    assert store.lookup_session_key(sid) == KEY
    assert store.lookup_session_key(999) is None
    # the stored identity: the same (hash, time) names the same session
    assert store.upsert_session("c" * 32, TS, bytes(16)) == sid
    assert store.upsert_session("e" * 32, TS, KEY) != sid
    assert store.upsert_session("c" * 32, TS + 1, KEY) != sid


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


def _chunk_batch(n: int) -> dict[str, list[dict]]:
    """n rows each of gps, accel, gyro, wifi named by (mac, essid) and
    pressure; every 11th row from the 5th on repeats the natural key of the
    row two before it with other values, so the first one must win."""
    def key(i):
        return TS + (i - 2 if i % 11 == 5 else i)

    return {
        "gps": [{"ts": key(i), "ms": 7, "lat": 41.0 + i, "lon": -8.0, "alt": 90.5,
                 "speed": 1.0, "accuracy": 5.0, "device_ts": TS + i} for i in range(n)],
        "accel": [{"ts": key(i), "rate": 5.0, "samples": [[i, -i, 1000]]} for i in range(n)],
        "gyro": [{"ts": key(i), "rate": 1.0, "samples": [[1, 2, i]]} for i in range(n)],
        # a new pair every few rows, and pairs seen before in between
        "wifi": [{"ts": key(i), "ms": 1, "mac": f"m{i * 7 % 13}", "essid": f"e{i % 3}",
                  "rssi": -40 - i % 50} for i in range(n)],
        "pressure": [{"ts": key(i), "hpa": 1000.0 + i} for i in range(n)],
    }


def _write_one_row_per_statement(path: str, sid: int, batch: dict):
    """The reference writer: each row checked alone and stored by its own
    positional INSERT, wifi pairs interned as their rows come."""
    db = sqlite3.connect(path)
    try:
        for stream, rows in codec.write_order(batch):
            spec = codec.STREAM_SPECS[stream]
            for row in rows:
                values = list(spec.row_params(row))
                if stream == "wifi":
                    db.execute("INSERT OR IGNORE INTO access_points(mac, essid) VALUES(?, ?)",
                               values[3])
                    values[3] = db.execute("SELECT ap_id FROM access_points "
                                           "WHERE mac=? AND essid=?", values[3]).fetchone()[0]
                head = (sid, stream) if stream in codec.MOTION_STREAMS else (sid,)
                params = head + tuple(values)
                db.execute(f"INSERT OR IGNORE INTO {spec.table} "
                           f"VALUES({', '.join('?' * len(params))})", params)
        db.commit()
    finally:
        db.close()


def _tables(path: str) -> dict[str, list[tuple]]:
    db = sqlite3.connect(path)
    try:
        return {t: db.execute(f"SELECT rowid, * FROM {t} ORDER BY rowid").fetchall()
                for t in ("gps_rows", "motion_rows", "wifi_rows", "pressure_rows",
                          "access_points")}
    finally:
        db.close()


@pytest.mark.parametrize("chunks, extra", [(0, 1), (1, -1), (1, 0), (1, 1), (2, 3)],
                         ids=["1", "R-1", "R", "R+1", "2R+3"])
def test_chunked_insert_matches_one_row_per_statement(tmp_path, chunks, extra):
    r = storage._ROWS_PER_INSERT
    n = chunks * r + extra
    batch, later = _chunk_batch(n), _chunk_batch(n + 5)  # later: its first n rows replay
    ref = storage.SqliteStorage(str(tmp_path / "ref.db"))
    sid = new_session(ref)
    ref.close()
    for written in (batch, batch, later):
        _write_one_row_per_statement(str(tmp_path / "ref.db"), sid, written)

    st = storage.SqliteStorage(str(tmp_path / "t.db"))
    assert new_session(st) == sid
    statements = []
    st._db.set_trace_callback(statements.append)
    assert st.write_rows(sid, batch) == 5 * n
    # each full chunk is one statement, each row left over one more
    assert sum(s.startswith("INSERT OR IGNORE INTO pressure_rows") for s in statements) \
        == n // r + n % r
    assert st.write_rows(sid, batch) == 5 * n
    assert st.write_rows(sid, later) == 5 * (n + 5)
    st.close()
    assert _tables(str(tmp_path / "t.db")) == _tables(str(tmp_path / "ref.db"))


def test_no_multi_row_insert_binds_more_than_999_parameters(tmp_path):
    """999 is the default limit of SQLite builds before 3.32, which Python
    3.10 may still link."""
    r = storage._ROWS_PER_INSERT
    for one, chunk in storage._INSERTS.values():
        assert chunk.count("?") == r * one.count("?") <= 999
    if not hasattr(sqlite3, "SQLITE_LIMIT_VARIABLE_NUMBER"):  # Python 3.10
        return
    st = storage.SqliteStorage(str(tmp_path / "t.db"))
    st._db.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
    cfg = sim.WorkloadConfig(duration_s=2 * r, gyro_hz=1, mag_hz=1, obd_hz=1,
                             bt_scan_period_s=1.0, pressure_period_s=1.0, event_period_s=1.0)
    batch = sim.generate_session(cfg)
    assert set(batch) == set(codec.STREAM_SPECS)
    assert min(map(len, batch.values())) >= r
    sid = new_session(st)
    assert st.write_rows(sid, batch) == st.storage_stats()["total_rows"] \
        == codec.batch_row_count(batch)
    st.close()


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
    ], "gyro": [{"ts": TS, "rate": 1.0, "samples": [[1, 2, 3]]}]}
    store.write_rows(sid, rows)
    back = store.read_session_rows(sid)
    assert sorted(back) == ["gyro", "obd"]  # motion streams share a table
    assert [(r["ts"], r["ms"], r.get("idx", 0)) for r in back["obd"]] == [
        (TS, 0, 0), (TS, 0, 1), (TS, 500, 0), (TS + 1, 0, 0)]


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


def test_write_rows_interns_each_pair_once(store):
    sid = new_session(store)
    row = {"ts": TS, "mac": "mac1", "essid": "net", "rssi": -50}
    store.write_rows(sid, {"wifi": [row, dict(row, ts=TS + 1)]})
    store.write_rows(sid, {"wifi": [dict(row, ts=TS + 2), dict(row, ts=TS + 3, essid="other")]})
    back = store.read_session_rows(sid)["wifi"]
    assert [(r["ap_id"], r["essid"]) for r in back] == [(1, "net")] * 3 + [(2, "other")]
    assert store.storage_stats()["access_points"] == 2


def test_concurrent_interning_single_id(store):
    # each thread writes its own session's rows, all naming one new pair
    sids = [new_session(store, tag) for tag in "abcd"]
    row = {"mac": "aa:bb", "essid": "shared", "rssi": -50}

    def worker(sid):
        for i in range(25):
            store.write_rows(sid, {"wifi": [dict(row, ts=TS + i)]})

    threads = [threading.Thread(target=worker, args=(sid,)) for sid in sids]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert store.storage_stats()["access_points"] == 1
    for sid in sids:
        back = store.read_session_rows(sid)["wifi"]
        assert len(back) == 25
        assert {(r["ap_id"], r["mac"], r["essid"]) for r in back} == {(1, "aa:bb", "shared")}


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
    # write_rows checks every row before it begins, so only the database can
    # fail a write once m1 is interned: a trigger refuses rows with rssi -1
    db = sqlite3.connect(path)
    db.execute("CREATE TRIGGER refuse BEFORE INSERT ON wifi_rows WHEN NEW.rssi = -1 "
               "BEGIN SELECT RAISE(ABORT, 'refused'); END")
    db.close()
    with pytest.raises(storage.StorageError) as failed:  # the write rolls back
        st.write_rows(sid, {"wifi": [{"ts": TS, "rssi": -50, "mac": "m1", "essid": "one"},
                                     {"ts": TS + 9, "rssi": -1, "mac": "m1", "essid": "one"}]})
    assert isinstance(failed.value.__cause__, sqlite3.IntegrityError)
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


def test_sqlite_ap_cache_forgets_ids_a_rollback_inside_a_chunk_gave_back(tmp_path):
    """As above, with the refused row inside the first multi-row INSERT and
    rows of another stream stored before it in the same transaction."""
    r = storage._ROWS_PER_INSERT
    path = str(tmp_path / "t.db")
    st = storage.SqliteStorage(path)
    sid = new_session(st)
    db = sqlite3.connect(path)
    db.execute("CREATE TRIGGER refuse BEFORE INSERT ON wifi_rows WHEN NEW.rssi = -1 "
               "BEGIN SELECT RAISE(ABORT, 'refused'); END")
    db.close()
    wifi = [{"ts": TS + i, "rssi": -50, "mac": f"m{i}", "essid": "one"} for i in range(r + 5)]
    wifi[10]["rssi"] = -1
    with pytest.raises(storage.StorageError) as failed:
        st.write_rows(sid, {"wifi": wifi, **pressure_rows(r + 1)})
    assert isinstance(failed.value.__cause__, sqlite3.IntegrityError)
    assert st.storage_stats()["total_rows"] == st.storage_stats()["access_points"] == 0
    st.write_rows(sid, {"wifi": [{"ts": TS + 1, "rssi": -60, "mac": "n1", "essid": "two"}]})
    st.write_rows(sid, {"wifi": [{"ts": TS + 2, "rssi": -70, "mac": "m0", "essid": "one"}]})
    rows = st.read_session_rows(sid)["wifi"]
    assert [(r["ts"], r["ap_id"], r["mac"]) for r in rows] == [(TS + 1, 1, "n1"), (TS + 2, 2, "m0")]
    st.close()
    db = sqlite3.connect(path)
    try:
        orphans = db.execute("SELECT COUNT(*) FROM wifi_rows WHERE ap_id NOT IN "
                             "(SELECT ap_id FROM access_points)").fetchone()[0]
    finally:
        db.close()
    assert orphans == 0


def test_storages_over_one_file_intern_alike_after_a_rollback(tmp_path):
    """A write of one storage object rolls back after interning a pair;
    then both objects over the file write that pair and a new one."""
    path = str(tmp_path / "t.db")
    first, second = storage.SqliteStorage(path), storage.SqliteStorage(path)
    try:
        sids = [new_session(first, "a"), new_session(second, "b")]
        db = sqlite3.connect(path)
        db.execute("CREATE TRIGGER refuse BEFORE INSERT ON wifi_rows WHEN NEW.rssi = -1 "
                   "BEGIN SELECT RAISE(ABORT, 'refused'); END")
        db.close()
        with pytest.raises(storage.StorageError):
            first.write_rows(sids[0], {"wifi": [
                {"ts": TS, "rssi": -50, "mac": "m1", "essid": "one"},
                {"ts": TS + 9, "rssi": -1, "mac": "m1", "essid": "one"}]})
        written = {}
        for st, sid, new in ((second, sids[1], "m2"), (first, sids[0], "m3")):
            written[sid] = [("m1", "one"), (new, "two")]
            st.write_rows(sid, {"wifi": [
                {"ts": TS + i, "rssi": -60, "mac": mac, "essid": essid}
                for i, (mac, essid) in enumerate(written[sid])]})
        ap_ids = {}
        for st in (first, second):
            for sid in sids:
                back = st.read_session_rows(sid)["wifi"]
                assert [(r["mac"], r["essid"]) for r in back] == written[sid]
                for r in back:
                    assert ap_ids.setdefault((r["mac"], r["essid"]), r["ap_id"]) == r["ap_id"]
        assert sorted(ap_ids.values()) == [1, 2, 3]
        assert first.storage_stats()["access_points"] == 3
    finally:
        first.close()
        second.close()
    db = sqlite3.connect(path)
    try:
        orphans = db.execute("SELECT COUNT(*) FROM wifi_rows WHERE ap_id NOT IN "
                             "(SELECT ap_id FROM access_points)").fetchone()[0]
    finally:
        db.close()
    assert orphans == 0


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
        assert st.lookup_session_key(1) == bytes(16)
        assert st.upsert_session("a" * 32, TS, bytes(16)) == 1  # the same identity
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
