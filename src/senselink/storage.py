"""Persistence: sessions, sensor rows, and interned access points, in SQLite.

:class:`SqliteStorage` keeps everything in one WAL-mode file, or in memory
for tests and simulations (``open_storage("memory")``). The stream table in
:mod:`senselink.codec` (``STREAM_SPECS``) defines each stream's fields, its
row table and columns, and its logical byte cost. ``write_rows`` takes rows
as they were received: ``StreamSpec.rows_params`` checks a stream's rows a
column at a time and returns their INSERT parameters (``row_params``, one
row at a time, for short lists and for any list it cannot check by column),
admitting only values SQLite holds (signed 64-bit integers, numbers that
read back as floats, valid UTF-8), and every row of a batch is checked
before its transaction begins, so a malformed row writes nothing. Schema
rules:

* every row is timestamped in unix seconds; asynchronous sensors add a
  milliseconds column (required where the stream table says so)
* the natural key (session_id, stream, ts, ms, idx) is unique, so replayed
  writes are idempotent and retransmission is safe
* a batch is written in :func:`senselink.codec.write_order`, the order a
  partial stored count refers to
* accel/gyro/mag rows pack one second of samples each, as 16-bit triplets
* wifi rows intern their (mac, essid) pair into a shared auxiliary table
  and store only the surrogate ap_id
* the users table is written only through the auth path (upsert_session)
  and is never exposed by row reads or stats
"""

from __future__ import annotations

import json
import sqlite3
import struct
import threading
import time

from . import codec
from .codec import MOTION_STREAMS, STREAM_SPECS, write_order

SCHEMA_VERSION = 1
_AP_CACHE_LIMIT = 100_000  # interned access points SqliteStorage remembers


class StorageError(Exception):
    pass


def _logical_bytes_sql(spec: codec.StreamSpec) -> str:
    """The SQL sum of a stream's logical row sizes (see codec.StreamSpec)."""
    terms = [f"{spec.row_bytes} * COUNT(*)"]
    if spec.sample_bytes:
        terms.append(f"{spec.sample_bytes} * TOTAL(n)")
    terms += [f"TOTAL(LENGTH(CAST({name} AS BLOB)))" for name in spec.text_bytes]
    return " + ".join(terms)


def _identifiers_text(identifiers: dict | None) -> str | None:
    if not identifiers:
        return None
    return json.dumps(identifiers, sort_keys=True, separators=(",", ":"))


def _unpack_samples(blob: bytes) -> list[list[int]]:
    flat = struct.unpack(f"<{len(blob) // 2}h", blob)
    return [list(flat[i:i + 3]) for i in range(0, len(flat), 3)]


def _insert_sql(spec: codec.StreamSpec) -> str:
    """The INSERT of one row of a stream, its parameters in the order
    ``(session_id, [stream,] *spec.row_params(row))``, as ``rows_params``
    gives them too."""
    columns = ("session_id", *(("stream",) if spec.name in MOTION_STREAMS else ()),
               "ts", "ms", "idx", *spec.columns)
    return (f"INSERT OR IGNORE INTO {spec.table}({', '.join(columns)}) "
            f"VALUES(?{', ?' * (len(columns) - 1)})")


_INSERTS = {name: _insert_sql(spec) for name, spec in STREAM_SPECS.items()}


_SCHEMA = """
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


class SqliteStorage:
    """Single-file backend. All calls serialize on one connection; each
    write_rows call is one transaction, committed (hence durable against a
    process kill) before it returns."""

    def __init__(self, path: str):
        self._lock = threading.RLock()
        self._path = path
        # (mac, essid) -> ap_id; forgotten on ROLLBACK, where SQLite may hand a
        # rolled-back ap_id to the next access point
        self._ap_ids: dict[tuple[str, str], int] = {}
        try:
            self._db = sqlite3.connect(path, check_same_thread=False, isolation_level=None)
        except sqlite3.Error as exc:
            raise StorageError(f"cannot open {path}: {exc}") from exc
        try:
            self._open()
        except sqlite3.Error as exc:  # e.g. a file that is not a database
            self._db.close()
            raise StorageError(f"cannot open {path}: {exc}") from exc
        except BaseException:
            self._db.close()
            raise

    def _open(self):
        """Set the connection up and create or check the schema."""
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.execute("PRAGMA foreign_keys=ON")
        self._db.executescript(_SCHEMA)
        self._db.execute("BEGIN IMMEDIATE")
        try:
            row = self._db.execute(
                "SELECT value FROM meta WHERE key='schema_version'").fetchone()
            if row is None:
                self._db.execute(
                    "INSERT INTO meta VALUES('schema_version', ?)", (str(SCHEMA_VERSION),))
                self._db.execute("INSERT INTO meta VALUES('next_session_id', '1')")
            elif int(row[0]) != SCHEMA_VERSION:
                raise StorageError(f"unsupported schema version {row[0]}")
            self._db.execute("COMMIT")
        except BaseException:
            self._db.execute("ROLLBACK")
            raise

    def _next_session_id(self) -> int:
        sid = int(self._db.execute(
            "SELECT value FROM meta WHERE key='next_session_id'").fetchone()[0])
        self._db.execute(
            "UPDATE meta SET value=? WHERE key='next_session_id'", (str(sid + 1),))
        return sid

    def upsert_session(self, user_hash: str, start_time: int, key: bytes,
                       version: int = 1, identifiers: dict | None = None) -> int:
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                row = self._db.execute(
                    "SELECT user_id FROM users WHERE user_hash=?", (user_hash,)).fetchone()
                if row is None:
                    cur = self._db.execute(
                        "INSERT INTO users(user_hash) VALUES(?)", (user_hash,))
                    user_id = cur.lastrowid
                else:
                    user_id = row[0]
                row = self._db.execute(
                    "SELECT session_id FROM sessions WHERE user_id=? AND start_time=?",
                    (user_id, start_time)).fetchone()
                if row is None:
                    sid = self._next_session_id()
                    self._db.execute(
                        "INSERT INTO sessions(session_id, user_id, start_time, key, "
                        "version, identifiers, created_at) VALUES(?,?,?,?,?,?,?)",
                        (sid, user_id, start_time, key, version,
                         _identifiers_text(identifiers), int(time.time())))
                else:
                    sid = row[0]
                    self._db.execute(
                        "UPDATE sessions SET key=?, version=?, identifiers=? "
                        "WHERE session_id=?",
                        (key, version, _identifiers_text(identifiers), sid))
                self._db.execute("COMMIT")
                return sid
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def lookup_session_key(self, session_id: int) -> bytes | None:
        with self._lock:
            row = self._db.execute(
                "SELECT key FROM sessions WHERE session_id=?", (session_id,)).fetchone()
        return None if row is None else bytes(row[0])

    def intern_auxiliary(self, mac: str, essid: str) -> int:
        with self._lock:
            ap_id = self._ap_ids.get((mac, essid))
            if ap_id is not None:
                return ap_id
            row = self._db.execute(
                "SELECT ap_id FROM access_points WHERE mac=? AND essid=?",
                (mac, essid)).fetchone()
            if row is not None:
                ap_id = row[0]
            else:
                ap_id = self._db.execute(
                    "INSERT INTO access_points(mac, essid) VALUES(?,?)", (mac, essid)).lastrowid
            if len(self._ap_ids) >= _AP_CACHE_LIMIT:
                self._ap_ids.clear()
            self._ap_ids[(mac, essid)] = ap_id
            return ap_id

    def write_rows(self, session_id: int, streams: dict[str, list[dict]]) -> int:
        """Store a batch of rows as received, in one transaction, and return
        its row count. Each row is checked as its parameters are built
        (``StreamSpec.rows_params``), all before the transaction begins, so a
        malformed row raises :class:`codec.MalformedPayload` and writes nothing.
        The session is not looked up again: decode found its key, and
        sessions are never deleted."""
        batch = [(stream, STREAM_SPECS[stream].rows_params(rows))
                 for stream, rows in write_order(streams)]
        with self._lock:
            self._db.execute("BEGIN IMMEDIATE")
            try:
                for stream, values in batch:
                    self._db.executemany(_INSERTS[stream],
                                         self._params(session_id, stream, values))
                self._db.execute("COMMIT")
                return codec.batch_row_count(streams)
            except BaseException:
                self._ap_ids.clear()
                self._db.execute("ROLLBACK")
                raise

    def _params(self, sid: int, stream: str, values: list[tuple]):
        """The INSERT parameters of one stream's checked rows."""
        if stream == "wifi":  # interned in row order, so each ap_id keeps its value
            ap_ids = self._ap_ids
            return [(sid, ts, ms, idx, ap if not isinstance(ap, tuple)
                     else ap_ids.get(ap) or self.intern_auxiliary(*ap), rssi)
                    for ts, ms, idx, ap, rssi in values]
        head = (sid, stream) if stream in MOTION_STREAMS else (sid,)
        return map(head.__add__, values)

    def read_session_rows(self, session_id: int) -> dict[str, list[dict]]:
        """Every stored row of a session, per stream, in natural-key order."""
        out: dict[str, list[dict]] = {}
        with self._lock:
            for spec in STREAM_SPECS.values():
                rows = self._read_stream(session_id, spec)
                if rows:
                    out[spec.name] = rows
        return out

    def _read_stream(self, sid: int, spec: codec.StreamSpec) -> list[dict]:
        columns, source, where, args = spec.columns, spec.table, "session_id=?", (sid,)
        if spec.name in MOTION_STREAMS:
            where, args = "session_id=? AND stream=?", (sid, spec.name)
        elif spec.name == "wifi":
            columns += ("mac", "essid")
            source += " LEFT JOIN access_points USING (ap_id)"
        # absent ms and idx are stored as -1 and 0 (see codec.natural_key)
        query = (f"SELECT ts, NULLIF(ms, -1), NULLIF(idx, 0), {', '.join(columns)} "
                 f"FROM {source} WHERE {where} ORDER BY ts, ms, idx")
        names = ("ts", "ms", "idx", *columns)
        # a NULL is a field the row left out, or the pair of an ap_id never interned
        shaped = [{name: value for name, value in zip(names, values) if value is not None}
                  for values in self._db.execute(query, args)]
        if spec.name in MOTION_STREAMS:
            for row in shaped:
                del row["n"]
                row["samples"] = _unpack_samples(row["samples"])
        return shaped

    def storage_stats(self) -> dict:
        rows: dict[str, int] = {}
        logical: dict[str, int] = {}
        with self._lock:
            for spec in STREAM_SPECS.values():
                where = " WHERE stream=?" if spec.name in MOTION_STREAMS else ""
                n, total = self._db.execute(
                    f"SELECT COUNT(*), {_logical_bytes_sql(spec)} FROM {spec.table}{where}",
                    (spec.name,) if where else ()).fetchone()
                if n:
                    rows[spec.name] = n
                    logical[spec.name] = int(total)
            sessions = self._db.execute("SELECT COUNT(*) FROM sessions").fetchone()[0]
            aps = self._db.execute("SELECT COUNT(*) FROM access_points").fetchone()[0]
        return {
            "sessions": sessions,
            "access_points": aps,
            "rows": rows,
            "logical_bytes": logical,
            "total_rows": sum(rows.values()),
            "total_logical_bytes": sum(logical.values()),
        }

    def flush(self):
        with self._lock:
            self._db.execute("PRAGMA wal_checkpoint(TRUNCATE)")

    def close(self):
        with self._lock:
            self._db.close()


class MemoryStorage(SqliteStorage):
    """``SqliteStorage(":memory:")`` under the name existing callers import."""

    def __init__(self):
        super().__init__(":memory:")


def open_storage(selector: str) -> SqliteStorage:
    """'memory' (in-memory SQLite), 'sqlite:<path>', or a bare filesystem path."""
    if selector == "memory":
        return SqliteStorage(":memory:")
    path = selector[len("sqlite:"):] if selector.startswith("sqlite:") else selector
    if not path:
        raise ValueError("empty storage selector")
    return SqliteStorage(path)
