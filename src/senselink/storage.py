"""Persistence: sessions, sensor rows, and interned access points, in SQLite.

:class:`SqliteStorage` keeps everything in one WAL-mode file, or in memory
for tests and simulations (``open_storage("memory")``). The stream table in
:mod:`senselink.codec` (``STREAM_SPECS``) defines each stream's fields, its
row table and columns, and its logical byte cost. ``write_rows`` takes rows
as they were received: ``StreamSpec.rows_params`` checks a stream's rows and
returns their INSERT parameters, one call a row of a check compiled from
the stream table that tests each field's exact JSON type inline and hands
any other row to ``row_params``, the reference. It admits only values
SQLite holds (signed 64-bit integers, numbers that read back as floats,
valid UTF-8), and every row of a batch is checked before its transaction
begins, so a malformed row writes nothing. Inside
the transaction each stream's parameters go to SQLite in chunks: every full
chunk of ``_ROWS_PER_INSERT`` rows is one execution of one multi-row
``INSERT OR IGNORE ... VALUES(...),(...),...`` statement, its parameters
flattened a chunk at a time, and the fewer rows left over go through one
single-row ``executemany``, as a realtime packet's short streams do whole.
The rows are stored in the same order either way, and ``OR IGNORE`` still
skips each duplicate row alone (https://www.sqlite.org/lang_insert.html).
The stream table also declares each row table: ``_table_sql`` builds its
``CREATE TABLE IF NOT EXISTS`` from the spec's columns and their SQLite
types (``StreamSpec.declarations``), so only the tables that are not per
stream are written out below, and the tables built are those of schema v1.
Rows are read back one stream of one session at a time, in natural-key
order, by ``read_stream_chunks``: lists of at most ``_ROWS_PER_READ`` rows,
each from its own keyset query that resumes after the ``(ts, ms, idx)`` of
the last row read, a row-value comparison that the primary key's index
serves (https://www.sqlite.org/rowvalue.html, SQLite 3.15 and later). No
statement or lock is held between lists, so a reader holds one list of rows
at a time. A row is read in the form it is stored, the tuple
``StreamSpec.rows_params`` gives the row as sent (a wifi row's ap_id joined
back to its ``(mac, essid)`` pair), so the simulator compares stored and
generated rows chunk by chunk without writing either as JSON.
``read_session_rows`` drains every stream under one hold of the lock, one
snapshot, and shapes each row with ``row_dict``, the one place a stored row
becomes a dict of the fields a client sends. One tally counts each
stream's rows and logical bytes, of a session (``session_tally``) or of the
whole store (``storage_stats``). A failing SQLite call of
``upsert_session``, ``lookup_session_key`` or ``write_rows`` raises
:class:`StorageError`.
Schema rules:

* every row is timestamped in unix seconds; asynchronous sensors add a
  milliseconds column (required where the stream table says so)
* the natural key (session_id, stream, ts, ms, idx) is unique, so replayed
  writes are idempotent and retransmission is safe
* a batch is written in :func:`senselink.codec.write_order`, the order a
  partial stored count refers to
* accel/gyro/mag rows pack one second of samples each, as 16-bit triplets
* wifi rows intern their (mac, essid) pair into a shared auxiliary table
  and store only the surrogate ap_id. ``write_rows`` interns inside its
  own transaction: it looks up each distinct pair of the batch in the
  order the pair first appears, and inserts it if it is missing, so a
  rollback takes the new access points with it and nothing outside
  SQLite holds an ap_id
* the users table is written only through the auth path (upsert_session)
  and is never exposed by row reads or stats
"""

from __future__ import annotations

import functools
import itertools
import json
import sqlite3
import struct
import threading
import time
from collections.abc import Iterator

from . import codec
from .codec import MOTION_STREAMS, STREAM_SPECS, write_order

SCHEMA_VERSION = 1
# rows one multi-row INSERT stores: at most 64 x 10 (gps) = 640 parameters, under
# the 999 that SQLite builds before 3.32 allow a statement
_ROWS_PER_INSERT = 64
_ROWS_PER_READ = 1024  # rows one query of read_stream_chunks returns


class StorageError(Exception):
    pass


def _storage_errors(method):
    """Re-raise the ``sqlite3.Error`` of an ingest call (a locked database, a
    closed connection, a full disk) as :class:`StorageError`, which the
    ingest core counts as a storage discard."""
    @functools.wraps(method)
    def call(*args, **kwargs):
        try:
            return method(*args, **kwargs)
        except sqlite3.Error as exc:
            raise StorageError(f"{method.__name__}: {exc}") from exc
    return call


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


def row_dict(stream: str, stored: tuple) -> dict:
    """A stored row as ``read_stream_chunks`` reads it, as a dict of the
    fields a client sends: less an absent ms or idx (stored as -1 and 0),
    an optional field left out (NULL) and a motion row's sample count, with
    the samples unpacked, and a wifi row's access point as its mac and
    essid, or as its ap_id if no access point has it."""
    names = ("ts", "ms", "idx", *STREAM_SPECS[stream].columns)
    row = {name: value for name, value in zip(names, stored) if value is not None}
    if row["ms"] == -1:
        del row["ms"]
    if not row["idx"]:
        del row["idx"]
    if stream in MOTION_STREAMS:
        del row["n"]
        row["samples"] = _unpack_samples(row["samples"])
    elif isinstance(row.get("ap_id"), tuple):
        row["mac"], row["essid"] = row.pop("ap_id")
    return row


def _key(spec: codec.StreamSpec) -> tuple[str, ...]:
    """The primary key of a stream's row table: the session, the stream in
    the shared motion table, and the natural key (see codec.natural_key)."""
    return ("session_id", *(("stream",) if spec.name in MOTION_STREAMS else ()),
            "ts", "ms", "idx")


def _stream_rows(spec: codec.StreamSpec, *session: int | None) -> tuple[str, tuple]:
    """The WHERE clause, and its arguments, that picks one stream from the
    stream's row table: of the session given, or of the whole store if none
    is. A session id of None (a client that never authenticated) picks no
    row, as SQL's ``NULL`` equals nothing."""
    terms = ["session_id=?"] * len(session)
    if spec.name in MOTION_STREAMS:
        terms.append("stream=?")
        session += (spec.name,)
    return " AND ".join(terms) or "1", session


def _table_sql(spec: codec.StreamSpec) -> str:
    """The CREATE TABLE of a stream's row table, its columns declared by the
    stream table (``StreamSpec.declarations``)."""
    declared = {"session_id": "INTEGER NOT NULL", "stream": "TEXT NOT NULL",
                **spec.declarations}
    key = _key(spec)
    columns = "".join(f"{name} {declared[name]}, " for name in (*key, *spec.columns))
    return f"CREATE TABLE IF NOT EXISTS {spec.table}({columns}PRIMARY KEY({', '.join(key)}));"


def _insert_sql(spec: codec.StreamSpec, rows: int = 1) -> str:
    """The INSERT of ``rows`` rows of a stream, each row's parameters in the
    order ``(session_id, [stream,] *spec.row_params(row))``, as ``rows_params``
    gives them too."""
    columns = (*_key(spec), *spec.columns)
    row = f"(?{', ?' * (len(columns) - 1)})"
    return (f"INSERT OR IGNORE INTO {spec.table}({', '.join(columns)}) "
            f"VALUES{', '.join([row] * rows)}")


_INSERTS = {name: (_insert_sql(spec), _insert_sql(spec, _ROWS_PER_INSERT))
            for name, spec in STREAM_SPECS.items()}


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
""" + "\n".join({spec.table: _table_sql(spec) for spec in STREAM_SPECS.values()}.values())


class SqliteStorage:
    """Single-file backend. All calls serialize on one connection; each
    write_rows call is one transaction, committed (hence durable against a
    process kill) before it returns."""

    def __init__(self, path: str):
        self._lock = threading.RLock()
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

    @_storage_errors
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

    @_storage_errors
    def lookup_session_key(self, session_id: int) -> bytes | None:
        with self._lock:
            row = self._db.execute(
                "SELECT key FROM sessions WHERE session_id=?", (session_id,)).fetchone()
        return None if row is None else bytes(row[0])

    @_storage_errors
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
                    insert_one, insert_chunk = _INSERTS[stream]
                    params = iter(self._params(session_id, stream, values))
                    for _ in range(len(values) // _ROWS_PER_INSERT):
                        self._db.execute(insert_chunk, tuple(itertools.chain.from_iterable(
                            itertools.islice(params, _ROWS_PER_INSERT))))
                    self._db.executemany(insert_one, params)  # the rows left over
                self._db.execute("COMMIT")
                return codec.batch_row_count(streams)
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def _params(self, sid: int, stream: str, values: list[tuple]):
        """The INSERT parameters of one stream's checked rows, inside the
        write's transaction."""
        if stream == "wifi":  # interned in row order, so each ap_id keeps its value
            ap_ids = dict.fromkeys(ap for _, _, _, ap, _ in values if isinstance(ap, tuple))
            for pair in ap_ids:
                row = self._db.execute(
                    "SELECT ap_id FROM access_points WHERE mac=? AND essid=?", pair).fetchone()
                ap_ids[pair] = row[0] if row is not None else self._db.execute(
                    "INSERT INTO access_points(mac, essid) VALUES(?,?)", pair).lastrowid
            return [(sid, ts, ms, idx, ap_ids.get(ap, ap), rssi)
                    for ts, ms, idx, ap, rssi in values]
        head = (sid, stream) if stream in MOTION_STREAMS else (sid,)
        return map(head.__add__, values)

    def read_session_rows(self, session_id: int) -> dict[str, list[dict]]:
        """Every stored row of a session, per stream, in natural-key order, as
        ``row_dict`` shapes it, a wifi row that names its access point with
        the access point's ``ap_id`` too; read under one hold of the lock, so
        no write lands between streams."""
        out: dict[str, list[dict]] = {}
        with self._lock:
            ap_ids = {(mac, essid): ap_id for ap_id, mac, essid in
                      self._db.execute("SELECT ap_id, mac, essid FROM access_points")}
            for stream in STREAM_SPECS:
                rows = [row_dict(stream, row)
                        for chunk in self.read_stream_chunks(session_id, stream) for row in chunk]
                for row in rows:  # only a wifi row that names an access point has a mac
                    if "mac" in row:
                        row["ap_id"] = ap_ids[row["mac"], row["essid"]]
                if rows:
                    out[stream] = rows
        return out

    def read_stream_chunks(self, session_id: int, stream: str) -> Iterator[list[tuple]]:
        """The stored rows of one stream of a session in natural-key order, as
        lists of at most ``_ROWS_PER_READ`` rows, one keyset query each. A row
        is read as it is stored: ``(ts, ms, idx, *spec.columns)``, an absent
        ms as -1 and an absent idx as 0, so it equals what
        ``StreamSpec.rows_params`` gives the row as sent. A wifi row's ap_id
        reads as its access point's ``(mac, essid)`` pair, and as the ap_id
        itself if no access point has it."""
        spec, after = STREAM_SPECS[stream], None
        while True:
            with self._lock:
                chunk = self._read_stream(session_id, spec, after)
            if chunk:
                yield chunk
            if len(chunk) < _ROWS_PER_READ:
                return
            after = chunk[-1][:3]

    def session_tally(self, session_id: int | None) -> dict[str, tuple[int, int]]:
        """The stored rows and logical bytes of each stream a session has rows
        in; none for a session id of None."""
        return self._tally(session_id)

    def _tally(self, *session: int | None) -> dict[str, tuple[int, int]]:
        """The stored rows and logical bytes (see codec.StreamSpec) of each
        stream with rows, of the session given or of the whole store."""
        tally = {}
        with self._lock:
            for spec in STREAM_SPECS.values():
                where, args = _stream_rows(spec, *session)
                n, total = self._db.execute(
                    f"SELECT COUNT(*), {_logical_bytes_sql(spec)} FROM {spec.table} "
                    f"WHERE {where}", args).fetchone()
                if n:
                    tally[spec.name] = n, int(total)
        return tally

    def _read_stream(self, sid: int, spec: codec.StreamSpec,
                     after: tuple[int, int, int] | None) -> list[tuple]:
        """At most ``_ROWS_PER_READ`` stored rows of a stream of a session
        (see ``read_stream_chunks``), in natural-key order, those after the
        natural key ``after`` if given."""
        columns, source = spec.columns, spec.table
        where, args = _stream_rows(spec, sid)
        if after is not None:  # a row value, which the primary key's index serves
            where, args = f"{where} AND (ts, ms, idx) > (?, ?, ?)", (*args, *after)
        if spec.name == "wifi":
            columns += ("mac", "essid")
            source += " LEFT JOIN access_points USING (ap_id)"
        rows = self._db.execute(
            f"SELECT ts, ms, idx, {', '.join(columns)} FROM {source} WHERE {where} "
            f"ORDER BY ts, ms, idx LIMIT {_ROWS_PER_READ}", args).fetchall()
        if spec.name == "wifi":  # mac is NULL only for an ap_id no access point has
            return [(ts, ms, idx, ap_id if mac is None else (mac, essid), rssi)
                    for ts, ms, idx, ap_id, rssi, mac, essid in rows]
        return rows

    def storage_stats(self) -> dict:
        with self._lock:  # one snapshot
            tally = self._tally()
            sessions = self._db.execute("SELECT COUNT(*) FROM sessions").fetchone()[0]
            aps = self._db.execute("SELECT COUNT(*) FROM access_points").fetchone()[0]
        rows = {stream: n for stream, (n, _) in tally.items()}
        logical = {stream: total for stream, (_, total) in tally.items()}
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
