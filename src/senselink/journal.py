"""Append-only on-disk buffer of unsent sensor rows.

The upload engine must not lose rows across a client crash, and must never
drop a row that was not positively acknowledged. The journal provides that:
row batches are appended as length-prefixed canonical-JSON records, joined
from the canonical JSON of each row the client has already built, and a
separate "ack" record advances a watermark counting how many rows (in global
append order) have been released by server feedback. On reopen, rows past
the watermark are re-uploaded; duplicates are harmless because the server's
writes are idempotent.

Record kinds:

* ``{"kind": "batch", "streams": {...}}`` — rows, indexed in
  :func:`senselink.codec.write_order` (stream name, then list order)
* ``{"kind": "ack", "through": N}`` — first N rows are released

The journal alone sizes its records: a batch whose record would pass
``MAX_RECORD_BYTES`` is journaled as one record a piece of a stream's rows,
in write order, each within half the cap (a row over that is a piece of its
own). A crash between the records leaves a prefix of the batch pending.

Replay reads every record, keeping each batch record's body until an ack
record covers its rows, then checks the rows above the watermark, a record
at a time, with ``StreamSpec.rows_json`` (a bad one is a :class:`JournalError`
from ``Journal(path)``; an acknowledged row is never sent again, so it is not
checked) and keeps their JSON as runs, one per stream of a record, that
``pending_runs`` hands over once. An open holds about 1.4x the client's
buffer of them and, at its peak, one parsed record (17 MB for an hour).

A torn final record (crash mid-append) is truncated away on open, and an
append that fails part way cuts the file back to where its first record
began, so a later append never follows a torn one. Records are UTF-8; replay
reads records with ASCII escapes as well, the form older builds wrote.
Replay reads each record with the reader of received payloads
(``codec._parse_json``), so a record it refuses (a NaN literal, a lone
surrogate escape, nesting deeper than ``codec.MAX_NESTING``, bytes that are
not UTF-8) is a :class:`JournalError`. No build wrote such a record: rows
are checked before they are journaled, and the checks refuse each of these.
"""

from __future__ import annotations

import os
import struct
from collections import deque

from . import codec

MAX_RECORD_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("!I")


def _batch_record(row_json: dict[str, list[bytes]]) -> bytes:
    return b'{"kind":"batch","streams":' + codec.streams_json(row_json) + b"}"


class JournalError(Exception):
    pass


def _fsync_directory(path: str):
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class MemoryJournal:
    """Same contract as Journal with no persistence; used by simulations."""

    def __init__(self):
        self.total_rows = 0
        self.watermark = 0

    def pending_runs(self):
        """(first index, stream, rows' canonical JSON) for each run replay found
        above the watermark, in index order; a memory journal replays none. The
        runs are handed over once, so call it right after open: a later call
        yields nothing. Live appends track indexes by the range of :meth:`append`."""
        return iter(())

    def _write(self, *bodies: bytes):
        """Keep one record a body before the indexes move; a memory journal keeps none."""

    def append(self, row_json: dict[str, list[bytes]]) -> range:
        """Journal a batch in ``codec.rows_json``'s form; return its rows' indexes."""
        first = self.total_rows
        self.total_rows += codec.batch_row_count(row_json)
        return range(first, self.total_rows)

    def ack_through(self, n: int):
        if n < self.watermark or n > self.total_rows:
            raise JournalError(f"watermark {n} out of range")
        if n > self.watermark:
            self._write(b'{"kind":"ack","through":%d}' % n)
            self.watermark = n


class Journal(MemoryJournal):
    def __init__(self, path: str):
        super().__init__()
        self._path = path
        self._runs: deque[tuple[int, str, list[bytes]]] = deque()  # filled by replay
        exists = os.path.exists(path)
        # unbuffered: a failed append leaves nothing behind to be written later
        self._file = open(path, "r+b" if exists else "w+b", buffering=0)
        try:
            if exists:
                self._replay()
            else:  # the new name must survive a crash as well as the records
                _fsync_directory(path)
        except BaseException:
            self._file.close()
            raise

    def _replay(self):
        good = 0
        batches: deque[tuple[int, int, bytes]] = deque()  # (first, end, body) not yet acked
        with open(self._path, "rb") as f:  # buffered, unlike the file appends go to
            while True:
                header = f.read(4)
                if len(header) < 4:
                    break
                length = _LEN.unpack(header)[0]
                if length > MAX_RECORD_BYTES:
                    raise JournalError(f"record of {length} bytes exceeds limit")
                body = f.read(length)
                if len(body) < length:
                    break
                self._apply(body, batches)
                good += 4 + length
        self._file.truncate(good)  # drop a torn trailing record, if any
        self._file.seek(good)
        while batches:  # each body freed as its rows are checked
            first, _, body = batches.popleft()
            # rows in global index order, the write order of storage
            for stream, rows in codec.write_order(codec._parse_json(body)["streams"]):
                start, first = first, first + len(rows)
                rows = rows[max(0, self.watermark - start):]  # an ack may end inside a record
                if rows:
                    try:
                        rows = codec.STREAM_SPECS[stream].rows_json(rows)
                    except codec.MalformedPayload as exc:
                        raise JournalError(f"journal row of {stream!r}: {exc}") from exc
                    self._runs.append((first - len(rows), stream, rows))

    def _apply(self, body: bytes, batches: deque[tuple[int, int, bytes]]):
        try:
            record = codec._parse_json(body)
        except codec.MalformedPayload as exc:
            raise JournalError(f"corrupt journal record: {exc}") from exc
        kind = record.get("kind")
        if kind == "batch":
            streams = record.get("streams")
            if not isinstance(streams, dict):
                raise JournalError("batch record without streams")
            first = self.total_rows
            for stream, rows in streams.items():
                if stream not in codec.STREAM_SPECS or not isinstance(rows, list):
                    raise JournalError(f"batch record with a bad stream {stream!r}")
                self.total_rows += len(rows)
            batches.append((first, self.total_rows, body))
        elif kind == "ack":
            through = record.get("through")
            if not codec._in_range(through, 0, self.total_rows):
                raise JournalError("ack record out of range")
            self.watermark = max(self.watermark, through)
            while batches and batches[0][1] <= self.watermark:
                batches.popleft()
        else:
            raise JournalError(f"unknown record kind {kind!r}")

    def pending_runs(self):
        runs, self._runs = self._runs, deque()
        return (runs.popleft() for _ in range(len(runs)))  # each freed as it is taken

    def _write(self, *bodies: bytes):
        """Append one record a body; a failed append leaves none behind."""
        if any(len(body) > MAX_RECORD_BYTES for body in bodies):
            raise JournalError("record too large")
        f = self._file
        start = f.tell()
        try:
            for body in bodies:
                record = memoryview(_LEN.pack(len(body)) + body)
                while record:
                    record = record[f.write(record):]
            os.fsync(f.fileno())
        except BaseException:
            f.truncate(start)
            f.seek(start)
            raise

    def append(self, row_json: dict[str, list[bytes]]) -> range:
        records = [_batch_record(row_json)]
        if len(records[0]) > MAX_RECORD_BYTES:  # one record a piece of a stream's rows
            records = []
            for stream, rows in codec.write_order(row_json):
                start = size = 0  # each row's JSON and separator counted in size
                for k, row in enumerate(rows):
                    if k > start and size + len(row) + 1 > MAX_RECORD_BYTES // 2:
                        records.append(_batch_record({stream: rows[start:k]}))
                        start, size = k, 0
                    size += len(row) + 1
                records.append(_batch_record({stream: rows[start:]}))
        self._write(*records)
        return super().append(row_json)

    def close(self):
        self._file.close()
