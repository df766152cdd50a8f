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

A batch whose record would pass ``MAX_RECORD_BYTES`` is journaled as one
record a piece, in write order, which gives its rows the same indexes; the
caller keeps each piece within half the cap. A crash between the records
leaves a prefix of the batch, whose rows replay as pending.

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

    def pending_rows(self):
        return iter(())

    def append(self, row_json: dict[str, list[bytes]], count: int) -> range:
        first = self.total_rows
        self.total_rows += count
        return range(first, self.total_rows)

    def ack_through(self, n: int):
        if n < self.watermark or n > self.total_rows:
            raise JournalError(f"watermark {n} out of range")
        self.watermark = n


class Journal:
    def __init__(self, path: str):
        self._path = path
        self.total_rows = 0
        self.watermark = 0
        self._pending: list[tuple[str, dict]] = []
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
                self._apply(body)
                good += 4 + length
        self._file.truncate(good)  # drop a torn trailing record, if any
        self._file.seek(good)

    def _apply(self, body: bytes):
        try:
            record = codec._parse_json(body)
        except codec.MalformedPayload as exc:
            raise JournalError(f"corrupt journal record: {exc}") from exc
        kind = record.get("kind")
        if kind == "batch":
            streams = record.get("streams")
            if not isinstance(streams, dict):
                raise JournalError("batch record without streams")
            # rows in global index order, the write order of storage
            for stream, rows in codec.write_order(streams):
                if stream not in codec.STREAM_SPECS or not isinstance(rows, list):
                    raise JournalError(f"batch record with a bad stream {stream!r}")
                self._pending += [(stream, row) for row in rows]
                self.total_rows += len(rows)
        elif kind == "ack":
            through = record.get("through")
            if not isinstance(through, int) or not 0 <= through <= self.total_rows:
                raise JournalError("ack record out of range")
            if through > self.watermark:  # _pending starts at the watermark's row
                del self._pending[:through - self.watermark]
                self.watermark = through
        else:
            raise JournalError(f"unknown record kind {kind!r}")

    def pending_rows(self):
        """(index, stream, row) for the rows replay found above the
        watermark, in index order from ``watermark``.

        Call it right after open. The rows are handed over once: the first
        call takes them and the journal keeps none, so a later call yields
        nothing. Live appends track indexes via the range returned by
        :meth:`append`.
        """
        pending, self._pending = self._pending, []
        return ((self.watermark + offset, stream, row)
                for offset, (stream, row) in enumerate(pending))

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

    def append(self, row_json: dict[str, list[bytes]], count: int) -> range:
        """Journal a batch of count rows given as their canonical JSON by
        stream, each piece one row or several joined by commas; returns the
        global indexes of its rows."""
        first = self.total_rows
        body = _batch_record(row_json)
        self._write(*([body] if len(body) <= MAX_RECORD_BYTES else [
            _batch_record({stream: [piece]})
            for stream, pieces in codec.write_order(row_json) for piece in pieces]))
        self.total_rows += count
        return range(first, self.total_rows)

    def ack_through(self, n: int):
        if n < self.watermark or n > self.total_rows:
            raise JournalError(f"watermark {n} out of range")
        if n > self.watermark:
            self._write(b'{"kind":"ack","through":%d}' % n)
            self.watermark = n

    def close(self):
        self._file.close()
