"""Append-only on-disk buffer of unsent sensor rows.

The upload engine must not lose rows across a client crash, and must never
drop a row that was not positively acknowledged. The journal provides that:
row batches are appended as length-prefixed canonical-JSON records, and a
separate "ack" record advances a watermark counting how many rows (in global
append order) have been released by server feedback. On reopen, rows past
the watermark are re-uploaded; duplicates are harmless because the server's
writes are idempotent.

Record kinds:

* ``{"kind": "batch", "streams": {...}}`` — rows, indexed in
  :func:`senselink.codec.write_order` (stream name, then list order)
* ``{"kind": "ack", "through": N}`` — first N rows are released

A torn final record (crash mid-append) is truncated away on open.
"""

from __future__ import annotations

import json
import os
import struct

from . import codec

MAX_RECORD_BYTES = 16 * 1024 * 1024

_LEN = struct.Struct("!I")


class JournalError(Exception):
    pass


def iter_batch_rows(streams: dict[str, list[dict]]):
    """Rows of one batch in global index order, the write order of storage."""
    for stream, rows in codec.write_order(streams):
        for row in rows:
            yield stream, row


class MemoryJournal:
    """Same contract as Journal with no persistence; used by simulations."""

    def __init__(self):
        self.total_rows = 0
        self.watermark = 0

    def pending_rows(self):
        return iter(())

    def append(self, streams: dict[str, list[dict]]) -> range:
        first = self.total_rows
        self.total_rows += codec.batch_row_count(streams)
        return range(first, self.total_rows)

    def ack_through(self, n: int):
        if n < self.watermark or n > self.total_rows:
            raise JournalError(f"watermark {n} out of range")
        self.watermark = n

    def sync(self):
        pass

    def close(self):
        pass


class Journal:
    def __init__(self, path: str, *, fsync: bool = True):
        self._path = path
        self._fsync = fsync
        self.total_rows = 0
        self.watermark = 0
        self._pending: list[tuple[str, dict]] = []
        exists = os.path.exists(path)
        self._file = open(path, "r+b" if exists else "w+b")
        if exists:
            self._replay()

    def _replay(self):
        f = self._file
        f.seek(0)
        good = 0
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
        f.truncate(good)  # drop a torn trailing record, if any
        f.seek(good)
        del self._pending[:self.watermark]

    def _apply(self, body: bytes):
        try:
            record = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise JournalError("corrupt journal record") from exc
        kind = record.get("kind")
        if kind == "batch":
            streams = record.get("streams")
            if not isinstance(streams, dict):
                raise JournalError("batch record without streams")
            for stream, row in iter_batch_rows(streams):
                self._pending.append((stream, row))
                self.total_rows += 1
        elif kind == "ack":
            through = record.get("through")
            if not isinstance(through, int) or not 0 <= through <= self.total_rows:
                raise JournalError("ack record out of range")
            self.watermark = max(self.watermark, through)
        else:
            raise JournalError(f"unknown record kind {kind!r}")

    def pending_rows(self):
        """(index, stream, row) for rows not yet under the watermark.

        Only meaningful right after open; live appends track indexes via
        the range returned by :meth:`append`.
        """
        base = self.total_rows - len(self._pending)
        for offset, (stream, row) in enumerate(self._pending):
            yield base + offset, stream, row

    def _write(self, record: dict):
        body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")
        if len(body) > MAX_RECORD_BYTES:
            raise JournalError("record too large")
        self._file.write(_LEN.pack(len(body)) + body)
        self.sync()

    def append(self, streams: dict[str, list[dict]]) -> range:
        first = self.total_rows
        count = codec.batch_row_count(streams)
        self._write({"kind": "batch", "streams": streams})
        self.total_rows += count
        return range(first, self.total_rows)

    def ack_through(self, n: int):
        if n < self.watermark or n > self.total_rows:
            raise JournalError(f"watermark {n} out of range")
        if n > self.watermark:
            self._write({"kind": "ack", "through": n})
            self.watermark = n

    def sync(self):
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    def close(self):
        self._file.close()
