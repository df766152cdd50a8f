import json
import os
import struct

import pytest

from senselink import codec, crypto, journal
from senselink.client import ClientSession

TS = 1_400_000_000


def batch(n, base_ts=TS):
    """n pressure rows as the client journals them: the JSON of each row."""
    return codec.rows_json({"pressure": [{"ts": base_ts + i, "hpa": 1000.0 + i}
                                         for i in range(n)]})


def test_iter_batch_rows_global_order():
    streams = {"pressure": [{"ts": 2}], "bt": [{"ts": 1}, {"ts": 3}]}
    assert list(journal.iter_batch_rows(streams)) == [
        ("bt", {"ts": 1}), ("bt", {"ts": 3}), ("pressure", {"ts": 2})]


def test_append_returns_global_index_ranges(tmp_path):
    j = journal.Journal(str(tmp_path / "j.bin"))
    assert j.append(batch(3)) == range(0, 3)
    assert j.append(batch(2, base_ts=TS + 10)) == range(3, 5)
    assert j.total_rows == 5
    j.close()


def test_replay_resumes_past_watermark(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(3))
    j.append(codec.rows_json({"bt": [{"ts": TS, "device_id": "kb", "rssi": -9}]}))
    j.ack_through(3)
    j.close()

    j2 = journal.Journal(path)
    assert (j2.total_rows, j2.watermark) == (4, 3)
    pending = list(j2.pending_rows())
    assert pending == [(3, "bt", {"ts": TS, "device_id": "kb", "rssi": -9})]
    # appends continue the global numbering
    assert j2.append(batch(2, base_ts=TS + 50)) == range(4, 6)
    j2.close()

    j3 = journal.Journal(path)
    assert j3.total_rows == 6
    assert [i for i, _, _ in j3.pending_rows()] == [3, 4, 5]
    j3.close()


def test_fully_acked_journal_reopens_empty(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(4))
    j.ack_through(4)
    j.close()
    j2 = journal.Journal(path)
    assert list(j2.pending_rows()) == []
    assert (j2.total_rows, j2.watermark) == (4, 4)
    j2.close()


def test_ack_watermark_rules(tmp_path):
    j = journal.Journal(str(tmp_path / "j.bin"))
    j.append(batch(5))
    j.ack_through(3)
    with pytest.raises(journal.JournalError):
        j.ack_through(2)  # regression
    with pytest.raises(journal.JournalError):
        j.ack_through(6)  # beyond appended rows
    size_before = os.path.getsize(j._path)
    j.ack_through(3)  # same value: no-op, nothing written
    assert os.path.getsize(j._path) == size_before
    j.close()


def test_torn_trailing_record_truncated(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(3))
    j.close()
    good_size = os.path.getsize(path)

    with open(path, "ab") as f:
        f.write(struct.pack("!I", 100) + b"only ten b")  # promised 100, wrote 10

    j2 = journal.Journal(path)
    assert j2.total_rows == 3
    assert os.path.getsize(path) == good_size
    j2.append(batch(1, base_ts=TS + 99))
    j2.close()

    j3 = journal.Journal(path)
    assert j3.total_rows == 4
    j3.close()


def test_torn_header_truncated(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(2))
    j.close()
    with open(path, "ab") as f:
        f.write(b"\x00\x00")
    j2 = journal.Journal(path)
    assert j2.total_rows == 2
    j2.close()


def test_complete_garbage_record_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    with open(path, "wb") as f:
        body = b"not json at all"
        f.write(struct.pack("!I", len(body)) + body)
    with pytest.raises(journal.JournalError):
        journal.Journal(path)


def test_unknown_record_kind_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    with open(path, "wb") as f:
        body = b'{"kind":"mystery"}'
        f.write(struct.pack("!I", len(body)) + body)
    with pytest.raises(journal.JournalError):
        journal.Journal(path)


def test_oversized_declared_record_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    with open(path, "wb") as f:
        f.write(struct.pack("!I", journal.MAX_RECORD_BYTES + 1))
    with pytest.raises(journal.JournalError):
        journal.Journal(path)


def test_memory_journal_contract():
    j = journal.MemoryJournal()
    assert j.append(batch(3)) == range(0, 3)
    assert j.append(batch(1)) == range(3, 4)
    assert list(j.pending_rows()) == []
    j.ack_through(2)
    with pytest.raises(journal.JournalError):
        j.ack_through(1)
    with pytest.raises(journal.JournalError):
        j.ack_through(5)
    j.ack_through(4)
    assert j.watermark == 4


# ---------------------------------------------------------------------------
# the record forms: ASCII-escaped (earlier builds) and UTF-8

_NON_ASCII = {"events": [{"ts": TS, "kind": "lap", "detail": "é \u2603 \U0001f6b2"}],
              "bt": [{"ts": TS, "ms": 7, "device_id": "Kópavogur", "rssi": -9}],
              "pressure": [{"ts": TS, "hpa": -0.0}, {"ts": TS + 1, "hpa": 1000.5}]}


def _buffered(path, keypair):
    """The row JSON a client resuming from the journal at path buffers."""
    j = journal.Journal(path)
    session = ClientSession(crypto.hash_user("j@example.org"), TS, keypair.public_part,
                            journal=j)
    out = [(entry.index, entry.stream, entry.json) for entry in session._buffer]
    j.close()
    return out


def _expected_buffer(streams, first=0):
    rows = [(stream, data) for stream, batch in codec.rows_json(streams).items()
            for data in batch]
    return [(first + i, stream, data) for i, (stream, data) in enumerate(rows)]


def test_ascii_escaped_journal_reopens_with_the_same_rows(tmp_path, test_keypair):
    path = str(tmp_path / "j.bin")
    validated, _ = codec.validate_streams(_NON_ASCII)
    with open(path, "wb") as f:  # json.dumps' defaults escape every non-ASCII character
        for record in ({"kind": "batch", "streams": validated}, {"kind": "ack", "through": 1}):
            body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
            assert body.isascii()
            f.write(struct.pack("!I", len(body)) + body)
    j = journal.Journal(path)
    assert (j.total_rows, j.watermark) == (4, 1)
    assert list(j.pending_rows()) == [
        (i, stream, row) for i, (stream, row) in enumerate(journal.iter_batch_rows(validated))
    ][1:]
    j.close()
    assert _buffered(path, test_keypair) == _expected_buffer(_NON_ASCII)[1:]


def test_non_ascii_rows_survive_a_crash_in_the_utf8_form(tmp_path, test_keypair):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    session = ClientSession(crypto.hash_user("j@example.org"), TS, test_keypair.public_part,
                            journal=j)
    session.enqueue_rows(_NON_ASCII)
    before = [(entry.index, entry.stream, entry.json) for entry in session._buffer]
    assert before == _expected_buffer(_NON_ASCII)
    j.close()  # crash: nothing acknowledged
    with open(path, "rb") as f:
        record = f.read()[4:]
    assert "Kópavogur".encode() in record and b"\\u" not in record
    assert json.loads(record) == {"kind": "batch",
                                  "streams": codec.validate_streams(_NON_ASCII)[0]}
    assert _buffered(path, test_keypair) == before
