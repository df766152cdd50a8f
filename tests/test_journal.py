import errno
import gc
import json
import os
import stat
import struct
import tracemalloc
import warnings

import pytest

from _buffer_oracle import buffered_rows
from conftest import PARSER_LIMITS

from senselink import codec, crypto, journal, sim
from senselink.client import ClientSession

TS = 1_400_000_000


def batch(n, base_ts=TS):
    """n pressure rows as the client journals them: the JSON of each row."""
    return codec.rows_json({"pressure": [{"ts": base_ts + i, "hpa": 1000.0 + i}
                                         for i in range(n)]})


def _write_records(path, *records):
    with open(path, "wb") as f:
        for body in records:
            f.write(struct.pack("!I", len(body)) + body)


def _pending(j):
    """The rows of the journal's pending runs as (index, stream, row)."""
    return [(start + k, stream, json.loads(row)) for start, stream, rows in j.pending_runs()
            for k, row in enumerate(rows)]


def test_iter_batch_rows_global_order(tmp_path):
    # replay indexes a batch's rows in write order: stream name, then list order
    path = str(tmp_path / "j.bin")
    _write_records(path, b'{"kind":"batch","streams":{"pressure":[{"hpa":2,"ts":2}],'
                         b'"bt":[{"device_id":"a","rssi":-1,"ts":1},'
                         b'{"device_id":"b","rssi":-3,"ts":3}]}}')
    j = journal.Journal(path)
    assert list(j.pending_runs()) == [
        (0, "bt", [b'{"device_id":"a","rssi":-1,"ts":1}', b'{"device_id":"b","rssi":-3,"ts":3}']),
        (2, "pressure", [b'{"hpa":2,"ts":2}'])]
    j.close()


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
    assert _pending(j2) == [(3, "bt", {"ts": TS, "device_id": "kb", "rssi": -9})]
    # appends continue the global numbering
    assert j2.append(batch(2, base_ts=TS + 50)) == range(4, 6)
    j2.close()

    j3 = journal.Journal(path)
    assert j3.total_rows == 6
    assert [i for i, _, _ in _pending(j3)] == [3, 4, 5]
    j3.close()


def test_fully_acked_journal_reopens_empty(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(4))
    j.ack_through(4)
    j.close()
    j2 = journal.Journal(path)
    assert list(j2.pending_runs()) == []
    assert (j2.total_rows, j2.watermark) == (4, 4)
    j2.close()


def test_replay_holds_only_unacknowledged_rows(tmp_path):
    # each ack record releases its rows as replay meets it: reopening four
    # acknowledged hours peaks within 1.3x of reopening one, where holding
    # every row until the end of the file peaked at about 3.5x
    hour = codec.rows_json(sim.generate_session(sim.WorkloadConfig(seed=2)))
    count = codec.batch_row_count(hour)
    peaks = []
    for hours in (1, 4):
        path = str(tmp_path / f"{hours}h.bin")
        j = journal.Journal(path)
        for _ in range(hours):
            j.append(hour)
            j.ack_through(j.total_rows)
        j.append(batch(2))  # two rows left pending
        j.close()
        tracemalloc.start()
        try:
            j = journal.Journal(path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [i for i, _, _ in _pending(j)] == [hours * count, hours * count + 1]
        j.close()
    assert peaks[1] <= 1.3 * peaks[0], peaks


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


@pytest.mark.parametrize("body", [
    b"[1]",  # not an object
    b'{"kind":"batch","streams":{"heart":[{"ts":1}]}}',  # a stream this build lacks
    b'{"kind":"batch","streams":{"pressure":5}}',  # rows that are not a list
    *PARSER_LIMITS.values(),
], ids=["not-an-object", "unknown-stream", "not-a-list", *PARSER_LIMITS])
def test_malformed_record_rejected_and_file_closed(tmp_path, body):
    path = str(tmp_path / "j.bin")
    _write_records(path, b'{"kind":"batch","streams":{"pressure":[]}}', body)
    _refused_at_open(path)


def _refused_at_open(path, match=None):
    """Open the journal at path, which must raise a JournalError (matching
    match, if given) and leave no file open."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(journal.JournalError, match=match):
            journal.Journal(path)
        gc.collect()  # a file left open warns as it is collected
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_bad_row_is_a_journal_error_on_resume(tmp_path):
    # replay checks each pending row of a record before the open returns
    path = str(tmp_path / "j.bin")
    _write_records(path, b'{"kind":"batch","streams":{"pressure":[5]}}')
    _refused_at_open(path, "journal row of 'pressure': row is not an object")


def test_a_journaled_wifi_row_naming_a_bare_ap_id_fails_to_resume(tmp_path):
    # older builds journaled such rows; a row names its access point by
    # (mac, essid) now, so the journal does not open while the row is pending
    path = str(tmp_path / "j.bin")
    _write_records(path, b'{"kind":"batch","streams":{"wifi":[{"ap_id":1,"rssi":-40,"ts":5}]}}')
    _refused_at_open(path, "journal row of 'wifi'.*'mac'")


@pytest.mark.parametrize("through", [1, 2])
def test_an_acknowledged_row_is_not_checked_on_resume(tmp_path, through):
    # a journal an older build uploaded keeps its bare-ap_id wifi rows below
    # the watermark; they are never sent again, so the journal reopens with
    # only the rows above it pending, even when the ack ends inside a record
    path = str(tmp_path / "j.bin")
    good = b'{"essid":"","mac":"aa:bb","rssi":-30,"ts":6}'
    _write_records(path, b'{"kind":"batch","streams":{"wifi":[{"ap_id":1,"rssi":-40,"ts":5},'
                         + good + b"]}}", b'{"kind":"ack","through":%d}' % through)
    j = journal.Journal(path)
    assert (j.total_rows, j.watermark) == (2, through)
    assert list(j.pending_runs()) == ([(1, "wifi", [good])] if through == 1 else [])
    j.close()


def test_an_ack_record_through_a_bool_is_refused(tmp_path):
    path = str(tmp_path / "j.bin")
    _write_records(path, journal._batch_record(batch(2)), b'{"kind":"ack","through":true}')
    _refused_at_open(path, "ack record out of range")


def test_oversized_declared_record_rejected(tmp_path):
    path = str(tmp_path / "j.bin")
    with open(path, "wb") as f:
        f.write(struct.pack("!I", journal.MAX_RECORD_BYTES + 1))
    with pytest.raises(journal.JournalError):
        journal.Journal(path)


@pytest.mark.parametrize("kind", ["MemoryJournal", "Journal"])
def test_memory_journal_contract(tmp_path, kind):
    j = journal.MemoryJournal() if kind == "MemoryJournal" else journal.Journal(
        str(tmp_path / "j.bin"))
    assert j.append(batch(3)) == range(0, 3)
    assert j.append(batch(1)) == range(3, 4)
    assert list(j.pending_runs()) == []
    j.ack_through(2)
    with pytest.raises(journal.JournalError):
        j.ack_through(1)
    with pytest.raises(journal.JournalError):
        j.ack_through(5)
    j.ack_through(4)
    assert j.watermark == 4
    if kind == "Journal":
        j.close()


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
    out = buffered_rows(session)
    j.close()
    return out


def _expected_buffer(streams, first=0):
    rows = [(stream, data) for stream, batch in codec.rows_json(streams).items()
            for data in batch]
    return [(first + i, stream, data) for i, (stream, data) in enumerate(rows)]


def test_ascii_escaped_journal_reopens_with_the_same_rows(tmp_path, test_keypair):
    path = str(tmp_path / "j.bin")
    validated = codec.validate_streams(_NON_ASCII)
    with open(path, "wb") as f:  # json.dumps' defaults escape every non-ASCII character
        for record in ({"kind": "batch", "streams": validated}, {"kind": "ack", "through": 1}):
            body = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
            assert body.isascii()
            f.write(struct.pack("!I", len(body)) + body)
    j = journal.Journal(path)
    assert (j.total_rows, j.watermark) == (4, 1)
    written = [(stream, row) for stream, rows in codec.write_order(validated) for row in rows]
    assert _pending(j) == [(i, *pair) for i, pair in enumerate(written)][1:]
    j.close()
    assert _buffered(path, test_keypair) == _expected_buffer(_NON_ASCII)[1:]


def test_non_ascii_rows_survive_a_crash_in_the_utf8_form(tmp_path, test_keypair):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    session = ClientSession(crypto.hash_user("j@example.org"), TS, test_keypair.public_part,
                            journal=j)
    session.enqueue_rows(_NON_ASCII)
    before = buffered_rows(session)
    assert before == _expected_buffer(_NON_ASCII)
    j.close()  # crash: nothing acknowledged
    with open(path, "rb") as f:
        record = f.read()[4:]
    assert "Kópavogur".encode() in record and b"\\u" not in record
    assert json.loads(record) == {"kind": "batch",
                                  "streams": codec.validate_streams(_NON_ASCII)}
    assert _buffered(path, test_keypair) == before


def test_a_record_with_an_empty_stream_list_adds_no_row(tmp_path, test_keypair):
    # an earlier build journaled a batch over the record cap one record a
    # piece, and a stream's empty list as a record of its own
    path = str(tmp_path / "j.bin")
    bt = codec.rows_json({"bt": [{"ts": TS, "device_id": "kb", "rssi": -9}]})
    _write_records(path, journal._batch_record(batch(2)),
                   b'{"kind":"batch","streams":{"bt":[]}}', journal._batch_record(bt),
                   b'{"kind":"ack","through":1}')
    j = journal.Journal(path)
    assert (j.total_rows, j.watermark) == (3, 1)
    j.close()
    assert _buffered(path, test_keypair) == [(1, "pressure", batch(2)["pressure"][1]),
                                             (2, "bt", bt["bt"][0])]


def _pending_hours(path, keypair, hours):
    """A journal at path holding hours of the default workload, pending and
    enqueued an hour at a time as ``upload`` does (one record an hour)."""
    j = journal.Journal(path)
    session = ClientSession(crypto.hash_user("j@example.org"), TS, keypair.public_part,
                            journal=j)
    for hour in range(hours):
        session.enqueue_rows(sim.generate_session(sim.WorkloadConfig(
            seed=6 + hour * 2**32, start_ts=TS + hour * 3600)))
    j.close()
    gc.collect()


def test_an_open_holds_its_pending_rows_as_row_json(tmp_path, test_keypair):
    # replay keeps each pending row as the canonical JSON the session buffers,
    # not as a parsed dict (6.9x the buffer when it kept the dicts)
    path = str(tmp_path / "j.bin")
    _pending_hours(path, test_keypair, 1)
    tracemalloc.start()
    try:
        j = journal.Journal(path)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    session = ClientSession(crypto.hash_user("j@example.org"), TS, test_keypair.public_part,
                            journal=j)
    j.close()
    assert sum(map(len, session._buffer)) == j.total_rows
    assert held <= 1.5 * session._buffered_bytes, held / session._buffered_bytes


def test_a_resume_of_three_pending_hours_peaks_within_5x_its_buffer(tmp_path, test_keypair):
    # the parse of one record sets the peak of an open (about 8x an hour's
    # buffer); the records before it are held as row JSON (8.1x the
    # buffer when replay kept every pending row as a parsed dict)
    path = str(tmp_path / "j.bin")
    _pending_hours(path, test_keypair, 3)
    tracemalloc.start()
    try:
        j = journal.Journal(path)
        session = ClientSession(crypto.hash_user("j@example.org"), TS,
                                test_keypair.public_part, journal=j)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    j.close()
    assert sum(map(len, session._buffer)) == j.total_rows
    assert peak <= 5 * session._buffered_bytes, peak / session._buffered_bytes


# ---------------------------------------------------------------------------
# crashes, full disks and hostile files


def test_journal_cut_at_every_byte_reopens_at_the_last_whole_record(tmp_path):
    # a crash can stop the file anywhere; each cut must reopen with exactly
    # the state after the last complete record, and drop the rest
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    written = []  # (stream, row) by global index

    def append(row_json):
        j.append(row_json)
        written.extend((stream, json.loads(row)) for stream, rows in row_json.items()
                       for row in rows)

    steps = [lambda: append(batch(2)), lambda: j.ack_through(1),
             lambda: append(codec.rows_json({"bt": [{"ts": TS, "device_id": "kb",
                                                     "rssi": -9}]})),
             lambda: j.ack_through(3), lambda: append(batch(3, base_ts=TS + 5)),
             lambda: j.ack_through(4)]
    ends = [(0, (0, 0, []))]
    for step in steps:
        step()
        pending = [(i, *written[i]) for i in range(j.watermark, len(written))]
        ends.append((os.path.getsize(path), (j.total_rows, j.watermark, pending)))
    j.close()
    with open(path, "rb") as f:
        data = f.read()
    assert len(data) == ends[-1][0]

    cut = str(tmp_path / "cut.bin")
    for size in range(len(data) + 1):
        with open(cut, "wb") as f:
            f.write(data[:size])
        end, state = max(e for e in ends if e[0] <= size)
        reopened = journal.Journal(cut)
        try:
            assert (reopened.total_rows, reopened.watermark,
                    _pending(reopened)) == state, size
        finally:
            reopened.close()
        assert os.path.getsize(cut) == end, size


class _FullDisk:
    """A journal file whose write after the next ``writes`` stores half its
    bytes, then fails."""

    def __init__(self, f, writes=0):
        self.inner = f
        self.writes = writes

    def write(self, data):
        if self.writes:
            self.writes -= 1
            return self.inner.write(data)
        self.inner.write(bytes(data[:len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_failed_append_leaves_no_torn_record(tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(2))
    size = os.path.getsize(path)
    j._file = _FullDisk(j._file)
    with pytest.raises(OSError):
        j.append(batch(3, base_ts=TS + 10))
    j._file = j._file.inner
    assert os.path.getsize(path) == size
    assert j.append(batch(1, base_ts=TS + 20)) == range(2, 3)
    j.close()

    reopened = journal.Journal(path)  # raised "corrupt journal record" before
    assert [row["ts"] for _, _, row in _pending(reopened)] == [TS, TS + 1, TS + 20]
    reopened.close()


_MIXED = {"pressure": [{"ts": TS + i, "hpa": 1000.0 + i} for i in range(40)],
          "bt": [{"ts": TS + i, "device_id": f"dev-{i}", "rssi": -i} for i in range(30)],
          "wifi": [{"ts": TS + i, "mac": "aa:bb", "essid": "x" * i, "rssi": -40}
                   for i in range(25)]}


def _record_lengths(path):
    lengths = []
    with open(path, "rb") as f:
        while header := f.read(4):
            lengths.append(struct.unpack("!I", header)[0])
            f.seek(lengths[-1], os.SEEK_CUR)
    return lengths


def test_a_batch_over_the_record_cap_is_journaled_in_several_records(
        tmp_path, test_keypair, monkeypatch):
    whole = str(tmp_path / "whole.bin")
    j = journal.Journal(whole)
    expected = ClientSession(crypto.hash_user("j@example.org"), TS, test_keypair.public_part,
                             journal=j)
    expected.enqueue_rows(_MIXED)
    j.close()
    assert len(_record_lengths(whole)) == 1
    j = journal.Journal(whole)
    pending = _pending(j)
    j.close()
    monkeypatch.setattr(journal, "MAX_RECORD_BYTES", 600)  # about 12 rows a record
    path = str(tmp_path / "cut.bin")
    j = journal.Journal(path)
    session = ClientSession(crypto.hash_user("j@example.org"), TS, test_keypair.public_part,
                            journal=j)
    assert session.enqueue_rows(_MIXED) == 95
    j.close()
    assert buffered_rows(session) == buffered_rows(expected)
    lengths = _record_lengths(path)
    assert len(lengths) > 5 and max(lengths) <= 600
    reopened = journal.Journal(path)
    assert _pending(reopened) == pending
    reopened.close()
    assert _buffered(path, test_keypair) == buffered_rows(expected)


def test_a_failed_append_of_several_records_leaves_none_of_them(tmp_path, monkeypatch):
    monkeypatch.setattr(journal, "MAX_RECORD_BYTES", 600)
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    j.append(batch(2))
    size = os.path.getsize(path)
    row_json = codec.rows_json(_MIXED)
    j._file = _FullDisk(j._file, writes=3)  # fails in the fourth record
    with pytest.raises(OSError):
        j.append(row_json)
    j._file = j._file.inner
    assert os.path.getsize(path) == size and j.total_rows == 2
    assert j.append(row_json) == range(2, 97)
    j.close()
    lengths = _record_lengths(path)
    assert len(lengths) > 5 and max(lengths) <= 600
    reopened = journal.Journal(path)
    written = [(stream, json.loads(row)) for rows in (batch(2), row_json)
               for stream, rows in rows.items() for row in rows]
    assert _pending(reopened) == [(i, *pair) for i, pair in enumerate(written)]
    reopened.close()


def test_new_journal_syncs_its_directory_once(tmp_path, monkeypatch):
    synced = []
    fsync = os.fsync

    def spy(fd):
        synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    path = str(tmp_path / "j.bin")
    journal.Journal(path).close()
    assert synced == [True]
    synced.clear()
    j = journal.Journal(path)
    j.append(batch(1))
    j.close()
    assert synced == [False]  # the record itself, and no directory

