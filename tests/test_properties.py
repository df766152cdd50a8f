"""Property tests against reference implementations.

``StreamSpec.row_params`` is the one check of what a row may hold: it
checks a received row and returns its SQLite parameters, and it must
accept, reject and normalize exactly as a hand-written branch per stream
does, build what validation followed by a walk over the validated dict
did, and admit only what SQLite holds. The client writes each row's JSON
from those values (``StreamSpec.row_json``) and joins a packet's payload
from those bytes (``codec.data_payload``), as ``encode_data_packet`` does.
Each row's bytes must be the canonical JSON of the row the reference
validator returns, and a payload must agree byte for byte with a plain
serialization. The list checks (the compiled row checks, and on long
lists the JSON kernel) must agree with the row checks at every length,
SQLite storage must store and report what a dict model of it does, and the
ingest core must store or count as one discard every mutation of a valid
blob, without raising.
"""

import json
import math
import os
import struct
import tempfile
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from senselink import codec, crypto, server as ingest, storage
from senselink.client import ClientSession
from senselink.journal import Journal

from _buffer_oracle import RowBuffer, buffered_rows, run_rows

TS = 1_400_000_000
HASH = crypto.hash_user("props@example.com")
STREAMS = tuple(codec.STREAM_SPECS)

_text = st.text(max_size=12)  # includes non-ASCII, which costs several UTF-8 bytes
_i64 = st.integers(-(2**63), 2**63 - 1)
_ts = st.integers(min_value=0, max_value=2**63 - 1)
_num = st.floats(allow_nan=False, allow_infinity=False)


def _row_strategies(ts, num):
    """A strategy for valid rows of each of the nine streams."""
    key = {"ts": ts}
    motion = st.fixed_dictionaries({
        **key, "rate": st.floats(min_value=0.5, max_value=400.0) | st.integers(1, 2**63 - 1),
        "samples": st.lists(st.lists(st.integers(-32768, 32767), min_size=3, max_size=3),
                            min_size=1, max_size=4)})
    return {
        "pressure": st.fixed_dictionaries({**key, "hpa": num}),
        "gps": st.fixed_dictionaries({
            **key, "ms": st.integers(0, 999), "lat": num, "lon": num, "alt": num,
            "speed": num, "accuracy": num, "device_ts": ts}),
        "accel": motion, "gyro": motion, "mag": motion,
        "wifi": st.fixed_dictionaries(
            {**key, "rssi": st.integers(-127, 0), "mac": _text.filter(bool), "essid": _text})
        | st.fixed_dictionaries({**key, "rssi": st.integers(-127, 0),
                                 "ap_id": st.integers(1, 6)}),
        "bt": st.fixed_dictionaries(
            {**key, "device_id": _text.filter(bool), "rssi": st.integers(-127, 0)},
            optional={"ms": st.integers(0, 999)}),
        "obd": st.fixed_dictionaries({**key, "ms": st.integers(0, 999),
                                      "pid": st.integers(0, codec.U32_MAX), "value": num}),
        "events": st.fixed_dictionaries({**key, "kind": _text.filter(bool)},
                                        optional={"detail": _text, "idx": st.integers(0, 9)}),
    }


def _batch_strategy(rows):
    return st.dictionaries(st.sampled_from(sorted(rows)), st.integers(1, 6),
                           min_size=1).flatmap(
        lambda counts: st.fixed_dictionaries(
            {name: st.lists(rows[name], min_size=n, max_size=n) for name, n in counts.items()}))


_rows = _row_strategies(_ts, _num | _i64)
_batches = _batch_strategy(_rows)
_bytes16 = st.binary(min_size=16, max_size=16)


@settings(max_examples=60, deadline=None)
@given(batch=_batches, seq_gap=st.integers(0, 10**6))
def test_client_json_size_is_the_payload_length(test_keypair, batch, seq_gap):
    session = ClientSession(HASH, TS, test_keypair.public_part,
                            pack_json_budget=400)  # several packets per batch
    session.begin(0.0)
    session.handle_auth_response(codec.AuthResponse(seq=1, time=TS, session_id=7))
    session._next_seq += seq_gap  # vary the digits of seq
    session.enqueue_rows(batch)
    session.pump(1.0)
    assert session._flight
    by_index = [row for _, rows in codec.write_order(codec.validate_streams(batch)[0])
                for row in rows]
    for pkt in session._flight.values():
        streams = {}
        for index, stream, _ in (row for run in pkt.runs for row in run_rows(run)):
            streams.setdefault(stream, []).append(by_index[index])
        payload = codec.decompress(crypto.sym_decrypt(session.key, pkt.blob[4:]))
        assert payload == codec.canonical_json({"seq": pkt.seq, "streams": streams})
        assert pkt.payload == payload  # the kept payload is what was sealed
    assert session.counters["json_bytes"] == sum(len(p.payload) for p in session._flight.values())


# rounds of: batches to enqueue; a budget the JSON of the next k buffered
# rows, each with one separator, fills to the byte or misses by one (or
# none); new packets to pump; acks of in-flight packets, each picked by its
# place in seq order and storing its rows modulo their count + 1 (None: all);
# and a packet given up, or a crash and a resume from the journal
_rounds = st.lists(st.tuples(
    st.lists(_batches, max_size=2),
    st.none() | st.tuples(st.integers(1, 12), st.integers(-1, 1)),
    st.integers(0, 4),
    st.lists(st.tuples(st.integers(0, 15), st.none() | st.integers(0, 3) | st.integers(0, 2000)),
             max_size=4),
    st.none() | st.just("resume") | st.integers(0, 15)), min_size=1, max_size=6)


def _started(keypair, j, budget, window):
    session = ClientSession(HASH, TS, keypair.public_part, journal=j,
                            pack_json_budget=budget, window=window)
    session.begin(0.0)
    session.handle_auth_response(codec.AuthResponse(seq=1, time=TS, session_id=7))
    return session


def _agree(session, model, j):
    assert buffered_rows(session) == list(model.buffer)
    assert session._buffered_bytes == sum(run.size for run in session._buffer)
    assert j.watermark == model.watermark
    released = session._released
    assert all(a < b < c for (_, a), (b, c) in zip(released, released[1:]))
    assert all(j.watermark < a < b for a, b in released)
    assert {i for a, b in released for i in range(a, b)} == model.released
    assert session.report().pending_rows == len(model.buffer) + sum(
        map(len, model.flight.values()))


@settings(max_examples=100, deadline=None)
@given(budget=st.integers(1, 700), window=st.integers(1, 4), rounds=_rounds)
def test_run_buffer_packs_and_releases_as_the_row_buffer(test_keypair, budget, window,
                                                         rounds):
    # the per-row buffer of tests/_buffer_oracle.py as the reference: every
    # packet's payload and row count, the buffered rows, the released indexes
    # and the journal's watermark agree after each step, across random batches,
    # budgets, partial and reordered acks, given-up packets and journal resumes
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "j.bin")
        j = Journal(path)
        session = _started(test_keypair, j, budget, window)
        model = RowBuffer(budget)
        journaled = []  # (stream, JSON) by journal index
        try:
            for batches, fill, new, acks, end in rounds:
                for batch in batches:
                    row_json = codec.rows_json(codec.split_streams(batch)[0])
                    model.enqueue(j.total_rows, row_json)
                    session.enqueue_rows(batch)
                    journaled += [(stream, data) for stream, rows in row_json.items()
                                  for data in rows]
                if fill is not None:
                    rows = list(model.buffer)[:fill[0]]
                    model.budget = session.pack_json_budget = max(
                        sum(len(data) + 1 for _, _, data in rows) + fill[1], 1)
                before = set(session._flight)
                session.pump(1.0, max_new=new)
                for seq in sorted(set(session._flight) - before):
                    pkt = session._flight[seq]
                    assert pkt.payload == model.take(seq)
                    assert pkt.row_count == len(model.flight[seq])
                _agree(session, model, j)
                for pick, stored in acks:
                    if not session._flight:
                        break
                    seq = sorted(session._flight)[pick % len(session._flight)]
                    sent = session._flight[seq].row_count
                    stored = sent if stored is None else stored % (sent + 1)
                    ack = session.handle_feedback(codec.FeedbackPacket(7, seq, stored))
                    assert (ack.sent_rows, ack.stored_rows) == (sent, stored)
                    model.feedback(seq, stored)
                    _agree(session, model, j)
                if end == "resume":  # a crash: what is in flight is lost
                    j.close()
                    j = Journal(path)
                    session = _started(test_keypair, j, model.budget, window)
                    model = RowBuffer(model.budget, [(i, *journaled[i]) for i in
                                                     range(j.watermark, len(journaled))],
                                      watermark=j.watermark)
                elif end is not None and session._flight:
                    seq = sorted(session._flight)[end % len(session._flight)]
                    session._fail_packet(session._flight[seq])
                    model.give_up(seq)
                _agree(session, model, j)
        finally:
            j.close()


@settings(max_examples=100, deadline=None)
@given(batch=_batches, seq=st.integers(0, codec.U32_MAX))
def test_data_payload_joins_rows_into_the_canonical_payload(batch, seq):
    validated, _ = codec.validate_streams(batch)
    row_json = {name: [codec.canonical_json(row) for row in rows]
                for name, rows in validated.items()}
    assert codec.data_payload(seq, row_json) == codec.canonical_json(
        {"seq": seq, "streams": validated})


def _reference_encode(pkt: codec.DataPacket, key: bytes, iv: bytes) -> bytes:
    """Reference encoder: validate, then a plain ``json.dumps`` in canonical form."""
    streams, _ = codec.validate_streams(pkt.streams)
    text = json.dumps({"seq": pkt.seq, "streams": streams}, sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False, allow_nan=False)
    body = zlib.compress(text.encode("utf-8"), codec.COMPRESSION_LEVEL)
    return struct.pack("!I", pkt.session_id) + crypto.sym_encrypt(key, body, iv=iv)


@settings(max_examples=60, deadline=None)
@given(batch=_batches, session_id=st.integers(1, codec.U32_MAX),
       seq=st.integers(0, codec.U32_MAX), key=_bytes16, iv=_bytes16)
def test_encode_data_packet_matches_reference(batch, session_id, seq, key, iv):
    pkt = codec.DataPacket(session_id=session_id, seq=seq, streams=batch)
    assert codec.encode_data_packet(pkt, key, iv=iv) == _reference_encode(pkt, key, iv)


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _num | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8)
_poison = (st.sampled_from([float("nan"), float("inf"), float("-inf")])
           | st.dictionaries(st.integers() | st.booleans() | st.none(), _json, min_size=1))
_poisoned = st.recursive(
    _poison,
    lambda inner: (
        st.tuples(st.lists(_json, max_size=2), inner).map(lambda t: t[0] + [t[1]])
        | st.tuples(st.dictionaries(_text, _json, max_size=2), _text, inner)
        .map(lambda t: {**t[0], t[1]: t[2]})),
    max_leaves=4)


@settings(max_examples=100, deadline=None)
@given(value=_poisoned)
def test_serialize_rejects_non_finite_numbers_and_non_string_keys(value):
    # an auth request's identifiers are the one free-form map in a payload
    # the program serializes; payload_dict checks them before the encoder
    for identifiers in ({"x": value}, value):
        req = codec.AuthRequest(seq=1, user_hash=HASH, time=TS, key=bytes(16),
                                identifiers=identifiers)
        with pytest.raises(ValueError):
            codec.serialize_payload(req)


# ---------------------------------------------------------------------------
# row validation against a reference copy of the per-stream if-chain

_REF_MOTION = frozenset({"accel", "gyro", "mag"})
_REF_MS_REQUIRED = frozenset({"gps", "obd"})
_REF_MAX_SAMPLES = 1024


def _ref_number(row, key, required=True):
    value = row.get(key)
    if value is None:
        if required:
            raise codec.MalformedPayload(f"row missing field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise codec.MalformedPayload(f"row field {key!r} is not a number")
    if isinstance(value, float) and not math.isfinite(value):
        raise codec.MalformedPayload(f"row field {key!r} is not finite")
    if isinstance(value, int) and not -(2**63) <= value <= 2**63 - 1:
        raise codec.MalformedPayload(f"row field {key!r} out of range")
    return value


def _ref_int(row, key, *, required=True, lo=0, hi=2**63 - 1):
    value = row.get(key)
    if value is None:
        if required:
            raise codec.MalformedPayload(f"row missing field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, int) or not (lo <= value <= hi):
        raise codec.MalformedPayload(f"row field {key!r} out of range")
    return value


def _ref_str(row, key, *, required=True, allow_empty=True):
    value = row.get(key)
    if value is None:
        if required:
            raise codec.MalformedPayload(f"row missing field {key!r}")
        return None
    if not isinstance(value, str) or (not allow_empty and not value):
        raise codec.MalformedPayload(f"row field {key!r} is not a valid string")
    if any(0xD800 <= ord(c) <= 0xDFFF for c in value):  # no UTF-8 form
        raise codec.MalformedPayload(f"row field {key!r} is not valid UTF-8")
    return value


def _reference_validate_row(stream, row):
    """Reference validator: one hand-written branch per stream."""
    if not isinstance(row, dict):
        raise codec.MalformedPayload("row is not an object")
    out = {"ts": _ref_int(row, "ts")}
    ms = _ref_int(row, "ms", required=stream in _REF_MS_REQUIRED, lo=0, hi=999)
    if ms is not None:
        out["ms"] = ms
    idx = _ref_int(row, "idx", required=False, hi=codec.U32_MAX)
    if idx:
        out["idx"] = idx

    if stream == "gps":
        for name in ("lat", "lon", "alt", "speed", "accuracy"):
            out[name] = _ref_number(row, name)
        out["device_ts"] = _ref_int(row, "device_ts")
    elif stream in _REF_MOTION:
        samples = row.get("samples")
        if not isinstance(samples, list) or not samples or len(samples) > _REF_MAX_SAMPLES:
            raise codec.MalformedPayload("samples must be a non-empty bounded list")
        for triple in samples:
            if (
                not isinstance(triple, list)
                or len(triple) != 3
                or any(
                    isinstance(v, bool) or not isinstance(v, int) or not -32768 <= v <= 32767
                    for v in triple
                )
            ):
                raise codec.MalformedPayload("samples must be 16-bit [x, y, z] triplets")
        rate = _ref_number(row, "rate")
        if rate <= 0:
            raise codec.MalformedPayload("rate must be positive")
        out["samples"] = [list(t) for t in samples]
        out["rate"] = rate
    elif stream == "wifi":
        out["rssi"] = _ref_int(row, "rssi", lo=-127, hi=0)
        if "ap_id" in row:
            out["ap_id"] = _ref_int(row, "ap_id", lo=1, hi=codec.U32_MAX)
        else:
            out["mac"] = _ref_str(row, "mac", allow_empty=False)
            out["essid"] = _ref_str(row, "essid")
    elif stream == "bt":
        out["device_id"] = _ref_str(row, "device_id", allow_empty=False)
        out["rssi"] = _ref_int(row, "rssi", lo=-127, hi=0)
    elif stream == "pressure":
        out["hpa"] = _ref_number(row, "hpa")
    elif stream == "obd":
        out["pid"] = _ref_int(row, "pid", hi=codec.U32_MAX)
        out["value"] = _ref_number(row, "value")
    elif stream == "events":
        out["kind"] = _ref_str(row, "kind", allow_empty=False)
        out["detail"] = _ref_str(row, "detail", required=False)
        if out["detail"] is None:
            del out["detail"]
    return out


class _Int(int):
    pass


class _Float(float):
    pass


class _Str(str):
    pass


class _LoudInt(int):
    """Prints as something other than its value; JSON writes the value."""

    def __repr__(self):
        return "loud"

    __str__ = __repr__

    def __format__(self, spec):
        return "loud"


class _LoudFloat(float):
    __repr__ = __str__ = _LoudInt.__repr__
    __format__ = _LoudInt.__format__


_DROP = object()  # mutation: remove the key
_FIELDS = ("ts", "ms", "idx", "lat", "lon", "alt", "speed", "accuracy", "device_ts", "rate",
           "samples", "rssi", "ap_id", "mac", "essid", "device_id", "hpa", "pid", "value",
           "kind", "detail", "junk")
_ODD_VALUES = (
    _DROP, None, True, False, float("nan"), float("inf"), float("-inf"), -0.0, 0.5, -1.5,
    -1, 0, 1, 5, 999, 1000, -127, -128, 32767, 32768, codec.U32_MAX, codec.U32_MAX + 1,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, "", "x", "é", "\ud800", "a\udfff",
    'a"b', "a\\b", "a\nb", "\x7f", [], {},
    [[1, 2, 3]], [[1, 2]], [[1, 2, 3, 4]], [[0, 0, 32768]], [[True, 0, 0]], [[1.0, 2, 3]],
    [[1, 2, 3]] * codec.MAX_SAMPLES_PER_ROW, [[1, 2, 3]] * (codec.MAX_SAMPLES_PER_ROW + 1),
    # subclasses are accepted where their base type is, bool nowhere
    _Int(0), _Int(7), _Int(2**63), _Float(2.5), _Float("inf"), _Str("x"), _Str("\ud800"),
    [[_Int(-32768), 0, 0]], [[_Int(32768), 0, 0]],
    # and serialize as the value, whatever the subclass prints
    _LoudInt(7), _LoudFloat(-2.5), [[_LoudInt(5), 0, 0]])
_mutations = st.lists(st.tuples(st.sampled_from(_FIELDS), st.sampled_from(_ODD_VALUES)),
                      max_size=3)


_EXAMPLE_ROWS = [
    ("gps", {"ts": TS, "ms": 5, "lat": 1.5, "lon": -2.5, "alt": 3, "speed": 0.0,
             "accuracy": 4.0, "device_ts": TS - 1}),
    ("accel", {"ts": TS, "idx": 2, "rate": 50, "samples": [[1, -2, 3], [0, 0, 0]]}),
    ("gyro", {"ts": TS, "rate": 0.5, "samples": [[-32768, 32767, 0]]}),
    ("mag", {"ts": TS, "ms": 999, "rate": 10.0, "samples": [[4, 5, 6]]}),
    ("wifi", {"ts": TS, "mac": "aa:bb", "essid": "", "rssi": -127}),
    ("wifi", {"ts": TS, "idx": 1, "ap_id": 3, "rssi": 0}),
    ("bt", {"ts": TS, "device_id": "mouse", "rssi": -40}),
    ("pressure", {"ts": 0, "hpa": 1013.25}),
    ("obd", {"ts": 2**63 - 1, "ms": 0, "pid": codec.U32_MAX, "value": -1}),
    ("events", {"ts": TS, "kind": "lap", "detail": "é"}),
]


def _mutated(row: dict, mutations) -> dict:
    row = dict(row)
    for key, value in mutations:
        if value is _DROP:
            row.pop(key, None)
        else:
            row[key] = value
    return row


def _single_mutations():
    """(stream, row) for each example row with one field set or dropped."""
    for stream, base in _EXAMPLE_ROWS:
        for key in _FIELDS:
            for value in _ODD_VALUES:
                yield stream, _mutated(base, [(key, value)])


def _outcome(validate, stream, row):
    try:
        return validate(stream, row)
    except codec.MalformedPayload:
        return "malformed"


_not_a_row = st.sampled_from([None, [], "row", 7]) | st.none()


def _draw_row(data, source, mutations, not_a_row):
    row = _mutated(data.draw(_rows[source]), mutations)
    if not_a_row is not None and data.draw(st.integers(0, 9)) == 0:
        return not_a_row
    return row


# ---------------------------------------------------------------------------
# row_json against validation followed by the encoder


def _row_json(stream, row):
    return codec.STREAM_SPECS[stream].row_json(row)


def _reference_row_json(stream, row):
    """The reference validator, then the canonical encoder."""
    return codec.canonical_json(_reference_validate_row(stream, row))


def test_row_json_matches_the_encoded_reference_under_each_single_mutation():
    for _, row in _single_mutations():
        for stream in STREAMS:
            expected = _outcome(_reference_row_json, stream, row)
            assert _outcome(_row_json, stream, row) == expected, (stream, row)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), source=st.sampled_from(STREAMS), mutations=_mutations,
       target=st.sampled_from(STREAMS) | st.none(), not_a_row=_not_a_row)
def test_row_json_matches_the_encoded_reference(data, source, mutations, target, not_a_row):
    row = _draw_row(data, source, mutations, not_a_row)
    stream = source if target is None else target
    expected = _outcome(_reference_row_json, stream, row)
    assert _outcome(_row_json, stream, row) == expected


# ---------------------------------------------------------------------------
# the one-pass parameter builder against the two passes it replaced

_REF_COLUMNS = {"gps": ("lat", "lon", "alt", "speed", "accuracy", "device_ts"),
                "wifi": ("ap_id", "rssi"), "bt": ("device_id", "rssi"), "pressure": ("hpa",),
                "obd": ("pid", "value"), "events": ("kind", "detail")}


def _reference_row_params(stream, row):
    """Model of ``StreamSpec.row_params``: the reference validator, then the
    walk that storage used to make over the validated dict into the INSERT
    parameters, without the session id and with a wifi row's (mac, essid)
    pair not yet interned."""
    out = _reference_validate_row(stream, row)
    key = (out["ts"], out.get("ms", -1), out.get("idx", 0))
    if stream in _REF_MOTION:
        flat = [v for triple in out["samples"] for v in triple]
        return (*key, out["rate"], len(out["samples"]), struct.pack(f"<{len(flat)}h", *flat))
    if stream == "wifi" and "ap_id" not in out:
        return (*key, (out["mac"], out["essid"]), out["rssi"])
    return (*key, *map(out.get, _REF_COLUMNS[stream]))


def _row_params(stream, row):
    return codec.STREAM_SPECS[stream].row_params(row)


def _typed(outcome):
    """An outcome whose values also compare by kind: True is not 1, 1.0 is not 1."""
    if not isinstance(outcome, tuple):
        return outcome
    return tuple((v, type(v) is bool, isinstance(v, float)) for v in outcome)


def test_row_params_match_the_two_pass_model_under_each_single_mutation():
    for _, row in _single_mutations():
        for stream in STREAMS:
            expected = _typed(_outcome(_reference_row_params, stream, row))
            assert _typed(_outcome(_row_params, stream, row)) == expected, (stream, row)


@settings(max_examples=600, deadline=None)
@given(data=st.data(), source=st.sampled_from(STREAMS), mutations=_mutations,
       target=st.sampled_from(STREAMS) | st.none(), not_a_row=_not_a_row)
def test_row_params_match_the_two_pass_model(data, source, mutations, target, not_a_row):
    row = _draw_row(data, source, mutations, not_a_row)
    stream = source if target is None else target
    expected = _typed(_outcome(_reference_row_params, stream, row))
    assert _typed(_outcome(_row_params, stream, row)) == expected


# ---------------------------------------------------------------------------
# SQLite storage against a dict model of it

_REF_NUMBER_FIELDS = frozenset({"lat", "lon", "alt", "speed", "accuracy", "rate", "hpa", "value"})


def logical_row_bytes(stream: str, row: dict) -> int:
    """A row's storage cost in bytes, the unit the rate figures use."""
    spec = codec.STREAM_SPECS[stream]
    total = spec.row_bytes
    if spec.sample_bytes:
        total += spec.sample_bytes * len(row["samples"])
    for name in spec.text_bytes:
        total += len((row.get(name) or "").encode())
    return total


class _StorageOracle:
    """What SqliteStorage holds after a sequence of writes, as dicts: the first
    write of a (session, stream, ts, ms, idx) key wins, with absent ms stored
    as -1 and absent idx as 0; number fields read back as floats; a wifi row's
    (mac, essid) is interned to the next ap_id on first sight."""

    def __init__(self, sessions: int):
        self.sessions = sessions
        self.rows: dict[tuple, dict] = {}
        self.aps: dict[tuple[str, str], int] = {}

    def write_rows(self, sid: int, streams: dict[str, list[dict]]) -> int:
        for stream, rows in sorted(streams.items()):
            for row in rows:
                fields = {name: float(v) if name in _REF_NUMBER_FIELDS else v
                          for name, v in row.items() if name not in ("ts", "ms", "idx")}
                if "mac" in fields:
                    pair = fields.pop("mac"), fields.pop("essid")
                    fields["ap_id"] = self.aps.setdefault(pair, len(self.aps) + 1)
                key = (sid, stream, row["ts"], row.get("ms", -1), row.get("idx", 0))
                self.rows.setdefault(key, fields)
        return sum(len(rows) for rows in streams.values())

    def read_session_rows(self, sid):
        pairs = {ap_id: pair for pair, ap_id in self.aps.items()}
        out: dict[str, list[dict]] = {}
        for key in sorted(self.rows, key=lambda k: k[2:]):
            row_sid, stream, ts, ms, idx = key
            if row_sid != sid:
                continue
            row = {"ts": ts, **({"ms": ms} if ms != -1 else {}),
                   **({"idx": idx} if idx else {}), **self.rows[key]}
            if stream == "wifi" and row["ap_id"] in pairs:
                row["mac"], row["essid"] = pairs[row["ap_id"]]
            out.setdefault(stream, []).append(row)
        return out

    def session_tally(self, sid: int) -> dict[str, tuple[int, int]]:
        tally: dict[str, tuple[int, int]] = {}
        for (row_sid, stream, *_), fields in self.rows.items():
            if row_sid == sid:
                n, total = tally.get(stream, (0, 0))
                tally[stream] = n + 1, total + logical_row_bytes(stream, fields)
        return tally

    def storage_stats(self) -> dict:
        rows: dict[str, int] = {}
        logical: dict[str, int] = {}
        for (_, stream, *_), fields in self.rows.items():
            rows[stream] = rows.get(stream, 0) + 1
            logical[stream] = logical.get(stream, 0) + logical_row_bytes(stream, fields)
        return {"sessions": self.sessions, "access_points": len(self.aps), "rows": rows,
                "logical_bytes": logical, "total_rows": sum(rows.values()),
                "total_logical_bytes": sum(logical.values())}


# timestamps 0-2 make rows collide on their natural key, where the first write wins
_colliding = _batch_strategy(_row_strategies(st.integers(0, 2) | _ts, _num | _i64))
_writes = st.lists(st.tuples(st.integers(0, 1), _colliding
                             | st.integers(0, 9)),  # an int replays an earlier packet
                   min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(writes=_writes)
def test_sqlite_storage_matches_dict_model(writes):
    sql = storage.SqliteStorage(":memory:")
    try:
        sids = [sql.upsert_session(f"{n:0>32}", TS, bytes(16)) for n in range(2)]
        model = _StorageOracle(sessions=len(sids))
        sent: list[tuple[int, dict]] = []
        for who, batch in writes:
            if isinstance(batch, int):  # a replay, of rows already validated
                if not sent:
                    continue
                sid, streams = sent[batch % len(sent)]
                received = streams
            else:  # SQLite gets the rows as a receiver does, the model validated ones
                sid, (streams, _) = sids[who], codec.validate_streams(batch)
                sent.append((sid, streams))
                received = batch
            assert sql.write_rows(sid, received) == model.write_rows(sid, streams)
        for sid in sids:
            assert sql.read_session_rows(sid) == model.read_session_rows(sid)
        stats = sql.storage_stats()
        assert stats == model.storage_stats()
        summed: dict[str, tuple[int, int]] = {}
        for sid in sids:  # each session's tally, and all of them add up to the store's
            tally = sql.session_tally(sid)
            assert tally == model.session_tally(sid)
            for stream, (n, total) in tally.items():
                rows, logical = summed.get(stream, (0, 0))
                summed[stream] = rows + n, logical + total
        assert summed == {stream: (n, stats["logical_bytes"][stream])
                          for stream, n in stats["rows"].items()}
    finally:
        sql.close()


_wild = (st.sampled_from(_ODD_VALUES) | st.integers()
         | st.text(st.characters(exclude_categories=()), max_size=4))  # lone surrogates too


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stream=st.sampled_from(STREAMS),
       beyond=st.sampled_from([2**63, -(2**63) - 1]))
def test_validation_admits_only_what_sqlite_holds(data, stream, beyond):
    row = data.draw(_rows[stream])
    numeric = sorted(name for name, v in row.items() if type(v) in (int, float))
    with pytest.raises(codec.MalformedPayload):
        _row_json(stream, {**row, data.draw(st.sampled_from(numeric)): beyond})
    for key in data.draw(st.lists(st.sampled_from(sorted(row)), max_size=3)):
        value = data.draw(_wild)
        if value is _DROP:
            row.pop(key, None)
        else:
            row[key] = value
    try:
        accepted = json.loads(_row_json(stream, row))
    except codec.MalformedPayload:
        return
    sql = storage.SqliteStorage(":memory:")
    try:
        sid = sql.upsert_session(HASH, TS, bytes(16))
        assert sql.write_rows(sid, {stream: [accepted]}) == 1
    finally:
        sql.close()


# ---------------------------------------------------------------------------
# the list checks (the compiled row checks and, on long lists, the JSON
# kernel) against the reference row checks they stand in for


def _listed(convert, rows):
    """What converting a list of rows gives: the list, or the type and
    message of the exception raised."""
    try:
        return convert(rows)
    except Exception as exc:
        return type(exc), str(exc)


def _assert_kernels_match_the_row_checks(stream, rows):
    spec = codec.STREAM_SPECS[stream]
    expected = _listed(lambda rows: [spec.row_json(row) for row in rows], rows)
    assert _listed(spec.rows_json, rows) == expected, (stream, rows)
    expected = _listed(lambda rows: [_typed(spec.row_params(row)) for row in rows], rows)
    assert _listed(lambda rows: list(map(_typed, spec.rows_params(rows))), rows) == expected, (
        stream, rows)


def _among(rows, fill, size):
    """rows in the middle of copies of fill, size rows in all."""
    pad = size - len(rows)
    return [fill] * (pad // 2) + rows + [fill] * (pad - pad // 2)


def _padded(rows, fill):
    """rows among copies of fill, enough for the JSON kernel to take the list."""
    return _among(rows, fill, 2 * codec._KERNEL_MIN_ROWS)


def test_stream_kernels_match_the_row_checks_under_each_single_mutation():
    # one odd row alone, among 1-30 rows of the fast case and among enough
    # of them for the JSON kernel; a wifi row among rows that name their
    # access point the other way
    fast = {stream: dict(row, alt=0.5) if stream == "gps" else row  # numbers all floats
            for stream, row in _EXAMPLE_ROWS}
    for i, (stream, row) in enumerate(_single_mutations()):
        for rows in ([row], _among([row], fast[stream], 2 + i % (codec._KERNEL_MIN_ROWS - 2)),
                     _padded([row], fast[stream])):
            _assert_kernels_match_the_row_checks(stream, rows)
    for stream, row in _EXAMPLE_ROWS:
        _assert_kernels_match_the_row_checks(stream, [])
        _assert_kernels_match_the_row_checks(stream, _padded([row], fast[stream]))
        _assert_kernels_match_the_row_checks(stream, _padded([], row))


@settings(max_examples=600, deadline=None)
@given(data=st.data(), stream=st.sampled_from(STREAMS), size=st.integers(1, 5),
       short=st.booleans())
def test_stream_kernels_match_the_row_checks(data, stream, size, short):
    examples = [row for name, row in _EXAMPLE_ROWS if name == stream]  # wifi: both kinds
    rows = [data.draw(st.sampled_from(examples)) for _ in range(size)]
    for i in data.draw(st.lists(st.integers(0, size - 1), max_size=size)):
        rows[i] = _mutated(rows[i], data.draw(_mutations))
    if data.draw(st.integers(0, 9)) == 0:
        rows[data.draw(st.integers(0, size - 1))] = data.draw(_not_a_row)
    if short:  # one row, or up to one fewer than the JSON kernel takes
        rows = _among(rows, rows[0], data.draw(st.integers(size, codec._KERNEL_MIN_ROWS - 1)))
    else:
        rows = _padded(rows, rows[0])
    _assert_kernels_match_the_row_checks(stream, rows)


# ---------------------------------------------------------------------------
# mutated blobs against the ingest core

_edits = st.lists(st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2**16), st.integers(0, 7)),
    st.tuples(st.just("cut"), st.integers(0, 2**16)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=32)),
    # a prefix of another valid blob, then the rest of this one
    st.tuples(st.just("splice"), st.integers(0, 2**16), st.sampled_from(["auth", "data"]))),
    min_size=1, max_size=3)


def _edited(blob: bytes, edits, donors: dict[str, bytes]) -> bytes:
    for edit in edits:
        if edit[0] == "flip" and blob:
            at = edit[1] % len(blob)
            blob = blob[:at] + bytes([blob[at] ^ 1 << edit[2]]) + blob[at + 1:]
        elif edit[0] == "cut":
            blob = blob[:edit[1] % (len(blob) + 1)]
        elif edit[0] == "extend":
            blob += edit[1]
        elif edit[0] == "splice":
            donor = donors[edit[2]]
            at = edit[1] % (len(donor) + 1)
            blob = donor[:at] + blob[at:]
    return blob


def _snapshot(st_, sids):
    return (st_.storage_stats(), [st_.lookup_session_key(sid) for sid in sids],
            [st_.read_session_rows(sid) for sid in sids])


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["auth", "data"]), edits=_edits, batch=_batches)
def test_mutated_blobs_never_raise_and_are_each_accounted_for(small_keypair, kind, edits,
                                                              batch):
    st_ = storage.open_storage("memory")
    core = ingest.IngestCore(small_keypair.private_part, st_)
    keys = [bytes([n]) * 16 for n in (1, 2)]
    sids = []
    for n, key in enumerate(keys):
        req = codec.AuthRequest(seq=n, user_hash=crypto.hash_user(f"{n}@example.com"),
                                time=TS, key=key)
        reply = core.handle_auth_packet(codec.encode_auth_request(req, small_keypair.public_part))
        sids.append(codec.decode_auth_response(reply, key).session_id)
    donors = {  # valid, never delivered: each would change storage
        "auth": codec.encode_auth_request(
            codec.AuthRequest(seq=7, user_hash=HASH, time=TS, key=bytes(16)),
            small_keypair.public_part),
        "data": codec.encode_data_packet(
            codec.DataPacket(session_id=sids[0], seq=3, streams=batch), keys[0])}
    before = _snapshot(st_, sids)
    handle = core.handle_auth_packet if kind == "auth" else core.handle_data_packet
    if handle(_edited(donors[kind], edits, donors)) is None:
        assert _snapshot(st_, sids) == before
    for name in ("auth", "data"):
        count = core.metrics.get
        discards = sum(v for k, v in core.metrics.items() if k.startswith(f"{name}_discard_"))
        assert count(f"{name}_packets", 0) == count(f"{name}_ok", 0) + discards
