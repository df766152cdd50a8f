"""Property tests against reference implementations.

The client serializes each row once and joins a packet's payload from those
bytes (``codec.data_payload``), and ``encode_data_packet`` serializes rows
that ``validate_streams`` has rebuilt without walking them again. Both must
agree byte for byte with a plain serialization.

Row validation is driven by the stream table in ``codec``; it must accept,
reject and normalize exactly as a hand-written branch per stream does, and
admit only what SQLite holds. SQLite storage must store and report what a
dict model of it does.
"""

import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from senselink import codec, crypto, storage
from senselink.client import ClientSession
from senselink.journal import iter_batch_rows

TS = 1_400_000_000
HASH = crypto.hash_user("props@example.com")

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
    by_index = [row for _, row in iter_batch_rows(codec.validate_streams(batch)[0])]
    for pkt in session._flight.values():
        streams = {}
        for entry in pkt.entries:
            streams.setdefault(entry.stream, []).append(by_index[entry.index])
        payload = codec.decompress(crypto.sym_decrypt(session.key, pkt.blob[4:]))
        assert payload == codec.serialize_payload({"seq": pkt.seq, "streams": streams})
        assert pkt.json_size == len(payload)
    assert session.counters["json_bytes"] == sum(p.json_size for p in session._flight.values())


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
    with pytest.raises(ValueError):
        codec.serialize_payload({"x": value})


# ---------------------------------------------------------------------------
# row validation against a reference copy of the per-stream if-chain

_REF_STREAMS = ("gps", "accel", "gyro", "mag", "wifi", "bt", "pressure", "obd", "events")
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
    if stream not in _REF_STREAMS:
        raise codec.MalformedPayload(f"unknown stream {stream!r}")
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


_DROP = object()  # mutation: remove the key
_FIELDS = ("ts", "ms", "idx", "lat", "lon", "alt", "speed", "accuracy", "device_ts", "rate",
           "samples", "rssi", "ap_id", "mac", "essid", "device_id", "hpa", "pid", "value",
           "kind", "detail", "junk")
_ODD_VALUES = (
    _DROP, None, True, False, float("nan"), float("inf"), float("-inf"), -0.0, 0.5, -1.5,
    -1, 0, 1, 5, 999, 1000, -127, -128, 32767, 32768, codec.U32_MAX, codec.U32_MAX + 1,
    2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64, "", "x", "é", "\ud800", "a\udfff", [], {},
    [[1, 2, 3]], [[1, 2]], [[0, 0, 32768]], [[True, 0, 0]], [[1.0, 2, 3]],
    [[1, 2, 3]] * (codec.MAX_SAMPLES_PER_ROW + 1))
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


def test_validate_row_matches_reference_under_each_single_mutation():
    for source, base in _EXAMPLE_ROWS:
        for key in _FIELDS:
            for value in _ODD_VALUES:
                row = dict(base)
                if value is _DROP:
                    row.pop(key, None)
                else:
                    row[key] = value
                for stream in codec.STREAMS + ("heart_rate",):
                    expected = _outcome(_reference_validate_row, stream, row)
                    assert _outcome(codec.validate_row, stream, row) == expected, (stream, row)


def _outcome(validate, stream, row):
    try:
        return validate(stream, row)
    except codec.MalformedPayload:
        return "malformed"


@settings(max_examples=600, deadline=None)
@given(data=st.data(), source=st.sampled_from(codec.STREAMS), mutations=_mutations,
       target=st.sampled_from(codec.STREAMS + ("heart_rate",)) | st.none(),
       not_a_row=st.sampled_from([None, [], "row", 7]) | st.none())
def test_validate_row_matches_reference(data, source, mutations, target, not_a_row):
    row = data.draw(_rows[source])
    for key, value in mutations:
        if value is _DROP:
            row.pop(key, None)
        else:
            row[key] = value
    if not_a_row is not None and data.draw(st.integers(0, 9)) == 0:
        row = not_a_row
    stream = source if target is None else target  # mostly a row of its own stream
    expected = _outcome(_reference_validate_row, stream, row)
    assert _outcome(codec.validate_row, stream, row) == expected


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

    def read_session_rows(self, sid, streams=None, start_ts=None, end_ts=None):
        pairs = {ap_id: pair for pair, ap_id in self.aps.items()}
        out: dict[str, list[dict]] = {}
        for key in sorted(self.rows, key=lambda k: k[2:]):
            row_sid, stream, ts, ms, idx = key
            if (row_sid != sid or (streams and stream not in streams)
                    or (start_ts is not None and ts < start_ts)
                    or (end_ts is not None and ts >= end_ts)):
                continue
            row = {"ts": ts, **({"ms": ms} if ms != -1 else {}),
                   **({"idx": idx} if idx else {}), **self.rows[key]}
            if stream == "wifi" and row["ap_id"] in pairs:
                row["mac"], row["essid"] = pairs[row["ap_id"]]
            out.setdefault(stream, []).append(row)
        return out

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
@given(writes=_writes, lo=st.integers(0, 2**62 - 1), span=st.integers(0, 2**62))
def test_sqlite_storage_matches_dict_model(writes, lo, span):
    sql = storage.SqliteStorage(":memory:")
    try:
        sids = [sql.upsert_session(f"{n:0>32}", TS, bytes(16)) for n in range(2)]
        model = _StorageOracle(sessions=len(sids))
        sent: list[tuple[int, dict]] = []
        for who, batch in writes:
            if isinstance(batch, int):
                if not sent:
                    continue
                sid, streams = sent[batch % len(sent)]
            else:
                sid, (streams, _) = sids[who], codec.validate_streams(batch)
                sent.append((sid, streams))
            assert sql.write_rows(sid, streams) == model.write_rows(sid, streams)
        for sid in sids:
            assert sql.read_session_rows(sid) == model.read_session_rows(sid)
            picked = (["wifi", "accel", "events"], lo, lo + span)
            assert sql.read_session_rows(sid, *picked) == model.read_session_rows(sid, *picked)
        assert sql.storage_stats() == model.storage_stats()
    finally:
        sql.close()


_wild = (st.sampled_from(_ODD_VALUES) | st.integers()
         | st.text(st.characters(exclude_categories=()), max_size=4))  # lone surrogates too


@settings(max_examples=300, deadline=None)
@given(data=st.data(), stream=st.sampled_from(codec.STREAMS),
       beyond=st.sampled_from([2**63, -(2**63) - 1]))
def test_validation_admits_only_what_sqlite_holds(data, stream, beyond):
    row = data.draw(_rows[stream])
    numeric = sorted(name for name, v in row.items() if type(v) in (int, float))
    with pytest.raises(codec.MalformedPayload):
        codec.validate_row(stream, {**row, data.draw(st.sampled_from(numeric)): beyond})
    for key in data.draw(st.lists(st.sampled_from(sorted(row)), max_size=3)):
        value = data.draw(_wild)
        if value is _DROP:
            row.pop(key, None)
        else:
            row[key] = value
    try:
        accepted = codec.validate_row(stream, row)
    except codec.MalformedPayload:
        return
    sql = storage.SqliteStorage(":memory:")
    try:
        sid = sql.upsert_session(HASH, TS, bytes(16))
        assert sql.write_rows(sid, {stream: [accepted]}) == 1
    finally:
        sql.close()
