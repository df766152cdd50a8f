"""Property tests for the data-packet encoder and the client's payload sizes.

The client counts a packet's canonical JSON length from per-row sizes
instead of serializing the payload a second time, and ``encode_data_packet``
serializes rows that ``validate_streams`` has rebuilt without walking them
again. Both must agree byte for byte with a plain serialization.
"""

import json
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from senselink import codec, crypto
from senselink.client import ClientSession

TS = 1_400_000_000
HASH = crypto.hash_user("props@example.com")

_text = st.text(max_size=12)  # includes non-ASCII, which costs several UTF-8 bytes
_ts = st.integers(min_value=0, max_value=codec.U64_MAX)
_num = st.floats(allow_nan=False, allow_infinity=False)
_rows = {
    "pressure": st.fixed_dictionaries({"ts": _ts, "hpa": _num}),
    "gps": st.fixed_dictionaries({
        "ts": _ts, "ms": st.integers(0, 999), "lat": _num, "lon": _num, "alt": _num,
        "speed": _num, "accuracy": _num, "device_ts": _ts}),
    "accel": st.fixed_dictionaries({
        "ts": _ts, "rate": st.floats(min_value=0.5, max_value=400.0),
        "samples": st.lists(st.lists(st.integers(-32768, 32767), min_size=3, max_size=3),
                            min_size=1, max_size=4)}),
    "wifi": st.fixed_dictionaries({
        "ts": _ts, "rssi": st.integers(-127, 0), "mac": _text.filter(bool), "essid": _text}),
    "events": st.fixed_dictionaries({"ts": _ts, "kind": _text.filter(bool)},
                                    optional={"detail": _text, "idx": st.integers(0, 9)}),
}
_batches = st.dictionaries(st.sampled_from(sorted(_rows)), st.integers(1, 6),
                           min_size=1).flatmap(
    lambda counts: st.fixed_dictionaries(
        {name: st.lists(_rows[name], min_size=n, max_size=n) for name, n in counts.items()}))
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
    for pkt in session._flight.values():
        payload = codec.decompress(crypto.sym_decrypt(session.key, pkt.blob[4:]))
        assert payload == codec.serialize_payload({"seq": pkt.seq, "streams": pkt.streams})
        assert pkt.json_size == len(payload)
    assert session.counters["json_bytes"] == sum(p.json_size for p in session._flight.values())


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
