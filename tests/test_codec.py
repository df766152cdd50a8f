import dataclasses
import json
import random
import zlib

import pytest

from senselink import codec, crypto

TS = 1_400_000_000


def make_key(tag: int = 0) -> bytes:
    return bytes((tag + i) % 256 for i in range(16))


# ---------------------------------------------------------------------------
# canonical serialization


def test_canonical_auth_response_bytes():
    resp = codec.AuthResponse(seq=1, time=1400000000, session_id=42)
    assert codec.serialize_payload(resp) == b'{"seq":1,"session_id":42,"time":1400000000}'


def test_canonical_feedback_bytes():
    fb = codec.FeedbackPacket(session_id=9, seq=2, stored=6)
    assert codec.serialize_payload(fb) == b'{"seq":2,"stored":6}'


def test_canonical_form_is_sorted_compact_utf8():
    pkt = codec.DataPacket(session_id=1, seq=3, streams={
        "events": [{"ts": TS, "kind": "marker", "detail": "café"}],
    })
    data = codec.serialize_payload(pkt)
    assert b" " not in data
    assert "café".encode("utf-8") in data  # ensure_ascii off: raw UTF-8
    keys = list(json.loads(data)["streams"]["events"][0])
    assert keys == sorted(keys)


def test_serialization_is_deterministic():
    streams = {"pressure": [{"ts": TS + i, "hpa": 990.0 + i} for i in range(50)]}
    a = codec.serialize_payload(codec.DataPacket(session_id=1, seq=1, streams=streams))
    b = codec.serialize_payload(codec.DataPacket(session_id=1, seq=1, streams=streams))
    assert a == b


def test_serialize_rejects_non_finite_numbers():
    with pytest.raises(ValueError):
        codec.serialize_payload({"x": float("nan")})
    with pytest.raises(ValueError):
        codec.serialize_payload({"x": float("inf")})


def test_auth_time_ends_at_signed_64_bits():
    req = codec.AuthRequest(seq=1, user_hash="ab" * 16, time=2**63 - 1, key=bytes(16))
    wire = codec.serialize_payload(req)
    assert codec.deserialize_payload(wire, codec.AuthRequest) == req
    with pytest.raises(ValueError):
        codec.serialize_payload(dataclasses.replace(req, time=2**63))
    with pytest.raises(codec.MalformedPayload):
        codec.deserialize_payload(wire.replace(b"807", b"808"), codec.AuthRequest)  # 2**63


def test_key_serialized_as_lowercase_hex():
    req = codec.AuthRequest(seq=1, user_hash="ab" * 16, time=TS, key=bytes([0xAB] * 16))
    obj = json.loads(codec.serialize_payload(req))
    assert obj["key"] == "ab" * 16


def test_payload_roundtrip_random(test_keypair):
    rng = random.Random(1234)
    for _ in range(200):
        req = codec.AuthRequest(
            seq=rng.randrange(2**32),
            user_hash=crypto.hash_user(f"user{rng.randrange(10**6)}@example.com"),
            time=rng.randrange(2**40),
            key=bytes(rng.randrange(256) for _ in range(16)),
            identifiers={"model": f"m{rng.randrange(100)}"} if rng.random() < 0.5 else None,
        )
        back = codec.deserialize_payload(codec.serialize_payload(req), codec.AuthRequest)
        assert back == req

        resp = codec.AuthResponse(seq=rng.randrange(2**32), time=rng.randrange(2**40),
                                  session_id=rng.randrange(1, 2**32))
        assert codec.deserialize_payload(
            codec.serialize_payload(resp), codec.AuthResponse) == resp

        fb = codec.FeedbackPacket(session_id=0, seq=rng.randrange(2**32),
                                  stored=rng.randrange(2**32))
        assert codec.deserialize_payload(
            codec.serialize_payload(fb), codec.FeedbackPacket) == fb


def test_deserialize_ignores_unknown_keys():
    data = b'{"seq":1,"session_id":7,"time":5,"zzz_future":"x"}'
    resp = codec.deserialize_payload(data, codec.AuthResponse)
    assert resp == codec.AuthResponse(seq=1, time=5, session_id=7)


def test_deserialize_rejects_bad_values():
    for data in (
        b"not json",
        b"[1,2,3]",
        b'{"seq":-1,"session_id":7,"time":5}',
        b'{"seq":true,"session_id":7,"time":5}',
        b'{"seq":1,"session_id":0,"time":5}',
        b'{"seq":1,"time":5}',
        b'{"seq":1,"session_id":7,"time":9223372036854775808}',  # 2**63: beyond SQLite
    ):
        with pytest.raises(codec.MalformedPayload):
            codec.deserialize_payload(data, codec.AuthResponse)


# ---------------------------------------------------------------------------
# row validation


def test_validate_row_gps_requires_ms():
    row = {"ts": TS, "lat": 1.0, "lon": 2.0, "alt": 3.0, "speed": 0.0,
           "accuracy": 5.0, "device_ts": TS}
    with pytest.raises(codec.MalformedPayload):
        codec.validate_row("gps", row)
    out = codec.validate_row("gps", dict(row, ms=17))
    assert out["ms"] == 17


def test_validate_row_obd_requires_ms():
    with pytest.raises(codec.MalformedPayload):
        codec.validate_row("obd", {"ts": TS, "pid": 12, "value": 900})
    out = codec.validate_row("obd", {"ts": TS, "ms": 0, "pid": 12, "value": 900})
    assert out == {"ts": TS, "ms": 0, "pid": 12, "value": 900}


def test_validate_row_zero_idx_normalized_away():
    base = {"ts": TS, "hpa": 1000.0}
    assert "idx" not in codec.validate_row("pressure", dict(base, idx=0))
    assert codec.validate_row("pressure", dict(base, idx=3))["idx"] == 3


def test_validate_row_drops_unknown_fields():
    out = codec.validate_row("pressure", {"ts": TS, "hpa": 1000.0, "junk": 1})
    assert "junk" not in out


def test_validate_row_rejects_bool_masquerading_as_int():
    with pytest.raises(codec.MalformedPayload):
        codec.validate_row("pressure", {"ts": True, "hpa": 1000.0})


def test_validate_row_wifi_shapes():
    by_pair = codec.validate_row(
        "wifi", {"ts": TS, "mac": "aa:bb", "essid": "", "rssi": -30})
    assert by_pair["essid"] == ""  # hidden network
    by_id = codec.validate_row("wifi", {"ts": TS, "ap_id": 5, "rssi": -30})
    assert by_id["ap_id"] == 5 and "mac" not in by_id
    for bad in (
        {"ts": TS, "rssi": -30},                         # neither form
        {"ts": TS, "mac": "", "essid": "x", "rssi": -5},  # empty mac
        {"ts": TS, "ap_id": 5, "rssi": 1},                # rssi > 0
        {"ts": TS, "ap_id": 5, "rssi": -200},
    ):
        with pytest.raises(codec.MalformedPayload):
            codec.validate_row("wifi", bad)


def test_validate_row_motion_samples():
    row = {"ts": TS, "rate": 5, "samples": [[1, -2, 3], [-32768, 32767, 0]]}
    out = codec.validate_row("accel", row)
    assert out["samples"] == [[1, -2, 3], [-32768, 32767, 0]]
    for bad_samples in ([], [[1, 2]], [[1, 2, 32768]], [[1, 2, True]],
                        [[1.5, 2, 3]], [[1, 2, 3]] * (codec.MAX_SAMPLES_PER_ROW + 1)):
        with pytest.raises(codec.MalformedPayload):
            codec.validate_row("gyro", {"ts": TS, "rate": 5, "samples": bad_samples})
    with pytest.raises(codec.MalformedPayload):
        codec.validate_row("mag", {"ts": TS, "rate": 0, "samples": [[1, 2, 3]]})


def test_validate_streams_counts_unknown_and_rejects_empty():
    known, unknown = codec.validate_streams({
        "pressure": [{"ts": TS, "hpa": 1000.0}],
        "heart_rate": [{"ts": TS, "bpm": 60}, {"ts": TS + 1, "bpm": 61}],
    })
    assert list(known) == ["pressure"]
    assert unknown == 2
    with pytest.raises(codec.MalformedPayload):
        codec.validate_streams({})
    with pytest.raises(codec.MalformedPayload):
        codec.validate_streams({"pressure": []})
    with pytest.raises(codec.MalformedPayload):
        codec.validate_streams([("pressure", [])])


def test_batch_row_count():
    assert codec.batch_row_count({"a": [1, 2], "b": [3]}) == 3


# ---------------------------------------------------------------------------
# compression


def test_compress_roundtrip():
    data = b"payload " * 1000
    packed = codec.compress(data)
    assert len(packed) < len(data)
    assert codec.decompress(packed) == data


def test_decompress_rejects_oversized_output():
    bomb = codec.compress(b"\x00" * (codec.MAX_DECOMPRESSED_BYTES + 1))
    with pytest.raises(codec.OutputLimitExceeded):
        codec.decompress(bomb)
    small = codec.compress(b"x" * 100)
    with pytest.raises(codec.OutputLimitExceeded):
        codec.decompress(small, max_out=99)
    assert codec.decompress(small, max_out=100) == b"x" * 100


def test_decompress_rejects_corruption():
    packed = codec.compress(b"consistent data " * 64)
    rng = random.Random(7)
    rejected = 0
    trials = 500
    for _ in range(trials):
        mutated = bytearray(packed)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            out = codec.decompress(bytes(mutated))
        except codec.DECODE_ERRORS:
            rejected += 1
        else:
            # flips in DEFLATE padding bits decode fine; identical output is
            # the invariant, silent alteration the failure
            if out != b"consistent data " * 64:
                pytest.fail("corrupted stream decoded to different bytes")
    assert rejected >= trials * 0.95


def test_decompress_rejects_truncation_and_trailer():
    packed = codec.compress(b"hello world" * 10)
    with pytest.raises(codec.ChecksumMismatch):
        codec.decompress(packed[:-3])
    with pytest.raises(codec.ChecksumMismatch):
        codec.decompress(packed + b"extra")
    with pytest.raises(codec.ChecksumMismatch):
        codec.decompress(b"\x00\x01garbage")


def test_repetitive_telemetry_compresses_below_one_fifth():
    rows = [{"ts": TS + i, "ms": (i * 37) % 1000, "lat": 48.85 + i * 1e-6,
             "lon": 2.29 + i * 1e-6, "alt": 35.0, "speed": 1.5, "accuracy": 4.0,
             "device_ts": TS + i} for i in range(2000)]
    data = codec.serialize_payload(
        codec.DataPacket(session_id=1, seq=1, streams={"gps": rows}))
    assert len(codec.compress(data)) < len(data) / 5


# ---------------------------------------------------------------------------
# packet encode/decode


def test_auth_request_is_single_block(test_keypair):
    req = codec.AuthRequest(seq=1, user_hash="ab" * 16, time=TS, key=make_key())
    blob = codec.encode_auth_request(req, test_keypair.public_part)
    assert len(blob) == 512
    assert codec.decode_auth_request(blob, test_keypair.private_part) == req


def test_auth_request_identifiers_fit_when_compressible(test_keypair):
    # ~1 KiB of repetitive identifier text still fits one RSA block
    idents = {f"k{i}": "ACME sensor rev A, firmware 2.3.1" for i in range(24)}
    req = codec.AuthRequest(seq=1, user_hash="ab" * 16, time=TS, key=make_key(),
                            identifiers=idents)
    blob = codec.encode_auth_request(req, test_keypair.public_part)
    assert len(blob) == 512
    assert codec.decode_auth_request(blob, test_keypair.private_part).identifiers == idents


def test_auth_request_incompressible_identifiers_rejected(test_keypair):
    rng = random.Random(99)
    idents = {f"k{i}": "".join(chr(rng.randrange(0x30, 0x7F)) for _ in range(64))
              for i in range(32)}
    req = codec.AuthRequest(seq=1, user_hash="ab" * 16, time=TS, key=make_key(),
                            identifiers=idents)
    with pytest.raises(crypto.PlaintextTooLong):
        codec.encode_auth_request(req, test_keypair.public_part)


def test_auth_response_plaintext_seq_prefix():
    key = make_key()
    blob = codec.encode_auth_response(
        codec.AuthResponse(seq=7, time=TS, session_id=3), key)
    assert blob[:4] == b"\x00\x00\x00\x07"
    assert codec.peek_u32(blob) == 7
    back = codec.decode_auth_response(blob, key)
    assert (back.seq, back.time, back.session_id) == (7, TS, 3)
    with pytest.raises(crypto.DecryptFailed):
        codec.decode_auth_response(blob, make_key(1))


def test_auth_response_prefix_must_match_payload():
    key = make_key()
    blob = codec.encode_auth_response(
        codec.AuthResponse(seq=7, time=TS, session_id=3), key)
    forged = b"\x00\x00\x00\x08" + blob[4:]
    with pytest.raises(codec.MalformedPayload):
        codec.decode_auth_response(forged, key)


def test_data_packet_roundtrip_with_key_lookup():
    key = make_key()
    pkt = codec.DataPacket(session_id=42, seq=5, streams={
        "pressure": [{"ts": TS, "hpa": 1013.25}],
        "bt": [{"ts": TS, "device_id": "aa:bb", "rssi": -55}],
    })
    blob = codec.encode_data_packet(pkt, key)
    assert blob[:4] == (42).to_bytes(4, "big")
    back = codec.decode_data_packet(blob, {42: key}.get)
    assert back.session_id == 42 and back.seq == 5 and back.unknown_rows == 0
    assert back.streams == codec.validate_streams(pkt.streams)[0]
    with pytest.raises(codec.UnknownSession):
        codec.decode_data_packet(blob, {41: key}.get)


def test_data_packet_unknown_stream_rows_counted_not_encoded():
    key = make_key()
    payload = codec.serialize_payload({"seq": 1, "streams": {
        "pressure": [{"ts": TS, "hpa": 1000.0}],
        "heart_rate": [{"ts": TS, "bpm": 60}],
    }})
    blob = (7).to_bytes(4, "big") + crypto.sym_encrypt(key, codec.compress(payload))
    pkt = codec.decode_data_packet(blob, {7: key}.get)
    assert pkt.unknown_rows == 1
    assert list(pkt.streams) == ["pressure"]
    with pytest.raises(ValueError):
        codec.encode_data_packet(
            codec.DataPacket(session_id=7, seq=1,
                             streams={"heart_rate": [{"ts": TS}]}), key)


def test_feedback_roundtrip():
    key = make_key(3)
    blob = codec.encode_feedback(codec.FeedbackPacket(session_id=6, seq=2, stored=120), key)
    assert blob[:4] == (6).to_bytes(4, "big")
    fb = codec.decode_feedback(blob, key)
    assert (fb.session_id, fb.seq, fb.stored) == (6, 2, 120)


def test_short_blobs_rejected():
    key = make_key()
    for decoder in (
        lambda b: codec.decode_auth_response(b, key),
        lambda b: codec.decode_data_packet(b, {0: key}.get),
        lambda b: codec.decode_feedback(b, key),
    ):
        for blob in (b"", b"abc", b"\x00\x00\x00\x01"):
            with pytest.raises(codec.DECODE_ERRORS):
                decoder(blob)


def test_decoder_fuzz_raises_only_declared_errors(test_keypair):
    rng = random.Random(20_000)
    lookup = {1: make_key()}.get
    for _ in range(2000):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 96)))
        for attempt in (
            lambda: codec.decode_auth_request(blob, test_keypair.private_part),
            lambda: codec.decode_auth_response(blob, make_key()),
            lambda: codec.decode_data_packet(blob, lookup),
            lambda: codec.decode_feedback(blob, make_key()),
        ):
            with pytest.raises(codec.DECODE_ERRORS):
                attempt()


# ---------------------------------------------------------------------------
# framing


def test_frame_layout():
    blob = bytes(512)
    framed = codec.frame(blob)
    assert framed[:4] == b"\x00\x00\x02\x00"
    assert framed[4:] == blob
    assert codec.frame(b"") == b"\x00\x00\x00\x00"


def test_frame_buffer_concatenation():
    a, b = b"first", b"second frame"
    assert codec.FrameBuffer().feed(codec.frame(a) + codec.frame(b)) == [a, b]


def test_frame_buffer_rejects_huge_declared_length():
    # 2 GiB declared: must raise on the header alone, no body allocation
    with pytest.raises(codec.FrameTooLarge):
        codec.FrameBuffer().feed((2**31).to_bytes(4, "big"))
    with pytest.raises(codec.FrameTooLarge):
        codec.FrameBuffer().feed((codec.MAX_PACKET_BYTES + 1).to_bytes(4, "big"))


def test_frame_buffer_incremental():
    payloads = [b"x" * n for n in (0, 1, 700, 3)]
    wire = b"".join(codec.frame(p) for p in payloads)
    buf = codec.FrameBuffer()
    seen = []
    for i in range(0, len(wire), 5):
        seen.extend(buf.feed(wire[i:i + 5]))
    assert seen == payloads
    limit = codec.frame(b"x" * codec.MAX_PACKET_BYTES)
    assert codec.FrameBuffer().feed(limit) == [limit[4:]]


def test_wire_never_contains_plaintext_rows():
    key = make_key()
    marker = "very-recognizable-device-name"
    pkt = codec.DataPacket(session_id=3, seq=1, streams={
        "bt": [{"ts": TS, "device_id": marker, "rssi": -20}]})
    blob = codec.encode_data_packet(pkt, key)
    assert marker.encode() not in blob
    assert zlib.compress(marker.encode()) not in blob
