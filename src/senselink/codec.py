"""Canonical payload serialization and bit-exact wire encoding.

Wire formats (all integers big-endian):

* auth request   = one RSA-OAEP block over zlib(canonical JSON)
* auth response  = seq (4 bytes, plaintext) || AES(zlib(canonical JSON))
* data packet    = session_id (4 bytes, plaintext) || AES(zlib(canonical JSON))
* feedback       = session_id (4 bytes, plaintext) || AES(zlib(canonical JSON))
* TCP frame      = length (4 bytes) || blob

Canonical JSON is UTF-8, keys sorted, no insignificant whitespace, binary
fields as lowercase hex. Equal payloads always serialize to identical bytes,
which the golden wire vectors rely on.

Every decoder fails with one of the exception types below and nothing else;
receivers treat all of them as "silently discard the packet".
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

from . import crypto
from .crypto import DecryptFailed

PROTOCOL_VERSION = 1
COMPRESSION_LEVEL = 6
MAX_DECOMPRESSED_BYTES = 4 * 1024 * 1024  # zip-bomb guard on a stateless server
MAX_PACKET_BYTES = 60 * 1024  # fits a UDP datagram with headroom

U16_MAX = 0xFFFF
U32_MAX = 0xFFFFFFFF
I64_MAX = 2**63 - 1  # SQLite INTEGER is signed 64-bit
I64_MIN = -(2**63)

MAX_SAMPLES_PER_ROW = 1024

_U32 = struct.Struct("!I")


class CodecError(Exception):
    pass


class MalformedPayload(CodecError):
    pass


class ChecksumMismatch(CodecError):
    pass


class OutputLimitExceeded(CodecError):
    pass


class UnknownSession(CodecError):
    pass


class FrameTooLarge(CodecError):
    pass


# Everything a receiver may see from a decode call; all mean "discard".
DECODE_ERRORS = (
    DecryptFailed,
    MalformedPayload,
    ChecksumMismatch,
    OutputLimitExceeded,
    UnknownSession,
)


@dataclass(frozen=True)
class AuthRequest:
    seq: int
    user_hash: str
    time: int
    key: bytes
    version: int = PROTOCOL_VERSION
    identifiers: dict[str, str] | None = None


@dataclass(frozen=True)
class AuthResponse:
    seq: int
    time: int
    session_id: int


@dataclass(frozen=True)
class DataPacket:
    session_id: int
    seq: int
    streams: dict[str, list[dict]]
    # rows under stream names this build does not know; acknowledged but not
    # stored, so newer clients never stall against an older server
    unknown_rows: int = 0


@dataclass(frozen=True)
class FeedbackPacket:
    session_id: int
    seq: int
    stored: int


def batch_row_count(streams: dict[str, list[dict]]) -> int:
    return sum(len(rows) for rows in streams.values())


# ---------------------------------------------------------------------------
# canonical serialization


def _check_json_value(value: object) -> None:
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"non-representable number: {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ValueError("object keys must be strings")
            _check_json_value(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            _check_json_value(item)


def payload_dict(value: object) -> dict:
    """The canonical JSON object for one of the four payload types."""
    if isinstance(value, AuthRequest):
        if not (0 <= value.seq <= U32_MAX):
            raise ValueError("seq out of range")
        if not (0 <= value.time <= I64_MAX):
            raise ValueError("time out of range")
        if not (1 <= value.version <= U16_MAX):
            raise ValueError("version out of range")
        if not crypto.is_user_hash(value.user_hash):
            raise ValueError("user hash must be 32 lowercase hex characters")
        if len(value.key) != crypto.SESSION_KEY_LEN:
            raise ValueError("session key must be 16 bytes")
        obj: dict = {
            "seq": value.seq,
            "hash": value.user_hash,
            "time": value.time,
            "key": value.key.hex(),
            "version": value.version,
        }
        if value.identifiers:
            if any(not k for k in value.identifiers):
                raise ValueError("identifier keys must be non-empty")
            obj["identifiers"] = dict(value.identifiers)
        return obj
    if isinstance(value, AuthResponse):
        if value.session_id <= 0 or value.session_id > U32_MAX:
            raise ValueError("session_id must be a positive 32-bit integer")
        return {"seq": value.seq, "time": value.time, "session_id": value.session_id}
    if isinstance(value, DataPacket):
        return {"seq": value.seq, "streams": value.streams}
    if isinstance(value, FeedbackPacket):
        if value.stored < 0:
            raise ValueError("stored count cannot be negative")
        return {"seq": value.seq, "stored": value.stored}
    if isinstance(value, dict):
        return value
    raise ValueError(f"cannot serialize {type(value).__name__}")


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False, allow_nan=False)


def canonical_json(obj: object) -> bytes:
    """Canonical bytes of a value already known to hold only string keys and
    finite numbers (validated rows); ``allow_nan=False`` remains a backstop."""
    return _CANONICAL.encode(obj).encode("utf-8")


def serialize_payload(value: object) -> bytes:
    obj = payload_dict(value)
    _check_json_value(obj)
    return canonical_json(obj)


def _parse_json(data: bytes) -> dict:
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedPayload("payload is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise MalformedPayload("payload is not a JSON object")
    return obj


def _uint(obj: dict, key: str, limit: int, *, required: bool = True, minimum: int = 0):
    value = obj.get(key)
    if value is None:
        if required:
            raise MalformedPayload(f"missing field {key!r}")
        return None
    if isinstance(value, bool) or not isinstance(value, int) or not (minimum <= value <= limit):
        raise MalformedPayload(f"field {key!r} out of range")
    return value


def deserialize_payload(data: bytes, expected_kind: type):
    """Inverse of :func:`serialize_payload`. Unknown object keys are ignored."""
    obj = _parse_json(data)
    if expected_kind is AuthRequest:
        user_hash = obj.get("hash")
        if not crypto.is_user_hash(user_hash):
            raise MalformedPayload("bad user hash")
        key_hex = obj.get("key")
        if not isinstance(key_hex, str):
            raise MalformedPayload("missing session key")
        try:
            key = bytes.fromhex(key_hex)
        except ValueError as exc:
            raise MalformedPayload("session key is not hex") from exc
        if len(key) != crypto.SESSION_KEY_LEN:
            raise MalformedPayload("session key must be 16 bytes")
        identifiers = obj.get("identifiers")
        if identifiers is not None:
            if not isinstance(identifiers, dict) or not all(
                isinstance(k, str) and k and isinstance(v, str) for k, v in identifiers.items()
            ):
                raise MalformedPayload("identifiers must map non-empty strings to strings")
        return AuthRequest(
            seq=_uint(obj, "seq", U32_MAX),
            user_hash=user_hash,
            time=_uint(obj, "time", I64_MAX),
            key=key,
            version=_uint(obj, "version", U16_MAX, minimum=1),
            identifiers=identifiers,
        )
    if expected_kind is AuthResponse:
        return AuthResponse(
            seq=_uint(obj, "seq", U32_MAX),
            time=_uint(obj, "time", I64_MAX),
            session_id=_uint(obj, "session_id", U32_MAX, minimum=1),
        )
    if expected_kind is FeedbackPacket:
        return FeedbackPacket(
            session_id=0,  # carried in the plaintext prefix, not the payload
            seq=_uint(obj, "seq", U32_MAX),
            stored=_uint(obj, "stored", U32_MAX),
        )
    raise ValueError(f"unsupported payload kind {expected_kind!r}")


# ---------------------------------------------------------------------------
# the stream table: row shape, ms rule, SQLite table and logical byte cost

# A field is (name, checker, required); the checker raises MalformedPayload
# or returns the normalized value. Checkers are built once, with the table.


def _int(name: str, lo: int = 0, hi: int = I64_MAX, *, required: bool = True):
    def check(value):
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise MalformedPayload(f"row field {name!r} out of range")
        return value
    return name, check, required


def _number(name: str, *, positive: bool = False):
    def check(value):
        if isinstance(value, float):
            if not math.isfinite(value):
                raise MalformedPayload(f"row field {name!r} is not finite")
        elif isinstance(value, bool) or not isinstance(value, int):
            raise MalformedPayload(f"row field {name!r} is not a number")
        elif not I64_MIN <= value <= I64_MAX:
            raise MalformedPayload(f"row field {name!r} out of range")
        if positive and value <= 0:
            raise MalformedPayload(f"{name} must be positive")
        return value
    return name, check, True


def _text(name: str, *, allow_empty: bool = True, required: bool = True):
    def check(value):
        if not isinstance(value, str) or not (allow_empty or value):
            raise MalformedPayload(f"row field {name!r} is not a valid string")
        try:  # a JSON escape can carry a lone surrogate; UTF-8 (SQLite TEXT) cannot
            value.encode()
        except UnicodeEncodeError:
            raise MalformedPayload(f"row field {name!r} is not valid UTF-8") from None
        return value
    return name, check, required


def _check_samples(value):
    if not isinstance(value, list) or not value or len(value) > MAX_SAMPLES_PER_ROW:
        raise MalformedPayload("samples must be a non-empty bounded list")
    for triple in value:
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or any(
                isinstance(v, bool) or not isinstance(v, int) or not -32768 <= v <= 32767
                for v in triple
            )
        ):
            raise MalformedPayload("samples must be 16-bit [x, y, z] triplets")
    return [list(t) for t in value]


class StreamSpec:
    """One sensor stream.

    ``columns`` name the row's fields after the natural key, in the column
    order of its SQLite ``table``; ``checks`` validate a whole row. They admit
    only what SQLite holds (https://www.sqlite.org/datatype3.html): integers
    in signed 64 bits, so ``ts`` and ``device_ts`` end at ``I64_MAX``; number
    fields as finite floats or signed 64-bit integers, kept as sent on the
    wire but read back from storage as floats; text as valid UTF-8.

    A row's logical size, the unit of the storage-rate figures, is ``row_bytes``
    plus ``sample_bytes`` per motion sample plus the UTF-8 length of each
    field named in ``text_bytes``.
    """

    def __init__(self, name: str, table: str, fields: tuple, *, ms_required: bool = False,
                 row_bytes: int, sample_bytes: int = 0, text_bytes: tuple[str, ...] = ()):
        self.name = name
        self.table = table
        self.columns = tuple(field_name for field_name, _, _ in fields)
        # every row starts with its natural key (ts, ms, idx)
        self.checks = (_int("ts"), _int("ms", hi=999, required=ms_required),
                       _int("idx", hi=U32_MAX, required=False)) + fields
        self.ms_required = ms_required
        self.row_bytes = row_bytes
        self.sample_bytes = sample_bytes
        self.text_bytes = text_bytes


_RSSI = _int("rssi", lo=-127, hi=0)

STREAM_SPECS: dict[str, StreamSpec] = {spec.name: spec for spec in (
    StreamSpec("gps", "gps_rows", (
        _number("lat"), _number("lon"), _number("alt"), _number("speed"),
        _number("accuracy"), _int("device_ts")), ms_required=True, row_bytes=47),
    # the table's columns are (rate, n, samples): n samples packed as 16-bit triplets
    *(StreamSpec(name, "motion_rows", (
        _number("rate", positive=True), ("samples", _check_samples, True)),
        row_bytes=8, sample_bytes=6) for name in ("accel", "gyro", "mag")),
    # rows that name the access point by (mac, essid) are checked by _WIFI_BY_PAIR
    StreamSpec("wifi", "wifi_rows", (_int("ap_id", lo=1, hi=U32_MAX), _RSSI), row_bytes=17),
    StreamSpec("bt", "bt_rows", (_text("device_id", allow_empty=False), _RSSI), row_bytes=16),
    StreamSpec("pressure", "pressure_rows", (_number("hpa"),), row_bytes=12),
    StreamSpec("obd", "obd_rows", (_int("pid", hi=U32_MAX), _number("value")),
               ms_required=True, row_bytes=14),
    StreamSpec("events", "event_rows", (
        _text("kind", allow_empty=False), _text("detail", required=False)),
        row_bytes=8, text_bytes=("kind", "detail")),
)}

STREAMS = tuple(STREAM_SPECS)
MOTION_STREAMS = frozenset(s.name for s in STREAM_SPECS.values() if s.sample_bytes)
_WIFI_BY_PAIR = STREAM_SPECS["wifi"].checks[:3] + (
    _RSSI, _text("mac", allow_empty=False), _text("essid"))  # hidden networks broadcast ""


def natural_key(row: dict) -> tuple[int, int, int]:
    """(ts, ms, idx) of a normalized row: unique per session and stream, so
    replayed writes are idempotent. Absent ms is -1 rather than NULL, which
    would compare unequal and break idempotent replays; absent idx is 0."""
    return row["ts"], row.get("ms", -1), row.get("idx", 0)


def write_order(streams: dict[str, list]) -> list[tuple[str, list]]:
    """A batch's (stream, rows) pairs in the order storage writes them and a
    stored count covers them: by stream name, then batch order."""
    return sorted(streams.items())  # names are unique, so rows are never compared


def validate_row(stream: str, row: dict) -> dict:
    """Normalize one row: check the schema, drop unknown fields.

    Raises :class:`MalformedPayload` on any violation; receivers discard the
    whole packet in that case (a well-formed client never produces one).
    """
    spec = STREAM_SPECS.get(stream)
    if spec is None:
        raise MalformedPayload(f"unknown stream {stream!r}")
    if not isinstance(row, dict):
        raise MalformedPayload("row is not an object")
    checks = spec.checks
    if stream == "wifi" and "ap_id" not in row:
        checks = _WIFI_BY_PAIR
    out: dict = {}
    for name, check, required in checks:
        value = row.get(name)
        if value is not None:
            out[name] = check(value)
        elif required:
            raise MalformedPayload(f"row missing field {name!r}")
    if not out.get("idx", 1):  # 0 means "only row this (ts, ms)" and is normalized to absent
        del out["idx"]
    return out


def validate_streams(streams: object) -> tuple[dict[str, list[dict]], int]:
    """Validate a streams map; returns (known streams, unknown row count)."""
    if not isinstance(streams, dict):
        raise MalformedPayload("streams must be an object")
    known: dict[str, list[dict]] = {}
    unknown = 0
    for name, rows in streams.items():
        if not isinstance(name, str) or not isinstance(rows, list):
            raise MalformedPayload("stream entries must map names to row lists")
        if name in STREAM_SPECS:
            known[name] = [validate_row(name, row) for row in rows]
        else:
            unknown += len(rows)
    if batch_row_count(known) + unknown == 0:
        raise MalformedPayload("empty row batch")
    return known, unknown


# ---------------------------------------------------------------------------
# compression


def compress(data: bytes) -> bytes:
    return zlib.compress(data, COMPRESSION_LEVEL)


def decompress(data: bytes, max_out: int = MAX_DECOMPRESSED_BYTES) -> bytes:
    obj = zlib.decompressobj()
    try:
        out = obj.decompress(data, max_out)
        if obj.unconsumed_tail:
            raise OutputLimitExceeded(f"decompressed output exceeds {max_out} bytes")
        if not obj.eof:
            raise ChecksumMismatch("truncated zlib stream")
        obj.flush()
    except zlib.error as exc:
        raise ChecksumMismatch(str(exc)) from exc
    if obj.unused_data:
        raise ChecksumMismatch("trailing garbage after zlib stream")
    return out


# ---------------------------------------------------------------------------
# packet encode/decode


def encode_auth_request(req: AuthRequest, server_public, *, oaep_seed: bytes | None = None) -> bytes:
    plaintext = compress(serialize_payload(req))
    if oaep_seed is not None:
        return crypto.deterministic_asym_encrypt(server_public, plaintext, oaep_seed)
    return crypto.asym_encrypt(server_public, plaintext)


def decode_auth_request(blob: bytes, server_private) -> AuthRequest:
    plaintext = crypto.asym_decrypt(server_private, blob)
    return deserialize_payload(decompress(plaintext), AuthRequest)


def encode_auth_response(resp: AuthResponse, key: bytes, *, iv: bytes | None = None) -> bytes:
    # plaintext seq prefix lets a client with several auths in flight pick
    # the right decryption key before decrypting
    return _U32.pack(resp.seq) + crypto.sym_encrypt(key, compress(serialize_payload(resp)), iv=iv)


def decode_auth_response(blob: bytes, key: bytes) -> AuthResponse:
    if len(blob) <= 4:
        raise MalformedPayload("auth response too short")
    seq = _U32.unpack_from(blob)[0]
    resp = deserialize_payload(decompress(crypto.sym_decrypt(key, blob[4:])), AuthResponse)
    if resp.seq != seq:
        raise MalformedPayload("payload seq does not match prefix")
    return resp


def data_payload(seq: int, row_json: dict[str, list[bytes]]) -> bytes:
    """The canonical payload ``{"seq":N,"streams":{...}}`` assembled from the
    canonical JSON of each validated row, so no row is serialized again;
    equal to ``canonical_json({"seq": seq, "streams": rows})``."""
    streams = b",".join(canonical_json(name) + b":[" + b",".join(rows) + b"]"
                        for name, rows in sorted(row_json.items()))
    return b'{"seq":' + canonical_json(seq) + b',"streams":{' + streams + b"}}"


def seal_data_payload(session_id: int, payload: bytes, key: bytes, *,
                      iv: bytes | None = None) -> bytes:
    return _U32.pack(session_id) + crypto.sym_encrypt(key, compress(payload), iv=iv)


def encode_data_packet(pkt: DataPacket, key: bytes, *, iv: bytes | None = None) -> bytes:
    streams, unknown = validate_streams(pkt.streams)
    if unknown:
        raise ValueError("cannot encode rows for unknown streams")
    # validate_streams rebuilt every row with string keys and finite numbers
    row_json = {name: [canonical_json(row) for row in rows] for name, rows in streams.items()}
    return seal_data_payload(pkt.session_id, data_payload(pkt.seq, row_json), key, iv=iv)


def decode_data_packet(blob: bytes, key_lookup: Callable[[int], bytes | None]) -> DataPacket:
    if len(blob) <= 4:
        raise MalformedPayload("data packet too short")
    session_id = _U32.unpack_from(blob)[0]
    key = key_lookup(session_id)
    if key is None:
        raise UnknownSession(f"no key for session {session_id}")
    obj = _parse_json(decompress(crypto.sym_decrypt(key, blob[4:])))
    seq = _uint(obj, "seq", U32_MAX)
    streams, unknown = validate_streams(obj.get("streams"))
    return DataPacket(session_id=session_id, seq=seq, streams=streams, unknown_rows=unknown)


def encode_feedback(fb: FeedbackPacket, key: bytes, *, iv: bytes | None = None) -> bytes:
    return _U32.pack(fb.session_id) + crypto.sym_encrypt(key, compress(serialize_payload(fb)), iv=iv)


def decode_feedback(blob: bytes, key: bytes) -> FeedbackPacket:
    if len(blob) <= 4:
        raise MalformedPayload("feedback packet too short")
    session_id = _U32.unpack_from(blob)[0]
    fb = deserialize_payload(decompress(crypto.sym_decrypt(key, blob[4:])), FeedbackPacket)
    return FeedbackPacket(session_id=session_id, seq=fb.seq, stored=fb.stored)


def peek_u32(blob: bytes) -> int:
    """First 4 wire bytes as an unsigned int (seq or session_id prefix)."""
    if len(blob) < 4:
        raise MalformedPayload("blob shorter than 4 bytes")
    return _U32.unpack_from(blob)[0]


# ---------------------------------------------------------------------------
# TCP stream framing


def frame(blob: bytes) -> bytes:
    if len(blob) > U32_MAX:
        raise FrameTooLarge("blob exceeds 32-bit length prefix")
    return _U32.pack(len(blob)) + blob


@dataclass
class FrameBuffer:
    """Incremental deframer for non-blocking TCP receive paths."""

    _buf: bytearray = field(default_factory=bytearray)

    def feed(self, data: bytes) -> list[bytes]:
        self._buf += data
        out: list[bytes] = []
        while len(self._buf) >= 4:
            length = _U32.unpack_from(self._buf)[0]
            if length > MAX_PACKET_BYTES:
                raise FrameTooLarge(f"declared frame of {length} bytes exceeds {MAX_PACKET_BYTES}")
            if len(self._buf) < 4 + length:
                break
            out.append(bytes(self._buf[4:4 + length]))
            del self._buf[:4 + length]
        return out
