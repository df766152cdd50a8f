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

import itertools
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
    # the session key a decoded packet was decrypted with, which encrypts
    # its feedback
    key: bytes | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class FeedbackPacket:
    session_id: int
    seq: int
    stored: int


def batch_row_count(streams: dict[str, list[dict]]) -> int:
    return sum(len(rows) for rows in streams.values())


# ---------------------------------------------------------------------------
# canonical serialization


# Each payload's integer fields as (name, lo, hi), which the encoder and the
# decoder both check; a data packet has only its seq, and rows.
_SEQ = ("seq", 0, U32_MAX)
_INT_FIELDS = {
    AuthRequest: (_SEQ, ("time", 0, I64_MAX), ("version", 1, U16_MAX)),
    AuthResponse: (_SEQ, ("time", 0, I64_MAX), ("session_id", 1, U32_MAX)),
    FeedbackPacket: (_SEQ, ("stored", 0, U32_MAX)),
}


def _in_range(value: object, lo: int, hi: int) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and lo <= value <= hi


def _is_identifiers(value: object) -> bool:
    """Whether an auth request's identifiers map non-empty strings to strings."""
    return isinstance(value, dict) and all(
        isinstance(k, str) and k and isinstance(v, str) for k, v in value.items())


def payload_dict(value: object) -> dict:
    """The canonical JSON object of an auth request, auth response or
    feedback packet, its fields range-checked. Data packets are joined from
    the canonical JSON of their rows (:func:`data_payload`)."""
    if type(value) not in _INT_FIELDS:
        raise ValueError(f"cannot serialize {type(value).__name__}")
    obj: dict = {}
    for name, lo, hi in _INT_FIELDS[type(value)]:
        obj[name] = getattr(value, name)
        if not _in_range(obj[name], lo, hi):
            raise ValueError(f"{name} out of range")
    if isinstance(value, AuthRequest):
        if not crypto.is_user_hash(value.user_hash):
            raise ValueError("user hash must be 32 lowercase hex characters")
        if len(value.key) != crypto.SESSION_KEY_LEN:
            raise ValueError("session key must be 16 bytes")
        obj["hash"], obj["key"] = value.user_hash, value.key.hex()
        if value.identifiers:
            if not _is_identifiers(value.identifiers):
                raise ValueError("identifiers must map non-empty strings to strings")
            obj["identifiers"] = dict(value.identifiers)
    return obj


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              ensure_ascii=False, allow_nan=False)


def canonical_json(obj: object) -> bytes:
    """Canonical bytes of a value already known to hold only string keys and
    finite numbers (a checked payload, rows read from storage);
    ``allow_nan=False`` remains a backstop. Rows take ``StreamSpec.rows_json``,
    which writes the same bytes from the values it checked."""
    return _CANONICAL.encode(obj).encode("utf-8")


def serialize_payload(value: object) -> bytes:
    return canonical_json(payload_dict(value))


def _parse_json(data: bytes) -> dict:
    # ValueError covers bad UTF-8, bad JSON and an integer beyond Python's
    # digit limit; RecursionError, nesting deeper than the parser's stack
    try:
        obj = json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise MalformedPayload("payload is not valid JSON") from exc
    if not isinstance(obj, dict):
        raise MalformedPayload("payload is not a JSON object")
    return obj


def _ints(obj: dict, fields: tuple) -> dict[str, int]:
    """The integer fields of a parsed payload, each range-checked."""
    out = {}
    for name, lo, hi in fields:
        value = obj.get(name)
        if value is None:
            raise MalformedPayload(f"missing field {name!r}")
        if not _in_range(value, lo, hi):
            raise MalformedPayload(f"field {name!r} out of range")
        out[name] = value
    return out


def deserialize_payload(data: bytes, expected_kind: type):
    """Inverse of :func:`serialize_payload`. Unknown object keys are ignored."""
    obj = _parse_json(data)
    if expected_kind not in _INT_FIELDS:
        raise ValueError(f"unsupported payload kind {expected_kind!r}")
    ints = _ints(obj, _INT_FIELDS[expected_kind])
    if expected_kind is FeedbackPacket:
        return FeedbackPacket(session_id=0, **ints)  # session_id: the plaintext prefix
    if expected_kind is AuthResponse:
        return AuthResponse(**ints)
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
    if identifiers is not None and not _is_identifiers(identifiers):
        raise MalformedPayload("identifiers must map non-empty strings to strings")
    return AuthRequest(user_hash=user_hash, key=key, identifiers=identifiers, **ints)


# ---------------------------------------------------------------------------
# the stream table: row shape, ms rule, SQLite table and logical byte cost

# A field is (name, check, fast, default, text, column, form, sql).
# check(value) takes the field's value from a row as received and returns the
# value SQLite stores, or raises MalformedPayload: bool is refused, and int
# and float subclasses are accepted, as the plain int or float of the same
# value. A row that leaves out a field whose default is not _REQUIRED stores
# the default, and its absence costs only the dict lookup: check never sees
# it. fast(v) is the source of an expression over the variable named v, true
# when v holds one of the exact types JSON yields (int, float, str) and
# passes check, which would return it unchanged; the compiled row checks
# (StreamSpec) test it inline and call check only for a row it refuses. A
# field whose fast is None, a motion row's samples, has check called on
# every row. text(value) is the canonical JSON of a checked value; a row's
# JSON leaves out each field whose checked value is its default.
#
# column(values) tests a non-empty column of present values at once, with
# builtins that loop in C: it is true when every value is of the fast case,
# and form, a %-format, writes each as text(value) does (text passes only
# when no character of it needs escaping). It never raises; false sends the
# stream's rows to the compiled row checks. A field whose column is None has
# check mapped over its column instead, and form writes text of the checked
# value. sql is the SQLite type of the field's column, declared NOT NULL
# unless the default is None.

_REQUIRED = object()  # the default of a field every row must carry
_INF = math.inf
_json_string = json.encoder.encode_basestring  # strings as _CANONICAL writes them
_INT, _FLOAT, _STR, _DICT = {int}, {float}, {str}, {dict}


def _missing(name: str):
    return MalformedPayload(f"row missing field {name!r}")


def _int(name: str, lo: int = 0, hi: int = I64_MAX, *, default=_REQUIRED):
    def check(value):
        if value is None:
            raise _missing(name)
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise MalformedPayload(f"row field {name!r} out of range")
        return int.__int__(value)  # the plain int, whatever the subclass prints

    def fast(v):
        return f"type({v}) is int and {lo} <= {v} <= {hi}"

    def column(values):
        return set(map(type, values)) == _INT and lo <= min(values) and max(values) <= hi
    return name, check, fast, default, repr, column, "%r", "INTEGER"


def _number(name: str, *, positive: bool = False):
    def check(value):
        if value is None:
            raise _missing(name)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise MalformedPayload(f"row field {name!r} is not finite")
            value = float.__float__(value)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise MalformedPayload(f"row field {name!r} is not a number")
        elif not I64_MIN <= value <= I64_MAX:
            raise MalformedPayload(f"row field {name!r} out of range")
        else:
            value = int.__int__(value)
        if positive and value <= 0:
            raise MalformedPayload(f"{name} must be positive")
        return value

    def fast(v):
        return (f"(type({v}) is float and -_INF < {v} < _INF"
                f" or type({v}) is int and {I64_MIN} <= {v} <= {I64_MAX})"
                + (f" and {v} > 0" if positive else ""))

    def column(values):
        kinds = set(map(type, values))
        if kinds == _FLOAT:  # an inf or a NaN anywhere makes the sum NaN or infinite
            ok = math.isfinite(sum(values))
        else:
            ok = kinds == _INT and I64_MIN <= min(values) and max(values) <= I64_MAX
        return ok and (not positive or min(values) > 0)
    return name, check, fast, _REQUIRED, repr, column, "%r", "REAL"


def _text(name: str, *, allow_empty: bool = True, default=_REQUIRED):
    def check(value):
        if value is None:
            raise _missing(name)
        if not isinstance(value, str) or not (allow_empty or value):
            raise MalformedPayload(f"row field {name!r} is not a valid string")
        try:  # a JSON escape can carry a lone surrogate; UTF-8 (SQLite TEXT) cannot
            value.encode()
        except UnicodeEncodeError:
            raise MalformedPayload(f"row field {name!r} is not valid UTF-8") from None
        return value

    def fast(v):
        return f"type({v}) is str and {v}.isascii()" + ("" if allow_empty else f" and {v} != ''")

    def column(values):
        if set(map(type, values)) != _STR:
            return False
        text = "".join(values)  # what JSON writes as it is, and UTF-8 holds
        return (text.isprintable() and '"' not in text and "\\" not in text
                and (allow_empty or all(values)))
    return name, check, fast, default, _json_string, column, '"%s"', "TEXT"


def _is_int16(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, int) and -32768 <= value <= 32767


def _samples(value) -> bytes:
    """A motion row's samples, packed as little-endian 16-bit triplets."""
    if not isinstance(value, list) or not value or len(value) > MAX_SAMPLES_PER_ROW:
        raise MalformedPayload("samples must be a non-empty bounded list")
    flat: list = []
    for triple in value:
        if not isinstance(triple, list) or len(triple) != 3:
            raise MalformedPayload("samples must be 16-bit [x, y, z] triplets")
        x, y, z = triple
        if not (type(x) is int and type(y) is int and type(z) is int
                or all(map(_is_int16, triple))):
            raise MalformedPayload("samples must be 16-bit [x, y, z] triplets")
        flat += triple
    try:  # the range check of exact ints
        return struct.pack(f"<{len(flat)}h", *flat)
    except struct.error:
        raise MalformedPayload("samples must be 16-bit [x, y, z] triplets") from None


def _samples_json(packed: bytes) -> str:
    """The canonical JSON of packed samples: a list of [x, y, z] triplets."""
    flat = struct.unpack(f"<{len(packed) // 2}h", packed)
    return "[" + ("[%d,%d,%d]," * (len(flat) // 3))[:-1] % flat + "]"


# The list length from which rows_json writes a list with the JSON kernel
# (_kernel_json), which pays a few microseconds a field on every call,
# rather than with the compiled writer, which pays one call a row. Measured
# per row on the default hour (CPython 3.11, 2 vCPUs), the writer is the
# faster below 32 rows on every stream; the kernel overtakes it on motion
# rows at 32 to 48 rows (by 3-5% on longer lists) and comes level with it
# on the other streams only at thousands of rows. One realtime packet of an
# hour's default streams holds 27 rows in all, so realtime lists take the
# writer and a batch's long lists the kernel.
_KERNEL_MIN_ROWS = 32


def _fast_case(fields, returned: str) -> dict[str, list[str]]:
    """The source lines of one row form's fast case in a compiled
    ``row_params`` and ``row_json``, by name: they take each field's value
    from the row, test every field's fast case in one condition and return;
    a row that any test refuses falls through. returned is the source of
    the tuple ``row_params`` returns, over the fields' names."""
    tests, checked, template, args = [], [], [], []
    for name, _, fast, default, *_ in fields:
        if fast is None:
            checked.append(f"{name} = check_{name}({name})")
        elif default is _REQUIRED:
            tests.append(fast(name))
        else:
            tests.append(f"({name} is None or {fast(name)})")
            if default is not None:
                checked.append(f"if {name} is None: {name} = {default!r}")
    for name, _, _, default, text, *_ in sorted(fields, key=lambda field: field[0]):
        piece, arg = (f'"{name}":%r,', name) if text is repr else (
            f'"{name}":%s,', f"text_{name}({name})")
        if default is _REQUIRED:
            template.append(piece)
            args.append(arg)
        else:
            template.append("%s")
            written = "is not None" if default is None else f"!= {default!r}"
            args.append(f"({piece!r} % ({arg},) if {name} {written} else '')")
    template = "{" + "".join(template)[:-1] + "}"
    tests = [f"if ({tests[0]}", *(f"        and {test}" for test in tests[1:])]
    tests[-1] += "):"
    head = [*(f"{name} = row.get({name!r})" for name, *_ in fields), *tests,
            *(f"    {line}" for line in checked)]
    return {"row_params": [*head, f"    return {returned}"],
            "row_json": [*head, f"    return ({template!r} % ({', '.join(args)})).encode()"]}


class StreamSpec:
    """One sensor stream.

    ``columns`` name the SQLite columns of the stream's ``table`` after the
    natural key, in table order, and ``declarations`` map the natural key's
    and each column's name to its SQLite type and constraint, from which
    storage creates the table. ``row_params`` is the one statement of what a
    row may hold: it checks a row as received and returns its values for
    them. ``row_json`` writes the canonical JSON of those values, which
    leaves out unknown fields and a field whose value is its default (an
    absent ms, a zero idx, an absent optional field). The checks admit only
    what SQLite holds (https://www.sqlite.org/datatype3.html): integers in
    signed 64 bits, so ``ts`` and ``device_ts`` end at ``I64_MAX``; number
    fields as finite floats or signed 64-bit integers, kept as sent on the
    wire but read back from storage as floats; text as valid UTF-8.

    ``rows_params`` and ``rows_json`` do the same for a stream's list of
    rows through two functions compiled at import from the stream's fields
    (their source is ``source``). Each tests every field's fast case, its
    exact JSON type and range (``fast`` above), inline in one frame, where
    ``row_params`` calls a check per field and ``row_json`` walks the values
    again, and returns the row's values or writes its JSON with one ``%``
    template. A row outside the fast case (a bool, an int or float
    subclass, a required field left out, text that is not ASCII, a row that
    is not a dict) goes to ``row_params`` or ``row_json``, so every value
    and every error is the one they give. ``rows_params`` checks lists of
    every length this way: a realtime packet's rows pay one call a row,
    and a batch's are checked faster than a column at a time.
    ``rows_json`` writes a list of at least ``_KERNEL_MIN_ROWS`` rows with
    the JSON kernel, which takes the values a column at a time from
    ``_columns``, each field's column test looping in C, and writes every
    row from one template; at that length it is as fast as the compiled
    writer or faster (see ``_KERNEL_MIN_ROWS``). A list that a column test
    refuses goes to the compiled writer row by row.

    A row's logical size, the unit of the storage-rate figures, is ``row_bytes``
    plus ``sample_bytes`` per motion sample plus the UTF-8 length of each
    field named in ``text_bytes``.
    """

    def __init__(self, name: str, table: str, fields: tuple, *, ms_required: bool = False,
                 columns: tuple[str, ...] = (), row_bytes: int, sample_bytes: int = 0,
                 text_bytes: tuple[str, ...] = ()):
        self.name = name
        self.table = table
        self.columns = columns or tuple(field[0] for field in fields)
        # every row starts with its natural key (see natural_key)
        fields = (_int("ts"), _int("ms", hi=999, default=_REQUIRED if ms_required else -1),
                  _int("idx", hi=U32_MAX, default=0)) + fields
        self._fields = fields
        self.declarations = {name: sql if default is None else sql + " NOT NULL"
                             for name, _, _, default, *_, sql in fields}
        # the JSON kernel's view: per field, in table order
        self._columns_of = tuple((itertools.repeat(name), check, default, column)
                                 for name, check, _, default, _, column, *_ in fields)
        # the JSON of row_params's values: per field in key order, its
        # position in them, and the default whose value is left out
        position = ("ts", "ms", "idx", *self.columns).index
        self._json_columns = tuple(layout[1:] for layout in sorted(
            (name, position(name), f'"{name}":', default, text, form, column is None)
            for name, _, _, default, text, column, form, _ in fields))
        if self._json_columns[-1][2] is not _REQUIRED:
            raise ValueError("a row template ends with a field every row carries")
        self.row_bytes = row_bytes
        self.sample_bytes = sample_bytes
        self.text_bytes = text_bytes
        self._compile()

    def _forms(self) -> list[tuple[str | None, tuple, str]]:
        """Each form a row may take, as (the source of the test that picks
        it, None for the last, its fields, the source of what ``row_params``
        returns for it)."""
        return [(None, self._fields, f"({', '.join(('ts', 'ms', 'idx', *self.columns))})")]

    def _compile(self):
        """Compile the fast ``row_params`` and ``row_json`` of ``_forms``
        (see the class docstring), built only from the stream table, the
        way ``collections.namedtuple`` builds its classes."""
        forms = self._forms()
        namespace = {"_INF": _INF, "spec": self}
        for _, fields, _ in forms:
            for name, check, _, _, text, *_ in fields:
                namespace[f"check_{name}"], namespace[f"text_{name}"] = check, text
        bodies = [_fast_case(fields, returned) for _, fields, returned in forms]
        sources = []
        for kind in ("row_params", "row_json"):
            lines = [f"def {kind}(row):", "    if type(row) is dict:"]
            for i, (test, _, _) in enumerate(forms):
                body = bodies[i][kind]
                if len(forms) > 1:
                    lines.append(f"        {'elif' if i else 'if'} {test}:" if test
                                 else "        else:")
                    body = [f"    {line}" for line in body]
                lines += [f"        {line}" for line in body]
            sources.append("\n".join([*lines, f"    return spec.{kind}(row)", ""]))
        self.source = "\n".join(sources)
        exec(self.source, namespace)
        self._compiled_params, self._compiled_json = namespace["row_params"], namespace["row_json"]

    def row_params(self, row) -> tuple:
        """Check one row as received; return ``(ts, ms or -1, idx or 0,
        *columns)``. A wifi row that names its access point by (mac, essid)
        carries the pair in place of the ap_id.

        Raises :class:`MalformedPayload` on any violation; receivers discard
        the whole packet in that case (a well-formed client never sends one).
        """
        if not isinstance(row, dict):
            raise MalformedPayload("row is not an object")
        get = row.get
        params = []
        for name, check, _, default, *_ in self._fields:
            value = get(name)
            params.append(check(value) if value is not None or default is _REQUIRED
                          else default)
        return tuple(params)

    def row_json(self, row) -> bytes:
        """The canonical JSON of the values ``row_params`` returns for row,
        in key order, less each value that is its field's default."""
        params = self.row_params(row)
        parts = []
        for i, key, default, text, _, _ in self._json_columns:
            value = params[i]
            if default is _REQUIRED or value != default:
                parts.append(key + text(value))
        return ("{" + ",".join(parts) + "}").encode()

    def _columns(self, rows: list[dict]) -> list[list] | None:
        """The columns of ``row_params`` of rows, in its order, defaults
        filled in; None unless every column test passes, which a required
        None fails."""
        columns = []
        for name, check, default, column in self._columns_of:
            values = list(map(dict.get, rows, name))
            if column is None:
                try:
                    values = list(map(check, values))
                except MalformedPayload:
                    return None  # the compiled writer raises for the row it meets first
            elif default is not _REQUIRED and (absent := values.count(None)):
                if absent == len(values):
                    values = [default] * absent
                elif column([value for value in values if value is not None]):
                    values = [default if value is None else value for value in values]
                else:
                    return None
            elif not column(values):
                return None
            columns.append(values)
        return columns

    def rows_params(self, rows: list) -> list[tuple]:
        """``row_params`` of each row; raises as ``row_params`` does."""
        return list(map(self._compiled_params, rows))

    def rows_json(self, rows: list) -> list[bytes]:
        """``row_json`` of each row, from one template of the whole list
        where it is long enough and every column is the fast case; raises as
        ``row_params`` does."""
        if len(rows) >= _KERNEL_MIN_ROWS and set(map(type, rows)) == _DICT:
            written = self._kernel_json(rows)
            if written is not None:
                return written
        return list(map(self._compiled_json, rows))

    def _kernel_json(self, rows: list[dict]) -> list[bytes] | None:
        """``row_json`` of each of a list of dicts, a column at a time; None
        where a column test refuses the list."""
        columns = self._columns(rows)
        if columns is None:
            return None
        template, args = [], []
        for i, key, default, text, form, mapped in self._json_columns:
            values = columns[i]
            if default is not _REQUIRED and default in values:
                if values.count(default) == len(values):
                    continue  # no row's value differs from the default
                # written, with its comma, where it is not the default
                pieces = {value: key + text(value) + "," for value in set(values) - {default}}
                pieces[default] = ""
                template.append("%s")
                values = list(map(pieces.__getitem__, values))
            else:
                template.append(key + form + ",")
                if mapped:
                    values = list(map(text, values))
            args.append(values)
        template = "{" + "".join(template)[:-1] + "}"
        return list(map(str.encode, map(template.__mod__, zip(*args))))


class _MotionSpec(StreamSpec):
    """accel, gyro and mag: one row holds a second of samples, stored as
    their count n and the packed 16-bit triplets."""

    def __init__(self, name: str):
        super().__init__(name, "motion_rows",
                         (_number("rate", positive=True),
                          ("samples", _samples, None, _REQUIRED, _samples_json, None, "%s",
                           "BLOB")),
                         columns=("rate", "n", "samples"), row_bytes=8, sample_bytes=6)
        self.declarations["n"] = "INTEGER NOT NULL"

    def _forms(self):
        return [(None, self._fields, "(ts, ms, idx, rate, len(samples) // 6, samples)")]

    def row_params(self, row) -> tuple:
        ts, ms, idx, rate, samples = super().row_params(row)
        return ts, ms, idx, rate, len(samples) // 6, samples  # 3 x 2 bytes a sample

    def _columns(self, rows: list[dict]) -> list[list] | None:
        columns = super()._columns(rows)
        if columns is not None:
            columns.insert(4, [len(packed) // 6 for packed in columns[4]])
        return columns


class _WifiSpec(StreamSpec):
    """wifi: a row names its access point by ap_id or, without one, by
    (mac, essid), which storage interns to an ap_id. The compiled checks
    tell the two forms apart row by row; the JSON kernel takes a list of
    rows that all name it by the pair, or all by ap_id."""

    def __init__(self):
        self._by_pair = StreamSpec("wifi", "wifi_rows", (
            _text("mac", allow_empty=False), _text("essid"), _RSSI),  # hidden networks: ""
            row_bytes=17)
        super().__init__("wifi", "wifi_rows", (_int("ap_id", lo=1, hi=U32_MAX), _RSSI),
                         row_bytes=17)

    def _forms(self):
        return [("'ap_id' in row", self._fields, "(ts, ms, idx, ap_id, rssi)"),
                (None, self._by_pair._fields, "(ts, ms, idx, (mac, essid), rssi)")]

    def row_params(self, row) -> tuple:
        if isinstance(row, dict) and "ap_id" not in row:
            ts, ms, idx, mac, essid, rssi = self._by_pair.row_params(row)
            return ts, ms, idx, (mac, essid), rssi
        return super().row_params(row)

    def row_json(self, row) -> bytes:
        if isinstance(row, dict) and "ap_id" not in row:
            return self._by_pair.row_json(row)
        return super().row_json(row)

    def _kernel_json(self, rows: list[dict]) -> list[bytes] | None:
        if any(map(dict.__contains__, rows, itertools.repeat("ap_id"))):
            return super()._kernel_json(rows)
        return self._by_pair._kernel_json(rows)


_RSSI = _int("rssi", lo=-127, hi=0)

STREAM_SPECS: dict[str, StreamSpec] = {spec.name: spec for spec in (
    StreamSpec("gps", "gps_rows", (
        _number("lat"), _number("lon"), _number("alt"), _number("speed"),
        _number("accuracy"), _int("device_ts")), ms_required=True, row_bytes=47),
    *(_MotionSpec(name) for name in ("accel", "gyro", "mag")),
    _WifiSpec(),
    StreamSpec("bt", "bt_rows", (_text("device_id", allow_empty=False), _RSSI), row_bytes=16),
    StreamSpec("pressure", "pressure_rows", (_number("hpa"),), row_bytes=12),
    StreamSpec("obd", "obd_rows", (_int("pid", hi=U32_MAX), _number("value")),
               ms_required=True, row_bytes=14),
    StreamSpec("events", "event_rows", (
        _text("kind", allow_empty=False), _text("detail", default=None)),
        row_bytes=8, text_bytes=("kind", "detail")),
)}

MOTION_STREAMS = frozenset(s.name for s in STREAM_SPECS.values() if s.sample_bytes)


def natural_key(row: dict) -> tuple[int, int, int]:
    """(ts, ms, idx) of a valid row, as received or validated: unique per
    session and stream, so replayed writes are idempotent. Absent ms is -1
    rather than NULL, which would compare unequal and break idempotent
    replays; absent idx is 0."""
    ms = row.get("ms")
    return row["ts"], -1 if ms is None else ms, row.get("idx") or 0


def write_order(streams: dict[str, list]) -> list[tuple[str, list]]:
    """A batch's (stream, rows) pairs in the order storage writes them and a
    stored count covers them: by stream name, then batch order."""
    return sorted(streams.items())  # names are unique, so rows are never compared


def split_streams(streams: object) -> tuple[dict[str, list], int]:
    """Check a streams map's shape, not its rows; returns (the rows of known
    streams, unknown row count). An empty batch is malformed."""
    if not isinstance(streams, dict):
        raise MalformedPayload("streams must be an object")
    known: dict[str, list] = {}
    unknown = 0
    for name, rows in streams.items():
        if not isinstance(name, str) or not isinstance(rows, list):
            raise MalformedPayload("stream entries must map names to row lists")
        if name in STREAM_SPECS:
            known[name] = rows
        else:
            unknown += len(rows)
    if batch_row_count(known) + unknown == 0:
        raise MalformedPayload("empty row batch")
    return known, unknown


def validate_streams(streams: object) -> tuple[dict[str, list[dict]], int]:
    """Validate a streams map; returns (known streams, unknown row count).
    Each row is normalized as ``StreamSpec.row_json`` writes it: unknown
    fields and a zero idx dropped."""
    known, unknown = split_streams(streams)
    return {name: [json.loads(STREAM_SPECS[name].row_json(row)) for row in rows]
            for name, rows in known.items()}, unknown


def rows_json(known: dict[str, list]) -> dict[str, list[bytes]]:
    """The canonical JSON of each row of known streams (``StreamSpec.rows_json``),
    by stream in write order, so the rows come in the order of their indexes."""
    return {name: STREAM_SPECS[name].rows_json(rows) for name, rows in write_order(known)}


# ---------------------------------------------------------------------------
# compression


def compress(data: bytes) -> bytes:
    return zlib.compress(data, COMPRESSION_LEVEL)


def decompress(data: bytes) -> bytes:
    obj = zlib.decompressobj()
    try:
        out = obj.decompress(data, MAX_DECOMPRESSED_BYTES)
        if obj.unconsumed_tail:
            raise OutputLimitExceeded(
                f"decompressed output exceeds {MAX_DECOMPRESSED_BYTES} bytes")
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


def encode_auth_request(req: AuthRequest, server_public) -> bytes:
    return crypto.asym_encrypt(server_public, compress(serialize_payload(req)))


def decode_auth_request(blob: bytes, server_private) -> AuthRequest:
    plaintext = crypto.asym_decrypt(server_private, blob)
    return deserialize_payload(decompress(plaintext), AuthRequest)


def encode_auth_response(resp: AuthResponse, key: bytes, *, iv: bytes | None = None) -> bytes:
    # plaintext seq prefix lets a client with several auths in flight pick
    # the right decryption key before decrypting
    return _U32.pack(resp.seq) + crypto.sym_encrypt(key, compress(serialize_payload(resp)), iv=iv)


def peek_u32(blob: bytes) -> int:
    """The 4-byte plaintext prefix of a sealed blob (seq or session_id) as an
    unsigned int; a blob of 4 bytes or fewer holds no ciphertext."""
    if len(blob) <= 4:
        raise MalformedPayload("blob too short to hold a prefix and ciphertext")
    return _U32.unpack_from(blob)[0]


def decode_auth_response(blob: bytes, key: bytes) -> AuthResponse:
    seq = peek_u32(blob)
    resp = deserialize_payload(decompress(crypto.sym_decrypt(key, blob[4:])), AuthResponse)
    if resp.seq != seq:
        raise MalformedPayload("payload seq does not match prefix")
    return resp


def streams_json(row_json: dict[str, list[bytes]]) -> bytes:
    """The canonical streams object ``{"name":[row,...],...}`` joined from the
    canonical JSON of each row, so no row is serialized again; equal to
    ``canonical_json(rows)`` for the validated rows. A piece of a stream's
    list may hold several rows already joined by commas."""
    return b"{" + b",".join(canonical_json(name) + b":[" + b",".join(rows) + b"]"
                            for name, rows in sorted(row_json.items())) + b"}"


def data_payload(seq: int, row_json: dict[str, list[bytes]]) -> bytes:
    """The canonical payload ``{"seq":N,"streams":{...}}`` of rows already in
    canonical JSON (see :func:`streams_json`)."""
    return b'{"seq":' + canonical_json(seq) + b',"streams":' + streams_json(row_json) + b"}"


def seal_data_payload(session_id: int, payload: bytes, key: bytes, *,
                      iv: bytes | None = None) -> bytes:
    return _U32.pack(session_id) + crypto.sym_encrypt(key, compress(payload), iv=iv)


def encode_data_packet(pkt: DataPacket, key: bytes, *, iv: bytes | None = None) -> bytes:
    known, unknown = split_streams(pkt.streams)
    if unknown:
        raise ValueError("cannot encode rows for unknown streams")
    return seal_data_payload(pkt.session_id, data_payload(pkt.seq, rows_json(known)), key, iv=iv)


def decode_data_packet(blob: bytes, key_lookup: Callable[[int], bytes | None]) -> DataPacket:
    """Decrypt and parse a data packet. Its rows stay as received: storage
    checks them as it builds their parameters (``StreamSpec.rows_params``)."""
    session_id = peek_u32(blob)
    key = key_lookup(session_id)
    if key is None:
        raise UnknownSession(f"no key for session {session_id}")
    obj = _parse_json(decompress(crypto.sym_decrypt(key, blob[4:])))
    seq = _ints(obj, (_SEQ,))["seq"]
    streams, unknown = split_streams(obj.get("streams"))
    return DataPacket(session_id=session_id, seq=seq, streams=streams, unknown_rows=unknown,
                      key=key)


def encode_feedback(fb: FeedbackPacket, key: bytes, *, iv: bytes | None = None) -> bytes:
    return _U32.pack(fb.session_id) + crypto.sym_encrypt(key, compress(serialize_payload(fb)), iv=iv)


def decode_feedback(blob: bytes, key: bytes) -> FeedbackPacket:
    session_id = peek_u32(blob)
    fb = deserialize_payload(decompress(crypto.sym_decrypt(key, blob[4:])), FeedbackPacket)
    return FeedbackPacket(session_id=session_id, seq=fb.seq, stored=fb.stored)


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
