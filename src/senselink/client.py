"""Upload session engine for a gathering unit.

The engine is sans-I/O: it consumes wall-clock ``now`` values and received
wire blobs, and emits ``(kind, blob)`` pairs the caller must transmit (kind
routes to the auth or data socket). That keeps the whole state machine
testable under a virtual clock; real-socket helpers live at the bottom.

Reliability rules:

* a row leaves the buffer only after feedback whose stored count covers it
* a packet's retry timer starts when the packet is handed to the transport,
  at the ``now`` of the pump that encodes it; the drain loop pumps one new
  packet at a time with a fresh ``now``, so encoding a window never expires
  the timers of packets still waiting to be sent
* each row is validated and serialized once, when it is buffered; a packet's
  payload is joined from those bytes and kept until the packet is
  acknowledged
* retransmission uses exponential backoff and re-emits identical bytes,
  unless the key or session id changed since the packet was sealed, in
  which case the kept payload is re-sealed under the current values
* feedback reporting stored < sent releases the stored prefix (server-side
  write order: stream name, then batch order) and re-enqueues the shortfall
  at the front of the buffer under a fresh sequence number
* after every few fruitless retries of the same packet the engine re-sends
  an authentication packet, so a server that lost or rotated the session
  key converges back instead of discarding packets forever
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass

from . import codec, crypto
from .journal import MemoryJournal, iter_batch_rows

AUTH = "auth"
DATA = "data"

DEFAULT_WINDOW = 16
BASE_TIMEOUT = 0.5
BACKOFF_FACTOR = 2.0
MAX_TIMEOUT = 30.0
MAX_RETRIES = 10
BUFFER_LIMIT_BYTES = 64 * 1024 * 1024
PACK_JSON_BUDGET = 240 * 1024  # JSON bytes per data packet before compression
AUTH_REFRESH_EVERY = 4  # data retries between self-healing re-auths


class ClientError(Exception):
    pass


class BufferFull(ClientError):
    pass


class UnknownSeq(ClientError):
    pass


class TimeMismatch(ClientError):
    pass


@dataclass(slots=True)
class _BufferedRow:
    index: int  # journal index
    stream: str
    json: bytes  # canonical JSON of the validated row

    @property
    def json_size(self) -> int:
        return len(self.json) + 1  # plus one list separator


def _data_payload(seq: int, entries: list[_BufferedRow]) -> bytes:
    row_json: dict[str, list[bytes]] = {}
    for entry in entries:
        row_json.setdefault(entry.stream, []).append(entry.json)
    return codec.data_payload(seq, row_json)


@dataclass
class PendingAuth:
    seq: int
    key: bytes
    identifiers: dict | None
    blob: bytes
    retries: int = 0
    next_retry_at: float = 0.0


@dataclass
class OutstandingPacket:
    seq: int
    entries: list[_BufferedRow]
    payload: bytes  # canonical JSON, sealed again after a key or session change
    blob: bytes
    key_used: bytes
    session_id_used: int
    first_sent_at: float
    retries: int = 0
    next_retry_at: float = 0.0

    @property
    def row_count(self) -> int:
        return len(self.entries)

    @property
    def json_size(self) -> int:
        return len(self.payload)


@dataclass(frozen=True)
class AckResult:
    seq: int
    sent_rows: int
    stored_rows: int


@dataclass(frozen=True)
class DeliveryReport:
    delivered_rows: int
    failed_rows: int
    pending_rows: int
    retransmissions: int
    packets_sent: int
    packets_failed: int
    auth_sent: int
    auth_responses: int
    feedback_received: int
    json_bytes: int
    wire_bytes: int
    wire_bytes_total: int
    max_inflight: int

    @property
    def complete(self) -> bool:
        return self.failed_rows == 0 and self.pending_rows == 0


class ClientSession:
    """One recording session: handshake, windowed upload, buffer release."""

    def __init__(self, user_hash: str, start_time: int, server_public, *,
                 version: int = 1, identifiers: dict | None = None,
                 window: int = DEFAULT_WINDOW, journal=None,
                 max_retries: int = MAX_RETRIES,
                 buffer_limit_bytes: int = BUFFER_LIMIT_BYTES,
                 pack_json_budget: int = PACK_JSON_BUDGET,
                 max_packet_bytes: int = codec.MAX_PACKET_BYTES,
                 auth_refresh_every: int = AUTH_REFRESH_EVERY):
        if not crypto.is_user_hash(user_hash):
            raise ValueError("user_hash must be 32 lowercase hex characters")
        if start_time <= 0:
            raise ValueError("start_time must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.user_hash = user_hash
        self.start_time = start_time
        self.version = version
        self.identifiers = dict(identifiers) if identifiers else None
        self.server_public = server_public
        self.window = window
        self.max_retries = max_retries
        self.buffer_limit_bytes = buffer_limit_bytes
        self.pack_json_budget = pack_json_budget
        self.max_packet_bytes = max_packet_bytes
        self.auth_refresh_every = auth_refresh_every

        self.journal = journal if journal is not None else MemoryJournal()
        self.key = b""  # set by the first auth request
        self.session_id: int | None = None
        self.auth_failed = False
        self._next_seq = 1
        self._buffer: deque[_BufferedRow] = deque()
        self._buffered_bytes = 0
        self._flight: dict[int, OutstandingPacket] = {}
        self._pending_auths: dict[int, PendingAuth] = {}
        self._released: set[int] = set()
        self._watermark = self.journal.watermark
        self._failed_rows = 0
        self.counters = {
            "rows_enqueued": 0, "rows_delivered": 0, "rows_reenqueued": 0,
            "packets_sent": 0, "retransmissions": 0, "packets_failed": 0,
            "auth_sent": 0, "auth_responses": 0, "auth_ignored": 0,
            "feedback_received": 0, "feedback_ignored": 0,
            "json_bytes": 0, "wire_bytes": 0, "wire_bytes_total": 0,
            "max_inflight": 0,
        }
        for index, stream, row in self.journal.pending_rows():
            self._buffer_row(index, stream,
                             codec.canonical_json(codec.validate_row(stream, row)))

    # -- helpers ------------------------------------------------------------

    @property
    def authenticated(self) -> bool:
        return self.session_id is not None

    def take_seq(self) -> int:
        seq = self._next_seq
        self._next_seq += 1
        return seq

    def _timeout_after(self, retries: int) -> float:
        return min(MAX_TIMEOUT, BASE_TIMEOUT * BACKOFF_FACTOR ** retries)

    def _buffer_row(self, index: int, stream: str, row_json: bytes):
        entry = _BufferedRow(index, stream, row_json)
        self._buffer.append(entry)
        self._buffered_bytes += entry.json_size

    # -- handshake ----------------------------------------------------------

    def _make_auth(self, now: float, key: bytes, identifiers: dict | None) -> tuple[str, bytes]:
        seq = self.take_seq()
        req = codec.AuthRequest(seq=seq, user_hash=self.user_hash,
                                time=self.start_time, key=key,
                                version=self.version, identifiers=identifiers)
        blob = codec.encode_auth_request(req, self.server_public)
        self._pending_auths[seq] = PendingAuth(
            seq=seq, key=key, identifiers=identifiers, blob=blob,
            next_retry_at=now + self._timeout_after(0))
        self.counters["auth_sent"] += 1
        self.counters["wire_bytes_total"] += len(blob)
        return (AUTH, blob)

    def begin(self, now: float = 0.0) -> list[tuple[str, bytes]]:
        """First authentication request; generates the session key."""
        if self.key or self._pending_auths:
            raise ClientError("session already started")
        self.key = crypto.generate_session_key()
        return [self._make_auth(now, self.key, self.identifiers)]

    def update_session(self, now: float, new_key: bytes | None = None,
                       new_identifiers: dict | None = None) -> list[tuple[str, bytes]]:
        """Re-auth with the same (hash, time): rotate the key and/or replace
        identifiers. Data keeps flowing under the old key until the response
        arrives."""
        key = new_key if new_key is not None else self.key
        if len(key) != crypto.SESSION_KEY_LEN:
            raise ValueError("session key must be 16 bytes")
        identifiers = self.identifiers if new_identifiers is None else new_identifiers
        return [self._make_auth(now, key, identifiers)]

    def handle_auth_response(self, resp: codec.AuthResponse, now: float = 0.0) -> bool:
        pending = self._pending_auths.get(resp.seq)
        if pending is None:
            raise UnknownSeq(f"no pending auth with seq {resp.seq}")
        if resp.time != self.start_time:
            raise TimeMismatch(f"auth response time {resp.time} != {self.start_time}")
        self.session_id = resp.session_id
        self.key = pending.key
        self.identifiers = pending.identifiers
        # earlier proposals are superseded; later ones stay in flight
        for seq in [s for s in self._pending_auths if s <= resp.seq]:
            del self._pending_auths[seq]
        self.counters["auth_responses"] += 1
        return True

    # -- buffering ----------------------------------------------------------

    def enqueue_rows(self, streams: dict[str, list[dict]]) -> int:
        known, unknown = codec.validate_streams(streams)
        if unknown:
            raise ValueError("cannot enqueue rows for unknown streams")
        rows = [(stream, codec.canonical_json(row)) for stream, row in iter_batch_rows(known)]
        if self._buffered_bytes + sum(len(data) + 1 for _, data in rows) > self.buffer_limit_bytes:
            raise BufferFull(f"buffer limit {self.buffer_limit_bytes} bytes exceeded")
        indexes = self.journal.append(known)
        for (stream, data), index in zip(rows, indexes):
            self._buffer_row(index, stream, data)
        self.counters["rows_enqueued"] += len(rows)
        return len(rows)

    # -- transmission -------------------------------------------------------

    @property
    def can_send_new(self) -> bool:
        """Whether ``pump`` would encode a new data packet now."""
        return self.authenticated and bool(self._buffer) and len(self._flight) < self.window

    def pump(self, now: float, max_new: int | None = None) -> list[tuple[str, bytes]]:
        """Due retransmissions, then new data packets until the window is
        full or ``max_new`` are encoded; each new packet's retry timer starts
        at ``now``."""
        out: list[tuple[str, bytes]] = []
        self._pump_auth(now, out)
        if self.authenticated:
            self._pump_retries(now, out)
            new = 0
            while self.can_send_new and (max_new is None or new < max_new):
                out.append(self._send_new_packet(now))
                new += 1
        self.counters["max_inflight"] = max(self.counters["max_inflight"],
                                            len(self._flight))
        return out

    def _pump_auth(self, now: float, out: list):
        for pending in list(self._pending_auths.values()):
            if now < pending.next_retry_at:
                continue
            if pending.retries >= self.max_retries:
                del self._pending_auths[pending.seq]
                if not self.authenticated and not self._pending_auths:
                    self.auth_failed = True
                continue
            pending.retries += 1
            pending.next_retry_at = now + self._timeout_after(pending.retries)
            out.append((AUTH, pending.blob))
            self.counters["auth_sent"] += 1
            self.counters["wire_bytes_total"] += len(pending.blob)

    def _pump_retries(self, now: float, out: list):
        for pkt in list(self._flight.values()):
            if now < pkt.next_retry_at:
                continue
            if pkt.retries >= self.max_retries:
                self._fail_packet(pkt)
                continue
            if pkt.key_used != self.key or pkt.session_id_used != self.session_id:
                pkt.blob = codec.seal_data_payload(self.session_id, pkt.payload, self.key)
                pkt.key_used = self.key
                pkt.session_id_used = self.session_id
            pkt.retries += 1
            pkt.next_retry_at = now + self._timeout_after(pkt.retries)
            out.append((DATA, pkt.blob))
            self.counters["retransmissions"] += 1
            self.counters["packets_sent"] += 1
            self.counters["wire_bytes_total"] += len(pkt.blob)
            if (self.auth_refresh_every and not self._pending_auths
                    and pkt.retries % self.auth_refresh_every == 0):
                out.append(self._make_auth(now, self.key, self.identifiers))

    def _send_new_packet(self, now: float) -> tuple[str, bytes]:
        take: list[_BufferedRow] = []
        total = 0
        for entry in self._buffer:
            if take and total + entry.json_size > self.pack_json_budget:
                break
            take.append(entry)
            total += entry.json_size
        seq = self.take_seq()
        while True:
            payload = _data_payload(seq, take)
            blob = codec.seal_data_payload(self.session_id, payload, self.key)
            if len(blob) <= self.max_packet_bytes:
                break
            if len(take) == 1:
                raise ClientError("single row exceeds the packet size limit")
            # shrink in proportion to the overshoot, with 10% headroom
            keep = int(len(take) * self.max_packet_bytes * 0.9 // len(blob))
            take = take[:min(max(keep, 1), len(take) - 1)]
        for _ in take:
            entry = self._buffer.popleft()
            self._buffered_bytes -= entry.json_size
        pkt = OutstandingPacket(
            seq=seq, entries=take, payload=payload, blob=blob,
            key_used=self.key, session_id_used=self.session_id,
            first_sent_at=now, next_retry_at=now + self._timeout_after(0))
        self._flight[seq] = pkt
        self.counters["packets_sent"] += 1
        self.counters["json_bytes"] += len(payload)
        self.counters["wire_bytes"] += len(blob)
        self.counters["wire_bytes_total"] += len(blob)
        return (DATA, blob)

    def _fail_packet(self, pkt: OutstandingPacket):
        del self._flight[pkt.seq]
        self._failed_rows += pkt.row_count
        self.counters["packets_failed"] += 1

    # -- feedback -----------------------------------------------------------

    def handle_feedback(self, fb: codec.FeedbackPacket, now: float = 0.0) -> AckResult | None:
        if fb.session_id != self.session_id:
            self.counters["feedback_ignored"] += 1
            return None
        pkt = self._flight.pop(fb.seq, None)
        if pkt is None:
            self.counters["feedback_ignored"] += 1
            return None
        self.counters["feedback_received"] += 1
        stored = min(fb.stored, pkt.row_count)
        # storage's write order (codec.write_order): stream name, then packet order
        ordered = sorted(pkt.entries, key=lambda entry: entry.stream)
        for entry in ordered[:stored]:
            self._released.add(entry.index)
        self._advance_watermark()
        self.counters["rows_delivered"] += stored
        shortfall = ordered[stored:]
        if shortfall:
            shortfall.sort(key=lambda e: e.index)
            for entry in reversed(shortfall):
                self._buffer.appendleft(entry)
                self._buffered_bytes += entry.json_size
            self.counters["rows_reenqueued"] += len(shortfall)
        return AckResult(seq=fb.seq, sent_rows=pkt.row_count, stored_rows=stored)

    def _advance_watermark(self):
        while self._watermark in self._released:
            self._released.discard(self._watermark)
            self._watermark += 1
        if self._watermark > self.journal.watermark:
            self.journal.ack_through(self._watermark)

    # -- wire dispatch ------------------------------------------------------

    def handle_wire(self, kind: str, blob: bytes, now: float = 0.0) -> AckResult | bool | None:
        """Decode and apply one received blob; undecodable input is ignored."""
        try:
            if kind == AUTH:
                seq = codec.peek_u32(blob)
                pending = self._pending_auths.get(seq)
                if pending is None:
                    self.counters["auth_ignored"] += 1
                    return None
                resp = codec.decode_auth_response(blob, pending.key)
                return self.handle_auth_response(resp, now)
            fb = codec.decode_feedback(blob, self.key)
            return self.handle_feedback(fb, now)
        except codec.DECODE_ERRORS + (UnknownSeq, TimeMismatch):
            key = "auth_ignored" if kind == AUTH else "feedback_ignored"
            self.counters[key] += 1
            return None

    # -- lifecycle ----------------------------------------------------------

    def is_done(self) -> bool:
        if self.auth_failed:
            return True
        return (self.authenticated and not self._buffer and not self._flight
                and not self._pending_auths)

    def next_wakeup(self) -> float | None:
        times = [p.next_retry_at for p in self._pending_auths.values()]
        times += [p.next_retry_at for p in self._flight.values()]
        return min(times) if times else None

    def report(self) -> DeliveryReport:
        c = self.counters
        pending = len(self._buffer) + sum(p.row_count for p in self._flight.values())
        failed = self._failed_rows
        if self.auth_failed:
            failed += pending
            pending = 0
        return DeliveryReport(
            delivered_rows=c["rows_delivered"], failed_rows=failed,
            pending_rows=pending, retransmissions=c["retransmissions"],
            packets_sent=c["packets_sent"], packets_failed=c["packets_failed"],
            auth_sent=c["auth_sent"], auth_responses=c["auth_responses"],
            feedback_received=c["feedback_received"], json_bytes=c["json_bytes"],
            wire_bytes=c["wire_bytes"], wire_bytes_total=c["wire_bytes_total"],
            max_inflight=c["max_inflight"])


# ---------------------------------------------------------------------------
# real-socket transports and the blocking drain loop


class UdpTransport:
    """One datagram socket; replies are routed by the server port they
    come from."""

    def __init__(self, host: str, auth_port: int, data_port: int):
        self._auth_addr = (host, auth_port)
        self._data_addr = (host, data_port)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setblocking(False)

    def send(self, kind: str, blob: bytes):
        self._sock.sendto(blob, self._auth_addr if kind == AUTH else self._data_addr)

    def poll(self, timeout: float) -> list[tuple[str, bytes]]:
        out = []
        readable, _, _ = select.select([self._sock], [], [], max(timeout, 0.0))
        while readable:
            try:
                blob, addr = self._sock.recvfrom(65535)
            except BlockingIOError:
                break
            kind = AUTH if addr[1] == self._auth_addr[1] else DATA
            out.append((kind, blob))
        return out

    def close(self):
        self._sock.close()


class TcpTransport:
    """Two framed stream connections, one per server socket.

    The sockets stay in timeout mode, where ``sendall`` waits while the
    peer's receive window is full and then writes the rest of the frame; a
    non-blocking socket would fail part-way through a frame instead and
    desynchronize the framing. A peer that reads nothing for the whole
    timeout makes ``send`` raise ``socket.timeout``; a connection the server
    has closed makes ``poll`` raise ``ConnectionError``."""

    def __init__(self, host: str, auth_port: int, data_port: int,
                 connect_timeout: float = 10.0):
        self._socks = {}
        self._buffers = {AUTH: codec.FrameBuffer(), DATA: codec.FrameBuffer()}
        for kind, port in ((AUTH, auth_port), (DATA, data_port)):
            self._socks[kind] = socket.create_connection((host, port), timeout=connect_timeout)

    def send(self, kind: str, blob: bytes):
        self._socks[kind].sendall(codec.frame(blob))

    def poll(self, timeout: float) -> list[tuple[str, bytes]]:
        out = []
        readable, _, _ = select.select(list(self._socks.values()), [], [],
                                       max(timeout, 0.0))
        by_sock = {sock: kind for kind, sock in self._socks.items()}
        for sock in readable:
            kind = by_sock[sock]
            data = sock.recv(65536)  # readable, so this returns at once
            if not data:
                raise ConnectionError(f"server closed the {kind} connection")
            out.extend((kind, blob) for blob in self._buffers[kind].feed(data))
        return out

    def close(self):
        for sock in self._socks.values():
            sock.close()


def run_until_drained(session: ClientSession, transport, *,
                      timeout: float | None = None,
                      clock=time.monotonic, sleep_quantum: float = 0.2) -> DeliveryReport:
    """Pump and receive until every buffered row is delivered or given up.

    New data packets are encoded one per pump and sent at once, so the
    transfer and the server's work on one packet overlap the encoding of the
    next; feedback that has already arrived is read before each encode."""
    deadline = None if timeout is None else clock() + timeout
    while not session.is_done():
        now = clock()
        if deadline is not None and now >= deadline:
            break
        for kind, blob in session.pump(now, max_new=1):
            transport.send(kind, blob)
        if session.can_send_new:
            wait = 0.0
        else:
            wake = session.next_wakeup()
            wait = sleep_quantum if wake is None else min(sleep_quantum,
                                                          max(wake - clock(), 0.0))
            if deadline is not None:
                wait = min(wait, max(deadline - clock(), 0.0))
        for kind, blob in transport.poll(wait):
            session.handle_wire(kind, blob, clock())
    return session.report()
