"""Upload session engine for a gathering unit.

The engine is sans-I/O: it consumes wall-clock ``now`` values and received
wire blobs, each through ``handle_wire``, and emits ``(kind, blob)`` pairs
the caller must transmit (kind routes to the auth or data socket). That
keeps the whole state machine testable under a virtual clock; real-socket
helpers live at the bottom.

Rows wait in a buffer of runs. A run is one stream's rows with consecutive
journal indexes: its first index, its stream, the rows' canonical JSON
joined by commas, and where each row's JSON ends (an ``array('I')``). A
batch adds one run per stream, as does each run the journal replays (one a
stream of a record, its rows checked JSON); no Python object is kept per row.

Reliability rules:

* a packet's rows are released only by feedback whose stored count equals
  the packet's row count, which the server sends once it has stored them
  all; any other count is ignored, and the packet stays in flight
* a packet's retry timer starts when the packet is handed to the transport,
  at the ``now`` of the pump that encodes it; the drain loop pumps one new
  packet at a time with a fresh ``now``, so encoding a window never expires
  the timers of packets still waiting to be sent
* a batch that names a stream outside ``codec.STREAM_SPECS`` is refused
  whole, as the server refuses such a packet; the rows of a batch are
  checked and serialized by the compiled per-stream functions when they
  are buffered (``StreamSpec.rows_json``); the journal's records of the
  batch (it sizes them) and each packet's payload are joined
  from those bytes, a packet of ``PACK_JSON_BUDGET`` is sealed once, and a
  payload is kept until the packet is acknowledged
* a new packet takes whole runs from the front of the buffer and splits at
  most one, where a bisection of its row ends finds the JSON budget
* one retry timer serves handshakes and data packets alike: one not
  answered by its deadline is sent again, its timeout growing by
  ``BACKOFF_FACTOR`` from ``BASE_TIMEOUT`` up to ``MAX_TIMEOUT``; after
  ``MAX_RETRIES`` retries it is given up (a data packet's rows count as
  failed; the last handshake given up before a session id arrives fails
  the session)
* a retransmission re-emits identical bytes, unless the key or session id
  changed since the packet was sealed, in which case the kept payload is
  re-sealed under the current values
* the buffer holds consecutive journal indexes and a new packet takes its
  front, so each packet in flight is one index range, kept as its first
  index and row count; the journal's watermark is the only acknowledgement
  state: feedback moves it to the first index the session still holds,
  the lowest of the buffer's front, the packets in flight and the first
  packet given up
* after every few fruitless retries of the same packet the engine re-sends
  an authentication packet, so a server that lost or rotated the session
  key converges back instead of discarding packets forever

A session sets its window, journal, JSON bytes per packet and identifiers,
and always sends ``codec.PROTOCOL_VERSION``; the retry limit, backoff,
re-auth interval, buffer limit and packet-size limit are module constants
(the last is ``codec.MAX_PACKET_BYTES``, which the server enforces on every
transport, as it does ``codec.MAX_DECOMPRESSED_BYTES`` on a packet's payload).
"""

from __future__ import annotations

import itertools
import math
import select
import socket
import time
from array import array
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, fields
from operator import add

from . import codec, crypto
from . import journal as _journal

AUTH = "auth"
DATA = "data"

DEFAULT_WINDOW = 16
BASE_TIMEOUT = 0.5
BACKOFF_FACTOR = 2.0
MAX_TIMEOUT = 30.0
MAX_RETRIES = 10
# Counts what the buffer's runs hold (_Run.size): their rows' joined JSON,
# 4 bytes of row end per row and _RUN_BYTES per run. Rows in flight are not
# counted; they are kept as their packet's payload, which the window bounds
# to about window x PACK_JSON_BUDGET bytes.
BUFFER_LIMIT_BYTES = 64 * 1024 * 1024
# JSON bytes per data packet before compression. Motion rows, the stream
# that compresses worst, seal to about 0.29 of their JSON, so a full packet
# seals under MAX_PACKET_BYTES at the first try; the shrink loop in
# _send_new_packet guards anything less compressible, and a payload over
# codec.MAX_DECOMPRESSED_BYTES, which the server would not inflate. The
# server parses a whole packet at once, so its peak memory grows with this
# budget.
PACK_JSON_BUDGET = 160 * 1024
AUTH_REFRESH_EVERY = 4  # data retries between self-healing re-auths
CONNECT_TIMEOUT = 10.0  # seconds TcpTransport waits to connect
SLEEP_QUANTUM = 0.2  # longest wait in run_until_drained between pumps


class ClientError(Exception):
    pass


class BufferFull(ClientError):
    pass


# The Python objects of one run besides its JSON and row ends (the run, the
# bytes and array headers, its first index, its slot in the buffer), as
# tracemalloc measures them on CPython 3.11
_RUN_BYTES = 230


@dataclass(slots=True)
class _Run:
    """Rows of one stream with consecutive journal indexes from ``start``:
    their canonical JSON joined by commas in ``data``, and in ``ends`` where
    each row's JSON ends, counted from ``base`` bytes before ``data`` (the
    offsets of a split run stay those of the run it was cut from)."""

    start: int
    stream: str
    data: bytes
    ends: array
    base: int = 0

    @classmethod
    def of_rows(cls, start: int, stream: str, rows: list[bytes]) -> _Run:
        # row k ends after the lengths of rows 0..k and k commas
        ends = array("I", map(add, itertools.accumulate(map(len, rows)), itertools.count()))
        return cls(start, stream, b",".join(rows), ends)

    def __len__(self) -> int:
        return len(self.ends)

    @property
    def size(self) -> int:
        """Bytes counted against ``BUFFER_LIMIT_BYTES``."""
        return len(self.data) + self.ends.itemsize * len(self.ends) + _RUN_BYTES

    def fit(self, budget: int) -> int:
        """How many leading rows fit in budget bytes of JSON, each row's
        with one list separator."""
        return bisect_right(self.ends, self.base + budget - 1)

    def head(self, n: int) -> _Run:
        """The run's first n rows."""
        return _Run(self.start, self.stream, self.data[:self.ends[n - 1] - self.base],
                    self.ends[:n], self.base)

    def tail(self, n: int) -> _Run:
        """The run without its first n rows."""
        cut = self.ends[n - 1] - self.base + 1
        return _Run(self.start + n, self.stream, self.data[cut:], self.ends[n:],
                    self.base + cut)


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
    start: int  # the first journal index of the packet's rows
    row_count: int
    payload: bytes  # canonical JSON, sealed again after a key or session change
    blob: bytes
    key_used: bytes
    session_id_used: int
    first_sent_at: float
    retries: int = 0
    next_retry_at: float = 0.0


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
    auth_ignored: int
    feedback_ignored: int
    json_bytes: int
    wire_bytes: int        # unique data packets, client to server
    wire_bytes_total: int  # everything the client transmitted
    max_inflight: int

    @property
    def complete(self) -> bool:
        return self.failed_rows == 0 and self.pending_rows == 0


class ClientSession:
    """One recording session: handshake, windowed upload, buffer release."""

    def __init__(self, user_hash: str, start_time: int, server_public, *,
                 identifiers: dict | None = None,
                 window: int = DEFAULT_WINDOW, journal=None,
                 pack_json_budget: int = PACK_JSON_BUDGET):
        if not crypto.is_user_hash(user_hash):
            raise ValueError("user_hash must be 32 lowercase hex characters")
        if start_time <= 0:
            raise ValueError("start_time must be positive")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.user_hash = user_hash
        self.start_time = start_time
        self.identifiers = dict(identifiers) if identifiers else None
        self.server_public = server_public
        self.window = window
        self.pack_json_budget = pack_json_budget

        self.journal = journal if journal is not None else _journal.MemoryJournal()
        self.key = b""  # set by the first auth request
        self.session_id: int | None = None
        self.auth_failed = False
        self._next_seq = 1
        self._buffer: deque[_Run] = deque()
        self._buffered_bytes = 0  # the sizes of the buffer's runs
        self._flight: dict[int, OutstandingPacket] = {}
        self._pending_auths: dict[int, PendingAuth] = {}
        self._failed_from = math.inf  # the lowest first index of a packet given up
        self._failed_rows = 0
        # each count DeliveryReport reports, less the two report() works
        # out, is kept under its field name
        self.counters = {f.name: 0 for f in fields(DeliveryReport)
                         if f.name not in ("failed_rows", "pending_rows")}
        for start, stream, rows in self.journal.pending_runs():
            self._buffer_run(_Run.of_rows(start, stream, rows))

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

    def _buffer_run(self, run: _Run):
        self._buffer.append(run)
        self._buffered_bytes += run.size

    def _count_sent(self, kind: str, blob: bytes) -> tuple[str, bytes]:
        """Count one handshake or data packet handed to the transport."""
        self.counters["auth_sent" if kind == AUTH else "packets_sent"] += 1
        self.counters["wire_bytes_total"] += len(blob)
        return (kind, blob)

    def _due(self, entries: dict, now: float, give_up):
        """The entries of a dict (seq to pending handshake or packet) whose
        retry timer has expired, each re-armed for its next retry; an entry
        out of retries goes to ``give_up``, which removes it."""
        for entry in list(entries.values()):
            if now < entry.next_retry_at:
                continue
            if entry.retries >= MAX_RETRIES:
                give_up(entry)
                continue
            entry.retries += 1
            entry.next_retry_at = now + self._timeout_after(entry.retries)
            yield entry

    # -- handshake ----------------------------------------------------------

    def _make_auth(self, now: float, key: bytes, identifiers: dict | None) -> tuple[str, bytes]:
        seq = self.take_seq()
        req = codec.AuthRequest(seq=seq, user_hash=self.user_hash,
                                time=self.start_time, key=key, identifiers=identifiers)
        blob = codec.encode_auth_request(req, self.server_public)
        self._pending_auths[seq] = PendingAuth(
            seq=seq, key=key, identifiers=identifiers, blob=blob,
            next_retry_at=now + self._timeout_after(0))
        return self._count_sent(AUTH, blob)

    def begin(self, now: float = 0.0) -> list[tuple[str, bytes]]:
        """First authentication request; generates the session key. A
        request the encoder refuses raises and leaves the session unstarted."""
        if self.key or self._pending_auths:
            raise ClientError("session already started")
        key = crypto.generate_session_key()
        out = [self._make_auth(now, key, self.identifiers)]
        self.key = key
        return out

    def update_session(self, now: float, new_key: bytes | None = None,
                       new_identifiers: dict | None = None) -> list[tuple[str, bytes]]:
        """Re-auth with the same (hash, time): rotate the key and/or replace
        identifiers. Data keeps flowing under the old key until the response
        arrives. A request the encoder refuses raises and changes nothing."""
        key = new_key if new_key is not None else self.key
        if len(key) != crypto.SESSION_KEY_LEN:
            raise ValueError("session key must be 16 bytes")
        identifiers = self.identifiers if new_identifiers is None else new_identifiers
        return [self._make_auth(now, key, identifiers)]

    # -- buffering ----------------------------------------------------------

    def enqueue_rows(self, streams: dict[str, list[dict]]) -> int:
        """Journal and buffer a batch; returns its row count. A batch that
        names a stream outside ``codec.STREAM_SPECS`` or holds a malformed
        row raises ``codec.MalformedPayload``, and nothing of it is kept."""
        row_json = codec.rows_json(codec.split_streams(streams))  # checks every row
        # in write order, the order of the indexes; indexes are set once journaled
        runs = [_Run.of_rows(0, stream, rows) for stream, rows in row_json.items()]
        if self._buffered_bytes + sum(run.size for run in runs) > BUFFER_LIMIT_BYTES:
            raise BufferFull(f"buffer limit {BUFFER_LIMIT_BYTES} bytes exceeded")
        indexes = self.journal.append(row_json)
        index = indexes.start
        for run in runs:
            run.start = index
            index += len(run)
            if run:
                self._buffer_run(run)
        return len(indexes)

    # -- transmission -------------------------------------------------------

    @property
    def can_send_new(self) -> bool:
        """Whether ``pump`` would encode a new data packet now."""
        return self.authenticated and bool(self._buffer) and len(self._flight) < self.window

    def pump(self, now: float, max_new: int | None = None) -> list[tuple[str, bytes]]:
        """Due handshake retries, due data retries in flight order (each
        followed by a re-auth every ``AUTH_REFRESH_EVERY`` retries), then new
        data packets until the window is full or ``max_new`` are encoded;
        each new packet's retry timer starts at ``now``."""
        out = [self._count_sent(AUTH, pending.blob)
               for pending in self._due(self._pending_auths, now, self._give_up_auth)]
        if self.authenticated:
            for pkt in self._due(self._flight, now, self._fail_packet):
                if pkt.key_used != self.key or pkt.session_id_used != self.session_id:
                    pkt.blob = codec.seal_data_payload(self.session_id, pkt.payload, self.key)
                    pkt.key_used = self.key
                    pkt.session_id_used = self.session_id
                out.append(self._count_sent(DATA, pkt.blob))
                self.counters["retransmissions"] += 1
                if not self._pending_auths and pkt.retries % AUTH_REFRESH_EVERY == 0:
                    out.append(self._make_auth(now, self.key, self.identifiers))
            new = 0
            while self.can_send_new and (max_new is None or new < max_new):
                out.append(self._send_new_packet(now))
                new += 1
        self.counters["max_inflight"] = max(self.counters["max_inflight"],
                                            len(self._flight))
        return out

    def _give_up_auth(self, pending: PendingAuth):
        del self._pending_auths[pending.seq]
        if not self.authenticated and not self._pending_auths:
            self.auth_failed = True

    def _rows_in_budget(self) -> int:
        """How many rows from the front of the buffer a new packet takes: the
        longest prefix within the JSON budget, and at least one row."""
        count = total = 0
        for run in self._buffer:
            n = run.fit(self.pack_json_budget - total)
            count += n
            if n < len(run):
                break
            total += len(run.data) + 1
        return max(count, 1)

    def _front(self, count: int) -> list[_Run]:
        """The first count rows of the buffer as runs, the last one possibly
        cut short; the buffer is unchanged."""
        runs = []
        for run in self._buffer:
            if count < len(run):
                runs.append(run.head(count))
                break
            runs.append(run)
            count -= len(run)
            if not count:
                break
        return runs

    def _send_new_packet(self, now: float) -> tuple[str, bytes]:
        count = self._rows_in_budget()
        seq = self.take_seq()
        while True:
            take = self._front(count)
            row_json: dict[str, list[bytes]] = {}
            for run in take:
                row_json.setdefault(run.stream, []).append(run.data)
            payload = codec.data_payload(seq, row_json)
            if len(payload) > codec.MAX_DECOMPRESSED_BYTES:  # the server would not inflate it
                size, limit = len(payload), codec.MAX_DECOMPRESSED_BYTES
            else:
                blob = codec.seal_data_payload(self.session_id, payload, self.key)
                if len(blob) <= codec.MAX_PACKET_BYTES:
                    break
                size, limit = len(blob), codec.MAX_PACKET_BYTES
            if count == 1:
                raise ClientError("single row exceeds the packet size limit")
            # shrink in proportion to the overshoot, with 10% headroom
            keep = int(count * limit * 0.9 // size)
            count = min(max(keep, 1), count - 1)
        for _ in take:
            run = self._buffer.popleft()
            self._buffered_bytes -= run.size
        if len(run) > len(take[-1]):  # the last run was split
            self._buffer.appendleft(run.tail(len(take[-1])))
            self._buffered_bytes += self._buffer[0].size
        pkt = OutstandingPacket(
            seq=seq, start=take[0].start, row_count=count, payload=payload, blob=blob,
            key_used=self.key, session_id_used=self.session_id,
            first_sent_at=now, next_retry_at=now + self._timeout_after(0))
        self._flight[seq] = pkt
        self.counters["json_bytes"] += len(payload)
        self.counters["wire_bytes"] += len(blob)
        return self._count_sent(DATA, blob)

    def _fail_packet(self, pkt: OutstandingPacket):
        del self._flight[pkt.seq]
        self._failed_from = min(self._failed_from, pkt.start)
        self._failed_rows += pkt.row_count
        self.counters["packets_failed"] += 1

    # -- feedback -----------------------------------------------------------

    def handle_feedback(self, fb: codec.FeedbackPacket, now: float = 0.0) -> AckResult | None:
        """Release a packet in flight whose feedback stored all its rows, and
        move the journal's watermark to the first index the session still
        holds; other feedback is ignored, and the packet is retried as it was."""
        pkt = self._flight.get(fb.seq) if fb.session_id == self.session_id else None
        if pkt is None or fb.stored != pkt.row_count:
            self.counters["feedback_ignored"] += 1
            return None
        del self._flight[fb.seq]
        self.counters["feedback_received"] += 1
        held = min(self._failed_from,
                   self._buffer[0].start if self._buffer else self.journal.total_rows,
                   *(p.start for p in self._flight.values()))
        if held > self.journal.watermark:
            self.journal.ack_through(held)
        self.counters["delivered_rows"] += pkt.row_count
        return AckResult(seq=fb.seq, sent_rows=pkt.row_count, stored_rows=pkt.row_count)

    # -- wire dispatch ------------------------------------------------------

    def handle_wire(self, kind: str, blob: bytes, now: float = 0.0) -> AckResult | bool | None:
        """Decode and apply one received blob, the only way a reply enters
        the engine. Feedback goes to ``handle_feedback``. A handshake reply
        that answers a pending handshake and names this session's start time
        sets the session id and adopts that handshake's key and identifiers;
        any other reply, and input that does not decode, is counted as
        ignored and changes nothing."""
        if kind != AUTH:
            try:
                fb = codec.decode_feedback(blob, self.key)
            except codec.DECODE_ERRORS:
                self.counters["feedback_ignored"] += 1
                return None
            return self.handle_feedback(fb, now)
        try:
            pending = self._pending_auths.get(codec.peek_u32(blob))
            resp = codec.decode_auth_response(blob, pending.key) if pending else None
        except codec.DECODE_ERRORS:
            resp = None
        if resp is None or resp.time != self.start_time:
            self.counters["auth_ignored"] += 1
            return None
        self.session_id = resp.session_id
        self.key = pending.key
        self.identifiers = pending.identifiers
        # earlier proposals are superseded; later ones stay in flight
        for seq in [s for s in self._pending_auths if s <= resp.seq]:
            del self._pending_auths[seq]
        self.counters["auth_responses"] += 1
        return True

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
        """The counters DeliveryReport names, and the rows failed and
        pending: once authentication has failed, every row not delivered."""
        pending = (sum(map(len, self._buffer))
                   + sum(p.row_count for p in self._flight.values()))
        failed = self._failed_rows
        if self.auth_failed:
            failed += pending
            pending = 0
        return DeliveryReport(failed_rows=failed, pending_rows=pending, **self.counters)


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

    def __init__(self, host: str, auth_port: int, data_port: int):
        self._socks = {}
        self._buffers = {AUTH: codec.FrameBuffer(), DATA: codec.FrameBuffer()}
        try:
            for kind, port in ((AUTH, auth_port), (DATA, data_port)):
                self._socks[kind] = socket.create_connection((host, port),
                                                             timeout=CONNECT_TIMEOUT)
        except BaseException:  # close the auth connection if the data one failed
            self.close()
            raise

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
                      clock=time.monotonic) -> DeliveryReport:
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
            wait = SLEEP_QUANTUM if wake is None else min(SLEEP_QUANTUM,
                                                          max(wake - clock(), 0.0))
            if deadline is not None:
                wait = min(wait, max(deadline - clock(), 0.0))
        for kind, blob in transport.poll(wait):
            session.handle_wire(kind, blob, clock())
    return session.report()
