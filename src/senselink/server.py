"""Stateless ingest server.

:class:`IngestCore` holds the entire packet-handling logic with no I/O or
threads. Every arriving blob is self-describing and every session key lives
only in storage, read once per data packet, so any number of cores over the
same storage, or a core rebuilt at any time, handle the next packet
identically. The simulator and the fuzz tests drive it directly.

:class:`ServerDaemon` wraps the core in two port workers, one thread per
listening port. Each selects on its port's UDP socket, TCP listener and TCP
connections, handles a blob on the spot and sends the reply itself; the auth
port's worker also serves the metrics page. There are no queues: while a
worker handles one blob the next ones wait in the kernel, so TCP peers are
slowed by their window and memory stays bounded by the socket buffers. The
UDP receive buffer asks for room for several clients' windows (the kernel
caps it at net.core.rmem_max); datagrams beyond it are dropped, counted as
``<port>_udp_dropped`` on Linux, and retransmitted by the client. A TCP
reply is one non-blocking send of the whole frame into a small send buffer;
a peer that cannot take it is closed, so no frame follows a cut one.

Anything that fails decryption, decompression, or validation is silently
discarded; per-kind counters are the only trace.
"""

from __future__ import annotations

import logging
import selectors
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass

from . import codec, crypto
from .storage import StorageError, open_storage

log = logging.getLogger(__name__)

DEFAULT_AUTH_PORT = 7401
DEFAULT_DATA_PORT = 7402
UDP_RCVBUF_BYTES = 4 * 1024 * 1024  # a window of 16 batch packets is ~0.6 MB
TCP_SNDBUF_BYTES = 16 * 1024  # a peer that reads keeps its window of replies itself

_DISCARD_KEYS = {
    crypto.DecryptFailed: "decrypt",
    codec.ChecksumMismatch: "checksum",
    codec.OutputLimitExceeded: "checksum",
    codec.MalformedPayload: "malformed",
    codec.UnknownSession: "unknown_session",
}


class ConfigError(Exception):
    pass


@dataclass
class ServerConfig:
    auth_port: int = DEFAULT_AUTH_PORT
    data_port: int = DEFAULT_DATA_PORT
    host: str = "127.0.0.1"
    transports: tuple[str, ...] = ("udp", "tcp")
    storage: str = "memory"
    metrics_port: int = 0  # 0 disables the metrics listener

    def __post_init__(self):
        if self.auth_port == self.data_port and self.auth_port != 0:
            raise ConfigError("auth and data ports must differ")
        transports = tuple(self.transports)
        if not transports or not set(transports) <= {"udp", "tcp"}:
            raise ConfigError("transports must be a non-empty subset of {udp, tcp}")
        self.transports = transports


class IngestCore:
    """Pure packet handlers; storage is the only state that matters."""

    def __init__(self, private_key, storage):
        self._private = private_key
        self.storage = storage
        self._metrics_lock = threading.Lock()
        self.metrics: dict[str, int] = {}

    def bump(self, key: str, n: int = 1):
        with self._metrics_lock:
            self.metrics[key] = self.metrics.get(key, 0) + n

    def metrics_text(self) -> str:
        with self._metrics_lock:
            lines = [f"{key} {value}" for key, value in sorted(self.metrics.items())]
        stats = self.storage.storage_stats()
        lines.append(f"storage_sessions {stats['sessions']}")
        lines.append(f"storage_rows {stats['total_rows']}")
        lines.append(f"storage_logical_bytes {stats['total_logical_bytes']}")
        return "\n".join(lines) + "\n"

    # -- auth path ----------------------------------------------------------

    def handle_auth_packet(self, blob: bytes) -> bytes | None:
        self.bump("auth_packets")
        try:
            req = codec.decode_auth_request(blob, self._private)
        except codec.DECODE_ERRORS as exc:
            self.bump("auth_discard_" + _DISCARD_KEYS[type(exc)])
            return None
        try:
            session_id = self.storage.upsert_session(
                req.user_hash, req.time, req.key, req.version, req.identifiers)
        except StorageError:
            log.exception("auth upsert failed")
            self.bump("auth_discard_storage")
            return None
        self.bump("auth_ok")
        log.info("auth_ok session_id=%d seq=%d version=%d",
                 session_id, req.seq, req.version)
        resp = codec.AuthResponse(seq=req.seq, time=req.time, session_id=session_id)
        return codec.encode_auth_response(resp, req.key)

    # -- data path ----------------------------------------------------------

    def lookup_key(self, session_id: int) -> bytes | None:
        """The session's key, read from storage for every data packet (a
        method of its own so that perfbench's tracer can wrap it)."""
        return self.storage.lookup_session_key(session_id)

    def decode_data_packet(self, blob: bytes) -> codec.DataPacket:
        return codec.decode_data_packet(blob, self.lookup_key)

    def store_and_ack(self, pkt: codec.DataPacket) -> bytes | None:
        """Store a decoded packet's rows; its feedback goes out under the key
        that decrypted it, so the key is looked up once per packet."""
        try:
            stored = self.storage.write_rows(pkt.session_id, pkt.streams)
        except codec.MalformedPayload:  # storage checks each row as it builds its parameters
            self.bump("data_discard_malformed")
            return None
        except StorageError:
            log.exception("row write failed session_id=%d seq=%d", pkt.session_id, pkt.seq)
            self.bump("data_discard_storage")
            return None
        # rows under stream names this build does not know are acknowledged
        # (not stored) so a newer client is not wedged into retransmitting
        stored += pkt.unknown_rows
        self.bump("data_ok")
        self.bump("rows_written", stored - pkt.unknown_rows)
        if pkt.unknown_rows:
            self.bump("rows_unknown_stream", pkt.unknown_rows)
        log.info("data_ok session_id=%d seq=%d stored=%d", pkt.session_id, pkt.seq, stored)
        fb = codec.FeedbackPacket(session_id=pkt.session_id, seq=pkt.seq, stored=stored)
        return codec.encode_feedback(fb, pkt.key)

    def handle_data_packet(self, blob: bytes) -> bytes | None:
        """Decode, store, then acknowledge one data packet."""
        self.bump("data_packets")
        try:
            pkt = self.decode_data_packet(blob)
        except codec.DECODE_ERRORS as exc:
            self.bump("data_discard_" + _DISCARD_KEYS[type(exc)])
            return None
        return self.store_and_ack(pkt)


# ---------------------------------------------------------------------------
# threaded daemon


class _PortWorker(threading.Thread):
    """Receives, handles and answers every blob of one port on the thread
    that owns the port's sockets: the UDP socket, the TCP listener and each
    TCP connection (and, on the auth port, the metrics listener)."""

    def __init__(self, kind: str, host: str, port: int, transports: tuple[str, ...],
                 handle, core: IngestCore, stop: threading.Event):
        super().__init__(name=f"{kind}-worker", daemon=True)
        self._kind = kind
        self._handle = handle
        self._core = core
        self._stop_event = stop
        self._selector = selectors.DefaultSelector()
        self.udp_sock = self.tcp_sock = self.metrics_sock = None
        self._udp_drops = 0
        self._bind(host, port, transports)
        if self.udp_sock is not None:
            self._selector.register(self.udp_sock, selectors.EVENT_READ, self._on_udp)
        if self.tcp_sock is not None:
            self._selector.register(self.tcp_sock, selectors.EVENT_READ, self._on_accept)

    def _bind(self, host: str, port: int, transports: tuple[str, ...]):
        # port 0 with both transports: retry until one ephemeral port is
        # free for UDP and TCP alike, so clients see a single port number
        for attempt in range(16):
            udp = tcp = None
            try:
                if "udp" in transports:
                    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                    udp.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, UDP_RCVBUF_BYTES)
                    if sys.platform == "linux":  # SO_RXQ_OVFL: datagrams carry the drop count
                        udp.setsockopt(socket.SOL_SOCKET, 40, 1)
                    udp.bind((host, port))
                    udp.setblocking(False)
                if "tcp" in transports:
                    tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                    tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                    tcp.bind((host, udp.getsockname()[1] if udp else port))
                    tcp.listen(64)
                    tcp.setblocking(False)
            except OSError:
                for sock in (udp, tcp):
                    if sock is not None:
                        sock.close()
                if port == 0 and attempt < 15:
                    continue
                raise
            self.udp_sock, self.tcp_sock = udp, tcp
            return

    @property
    def port(self) -> int:
        return (self.udp_sock or self.tcp_sock).getsockname()[1]

    def listen_metrics(self, host: str, port: int):
        self.metrics_sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._selector.register(self.metrics_sock, selectors.EVENT_READ, self._on_metrics)
        self.metrics_sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.metrics_sock.bind((host, port))
        self.metrics_sock.listen(8)
        self.metrics_sock.setblocking(False)

    def _answer(self, blob: bytes) -> bytes | None:
        try:
            return self._handle(blob)
        except Exception:
            # the handler already counted the blob as received; count it
            # as discarded so received = ok + discarded still holds
            log.exception("%s handler failed", self._kind)
            self._core.bump(f"{self._kind}_discard_error")
            return None

    def _on_udp(self, sock):
        try:
            blob, ancdata, _, addr = sock.recvmsg(65535, socket.CMSG_SPACE(4))
        except OSError:
            return
        if ancdata:  # the socket's drops so far, once there are any
            drops = int.from_bytes(ancdata[0][2], sys.byteorder)
            self._core.bump(f"{self._kind}_udp_dropped", drops - self._udp_drops)
            self._udp_drops = drops
        resp = self._answer(blob)
        if resp is not None:
            try:
                sock.sendto(resp, addr)
            except OSError:
                pass  # a full send buffer drops the reply; the client retransmits

    def _on_accept(self, listener):
        try:
            conn, peer = listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, TCP_SNDBUF_BYTES)
        buf = codec.FrameBuffer()
        self._selector.register(conn, selectors.EVENT_READ,
                                lambda sock, _buf=buf, _peer=peer: self._on_tcp(sock, _buf, _peer))

    def _close_conn(self, conn):
        self._selector.unregister(conn)
        conn.close()

    def _on_tcp(self, conn, buf: codec.FrameBuffer, peer):
        try:
            data = conn.recv(65536)
        except BlockingIOError:
            return
        except OSError:
            self._close_conn(conn)
            return
        if not data:
            self._close_conn(conn)
            return
        try:
            blobs = buf.feed(data)
        except codec.FrameTooLarge:
            log.warning("oversized frame from %s", peer)
            self._close_conn(conn)
            return
        for blob in blobs:
            resp = self._answer(blob)
            if resp is not None and not _send_whole(conn, codec.frame(resp)):
                # a peer that stopped reading: never leave a cut frame behind
                self._core.bump(f"{self._kind}_tcp_stalled")
                self._close_conn(conn)
                return

    def _on_metrics(self, listener):
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            conn.setblocking(False)
            try:
                _send_whole(conn, self._core.metrics_text().encode("utf-8"))
            except Exception:
                log.exception("metrics page failed")

    def run(self):
        while not self._stop_event.is_set():
            for key, _ in self._selector.select(timeout=0.2):
                key.data(key.fileobj)

    def close(self):
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()


def _send_whole(conn: socket.socket, data: bytes) -> bool:
    """One non-blocking send of ``data``; False unless all of it went out."""
    try:
        return conn.send(data) == len(data)
    except OSError:
        return False


class ServerDaemon:
    """Two port workers around one IngestCore."""

    def __init__(self, config: ServerConfig, *, private_key, storage=None):
        self.config = config
        self._storage = storage if storage is not None else open_storage(config.storage)
        self._owns_storage = storage is None
        self.core = IngestCore(private_key, self._storage)
        self._stop = threading.Event()
        self._workers: list[_PortWorker] = []

    @property
    def auth_port(self) -> int:
        return self._workers[0].port

    @property
    def data_port(self) -> int:
        return self._workers[1].port

    @property
    def metrics_port(self) -> int:
        sock = self._workers[0].metrics_sock
        return sock.getsockname()[1] if sock else 0

    def start(self):
        cfg = self.config
        try:
            for kind, port, handle in (("auth", cfg.auth_port, self.core.handle_auth_packet),
                                       ("data", cfg.data_port, self.core.handle_data_packet)):
                self._workers.append(_PortWorker(kind, cfg.host, port, cfg.transports,
                                                 handle, self.core, self._stop))
            if cfg.metrics_port:
                self._workers[0].listen_metrics(cfg.host, cfg.metrics_port)
        except OSError as exc:
            for worker in self._workers:  # each closes every socket it registered
                worker.close()
            self._workers.clear()
            raise ConfigError(f"cannot bind listening sockets: {exc}") from exc
        for worker in self._workers:
            worker.start()
        log.info("serving auth=%d data=%d transports=%s storage=%s",
                 self.auth_port, self.data_port, ",".join(cfg.transports), cfg.storage)

    def stop(self):
        self._stop.set()
        for worker in self._workers:  # start() started every worker it kept
            worker.join()
            worker.close()
        if self._owns_storage:
            self._storage.flush()
            self._storage.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def run_forever(self):
        """Serve until SIGINT or SIGTERM, then stop, flush and close storage."""
        # SIGINT too: a shell starts a background job (`cmd &`) with it
        # ignored, and Python then installs no KeyboardInterrupt handler
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.default_int_handler)
        try:
            self.start()
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
