"""Stateless ingest server.

:class:`IngestCore` holds the entire packet-handling logic with no I/O or
threads: every arriving blob is self-describing, so the core can be thrown
away and rebuilt around the same storage at any time and handle the next
packet identically. The simulator and the fuzz tests drive it directly.

:class:`ServerDaemon` wraps the core in the production topology of four
workers: one connection worker per listening port (each multiplexing a UDP
socket and a TCP listener), an authentication worker whose storage calls are
serialized by construction, and a data worker that decodes each packet,
writes its rows and only then releases the feedback packet.

Anything that fails decryption, decompression, or validation is silently
discarded; per-kind counters are the only trace.
"""

from __future__ import annotations

import logging
import queue
import selectors
import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from . import codec, crypto
from .storage import StorageError, UnknownSessionId, open_storage

log = logging.getLogger(__name__)

DEFAULT_AUTH_PORT = 7401
DEFAULT_DATA_PORT = 7402
DEFAULT_CACHE_CAPACITY = 10_000

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
    cache_capacity: int = DEFAULT_CACHE_CAPACITY
    max_packet_bytes: int = codec.MAX_PACKET_BYTES
    metrics_port: int = 0  # 0 disables the metrics listener

    def __post_init__(self):
        if self.auth_port == self.data_port and self.auth_port != 0:
            raise ConfigError("auth and data ports must differ")
        transports = tuple(self.transports)
        if not transports or not set(transports) <= {"udp", "tcp"}:
            raise ConfigError("transports must be a non-empty subset of {udp, tcp}")
        self.transports = transports
        if self.cache_capacity < 1:
            raise ConfigError("cache capacity must be positive")


class _LruCache:
    def __init__(self, capacity: int):
        self._capacity = capacity
        self._entries: OrderedDict[int, bytes] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, session_id: int) -> bytes | None:
        with self._lock:
            key = self._entries.get(session_id)
            if key is not None:
                self._entries.move_to_end(session_id)
            return key

    def put(self, session_id: int, key: bytes):
        with self._lock:
            self._entries[session_id] = key
            self._entries.move_to_end(session_id)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self):
        with self._lock:
            self._entries.clear()

    def __len__(self):
        return len(self._entries)


class IngestCore:
    """Pure packet handlers; storage is the only state that matters."""

    def __init__(self, private_key, storage, *,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY):
        self._private = private_key
        self.storage = storage
        self.cache = _LruCache(cache_capacity)
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
        self.cache.put(session_id, req.key)
        self.bump("auth_ok")
        log.info("auth_ok session_id=%d seq=%d version=%d",
                 session_id, req.seq, req.version)
        resp = codec.AuthResponse(seq=req.seq, time=req.time, session_id=session_id)
        return codec.encode_auth_response(resp, req.key)

    # -- data path ----------------------------------------------------------

    def lookup_key(self, session_id: int) -> bytes | None:
        key = self.cache.get(session_id)
        if key is not None:
            self.bump("cache_hits")
            return key
        self.bump("cache_misses")
        found = self.storage.lookup_session_key(session_id)
        if found is None:
            return None
        key = found[0]
        self.cache.put(session_id, key)
        return key

    def decode_data_packet(self, blob: bytes) -> codec.DataPacket:
        return codec.decode_data_packet(blob, self.lookup_key)

    def store_and_ack(self, pkt: codec.DataPacket) -> bytes | None:
        try:
            stored = self.storage.write_rows(pkt.session_id, pkt.streams)
        except UnknownSessionId:
            self.bump("data_discard_unknown_session")
            return None
        except StorageError:
            log.exception("row write failed session_id=%d seq=%d", pkt.session_id, pkt.seq)
            self.bump("data_discard_storage")
            return None
        # rows under stream names this build does not know are acknowledged
        # (not stored) so a newer client is not wedged into retransmitting
        stored += pkt.unknown_rows
        key = self.lookup_key(pkt.session_id)
        if key is None:
            self.bump("data_discard_unknown_session")
            return None
        self.bump("data_ok")
        self.bump("rows_written", stored - pkt.unknown_rows)
        if pkt.unknown_rows:
            self.bump("rows_unknown_stream", pkt.unknown_rows)
        log.info("data_ok session_id=%d seq=%d stored=%d", pkt.session_id, pkt.seq, stored)
        fb = codec.FeedbackPacket(session_id=pkt.session_id, seq=pkt.seq, stored=stored)
        return codec.encode_feedback(fb, key)

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


class _ConnectionWorker(threading.Thread):
    """Receives blobs for one port over UDP and TCP and queues them with a
    reply callback bound to the originating endpoint."""

    def __init__(self, name: str, host: str, port: int, transports: tuple[str, ...],
                 out_queue: queue.Queue, max_packet_bytes: int, stop: threading.Event):
        super().__init__(name=f"{name}-conn", daemon=True)
        self._out = out_queue
        self._max = max_packet_bytes
        self._stop_event = stop
        self._selector = selectors.DefaultSelector()
        self.udp_sock = None
        self.tcp_sock = None
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
        sock = self.udp_sock or self.tcp_sock
        return sock.getsockname()[1]

    def _on_udp(self, sock):
        try:
            blob, addr = sock.recvfrom(65535)
        except OSError:
            return
        def reply(resp: bytes, _addr=addr):
            try:
                sock.sendto(resp, _addr)
            except OSError:
                pass
        self._out.put((blob, reply))

    def _on_accept(self, listener):
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        conn.setblocking(False)
        buf = codec.FrameBuffer(max_bytes=self._max)
        self._selector.register(conn, selectors.EVENT_READ,
                                lambda sock, _buf=buf: self._on_tcp(sock, _buf))

    def _close_conn(self, conn):
        try:
            self._selector.unregister(conn)
        except (KeyError, ValueError):
            pass
        conn.close()

    def _on_tcp(self, conn, buf: codec.FrameBuffer):
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
            log.warning("oversized frame from %s", conn.getpeername())
            self._close_conn(conn)
            return
        def reply(resp: bytes, _conn=conn):
            try:
                _conn.sendall(codec.frame(resp))
            except OSError:
                pass
        for blob in blobs:
            self._out.put((blob, reply))

    def run(self):
        while not self._stop_event.is_set():
            for key, _ in self._selector.select(timeout=0.2):
                key.data(key.fileobj)

    def close(self):
        for key in list(self._selector.get_map().values()):
            try:
                key.fileobj.close()
            except OSError:
                pass
        self._selector.close()


def _worker_loop(in_queue: queue.Queue, handle):
    """Answer each queued blob with ``handle(blob)``, unless that is None."""
    while True:
        item = in_queue.get()
        if item is None:
            return
        blob, reply = item
        resp = handle(blob)
        if resp is not None:
            reply(resp)


class ServerDaemon:
    """Four-worker ingest daemon around one IngestCore."""

    def __init__(self, config: ServerConfig, *, private_key=None, storage=None):
        self.config = config
        if private_key is None:
            raise ConfigError("a private key is required")
        self._storage = storage if storage is not None else open_storage(config.storage)
        self._owns_storage = storage is None
        self.core = IngestCore(private_key, self._storage,
                               cache_capacity=config.cache_capacity)
        self._stop = threading.Event()
        self._auth_queue: queue.Queue = queue.Queue()
        self._data_queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._workers: list[_ConnectionWorker] = []
        self._metrics_sock = None

    @property
    def auth_port(self) -> int:
        return self._workers[0].port

    @property
    def data_port(self) -> int:
        return self._workers[1].port

    def start(self):
        cfg = self.config
        try:
            auth_worker = _ConnectionWorker("auth", cfg.host, cfg.auth_port,
                                            cfg.transports, self._auth_queue,
                                            cfg.max_packet_bytes, self._stop)
            data_worker = _ConnectionWorker("data", cfg.host, cfg.data_port,
                                            cfg.transports, self._data_queue,
                                            cfg.max_packet_bytes, self._stop)
        except OSError as exc:
            raise ConfigError(f"cannot bind listening sockets: {exc}") from exc
        self._workers = [auth_worker, data_worker]
        self._threads = [
            auth_worker,
            data_worker,
            threading.Thread(target=_worker_loop, name="auth-worker",
                             args=(self._auth_queue, self.core.handle_auth_packet),
                             daemon=True),
            threading.Thread(target=_worker_loop, name="data-worker",
                             args=(self._data_queue, self.core.handle_data_packet),
                             daemon=True),
        ]
        for thread in self._threads:
            thread.start()
        if cfg.metrics_port:
            self._start_metrics(cfg.host, cfg.metrics_port)
        log.info("serving auth=%d data=%d transports=%s storage=%s",
                 self.auth_port, self.data_port, ",".join(cfg.transports), cfg.storage)

    def _start_metrics(self, host: str, port: int):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(8)
        sock.settimeout(0.2)
        self._metrics_sock = sock

        def serve_metrics():
            while not self._stop.is_set():
                try:
                    conn, _ = sock.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
                try:
                    conn.sendall(self.core.metrics_text().encode("utf-8"))
                finally:
                    conn.close()

        thread = threading.Thread(target=serve_metrics, name="metrics", daemon=True)
        thread.start()
        self._threads.append(thread)

    @property
    def metrics_port(self) -> int:
        return self._metrics_sock.getsockname()[1] if self._metrics_sock else 0

    def stop(self):
        self._stop.set()
        for q in (self._auth_queue, self._data_queue):
            q.put(None)
        for worker in self._workers:
            worker.join(timeout=2.0)
            worker.close()
        for thread in self._threads:
            if thread not in self._workers:
                thread.join(timeout=2.0)
        if self._metrics_sock is not None:
            self._metrics_sock.close()
        if self._owns_storage:
            self._storage.flush()
            self._storage.close()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc_info):
        self.stop()

    def run_forever(self):
        self.start()
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()
