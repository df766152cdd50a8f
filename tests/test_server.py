import os
import random
import select
import socket
import sqlite3
import sys
import threading
import time

import pytest

from senselink import codec, crypto, sim, storage
from senselink.client import (AUTH, DATA, ClientSession, TcpTransport,
                              UdpTransport, run_until_drained)
from senselink.server import (ConfigError, IngestCore, ServerConfig,
                              ServerDaemon, _LruCache)

TS = 1_400_000_000
HASH = crypto.hash_user("bench@example.com")


class CountingStorage:
    """Delegating wrapper that counts key lookups (cache behaviour probe)."""

    def __init__(self, inner):
        self.inner = inner
        self.key_lookups = 0

    def lookup_session_key(self, session_id):
        self.key_lookups += 1
        return self.inner.lookup_session_key(session_id)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def auth_blob(keypair, key, seq=1, user_hash=HASH, start=TS, **extra):
    req = codec.AuthRequest(seq=seq, user_hash=user_hash, time=start, key=key, **extra)
    return codec.encode_auth_request(req, keypair.public_part)


def data_blob(key, session_id, seq, n=5, base_ts=TS):
    pkt = codec.DataPacket(session_id=session_id, seq=seq, streams={
        "pressure": [{"ts": base_ts + i, "hpa": 1000.0 + i} for i in range(n)]})
    return codec.encode_data_packet(pkt, key)


# ---------------------------------------------------------------------------
# core: auth path


def test_auth_registers_session_and_replies(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    reply = core.handle_auth_packet(auth_blob(test_keypair, key, seq=9))
    resp = codec.decode_auth_response(reply, key)
    assert resp.seq == 9 and resp.time == TS and resp.session_id == 1
    assert core.metrics["auth_ok"] == 1


def test_auth_same_user_and_time_is_idempotent(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key_a, key_b = crypto.generate_session_key(), crypto.generate_session_key()
    r1 = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key_a, seq=1)), key_a)
    r2 = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key_b, seq=2)), key_b)
    assert r1.session_id == r2.session_id  # same (hash, time)
    assert core.lookup_key(r1.session_id) == key_b  # rotation: latest key wins
    r3 = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key_a, seq=3, start=TS + 1)),
        key_a)
    assert r3.session_id != r1.session_id


def test_undecodable_auth_is_silently_discarded(test_keypair):
    st = storage.MemoryStorage()
    core = IngestCore(test_keypair.private_part, st)
    rng = random.Random(1)
    for _ in range(20):
        blob = bytes(rng.randrange(256) for _ in range(512))
        assert core.handle_auth_packet(blob) is None
    assert core.handle_auth_packet(b"short") is None
    assert st.storage_stats()["sessions"] == 0
    assert core.metrics.get("auth_ok", 0) == 0
    assert core.metrics["auth_discard_decrypt"] == 21


def test_auth_under_wrong_public_key_discarded(test_keypair, small_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    req = codec.AuthRequest(seq=1, user_hash=HASH, time=TS, key=key)
    blob = codec.encode_auth_request(req, small_keypair.public_part)
    assert core.handle_auth_packet(blob) is None


# ---------------------------------------------------------------------------
# core: data path


def test_data_flow_store_then_ack(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id
    reply = core.handle_data_packet(data_blob(key, sid, seq=2, n=12))
    fb = codec.decode_feedback(reply, key)
    assert (fb.session_id, fb.seq, fb.stored) == (sid, 2, 12)
    # write-then-ack: rows are durable by the time feedback exists
    assert len(core.storage.read_session_rows(sid)["pressure"]) == 12


def test_replayed_data_packet_acked_idempotently(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id
    blob = data_blob(key, sid, seq=2, n=120)
    first = codec.decode_feedback(core.handle_data_packet(blob), key)
    second = codec.decode_feedback(core.handle_data_packet(blob), key)
    assert first.stored == second.stored == 120
    assert core.storage.storage_stats()["rows"]["pressure"] == 120


def test_integers_beyond_sqlite_are_discarded_not_raised(test_keypair, tmp_path):
    # ts and auth time end at 2**63 - 1, where SQLite's signed 64 bits do;
    # the blobs are sealed by hand because the encoders refuse such values
    core = IngestCore(test_keypair.private_part, storage.SqliteStorage(str(tmp_path / "s.db")))
    key = crypto.generate_session_key()
    auth = codec.canonical_json({"seq": 1, "hash": HASH, "time": 2**63, "key": key.hex(),
                                 "version": codec.PROTOCOL_VERSION})
    assert core.handle_auth_packet(
        crypto.asym_encrypt(test_keypair.public_part, codec.compress(auth))) is None
    assert core.metrics["auth_discard_malformed"] == 1
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id
    data = codec.canonical_json({"seq": 2, "streams": {"pressure": [{"ts": 2**63, "hpa": 1.0}]}})
    assert core.handle_data_packet(codec.seal_data_payload(sid, data, key)) is None
    assert core.metrics["data_discard_malformed"] == 1
    fb = codec.decode_feedback(core.handle_data_packet(data_blob(key, sid, seq=3)), key)
    assert fb.stored == 5
    assert core.storage.storage_stats()["rows"] == {"pressure": 5}
    assert not any(name.endswith("_discard_storage") for name in core.metrics)
    core.storage.close()


def test_text_without_a_utf8_form_is_discarded_not_raised(test_keypair):
    # a JSON escape can carry a lone surrogate, which a SQLite TEXT column cannot
    core = IngestCore(test_keypair.private_part, storage.SqliteStorage(":memory:"))
    key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id
    data = b'{"seq":2,"streams":{"bt":[{"device_id":"\\ud800","rssi":-3,"ts":5}]}}'
    assert core.handle_data_packet(codec.seal_data_payload(sid, data, key)) is None
    assert core.metrics["data_discard_malformed"] == 1
    assert core.storage.storage_stats()["total_rows"] == 0
    core.storage.close()


def test_data_for_unknown_session_discarded(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    assert core.handle_data_packet(data_blob(key, 7, seq=1)) is None
    assert core.metrics["data_discard_unknown_session"] == 1


def test_data_under_rotated_out_key_discarded(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    old_key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, old_key, seq=1)), old_key).session_id
    stale = data_blob(old_key, sid, seq=2)
    new_key = crypto.generate_session_key()
    core.handle_auth_packet(auth_blob(test_keypair, new_key, seq=3))
    assert core.handle_data_packet(stale) is None  # old key no longer valid
    assert core.metrics["data_discard_decrypt"] == 1
    assert core.handle_data_packet(data_blob(new_key, sid, seq=4)) is not None


def test_cross_session_key_isolation(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key_a, key_b = crypto.generate_session_key(), crypto.generate_session_key()
    sid_a = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key_a, seq=1)), key_a).session_id
    codec.decode_auth_response(
        core.handle_auth_packet(
            auth_blob(test_keypair, key_b, seq=1, user_hash="b" * 32)), key_b)
    # session A's id with session B's key: decrypt fails, packet dropped
    assert core.handle_data_packet(data_blob(key_b, sid_a, seq=2)) is None


def test_unknown_stream_rows_acked_not_stored(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id
    payload = codec.serialize_payload({"seq": 2, "streams": {
        "pressure": [{"ts": TS, "hpa": 1000.0}],
        "heart_rate": [{"ts": TS, "bpm": 60}, {"ts": TS, "bpm": 61}],
    }})
    blob = sid.to_bytes(4, "big") + crypto.sym_encrypt(key, codec.compress(payload))
    fb = codec.decode_feedback(core.handle_data_packet(blob), key)
    assert fb.stored == 3  # 1 stored + 2 acknowledged-but-skipped
    assert core.metrics["rows_unknown_stream"] == 2
    assert core.storage.storage_stats()["total_rows"] == 1


# ---------------------------------------------------------------------------
# key cache


def test_lru_cache_basics():
    cache = _LruCache(2)
    cache.put(1, b"a")
    cache.put(2, b"b")
    cache.put(3, b"c")  # evicts 1
    assert cache.get(1) is None
    assert cache.get(2) == b"b"
    cache.put(4, b"d")  # now evicts 3 (2 was freshened)
    assert cache.get(3) is None
    assert cache.get(2) == b"b"
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0


def test_cache_warm_after_auth_cold_after_clear(test_keypair):
    st = CountingStorage(storage.MemoryStorage())
    core = IngestCore(test_keypair.private_part, st)
    key = crypto.generate_session_key()
    sid = codec.decode_auth_response(
        core.handle_auth_packet(auth_blob(test_keypair, key)), key).session_id

    st.key_lookups = 0
    for seq in range(2, 7):
        core.handle_data_packet(data_blob(key, sid, seq=seq, base_ts=TS + seq * 100))
    assert st.key_lookups == 0  # auth warmed the cache

    core.cache.clear()  # stateless restart of the hot path
    core.handle_data_packet(data_blob(key, sid, seq=10, base_ts=TS + 10_000))
    assert st.key_lookups == 1  # one fallthrough, then cached again
    core.handle_data_packet(data_blob(key, sid, seq=11, base_ts=TS + 11_000))
    assert st.key_lookups == 1
    assert core.metrics["cache_misses"] == 1


def test_metrics_text_shape(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.MemoryStorage())
    key = crypto.generate_session_key()
    core.handle_auth_packet(auth_blob(test_keypair, key))
    text = core.metrics_text()
    lines = dict(line.split(" ", 1) for line in text.strip().splitlines())
    assert lines["auth_ok"] == "1"
    assert lines["storage_sessions"] == "1"
    assert "storage_logical_bytes" in lines


# ---------------------------------------------------------------------------
# config


def test_server_config_validation():
    ServerConfig(auth_port=0, data_port=0)
    with pytest.raises(ConfigError):
        ServerConfig(auth_port=7000, data_port=7000)
    with pytest.raises(ConfigError):
        ServerConfig(transports=("udp", "carrier-pigeon"))
    with pytest.raises(ConfigError):
        ServerConfig(transports=())
    with pytest.raises(ConfigError):
        ServerConfig(cache_capacity=0)


# ---------------------------------------------------------------------------
# daemon over real sockets


@pytest.fixture
def daemon(test_keypair):
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1")
    d = ServerDaemon(config, private_key=test_keypair.private_part,
                     storage=storage.MemoryStorage())
    d.start()
    yield d
    d.stop()


def drain(session, transport, timeout=20.0):
    try:
        return run_until_drained(session, transport, timeout=timeout)
    finally:
        transport.close()


def test_udp_roundtrip(test_keypair, daemon):
    session = ClientSession(HASH, TS, test_keypair.public_part)
    session.begin(time.monotonic())
    session.enqueue_rows({"pressure": [{"ts": TS + i, "hpa": 990.0 + i}
                                       for i in range(40)]})
    report = drain(session, UdpTransport("127.0.0.1", daemon.auth_port, daemon.data_port))
    assert report.complete and report.delivered_rows == 40
    rows = daemon.core.storage.read_session_rows(session.session_id)["pressure"]
    assert len(rows) == 40


def test_tcp_roundtrip(test_keypair, daemon):
    session = ClientSession(HASH, TS, test_keypair.public_part)
    session.begin(time.monotonic())
    session.enqueue_rows({"bt": [{"ts": TS + i, "device_id": f"d{i}", "rssi": -40}
                                 for i in range(25)]})
    report = drain(session, TcpTransport("127.0.0.1", daemon.auth_port, daemon.data_port))
    assert report.complete and report.delivered_rows == 25


def test_udp_and_tcp_carry_identical_payloads(test_keypair, daemon):
    """Same blobs over either transport must produce the same stored rows."""
    rows = {"obd": [{"ts": TS + i, "ms": 0, "pid": 12, "value": 800 + i}
                    for i in range(30)]}
    stored = {}
    for transport_cls, email in ((UdpTransport, "udp@example.com"),
                                 (TcpTransport, "tcp@example.com")):
        session = ClientSession(crypto.hash_user(email), TS, test_keypair.public_part)
        session.begin(time.monotonic())
        session.enqueue_rows(rows)
        report = drain(session, transport_cls("127.0.0.1", daemon.auth_port,
                                              daemon.data_port))
        assert report.complete
        stored[email] = daemon.core.storage.read_session_rows(session.session_id)
    assert stored["udp@example.com"] == stored["tcp@example.com"]


def test_daemon_ignores_fuzz_on_both_sockets(test_keypair, daemon):
    rng = random.Random(3)
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    for port in (daemon.auth_port, daemon.data_port):
        for _ in range(50):
            udp.sendto(bytes(rng.randrange(256) for _ in range(rng.randrange(1, 700))),
                       ("127.0.0.1", port))
    udp.close()
    # huge declared TCP frame: connection dropped, daemon lives
    with socket.create_connection(("127.0.0.1", daemon.data_port), timeout=5) as s:
        s.sendall((2 ** 31).to_bytes(4, "big"))
        s.settimeout(5)
        assert s.recv(1) == b""  # server closed the connection

    # daemon still serves a well-behaved client afterwards
    session = ClientSession(HASH, TS, test_keypair.public_part)
    session.begin(time.monotonic())
    session.enqueue_rows({"pressure": [{"ts": TS, "hpa": 1000.0}]})
    report = drain(session, UdpTransport("127.0.0.1", daemon.auth_port,
                                         daemon.data_port))
    assert report.complete
    assert daemon.core.storage.storage_stats()["sessions"] == 1


def _store_recording_in_several_packets(keypair, tmp_path, transport_cls):
    path = tmp_path / "daemon.db"
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1",
                          metrics_port=_free_tcp_port())
    d = ServerDaemon(config, private_key=keypair.private_part,
                     storage=storage.SqliteStorage(str(path)))
    generated = sim.generate_session(sim.WorkloadConfig(duration_s=120, start_ts=TS))
    assert {"wifi", "accel"} <= set(generated)
    session = ClientSession(HASH, TS, keypair.public_part, pack_json_budget=8 * 1024)
    acks = []
    handle_feedback = session.handle_feedback

    def record(fb, now=0.0):
        result = handle_feedback(fb, now)
        if result is not None:
            acks.append(result)
        return result

    session.handle_feedback = record
    try:
        d.start()
        session.begin(time.monotonic())
        rows = session.enqueue_rows(generated)
        report = drain(session, transport_cls("127.0.0.1", d.auth_port, d.data_port))
        text = _scrape(d.metrics_port)
    finally:
        d.stop()
        d.core.storage.close()
    assert report.complete and report.delivered_rows == rows
    assert report.retransmissions == 0
    assert len(acks) > 1
    assert all(ack.stored_rows == ack.sent_rows for ack in acks)
    assert sum(ack.sent_rows for ack in acks) == rows
    fields = dict(line.split(" ", 1) for line in text.strip().splitlines())
    assert fields["data_packets"] == fields["data_ok"]
    assert not [name for name in fields if "_discard_" in name]
    reopened = storage.SqliteStorage(str(path))
    try:
        sim.verify_storage(reopened, session.session_id, generated)
    finally:
        reopened.close()


def test_daemon_over_sqlite_stores_a_recording_in_several_packets(test_keypair, tmp_path):
    _store_recording_in_several_packets(test_keypair, tmp_path, TcpTransport)


def test_daemon_over_sqlite_takes_a_udp_window_without_retransmission(test_keypair, tmp_path):
    _store_recording_in_several_packets(test_keypair, tmp_path, UdpTransport)


def _udp_handshake(keypair, daemon):
    """Register a session over UDP; returns the socket, session key and id."""
    udp = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    udp.settimeout(5.0)
    key = crypto.generate_session_key()
    udp.sendto(auth_blob(keypair, key), ("127.0.0.1", daemon.auth_port))
    return udp, key, codec.decode_auth_response(udp.recv(65535), key).session_id


def test_handler_exception_costs_one_packet_not_the_port(test_keypair, caplog):
    st = storage.MemoryStorage()
    write_rows = st.write_rows
    failures = [sqlite3.OperationalError("disk I/O error")]

    def fail_once(*args):
        if failures:
            raise failures.pop()
        return write_rows(*args)

    st.write_rows = fail_once
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1",
                          metrics_port=_free_tcp_port())
    with ServerDaemon(config, private_key=test_keypair.private_part, storage=st) as d:
        udp, key, sid = _udp_handshake(test_keypair, d)
        with udp:
            for seq in (1, 2):
                udp.sendto(data_blob(key, sid, seq), ("127.0.0.1", d.data_port))
            fb = codec.decode_feedback(udp.recv(65535), key)
        text = _scrape(d.metrics_port)
    assert (fb.seq, fb.stored) == (2, 5)
    fields = dict(line.split(" ", 1) for line in text.strip().splitlines())
    assert fields["data_discard_error"] == "1"
    assert fields["data_packets"] == "2" and fields["data_ok"] == "1"
    assert any(r.exc_info and r.exc_info[0] is sqlite3.OperationalError
               for r in caplog.records)


def test_tcp_peer_that_stops_reading_is_closed_between_frames(test_keypair, daemon):
    udp, key, sid = _udp_handshake(test_keypair, daemon)
    udp.close()
    frame = codec.frame(data_blob(key, sid, seq=1))
    peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
    peer.connect(("127.0.0.1", daemon.data_port))
    peer.setblocking(False)
    # replay the packet and never read; keep frames whole on our side
    burst, pending, sent = frame * 64, b"", 0
    closed = False
    deadline = time.monotonic() + 20.0
    with peer:
        while time.monotonic() < deadline:
            pending = pending or burst
            select.select([], [peer], [], 0.2)
            try:
                n = peer.send(pending)
            except BlockingIOError:
                continue
            except (ConnectionResetError, BrokenPipeError):
                closed = True
                break
            pending, sent = pending[n:], sent + n
        assert closed, f"still open after {sent // len(frame)} packets"
        peer.settimeout(5.0)
        buf, frames = codec.FrameBuffer(), []
        try:
            while data := peer.recv(65536):
                frames.extend(buf.feed(data))
        except ConnectionResetError:
            pass
    for blob in frames:
        assert codec.decode_feedback(blob, key) == codec.FeedbackPacket(sid, 1, 5)
    assert daemon.core.metrics["data_tcp_stalled"] == 1
    # the capped send buffer ends it after a few hundred replies, not the
    # tens of thousands that send-buffer autotuning would take
    assert daemon.core.metrics["data_packets"] < 2000

    session = ClientSession(crypto.hash_user("next@example.com"), TS, test_keypair.public_part)
    session.begin(time.monotonic())
    session.enqueue_rows({"pressure": [{"ts": TS + i, "hpa": 1000.0} for i in range(30)]})
    report = drain(session, TcpTransport("127.0.0.1", daemon.auth_port, daemon.data_port))
    assert report.complete and report.delivered_rows == 30


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="the kernel reports UDP drops to the socket on Linux only")
def test_udp_overflow_while_handling_is_counted_as_dropped(test_keypair):
    st = storage.MemoryStorage()
    write_rows, release = st.write_rows, threading.Event()

    def wait_for_release(*args):
        release.wait(10.0)
        return write_rows(*args)

    st.write_rows = wait_for_release
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1")
    with ServerDaemon(config, private_key=test_keypair.private_part, storage=st) as d:
        udp, key, sid = _udp_handshake(test_keypair, d)
        with udp:
            addr = ("127.0.0.1", d.data_port)
            udp.sendto(data_blob(key, sid, seq=1), addr)
            time.sleep(0.2)  # the data worker is now waiting inside write_rows
            # twice the receive buffer in junk for an unknown session
            rcvbuf = d._workers[1].udp_sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
            junk = bytes(8192)
            sent = 1 + 2 * rcvbuf // len(junk)
            for _ in range(sent - 1):
                udp.sendto(junk, addr)
            release.set()
            assert codec.decode_feedback(udp.recv(65535), key).seq == 1
            # the next datagram the worker reads carries the drop count
            udp.sendto(data_blob(key, sid, seq=2), addr)
            sent += 1
            while codec.decode_feedback(udp.recv(65535), key).seq != 2:
                pass
        metrics = dict(d.core.metrics)
    assert metrics["data_udp_dropped"] > 0
    assert metrics["data_packets"] + metrics["data_udp_dropped"] == sent
    assert metrics["data_ok"] == 2


def test_daemon_port_conflict_raises(test_keypair):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        config = ServerConfig(auth_port=port, data_port=port + 1, host="127.0.0.1")
        d = ServerDaemon(config, private_key=test_keypair.private_part,
                         storage=storage.MemoryStorage())
        with pytest.raises(ConfigError):
            d.start()
    finally:
        blocker.close()


def _free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _scrape(port: int) -> str:
    with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
        chunks = []
        while True:
            chunk = s.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode()


def test_metrics_endpoint(test_keypair):
    # metrics_port 0 disables the endpoint, so reserve a concrete port
    config = ServerConfig(auth_port=0, data_port=0, host="127.0.0.1",
                          metrics_port=_free_tcp_port())
    d = ServerDaemon(config, private_key=test_keypair.private_part,
                     storage=storage.MemoryStorage())
    before = set(threading.enumerate())
    d.start()
    started = set(threading.enumerate()) - before
    try:
        assert len(started) == 2  # one worker per port; the auth one serves metrics
        session = ClientSession(HASH, TS, test_keypair.public_part)
        session.begin(time.monotonic())
        session.enqueue_rows({"pressure": [{"ts": TS, "hpa": 1000.0}]})
        drain(session, UdpTransport("127.0.0.1", d.auth_port, d.data_port))
        text = _scrape(d.metrics_port)
        fields = dict(line.split(" ", 1) for line in text.strip().splitlines())
        assert fields["auth_ok"] == "1"
        assert fields["data_ok"] == "1"
        assert fields["rows_written"] == "1"
    finally:
        d.stop()
    assert not [t for t in started if t.is_alive()]
