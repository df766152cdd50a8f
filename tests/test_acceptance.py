"""Headline end-to-end guarantees.

Each test asserts one promise the system makes and records a PASS/FAIL
line that the terminal summary prints as a checklist, with the measured
number next to it.  The asserts keep pytest honest about the same facts.
"""

import json
import random
import socket
import time

import pytest

from conftest import ACCEPTANCE_RESULTS, DATA_DIR, MAX_RATE_WORKLOAD
from test_golden import check_golden_vectors

from senselink import crypto, storage
from senselink.client import (AUTH, DATA, ClientSession, UdpTransport,
                              run_until_drained)
from senselink.server import IngestCore, ServerConfig, ServerDaemon
from senselink.sim import ChannelConfig, WorkloadConfig, pipelining_benchmark, run_experiment

TS = 1_400_000_000


def record(name, ok, detail):
    ACCEPTANCE_RESULTS.append((name, ok, detail))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def default_run(test_keypair):
    """One hour of the default workload over a perfect in-process link."""
    return run_experiment(WorkloadConfig(), ChannelConfig(seed=11),
                          keypair=test_keypair)


def test_lossless_run_stores_every_row_faithfully(default_run):
    r = default_run
    ok = (r.verified and r.rows_stored == r.rows_generated
          and r.rows_failed == 0 and r.duplicate_rows == 0
          and r.wall_time_s <= 30.0)
    record("hour-long lossless run stores every row, field-faithful", ok,
           f"{r.rows_stored}/{r.rows_generated} rows, verified={r.verified}, "
           f"wall={r.wall_time_s:.2f}s")


def test_wire_traffic_compresses_below_one_fifth(default_run):
    r = default_run
    ok = 0.0 < r.compression_ratio <= 0.20
    record("wire bytes at most 0.20 of the canonical JSON bytes", ok,
           f"ratio={r.compression_ratio:.3f} "
           f"({r.wire_bytes}/{r.json_bytes} bytes)")


def test_storage_rates_within_published_bands(default_run, test_keypair):
    # bytes/second is duration-invariant, so the heavy configuration is
    # measured on a shorter clip
    heavy = run_experiment(WorkloadConfig(duration_s=120, **MAX_RATE_WORKLOAD),
                           ChannelConfig(seed=11), keypair=test_keypair)
    ok = (75.0 <= default_run.storage_rate_bps <= 300.0
          and heavy.verified and heavy.storage_rate_bps <= 4000.0)
    record("storage rate: default in [75, 300] B/s, all-sensors <= 4000 B/s",
           ok, f"default={default_run.storage_rate_bps:.1f} B/s, "
           f"max={heavy.storage_rate_bps:.1f} B/s")


def test_lossy_link_delivers_everything_exactly_once(test_keypair):
    workload = WorkloadConfig(duration_s=600)
    channel = ChannelConfig(loss_prob=0.2, latency_ms=100.0, jitter_ms=20.0,
                            seed=42)
    runs = [run_experiment(workload, channel, keypair=test_keypair,
                           mode="realtime") for _ in range(2)]
    dicts = [r.to_dict() for r in runs]
    for d in dicts:
        d.pop("wall_time_s")
    r = runs[0]
    repeatable = dicts[0] == dicts[1]
    ok = (r.verified and r.delivery_ratio == 1.0 and r.duplicate_rows == 0
          and r.retransmissions > 0 and repeatable)
    record("20% loss each way: 100% delivery, zero duplicates, repeatable",
           ok, f"retransmissions={r.retransmissions}, "
           f"rows={r.rows_stored}/{r.rows_generated}, "
           f"identical_reruns={repeatable}")


def test_server_restarts_leave_no_trace_in_storage(test_keypair):
    workload = WorkloadConfig(duration_s=600)
    channel = ChannelConfig(loss_prob=0.2, latency_ms=100.0, jitter_ms=20.0,
                            seed=42)
    plain, bounced = storage.open_storage("memory"), storage.open_storage("memory")
    base = run_experiment(workload, channel, keypair=test_keypair,
                          mode="realtime", storage=plain)
    kicked = run_experiment(workload, channel, keypair=test_keypair,
                            mode="realtime", storage=bounced,
                            restart_at=(5, 20, 40, 60, 80))
    same = plain.read_session_rows(1) == bounced.read_session_rows(1)
    ok = base.verified and kicked.verified and kicked.restarts == 5 and same
    record("five mid-run server restarts: stored rows match a clean run", ok,
           f"restarts={kicked.restarts}, rows_equal={same}, "
           f"rows={kicked.rows_stored}")


def test_windowed_pipeline_beats_lockstep_eightfold(test_keypair):
    results = pipelining_benchmark(rtt_ms=50.0, packets=250, windows=(1, 16),
                                   keypair=test_keypair)
    slow, fast = results[1], results[16]
    speedup = fast.throughput_rows_s / slow.throughput_rows_s
    ok = slow.packets_sent >= 200 and speedup >= 8.0
    record("window 16 at least 8x faster than window 1 at 50 ms RTT", ok,
           f"speedup={speedup:.1f}x over {slow.packets_sent} packets")


def test_auth_completes_in_one_packet_each_way(default_run):
    r = default_run
    ok = r.auth_sent == 1 and r.auth_responses == 1
    record("authentication costs exactly one packet in each direction", ok,
           f"requests={r.auth_sent}, responses={r.auth_responses}")


def test_key_rotation_mid_session_converges(test_keypair):
    core = IngestCore(test_keypair.private_part, storage.open_storage("memory"))
    session = ClientSession(crypto.hash_user("rotation@example.com"), TS,
                            test_keypair.public_part)
    for kind, blob in session.begin(0.0):
        session.handle_wire(kind, core.handle_auth_packet(blob), 0.0)
    sid = session.session_id
    session.enqueue_rows({"pressure": [{"ts": TS + i, "hpa": 1000.0 + i}
                                       for i in range(30)]})
    [(_, old_blob)] = session.pump(1.0)

    [(_, auth_blob)] = session.update_session(
        1.5, new_key=crypto.generate_session_key())
    session.handle_wire(AUTH, core.handle_auth_packet(auth_blob), 1.6)
    old_key_dead = core.handle_data_packet(old_blob) is None

    [(_, new_blob)] = session.pump(session.next_wakeup())
    session.handle_wire(DATA, core.handle_data_packet(new_blob), 2.0)
    stored = len(core.storage.read_session_rows(sid).get("pressure", []))
    ok = (session.session_id == sid and old_key_dead and session.is_done()
          and stored == 30)
    record("key rotation keeps the session id; old-key packets die silently",
           ok, f"same_id={session.session_id == sid}, "
           f"old_key_discarded={old_key_dead}, rows_after_rotation={stored}")


def test_hostile_traffic_changes_nothing(test_keypair):
    store = storage.open_storage("memory")
    core = IngestCore(test_keypair.private_part, store)
    session = ClientSession(crypto.hash_user("fuzz@example.com"), TS,
                            test_keypair.public_part)
    for kind, blob in session.begin(0.0):
        session.handle_wire(kind, core.handle_auth_packet(blob), 0.0)
    sid_prefix = session.session_id.to_bytes(4, "big")
    baseline = store.storage_stats()

    # volume fuzz through the exact handlers the port workers call
    rng = random.Random(2026)
    replies = 0
    for i in range(100_000):
        pick = rng.random()
        if pick < 0.003:
            blob = rng.randbytes(512)  # full-length: exercises the RSA path
        elif pick < 0.10:
            blob = sid_prefix + rng.randbytes(rng.randrange(0, 200))
        else:
            blob = rng.randbytes(rng.randrange(0, 700))
        handler = core.handle_auth_packet if i % 2 else core.handle_data_packet
        if handler(blob) is not None:
            replies += 1
    untouched = store.storage_stats() == baseline

    # a slice of the same garbage against live sockets, then prove the
    # daemon still serves a real client afterwards
    daemon = ServerDaemon(ServerConfig(auth_port=0, data_port=0,
                                       host="127.0.0.1"),
                          private_key=test_keypair.private_part,
                          storage=storage.open_storage("memory"))
    daemon.start()
    try:
        out = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        for port in (daemon.auth_port, daemon.data_port):
            for _ in range(1000):
                out.sendto(rng.randbytes(rng.randrange(1, 700)),
                           ("127.0.0.1", port))
        out.close()
        live = ClientSession(crypto.hash_user("afterwards@example.com"), TS,
                             test_keypair.public_part)
        live.begin(time.monotonic())
        live.enqueue_rows({"pressure": [{"ts": TS, "hpa": 1013.2}]})
        transport = UdpTransport("127.0.0.1", daemon.auth_port, daemon.data_port)
        try:
            report = run_until_drained(live, transport, timeout=20.0)
        finally:
            transport.close()
        survived = (report.complete
                    and daemon.core.storage.storage_stats()["sessions"] == 1)
    finally:
        daemon.stop()

    # flipping one bit of a genuine packet must never pass silently
    session.enqueue_rows({"pressure": [{"ts": TS + i, "hpa": 900.0 + i}
                                       for i in range(8)]})
    [(_, good)] = session.pump(1.0)
    before = store.storage_stats()
    silent = 0
    for _ in range(1000):
        flipped = bytearray(good)
        bit = rng.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        if core.handle_data_packet(bytes(flipped)) is not None:
            silent += 1
    tamper_clean = silent <= 1 and store.storage_stats() == before

    ok = replies == 0 and untouched and survived and tamper_clean
    record("hostile traffic: 1e5 datagrams ignored, <=0.1% tamper slip", ok,
           f"replies={replies}, storage_untouched={untouched}, "
           f"alive_after_socket_fuzz={survived}, silent_tampers={silent}/1000")


def test_committed_wire_dumps_decode_and_reencode_bit_exact(test_keypair):
    doc = json.loads((DATA_DIR / "golden_vectors.json").read_text())
    checked = check_golden_vectors(doc, test_keypair.private_part)
    record("committed wire dumps decode and re-encode bit-exactly",
           checked == 4, f"{checked} vectors verified")
