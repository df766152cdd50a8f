import gc
import hashlib
import json
import random
import socket
import threading
import time
import tracemalloc
from collections import deque

import pytest

from conftest import PARSER_LIMITS

from senselink import client, codec, crypto, journal, sim
from senselink.client import (AUTH, DATA, BASE_TIMEOUT, ClientError, BufferFull, TimeMismatch,
                              UnknownSeq, ClientSession, TcpTransport,
                              run_until_drained)
from senselink.server import IngestCore
from senselink.storage import open_storage

TS = 1_400_000_000
HASH = crypto.hash_user("rider@example.com")


@pytest.fixture
def j(tmp_path):
    """A journal in a fresh file, closed after the test."""
    opened = journal.Journal(str(tmp_path / "j.bin"))
    yield opened
    opened.close()


@pytest.fixture
def core(test_keypair):
    return IngestCore(test_keypair.private_part, open_storage("memory"))


def make_session(test_keypair, **kwargs):
    return ClientSession(HASH, TS, test_keypair.public_part, **kwargs)


def authenticate(session, core, now=0.0):
    """Run the handshake against a live core; returns the session id."""
    emissions = session.begin(now) if not session.key else session.pump(now)
    for kind, blob in emissions:
        assert kind == AUTH
        reply = core.handle_auth_packet(blob)
        assert reply is not None
        session.handle_wire(AUTH, reply, now)
    assert session.authenticated
    return session.session_id


def pressure_batch(n, base_ts=TS):
    return {"pressure": [{"ts": base_ts + i, "hpa": 1000.0 + i} for i in range(n)]}


# ---------------------------------------------------------------------------
# handshake


def test_begin_emits_single_auth_block(test_keypair):
    session = make_session(test_keypair)
    emissions = session.begin(0.0)
    assert len(emissions) == 1
    kind, blob = emissions[0]
    assert kind == AUTH and len(blob) == 512
    assert session.counters["auth_sent"] == 1
    with pytest.raises(ClientError):
        session.begin(0.0)


def test_auth_request_carries_session_fields(test_keypair):
    session = make_session(test_keypair, identifiers={"hw": "rev-b"})
    _, blob = session.begin(0.0)[0]
    req = codec.decode_auth_request(blob, test_keypair.private_part)
    assert req.user_hash == HASH
    assert req.time == TS
    assert req.version == codec.PROTOCOL_VERSION
    with pytest.raises(TypeError):  # a session speaks the version of its build
        make_session(test_keypair, version=3)
    assert req.identifiers == {"hw": "rev-b"}
    assert req.key == session.key


@pytest.mark.parametrize("identifiers", [{"hw": 3}, {"hw": None}, {"": "rev-b"}, {1: "x"}])
def test_identifiers_the_server_refuses_are_refused_before_sending(test_keypair, core,
                                                                   identifiers):
    with pytest.raises(ValueError):
        make_session(test_keypair, identifiers=identifiers).begin(0.0)
    session = make_session(test_keypair)
    authenticate(session, core)
    with pytest.raises(ValueError):
        session.update_session(1.0, new_identifiers=identifiers)
    assert session.counters["auth_sent"] == 1


def test_handshake_against_core(test_keypair, core):
    session = make_session(test_keypair)
    sid = authenticate(session, core)
    assert sid == 1
    assert session.counters["auth_responses"] == 1
    # the server remembers the key the client generated
    assert core.lookup_key(sid) == session.key


def test_auth_response_wrong_time_rejected(test_keypair):
    session = make_session(test_keypair)
    _, blob = session.begin(0.0)[0]
    seq = codec.decode_auth_request(blob, test_keypair.private_part).seq
    forged = codec.encode_auth_response(
        codec.AuthResponse(seq=seq, time=TS + 1, session_id=5), session.key)
    with pytest.raises(TimeMismatch):
        session.handle_auth_response(codec.decode_auth_response(forged, session.key))
    assert session.handle_wire(AUTH, forged) is None  # swallowed on the wire path
    assert session.counters["auth_ignored"] == 1
    assert not session.authenticated


def test_auth_response_unknown_seq_ignored(test_keypair):
    session = make_session(test_keypair)
    session.begin(0.0)
    stray = codec.encode_auth_response(
        codec.AuthResponse(seq=999, time=TS, session_id=5), session.key)
    with pytest.raises(UnknownSeq):
        session.handle_auth_response(codec.decode_auth_response(stray, session.key))
    assert session.handle_wire(AUTH, stray) is None
    assert not session.authenticated


def test_garbage_wire_input_ignored(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    assert session.handle_wire(AUTH, b"\x00\x00\x00\x01garbage") is None
    assert session.handle_wire(DATA, b"nonsense") is None
    assert session.counters["feedback_ignored"] == 1


@pytest.mark.parametrize("body", PARSER_LIMITS.values(), ids=PARSER_LIMITS)
def test_json_the_parser_cannot_take_is_ignored(test_keypair, core, body):
    session = make_session(test_keypair)
    _, blob = session.begin(0.0)[0]
    seq = codec.decode_auth_request(blob, test_keypair.private_part).seq
    sealed = crypto.sym_encrypt(session.key, codec.compress(body))
    assert session.handle_wire(AUTH, seq.to_bytes(4, "big") + sealed) is None
    assert session.counters["auth_ignored"] == 1
    session.handle_wire(AUTH, core.handle_auth_packet(blob))
    assert session.authenticated
    assert session.handle_wire(DATA, session.session_id.to_bytes(4, "big") + sealed) is None
    assert session.counters["feedback_ignored"] == 1


def test_no_data_before_auth(test_keypair):
    session = make_session(test_keypair)
    session.begin(0.0)
    session.enqueue_rows(pressure_batch(5))
    emissions = session.pump(0.0)
    assert all(kind == AUTH for kind, _ in emissions)


def test_auth_retransmission_and_failure(test_keypair, monkeypatch):
    monkeypatch.setattr(client, "MAX_RETRIES", 3)
    session = make_session(test_keypair)
    _, first = session.begin(0.0)[0]
    session.enqueue_rows(pressure_batch(3))
    assert session.pump(0.4) == []  # before the 0.5 s timeout
    retry = session.pump(0.6)
    assert retry == [(AUTH, first)]  # byte-identical retransmit
    # exhaust: retries at 0.5, then backoff 1.0, 2.0
    session.pump(1.7)
    session.pump(3.7)
    session.pump(10.0)
    assert session.auth_failed
    assert session.is_done()
    rep = session.report()
    assert rep.failed_rows == 3 and rep.pending_rows == 0
    assert not rep.complete


# ---------------------------------------------------------------------------
# windowing and packing


def test_window_caps_inflight_packets(test_keypair, core):
    session = make_session(test_keypair, pack_json_budget=1)  # one row per packet
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(100))
    emissions = session.pump(1.0)
    assert len(emissions) == 16
    assert all(kind == DATA for kind, _ in emissions)
    assert session.counters["max_inflight"] == 16
    assert session.pump(1.0) == []  # window full, nothing new before feedback


def test_default_budget_packs_rows_together(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(500))
    emissions = session.pump(1.0)
    assert len(emissions) == 1  # 500 small rows fit one packet comfortably


def test_packet_split_when_over_byte_limit(test_keypair, core, monkeypatch):
    rng = random.Random(5)
    blobs = ["".join(chr(rng.randrange(0x21, 0x7F)) for _ in range(150))
             for _ in range(8)]
    monkeypatch.setattr(codec, "MAX_PACKET_BYTES", 400)
    session = make_session(test_keypair)
    authenticate(session, core)
    # 8 incompressible ~150 B rows cannot share one 400 B packet: the sender
    # must shrink the take until each emitted blob fits
    session.enqueue_rows({"events": [{"ts": TS, "idx": i, "kind": "blob", "detail": d}
                                     for i, d in enumerate(blobs)]})
    emissions = session.pump(1.0)
    assert len(emissions) > 1
    assert all(len(blob) <= 400 for _, blob in emissions)
    total = sum(len(codec.decode_data_packet(b, core.lookup_key).streams["events"])
                for _, b in emissions)
    assert total == 8


def test_single_oversized_row_is_an_error(test_keypair, core, monkeypatch):
    rng = random.Random(6)
    detail = "".join(chr(rng.randrange(0x21, 0x7F)) for _ in range(600))
    monkeypatch.setattr(codec, "MAX_PACKET_BYTES", 400)
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows({"events": [{"ts": TS, "kind": "big", "detail": detail}]})
    with pytest.raises(ClientError):
        session.pump(1.0)


def test_seq_numbers_never_reused(test_keypair, core):
    session = make_session(test_keypair, pack_json_budget=1)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(5))
    seqs = [codec.decode_data_packet(blob, core.lookup_key).seq
            for _, blob in session.pump(1.0)]
    assert len(set(seqs)) == 5
    assert min(seqs) > 1  # auth consumed seq 1


# ---------------------------------------------------------------------------
# retransmission and failure


def test_data_retransmit_same_bytes(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(10))
    [(_, first)] = session.pump(1.0)
    assert session.pump(1.3) == []
    assert session.pump(1.6) == [(DATA, first)]
    assert session.counters["retransmissions"] == 1
    assert session.counters["packets_sent"] == 2


def test_backoff_doubles_until_cap(test_keypair, core, monkeypatch):
    # no auth refresh within 8 retries, so the wakeup schedule is the data
    # packet's alone
    monkeypatch.setattr(client, "MAX_RETRIES", 20)
    monkeypatch.setattr(client, "AUTH_REFRESH_EVERY", 100)
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(1))
    now = 1.0
    session.pump(now)
    waits = []
    for _ in range(8):
        wake = session.next_wakeup()
        waits.append(wake - now)
        now = wake
        assert session.pump(now), "expected a retransmission at the deadline"
    assert waits == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]


def test_retry_cap_fails_rows_without_release(test_keypair, core, j, monkeypatch):
    monkeypatch.setattr(client, "MAX_RETRIES", 2)
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(7))
    now = 1.0
    while not session.is_done():
        session.pump(now)
        now = max(session.next_wakeup() or now + 1, now + 0.1)
    rep = session.report()
    assert rep.failed_rows == 7
    assert rep.packets_failed == 1
    assert not rep.complete
    assert j.watermark == 0  # unacked rows stay journaled for the next run


# ---------------------------------------------------------------------------
# feedback and release


def test_feedback_releases_rows_and_advances_watermark(test_keypair, core, j):
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(20))
    [(_, blob)] = session.pump(1.0)
    assert j.watermark == 0  # nothing released before positive feedback
    reply = core.handle_data_packet(blob)
    ack = session.handle_wire(DATA, reply, 1.1)
    assert ack.stored_rows == 20 and ack.sent_rows == 20
    assert j.watermark == 20
    assert session.is_done()
    assert session.report().complete
    assert session.report().delivered_rows == 20


def test_duplicate_feedback_is_noop(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(4))
    [(_, blob)] = session.pump(1.0)
    reply = core.handle_data_packet(blob)
    assert session.handle_wire(DATA, reply, 1.1) is not None
    assert session.handle_wire(DATA, reply, 1.2) is None
    assert session.counters["delivered_rows"] == 4
    assert session.counters["feedback_ignored"] == 1


def test_feedback_for_wrong_session_ignored(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(2))
    session.pump(1.0)
    forged = codec.FeedbackPacket(session_id=session.session_id + 1, seq=2, stored=2)
    assert session.handle_feedback(forged) is None
    assert session.counters["delivered_rows"] == 0


def test_partial_store_reenqueues_shortfall_first(test_keypair, core, j):
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(120))
    [(_, blob)] = session.pump(1.0)
    pkt = codec.decode_data_packet(blob, core.lookup_key)
    short = codec.FeedbackPacket(session_id=session.session_id, seq=pkt.seq, stored=100)
    ack = session.handle_feedback(short, 1.1)
    assert ack.stored_rows == 100
    assert session.counters["rows_reenqueued"] == 20
    assert j.watermark == 100  # contiguous released prefix only
    # the shortfall goes out again ahead of anything else, on a fresh seq
    [(_, blob2)] = session.pump(2.0)
    pkt2 = codec.decode_data_packet(blob2, core.lookup_key)
    assert pkt2.seq != pkt.seq
    assert [r["ts"] for r in pkt2.streams["pressure"]] == [TS + i for i in range(100, 120)]
    reply = core.handle_data_packet(blob2)
    session.handle_wire(DATA, reply, 2.1)
    assert j.watermark == 120
    assert session.is_done()


def test_partial_ack_releases_the_write_order_prefix(test_keypair, core, j):
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    for base in (TS, TS + 10):  # journal indexes: events 0, pressure 1-3, events 4, pressure 5-7
        session.enqueue_rows({"pressure": [{"ts": base + i, "hpa": 1000.0} for i in range(3)],
                              "events": [{"ts": base, "kind": "lap"}]})
    [(_, blob)] = session.pump(1.0)
    pkt = codec.decode_data_packet(blob, core.lookup_key)
    written = [(stream, row) for stream, rows in codec.write_order(pkt.streams)
               for row in rows]  # the order storage writes them in
    assert [stream for stream, _ in written] == ["events"] * 2 + ["pressure"] * 6
    session.handle_feedback(codec.FeedbackPacket(session.session_id, pkt.seq, stored=4), 1.1)
    # released: both events (0, 4) and the first two pressure rows (1, 2)
    assert j.watermark == 3
    assert session._released == [(4, 5)]
    [(_, blob2)] = session.pump(2.0)
    resent = codec.decode_data_packet(blob2, core.lookup_key)
    assert resent.streams == {"pressure": [row for _, row in written[4:]]}
    assert [r["ts"] for r in resent.streams["pressure"]] == [TS + 2, TS + 10, TS + 11, TS + 12]


def test_given_up_packet_keeps_release_bookkeeping_bounded(test_keypair, core, j,
                                                           monkeypatch):
    # a realtime recording whose second packet is given up after MAX_RETRIES:
    # the watermark stays before its rows, and the rows acknowledged after it
    # are kept as one released range, not one entry per row
    monkeypatch.setattr(client, "MAX_RETRIES", 2)
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    generated = sim.generate_session(sim.WorkloadConfig(duration_s=600, seed=3))
    sent = []  # seqs of the data packets in the order first sent
    first_rows = 0

    def pump(now):
        nonlocal first_rows
        for kind, blob in session.pump(now):
            pkt = codec.decode_data_packet(blob, core.lookup_key)
            if pkt.seq not in sent:
                sent.append(pkt.seq)
            if pkt.seq == sent[0]:
                first_rows = codec.batch_row_count(pkt.streams)
            if pkt.seq not in sent[1:2]:
                session.handle_wire(DATA, core.handle_data_packet(blob), now)

    for now, chunk in sim.flush_chunks(generated, TS, 5.0):
        session.enqueue_rows(chunk)
        pump(now)
    assert session.is_done()
    report = session.report()
    assert report.packets_failed == 1 and report.pending_rows == 0
    assert report.delivered_rows + report.failed_rows == codec.batch_row_count(generated)
    assert report.delivered_rows > 100 * first_rows > 0
    assert j.watermark == first_rows  # before the given-up rows
    assert len(session._released) <= 2
    assert sum(b - a for a, b in session._released) == report.delivered_rows - first_rows


def test_rows_kept_until_acked(test_keypair, core, j):
    session = make_session(test_keypair, journal=j)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(10))
    session.pump(1.0)
    assert not session.is_done()
    assert j.watermark == 0
    assert session.report().pending_rows == 10


# ---------------------------------------------------------------------------
# key rotation and self-healing


def test_key_rotation_keeps_session_and_reencodes(test_keypair, core):
    session = make_session(test_keypair)
    sid = authenticate(session, core)
    old_key = session.key
    session.enqueue_rows(pressure_batch(6))
    [(_, old_blob)] = session.pump(1.0)

    new_key = crypto.generate_session_key()
    [(_, auth_blob)] = session.update_session(1.5, new_key=new_key)
    reply = core.handle_auth_packet(auth_blob)
    session.handle_wire(AUTH, reply, 1.6)
    assert session.session_id == sid  # same (hash, time): same session
    assert session.key == new_key

    # the server only honours the new key now
    assert core.handle_data_packet(old_blob) is None
    # the retry re-encodes the same rows under the new key
    [(_, new_blob)] = session.pump(session.next_wakeup())
    assert new_blob != old_blob
    reply = core.handle_data_packet(new_blob)
    ack = session.handle_wire(DATA, reply, 2.0)
    assert ack.stored_rows == 6
    assert session.is_done()


def test_rotation_last_writer_wins(test_keypair, core):
    session = make_session(test_keypair)
    authenticate(session, core)
    key_a = crypto.generate_session_key()
    key_b = crypto.generate_session_key()
    [(_, blob_a)] = session.update_session(1.0, new_key=key_a)
    [(_, blob_b)] = session.update_session(1.1, new_key=key_b)
    # both reach the server; responses arrive in order
    reply_a = core.handle_auth_packet(blob_a)
    reply_b = core.handle_auth_packet(blob_b)
    session.handle_wire(AUTH, reply_a, 1.2)
    assert session.key == key_a
    session.handle_wire(AUTH, reply_b, 1.3)
    assert session.key == key_b
    assert core.lookup_key(session.session_id) == key_b
    # a late replay of the older response is ignored
    assert session.handle_wire(AUTH, reply_a, 1.4) is None


def test_stubborn_packet_triggers_auth_refresh(test_keypair, core, monkeypatch):
    monkeypatch.setattr(client, "AUTH_REFRESH_EVERY", 2)
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(3))
    now = 1.0
    session.pump(now)
    auths = 0
    for _ in range(2):
        now = session.next_wakeup()
        auths += sum(1 for kind, _ in session.pump(now) if kind == AUTH)
    assert auths == 1  # second retry carries a fresh handshake
    assert session.counters["auth_sent"] == 2


def test_refresh_recovers_lost_server_state(test_keypair, monkeypatch):
    # server loses everything (fresh storage); the client's periodic re-auth
    # re-registers and delivery completes under a new session id
    monkeypatch.setattr(client, "AUTH_REFRESH_EVERY", 2)
    session = make_session(test_keypair)
    core_a = IngestCore(test_keypair.private_part, open_storage("memory"))
    authenticate(session, core_a)
    old_sid = session.session_id
    session.enqueue_rows(pressure_batch(5))

    core_b = IngestCore(test_keypair.private_part, open_storage("memory"))
    now = 1.0
    for _ in range(40):
        if session.is_done():
            break
        for kind, blob in session.pump(now):
            reply = (core_b.handle_auth_packet(blob) if kind == AUTH
                     else core_b.handle_data_packet(blob))
            if reply is not None:
                session.handle_wire(kind, reply, now)
        now = max(session.next_wakeup() or now + 0.1, now + 0.01)
    assert session.is_done()
    assert session.report().delivered_rows == 5
    assert session.session_id == old_sid  # same (hash, time) key on a fresh db
    assert len(core_b.storage.read_session_rows(session.session_id)["pressure"]) == 5


# ---------------------------------------------------------------------------
# journal resume


def test_journal_resume_after_crash(test_keypair, core, tmp_path):
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    session = make_session(test_keypair, journal=j, pack_json_budget=1)
    authenticate(session, core)
    session.enqueue_rows(pressure_batch(30))
    emissions = session.pump(1.0)  # 16 packets in flight
    # only the first 10 packets get stored before the "crash"
    for _, blob in emissions[:10]:
        reply = core.handle_data_packet(blob)
        session.handle_wire(DATA, reply, 1.1)
    assert j.watermark == 10
    j.close()  # crash: session object dropped

    j2 = journal.Journal(path)
    resumed = make_session(test_keypair, journal=j2)
    authenticate(resumed, core)
    [(_, blob)] = resumed.pump(2.0)
    reply = core.handle_data_packet(blob)
    resumed.handle_wire(DATA, reply, 2.1)
    assert resumed.is_done()
    assert j2.watermark == 30
    rows = core.storage.read_session_rows(resumed.session_id)["pressure"]
    assert [r["ts"] for r in rows] == [TS + i for i in range(30)]
    j2.close()


def test_journal_replay_buffers_what_enqueue_did(test_keypair, tmp_path):
    # replayed rows come back parsed from the journal (a zero idx left out,
    # numbers as JSON reads them) and go through the stream kernels again
    path = str(tmp_path / "j.bin")
    j = journal.Journal(path)
    session = make_session(test_keypair, journal=j)
    session_rows = sim.generate_session(sim.WorkloadConfig(duration_s=300, seed=4))
    session.enqueue_rows(session_rows)
    j.close()
    j2 = journal.Journal(path)
    resumed = make_session(test_keypair, journal=j2)
    j2.close()

    def runs(s):  # one run per stream, each row's JSON as enqueue wrote it
        return [(run.start, run.stream, run.data, run.ends, run.base) for run in s._buffer]
    assert runs(resumed) == runs(session)
    assert len(runs(session)) == len(codec.STREAM_SPECS.keys() & session_rows.keys())
    assert resumed._buffered_bytes == session._buffered_bytes


def _drain_in_process(session, core):
    """Pump the session against the core until done, feedback in step."""
    now = 1.0
    while not session.is_done():
        for kind, blob in session.pump(now):
            assert kind == DATA
            session.handle_wire(DATA, core.handle_data_packet(blob), now)
        now += 0.01


def test_client_path_serializes_each_row_once(test_keypair, core, monkeypatch, tmp_path):
    # a default hour goes from enqueue through the journal and every packet
    # to storage with no validate_streams and no row through the encoder,
    # enqueued whole (batch) and in the simulator's realtime chunks; the
    # compiled row checks and the JSON kernel check and convert every list
    # of rows, long or short, on both ends and in verification, without
    # handing one generated row to the reference row_params or row_json
    assert not hasattr(codec.StreamSpec, "normalize")
    workload = sim.WorkloadConfig(seed=8)
    generated = sim.generate_session(workload)
    encode = json.JSONEncoder.encode  # codec._CANONICAL's and json.dumps'

    def tripwire(self, obj):
        if isinstance(obj, dict) and ("ts" in obj or "streams" in obj):
            raise AssertionError("a row went through the JSON encoder")
        return encode(self, obj)

    def no_validate_streams(streams):
        raise AssertionError("validate_streams ran on the client path")

    lengths = {"rows_json": [], "rows_params": []}  # of each list given, by function

    def listed(convert):
        def watched(self, rows):
            lengths[convert.__name__].append(len(rows))
            return convert(self, rows)
        return watched

    def reference(check):
        def watched(self, row):
            raise AssertionError(f"a {self.name} row went to the reference {check.__name__}")
        return watched

    monkeypatch.setattr(json.JSONEncoder, "encode", tripwire)
    monkeypatch.setattr(codec, "validate_streams", no_validate_streams)
    for cls in {codec.StreamSpec, *map(type, codec.STREAM_SPECS.values())}:
        for name, wrap in (("rows_json", listed), ("rows_params", listed),
                           ("row_json", reference), ("row_params", reference)):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, wrap(vars(cls)[name]))
    rows = codec.batch_row_count(generated)
    for mode in ("batch", "realtime"):
        j = journal.Journal(str(tmp_path / f"{mode}.bin"))
        session = make_session(test_keypair, journal=j)
        authenticate(session, core)
        if mode == "batch":
            assert session.enqueue_rows(generated) == rows
            _drain_in_process(session, core)
        else:
            for _, chunk in sim.flush_chunks(generated, workload.start_ts, 5.0):
                assert session.enqueue_rows(chunk) == codec.batch_row_count(chunk)
                _drain_in_process(session, core)
        assert session.report().delivered_rows == rows
        assert j.watermark == j.total_rows
        j.close()
        sim.verify_storage(core.storage, session.session_id, generated)
    for given in lengths.values():  # short lists and lists the JSON kernel takes
        assert min(given) < codec._KERNEL_MIN_ROWS <= max(given)


def test_default_hour_seals_each_packet_once(test_keypair, core, monkeypatch):
    # the default JSON budget fills a packet that seals under the size limit
    # at the first try, so the shrink loop never compresses a payload twice
    seal = codec.seal_data_payload
    seals = []

    def counting_seal(*args, **kwargs):
        seals.append(len(args[1]))
        return seal(*args, **kwargs)

    monkeypatch.setattr(codec, "seal_data_payload", counting_seal)
    for seed in (1, 2):
        seals.clear()
        session = make_session(test_keypair)
        authenticate(session, core)
        session.enqueue_rows(sim.generate_session(sim.WorkloadConfig(seed=seed)))
        _drain_in_process(session, core)
        report = session.report()
        assert report.complete and report.retransmissions == 0
        assert len(seals) == report.packets_sent > 1


# SHA-256 of the payload and row count of each packet of the default hour in
# batch mode at the default JSON budget
_BATCH_HOUR_PACKETS = [
    (1343, "06b06280dd0fe892a281e0b67b25c5a2db8dfad2eeb009c10913dffac1e294a6"),
    (1344, "aacd93a8a684b158968a203a0b1e42df17845cb2b8b025b20e69146b25e58591"),
    (1619, "ed4ff9df51ddfe2588724a6b50725158ac68a48c40168732aaed961fc1b8c812"),
    (1359, "1797005d8fa6b0fbb7d807cd0530cda7f7971d703f5f169b9868753b60b640eb"),
    (1359, "44486de1af171731bc0f1b672ecb4ca23db5a317c0e5e286e20dde9dbb59aa1e"),
    (1833, "fe83f6c9d010995dae355ac4b6177e4bb6cc66322999c961db3d4c835a68cebe"),
    (1886, "df264ddf3b0aa872c45d5cbae09df3226e7ff9ea2c4b8e202bd77c52a216f80e"),
    (1886, "f858954f61c30731d6ad6d1e4c115d46520aee1b3cd29c0b4136b1bb7d8f5f02"),
    (1885, "a92f6366bcdc9d8dd7bc312222eda871dba40241f856f9c60d453f388d60be56"),
    (1885, "769b80ea35f437fb7aaf673a5862a5b7ccbbd49ad7528595b35e71508eeee796"),
    (1885, "a1f9d0a247381562bb09de23bad7f48b2bdc169f92cd7e65144a3f130569e757"),
    (1389, "a7f39cedfc4d1dc42b68eb590324ae3002db1268ba7bcec5c536bd222aa23cfb"),
]


def test_batch_hour_packets_are_pinned(test_keypair, core):
    # the packet boundaries and payload bytes of a batch upload; each sealed
    # blob holds exactly the rows its packet counts, so the server's stored
    # count matches the rows sent
    session = make_session(test_keypair)
    authenticate(session, core)
    session.enqueue_rows(sim.generate_session(sim.WorkloadConfig()))
    packets = []
    now = 1.0
    while not session.is_done():
        for kind, blob in session.pump(now):
            payload = codec.decompress(crypto.sym_decrypt(session.key, blob[4:]))
            seq = json.loads(payload)["seq"]
            pkt = session._flight[seq]
            assert payload == pkt.payload
            assert codec.batch_row_count(json.loads(payload)["streams"]) == pkt.row_count
            packets.append((pkt.row_count, hashlib.sha256(pkt.payload).hexdigest()))
            ack = session.handle_wire(DATA, core.handle_data_packet(blob), now)
            assert ack.stored_rows == ack.sent_rows == pkt.row_count
        now += 0.01
    assert packets == _BATCH_HOUR_PACKETS


# ---------------------------------------------------------------------------
# guards


@pytest.mark.parametrize("mode", ["batch", "realtime"])
def test_buffered_heap_is_what_the_limit_counts(test_keypair, mode):
    # the buffer limit counts the bytes the buffer's runs hold, and the
    # Python heap of buffered rows stays close to that count: two hours in
    # batch mode, or an hour flushed every 5 s (about five rows a run)
    hours = [sim.generate_session(sim.WorkloadConfig(seed=seed)) for seed in (1, 2)]
    batches = (hours if mode == "batch"
               else [chunk for _, chunk in sim.flush_chunks(hours[0], TS, 5.0)])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session = make_session(test_keypair)
        for batch in batches:
            session.enqueue_rows(batch)
        gc.collect()
        heap = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert session._buffered_bytes == sum(run.size for run in session._buffer)
    assert heap <= 1.2 * session._buffered_bytes


def test_buffer_limit(test_keypair, monkeypatch):
    monkeypatch.setattr(client, "BUFFER_LIMIT_BYTES", 100)
    session = make_session(test_keypair)
    with pytest.raises(BufferFull):
        session.enqueue_rows(pressure_batch(10))
    assert session.report().pending_rows == 0
    # under a limit it fits, the same batch is taken whole: its count is all that is pending
    monkeypatch.setattr(client, "BUFFER_LIMIT_BYTES", 10_000)
    assert session.enqueue_rows(pressure_batch(10)) == session.report().pending_rows == 10


def test_unknown_stream_enqueue_rejected(test_keypair):
    session = make_session(test_keypair)
    with pytest.raises(ValueError):  # not MalformedPayload: refused before any row is checked
        session.enqueue_rows({"heart_rate": [{"ts": TS, "bpm": 60}], "pressure": [{"ts": TS}]})


def test_enqueue_keeps_nothing_of_a_batch_with_a_bad_row(test_keypair, tmp_path):
    j = journal.Journal(str(tmp_path / "j.bin"))
    session = make_session(test_keypair, journal=j)
    bad = pressure_batch(3)
    bad["pressure"][2]["hpa"] = float("nan")
    with pytest.raises(codec.MalformedPayload):
        session.enqueue_rows({**bad, "bt": [{"ts": TS, "device_id": "kb", "rssi": -9}]})
    assert (j.total_rows, session._buffered_bytes) == (0, 0)
    assert not session._buffer
    assert session.enqueue_rows(pressure_batch(2)) == j.total_rows == 2
    assert session.report().pending_rows == 2
    j.close()


def test_constructor_validation(test_keypair):
    with pytest.raises(ValueError):
        ClientSession("not-a-hash", TS, test_keypair.public_part)
    with pytest.raises(ValueError):
        ClientSession(HASH, 0, test_keypair.public_part)
    with pytest.raises(ValueError):
        ClientSession(HASH, TS, test_keypair.public_part, window=0)


# ---------------------------------------------------------------------------
# drain loop and transports


class _TickingClock:
    """Advances 0.2 s on every reading: a window of packets stamped one
    reading apiece spans more than BASE_TIMEOUT."""

    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 0.2
        return self.t


class _CoreTransport:
    """Answered by an in-process IngestCore that handles one queued blob per
    poll, as a server busy with one packet at a time."""

    def __init__(self, core, session):
        self.core = core
        self.session = session
        self.queue = deque()
        self.stamps = []  # first_sent_at of each new data packet, as sent

    def send(self, kind, blob):
        if kind == DATA:
            seq = codec.decode_data_packet(blob, self.core.lookup_key).seq
            pkt = self.session._flight[seq]
            if pkt.retries == 0:
                self.stamps.append(pkt.first_sent_at)
        self.queue.append((kind, blob))

    def poll(self, timeout):
        if not self.queue:
            return []
        kind, blob = self.queue.popleft()
        handle = self.core.handle_auth_packet if kind == AUTH else self.core.handle_data_packet
        reply = handle(blob)
        return [] if reply is None else [(kind, reply)]


def test_drain_loop_times_each_packet_from_its_own_send(test_keypair, core):
    assert 0.2 * 16 > BASE_TIMEOUT
    clock = _TickingClock()
    session = make_session(test_keypair, pack_json_budget=1)  # one row per packet
    session.enqueue_rows(pressure_batch(40))
    transport = _CoreTransport(core, session)
    for kind, blob in session.begin(clock()):
        transport.send(kind, blob)
    report = run_until_drained(session, transport, timeout=600.0, clock=clock)
    assert report.complete and report.delivered_rows == 40
    assert report.retransmissions == 0
    assert len(transport.stamps) == 40
    assert len(set(transport.stamps)) == 40  # each packet stamped at its own send
    rows = core.storage.read_session_rows(session.session_id)["pressure"]
    assert [r["ts"] for r in rows] == [TS + i for i in range(40)]


def _listener() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 32 * 1024)  # fills sooner
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    return sock


def test_tcp_send_waits_out_a_stalled_reader(test_keypair):
    frames = [bytes([i]) * 60_000 for i in range(64)]  # about 3.8 MB, none read at first
    auth_l, data_l = _listener(), _listener()
    transport = TcpTransport("127.0.0.1", auth_l.getsockname()[1], data_l.getsockname()[1])
    auth_conn, _ = auth_l.accept()
    data_conn, _ = data_l.accept()
    received = []

    def read_later():
        time.sleep(0.5)
        data_conn.settimeout(10.0)
        buf = codec.FrameBuffer()
        while data := data_conn.recv(65536):
            received.extend(buf.feed(data))

    reader = threading.Thread(target=read_later, daemon=True)
    reader.start()
    try:
        for blob in frames:
            transport.send(DATA, blob)
    finally:
        transport.close()
        reader.join(timeout=20.0)
        for sock in (auth_conn, data_conn, auth_l, data_l):
            sock.close()
    assert not reader.is_alive()
    assert received == frames


def test_tcp_poll_raises_once_the_server_closes(test_keypair):
    auth_l, data_l = _listener(), _listener()
    transport = TcpTransport("127.0.0.1", auth_l.getsockname()[1], data_l.getsockname()[1])
    for listener in (auth_l, data_l):
        conn, _ = listener.accept()
        conn.close()
        listener.close()
    try:
        started = time.monotonic()
        with pytest.raises(ConnectionError):
            transport.poll(0.5)
        assert time.monotonic() - started < 0.5
        # the drain loop stops at once instead of polling a dead socket until its timeout
        session = make_session(test_keypair)
        for kind, blob in session.begin(0.0):
            transport.send(kind, blob)
        started = time.monotonic()
        with pytest.raises(ConnectionError):
            run_until_drained(session, transport, timeout=5.0)
        assert time.monotonic() - started < 1.0
    finally:
        transport.close()


def test_tcp_transport_closes_the_auth_connection_when_the_data_one_fails():
    auth_l = _listener()
    closed = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    closed.bind(("127.0.0.1", 0))
    data_port = closed.getsockname()[1]
    closed.close()  # nothing listens there: the data connection is refused
    try:
        with pytest.raises(ConnectionRefusedError):
            TcpTransport("127.0.0.1", auth_l.getsockname()[1], data_port)
        # an auth socket left open warns as it is collected, which the suite makes an error
        gc.collect()
    finally:
        auth_l.close()
