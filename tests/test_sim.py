import hashlib
import math
import random
import sqlite3
import tracemalloc
from dataclasses import fields

import pytest

from conftest import MAX_RATE_WORKLOAD, stored_rows

from senselink import client, codec, sim, storage
from senselink.sim import (ChannelConfig, EventLoop, ExperimentReport, SimError,
                           VerificationFailed, WorkloadConfig,
                           _Direction, flush_chunks, generate_session,
                           parse_experiment_config,
                           pipelining_benchmark, run_experiment, verify_storage)

TS = 1_400_000_000


# ---------------------------------------------------------------------------
# event loop


def test_event_loop_orders_by_time_then_fifo():
    loop = EventLoop()
    seen = []
    loop.call_at(3.0, lambda: seen.append("late"))
    loop.call_at(1.0, lambda: seen.append("a"))
    loop.call_at(1.0, lambda: seen.append("b"))  # tie: insertion order
    loop.call_at(2.0, lambda: seen.append("mid"))
    loop.run()
    assert seen == ["a", "b", "mid", "late"]
    assert loop.now == 3.0


def test_event_loop_clamps_past_deadlines():
    loop = EventLoop()
    seen = []
    def first():
        loop.call_at(0.5, lambda: seen.append(("past", loop.now)))  # before now
    loop.call_at(2.0, first)
    loop.run()
    assert seen == [("past", 2.0)]


def test_event_loop_honours_limit(monkeypatch):
    monkeypatch.setattr(sim, "MAX_VIRTUAL_S", 10.0)
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append(1))
    loop.call_at(100.0, lambda: seen.append(2))
    loop.run()
    assert seen == [1]


def test_event_loop_until_idle():
    loop = EventLoop()
    count = [0]
    def tick():
        count[0] += 1
        loop.call_later(1.0, tick)
    loop.call_at(0.0, tick)
    loop.run(until_idle=lambda: count[0] >= 5)
    assert count[0] == 5


# ---------------------------------------------------------------------------
# channel


def test_channel_config_validation():
    ChannelConfig(loss_prob=1.0)  # dead path is representable
    with pytest.raises(ValueError):
        ChannelConfig(loss_prob=1.5)
    with pytest.raises(ValueError):
        ChannelConfig(loss_prob=-0.1)
    with pytest.raises(ValueError):
        ChannelConfig(latency_ms=-1)
    with pytest.raises(ValueError):
        ChannelConfig(latency_ms=10, jitter_ms=20)


def test_clean_direction_is_byte_transparent():
    loop = EventLoop()
    got = []
    direction = _Direction(loop, random.Random(0), ChannelConfig(), got.append)
    blobs = [bytes([i]) * (i + 1) for i in range(10)]
    for blob in blobs:
        direction.send(blob)
    loop.run()
    assert got == blobs
    assert direction.delivered == 10 and direction.dropped == 0


def test_lossy_direction_drops_and_duplicates():
    loop = EventLoop()
    got = []
    cfg = ChannelConfig(loss_prob=0.3, duplicate_prob=0.2, latency_ms=5,
                        jitter_ms=2, reorder_prob=0.1, seed=11)
    direction = _Direction(loop, random.Random(cfg.seed), cfg, got.append)
    for i in range(500):
        direction.send(b"%d" % i)
    loop.run()
    assert direction.dropped > 100
    assert direction.duplicated > 50
    assert len(got) == direction.delivered
    assert direction.delivered + direction.dropped == 500 + direction.duplicated


def test_dead_direction_delivers_nothing():
    loop = EventLoop()
    got = []
    direction = _Direction(loop, random.Random(0), ChannelConfig(loss_prob=1.0),
                           got.append)
    for _ in range(50):
        direction.send(b"x")
    loop.run()
    assert got == [] and direction.dropped == 50


# ---------------------------------------------------------------------------
# workload generator


def test_generate_session_row_counts():
    cfg = WorkloadConfig(duration_s=3600, seed=1)
    rows = generate_session(cfg)
    assert len(rows["gps"]) == 3600
    assert len(rows["accel"]) == 3600  # one row per second, 5 samples each
    assert all(len(r["samples"]) == 5 for r in rows["accel"])
    scans = {(r["ts"], r["ms"]) for r in rows["wifi"]}
    assert 1200 <= len(scans) <= 1800  # every 2-3 s
    assert len(rows["wifi"]) == len(scans) * 8
    assert len(rows["pressure"]) == 359
    assert 359 <= len(rows["bt"]) <= 718
    assert len(rows["events"]) == 5
    assert "obd" not in rows  # off by default


def test_generate_session_is_deterministic():
    a = generate_session(WorkloadConfig(duration_s=120, seed=9))
    b = generate_session(WorkloadConfig(duration_s=120, seed=9))
    c = generate_session(WorkloadConfig(duration_s=120, seed=10))
    assert a == b
    assert a != c


@pytest.mark.parametrize("cfg, digest", [
    (WorkloadConfig(seed=5),
     "ec505ce0e0265d2e83489b9de0ee56f29269331dd0805e28582c0a7a6ba32e15"),
    (WorkloadConfig(duration_s=600, seed=5, gyro_hz=50, mag_hz=50, obd_hz=12),
     "7023ef43f051f80eaa55d94edc097ac63d61fb80b69e8e5adcd287e4f4b72a59"),
    (WorkloadConfig(duration_s=600, seed=5, wifi_ap_pool=200),
     "772a2c2de140863c67257e7b77448a023428e6bc1580bdfda193002db3dde777"),
], ids=["default-hour", "fast-motion-obd", "wifi-pool-200"])
def test_generate_session_output_is_pinned(cfg, digest):
    # every row of the generator, as canonical JSON: a change to the draws,
    # their order or their rounding moves the digest
    assert hashlib.sha256(codec.canonical_json(generate_session(cfg))).hexdigest() == digest


def test_generate_session_rows_pass_validation():
    rows = generate_session(WorkloadConfig(duration_s=60, seed=3, obd_hz=4))
    validated = codec.validate_streams(rows)
    assert codec.batch_row_count(validated) == codec.batch_row_count(rows)


def test_generated_wifi_includes_hidden_networks():
    rows = generate_session(WorkloadConfig(duration_s=600, seed=2))
    essids = {r["essid"] for r in rows["wifi"]}
    assert "" in essids  # hidden networks broadcast an empty name
    assert len(essids) > 3


def test_workload_validation():
    with pytest.raises(ValueError):
        WorkloadConfig(duration_s=0)
    with pytest.raises(ValueError):
        WorkloadConfig(gps_hz=2)
    with pytest.raises(ValueError):
        WorkloadConfig(accel_hz=201)
    with pytest.raises(ValueError):
        WorkloadConfig(obd_hz=13)
    with pytest.raises(ValueError):
        WorkloadConfig(wifi_scan_min_s=3.0, wifi_scan_max_s=2.0)
    WorkloadConfig(duration_s=10, **MAX_RATE_WORKLOAD)  # the ceiling is valid


# ---------------------------------------------------------------------------
# verification helper


def test_verify_storage_detects_mutation(test_keypair):
    st = storage.open_storage("memory")
    workload = WorkloadConfig(duration_s=30, seed=4)
    run_experiment(workload, ChannelConfig(), keypair=test_keypair, storage=st)
    generated = generate_session(workload)
    verify_storage(st, 1, generated)  # sanity: the honest copy passes
    tampered = {s: [dict(r) for r in rows] for s, rows in generated.items()}
    tampered["pressure"][0]["hpa"] += 0.01
    with pytest.raises(VerificationFailed):
        verify_storage(st, 1, tampered)
    del tampered["pressure"][0]
    with pytest.raises(VerificationFailed):
        verify_storage(st, 1, tampered)


def test_verify_storage_sorts_generated_rows_by_natural_key():
    st = storage.open_storage("memory")
    sid = st.upsert_session("c" * 32, TS, bytes(16))
    rows = [{"ts": TS + 1, "hpa": 2.0}, {"ts": TS, "hpa": 1.0, "idx": 1},
            {"ts": TS, "ms": 3, "idx": 0, "hpa": 0.25}, {"ts": TS, "ms": None, "hpa": 0.5}]
    st.write_rows(sid, {"pressure": rows})
    assert [r["hpa"] for r in stored_rows(st, sid)["pressure"]] == [0.5, 1.0, 0.25, 2.0]
    verify_storage(st, sid, {"pressure": rows})  # rows as generated, out of key order
    swapped = [dict(rows[0], hpa=1.0), dict(rows[1], hpa=2.0), *rows[2:]]
    with pytest.raises(VerificationFailed, match=r"pressure\[1\]"):
        verify_storage(st, sid, {"pressure": swapped})


CHUNK = storage._ROWS_PER_READ  # rows verify_storage reads back at a time
BT = [{"ts": TS, "device_id": "kb", "rssi": -9}]


def _pressure(n, skip=()):
    return [{"ts": TS + i, "hpa": 1000.0 + i} for i in range(n) if i not in skip]


def _stored(streams):
    st = storage.open_storage("memory")
    sid = st.upsert_session("c" * 32, TS, bytes(16))
    st.write_rows(sid, streams)
    return st, sid


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, 2 * CHUNK, 2 * CHUNK + 5])
def test_verify_storage_passes_honest_copies_across_chunks(n):
    rows = _pressure(n)
    st, sid = _stored({"pressure": rows, "bt": BT})
    verify_storage(st, sid, {"bt": BT, "pressure": rows[::-1]})  # out of key order


@pytest.mark.parametrize("i", [CHUNK - 1, CHUNK, CHUNK + 7, 2 * CHUNK + 4])
def test_verify_storage_names_a_changed_field_by_its_index_in_the_stream(i):
    rows = _pressure(2 * CHUNK + 5)
    st, sid = _stored({"pressure": rows})
    tampered = [dict(row) for row in rows]
    tampered[i]["hpa"] += 0.5
    message = (f"pressure[{i}]: stored {rows[i]!r} != generated "
               f"{codec.canonical_json(tampered[i]).decode()}")
    with pytest.raises(VerificationFailed) as failed:
        verify_storage(st, sid, {"pressure": tampered})
    assert str(failed.value) == message


def test_verify_storage_counts_a_row_missing_at_a_chunk_boundary():
    n = 2 * CHUNK + 5
    for missing in (CHUNK - 1, CHUNK):
        st, sid = _stored({"pressure": _pressure(n, skip={missing})})
        with pytest.raises(VerificationFailed,
                           match=rf"^pressure: {n - 1} stored rows, {n} generated$"):
            verify_storage(st, sid, {"pressure": _pressure(n)})
        # a row stored past the end makes the counts equal: the rows from the
        # missing one on are one off, and the first of them is named
        extra = {"ts": TS + n, "hpa": 1000.0 + n}
        st.write_rows(sid, {"pressure": [extra]})
        with pytest.raises(VerificationFailed, match=rf"^pressure\[{missing}\]: stored "):
            verify_storage(st, sid, {"pressure": _pressure(n)})


def test_verify_storage_counts_an_extra_row_at_a_chunk_boundary():
    n = 2 * CHUNK
    extra = {"ts": TS + CHUNK - 1, "ms": 500, "hpa": 0.5}  # between rows CHUNK-1 and CHUNK
    st, sid = _stored({"pressure": [*_pressure(n), extra]})
    with pytest.raises(VerificationFailed,
                       match=rf"^pressure: {n + 1} stored rows, {n} generated$"):
        verify_storage(st, sid, {"pressure": _pressure(n)})
    # with one more row generated the counts are equal and the extra row is named
    with pytest.raises(VerificationFailed, match=rf"^pressure\[{CHUNK}\]: stored "):
        verify_storage(st, sid, {"pressure": _pressure(n + 1)})


@pytest.mark.parametrize("stored, generated, authenticated, message", [
    ({"pressure": _pressure(3), "bt": BT}, {"pressure": _pressure(3)}, True,
     "stream sets differ: ['pressure'] vs ['bt', 'pressure']"),
    ({"pressure": _pressure(3)}, {"pressure": _pressure(3), "bt": BT}, True,
     "stream sets differ: ['bt', 'pressure'] vs ['pressure']"),
    # a session that never authenticated has no session id
    ({"pressure": _pressure(3)}, {"pressure": _pressure(3)}, False,
     "stream sets differ: ['pressure'] vs []"),
], ids=["only-stored", "only-generated", "no-session"])
def test_verify_storage_compares_stream_sets(stored, generated, authenticated, message):
    st, sid = _stored(stored)
    with pytest.raises(VerificationFailed) as failed:
        verify_storage(st, sid if authenticated else None, generated)
    assert str(failed.value) == message


CORRUPT = WorkloadConfig(duration_s=1800, seed=11)


def _next_ulp(st, where, args):
    (lat,), = st._db.execute(f"SELECT lat FROM gps_rows WHERE {where}", args)
    return "lat=?", (math.nextafter(lat, math.inf),)


def _flip_sample_byte(st, where, args):
    (blob,), = st._db.execute(f"SELECT samples FROM motion_rows WHERE {where}", args)
    return "samples=?", (bytes([blob[0] ^ 1]) + blob[1:],)


@pytest.mark.parametrize("stream, i, change", [
    ("gps", CHUNK + 476, _next_ulp),
    ("accel", CHUNK + 76, _flip_sample_byte),
    ("wifi", 2 * CHUNK + 3, lambda st, where, args: (
        "ap_id=(SELECT MIN(ap_id) FROM access_points WHERE ap_id != wifi_rows.ap_id)", ())),
    ("wifi", 17, lambda st, where, args: (
        "ap_id=(SELECT MAX(ap_id) + 1 FROM access_points)", ())),
    ("pressure", 100, lambda st, where, args: ("ms=0", ())),  # absent, stored as -1
    ("events", 1, lambda st, where, args: ("detail=?", ("auto marker 9",))),
], ids=["gps-lat-ulp", "accel-sample-byte", "wifi-other-ap", "wifi-no-ap", "absent-ms-0",
        "event-detail"])
def test_verify_storage_names_a_corrupted_stored_column(stream, i, change):
    generated = generate_session(CORRUPT)
    st, sid = _stored(generated)
    try:
        verify_storage(st, sid, generated)  # the honest copy passes
        spec = codec.STREAM_SPECS[stream]
        where = "session_id=? AND ts=? AND ms=? AND idx=?"
        args = (sid, *codec.natural_key(generated[stream][i]))
        if stream in codec.MOTION_STREAMS:
            where, args = f"{where} AND stream=?", (*args, stream)
        assignment, values = change(st, where, args)
        cur = st._db.execute(f"UPDATE {spec.table} SET {assignment} WHERE {where}",
                             (*values, *args))
        assert cur.rowcount == 1
        with pytest.raises(VerificationFailed, match=rf"^{stream}\[{i}\]: stored "):
            verify_storage(st, sid, generated)
    finally:
        st.close()


def test_verify_storage_memory_does_not_grow_with_the_session():
    # the stored rows are read back a chunk at a time: four hours peak within
    # 1.3x of one, where reading them all at once peaked at about 4x
    peaks = []
    for hours in (1, 4):
        generated = generate_session(WorkloadConfig(duration_s=3600 * hours, seed=3))
        st, sid = _stored(generated)
        tracemalloc.start()
        try:
            verify_storage(st, sid, generated)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
            st.close()
    assert peaks[1] <= 1.3 * peaks[0], peaks


# ---------------------------------------------------------------------------
# end-to-end experiments


def test_perfect_channel_delivers_everything(test_keypair):
    report = run_experiment(WorkloadConfig(duration_s=60, seed=5),
                            ChannelConfig(), keypair=test_keypair)
    assert report.verified
    assert report.delivery_ratio == 1.0
    assert report.rows_failed == 0
    assert report.retransmissions == 0
    assert report.auth_sent == 1 and report.auth_responses == 1
    assert report.compression_ratio < 0.5
    assert report.rows_stored == report.rows_generated


def test_realtime_mode_flushes_periodically(test_keypair):
    report = run_experiment(WorkloadConfig(duration_s=90, seed=5),
                            ChannelConfig(latency_ms=30, jitter_ms=5, seed=2),
                            keypair=test_keypair, mode="realtime",
                            flush_period_s=5.0)
    assert report.verified
    assert report.delivery_ratio == 1.0
    assert report.virtual_time_s >= 85.0  # rows only exist near their timestamps


def test_lossy_channel_run_is_deterministic(test_keypair):
    workload = WorkloadConfig(duration_s=120, seed=6)
    channel = ChannelConfig(loss_prob=0.25, latency_ms=80, jitter_ms=20, seed=3)

    def run():
        rep = run_experiment(workload, channel, keypair=test_keypair,
                             mode="realtime")
        d = rep.to_dict()
        d.pop("wall_time_s")
        return d

    first, second = run(), run()
    assert first == second
    assert first["retransmissions"] > 0
    assert first["packets_lost"] > 0
    assert first["delivery_ratio"] == 1.0
    assert first["duplicate_rows"] == 0
    assert first["verified"]


def test_benchmark_hour_counters_are_pinned(test_keypair):
    # perfbench's sim-hour at seed 5: a change to the codec, the client or
    # the simulator that moves one packet, retry or row shows up here. Only
    # counters that do not depend on zlib's output are compared.
    report = run_experiment(
        WorkloadConfig(seed=5),
        ChannelConfig(loss_prob=0.2, latency_ms=100.0, jitter_ms=20.0, seed=5),
        keypair=test_keypair, mode="realtime", restart_at=(5, 20, 40, 60, 80))
    counters = ("packets_sent", "retransmissions", "packets_lost", "feedback_received",
                "auth_sent", "auth_responses", "json_bytes", "rows_stored", "rows_failed",
                "restarts", "stored_bytes", "packets_duplicated", "duplicate_rows",
                "delivery_ratio")
    assert {name: getattr(report, name) for name in counters} == {
        "packets_sent": 1113, "retransmissions": 393, "packets_lost": 397,
        "feedback_received": 720, "auth_sent": 16, "auth_responses": 12,
        "json_bytes": 1961176, "rows_stored": 19626, "rows_failed": 0,
        "restarts": 5, "stored_bytes": 514955, "packets_duplicated": 0,
        "duplicate_rows": 0, "delivery_ratio": 1.0}
    assert report.verified


def test_runs_sharing_a_storage_report_their_own_session(test_keypair):
    # two sessions (two start times) on one storage, and each on fresh storage
    workloads = [WorkloadConfig(duration_s=30, seed=4, start_ts=TS + 3600 * n)
                 for n in range(2)]
    channel = ChannelConfig(latency_ms=20, seed=2)

    def run(workload, store):
        d = run_experiment(workload, channel, keypair=test_keypair, storage=store).to_dict()
        d.pop("wall_time_s")
        return d

    fresh = [run(workload, None) for workload in workloads]
    shared = storage.open_storage("memory")
    try:
        assert [run(workload, shared) for workload in workloads] == fresh
        assert shared.storage_stats()["total_rows"] == sum(d["rows_stored"] for d in fresh)
    finally:
        shared.close()
    assert all(d["verified"] and d["duplicate_rows"] == 0 for d in fresh)


def test_duplicating_channel_stores_no_duplicates(test_keypair):
    report = run_experiment(
        WorkloadConfig(duration_s=60, seed=8),
        ChannelConfig(duplicate_prob=0.5, latency_ms=20, seed=4),
        keypair=test_keypair)
    assert report.packets_duplicated > 0
    assert report.duplicate_rows == 0
    assert report.verified


def test_restarts_are_transparent(test_keypair):
    report = run_experiment(
        WorkloadConfig(duration_s=90, seed=7),
        ChannelConfig(latency_ms=40, jitter_ms=10, seed=5),
        keypair=test_keypair, mode="realtime", restart_at=(2, 5, 9))
    assert report.restarts == 3
    assert report.verified
    assert report.delivery_ratio == 1.0


def test_dead_data_path_reports_total_failure(test_keypair, monkeypatch):
    monkeypatch.setattr(client, "MAX_RETRIES", 3)
    report = run_experiment(
        WorkloadConfig(duration_s=20, seed=9),
        ChannelConfig(seed=6),                       # clean handshake path
        data_channel=ChannelConfig(loss_prob=1.0, seed=6),
        keypair=test_keypair, verify=False)
    assert report.auth_responses >= 1   # the handshake itself succeeded
    assert report.rows_stored == 0
    assert report.rows_failed == report.rows_generated
    assert report.delivery_ratio == 0.0
    assert report.retransmissions >= 3


def test_dead_data_path_fails_verification(test_keypair, monkeypatch):
    monkeypatch.setattr(client, "MAX_RETRIES", 2)
    with pytest.raises(VerificationFailed):
        run_experiment(WorkloadConfig(duration_s=10, seed=9),
                       ChannelConfig(seed=6),
                       data_channel=ChannelConfig(loss_prob=1.0, seed=6),
                       keypair=test_keypair)


def test_experiment_against_sqlite_storage(test_keypair, tmp_path):
    report = run_experiment(WorkloadConfig(duration_s=30, seed=10),
                            ChannelConfig(), keypair=test_keypair,
                            storage=str(tmp_path / "x.db"))
    assert report.verified
    st = storage.SqliteStorage(str(tmp_path / "x.db"))
    try:
        assert st.storage_stats()["total_rows"] == report.rows_stored
    finally:
        st.close()


@pytest.mark.parametrize("selector", [None, "memory", "sqlite"])
def test_experiment_closes_the_storage_it_opens(test_keypair, tmp_path, monkeypatch,
                                                selector):
    opened = []

    def spy(sel):
        opened.append(storage.open_storage(sel))
        return opened[-1]

    monkeypatch.setattr(sim, "open_storage", spy)
    if selector == "sqlite":
        selector = f"sqlite:{tmp_path / 'x.db'}"
    report = run_experiment(WorkloadConfig(duration_s=10, seed=12), ChannelConfig(),
                            keypair=test_keypair, storage=selector)
    assert report.verified and len(opened) == 1
    with pytest.raises(sqlite3.ProgrammingError):  # closed
        opened[0].storage_stats()


def test_experiment_leaves_a_callers_storage_open(test_keypair):
    st = storage.SqliteStorage(":memory:")
    report = run_experiment(WorkloadConfig(duration_s=10, seed=12), ChannelConfig(),
                            keypair=test_keypair, storage=st)
    try:
        assert st.storage_stats()["total_rows"] == report.rows_stored > 0
    finally:
        st.close()


def test_flush_chunks_partition_input():
    generated = generate_session(WorkloadConfig(duration_s=37, seed=11))
    chunks = list(flush_chunks(generated, TS, 5.0))
    assert all(offset % 5.0 == 0 for offset, _ in chunks)
    assert [offset for offset, _ in chunks] == sorted(offset for offset, _ in chunks)
    merged: dict[str, list[dict]] = {}
    for offset, chunk in chunks:
        for stream, rows in chunk.items():
            assert all(row["ts"] - TS < offset for row in rows)
            merged.setdefault(stream, []).extend(rows)
    for stream, rows in generated.items():
        assert sorted(map(codec.canonical_json, merged[stream])) == \
            sorted(map(codec.canonical_json, rows))


def test_pipelining_benchmark_speedup(test_keypair):
    reports = pipelining_benchmark(rtt_ms=20.0, packets=40, windows=(1, 4),
                                   keypair=test_keypair)
    assert set(reports) == {1, 4}
    assert all(r.delivery_ratio == 1.0 for r in reports.values())
    assert reports[1].packets_sent >= 40
    # 4 packets per round trip instead of 1: close to 4x in virtual time
    assert reports[4].throughput_rows_s > 2.5 * reports[1].throughput_rows_s


# ---------------------------------------------------------------------------
# config files


def test_parse_experiment_config_full():
    text = """
    # one hour, flaky link
    duration_s = 3600
    seed = 42          # workload seed
    channel_seed = 7
    loss_prob = 0.2
    latency_ms = 100
    jitter_ms = 20
    mode = realtime
    window = 8
    restart_at = 3,9,27
    verify = true
    storage = memory
    flush_period_s = 2.5
    """
    kwargs = parse_experiment_config(text)
    assert kwargs["workload"].duration_s == 3600
    assert kwargs["workload"].seed == 42
    assert kwargs["channel"].seed == 7
    assert kwargs["channel"].loss_prob == 0.2
    assert kwargs["channel"].latency_ms == 100.0
    assert kwargs["mode"] == "realtime"
    assert kwargs["window"] == 8
    assert kwargs["restart_at"] == (3, 9, 27)
    assert kwargs["verify"] is True
    assert kwargs["storage"] == "memory"
    assert kwargs["flush_period_s"] == 2.5


def test_parse_experiment_config_defaults_and_errors():
    kwargs = parse_experiment_config("")
    assert kwargs["workload"] == WorkloadConfig()
    assert kwargs["channel"] == ChannelConfig()
    with pytest.raises(ValueError):
        parse_experiment_config("unknown_key = 3")
    with pytest.raises(ValueError):
        parse_experiment_config("just some words")
    with pytest.raises(ValueError):
        parse_experiment_config("loss_prob = high")


def test_parse_experiment_config_types_each_key_as_its_default():
    """A float field takes "2" as 2.0 and an int field refuses "2.5"."""
    for name, config in (("workload", WorkloadConfig()), ("channel", ChannelConfig())):
        for field, default in vars(config).items():
            key = "channel_seed" if (name, field) == ("channel", "seed") else field
            line = f"{key} = {int(default)}"
            value = getattr(parse_experiment_config(line)[name], field)
            assert type(value) is type(default) and value == default
            if type(default) is int:
                with pytest.raises(ValueError):
                    parse_experiment_config(line + ".5")


def test_config_roundtrip_into_experiment(test_keypair):
    kwargs = parse_experiment_config("duration_s = 15\nlatency_ms = 10")
    report = run_experiment(kwargs.pop("workload"), kwargs.pop("channel"),
                            keypair=test_keypair, **kwargs)
    assert report.verified


def test_report_serialization(test_keypair):
    report = run_experiment(WorkloadConfig(duration_s=10), ChannelConfig(),
                            keypair=test_keypair)
    d = report.to_dict()
    assert list(d) == [f.name for f in fields(ExperimentReport)]
    assert d["rows_generated"] == d["rows_stored"] == report.rows_generated > 0
    lines = report.summary_lines()
    assert any(line.startswith("rows_generated") for line in lines)
    assert len(lines) == len(d)
