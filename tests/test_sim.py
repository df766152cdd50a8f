import random
import sqlite3

import pytest

from senselink import codec, sim, storage
from senselink.sim import (ChannelConfig, EventLoop, ExperimentReport, SimError,
                           VerificationFailed, WorkloadConfig, MAX_RATE_WORKLOAD,
                           _Direction, flush_chunks, generate_session,
                           normalized_rows, parse_experiment_config,
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


def test_event_loop_honours_limit():
    loop = EventLoop()
    seen = []
    loop.call_at(1.0, lambda: seen.append(1))
    loop.call_at(100.0, lambda: seen.append(2))
    loop.run(limit_s=10.0)
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


def test_generate_session_rows_pass_validation():
    rows = generate_session(WorkloadConfig(duration_s=60, seed=3, obd_hz=4))
    validated, unknown = codec.validate_streams(rows)
    assert unknown == 0
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
    st = storage.MemoryStorage()
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


def test_normalized_rows_sorts_by_natural_key():
    rows = {"pressure": [{"ts": TS + 1, "hpa": 2.0},
                         {"ts": TS, "hpa": 1.0, "idx": 1},
                         {"ts": TS, "hpa": 0.5}]}
    out = normalized_rows(rows)["pressure"]
    assert [r.get("idx", 0) for r in out] == [0, 1, 0]
    assert [r["ts"] for r in out] == [TS, TS, TS + 1]


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


def test_dead_data_path_reports_total_failure(test_keypair):
    report = run_experiment(
        WorkloadConfig(duration_s=20, seed=9),
        ChannelConfig(seed=6),                       # clean handshake path
        data_channel=ChannelConfig(loss_prob=1.0, seed=6),
        keypair=test_keypair, verify=False,
        client_options={"max_retries": 3})
    assert report.auth_responses >= 1   # the handshake itself succeeded
    assert report.rows_stored == 0
    assert report.rows_failed == report.rows_generated
    assert report.delivery_ratio == 0.0
    assert report.retransmissions >= 3


def test_dead_data_path_fails_verification(test_keypair):
    with pytest.raises(VerificationFailed):
        run_experiment(WorkloadConfig(duration_s=10, seed=9),
                       ChannelConfig(seed=6),
                       data_channel=ChannelConfig(loss_prob=1.0, seed=6),
                       keypair=test_keypair,
                       client_options={"max_retries": 2})


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
        assert sorted(map(codec.serialize_payload, merged[stream]), key=bytes) == \
            sorted(map(codec.serialize_payload, rows), key=bytes)


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


def test_config_roundtrip_into_experiment(test_keypair):
    kwargs = parse_experiment_config("duration_s = 15\nlatency_ms = 10")
    report = run_experiment(kwargs.pop("workload"), kwargs.pop("channel"),
                            keypair=test_keypair, **kwargs)
    assert report.verified


def test_report_serialization():
    report = ExperimentReport(rows_generated=10, rows_stored=10)
    d = report.to_dict()
    assert d["rows_generated"] == 10
    lines = report.summary_lines()
    assert any(line.startswith("rows_generated") for line in lines)
    assert len(lines) == len(d)
