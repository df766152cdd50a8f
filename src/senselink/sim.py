"""Deterministic desk-scale simulation harness.

Runs the real client engine against the real ingest core over an in-process
lossy channel on a virtual clock: no sockets, no threads, no sleeping. With
a fixed seed, every packet fate (loss, delay, reorder, duplication) and
every report counter is reproducible. Ciphertext bytes still differ between
runs (fresh IVs), but lengths and therefore all counters do not.

The harness also injects server restarts: the ingest core is discarded and
rebuilt around the same storage at chosen data-packet arrival ordinals,
which is exactly the statelessness claim under test.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
import time
from dataclasses import dataclass, asdict

from . import codec, crypto
from .client import AUTH, DATA, DEFAULT_WINDOW, ClientSession
from .server import IngestCore
from .storage import open_storage

DEFAULT_EMAIL = "unit@example.org"
MAX_VIRTUAL_S = 36_000.0  # hard stop for runaway retransmission loops


class SimError(Exception):
    pass


class VerificationFailed(SimError):
    pass


# ---------------------------------------------------------------------------
# virtual clock


class EventLoop:
    def __init__(self):
        self.now = 0.0
        self._heap: list = []
        self._tiebreak = itertools.count()

    def call_at(self, when: float, fn):
        heapq.heappush(self._heap, (max(when, self.now), next(self._tiebreak), fn))

    def call_later(self, delay: float, fn):
        self.call_at(self.now + delay, fn)

    def run(self, *, until_idle=None, limit_s: float = MAX_VIRTUAL_S):
        """Dispatch events in time order until the heap empties, the limit
        is hit, or ``until_idle()`` turns true."""
        while self._heap:
            if until_idle is not None and until_idle():
                return
            when, _, fn = heapq.heappop(self._heap)
            if when > limit_s:
                return
            self.now = when
            fn()


# ---------------------------------------------------------------------------
# lossy channel


@dataclass(frozen=True)
class ChannelConfig:
    loss_prob: float = 0.0
    latency_ms: float = 0.0
    jitter_ms: float = 0.0
    reorder_prob: float = 0.0
    duplicate_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("loss_prob", "reorder_prob", "duplicate_prob"):
            value = getattr(self, name)
            # 1.0 is allowed so a totally dead path can be simulated
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.latency_ms < 0 or self.jitter_ms < 0:
            raise ValueError("latency and jitter must be non-negative")
        if self.jitter_ms > self.latency_ms:
            raise ValueError("jitter cannot exceed base latency")


class _Direction:
    """One direction of the channel; owns its loss/delay decisions."""

    def __init__(self, loop: EventLoop, rng: random.Random, cfg: ChannelConfig, deliver):
        self._loop = loop
        self._rng = rng
        self._cfg = cfg
        self._deliver = deliver
        self.sent = 0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        self.bytes_sent = 0

    def send(self, blob: bytes):
        self.sent += 1
        self.bytes_sent += len(blob)
        copies = 1
        if self._rng.random() < self._cfg.duplicate_prob:
            copies = 2
            self.duplicated += 1
        for _ in range(copies):
            if self._rng.random() < self._cfg.loss_prob:
                self.dropped += 1
                continue
            delay_ms = self._cfg.latency_ms
            if self._cfg.jitter_ms:
                delay_ms += self._rng.uniform(-self._cfg.jitter_ms, self._cfg.jitter_ms)
            if self._rng.random() < self._cfg.reorder_prob:
                delay_ms += (self._cfg.latency_ms + 10.0) * self._rng.uniform(0.5, 2.0)
            self._loop.call_later(max(delay_ms, 0.0) / 1000.0, self._delivery(blob))

    def _delivery(self, blob: bytes):
        def deliver():
            self.delivered += 1
            self._deliver(blob)
        return deliver


# ---------------------------------------------------------------------------
# synthetic workload


@dataclass(frozen=True)
class WorkloadConfig:
    duration_s: int = 3600
    seed: int = 1
    start_ts: int = 1_400_000_000
    gps_hz: int = 1  # 0 or 1
    accel_hz: int = 5
    gyro_hz: int = 0
    mag_hz: int = 0
    wifi_scan_min_s: float = 2.0
    wifi_scan_max_s: float = 3.0
    wifi_ap_pool: int = 40
    wifi_aps_per_scan: int = 8
    bt_scan_period_s: float = 10.0
    bt_pool: int = 12
    bt_per_scan: int = 2
    pressure_period_s: float = 10.0
    obd_hz: int = 0
    event_period_s: float = 600.0

    def __post_init__(self):
        if self.duration_s < 1:
            raise ValueError("duration must be at least 1 s")
        if self.gps_hz not in (0, 1):
            raise ValueError("gps runs at 0 or 1 Hz")
        for name in ("accel_hz", "gyro_hz", "mag_hz"):
            if not 0 <= getattr(self, name) <= 200:
                raise ValueError(f"{name} must be within 0..200")
        if not 0 <= self.obd_hz <= 12:
            raise ValueError("obd_hz must be within 0..12")
        if self.wifi_scan_min_s > self.wifi_scan_max_s:
            raise ValueError("wifi scan interval bounds are inverted")


MAX_RATE_WORKLOAD = dict(accel_hz=200, gyro_hz=200, mag_hz=200, obd_hz=12,
                         wifi_scan_min_s=2.0, wifi_scan_max_s=2.0)


def _motion_rows(rng: random.Random, cfg: WorkloadConfig, hz: int, phase: float) -> list[dict]:
    rows = []
    rate = float(hz)
    for t in range(cfg.duration_s):
        samples = []
        for i in range(hz):
            angle = 2.0 * math.pi * 0.2 * (t + i / hz) + phase
            base = int(2048 * math.sin(angle))
            samples.append([
                max(-32768, min(32767, base + rng.randrange(-64, 65))),
                max(-32768, min(32767, -base // 2 + rng.randrange(-64, 65))),
                max(-32768, min(32767, 1000 + rng.randrange(-64, 65))),
            ])
        rows.append({"ts": cfg.start_ts + t, "samples": samples, "rate": rate})
    return rows


def generate_session(cfg: WorkloadConfig) -> dict[str, list[dict]]:
    """All rows of one synthetic recording session, per stream, time-ordered.

    Values follow smooth seeded trajectories so their serialized form
    compresses the way real sensor traces do.
    """
    rng = random.Random(cfg.seed)
    streams: dict[str, list[dict]] = {}

    if cfg.gps_hz:
        lat, lon, alt = 41.15, -8.61, 90.0
        rows = []
        for t in range(cfg.duration_s):
            lat = round(lat + rng.uniform(-1, 1) * 1e-4, 6)
            lon = round(lon + rng.uniform(-1, 1) * 1e-4, 6)
            alt = round(alt + rng.uniform(-0.5, 0.5), 1)
            rows.append({
                "ts": cfg.start_ts + t, "ms": rng.randrange(1000),
                "lat": lat, "lon": lon, "alt": alt,
                "speed": round(abs(10.0 + rng.uniform(-3, 3)), 1),
                "accuracy": float(rng.choice((3, 4, 5, 8, 10, 15))),
                "device_ts": cfg.start_ts + t,
            })
        streams["gps"] = rows

    for name, hz, phase in (("accel", cfg.accel_hz, 0.0),
                            ("gyro", cfg.gyro_hz, 1.0),
                            ("mag", cfg.mag_hz, 2.0)):
        if hz:
            streams[name] = _motion_rows(rng, cfg, hz, phase)

    if cfg.wifi_ap_pool and cfg.wifi_aps_per_scan:
        # fixed pool with Zipf-like popularity: a handful of networks
        # dominate the scans, the tail shows up rarely
        pool = [(f"02:00:00:00:{i >> 8:02x}:{i & 0xff:02x}",
                 "" if i % 9 == 8 else f"net-{i}") for i in range(cfg.wifi_ap_pool)]
        weights = [1.0 / (rank + 1) ** 1.2 for rank in range(cfg.wifi_ap_pool)]
        rows = []
        t = rng.uniform(cfg.wifi_scan_min_s, cfg.wifi_scan_max_s)
        while t < cfg.duration_s:
            ts = cfg.start_ts + int(t)
            ms = rng.randrange(1000)
            seen: set[int] = set()
            for idx in range(cfg.wifi_aps_per_scan):
                choice = rng.choices(range(cfg.wifi_ap_pool), weights)[0]
                while choice in seen:
                    choice = (choice + 1) % cfg.wifi_ap_pool
                seen.add(choice)
                mac, essid = pool[choice]
                rows.append({"ts": ts, "ms": ms, "idx": idx, "mac": mac,
                             "essid": essid, "rssi": -35 - rng.randrange(56)})
            t += rng.uniform(cfg.wifi_scan_min_s, cfg.wifi_scan_max_s)
        streams["wifi"] = rows

    if cfg.bt_pool and cfg.bt_per_scan:
        rows = []
        t = cfg.bt_scan_period_s
        while t < cfg.duration_s:
            ts = cfg.start_ts + int(t)
            ms = rng.randrange(1000)
            for idx in range(rng.randint(1, cfg.bt_per_scan)):
                rows.append({"ts": ts, "ms": ms, "idx": idx,
                             "device_id": f"bt:{rng.randrange(cfg.bt_pool):02x}",
                             "rssi": -40 - rng.randrange(40)})
            t += cfg.bt_scan_period_s
        streams["bt"] = rows

    if cfg.pressure_period_s:
        rows = []
        t = cfg.pressure_period_s
        while t < cfg.duration_s:
            hpa = round(1013.0 + 2.0 * math.sin(t / 900.0) + rng.uniform(-0.05, 0.05), 2)
            rows.append({"ts": cfg.start_ts + int(t), "hpa": hpa})
            t += cfg.pressure_period_s
        streams["pressure"] = rows

    if cfg.obd_hz:
        rows = []
        rpm, speed = 1500.0, 40.0
        for t in range(cfg.duration_s):
            for i in range(cfg.obd_hz):
                ms = i * 1000 // cfg.obd_hz
                if i % 2 == 0:
                    rpm = round(max(700.0, rpm + rng.uniform(-40, 40)), 1)
                    rows.append({"ts": cfg.start_ts + t, "ms": ms, "pid": 12, "value": rpm})
                else:
                    speed = round(max(0.0, speed + rng.uniform(-1, 1)), 1)
                    rows.append({"ts": cfg.start_ts + t, "ms": ms, "pid": 13, "value": speed})
        streams["obd"] = rows

    if cfg.event_period_s:
        rows = []
        n = 0
        t = cfg.event_period_s
        while t < cfg.duration_s:
            n += 1
            rows.append({"ts": cfg.start_ts + int(t), "ms": rng.randrange(1000),
                         "kind": "marker", "detail": f"auto marker {n}"})
            t += cfg.event_period_s
        streams["events"] = rows

    return {name: rows for name, rows in streams.items() if rows}


def normalized_rows(streams: dict[str, list[dict]]) -> dict[str, list[dict]]:
    """Rows as they look after codec validation and storage read-back,
    sorted by natural key; the comparison form for verification."""
    out = {}
    for stream, rows in streams.items():
        shaped = [codec.validate_row(stream, row) for row in rows]
        shaped.sort(key=codec.natural_key)
        out[stream] = shaped
    return out


def verify_storage(storage, session_id: int, generated: dict[str, list[dict]]):
    """Byte-field equality between generated rows and stored rows."""
    expected = normalized_rows(generated)
    actual = storage.read_session_rows(session_id)
    for rows in actual.values():
        for row in rows:
            row.pop("ap_id", None)  # surrogate id, not a client-visible field
    if sorted(expected) != sorted(actual):
        raise VerificationFailed(
            f"stream sets differ: {sorted(expected)} vs {sorted(actual)}")
    for stream in expected:
        want, got = expected[stream], actual[stream]
        if len(want) != len(got):
            raise VerificationFailed(
                f"{stream}: {len(got)} stored rows, {len(want)} generated")
        for i, (w, g) in enumerate(zip(want, got)):
            if codec.canonical_json(w) != codec.canonical_json(g):
                raise VerificationFailed(f"{stream}[{i}]: stored {g!r} != generated {w!r}")


# ---------------------------------------------------------------------------
# experiment runner


@dataclass
class ExperimentReport:
    rows_generated: int = 0
    rows_stored: int = 0
    rows_failed: int = 0
    duplicate_rows: int = 0
    retransmissions: int = 0
    packets_sent: int = 0
    packets_lost: int = 0
    packets_duplicated: int = 0
    feedback_received: int = 0
    auth_sent: int = 0
    auth_responses: int = 0
    json_bytes: int = 0
    wire_bytes: int = 0        # unique data packets, client to server
    wire_bytes_total: int = 0  # everything the client transmitted
    stored_bytes: int = 0
    storage_rate_bps: float = 0.0
    compression_ratio: float = 0.0
    delivery_ratio: float = 0.0
    throughput_rows_s: float = 0.0
    virtual_time_s: float = 0.0
    wall_time_s: float = 0.0
    restarts: int = 0
    window: int = 0
    verified: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def summary_lines(self) -> list[str]:
        d = self.to_dict()
        width = max(len(k) for k in d)
        return [f"{k.ljust(width)}  {v}" for k, v in d.items()]


class _ServerBox:
    """Replaceable ingest core around durable storage: a restart throws the
    core (and its cache) away, the storage object survives."""

    def __init__(self, private_key, storage):
        self._private = private_key
        self.storage = storage
        self.restarts = 0
        self.core = IngestCore(private_key, storage)

    def restart(self):
        self.core = IngestCore(self._private, self.storage)
        self.restarts += 1


def run_experiment(workload: WorkloadConfig, channel: ChannelConfig, *,
                   data_channel: ChannelConfig | None = None,
                   keypair=None, storage=None, mode: str = "batch",
                   flush_period_s: float = 5.0, window: int = DEFAULT_WINDOW,
                   restart_at: tuple[int, ...] = (), verify: bool = True,
                   user_email: str = DEFAULT_EMAIL,
                   client_options: dict | None = None) -> ExperimentReport:
    """Upload one synthetic session end to end and measure it.

    mode "batch" enqueues the whole recording up front (on-demand sync);
    "realtime" feeds rows to the engine every flush_period_s of virtual
    time, the way a live recorder does.  data_channel, when given, applies
    to the data-port directions only (channel then covers the handshake).
    storage is a storage object, left open, or an ``open_storage`` selector
    (None is "memory"), whose storage is closed before returning.
    """
    if mode not in ("batch", "realtime"):
        raise ValueError("mode must be 'batch' or 'realtime'")
    started = time.monotonic()
    if keypair is None:
        keypair = crypto.generate_server_keypair()
    owned = storage is None or isinstance(storage, str)
    if owned:
        storage = open_storage(storage or "memory")
    try:
        generated = generate_session(workload)
        rows_generated = codec.batch_row_count(generated)

        loop = EventLoop()
        rng = random.Random(channel.seed)
        box = _ServerBox(keypair.private_part, storage)
        session = ClientSession(crypto.hash_user(user_email), workload.start_ts,
                                keypair.public_part, window=window,
                                **(client_options or {}))

        restart_set = set(restart_at)
        arrivals = itertools.count(1)

        def on_auth_arrival(blob: bytes):
            resp = box.core.handle_auth_packet(blob)
            if resp is not None:
                s2c_auth.send(resp)

        def on_data_arrival(blob: bytes):
            if next(arrivals) in restart_set:
                box.restart()
            resp = box.core.handle_data_packet(blob)
            if resp is not None:
                s2c_data.send(resp)

        def on_client_receive(kind: str):
            def receive(blob: bytes):
                session.handle_wire(kind, blob, loop.now)
                pump()
            return receive

        data_cfg = data_channel if data_channel is not None else channel
        c2s_auth = _Direction(loop, rng, channel, on_auth_arrival)
        c2s_data = _Direction(loop, rng, data_cfg, on_data_arrival)
        s2c_auth = _Direction(loop, rng, channel, on_client_receive(AUTH))
        s2c_data = _Direction(loop, rng, data_cfg, on_client_receive(DATA))

        timer_armed = [math.inf]

        def pump():
            for kind, blob in session.pump(loop.now):
                (c2s_auth if kind == AUTH else c2s_data).send(blob)
            wake = session.next_wakeup()
            if wake is not None and wake < timer_armed[0] - 1e-9:
                timer_armed[0] = wake
                loop.call_at(wake, on_timer)

        def on_timer():
            timer_armed[0] = math.inf
            pump()

        pending_enqueues = [0]

        def enqueue(chunk: dict[str, list[dict]]):
            def fire():
                pending_enqueues[0] -= 1
                session.enqueue_rows(chunk)
                pump()
            pending_enqueues[0] += 1
            return fire

        if mode == "batch":
            if rows_generated:
                loop.call_at(0.0, enqueue(generated))
        else:
            for offset, chunk in flush_chunks(generated, workload.start_ts, flush_period_s):
                loop.call_at(offset, enqueue(chunk))

        for kind, blob in session.begin(now=0.0):
            (c2s_auth if kind == AUTH else c2s_data).send(blob)
        pump()

        loop.run(until_idle=lambda: pending_enqueues[0] == 0 and session.is_done())
        report_in = session.report()

        stats = storage.storage_stats()
        stored_rows = stats["total_rows"]
        report = ExperimentReport(
            rows_generated=rows_generated,
            rows_stored=stored_rows,
            rows_failed=report_in.failed_rows + report_in.pending_rows,
            duplicate_rows=0,
            retransmissions=report_in.retransmissions,
            packets_sent=report_in.packets_sent,
            packets_lost=(c2s_auth.dropped + c2s_data.dropped
                          + s2c_auth.dropped + s2c_data.dropped),
            packets_duplicated=(c2s_auth.duplicated + c2s_data.duplicated
                                + s2c_auth.duplicated + s2c_data.duplicated),
            feedback_received=report_in.feedback_received,
            auth_sent=report_in.auth_sent,
            auth_responses=report_in.auth_responses,
            json_bytes=report_in.json_bytes,
            wire_bytes=report_in.wire_bytes,
            wire_bytes_total=report_in.wire_bytes_total,
            stored_bytes=stats["total_logical_bytes"],
            storage_rate_bps=stats["total_logical_bytes"] / workload.duration_s,
            compression_ratio=(report_in.wire_bytes / report_in.json_bytes
                               if report_in.json_bytes else 0.0),
            delivery_ratio=(report_in.delivered_rows / rows_generated
                            if rows_generated else 1.0),
            throughput_rows_s=(report_in.delivered_rows / loop.now if loop.now else 0.0),
            virtual_time_s=loop.now,
            restarts=box.restarts,
            window=window,
        )
        if verify:
            verify_storage(storage, session.session_id, generated)
            expected_rows = rows_generated
            if stored_rows != expected_rows:
                raise VerificationFailed(
                    f"{stored_rows} rows stored, {expected_rows} generated")
            report.verified = True
        report.duplicate_rows = max(0, stored_rows - rows_generated)
        report.wall_time_s = round(time.monotonic() - started, 3)
        return report
    finally:
        if owned:
            storage.close()


def flush_chunks(generated: dict[str, list[dict]], start_ts: int,
                  flush_period_s: float):
    """Group rows into (virtual flush time, streams) chunks by timestamp."""
    chunks: dict[int, dict[str, list[dict]]] = {}
    for stream, rows in generated.items():
        for row in rows:
            bucket = int((row["ts"] - start_ts) // flush_period_s)
            chunks.setdefault(bucket, {}).setdefault(stream, []).append(row)
    for bucket in sorted(chunks):
        yield (bucket + 1) * flush_period_s, chunks[bucket]


def pipelining_benchmark(*, rtt_ms: float = 50.0, packets: int = 250,
                         windows: tuple[int, ...] = (1, 16),
                         keypair=None) -> dict[int, ExperimentReport]:
    """Same tiny-packet upload at several window sizes over a clean link
    with the given round-trip time; the throughput ratio shows what
    pipelining buys on high-latency connections."""
    if keypair is None:
        keypair = crypto.generate_server_keypair()
    workload = WorkloadConfig(
        duration_s=packets + 1, seed=7, gps_hz=0, accel_hz=0,
        wifi_ap_pool=0, bt_pool=0, pressure_period_s=1.0, event_period_s=0.0)
    channel = ChannelConfig(latency_ms=rtt_ms / 2.0, seed=7)
    out = {}
    for window in windows:
        out[window] = run_experiment(
            workload, channel, keypair=keypair, window=window,
            client_options={"pack_json_budget": 1})
    return out


# ---------------------------------------------------------------------------
# experiment config files (key=value, # comments)

_WORKLOAD_KEYS = {f.name for f in WorkloadConfig.__dataclass_fields__.values()}
_CHANNEL_KEYS = {f.name for f in ChannelConfig.__dataclass_fields__.values()}

_FLOAT_FIELDS = {"wifi_scan_min_s", "wifi_scan_max_s", "bt_scan_period_s",
                 "pressure_period_s", "event_period_s", "loss_prob",
                 "latency_ms", "jitter_ms", "reorder_prob", "duplicate_prob",
                 "flush_period_s"}


def parse_experiment_config(text: str) -> dict:
    """Flat key=value lines into kwargs for :func:`run_experiment`."""
    workload: dict = {}
    channel: dict = {}
    run: dict = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "channel_seed":  # "seed" alone names the workload seed
            channel["seed"] = int(value)
        elif key in _WORKLOAD_KEYS:
            workload[key] = float(value) if key in _FLOAT_FIELDS else int(value)
        elif key in _CHANNEL_KEYS:
            channel[key] = float(value) if key in _FLOAT_FIELDS else int(value)
        elif key == "restart_at":
            run[key] = tuple(int(v) for v in value.split(",") if v)
        elif key == "verify":
            run[key] = value.lower() in ("1", "true", "yes")
        elif key == "mode" or key == "storage":
            run[key] = value
        elif key == "window":
            run[key] = int(value)
        elif key == "flush_period_s":
            run[key] = float(value)
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    return {"workload": WorkloadConfig(**workload),
            "channel": ChannelConfig(**channel), **run}
