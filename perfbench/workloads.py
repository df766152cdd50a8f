"""bulk-tcp, the workload that drives a real daemon over loopback.

Closed loop: devices one after another sync a one-hour recording in batch
mode with the real ClientSession (default options) and run_until_drained
over one TcpTransport.

Every run sets up SETUPS times (a fresh daemon each time) and reports the
median set-up time; the last set-up is the one measured. The load
generator is one thread.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass

from senselink import client, codec, crypto, sim, storage

from common import (HOST, Daemon, Metric, Run, SpeedProbe, Workdir, check_accounting,
                    failure_metrics, latency_metrics, load_public_key, median, quantile,
                    speed_scale)
from tracing import SpanSet

clock = time.monotonic

SETUPS = 3
QUIESCE_TIMEOUT_S = 10.0
BULK_HOURS = 4            # distinct one-hour recordings; devices cycle over them
BASE_TS = 1_400_000_000


# ---------------------------------------------------------------------------
# shared run skeleton


class Harness:
    """Set up SETUPS times (once when traced), keep the last daemon. Each
    set-up is timed between two speed probes (see common.SpeedProbe)."""

    def __init__(self, run: Run, label: str):
        self.run = run
        self.label = label
        self.pub = load_public_key()
        self.probe = SpeedProbe()
        self.setup_times: list[float] = []
        self.scaled_setup_times: list[float] = []
        self.workdir: Workdir | None = None
        self.daemon: Daemon | None = None

    def set_up(self, prepare):
        rounds = 1 if self.run.traced else SETUPS
        before = self.probe.sample()
        for k in range(rounds):
            workdir = Workdir(self.label)
            start = clock()
            daemon = Daemon(workdir, trace=self.run.traced)
            try:
                daemon.wait_ready()
                state = prepare(daemon)
            except BaseException:
                daemon.kill()
                workdir.remove()
                raise
            self.setup_times.append(clock() - start)
            after = self.probe.sample()
            self.scaled_setup_times.append(self.setup_times[-1] * speed_scale(before, after))
            before = after
            if k + 1 < rounds:
                daemon.stop()
                workdir.remove()
            else:
                self.workdir, self.daemon = workdir, daemon
        return state

    def stop_daemon(self) -> dict:
        """Final scrape and /proc readings, then a clean daemon shutdown."""
        page = self.quiesce()
        rss = self.daemon.peak_rss_mb()
        self.daemon.stop()
        check_accounting(self.run, page)
        spans = SpanSet.load(self.daemon.trace_path) if self.daemon.trace_path else None
        return {"page": page, "rss": rss, "spans": spans}

    def quiesce(self) -> dict[str, int]:
        """The metrics page once the daemon is idle: two equal reads in a row
        (late retransmitted copies may still be in its queues)."""
        deadline = clock() + QUIESCE_TIMEOUT_S
        page, _ = self.daemon.scrape()
        while clock() < deadline:
            time.sleep(0.1)
            again, _ = self.daemon.scrape()
            if again == page:
                break
            page = again
        return page

    def open_storage(self):
        return storage.SqliteStorage(self.daemon.db_path)

    def close(self):
        if self.daemon is not None:
            self.daemon.kill()
        if self.workdir is not None:
            self.workdir.remove()

    def report_setup(self):
        """Record the median set-up time; the measured phase starts after this."""
        gc.collect()  # set-up garbage is not collected inside the measured phase
        n = len(self.setup_times)
        self.run.e2e["setup_s"] = Metric(median(self.scaled_setup_times), "s", n)
        self.run.named["setup_raw_s"] = Metric(median(self.setup_times), "s", n)


# ---------------------------------------------------------------------------
# bulk-tcp


@dataclass
class Sync:
    """One device's sync in bulk-tcp."""

    session: object
    rows: dict
    report: object
    wall: float
    cpu: float    # daemon CPU seconds while it ran
    scale: float  # speed_scale of the probes on either side of it


def bulk_tcp(run: Run, facts: dict):

    class RecordingSession(client.ClientSession):
        """The real engine; notes each packet's first-send-to-feedback time
        and whether its feedback stored every row sent."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.rtts: dict[tuple[int, int], float] = {}  # (session_id, seq) -> s
            self.short_acks = 0

        def handle_feedback(self, fb, now=0.0):
            pkt = self._flight.get(fb.seq) if fb.session_id == self.session_id else None
            result = super().handle_feedback(fb, now)
            if result is not None:
                self.rtts[(fb.session_id, fb.seq)] = now - pkt.first_sent_at
                self.short_acks += result.stored_rows != result.sent_rows
            return result

    h = Harness(run, "bulk-tcp")
    transports = []
    try:
        def prepare(daemon):
            rng = random.Random(f"bulk-{run.seed}")
            hours = [sim.generate_session(sim.WorkloadConfig(
                seed=rng.randrange(2**31), start_ts=BASE_TS)) for _ in range(BULK_HOURS)]
            transport = client.TcpTransport(HOST, daemon.auth_port, daemon.data_port)
            transports.append(transport)
            return hours, transport

        hours, transport = h.set_up(prepare)
        for stale in transports[:-1]:
            stale.close()
        h.report_setup()
        daemon = h.daemon
        before = h.probe.sample()
        t0 = clock()
        synced: list[Sync] = []
        while not synced or clock() - t0 < run.seconds:
            i = len(synced)
            rows = hours[i % BULK_HOURS]
            # a distinct user per device makes a distinct session for shared rows
            session = RecordingSession(
                crypto.hash_user(f"bulk-{run.seed}-{i}@bench.invalid"), BASE_TS, h.pub)
            began, cpu0 = clock(), daemon.cpu_s()
            session.enqueue_rows(rows)
            for kind, blob in session.begin(clock()):
                transport.send(kind, blob)
            report = client.run_until_drained(session, transport, timeout=120.0)
            took, cpu = clock() - began, daemon.cpu_s() - cpu0
            after = h.probe.sample()
            synced.append(Sync(session, rows, report, took, cpu, speed_scale(before, after)))
            before = after
        wall = clock() - t0
        transport.close()
        final = h.stop_daemon()

        db = h.open_storage()
        try:
            bad = []
            for sync in synced:
                try:
                    sim.verify_storage(db, sync.session.session_id, sync.rows)
                except sim.VerificationFailed as exc:
                    bad.append(str(exc))
            run.check("every synced session's stored rows equal its generated rows",
                      not bad, "; ".join(bad[:3]))
        finally:
            db.close()

        delivered = sum(x.report.delivered_rows for x in synced)
        expected = sum(codec.batch_row_count(x.rows) for x in synced)
        short = sum(x.session.short_acks for x in synced)
        run.check("every feedback stored the rows sent", short == 0, f"{short} short acks")
        run.check("every device delivered all its rows", delivered == expected,
                  f"{delivered}/{expected}")
        unique = sum(x.report.packets_sent - x.report.retransmissions for x in synced)
        retrans = sum(x.report.retransmissions for x in synced)
        rtts = {k: v for x in synced for k, v in x.session.rtts.items()}
        latency_metrics(run, "packet_rtt", list(rtts.values()))
        # timings scaled sync by sync to the reference speed; throughput and
        # CPU are totals over the run, which average the machine's phases
        scaled = [v * x.scale * 1000.0 for x in synced for v in x.session.rtts.values()]
        run.e2e["latency_p50_ms"] = Metric(quantile(scaled, 0.5), "ms", len(scaled))
        run.e2e["latency_p90_ms"] = Metric(quantile(scaled, 0.9), "ms", len(scaled))
        run.e2e["throughput_per_s"] = Metric(
            delivered / sum(x.wall * x.scale for x in synced), "1/s", len(synced))
        run.named["rows_per_s"] = Metric(delivered / sum(x.wall for x in synced), "1/s",
                                             len(synced))
        run.e2e["cpu_us_per_op"] = Metric(
            sum(x.cpu * x.scale for x in synced) * 1e6 / delivered if delivered else 0.0,
            "us", delivered)
        run.named["server_cpu_us_per_row"] = Metric(
            sum(x.cpu for x in synced) * 1e6 / delivered if delivered else 0.0, "us",
            delivered)
        run.named["machine.probe_ms"] = Metric(median(h.probe.samples) * 1000.0, "ms",
                                               len(h.probe.samples))
        rss = Metric(final["rss"], "MB", 1)
        run.e2e["peak_rss_mb"] = run.named["server_peak_rss_mb"] = rss
        json_bytes = sum(x.report.json_bytes for x in synced)
        wire = sum(x.report.wire_bytes for x in synced)
        ratio = Metric(wire / json_bytes, "ratio", unique)
        run.e2e["wire_json_ratio"] = run.named["wire_json_ratio"] = ratio
        run.named["client.retransmit_ratio"] = Metric(retrans / unique, "ratio", unique)
        run.named["device_sync_s"] = Metric(median([x.wall for x in synced]), "s",
                                                len(synced))
        handshakes = sum(x.report.auth_sent for x in synced)
        failed = sum(x.report.packets_failed + (x.report.auth_responses == 0) for x in synced)
        failure_metrics(run, unique + handshakes, failed + short)
        facts.update(page=final["page"], cpu_s=sum(x.cpu for x in synced), wall_s=wall,
                     data_packets=unique, retransmissions=retrans, ack_latency=rtts,
                     server_spans=final["spans"])
    finally:
        for transport in transports:
            transport.close()
        h.close()
