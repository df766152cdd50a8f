"""sim-hour: the simulator's default hour, in process.

Realtime mode, 20% loss each way, 100 +/- 20 ms latency, server restarts
at the 5th, 20th, 40th, 60th and 80th data-packet arrival, verification on.
No sockets and no threads, so the work is the same on every run of a seed:
the first run is the reference whose counters every later run must match.
"""

from __future__ import annotations

import gc
import time

from senselink import sim

from common import (Metric, Run, SpeedProbe, failure_metrics, load_keypair, median,
                    peak_rss_mb, quantile, speed_scale)

clock = time.monotonic

SETUPS = 5
RESTART_AT = (5, 20, 40, 60, 80)
MIN_RUNS = 2  # a reference and one run checked against it


def sim_hour(run: Run, facts: dict):
    """Every timing is taken between two speed probes and reported scaled
    to the reference speed (see common.SpeedProbe); the raw figures are
    printed beside them."""
    probe = SpeedProbe()
    setups, scaled_setups = [], []
    before = probe.sample()
    for _ in range(1 if run.traced else SETUPS):
        start = clock()
        keypair = load_keypair()
        workload = sim.WorkloadConfig(seed=run.seed)
        sim.generate_session(workload)
        setups.append(clock() - start)
        after = probe.sample()
        scaled_setups.append(setups[-1] * speed_scale(before, after))
        before = after
    run.e2e["setup_s"] = Metric(median(scaled_setups), "s", len(setups))
    run.named["setup_raw_s"] = Metric(median(setups), "s", len(setups))
    channel = sim.ChannelConfig(loss_prob=0.2, latency_ms=100.0, jitter_ms=20.0,
                                seed=run.seed)

    reports, walls, cpus, scales, failures = [], [], [], [], []
    before = probe.sample()
    t0 = clock()
    while len(reports) < MIN_RUNS or clock() - t0 < run.seconds:
        gc.collect()  # every run starts from the same heap, not the last one's garbage
        began, cpu0 = clock(), time.process_time()
        try:
            report = sim.run_experiment(workload, channel, keypair=keypair,
                                        mode="realtime", restart_at=RESTART_AT)
        except sim.VerificationFailed as exc:
            failures.append(str(exc))
            break
        walls.append(clock() - began)
        cpus.append(time.process_time() - cpu0)
        after = probe.sample()
        scales.append(speed_scale(before, after))
        before = after
        reports.append(report)

    run.check("every run stored every row, field-faithful",
              not failures and all(r.verified for r in reports), "; ".join(failures))
    reference = reports[0].to_dict() if reports else {}
    reference.pop("wall_time_s", None)
    differing = 0
    for r in reports[1:]:
        d = r.to_dict()
        d.pop("wall_time_s")
        differing += d != reference
    run.check("counters match the reference run of the same seed",
              bool(reports) and differing == 0,
              f"{differing} of {len(reports) - 1} runs differ; reference "
              f"retransmissions={reference.get('retransmissions')} "
              f"packets={reference.get('packets_sent')}")

    rows = sum(r.rows_generated for r in reports)
    # the simulated hour is the operation: its wall time is the latency
    ms = [w * sc * 1000.0 for w, sc in zip(walls, scales)]
    run.e2e["latency_p50_ms"] = Metric(median(ms), "ms", len(ms))
    run.e2e["latency_p90_ms"] = Metric(quantile(ms, 0.90), "ms", len(ms))
    # throughput and CPU are totals over the run, which average the
    # machine's fast and slow phases instead of picking one
    scaled_wall = sum(w * sc for w, sc in zip(walls, scales))
    scaled_cpu = sum(c * sc for c, sc in zip(cpus, scales))
    run.e2e["throughput_per_s"] = Metric(rows / scaled_wall if walls else 0.0, "1/s",
                                         len(walls))
    run.e2e["cpu_us_per_op"] = Metric(scaled_cpu * 1e6 / rows if rows else 0.0, "us",
                                      len(cpus))
    run.named["sim_wall_s"] = Metric(median(walls), "s", len(walls))
    run.named["sim_rows_per_s"] = Metric(rows / sum(walls) if walls else 0.0, "1/s",
                                             len(walls))
    run.named["sim_cpu_us_per_row"] = Metric(sum(cpus) * 1e6 / rows if rows else 0.0,
                                                 "us", len(cpus))
    run.named["machine.probe_ms"] = Metric(median(probe.samples) * 1000.0, "ms",
                                           len(probe.samples))
    run.e2e["peak_rss_mb"] = run.named["peak_rss_mb"] = Metric(peak_rss_mb(), "MB", 1)
    ratio = reports[0].compression_ratio if reports else 0.0
    run.e2e["wire_json_ratio"] = Metric(ratio, "ratio", len(reports))
    run.named["wire_json_ratio"] = run.e2e["wire_json_ratio"]
    if reports:
        r = reports[0]
        run.named["sim.retransmissions"] = Metric(r.retransmissions, "count", 1)
        run.named["sim.packets_sent"] = Metric(r.packets_sent, "count", 1)
    failure_metrics(run, max(rows, 1), sum(r.rows_failed for r in reports) + len(failures))
    unique = sum(r.packets_sent - r.retransmissions for r in reports)
    facts.update(runs=len(reports), retransmissions=sum(r.retransmissions for r in reports),
                 data_packets=unique, wall_s=sum(walls))
