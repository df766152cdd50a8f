"""Per-layer metrics of a traced run.

Spans come from two processes: the daemon child (server side) and the
benchmark process (client, simulator and, for sim-hour, everything). Both
clocks are ``time.monotonic``, so a latency the generator measured can be
split into the server spans that served it and the rest, matched by request
id (session_id, seq).

Every per-layer metric is reported on every workload; one whose layer the
workload does not exercise reads 0.
"""

from __future__ import annotations

from common import median, quantile
from tracing import START, END, SpanSet

US = 1e6


def _page_metrics(out: dict, facts: dict):
    page = facts.get("page")
    if not page:
        return
    hits, misses = page.get("cache_hits", 0), page.get("cache_misses", 0)
    out["server.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["server.discards"] = sum(v for k, v in page.items() if "_discard_" in k)
    written = page.get("rows_written", 0)
    out["storage.new_row_ratio"] = page.get("storage_rows", 0) / written if written else 0.0


def _server_metrics(out: dict, s: SpanSet, facts: dict):
    side = "server"  # spans under an IngestCore call (all of them in the daemon)
    packets = len(s.select("server.decode_data_packet"))
    out["crypto.asym_decrypt.us"] = median(s.durations("crypto.asym_decrypt", side)) * US
    out["crypto.sym_decrypt.us"] = median(s.durations("crypto.sym_decrypt", side)) * US
    out["crypto.sym_encrypt.us"] = median(s.durations("crypto.sym_encrypt", side)) * US
    out["codec.decode_data_packet.self_us"] = median(
        s.self_times("codec.decode_data_packet")) * US
    out["codec.decompress.us"] = median(s.durations("codec.decompress", side)) * US
    out["codec.validate_streams.us_per_row"] = s.per_tag_unit(
        "codec.validate_streams", side) * US
    out["codec.encode_feedback.self_us"] = median(s.self_times("codec.encode_feedback")) * US
    out["codec.decode_auth_request.self_us"] = median(
        s.self_times("codec.decode_auth_request")) * US
    out["storage.write_rows.us"] = median(s.durations("storage.write_rows", side)) * US
    out["storage.write_rows.us_per_row"] = s.per_tag_unit("storage.write_rows", side) * US
    out["storage.upsert_session.us"] = median(s.durations("storage.upsert_session", side)) * US
    out["storage.storage_stats.ms"] = median(s.durations("storage.storage_stats")) * 1e3
    if packets:
        out["storage.lookup_session_key.calls_per_packet"] = len(
            s.select("storage.lookup_session_key", side)) / packets
        out["server.lookup_key.calls_per_packet"] = len(s.select("server.lookup_key")) / packets
    out["server.decode_data_packet.us"] = median(s.durations("server.decode_data_packet")) * US
    out["server.store_and_ack.self_us"] = median(s.self_times("server.store_and_ack")) * US
    out["server.handle_auth_packet.self_us"] = median(
        s.self_times("server.handle_auth_packet")) * US

    decoded = s.tagged("server.decode_data_packet")
    stored = s.tagged("server.store_and_ack")
    waits = [s.spans[i][START] - s.spans[decoded[k]][END]
             for k, i in stored.items() if k in decoded]
    out["server.store_queue.wait_p50_us"] = median(waits) * US
    out["server.store_queue.wait_p99_us"] = quantile(waits, 0.99) * US

    rest = [lat - s.duration[decoded[k]] - s.duration[stored[k]]
            for k, lat in facts.get("ack_latency", {}).items()
            if k in decoded and k in stored]
    out["server.data_unaccounted_p50_us"] = median(rest) * US
    out["server.data_unaccounted_p99_us"] = quantile(rest, 0.99) * US


def _client_metrics(out: dict, c: SpanSet, facts: dict):
    packets = facts.get("data_packets") or 0
    out["codec.encode_data_packet.us_per_row"] = c.per_tag_unit("codec.encode_data_packet") * US
    out["client.enqueue_rows.us_per_row"] = c.per_tag_unit("client.enqueue_rows") * US
    out["client.pump.ms"] = median(c.tagged_durations("client.pump")) * 1e3  # pumps that sent
    out["client.handle_wire.us"] = median(c.durations("client.handle_wire")) * US
    if packets and c.select("client.pump"):
        out["client.encodes_per_packet"] = len(
            c.select("codec.encode_data_packet", "client")) / packets
    out["sim.generate_session.s"] = median(c.durations("sim.generate_session"))
    out["sim.verify_storage.s"] = median(c.durations("sim.verify_storage"))
    runs = len(c.select("sim.run_experiment"))
    if runs:
        core = c.top_total("server")
        engine = c.top_total("client")
        inside = sum(c.durations("sim.run_experiment"))
        helpers = sum(c.durations("sim.generate_session")) + sum(
            c.durations("sim.verify_storage"))
        out["sim.core.s"] = core / runs
        out["sim.client.s"] = engine / runs
        out["sim.self.s"] = (inside - core - engine - helpers) / runs


def derive(names: list[str], facts: dict, server: SpanSet | None,
           client: SpanSet | None) -> dict[str, float]:
    """Every name in ``names``; 0 where the workload has no such layer."""
    out: dict[str, float] = {}
    _page_metrics(out, facts)
    if facts.get("wall_s") and facts.get("cpu_s") is not None:
        out["server.cpu_busy_ratio"] = facts["cpu_s"] / facts["wall_s"]
    if server is not None:
        _server_metrics(out, server, facts)
    if client is not None:
        _client_metrics(out, client, facts)
    if "retransmissions" in facts and facts.get("data_packets"):
        out["client.retransmit_ratio"] = facts["retransmissions"] / facts["data_packets"]
    out["trace.spans"] = sum(len(s.spans) for s in {id(x): x for x in (server, client)
                                                     if x is not None}.values())
    return {name: float(out.get(name, 0.0)) for name in names}
