"""Spans for traced benchmark runs.

A traced run replaces public functions of the senselink modules with
wrappers that record one span per call: name, start, end, parent span and a
tag (a request id, or a row count, chosen per function). Times come from
``time.monotonic``, which is system-wide on Linux, so spans written by the
daemon child line up with times the generator saw. Spans stay in memory and
are written to a file once, at shutdown.

Untraced runs never import the wrappers' targets through this module, so
the end-to-end figures carry no tracing cost.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict

# A span is a list [name, start, end, parent span or None, tag].
NAME, START, END, PARENT, TAG = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._wrapped: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, tag=None):
        """Record a span around every call of ``owner.attr``. ``tag(args,
        result)`` labels the span once the call returns."""
        fn = getattr(owner, attr)
        spans, local, clock = self.spans, self._local, time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if tag is not None:
                span[TAG] = tag(args, result)
            return result

        self._wrapped.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def unwrap_all(self):
        for owner, attr, fn in reversed(self._wrapped):
            setattr(owner, attr, fn)
        self._wrapped.clear()

    def dump(self) -> list[list]:
        """Spans with the parent replaced by its index in the list."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [[s[NAME], s[START], s[END],
                 -1 if s[PARENT] is None else index[id(s[PARENT])], s[TAG]]
                for s in self.spans]

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.dump(), f, separators=(",", ":"))


# ---------------------------------------------------------------------------
# what gets wrapped


def _rows(streams) -> int:
    return sum(len(rows) for rows in streams.values())


def install_server(tracer: Tracer):
    """Server-side layers: crypto, codec, IngestCore and both storage backends."""
    from senselink import codec, crypto, server, storage

    tracer.wrap(crypto, "asym_decrypt", "crypto.asym_decrypt")
    tracer.wrap(crypto, "sym_decrypt", "crypto.sym_decrypt")
    tracer.wrap(crypto, "sym_encrypt", "crypto.sym_encrypt")
    tracer.wrap(codec, "decompress", "codec.decompress")
    tracer.wrap(codec, "compress", "codec.compress")
    tracer.wrap(codec, "validate_streams", "codec.validate_streams",
                tag=lambda args, res: _rows(res[0]) + res[1])
    tracer.wrap(codec, "decode_data_packet", "codec.decode_data_packet")
    tracer.wrap(codec, "decode_auth_request", "codec.decode_auth_request")
    tracer.wrap(codec, "encode_feedback", "codec.encode_feedback")

    core = server.IngestCore
    tracer.wrap(core, "handle_auth_packet", "server.handle_auth_packet")
    tracer.wrap(core, "handle_data_packet", "server.handle_data_packet")
    tracer.wrap(core, "decode_data_packet", "server.decode_data_packet",
                tag=lambda args, pkt: [pkt.session_id, pkt.seq])
    tracer.wrap(core, "store_and_ack", "server.store_and_ack",
                tag=lambda args, res: [args[1].session_id, args[1].seq])
    tracer.wrap(core, "lookup_key", "server.lookup_key")

    for backend in (storage.SqliteStorage, storage.MemoryStorage):
        tracer.wrap(backend, "write_rows", "storage.write_rows",
                    tag=lambda args, count: count)
        tracer.wrap(backend, "lookup_session_key", "storage.lookup_session_key")
        tracer.wrap(backend, "upsert_session", "storage.upsert_session")
        tracer.wrap(backend, "storage_stats", "storage.storage_stats")


def install_client(tracer: Tracer):
    """Client engine, client-side encoders and the simulator helpers."""
    from senselink import client, codec, sim

    session = client.ClientSession
    tracer.wrap(session, "begin", "client.begin")
    tracer.wrap(session, "enqueue_rows", "client.enqueue_rows",
                tag=lambda args, count: count)
    tracer.wrap(session, "pump", "client.pump", tag=lambda args, out: len(out))
    tracer.wrap(session, "handle_wire", "client.handle_wire")
    tracer.wrap(codec, "encode_data_packet", "codec.encode_data_packet",
                tag=lambda args, blob: _rows(args[0].streams))
    tracer.wrap(sim, "generate_session", "sim.generate_session")
    tracer.wrap(sim, "verify_storage", "sim.verify_storage")
    tracer.wrap(sim, "run_experiment", "sim.run_experiment")


# ---------------------------------------------------------------------------
# analysis


class SpanSet:
    """Spans from one process with durations, self times and the side
    (server or client) of the outermost layer call each belongs to."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        n = len(spans)
        self.duration = [s[END] - s[START] for s in spans]
        child = [0.0] * n
        for s, d in zip(spans, self.duration):
            if s[PARENT] >= 0:
                child[s[PARENT]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child)]
        self.side: list[str | None] = [None] * n
        self.top = [False] * n  # outermost server./client. call
        for i, s in enumerate(spans):
            parent = s[PARENT]
            inherited = self.side[parent] if parent >= 0 else None
            if inherited is None and s[NAME].startswith(("server.", "client.")):
                self.side[i] = s[NAME].split(".", 1)[0]
                self.top[i] = True
            else:
                self.side[i] = inherited
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s[NAME]].append(i)

    @classmethod
    def load(cls, path: str) -> "SpanSet":
        with open(path, encoding="utf-8") as f:
            return cls(json.load(f))

    def select(self, name: str, side: str | None = None) -> list[int]:
        ids = self.by_name.get(name, [])
        return ids if side is None else [i for i in ids if self.side[i] == side]

    def durations(self, name: str, side: str | None = None) -> list[float]:
        return [self.duration[i] for i in self.select(name, side)]

    def tagged_durations(self, name: str) -> list[float]:
        """Durations of the spans whose tag is truthy (a call that did work)."""
        return [self.duration[i] for i in self.select(name) if self.spans[i][TAG]]

    def self_times(self, name: str, side: str | None = None) -> list[float]:
        return [self.self_time[i] for i in self.select(name, side)]

    def tagged(self, name: str) -> dict:
        """tag -> span index for spans whose tag is a request id."""
        out = {}
        for i in self.select(name):
            tag = self.spans[i][TAG]
            if tag is not None:
                out[tuple(tag) if isinstance(tag, list) else tag] = i
        return out

    def per_tag_unit(self, name: str, side: str | None = None) -> float:
        """Total duration over the sum of tags (for example per row)."""
        ids = self.select(name, side)
        units = sum(self.spans[i][TAG] or 0 for i in ids)
        return sum(self.duration[i] for i in ids) / units if units else 0.0

    def top_total(self, side: str) -> float:
        return sum(d for d, t, s in zip(self.duration, self.top, self.side)
                   if t and s == side)
