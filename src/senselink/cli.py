"""Operator entry points.

Subcommands: keygen, serve, upload, bench, simulate, stats. Every flag can
also be set through an environment variable named SENSELINK_<FLAG> (dashes
become underscores, uppercased); explicit flags win.

Machine-readable results go to stdout, diagnostics and logs to stderr.
Exit codes: 0 success, 1 partial delivery, 2 configuration error,
3 transport failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import socket
import stat
import sys
import time

from . import crypto, sim
from .client import DEFAULT_WINDOW, ClientSession, TcpTransport, UdpTransport, run_until_drained
from .journal import Journal
from .server import (DEFAULT_AUTH_PORT, DEFAULT_CACHE_CAPACITY, DEFAULT_DATA_PORT, ConfigError,
                     ServerConfig, ServerDaemon)
from .storage import open_storage

ENV_PREFIX = "SENSELINK_"

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2
EXIT_TRANSPORT = 3


def _env(flag: str, fallback):
    value = os.environ.get(ENV_PREFIX + flag.replace("-", "_").upper())
    return value if value is not None else fallback


def _arg(parser, flag: str, **kwargs):
    """add_argument with the environment override applied to the default."""
    if "default" in kwargs:
        kwargs["default"] = _env(flag, kwargs["default"])
    help_text = kwargs.get("help", "")
    kwargs["help"] = f"{help_text} [env {ENV_PREFIX}{flag.replace('-', '_').upper()}]"
    parser.add_argument("--" + flag, **kwargs)


def _print_kv(pairs):
    for key, value in pairs:
        print(f"{key} {value}")


# ---------------------------------------------------------------------------
# keygen


def _public_path(private_path: str) -> str:
    root, ext = os.path.splitext(private_path)
    return f"{root}.pub{ext or '.pem'}"


def cmd_keygen(args) -> int:
    public_path = args.public_out or _public_path(args.out)
    for path in (args.out, public_path):
        if os.path.exists(path) and not args.force:
            print(f"refusing to overwrite {path} (use --force)", file=sys.stderr)
            return EXIT_CONFIG
    keypair = crypto.generate_server_keypair(args.bits)
    probe = os.urandom(64)
    if crypto.asym_decrypt(keypair.private_part,
                           crypto.asym_encrypt(keypair.public_part, probe)) != probe:
        print("generated keypair failed its round-trip self-test", file=sys.stderr)
        return EXIT_CONFIG
    with open(args.out, "wb") as f:
        f.write(crypto.private_key_pem(keypair.private_part))
    os.chmod(args.out, stat.S_IRUSR | stat.S_IWUSR)
    with open(public_path, "wb") as f:
        f.write(crypto.public_key_pem(keypair.public_part))
    _print_kv([("private_key", args.out), ("public_key", public_path),
               ("bits", args.bits)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# serve


def cmd_serve(args) -> int:
    logging.basicConfig(
        stream=sys.stderr, level=getattr(logging, args.log_level.upper()),
        format="%(asctime)s %(levelname)s %(name)s %(message)s")
    with open(args.key, "rb") as f:
        private_key = crypto.load_private_key(f.read())
    config = ServerConfig(
        auth_port=args.auth_port, data_port=args.data_port, host=args.host,
        transports=tuple(args.transport.split(",")), storage=args.storage,
        cache_capacity=args.cache, metrics_port=args.metrics_port)
    daemon = ServerDaemon(config, private_key=private_key)
    daemon.run_forever()
    return EXIT_OK


# ---------------------------------------------------------------------------
# upload


def cmd_upload(args) -> int:
    with open(args.pubkey, "rb") as f:
        server_public = crypto.load_public_key(f.read())
    start_time = args.time if args.time else int(time.time())
    journal = Journal(args.journal) if args.journal else None
    if journal is not None and journal.total_rows and not args.time:
        # session identity is (user hash, start time); resuming under "now"
        # starts a fresh server-side session for whatever is still pending
        print("warning: resuming a used journal without --time begins a new "
              "session; pass the original start time to continue the old one",
              file=sys.stderr)
    session = ClientSession(
        crypto.hash_user(args.email), start_time, server_public,
        window=args.window, journal=journal)

    if args.duration:
        workload = sim.WorkloadConfig(duration_s=args.duration, seed=args.seed,
                                      start_ts=start_time)
        generated = sim.generate_session(workload)
        if args.realtime:
            for _, chunk in sim.flush_chunks(generated, start_time, args.flush_period):
                session.enqueue_rows(chunk)
        elif generated:
            session.enqueue_rows(generated)

    transport_cls = TcpTransport if args.transport == "tcp" else UdpTransport
    try:
        transport = transport_cls(args.server, args.auth_port, args.data_port)
    except OSError as exc:
        print(f"cannot reach {args.server}: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT
    try:
        for kind, blob in session.begin(time.monotonic()):
            transport.send(kind, blob)
        report = run_until_drained(session, transport, timeout=args.timeout)
    finally:
        transport.close()
        if journal is not None:
            journal.close()
    _print_kv(sorted(report.__dict__.items()))
    if session.auth_failed or (report.feedback_received == 0 and report.auth_responses == 0):
        return EXIT_TRANSPORT
    if not report.complete:
        return EXIT_PARTIAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    windows = tuple(int(w) for w in args.windows.split(","))
    reports = sim.pipelining_benchmark(rtt_ms=args.rtt_ms, packets=args.packets,
                                       windows=windows)
    for window, report in reports.items():
        print(f"window={window} throughput_rows_s={report.throughput_rows_s:.2f} "
              f"virtual_time_s={report.virtual_time_s:.3f} "
              f"packets={report.packets_sent}")
    if len(windows) >= 2:
        base = reports[windows[0]].throughput_rows_s
        top = reports[windows[-1]].throughput_rows_s
        if base > 0:
            print(f"speedup={top / base:.2f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as f:
        kwargs = sim.parse_experiment_config(f.read())
    report = sim.run_experiment(**kwargs)
    text = json.dumps(report.to_dict(), sort_keys=True, separators=(",", ":"))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    else:
        print(text)
    for line in report.summary_lines():
        print(line, file=sys.stderr)
    return EXIT_OK if report.rows_failed == 0 else EXIT_PARTIAL


# ---------------------------------------------------------------------------
# stats


def cmd_stats(args) -> int:
    selector = args.storage
    path = selector[len("sqlite:"):] if selector.startswith("sqlite:") else selector
    if selector != "memory" and not os.path.exists(path):
        print(f"no storage file at {path}", file=sys.stderr)
        return EXIT_CONFIG
    storage = open_storage(selector)
    try:
        stats = storage.storage_stats()
    finally:
        storage.close()
    pairs = [("sessions", stats["sessions"]),
             ("access_points", stats["access_points"]),
             ("total_rows", stats["total_rows"]),
             ("total_logical_bytes", stats["total_logical_bytes"])]
    pairs += [(f"rows_{s}", n) for s, n in sorted(stats["rows"].items())]
    pairs += [(f"bytes_{s}", n) for s, n in sorted(stats["logical_bytes"].items())]
    _print_kv(pairs)
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="senselink",
        description="secure, reliable, stateless sensor-data gathering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate the server keypair")
    _arg(p, "out", default="server_key.pem", help="private key output path")
    _arg(p, "public-out", default=None, help="public key output path")
    _arg(p, "bits", type=int, default=crypto.DEFAULT_KEY_BITS,
         help="modulus size in bits")
    p.add_argument("--force", action="store_true", help="overwrite existing files")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("serve", help="run the ingest server")
    _arg(p, "key", default="server_key.pem", help="private key path")
    _arg(p, "host", default="127.0.0.1", help="bind address")
    _arg(p, "auth-port", type=int, default=DEFAULT_AUTH_PORT, help="authentication port")
    _arg(p, "data-port", type=int, default=DEFAULT_DATA_PORT, help="data port")
    _arg(p, "transport", default="udp,tcp", help="comma list of udp,tcp")
    _arg(p, "storage", default="senselink.db", help="'memory', 'sqlite:PATH' or a path")
    _arg(p, "cache", type=int, default=DEFAULT_CACHE_CAPACITY,
         help="session key cache entries")
    _arg(p, "metrics-port", type=int, default=0, help="plain-text metrics port (0=off)")
    _arg(p, "log-level", default="info", help="debug|info|warning|error")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("upload", help="upload a journal or generated workload")
    _arg(p, "server", default="127.0.0.1", help="server host")
    _arg(p, "auth-port", type=int, default=DEFAULT_AUTH_PORT, help="authentication port")
    _arg(p, "data-port", type=int, default=DEFAULT_DATA_PORT, help="data port")
    _arg(p, "pubkey", default="server_key.pub.pem", help="server public key path")
    _arg(p, "email", default="unit@example.org", help="user e-mail (hashed locally)")
    _arg(p, "time", type=int, default=0, help="session start time (0 = now)")
    _arg(p, "transport", default="udp", choices=("udp", "tcp"), help="transport")
    _arg(p, "window", type=int, default=DEFAULT_WINDOW, help="max data packets in flight")
    _arg(p, "journal", default=None, help="journal file to upload and track")
    _arg(p, "duration", type=int, default=0, help="generate a workload of this many seconds")
    _arg(p, "seed", type=int, default=1, help="workload generator seed")
    _arg(p, "flush-period", type=float, default=5.0, help="realtime flush period, seconds")
    _arg(p, "timeout", type=float, default=600.0, help="overall drain timeout, seconds")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--realtime", action="store_true",
                      help="pack rows in small per-flush batches")
    mode.add_argument("--batch", action="store_true",
                      help="pack rows into maximal packets (default)")
    p.set_defaults(fn=cmd_upload)

    p = sub.add_parser("bench", help="pipelining throughput benchmark")
    _arg(p, "rtt-ms", type=float, default=50.0, help="simulated round-trip time")
    _arg(p, "packets", type=int, default=250, help="data packets per run")
    _arg(p, "windows", default="1,16", help="comma list of window sizes")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("simulate", help="run an experiment config file")
    _arg(p, "config", default="experiment.conf", help="key=value experiment file")
    _arg(p, "out", default=None, help="write the JSON report here instead of stdout")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stats", help="print storage statistics")
    _arg(p, "storage", default="senselink.db", help="'memory', 'sqlite:PATH' or a path")
    p.set_defaults(fn=cmd_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConnectionError, socket.gaierror, TimeoutError) as exc:
        print(f"transport error: {exc}", file=sys.stderr)
        return EXIT_TRANSPORT


if __name__ == "__main__":
    sys.exit(main())
