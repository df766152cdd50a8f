"""Shared pieces: paths, the daemon child, /proc readings, statistics, the
machine speed probe and the run record every workload fills in."""

from __future__ import annotations

import json
import os
import platform
import random
import re
import shutil
import signal
import socket
import sqlite3
import statistics
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
KEY = os.path.join(HERE, "keys", "test_key.pem")
PUBKEY = os.path.join(HERE, "keys", "test_key.pub.pem")
BOOT = os.path.join(HERE, "daemon_boot.py")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
HOST = "127.0.0.1"
LOG_LEVEL = "info"  # the daemon default: one log line per packet, as in production

READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark could not run or a correctness gate failed."""


# ---------------------------------------------------------------------------
# statistics


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    data = sorted(values)
    pos = (len(data) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# machine speed

REFERENCE_S = 0.050  # one probe's time at the speed every timing is reported at


class SpeedProbe:
    """Times a fixed piece of standard-library work that shares no code with
    the program: JSON out and back, zlib both ways and a dict build over
    2000 rows, three times.

    The shared machine's speed drifts by a third over tens of seconds, and
    every time the program takes drifts with it. A timing multiplied by
    ``speed_scale`` of the probes taken around it is the time on a machine
    where one probe takes REFERENCE_S. The probe's code never changes with the
    program's, so a change to the program moves the scaled figure in full."""

    def __init__(self):
        rng = random.Random(0)
        self._rows = [{"t": i, "v": rng.random(), "s": str(rng.random())}
                      for i in range(2000)]
        self.samples: list[float] = []

    def sample(self) -> float:
        """One probe on each CPU this process may use, in turn; returns the
        mean. The program's processes move between CPUs, whose speeds
        differ from moment to moment."""
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in sorted(allowed):
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                for _ in range(3):
                    blob = zlib.compress(json.dumps(self._rows).encode(), 6)
                    index = {row["s"]: row["v"] for row in json.loads(zlib.decompress(blob))}
                times.append(time.perf_counter() - start)
                if len(index) != len(self._rows):
                    raise BenchError("speed probe lost rows")
        finally:
            os.sched_setaffinity(0, allowed)
        elapsed = statistics.fmean(times)
        self.samples.append(elapsed)
        return elapsed


def speed_scale(*probes: float) -> float:
    """Factor that brings a timing taken between ``probes`` to REFERENCE_S."""
    return REFERENCE_S / statistics.fmean(probes)


# ---------------------------------------------------------------------------
# run record


@dataclass
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class Run:
    """Everything one workload run reports."""

    workload: str
    seed: int
    seconds: int
    traced: bool
    e2e: dict[str, Metric] = field(default_factory=dict)     # BENCHMARK.json names
    named: dict[str, Metric] = field(default_factory=dict)   # workload-specific names
    layers: dict[str, Metric] = field(default_factory=dict)  # per-layer (traced)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = ""):
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def latency_metrics(run: Run, prefix: str, samples_s: list[float]):
    """Raw p50, p90 and p99 in ms as ``<prefix>_pNN_ms``."""
    ms = [v * 1000.0 for v in samples_s]
    for p in (50, 90, 99):
        run.named[f"{prefix}_p{p}_ms"] = Metric(quantile(ms, p / 100), "ms", len(ms))


def failure_metrics(run: Run, attempted: int, failed: int):
    """Failures are counted, not gated: an operation that gave up is not a
    wrong output, and the result line reports both counts."""
    run.attempted, run.failed = attempted, failed
    run.named["failed_ratio"] = Metric(failed / attempted if attempted else 1.0,
                                       f"{failed}/{attempted}", attempted)


def context(seed: int) -> dict:
    try:
        from cryptography import __version__ as crypto_version
    except ImportError:
        crypto_version = "missing"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "sqlite": sqlite3.sqlite_version,
        "key_bits": 4096,
        "transport": f"loopback {HOST}",
        "daemon_log_level": LOG_LEVEL,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# scratch space inside the checkout


class Workdir:
    def __init__(self, label: str):
        os.makedirs(SCRATCH, exist_ok=True)
        self.path = os.path.join(SCRATCH, f"{label}-{os.getpid()}-{time.monotonic_ns()}")
        os.makedirs(self.path)

    def file(self, name: str) -> str:
        return os.path.join(self.path, name)

    def remove(self):
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


def load_keypair():
    from senselink import crypto

    with open(KEY, "rb") as f:
        private = crypto.load_private_key(f.read())
    with open(PUBKEY, "rb") as f:
        public = crypto.load_public_key(f.read())
    return crypto.ServerKeyPair(private_part=private, public_part=public)


def load_public_key():
    from senselink import crypto

    with open(PUBKEY, "rb") as f:
        return crypto.load_public_key(f.read())


def peak_rss_mb(pid="self") -> float:
    """VmHWM, the process's peak resident set, in MB."""
    with open(f"/proc/{pid}/status", "rb") as f:
        for line in f:
            if line.startswith(b"VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# ---------------------------------------------------------------------------
# the daemon child


def _free_tcp_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


_SERVING = re.compile(rb"serving auth=(\d+) data=(\d+)")


class Daemon:
    """``senselink serve`` in a child process with SQLite storage in a fresh
    file, ephemeral ports and stderr captured to a file."""

    def __init__(self, workdir: Workdir, trace: bool = False):
        self.db_path = workdir.file("senselink.db")
        self.log_path = workdir.file("daemon.log")
        self.trace_path = workdir.file("spans.json") if trace else None
        self.metrics_port = _free_tcp_port()
        argv = [sys.executable, BOOT]
        if trace:
            argv += ["--trace-out", self.trace_path]
        argv += ["serve", "--key", KEY, "--host", HOST, "--auth-port", "0",
                 "--data-port", "0", "--storage", "sqlite:" + self.db_path,
                 "--metrics-port", str(self.metrics_port), "--log-level", LOG_LEVEL]
        env = {k: v for k, v in os.environ.items() if not k.startswith("SENSELINK_")}
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL, stderr=self._log,
                                     env=env, cwd=ROOT)
        self.auth_port = self.data_port = 0

    def wait_ready(self):
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as f:
                found = _SERVING.search(f.read())
            if found:
                self.auth_port, self.data_port = int(found[1]), int(found[2])
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise BenchError(f"daemon did not start; see {self.log_path}: {self.log_tail()}")

    def log_tail(self) -> str:
        with open(self.log_path, "rb") as f:
            return f.read()[-600:].decode("utf-8", "replace")

    def cpu_s(self) -> float:
        """User plus system CPU time of the child so far."""
        with open(f"/proc/{self.proc.pid}/stat", "rb") as f:
            fields = f.read().rsplit(b")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def scrape(self) -> tuple[dict[str, int], float]:
        """One read of the metrics page, as Prometheus would do it."""
        start = time.monotonic()
        with socket.create_connection((HOST, self.metrics_port), timeout=10.0) as s:
            chunks = []
            while True:
                data = s.recv(65536)
                if not data:
                    break
                chunks.append(data)
        elapsed = time.monotonic() - start
        page = {}
        for line in b"".join(chunks).decode("utf-8").splitlines():
            name, _, value = line.partition(" ")
            page[name] = int(value)
        return page, elapsed

    def stop(self):
        """SIGINT, the daemon's own shutdown path (flush, close storage)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        if self.proc.returncode != 0:
            raise BenchError(f"daemon exited with {self.proc.returncode}: {self.log_tail()}")

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def check_accounting(run: Run, page: dict[str, int]):
    """Every blob the daemon received is either handled or discarded."""
    for kind in ("auth", "data"):
        received = page.get(f"{kind}_packets", 0)
        handled = page.get(f"{kind}_ok", 0)
        discarded = sum(v for k, v in page.items() if k.startswith(f"{kind}_discard_"))
        run.check(f"metrics page accounts for every {kind} packet",
                  received == handled + discarded,
                  f"{kind}_packets={received} ok={handled} discards={discarded}")
