"""Every name the benchmark under ``perfbench/`` takes from
``src/senselink`` is still there, so a deletion in ``src`` that would
break a benchmark run, traced or not, fails here first:

* every function and method ``perfbench/tracing.py`` wraps, by running its
  ``install_server`` and ``install_client`` on a ``Tracer`` and then
  ``unwrap_all`` in a child process (``unwrap_all`` leaves a method that a
  subclass inherits wrapped on the subclass, so this process stays clean);
* every attribute code under ``perfbench/`` reads off a senselink module;
* every attribute ``perfbench/workloads.py`` and ``perfbench/simhour.py``
  read off a report, a session, a packet in flight, a feedback packet or
  an ack, found by the expression the attribute is read from.
"""

import ast
import dataclasses
import importlib
import os
import pathlib
import subprocess
import sys

from senselink import client, codec, crypto, sim

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

TS = 1_400_000_000

# per benchmark file, the expressions whose attributes are read, and what
# each of them is; "self" and "super()" are read in RecordingSession, a
# ClientSession subclass, less the attributes it sets itself
RECEIVERS = {
    "simhour.py": {"r": sim.ExperimentReport, "reports[0]": sim.ExperimentReport},
    "workloads.py": {"x.report": client.DeliveryReport,
                     "session": client.ClientSession,
                     "sync.session": client.ClientSession,
                     "self": client.ClientSession,
                     "super()": client.ClientSession,
                     "pkt": client.OutstandingPacket,
                     "result": client.AckResult,
                     "fb": codec.FeedbackPacket},
}
SUBCLASS = "RecordingSession"


def _reads(tree):
    """(receiver expression, attribute) for each attribute the tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield ast.unparse(node.value), node.attr


def test_the_tracer_installs_and_unwraps_on_src():
    src = os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)])
    script = ("import tracing\n"
              "tracer = tracing.Tracer()\n"
              "tracing.install_server(tracer)\n"
              "tracing.install_client(tracer)\n"
              "tracer.unwrap_all()\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_senselink_module_attribute_perfbench_reads_exists():
    missing = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name: importlib.import_module(f"senselink.{alias.name}")
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "senselink"
                   for alias in node.names}
        missing += [f"{path.name}: {receiver}.{name}" for receiver, name in _reads(tree)
                    if receiver in modules and not hasattr(modules[receiver], name)]
    assert missing == []


def test_every_report_and_engine_attribute_perfbench_reads_exists(test_keypair):
    # a session, since ClientSession sets its state in __init__
    session = client.ClientSession(crypto.hash_user("bench@example.org"), TS,
                                   test_keypair.public_part)

    def has(cls, name):
        if dataclasses.is_dataclass(cls) and name in {f.name for f in dataclasses.fields(cls)}:
            return True
        return hasattr(session if cls is client.ClientSession else cls, name)

    missing, unseen = [], []
    for filename, receivers in RECEIVERS.items():
        tree = ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))
        reads = [(receiver, name) for receiver, name in _reads(tree)
                 if receiver not in ("self", "super()")]
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == SUBCLASS:
                own = {sub.attr for sub in ast.walk(node)
                       if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)}
                reads += [(receiver, name) for receiver, name in _reads(node)
                          if receiver in ("self", "super()") and name not in own]
        reads = [(receiver, name) for receiver, name in reads if receiver in receivers]
        missing += [f"{filename}: {receiver}.{name}" for receiver, name in reads
                    if not has(receivers[receiver], name)]
        unseen += [f"{filename}: {receiver}"
                   for receiver in receivers.keys() - {receiver for receiver, _ in reads}]
    assert missing == []
    assert unseen == []  # a receiver renamed in perfbench would leave its reads unchecked
