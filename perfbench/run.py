#!/usr/bin/env python3
"""senselink benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload named in BENCHMARK.json, or ``all`` to run every one in
turn (with --trace 1, each also traced, followed by the tracing overhead).
Run from the root of a source checkout; the program is imported from src/.

Prints the run's context, every metric with its unit and sample count, and
the correctness checks, then as the last line one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced. Exit code 0 when
every check passed, 1 when one failed, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, BenchError, Metric, Run, context  # noqa: E402

SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
TRACE_E2E = "trace.e2e."  # per-layer names that carry the traced run's end-to-end value
OVERHEAD_METRICS = ("throughput_per_s", "latency_p50_ms", "latency_p90_ms", "cpu_us_per_op")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as f:
        return json.load(f)


def workload_fn(name: str):
    import simhour
    import workloads

    return {"bulk-tcp": workloads.bulk_tcp, "sim-hour": simhour.sim_hour}[name]


def run_workload(spec: dict, name: str, seed: int, seconds: int, traced: bool) -> Run:
    import layers
    import tracing

    run = Run(name, seed, seconds, traced)
    facts: dict = {}
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracing.install_client(tracer)
        if name == "sim-hour":
            tracing.install_server(tracer)
    try:
        workload_fn(name)(run, facts)
    except BenchError as exc:
        run.check("benchmark ran to the end", False, str(exc))
    finally:
        if tracer is not None:
            tracer.unwrap_all()
    if traced and run.correct:
        client = tracing.SpanSet(tracer.dump())
        server = client if name == "sim-hour" else facts.get("server_spans")
        names = [m["name"] for m in spec["per_layer"]]
        values = layers.derive([n for n in names if not n.startswith(TRACE_E2E)],
                               facts, server, client)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for n in names:
            if n.startswith(TRACE_E2E):
                metric = run.e2e.get(n[len(TRACE_E2E):])
                values[n] = metric.value if metric else 0.0
        run.layers = {n: Metric(values[n], units[n], 0) for n in names}
    return run


def print_report(run: Run):
    print(f"senselink benchmark  workload={run.workload} seed={run.seed} "
          f"seconds={run.seconds} traced={'yes' if run.traced else 'no'}")
    print("context " + json.dumps(context(run.seed), sort_keys=True))
    rows = dict(run.e2e)
    rows.update(run.named)
    print(f"{'metric':36} {'value':>14}  {'unit':10} samples")
    for name, m in rows.items():
        print(f"{name:36} {m.value:14.4f}  {m.unit:10} {m.samples}")
    for name, m in run.layers.items():
        print(f"{name:44} {m.value:14.4f}  {m.unit}")
    for name, ok, detail in run.checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f": {detail}" if detail else ""))


def result_line(run: Run, spec: dict) -> dict:
    if not run.correct:
        return {"correct": False, "attempted": max(run.attempted, 1),
                "failed": max(run.failed, 1), "metrics": {}}
    wanted = spec["per_layer"] if run.traced else spec["end_to_end"]
    source = run.layers if run.traced else run.e2e
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        raise BenchError(f"workload {run.workload} did not produce {missing}")
    return {"correct": True, "attempted": run.attempted, "failed": run.failed,
            "metrics": {m["name"]: {"value": source[m["name"]].value, "unit": m["unit"]}
                        for m in wanted}}


def run_all(spec: dict, seed: int, seconds: int, traced: bool) -> int:
    """Every workload in a child process of its own; then the overhead table."""
    results: dict[tuple[str, bool], dict] = {}
    for w in spec["workloads"]:
        for t in ((False, True) if traced else (False,)):
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w["name"],
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(t))]
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]))
            try:
                results[(w["name"], t)] = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                results[(w["name"], t)] = {"correct": False, "attempted": 1, "failed": 1,
                                           "metrics": {}}
            print()
    if traced:
        print("tracing overhead (traced / untraced - 1)")
        for w in spec["workloads"]:
            plain = results[(w["name"], False)]["metrics"]
            with_trace = results[(w["name"], True)]["metrics"]
            cells = []
            for m in OVERHEAD_METRICS:
                a = plain.get(m, {}).get("value")
                b = with_trace.get(TRACE_E2E + m, {}).get("value")
                cells.append(f"{m}={b / a - 1:+.1%}" if a and b else f"{m}=n/a")
            print(f"  {w['name']:12} " + "  ".join(cells))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}{'.traced' if t else ''}.{k}": v
                    for (w, t), r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "senselink", "__init__.py")):
        print(f"error: no senselink sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    sys.path.insert(0, SRC)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(spec, args.seed, args.seconds, bool(args.trace))
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names} or all")
    run = run_workload(spec, args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(run)
    line = result_line(run, spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
