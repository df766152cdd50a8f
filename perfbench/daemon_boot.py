"""Start the ingest daemon through the public ``senselink serve`` entry point.

    python3 perfbench/daemon_boot.py [--trace-out SPANS.json] serve ARGS...

With ``--trace-out`` the server-side layers are wrapped before the daemon
starts and the recorded spans are written to that file when ``serve``
returns (on SIGINT). Without it this is exactly ``senselink serve``.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    from senselink import cli

    if trace_out is None:
        return cli.main(argv)
    import tracing

    tracer = tracing.Tracer()
    tracing.install_server(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.write(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
