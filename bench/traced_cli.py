"""``python -m dualeq <args>`` with per-layer tracing.

    python bench/traced_cli.py <dualeq arguments>

Stdout and the exit code are the CLI's own.  After the CLI returns, one
JSON line with the per-layer metrics of tracer.py is appended to stderr.
"""

from __future__ import annotations

import json
import sys
import time

import tracer


def main(argv):
    trace = tracer.Tracer()
    start = time.perf_counter_ns()
    import dualeq.cli

    trace.add_ns("cli.import_s", time.perf_counter_ns() - start)
    tracer.install(trace)
    try:
        code = dualeq.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    sys.stdout.flush()
    print(json.dumps(trace.metrics()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
