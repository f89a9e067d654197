"""Traced stand-in for ``python -m autgrp``, used by the cold-cli workload
when tracing: times the package import, wraps the layer functions, runs
``cli_main`` under a ``cli.<command>`` span and writes the spans as JSON.

Usage: python3 perfbench/cli_child.py SPANS.json COMMAND [ARGS...]
"""

import json
import sys
import time

start = time.perf_counter()
import autgrp.cli  # noqa: E402

imported = time.perf_counter()

from tracing import Tracer, install  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.pass_no = 0
    tracer.add("cli.import", start, imported)
    install(tracer)
    i = tracer.open(f"cli.{argv[0]}")
    try:
        code = autgrp.cli.cli_main(argv)
    finally:
        tracer.close(i)
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
