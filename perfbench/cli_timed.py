"""Stand-in for ``python -m autgrp`` that measures the host's speed while
the command runs, used by the cold-cli workload's timed passes.

A command runs for one to three seconds, long enough for the host to change
speed under it, so kernel slices timed by the parent before and after the
process would miss it.  Instead an interval timer runs one ``hostspeed``
kernel slice every 50 ms inside this process, between the command's own
bytecodes (a ``hostspeed.Ticker``), and the slice times are written to a
JSON file.  The parent subtracts their sum from the process's wall time and
divides the rest by their median slowdown.  Everything else is what ``python -m autgrp`` does:
``import autgrp.cli``, then ``cli_main`` on the arguments.

Usage: python3 perfbench/cli_timed.py SLICES.json COMMAND [ARGS...]
"""

import json
import sys

from hostspeed import Ticker

ticker = Ticker()
ticker.start()

import autgrp.cli  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    try:
        return autgrp.cli.cli_main(argv)
    finally:
        ticker.stop()
        sys.stdout.flush()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ticker.slices, fh)


if __name__ == "__main__":
    sys.exit(main())
