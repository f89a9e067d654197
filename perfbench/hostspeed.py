"""Host-speed calibration: a fixed kernel timed between the items.

On a shared host the same Python can run up to twice as slow for seconds or
minutes at a time, and everything slows alike: the solvers' block rewriting,
the nilpotent parse and its numpy passes, and this kernel.  The benchmark
therefore times ``kernel`` (a small block rewriting loop of its own, which no
change to ``src/`` can touch) just before and just after every item, and
divides the item's wall time by the slowdown the kernel saw: its time over
``KERNEL_REF_S``.  The reported times are thus seconds at one fixed host
speed, the one at which a kernel slice takes ``KERNEL_REF_S``; the raw wall
times are kept in the report next to them.

Work that runs for seconds in one go (a set-up, a CLI process) is measured
by a ``Ticker`` instead, which times a slice every 50 ms while it runs.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Median time of one kernel slice in the fast state of the host that made
# the first baseline (2 vCPU Intel Xeon, Python 3.11).
KERNEL_REF_S = 0.5e-3
TICK_S = 0.05  # a ticker's period

_TABLE = {(a, b): (7 * a + b) % 11 for a in range(11) for b in range(11)}
_TAPE = [random.Random(0).randrange(11) for _ in range(4096)]


def kernel() -> list[int]:
    """Halve a tape of 4096 symbols through a pair table down to 64 symbols."""
    tape = _TAPE
    while len(tape) > 64:
        tape = [_TABLE[tape[i], tape[i + 1]] for i in range(0, len(tape) - 1, 2)]
    return tape


def slowdown(slices: int = 1) -> float:
    """The host's current slowdown: mean kernel time over ``KERNEL_REF_S``."""
    start = time.perf_counter()
    for _ in range(slices):
        kernel()
    return (time.perf_counter() - start) / (slices * KERNEL_REF_S)


class Ticker:
    """Times one kernel slice every ``TICK_S`` from an interval timer, so
    between the bytecodes of whatever runs meanwhile.  Only one ticker may
    run at a time in a process, and not while a tracer records spans: a
    slice would land inside them."""

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.slices.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def ticker_slowdown(slices: list[float]) -> float:
    """Slowdown seen by a ticker's slices: their median, because a slice that
    an interrupt or a cache emptied by the work around it stretched would
    pull a mean far up."""
    return statistics.median(slices) / KERNEL_REF_S


def corrected(wall: float, slices: list[float]) -> tuple[float, float]:
    """Corrected and raw time of work that ran ``slices`` inside ``wall``:
    the wall time without the slices, divided by their slowdown."""
    if not slices:
        return wall / slowdown(), wall
    raw = wall - sum(slices)
    return raw / ticker_slowdown(slices), raw


# Python specializes a loop's bytecode over its first runs; leave those
# behind before any slice is timed.
for _ in range(4):
    kernel()
