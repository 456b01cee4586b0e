"""Machine-speed probe: rescales wall times to a fixed reference speed.

On a shared machine the same solve can take 25% longer for a minute while
neighbours are busy. The probe runs a fixed pure-Python kernel from a SIGALRM
handler every few milliseconds, in the measured thread itself, so it sees the
same slowdown as the code around it. A measured interval is then reported as

    (wall time - time spent in the probe) * REFERENCE_KERNEL_S / mean kernel time

that is, in seconds at the speed where the kernel takes REFERENCE_KERNEL_S.
The kernel touches no data of the program, so a change to the program moves
the rescaled time just as it moves the wall time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.025
# About the kernel's median on a 2-vCPU Intel Xeon at 2.1 GHz with CPython 3.11.
REFERENCE_KERNEL_S = 1.8e-4


def _kernel():
    # Small-object allocation, dict stores and float arithmetic: the interpreter
    # work that dominates most solves.
    table = {}
    items = []
    total = 0.0
    for i in range(800):
        items.append((i, i & 7))
        table[i & 63] = total
        total += i * 0.5
    return len(items)


class SpeedProbe:
    """Samples the kernel on a wall-clock timer while started."""

    def __init__(self):
        self.samples = []  # (start, timed kernel seconds, seconds spent in the handler)

    def _tick(self, signum, frame):
        began = time.perf_counter()
        _kernel()  # warms the caches the program's work evicted; only the second run is timed
        timed = time.perf_counter()
        _kernel()
        ended = time.perf_counter()
        self.samples.append((began, ended - timed, ended - began))

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, began: float, ended: float) -> tuple[float, float]:
        """(rescaled seconds, wall seconds without the probe) for the interval [began, ended]."""
        inside = [s for s in self.samples if began <= s[0] <= ended]
        wall = ended - began - sum(s[2] for s in inside)
        if not inside:  # shorter than one tick: use the nearest earlier sample
            inside = [s for s in self.samples if s[0] <= ended][-1:]
        inside = [s[1] for s in inside]
        if not inside:
            return wall, wall
        return wall * REFERENCE_KERNEL_S / (sum(inside) / len(inside)), wall
