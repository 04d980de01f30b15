"""How fast the host runs Python right now, from a fixed calibration loop.

The benchmark runs on shared hosts whose speed drifts by a third or
more within seconds, in CPU time as much as in wall time: the process
is not descheduled, it just runs slower, and most Python code slows
about alike.  Each interpreter therefore also times ``kernel()``, a
fixed pure-Python semi-naive closure that never calls the program,
between its operations.  ``Calibrator.factor(mark)`` is the reference
time of one kernel call over the median of the calls timed around one
moment of the run; multiplying a time measured then by it gives the
time at the reference speed.  The program's own speed does not enter
the factor, so a change that makes the program slower still reads
slower.
"""

from __future__ import annotations

import gc
import random
import statistics

from perfbench import trace

#: Time of one ``kernel()`` call at the reference speed: about what it
#: takes on an idle 2.1 GHz Xeon core (CPython 3.11).  Scaled times
#: are times at that speed.
REFERENCE_S = 0.0015
#: Calibration time kept at this share of the time spent in operations.
DUTY = 0.1
#: A factor is the median of up to this many calls on either side of
#: its moment; as many calls follow the set-up.
WINDOW = 5


def _graph(nodes: int, edges: int) -> list[tuple[str, str]]:
    rng = random.Random(5)
    names = [f"n{i}" for i in range(nodes)]
    return [(rng.choice(names), rng.choice(names)) for _ in range(edges)]


#: A sparse random graph whose four-round closure has a few thousand
#: facts: enough allocation and hashing that the kernel slows with the
#: host about as the engine does.
_EDGES = _graph(400, 560)


def kernel() -> int:
    """Four rounds of semi-naive transitive closure over ``_EDGES``."""
    index: dict = {}
    for a, b in _EDGES:
        index.setdefault(a, []).append(b)
    total = set(_EDGES)
    delta = list(_EDGES)
    for _ in range(4):
        fresh = []
        for a, b in delta:
            for c in index.get(b, ()):
                fact = (a, c)
                if fact not in total:
                    total.add(fact)
                    fresh.append(fact)
        delta = fresh
    return len(total)


class Calibrator:
    """Kernel timings of one interpreter, interleaved with its work."""

    def __init__(self):
        self.times: list[float] = []
        #: For each operation, the number of kernel calls before its end.
        self.marks: list[int] = []
        self.spent = self.busy = 0.0

    def run(self, calls: int = 1) -> None:
        # The kernel's garbage is freed by reference counting.  With the
        # collector off, its time does not grow with the program's heap,
        # which a collection started inside the kernel would scan.
        gc.disable()
        try:
            for _ in range(calls):
                started = trace.clock()
                kernel()
                self.times.append(trace.clock() - started)
                self.spent += self.times[-1]
        finally:
            gc.enable()

    def after_op(self, seconds: float) -> None:
        """Account an operation; time the kernel if it is due."""
        self.marks.append(len(self.times))
        self.busy += seconds
        if self.spent < DUTY * self.busy:
            self.run()

    def factor(self, mark: int) -> float:
        """Reference over measured kernel time around call ``mark``."""
        window = self.times[max(0, mark - WINDOW):mark + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def op_factors(self) -> list[float]:
        """The factor for each operation, in order."""
        return [self.factor(mark) for mark in self.marks]
