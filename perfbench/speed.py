"""Host speed calibration.

The benchmark's host is a shared virtual machine whose CPU speed swings by
a factor of two or more over seconds to minutes while no steal time shows
in /proc/stat: with Python 3.11 on 2 vCPUs, the same fixed loop took 27 ms
per call in one stretch and 40 ms in another, and the probe below ranged
over 2.6x within one hour. Seeds and runs then disagree by more than any
useful regression bound. So the benchmark times a short fixed probe before
each operation (at most every PROBE_GAP_S) and scales the operation's wall
time by REFERENCE_PROBE_S over the median probe time around it, raised to
SENSITIVITY. Times are reported in seconds at the reference speed: the
speed at which the probe takes REFERENCE_PROBE_S, about this host's
fastest stretch.

The probe is the benchmark's own code, never the program's, so a change to
the program moves scaled times exactly as it moves wall times. Its working
set is small, so what ran before it does not change its cache state much.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REFERENCE_PROBE_S = 0.00056
# Measured over 150 s of interleaved runs while the probe's speed ranged
# over 1.85x, the log time of the program's operations (oracle, worklist,
# parse, replay_script) moved by 0.70 to 0.94 times the probe's log time,
# 0.83 on average.
SENSITIVITY = 0.83
PROBE_GAP_S = 0.02
WINDOW_S = 0.25


def _probe_graph() -> list[dict[int, int]]:
    rng = random.Random(20170830)
    n = 300
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for e in range(2 * n):
        u, v = (e % n, (e + 1) % n) if e < n else (rng.randrange(n), rng.randrange(n))
        if u != v:
            adj[u][e] = v
            adj[v][e] = u
    return adj


_ADJ = _probe_graph()


def probe_work(adj: list[dict[int, int]] = _ADJ) -> int:
    """An iterative lowpoint DFS over a fixed graph, then a small dict loop:
    the interpreter work the program does, on a working set that stays cached."""
    disc = {0: 0}
    low = {0: 0}
    clock = 1
    stack = [(0, -1, iter(adj[0].items()))]
    while stack:
        x, pe, it = stack[-1]
        for e, w in it:
            if e == pe:
                continue
            dw = disc.get(w)
            if dw is None:
                disc[w] = low[w] = clock
                clock += 1
                stack.append((w, e, iter(adj[w].items())))
                break
            if dw < low[x]:
                low[x] = dw
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[x])
    d: dict[int, int] = {}
    s = 0
    for i in range(4000):
        d[i & 63] = i
        s += d.get((i * 7) & 63, 0)
    return s + clock


class SpeedLog:
    """Probe times by wall-clock instant; scales intervals to the reference speed."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            probe_work()
            self.at.append(t0)
            self.took.append(time.perf_counter() - t0)

    def maybe_probe(self) -> None:
        if not self.at or time.perf_counter() - self.at[-1] >= PROBE_GAP_S:
            self.probe()

    def scaled(self, start: float, seconds: float) -> float:
        """Wall seconds from `start` as seconds at the reference speed.

        Uses the median of the probes within WINDOW_S of the interval, and
        always the last probe before it and the first after it.
        """
        lo = min(bisect.bisect_left(self.at, start - WINDOW_S), bisect.bisect_left(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, start + seconds + WINDOW_S),
                 bisect.bisect_right(self.at, start + seconds) + 1)
        local = statistics.median(self.took[max(lo, 0):hi])
        return seconds * (REFERENCE_PROBE_S / local) ** SENSITIVITY
