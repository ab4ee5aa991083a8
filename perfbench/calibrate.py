"""The calibration kernel: how fast this machine runs Python right now.

On a shared machine the same code runs up to twice as slow for seconds
to minutes at a time while the neighbours are busy, which no amount of
repetition inside a 30 s run averages away. The workloads therefore run
this kernel between graphs, outside the graphs' latency windows, and a
graph's latency is scaled by REFERENCE_S over the kernel's median time
around it: the figures read as on a machine where one kernel call takes
REFERENCE_S, whatever the load. The speed drifts within a round too, so
the median is over the nearest kernel calls only, WINDOW on either side.

The kernel is shaped like pentagraph's hot loop and shares no code with it:
an induced-path DFS by bitmask arithmetic and recursion over a fixed
38-vertex girth-five graph, stopped after NODES nodes. A change to the
program does not change the kernel.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import checks

# One kernel call takes about 0.9 ms on a 2-core Intel Xeon KVM guest with
# Python 3.11 under a typical load; scaled figures read close to wall time
# there.
REFERENCE_S = 1e-3
NODES = 1500
WINDOW = 5
# The first grown member of members.g6.
GRAPH6 = ("e?_O?S?G??D`@?OgA??OB@?@G????AA?????O????O??A@??A???Cc??@??_??`C@???C???O??A??"
          "G??C???C?_???G@?K????A?????OcC?I??_?___C?")
_N, _ADJ = checks.decode_graph6(GRAPH6)


def _dfs() -> int:
    adj = _ADJ
    nodes = 0

    def extend(last: int, excl: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes >= NODES:
            return False
        cand = adj[last] & ~excl
        blocked = excl | adj[last]
        while cand:
            low = cand & -cand
            cand ^= low
            if not extend(low.bit_length() - 1, blocked | low):
                return False
        return True

    extend(0, 1)
    return nodes


def sample() -> float:
    """Seconds taken by one kernel call."""
    t0 = perf_counter()
    _dfs()
    return perf_counter() - t0


def scale(latencies: list[float], marks: list[int], samples: list[float]) -> list[float]:
    """The latencies as on the reference machine. marks[i] is how many kernel
    samples had been taken when graph i ended."""
    factor: dict[int, float] = {}
    out = []
    for x, m in zip(latencies, marks):
        if m not in factor:
            factor[m] = REFERENCE_S / statistics.median(samples[max(0, m - WINDOW):m + WINDOW])
        out.append(x * factor[m])
    return out
