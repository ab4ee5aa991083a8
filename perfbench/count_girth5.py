"""Count labeled graphs of girth at least five by brute force.

Recomputes, apart from the library, the per-n figures that the
small-exhaustive workload checks its stream against. Every one of the
2^(n(n-1)/2) labeled graphs on n vertices is built and tested with the
common-neighbour rule: a graph has girth at least five exactly when no two
vertices share two neighbours and no two adjacent vertices share one.
Labeled 7-cycles are counted too; they are the only girth-five graphs on
at most seven vertices that hold an odd hole longer than five.

    python3 perfbench/count_girth5.py 7     # about 15 s on one core
"""

from __future__ import annotations

import sys


def girth_at_least_5(n: int, adj: list[int]) -> bool:
    for u in range(n):
        for v in range(u + 1, n):
            common = (adj[u] & adj[v]).bit_count()
            if common > 1 or (common and adj[u] >> v & 1):
                return False
    return True


def is_seven_cycle(n: int, adj: list[int]) -> bool:
    if n != 7 or any(a.bit_count() != 2 for a in adj):
        return False
    seen = frontier = 1
    while frontier:
        grow = 0
        for v in range(n):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def count(n: int) -> tuple[int, int]:
    """(girth-five graphs, labeled 7-cycles among them) on n vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    total = cycles = 0
    for picks in range(1 << len(pairs)):
        adj = [0] * n
        for k, (u, v) in enumerate(pairs):
            if picks >> k & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if girth_at_least_5(n, adj):
            total += 1
            cycles += is_seven_cycle(n, adj)
    return total, cycles


def main(argv: list[str]) -> int:
    n_max = int(argv[1]) if len(argv) > 1 else 7
    grand = 0
    for n in range(n_max + 1):
        total, cycles = count(n)
        grand += total
        print(f"n={n} girth5={total} seven_cycles={cycles}")
    print(f"total={grand}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
