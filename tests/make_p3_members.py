"""Write p3_members.g6, members whose decomposition reaches the cut-path arm.

    python3 tests/make_p3_members.py             # rewrites tests/p3_members.g6

Each graph is the 18-vertex member SIDE with a copy of the Heawood graph
(``test_graph.heawood``: the 14-cycle 0..13 plus the chords i-(i+5), i
even) glued on at some of SIDE's degree-2 vertices z: with x < y the two
neighbours of z in SIDE, Heawood 0, 1 and 13 become z, x and y, and the
other eleven Heawood vertices are new, numbered after the vertices already
there. The glued path x-z-y separates the copy from the rest, so it is a
cut path. On the 45 sets of slots that leave no vertex of degree two (all
seven, and smaller sets whose gluing raises the degree of a neighbouring
slot) decompose returns the p3 arm at the top; on the others the
low-degree arm comes first, and three_color meets cut paths further down,
if at all.

The file holds one line per nonempty set of slots, largest sets first, so
no random choice is involved. Every graph is checked with recognize
before it is written.
"""

from __future__ import annotations

import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pentagraph import (  # noqa: E402
    PENTAGRAPH,
    SearchBudget,
    bit_list,
    make_graph,
    parse_graph6,
    recognize,
    write_graph6,
)
from test_graph import heawood  # noqa: E402

SIDE = "QGASO?P_GA???PC`@_AO??AO_O_"
SLOTS = (1, 2, 10, 11, 12, 15, 16)
OUT = HERE / "p3_members.g6"


def boosted(slots):
    """SIDE with one Heawood copy glued on at each vertex of ``slots``."""
    side = parse_graph6(SIDE)
    edges = list(side.edges())
    n = side.n
    for z in slots:
        x, y = bit_list(side.adj[z])
        image = {0: z, 1: x, 13: y, **{h: n + h - 2 for h in range(2, 13)}}
        n += 11
        # z-x and z-y are edges of SIDE already; make_graph drops duplicates.
        edges += [(image[a], image[b]) for a, b in heawood().edges()]
    return make_graph(n, edges, max_n=128)


def members():
    for size in range(len(SLOTS), 0, -1):
        for slots in combinations(SLOTS, size):
            yield boosted(slots)


def main() -> int:
    lines = ["# p3 arm members: written by tests/make_p3_members.py "
             f"(the Heawood graph glued on {SIDE} at every nonempty subset of {SLOTS})"]
    for G in members():
        verdict = recognize(G, SearchBudget(10**9)).verdict
        if verdict != PENTAGRAPH:
            raise SystemExit(f"not a member ({verdict}): {write_graph6(G)}")
        lines.append(write_graph6(G))
    OUT.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 1} graphs to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
