"""Exact recognition: girth at least five and no odd induced cycle above five."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SearchBudgetExceeded
from .graph import INFINITY, Graph, canonical_cycle, girth, iter_bits, layer_parity, shortest_cycle
from .structure import SearchBudget, find_long_odd_hole

PENTAGRAPH = "pentagraph"
NOT_PENTAGRAPH = "not_pentagraph"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class RecognitionReport:
    """Outcome of one recognition run.

    A negative verdict always carries a self-certifying witness: a cycle of
    length below five, or an induced odd cycle of length above five. The
    verdict is "indeterminate" only when the search budget ran out; no
    guess is ever reported.
    """

    verdict: str
    girth: int | float
    witness: tuple[int, ...] | None
    bipartite: bool
    reason: str

    @property
    def is_pentagraph(self) -> bool | None:
        if self.verdict == INDETERMINATE:
            return None
        return self.verdict == PENTAGRAPH

    @property
    def indeterminate(self) -> bool:
        return self.verdict == INDETERMINATE


def recognize(G: Graph, budget: SearchBudget | None = None) -> RecognitionReport:
    """Decide membership exactly, or report indeterminate on budget exhaustion.

    The class is: girth at least five, and every induced odd cycle has
    length exactly five. Girth is checked first, so short-cycle witnesses
    are preferred: girth, one frontier sweep per root, decides "below
    five", and only then does shortest_cycle, one breadth-first search per
    edge, build the witness, once. A bipartite graph has no odd cycle, so
    the long-odd-hole search, the only step that can exhaust the budget,
    runs only on a graph that is not. That search decides in a
    smallest-degree-first order of each block and names its witness, the
    first hole through its least label, only on a graph that has one: see
    find_long_odd_hole.
    """
    g = girth(G)
    bip = not layer_parity(G.adj, G.full_mask())[1]
    if g < 5:
        cyc = shortest_cycle(G)
        return RecognitionReport(
            NOT_PENTAGRAPH, g, cyc, bip, f"contains a cycle of length {len(cyc)}"
        )
    try:
        hole = None if bip else find_long_odd_hole(G, budget)
    except SearchBudgetExceeded:
        return RecognitionReport(
            INDETERMINATE, g, None, bip, "search budget exhausted before a verdict"
        )
    if hole is not None:
        return RecognitionReport(
            NOT_PENTAGRAPH,
            g,
            hole.vertices,
            bip,
            f"contains an induced odd cycle of length {hole.length}",
        )
    return RecognitionReport(
        PENTAGRAPH, g, None, bip, "girth at least five and no odd hole above five"
    )


def naive_recognize(G: Graph) -> RecognitionReport:
    """Reference recognizer by brute force over all vertex subsets.

    A subset induces a cycle exactly when it is connected and every vertex
    has two neighbors inside it. Every shortest cycle is induced, so the
    minimum induced-cycle size is the girth, and the absence of odd
    induced cycles is bipartiteness. Exponential; fine up to a dozen
    vertices, meant only as an independent oracle.
    """
    n = G.n
    adj = G.adj
    shortest_mask = 0
    shortest_len = 0
    long_odd_mask = 0
    long_odd_len = 0
    saw_odd = False
    for mask in range(1 << n):
        k = mask.bit_count()
        if k < 3:
            continue
        # Test a subset only if it could still improve one of the three
        # answers: a shorter cycle, a first odd cycle, a shorter long odd
        # hole. First qualifying mask in numeric order wins each slot.
        need_short = not shortest_len or k < shortest_len
        need_parity = k % 2 == 1 and not saw_odd
        need_long = k % 2 == 1 and k >= 7 and (not long_odd_len or k < long_odd_len)
        if not (need_short or need_parity or need_long):
            continue
        rest = mask
        ok = True
        while rest:
            low = rest & -rest
            if (adj[low.bit_length() - 1] & mask).bit_count() != 2:
                ok = False
                break
            rest ^= low
        if not ok:
            continue
        # Its own connectivity sweep, not graph.components_within: the
        # oracle shares no search code with the recognizer it checks.
        seen = mask & -mask
        frontier = seen
        while frontier:
            grow = 0
            for v in iter_bits(frontier):
                grow |= adj[v] & mask & ~seen
            seen |= grow
            frontier = grow
        if seen != mask:
            continue
        if not shortest_len or k < shortest_len:
            shortest_mask, shortest_len = mask, k
        if k % 2:
            saw_odd = True
            if k >= 7 and (not long_odd_len or k < long_odd_len):
                long_odd_mask, long_odd_len = mask, k
    bip = not saw_odd
    if shortest_len and shortest_len < 5:
        return RecognitionReport(
            NOT_PENTAGRAPH,
            shortest_len,
            _cycle_order(G, shortest_mask),
            bip,
            f"contains a cycle of length {shortest_len}",
        )
    g = shortest_len if shortest_len else INFINITY
    if long_odd_len:
        return RecognitionReport(
            NOT_PENTAGRAPH,
            g,
            _cycle_order(G, long_odd_mask),
            bip,
            f"contains an induced odd cycle of length {long_odd_len}",
        )
    return RecognitionReport(
        PENTAGRAPH, g, None, bip, "girth at least five and no odd hole above five"
    )


def _cycle_order(G: Graph, mask: int) -> tuple[int, ...]:
    """Vertices of an induced cycle (given as a mask) in cyclic order,
    canonicalized."""
    start = (mask & -mask).bit_length() - 1
    order = [start]
    prev = -1
    cur = start
    while True:
        nxt = min(v for v in iter_bits(G.adj[cur] & mask) if v != prev)
        if nxt == start:
            break
        order.append(nxt)
        prev, cur = cur, nxt
    return canonical_cycle(tuple(order))
