"""Per-graph theorem checkers behind the CLI's verify command.

Each checker takes one graph assumed to be in the class and returns a
CheckResult: ok means no counterexample, indeterminate means a step budget
stopped the search before an answer. The registry keys are the short
tokens the CLI accepts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .coloring import four_color
from .decomposition import decompose, find_p3_cutset, find_star_cutset, revalidate_outcome
from .errors import InvariantViolation, SearchBudgetExceeded
from .fixtures import fixture
from .graph import Graph, girth, mask_of, shortest_cycle
from .structure import (
    SearchBudget,
    contains_induced,
    find_jumps,
    five_holes,
    is_isomorphic,
)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one checker on one graph."""

    ok: bool
    indeterminate: bool = False
    detail: str = ""
    witness: tuple | None = None


def check_layered_coloring(G: Graph, budget: SearchBudget | None = None) -> CheckResult:
    """Every breadth-first layer induces a bipartite subgraph and the
    layered 4-coloring comes out proper."""
    try:
        four_color(G)
    except InvariantViolation as e:
        return CheckResult(False, detail=str(e), witness=e.witness)
    return CheckResult(True, detail="all layers bipartite; 4-coloring proper")


def check_decomposition(G: Graph, budget: SearchBudget | None = None) -> CheckResult:
    """decompose() finds an arm and its certificate revalidates."""
    if budget is None:
        budget = SearchBudget.fresh()
    try:
        outcome = decompose(G, budget)
    except SearchBudgetExceeded:
        return CheckResult(True, indeterminate=True, detail="budget ran out in decompose")
    if outcome.variant == "none_found":
        return CheckResult(False, detail="no decomposition arm applies")
    try:
        revalidate_outcome(G, outcome, budget)
    except SearchBudgetExceeded:
        return CheckResult(True, indeterminate=True, detail="budget ran out revalidating")
    except InvariantViolation as e:
        return CheckResult(False, detail=f"{outcome.variant}: {e}", witness=e.witness)
    return CheckResult(True, detail=f"variant {outcome.variant} revalidated")


def check_p2_extension(G: Graph, budget: SearchBudget | None = None) -> CheckResult:
    """A graph with an induced copy of the eight-vertex fixture either is
    one of the four reference graphs or has a cut path or strong parity
    star-cutset.

    A clique cutset needs no branch of its own: in a triangle-free graph
    with a cycle, a cut vertex or cut edge comes with a cut path. If the
    graph is disconnected, three consecutive vertices of a cycle cut it.
    If v is a cut vertex of a connected graph, take neighbours x and y of
    v, x in the component of G - v that holds a cycle with or without v
    and y in another: x-v-y cuts the graph unless y alone is the other
    component; then two neighbours of v in x's component do, or w-x-v
    when x is v's only neighbour there. If
    the graph is 2-connected and uv is a cut edge, every component of
    G - u - v meets both ends, so one has two vertices (else uv lies on a
    triangle), and x-u-v with x a neighbour of u in it cuts the graph.
    The fixture holds a cycle, so on triangle-free input the cut-path
    search answers wherever a clique cutset exists.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    p2 = fixture("p2")
    try:
        if contains_induced(G, p2, budget) is None:
            return CheckResult(True, detail="premise void: no induced copy of p2")
        for name in ("petersen", "p0", "p1", "p2"):
            if is_isomorphic(G, fixture(name), budget):
                return CheckResult(True, detail=f"isomorphic to {name}")
        if find_p3_cutset(G) is not None:
            return CheckResult(True, detail="cut path found")
        if find_star_cutset(G, budget) is not None:
            return CheckResult(True, detail="strong parity star-cutset found")
    except SearchBudgetExceeded:
        return CheckResult(True, indeterminate=True, detail="budget ran out")
    return CheckResult(False, detail="no qualifying cutset and not a reference graph")


def check_local_jump_pairs(G: Graph, budget: SearchBudget | None = None) -> CheckResult:
    """For local jumps P1, P2 over a 5-hole sharing exactly one end c,
    a short jump across c exists with interior inside P1* union P2*.

    Vacuous on graphs containing the eight-vertex fixture, matching the
    statement's premise. Of the class, only girth is checked: a graph of
    girth below five raises InvariantViolation with a shortest cycle as
    witness, and a long odd hole goes unnoticed.

    The short jumps come from the same ``find_jumps`` call as the pairs.
    With a and b the ring neighbours of c and d, e the far hole vertices,
    an induced path a-x-y-b with x and y off the hole cannot touch c, d or
    e once girth is at least five: x next to c or e, or y next to c or d,
    closes a triangle, and x next to d or y next to e a 4-cycle through
    e-d. So it is exactly a short jump across c that ``find_jumps`` lists.
    """
    if girth(G) < 5:
        cycle = shortest_cycle(G)
        raise InvariantViolation(f"contains a cycle of length {len(cycle)}", cycle)
    if budget is None:
        budget = SearchBudget.fresh()
    try:
        if contains_induced(G, fixture("p2"), budget) is not None:
            return CheckResult(True, detail="premise void: contains p2")
        pairs_checked = 0
        for hole in five_holes(G, budget):
            local = find_jumps(G, hole, budget=budget)
            short = {c: [] for c in hole.vertices}
            for jump in local:
                if jump.kind == "short":
                    short[jump.across].append(jump.path.interior_mask())
            # Runs of jumps with one end pair, in find_jumps order. Two jumps
            # of a run share both ends, so a pair qualifies only across runs
            # whose end pairs meet in one vertex, taken in (i, j) order.
            runs = [
                (ends, [(jump.path.interior_mask(), jump.path.vertices) for jump in run])
                for ends, run in groupby(local, key=lambda jump: mask_of(jump.path.ends))
            ]
            for r, (ends, run) in enumerate(runs):
                meeting = [
                    ((ends & e).bit_length() - 1, later)
                    for e, later in runs[r + 1 :]
                    if (ends & e).bit_count() == 1
                ]
                for m1, p1 in run:
                    for c, later in meeting:
                        for m2, p2 in later:
                            pairs_checked += 1
                            if all(m & ~(m1 | m2) for m in short[c]):
                                return CheckResult(
                                    False,
                                    detail=f"no short jump across {c}",
                                    witness=(hole.vertices, p1, p2),
                                )
    except SearchBudgetExceeded:
        return CheckResult(True, indeterminate=True, detail="budget ran out")
    return CheckResult(True, detail=f"{pairs_checked} qualifying pairs all held")


CHECKS = {
    "t12": check_layered_coloring,
    "t13": check_decomposition,
    "t25": check_p2_extension,
    "t31": check_local_jump_pairs,
}
