"""Per-graph theorem checkers behind the CLI's verify command.

Each checker takes one graph assumed to be in the class and returns a
CheckResult: ok means no counterexample, indeterminate means a step budget
stopped the search before an answer. The registry keys are the short
tokens the CLI accepts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import four_color
from .decomposition import (
    clique_cutset_star,
    decompose,
    find_clique_cutset,
    find_p3_cutset,
    find_star_cutset,
    revalidate_outcome,
)
from .errors import InvariantViolation, SearchBudgetExceeded
from .fixtures import fixture
from .graph import Graph
from .structure import (
    SearchBudget,
    contains_induced,
    enumerate_induced_paths,
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
    star-cutset (a clique cutset counts, since it yields one)."""
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
        clique = find_clique_cutset(G)
        if clique is not None:
            # A cut vertex or cut edge always yields a strong star; verify
            # rather than assume.
            if clique_cutset_star(G, clique, budget) is None:
                return CheckResult(
                    False, detail="clique cutset yields no strong star", witness=clique
                )
            return CheckResult(True, detail="clique cutset, strong star verified")
        if find_star_cutset(G, budget) is not None:
            return CheckResult(True, detail="strong parity star-cutset found")
    except SearchBudgetExceeded:
        return CheckResult(True, indeterminate=True, detail="budget ran out")
    return CheckResult(False, detail="no qualifying cutset and not a reference graph")


def check_local_jump_pairs(G: Graph, budget: SearchBudget | None = None) -> CheckResult:
    """For local jumps P1, P2 over a 5-hole sharing exactly one end c,
    a short jump across c exists with interior inside P1* union P2*.

    Vacuous on graphs containing the eight-vertex fixture, matching the
    statement's premise.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    try:
        if contains_induced(G, fixture("p2"), budget) is not None:
            return CheckResult(True, detail="premise void: contains p2")
        pairs_checked = 0
        for hole in five_holes(G, budget):
            local = [j for j in find_jumps(G, hole, budget=budget) if j.kind in ("short", "local")]
            ring = hole.vertices
            hmask = hole.mask()
            for i in range(len(local)):
                for j in range(i + 1, len(local)):
                    e1 = set(local[i].path.ends)
                    e2 = set(local[j].path.ends)
                    shared = e1 & e2
                    if len(shared) != 1:
                        continue
                    c = shared.pop()
                    idx = ring.index(c)
                    a = ring[idx - 1]
                    b = ring[(idx + 1) % len(ring)]
                    allowed = (
                        local[i].path.interior_mask() | local[j].path.interior_mask()
                    ) & ~hmask
                    found = enumerate_induced_paths(
                        G, a, b, allowed, min_len=3, max_len=3, limit=1, budget=budget
                    )
                    pairs_checked += 1
                    if not found:
                        return CheckResult(
                            False,
                            detail=f"no short jump across {c}",
                            witness=(
                                ring,
                                local[i].path.vertices,
                                local[j].path.vertices,
                            ),
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
