"""Cutset search and the decomposition disjunction for pentagraphs.

Every certificate type here is validated from scratch before it leaves the
module: a cutset that does not actually disconnect the graph, or a star
whose leaf pairs miss their even paths, is never returned. Every strong
parity star-cutset passes through one step, ``_strong_star``, which
verifies a candidate and drops its leaves while it stays strong. The
candidates come from a clique cutset, each of its vertices in turn the
center (``find_strong_parity_star_cutset``); from the builder for one
5-hole, which reads centers and leaves off its short-jump structure
(``_jump_star``); and from one exhaustive sweep bounded only by the
budget. The star arm (``find_star_cutset``) runs the builder on every
5-hole, then the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ContractViolation, InvariantViolation
from .fixtures import petersen
from .graph import Graph, bit_list, components_within, iter_bits, layer_parity, mask_of
from .structure import (
    Embedding,
    Hole,
    SearchBudget,
    contains_induced,
    enumerate_induced_paths,
    find_jumps,
    five_holes,
)


@dataclass(frozen=True)
class P3Cutset:
    """An induced three-vertex path whose removal disconnects the graph."""

    path: tuple[int, int, int]
    sides: tuple[int, ...]

    def path_mask(self) -> int:
        return mask_of(self.path)

    def validate(self, G: Graph) -> None:
        if len(self.path) != 3 or len({v for v in self.path if 0 <= v < G.n}) != 3:
            raise InvariantViolation("cut path vertices must be three distinct vertices")
        v1, v2, v3 = self.path
        if not (G.has_edge(v1, v2) and G.has_edge(v2, v3)) or G.has_edge(v1, v3):
            raise InvariantViolation(f"{self.path} is not an induced three-vertex path")
        comps = components_within(G, G.full_mask() & ~self.path_mask())
        if tuple(comps) != self.sides:
            raise InvariantViolation("stored sides do not match the components")
        if len(comps) < 2:
            raise InvariantViolation("removing the path does not disconnect the graph")


@dataclass(frozen=True)
class ParityStarCutset:
    """A star cutset with the even-path property.

    The cutset is {center} plus ``leaves``; the center is adjacent to every
    leaf. ``witness_component`` is a component of the remainder in which
    every two leaves are joined by an even induced path; ``strong`` records
    that the center has a neighbor in that component.
    """

    center: int
    leaves: int
    witness_component: int
    strong: bool
    components: tuple[int, ...]

    def cutset_mask(self) -> int:
        return self.leaves | 1 << self.center


@dataclass(frozen=True)
class DecompositionOutcome:
    """One arm of the decomposition disjunction, with its certificate."""

    variant: str
    two_coloring: tuple[int, ...] | None = None
    embedding: Embedding | None = None
    vertex: int | None = None
    clique: tuple[int, ...] | None = None
    p3: P3Cutset | None = None
    star: ParityStarCutset | None = field(default=None)


def find_low_degree(G: Graph) -> int | None:
    """Least vertex of degree at most two, if any."""
    for v in range(G.n):
        if G.degree(v) <= 2:
            return v
    return None


def find_clique_cutset(G: Graph) -> tuple[int, ...] | None:
    """A cut vertex, else a cut edge, else None.

    In a triangle-free graph these are the only possible clique cutsets.
    Vertices and edges are scanned ascending, so the answer is stable.
    """
    full = G.full_mask()
    for v in range(G.n):
        if len(components_within(G, full & ~(1 << v))) >= 2:
            return (v,)
    for u, v in G.edges():
        if len(components_within(G, full & ~(1 << u) & ~(1 << v))) >= 2:
            return (u, v)
    return None


def find_p3_cutset(G: Graph) -> P3Cutset | None:
    """First induced 3-path (lexicographic, oriented with v1 < v3) whose
    removal disconnects the graph."""
    full = G.full_mask()
    for v1 in range(G.n):
        for v2 in iter_bits(G.adj[v1]):
            for v3 in iter_bits(G.adj[v2] & ~G.adj[v1] & ~(1 << v1)):
                if v3 <= v1:
                    continue
                keep = full & ~mask_of((v1, v2, v3))
                comps = components_within(G, keep)
                if len(comps) >= 2:
                    cut = P3Cutset((v1, v2, v3), tuple(comps))
                    cut.validate(G)
                    return cut
    return None


def verify_parity_star_cutset(
    G: Graph, center: int, leaves: int, budget: SearchBudget | None = None
) -> ParityStarCutset | None:
    """Validate a candidate star cutset from scratch.

    Checks that removing {center} plus leaves disconnects the graph and
    that some component joins every two leaves by an even induced path
    with interior inside it. Returns the validated certificate (strong
    when the center also has a neighbor in such a component, preferring a
    strong witness), or None.
    """
    if not 0 <= center < G.n:
        raise ContractViolation("center must be a vertex")
    if leaves & ~G.full_mask():
        raise ContractViolation("leaves outside the graph")
    if leaves >> center & 1:
        raise ContractViolation("the center cannot be one of its leaves")
    if leaves & ~G.adj[center]:
        raise ContractViolation("the center must be adjacent to every leaf")
    if budget is None:
        budget = SearchBudget.fresh()
    remainder = G.full_mask() & ~leaves & ~(1 << center)
    comps = components_within(G, remainder)
    if len(comps) < 2:
        return None
    qualifying = [comp for comp in comps if _joins_leaves_evenly(G, leaves, comp, budget)]
    if not qualifying:
        return None
    strong = [comp for comp in qualifying if G.adj[center] & comp]
    return ParityStarCutset(center, leaves, (strong or qualifying)[0], bool(strong), tuple(comps))


def _joins_leaves_evenly(G: Graph, leaves: int, comp: int, budget: SearchBudget) -> bool:
    """Whether every two leaves are joined by an even induced path with
    interior inside ``comp``; pairs in ascending order, first failure ends."""
    return all(
        enumerate_induced_paths(G, l1, l2, comp, parity="even", min_len=2, limit=1, budget=budget)
        for l1, l2 in combinations(bit_list(leaves), 2)
    )


def _strong_star(
    G: Graph, center: int, leaves: int, budget: SearchBudget
) -> ParityStarCutset | None:
    """The star {center} plus ``leaves`` verified as strong, less every leaf
    it can drop and stay strong, lowest leaf first; None unless it is
    strong.

    A leaf with no neighbor in some component is always droppable, so
    every leaf of the result attaches to every component; the even-path
    invariant the coloring recursion relies on follows from that.
    """
    cert = verify_parity_star_cutset(G, center, leaves, budget)
    if cert is None or not cert.strong:
        return None
    for leaf in bit_list(leaves):
        smaller = _strong_star(G, center, leaves & ~(1 << leaf), budget)
        if smaller is not None:
            return smaller
    return cert


# Centers with more neighbors than this are tried last: their leaf subsets
# are the most numerous, and the budget is the only bound on the search.
MAX_LEAF_POOL = 12


def bruteforce_star_search(
    G: Graph, budget: SearchBudget | None = None
) -> ParityStarCutset | None:
    """Exhaustive strong-star search: centers ascending, those with more
    than ``MAX_LEAF_POOL`` neighbors after all others, leaf subsets of the
    center's neighborhood by increasing size.

    Exponential in the degree; None only after every center was tried.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    for x in sorted(range(G.n), key=lambda x: G.degree(x) > MAX_LEAF_POOL):
        nbrs = bit_list(G.adj[x])
        for size in range(len(nbrs) + 1):
            for combo in combinations(nbrs, size):
                budget.spend()
                cert = _strong_star(G, x, mask_of(combo), budget)
                if cert is not None:
                    return cert
    return None


def _jump_star(G: Graph, C: Hole, budget: SearchBudget) -> ParityStarCutset | None:
    """The star-cutset builder for one 5-hole C.

    The pentagon is renumbered (all ten ways) so that short and local jumps
    avoid one side of it, candidate cutsets are read off the short-jump
    interiors next to the quiet side, and each candidate is validated from
    scratch. None when no candidate verifies as strong.
    """
    # The interiors of the short jumps across each hole vertex; a short
    # jump has two interior vertices, so an entry is nonzero exactly when
    # such a jump exists.
    shorts = dict.fromkeys(C.vertices, 0)
    locals_: dict[int, list] = {c: [] for c in C.vertices}
    short_interiors = 0
    for j in find_jumps(G, C, budget=budget):
        if j.kind == "short":
            shorts[j.across] |= j.path.interior_mask()
            short_interiors |= j.path.interior_mask()
        locals_[j.across].append(j)

    labelings = []
    for r in range(5):
        rot = C.vertices[r:] + C.vertices[:r]
        labelings.append(rot)
        labelings.append(tuple(reversed(rot)))
    tried = set()
    for c1, c2, c3, c4, c5 in labelings:
        # The quiet-side condition: no jumps across c4, no short jumps
        # across c3 or c5, and every local jump across c3 or c5 meets the
        # interior of some short jump.
        if shorts[c3] or shorts[c5] or locals_[c4]:
            continue
        if any(
            j.path.interior_mask() & short_interiors == 0 for j in locals_[c3] + locals_[c5]
        ):
            continue
        x3 = G.adj[c3] & shorts[c2]
        x5 = G.adj[c5] & shorts[c1]
        for center, leaves in ((c3, x3 | 1 << c4), (c5, x5 | 1 << c4)):
            key = (center, leaves)
            if key in tried:
                continue
            tried.add(key)
            cert = _strong_star(G, center, leaves, budget)
            if cert is not None:
                return cert
    return None


def find_star_cutset(G: Graph, budget: SearchBudget) -> ParityStarCutset | None:
    """The star arm for a graph with no clique cutset: the jump builder on
    every 5-hole in turn, then one exhaustive sweep."""
    for hole in five_holes(G, budget):
        cert = _jump_star(G, hole, budget)
        if cert is not None:
            return cert
    return bruteforce_star_search(G, budget)


def find_strong_parity_star_cutset(
    G: Graph, C: Hole, budget: SearchBudget | None = None
) -> ParityStarCutset | None:
    """A strong parity star-cutset, tried first from a clique cutset, then
    from the jump structure of the 5-hole C, then by the exhaustive sweep.

    Every returned certificate is strong and leaf-minimal.
    """
    if C.length != 5:
        raise ContractViolation("the hole must have length five")
    C.validate(G)
    if budget is None:
        budget = SearchBudget.fresh()
    # Each vertex of a clique cutset in turn is the center and the rest are
    # its leaves: a cut vertex has no leaves, a cut edge one.
    clique = find_clique_cutset(G)
    for center in clique or ():
        cert = _strong_star(G, center, mask_of(clique) & ~(1 << center), budget)
        if cert is not None:
            return cert
    cert = _jump_star(G, C, budget)
    if cert is not None:
        return cert
    return bruteforce_star_search(G, budget)


def decompose(G: Graph, budget: SearchBudget | None = None) -> DecompositionOutcome:
    """Return the first arm of the disjunction that applies, with its
    certificate: bipartite, low_degree, petersen, clique_cut, p3, star,
    or none_found.

    Cheap checks run first. The clique cutset is looked for once; the star
    arm, find_star_cutset, runs only when there is none. Budget exhaustion in
    the sub-searches propagates; none_found is reachable only for inputs
    outside the class.
    """
    odd, clash = layer_parity(G.adj, G.full_mask())
    if not clash:
        return DecompositionOutcome(
            "bipartite", two_coloring=tuple([1 + (odd >> v & 1) for v in range(G.n)])
        )
    v = find_low_degree(G)
    if v is not None:
        return DecompositionOutcome("low_degree", vertex=v)
    if budget is None:
        budget = SearchBudget.fresh()
    if G.n == 10 and G.edge_count() == 15:
        emb = contains_induced(G, petersen(), budget)
        if emb is not None:
            return DecompositionOutcome("petersen", embedding=emb)
    clique = find_clique_cutset(G)
    if clique is not None:
        return DecompositionOutcome("clique_cut", clique=clique)
    p3 = find_p3_cutset(G)
    if p3 is not None:
        return DecompositionOutcome("p3", p3=p3)
    cert = find_star_cutset(G, budget)
    if cert is not None:
        return DecompositionOutcome("star", star=cert)
    return DecompositionOutcome("none_found")


def revalidate_outcome(
    G: Graph, outcome: DecompositionOutcome, budget: SearchBudget | None = None
) -> None:
    """Re-check a decomposition certificate from scratch.

    Raises InvariantViolation when the certificate does not hold on G,
    including for none_found, which certifies nothing.
    """
    v = outcome.variant
    if v == "bipartite":
        col = outcome.two_coloring
        if col is None or len(col) != G.n:
            raise InvariantViolation("bipartite certificate is not a 2-coloring")
        # One pass builds the two colour classes, one mask test per vertex
        # then finds its least later neighbour of its own colour: the first
        # monochromatic edge in (a, b) order.
        sides = {1: 0, 2: 0}
        for u, c in enumerate(col):
            if c not in (1, 2):
                raise InvariantViolation("bipartite certificate is not a 2-coloring")
            sides[c] |= 1 << u
        for a, row in enumerate(G.adj):
            same = (row & sides[col[a]]) >> a
            if same:
                b = a + (same & -same).bit_length() - 1
                raise InvariantViolation(f"edge {a}-{b} is monochromatic")
    elif v == "low_degree":
        if outcome.vertex not in range(G.n) or G.degree(outcome.vertex) > 2:
            raise InvariantViolation("low-degree certificate names no vertex of degree at most 2")
    elif v == "petersen":
        if outcome.embedding is None or G.n != 10:
            raise InvariantViolation("isomorphism certificate is incomplete")
        outcome.embedding.validate(G, petersen())
    elif v == "clique_cut":
        cut = outcome.clique
        if not cut or not 0 <= min(cut) <= max(cut) < G.n:
            raise InvariantViolation(f"clique certificate {cut} is empty or names a non-vertex")
        if not all(G.has_edge(a, b) for a, b in combinations(cut, 2)):
            raise InvariantViolation(f"{cut} is not a clique")
        rest = G.full_mask() & ~mask_of(cut)
        if len(components_within(G, rest)) < 2:
            raise InvariantViolation(f"removing {cut} does not disconnect the graph")
    elif v == "p3":
        if outcome.p3 is None:
            raise InvariantViolation("missing cut-path certificate")
        outcome.p3.validate(G)
    elif v == "star":
        star = outcome.star
        # Leaves must be neighbours of the center, so vertices other than it.
        if star is None or not 0 <= star.center < G.n or star.leaves & ~G.adj[star.center]:
            raise InvariantViolation("star certificate is missing or not a star of the graph")
        comps = tuple(components_within(G, G.full_mask() & ~star.cutset_mask()))
        w = star.witness_component
        if len(comps) < 2 or star.components != comps or w not in comps:
            raise InvariantViolation("star certificate's components fail re-verification")
        if not _joins_leaves_evenly(G, star.leaves, w, budget or SearchBudget.fresh()):
            raise InvariantViolation("the witness component misses an even leaf-to-leaf path")
        if star.strong != bool(G.adj[star.center] & w):
            raise InvariantViolation("strong flag disagrees with the center's witness neighbors")
    else:
        raise InvariantViolation(f"variant {v!r} certifies nothing")
