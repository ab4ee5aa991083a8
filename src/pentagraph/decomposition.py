"""Cutset search and the decomposition disjunction for pentagraphs.

Every certificate type here is validated from scratch before it leaves the
module: a cutset that does not actually disconnect the graph, or a star
whose leaf pairs miss their even paths, is never returned. Strong parity
star-cutsets come from one pipeline of three steps: a clique cutset is
turned into a star directly (``clique_cutset_star``); the builder for one
5-hole reads candidate centers and leaves off its short-jump structure
(``_jump_star``); and the star arm (``find_star_cutset``) runs that builder
on every 5-hole, then one exhaustive sweep bounded only by the budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import ContractViolation, InvariantViolation
from .fixtures import petersen
from .graph import (
    Graph,
    bfs,
    bit_list,
    components_within,
    induced_subgraph,
    is_bipartite,
    iter_bits,
    mask_of,
    path_to,
)
from .structure import (
    Embedding,
    Hole,
    InducedPath,
    SearchBudget,
    contains_induced,
    enumerate_induced_paths,
    find_jumps,
    five_holes,
    is_linked,
)


@dataclass(frozen=True)
class P3Cutset:
    """An induced three-vertex path whose removal disconnects the graph."""

    path: tuple[int, int, int]
    sides: tuple[int, ...]

    def path_mask(self) -> int:
        return mask_of(self.path)

    def validate(self, G: Graph) -> None:
        v1, v2, v3 = self.path
        if len({v1, v2, v3}) != 3:
            raise InvariantViolation("cut path vertices must be distinct")
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

    def leaf_list(self) -> list[int]:
        return bit_list(self.leaves)


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
    leaf_list = bit_list(leaves)
    qualifying = []
    for comp in comps:
        ok = True
        for i, l1 in enumerate(leaf_list):
            for l2 in leaf_list[i + 1 :]:
                found = enumerate_induced_paths(
                    G, l1, l2, comp, parity="even", min_len=2, limit=1, budget=budget
                )
                if not found:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            qualifying.append(comp)
    if not qualifying:
        return None
    for comp in qualifying:
        if G.adj[center] & comp:
            return ParityStarCutset(center, leaves, comp, True, tuple(comps))
    return ParityStarCutset(center, leaves, qualifying[0], False, tuple(comps))


def _minimize_star(G: Graph, cert: ParityStarCutset, budget: SearchBudget) -> ParityStarCutset:
    # Drop leaves while the certificate stays valid and strong. A leaf with
    # no neighbor in some component is always droppable, so at the fixpoint
    # every leaf attaches to every component; the even-path invariant the
    # coloring recursion relies on follows from that.
    changed = True
    while changed:
        changed = False
        for leaf in cert.leaf_list():
            smaller = verify_parity_star_cutset(G, cert.center, cert.leaves & ~(1 << leaf), budget)
            if smaller is not None and smaller.strong:
                cert = smaller
                changed = True
                break
    return cert


def clique_cutset_star(
    G: Graph, clique: tuple[int, ...], budget: SearchBudget
) -> ParityStarCutset | None:
    """The strong star a clique cutset yields, verified and leaf-minimal.

    Each clique vertex in turn is the center and the rest are its leaves:
    a cut vertex has no leaves, a cut edge one. None when no candidate
    verifies as strong, which takes a disconnected graph.
    """
    for center in clique:
        leaves = mask_of(clique) & ~(1 << center)
        cert = verify_parity_star_cutset(G, center, leaves, budget)
        if cert is not None and cert.strong:
            return _minimize_star(G, cert, budget)
    return None


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
                cert = verify_parity_star_cutset(G, x, mask_of(combo), budget)
                if cert is not None and cert.strong:
                    return _minimize_star(G, cert, budget)
    return None


def _jump_star(G: Graph, C: Hole, budget: SearchBudget) -> ParityStarCutset | None:
    """The star-cutset builder for one 5-hole C.

    The pentagon is renumbered (all ten ways) so that short and local jumps
    avoid one side of it, candidate cutsets are read off the short-jump
    interiors next to the quiet side, and each candidate is validated from
    scratch. None when no candidate verifies as strong.
    """
    shorts: dict[int, list] = {c: [] for c in C.vertices}
    locals_: dict[int, list] = {c: [] for c in C.vertices}
    short_interiors = 0
    for j in find_jumps(G, C, budget=budget):
        if j.kind == "short":
            shorts[j.across].append(j)
            short_interiors |= j.path.interior_mask()
        if j.kind in ("short", "local"):
            locals_[j.across].append(j)

    labelings = []
    for r in range(5):
        rot = C.vertices[r:] + C.vertices[:r]
        labelings.append(rot)
        labelings.append(tuple(reversed(rot)))
    tried = set()
    for c1, c2, c3, c4, c5 in labelings:
        # The quiet-side condition: no short jumps across c3, c4, c5, no
        # local jumps across c4, and every local jump across c3 or c5
        # meets the interior of some short jump.
        if shorts[c3] or shorts[c4] or shorts[c5] or locals_[c4]:
            continue
        if any(
            j.path.interior_mask() & short_interiors == 0 for j in locals_[c3] + locals_[c5]
        ):
            continue
        across_c2 = 0
        for j in shorts[c2]:
            across_c2 |= j.path.interior_mask()
        across_c1 = 0
        for j in shorts[c1]:
            across_c1 |= j.path.interior_mask()
        x3 = G.adj[c3] & across_c2
        x5 = G.adj[c5] & across_c1
        for center, leaves in ((c3, x3 | 1 << c4), (c5, x5 | 1 << c4)):
            key = (center, leaves)
            if key in tried:
                continue
            tried.add(key)
            cert = verify_parity_star_cutset(G, center, leaves, budget)
            if cert is not None and cert.strong:
                return _minimize_star(G, cert, budget)
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
    clique = find_clique_cutset(G)
    if clique is not None:
        cert = clique_cutset_star(G, clique, budget)
        if cert is not None:
            return cert
    cert = _jump_star(G, C, budget)
    if cert is not None:
        return cert
    return bruteforce_star_search(G, budget)


ATTACH_MANY = "three_or_more_neighbors"
ATTACH_PAIR = "exactly_two_neighbors"
ATTACH_PATH = "connecting_path"


@dataclass(frozen=True)
class AttachmentReport:
    """How the rest of the graph attaches to a connected induced subgraph.

    Exactly one case applies: some outside vertex has three or more
    neighbors in the subgraph; or some outside vertex has exactly two,
    necessarily nonadjacent, neighbors s and t; or every outside vertex
    has at most one neighbor there and a long induced connecting path
    joins a nonadjacent, non-linked pair s, t through the outside.
    """

    case: str
    vertex: int | None = None
    ends: tuple[int, int] | None = None
    path: InducedPath | None = None
    neighbors: int = 0


def analyze_attachment(G: Graph, H: int) -> AttachmentReport:
    """Classify the attachment of G onto the connected induced subgraph on
    the vertex set H (given as a mask).

    Requires |H| >= 3, H proper, G[H] connected, and no clique cutset in
    G; otherwise the classification below is not guaranteed to apply and a
    ContractViolation is raised.
    """
    full = G.full_mask()
    H &= full
    hverts = bit_list(H)
    if len(hverts) < 3:
        raise ContractViolation("the subgraph needs at least three vertices")
    if H == full:
        raise ContractViolation("the subgraph must be proper")
    if len(components_within(G, H)) != 1:
        raise ContractViolation("the subgraph must be connected")
    if find_clique_cutset(G) is not None:
        raise ContractViolation("the graph admits a clique cutset")

    outside = full & ~H
    for v in iter_bits(outside):
        attached = G.adj[v] & H
        if attached.bit_count() >= 3:
            return AttachmentReport(ATTACH_MANY, vertex=v, neighbors=attached)
    for v in iter_bits(outside):
        attached = G.adj[v] & H
        if attached.bit_count() == 2:
            s, t = bit_list(attached)
            if G.has_edge(s, t):
                raise InvariantViolation("two adjacent attachment points; girth below five")
            return AttachmentReport(ATTACH_PAIR, vertex=v, ends=(s, t), neighbors=attached)

    D = components_within(G, outside)[0]
    path = _min_connector(G, hverts, D)
    if path is None:
        raise InvariantViolation("no nonadjacent pair attaches to the outside component")
    s, t = path.ends
    interior = path.interior_mask()
    for v in hverts:
        if v == s or v == t:
            continue  # the ends touch their own path by definition
        if G.adj[v] & interior and not (G.has_edge(v, s) and G.has_edge(v, t)):
            raise InvariantViolation(
                "a subgraph vertex touches the connector but not both its ends", path
            )
    sub, old_ids = induced_subgraph(G, H)
    pos = {old: new for new, old in enumerate(old_ids)}
    if is_linked(sub, pos[s], pos[t]):
        raise InvariantViolation("connector ends are linked inside the subgraph", path)
    return AttachmentReport(ATTACH_PATH, ends=(s, t), path=path)


def _min_connector(G: Graph, hverts: list[int], D: int) -> InducedPath | None:
    """Shortest path between nonadjacent subgraph vertices with all
    interior vertices in D; shortest-first makes it induced."""
    best = None
    for s in hverts:
        if not G.adj[s] & D:
            continue
        # Distances through D, counted from the neighbors of s in D.
        dist, parent, _ = bfs(G, G.adj[s] & D, D)
        for t in hverts:
            if t == s or G.has_edge(s, t):
                continue
            for z in iter_bits(G.adj[t] & D):
                if dist[z] < 0:
                    continue
                if best is None or dist[z] + 1 < best[0]:
                    walk = [s] + path_to(parent, z) + [t]
                    best = (dist[z] + 1, InducedPath(tuple(walk)))
    if best is None:
        return None
    best[1].validate(G)
    return best[1]


def decompose(G: Graph, budget: SearchBudget | None = None) -> DecompositionOutcome:
    """Return the first arm of the disjunction that applies, with its
    certificate: bipartite, low_degree, petersen, clique_cut, p3, star,
    or none_found.

    Cheap checks run first. The clique cutset is looked for once; the star
    arm, find_star_cutset, runs only when there is none. Budget exhaustion in
    the sub-searches propagates; none_found is reachable only for inputs
    outside the class.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    check = is_bipartite(G)
    if check:
        return DecompositionOutcome(
            "bipartite", two_coloring=tuple(c + 1 for c in check.two_coloring)
        )
    v = find_low_degree(G)
    if v is not None:
        return DecompositionOutcome("low_degree", vertex=v)
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
    if budget is None:
        budget = SearchBudget.fresh()
    v = outcome.variant
    if v == "bipartite":
        col = outcome.two_coloring
        if col is None or len(col) != G.n or any(c not in (1, 2) for c in col):
            raise InvariantViolation("bipartite certificate is not a 2-coloring")
        for a, b in G.edges():
            if col[a] == col[b]:
                raise InvariantViolation(f"edge {a}-{b} is monochromatic")
    elif v == "low_degree":
        if outcome.vertex is None or G.degree(outcome.vertex) > 2:
            raise InvariantViolation("low-degree certificate names a high-degree vertex")
    elif v == "petersen":
        if outcome.embedding is None or G.n != 10:
            raise InvariantViolation("isomorphism certificate is incomplete")
        outcome.embedding.validate(G, petersen())
    elif v == "clique_cut":
        cut = outcome.clique
        if not cut:
            raise InvariantViolation("empty clique certificate")
        for i, a in enumerate(cut):
            for b in cut[i + 1 :]:
                if not G.has_edge(a, b):
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
        if star is None:
            raise InvariantViolation("missing star certificate")
        again = verify_parity_star_cutset(G, star.center, star.leaves, budget)
        if again is None:
            raise InvariantViolation("star certificate fails re-verification")
        if star.strong and not again.strong:
            raise InvariantViolation("star certificate is not strong on re-verification")
    else:
        raise InvariantViolation(f"variant {v!r} certifies nothing")
