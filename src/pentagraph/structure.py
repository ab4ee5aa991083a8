"""Induced paths, holes, jumps over 5-holes, and induced-subgraph search.

All searches here are exact. Anything that could blow up on an adversarial
input carries a step budget; running out raises SearchBudgetExceeded, which
callers surface as an explicit "indeterminate" rather than ever guessing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ContractViolation, InvariantViolation, SearchBudgetExceeded
from .graph import Graph, _frontiers, bit_list, blocks, iter_bits, layer_parity, mask_of

DEFAULT_MAX_STEPS = 10_000_000


def default_max_steps() -> int:
    """Step allowance for one query; PENTA_MAX_STEPS overrides."""
    raw = os.environ.get("PENTA_MAX_STEPS")
    if not raw:
        return DEFAULT_MAX_STEPS
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_MAX_STEPS
    return value if value > 0 else DEFAULT_MAX_STEPS


class SearchBudget:
    """Mutable counter of remaining search steps, shared down a call tree."""

    __slots__ = ("remaining",)

    def __init__(self, steps: int):
        self.remaining = steps

    @staticmethod
    def fresh() -> "SearchBudget":
        return SearchBudget(default_max_steps())

    def spend(self, k: int = 1) -> None:
        self.remaining -= k
        if self.remaining < 0:
            raise SearchBudgetExceeded("search budget exhausted")


@dataclass(frozen=True)
class InducedPath:
    """An induced path given by its vertex sequence (ends included)."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        """Number of edges."""
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def interior_mask(self) -> int:
        return mask_of(self.vertices[1:-1])

    def validate(self, G: Graph) -> None:
        """Raise InvariantViolation unless the vertices are distinct ids of
        G, consecutive ones adjacent and no others: the first missing edge
        along the path, else the first chord in (i, j) order."""
        seq = self.vertices
        if len(seq) < 2 or len(set(seq)) != len(seq) or not 0 <= min(seq) <= max(seq) < G.n:
            raise InvariantViolation(f"not a path: {seq}")
        adj = G.adj
        for u, v in zip(seq, seq[1:]):
            if not adj[u] >> v & 1:
                raise InvariantViolation(f"missing edge {u}-{v} in {seq}")
        # One mask per vertex: its neighbours among the vertices two or more
        # places on. A chord to an earlier vertex showed at that vertex.
        ahead = mask_of(seq[2:])
        for i, u in enumerate(seq[:-2]):
            if adj[u] & ahead:
                v = next(v for v in seq[i + 2 :] if adj[u] >> v & 1)
                raise InvariantViolation(f"chord {u}-{v} in {seq}")
            ahead ^= 1 << seq[i + 2]


@dataclass(frozen=True)
class Hole:
    """An induced cycle of length at least four, as a cyclic vertex tuple."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        return mask_of(self.vertices)

    def validate(self, G: Graph) -> None:
        """Raise InvariantViolation unless the vertices are at least four
        distinct ids of G and each is adjacent to its two ring neighbours
        and no other: the first offending pair (i, j), i < j, names a chord
        or a missing edge."""
        seq = self.vertices
        k = len(seq)
        if k < 4 or len(set(seq)) != k or not 0 <= min(seq) <= max(seq) < G.n:
            raise InvariantViolation(f"not a hole: {seq}")
        adj = G.adj
        # One mask per vertex: its neighbours among the later vertices, which
        # must be the next one, and for the first vertex also the last. A
        # mismatch with an earlier vertex showed at that vertex.
        ahead = mask_of(seq)
        for i, u in enumerate(seq[:-1]):
            ahead ^= 1 << u
            want = 1 << seq[i + 1] | (1 << seq[-1] if i == 0 else 0)
            bad = (adj[u] & ahead) ^ want
            if bad:
                v = next(v for v in seq[i + 1 :] if bad >> v & 1)
                kind = "chord" if adj[u] >> v & 1 else "missing edge"
                raise InvariantViolation(f"{kind} {u}-{v} in cycle {seq}")


@dataclass(frozen=True)
class Embedding:
    """Induced embedding of a pattern: mapping[p] is the host vertex of p."""

    mapping: tuple[int, ...]

    def validate(self, G: Graph, pattern: Graph) -> None:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            raise InvariantViolation("embedding is not injective on the pattern")
        if m and not 0 <= min(m) <= max(m) < G.n:
            raise InvariantViolation(f"embedding {m} names a vertex outside the graph")
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != G.has_edge(m[u], m[v]):
                    raise InvariantViolation(f"adjacency mismatch at pattern pair ({u}, {v})")


def enumerate_induced_paths(
    G: Graph,
    s: int,
    t: int,
    interior_allowed: int,
    *,
    parity: str = "any",
    min_len: int = 1,
    max_len: int | None = None,
    limit: int | None = None,
    budget: SearchBudget | None = None,
) -> list[InducedPath]:
    """All induced s-t paths whose interior lies inside ``interior_allowed``.

    Paths are found by DFS from s, extending only to vertices with no
    neighbor among the non-adjacent earlier path vertices, so every partial
    path is itself induced. ``parity`` is one of "any", "even", "odd" and,
    with ``min_len``/``max_len``, constrains the number of edges. Output
    order is the DFS order, which is fixed by ascending vertex ids; the
    list is exhaustive unless ``limit`` cut it short (detectable by
    ``len(result) == limit``; a ``limit`` below 1 is refused).

    Each cut drops only subtrees that hold no answer, so the list, its
    order and every ``limit`` prefix are those of the plain DFS. First,
    once the path's last vertex is adjacent to t, the path either ends at t
    there or not at all, because every longer path through that vertex
    would have a chord to t. The DFS records the path to t and returns, so
    a pendant tree hanging off a neighbor of t costs one step, not a walk
    of the tree. Second, with ``max_len`` set, the distances to t inside
    ``interior_allowed`` are taken once, and a path of k edges goes on only
    to vertices within ``max_len - k`` of t: the rest of the path lies
    inside ``interior_allowed`` and is no shorter than that distance, so
    only subtrees with no path short enough go.

    Third, without ``max_len``, the root and every node with two or more
    children sweep once from t through R, the allowed vertices that are
    neither on the path nor adjacent to it (see ``_children_reaching_t``).
    A path that goes on through the child z ends z, w1, ..., wk, t with
    every wi in R, so z is adjacent to t or to t's part of R, and the other
    children go. When the sweep finds no edge inside one of its layers,
    t's part of R is bipartite, and every walk from a vertex of layer d to
    t has d's parity; so with a parity asked for, only the children
    adjacent to a layer of the parity that completes the path stay.

    Below the root, a node X with a lone child z enters it with no sweep.
    Every node below the root touches t's part of its parent's region R: a
    sweep keeps only such children, and the argument that follows shows it
    for lone ones. X's neighbours in R are its children, so z lies in t's
    part of R. The vertex before z on a shortest t-z path inside R avoids
    z, so z touches t's part of R - z, which is X's own region. With no
    parity asked for, X's sweep would keep z, so the DFS visits the same
    nodes as with a sweep at every node. With a parity asked for, X may
    have been kept only through an odd cycle in t's part of R that R - z no
    longer holds, and X's sweep would refuse z; the DFS then enters z, and
    any lone children after it, until a node's own sweep refuses the branch
    or it ends beside t with the wrong parity. The root always sweeps: no
    sweep vouches for it, and its lone child may lead into a branch that
    never reaches t. The search is still exact and exponential in the worst
    case. Chudnovsky, Scott and Seymour show that a long odd hole can be
    found in polynomial time ("Detecting a long odd hole", Combinatorica
    2021); this DFS does not attempt that.

    The DFS is one loop over an explicit stack, so its depth is not bound by
    Python's recursion limit. Each DFS node costs one budget step, and the
    sweeps cost none. The steps are counted locally and charged once per
    call, which raises at the same node, with the same ``remaining``, as a
    charge per node would: nothing else spends the budget during the call.
    Exhausting the budget raises SearchBudgetExceeded, it never silently
    returns a partial answer.
    """
    if s == t:
        raise ContractViolation("path ends must be distinct")
    if not (0 <= s < G.n and 0 <= t < G.n):
        raise ContractViolation("path ends must be vertices")
    if parity not in ("any", "even", "odd"):
        raise ContractViolation(f"bad parity {parity!r}")
    if limit is not None and limit < 1:
        raise ContractViolation(f"limit must be at least 1, got {limit}")
    if budget is None:
        budget = SearchBudget.fresh()
    adj = G.adj
    allowed = interior_allowed & G.full_mask() & ~(1 << s) & ~(1 << t)
    tbit = 1 << t
    near = None
    if max_len is not None:
        # near[k]: the allowed vertices a path of k edges may go on to,
        # those within top - k of t; top is max_len, capped at n because no
        # path has n edges. near[k] is 0 from k = top on.
        top = max(1, min(max_len, G.n))
        near = [0] * (top + 1)
        layers = _frontiers(G, tbit, allowed)
        next(layers)  # t itself
        ball = 0
        for k in range(top - 1, 0, -1):
            ball |= next(layers, 0)
            near[k] = ball
    parity_bit = {"even": 0, "odd": 1}.get(parity)
    results: list[InducedPath] = []
    # The node is the path's last vertex, entered with the excluded set
    # excl; stack[i] is (blocked, children not yet tried) of path[i], one
    # frame per path vertex but the last.
    path = [s]
    stack: list[tuple[int, int]] = []
    last, excl = s, 1 << s
    cap = budget.remaining
    nodes = 0
    while True:
        nodes += 1
        if nodes > cap:
            budget.spend(nodes)  # raises, as a charge per node would here
        cand = adj[last] & ~excl
        if cand & tbit:
            edges = len(path)
            if (
                edges >= min_len
                and (max_len is None or edges <= max_len)
                and (parity_bit is None or edges & 1 == parity_bit)
            ):
                results.append(InducedPath(tuple(path) + (t,)))
                if limit is not None and len(results) >= limit:
                    break
            # t joins the excluded set of every extension: no path below.
            rest = 0
        else:
            blocked = excl | adj[last]
            if near is None:
                rest = cand & allowed
                # The root sweeps for any child; a node below it only for two
                # or more, since a lone child already touches t's part.
                if rest and (not stack or rest & (rest - 1)):
                    # A child z completes the path with 1 + d more edges through
                    # layer d, so the wanted layers have d = parity - len(path) - 1.
                    want = None if parity_bit is None else (parity_bit ^ len(path) ^ 1) & 1
                    rest = _children_reaching_t(adj, tbit, allowed & ~blocked, rest, want)
            else:
                rest = cand & near[len(path)]
        while not rest:
            if not stack:
                budget.spend(nodes)
                return results
            path.pop()
            blocked, rest = stack.pop()
        low = rest & -rest
        stack.append((blocked, rest ^ low))
        last = low.bit_length() - 1
        excl = blocked | low
        path.append(last)
    budget.spend(nodes)
    return results


def _children_reaching_t(adj, tbit: int, region: int, kids: int, want: int | None) -> int:
    """The kids adjacent to t's part of ``region``, t included; with
    ``want`` set and that part bipartite, only those adjacent to a layer at
    a distance of parity ``want`` from t.

    One sweep of the breadth-first layers from t inside ``region``; the
    kids lie outside it and only collect the layers they touch. An edge
    inside a layer closes an odd cycle, and then parity decides nothing.
    The sweep stops once every kid is kept. ``enumerate_induced_paths``
    calls it at its root and at every node with two or more kids: a lone
    kid below the root touches t's part of ``region`` already, so without
    ``want`` the sweep would keep it, and with ``want`` a later sweep
    refuses the branch instead (see that function).
    """
    touched = [0, 0]
    seen = frontier = tbit
    either = want is None
    d = 0
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            nxt |= adj[low.bit_length() - 1]
        either = either or nxt & frontier != 0
        touched[d] |= nxt & kids
        keep = touched[0] | touched[1] if either else touched[want]
        if keep == kids:
            return kids
        frontier = nxt & region & ~seen
        seen |= frontier
        d ^= 1
    return keep


def find_long_odd_hole(G: Graph, budget: SearchBudget | None = None) -> Hole | None:
    """An induced odd cycle of length >= 7, or None when none exists.

    Two passes on one budget. ``_has_long_odd_hole`` decides, in a
    smallest-degree-first order of each block, and only on a yes does the
    label-order search name the witness: it walks the holes through their
    least vertex and stops at the first whose path between the two
    neighbours is odd with length >= 5. So a member costs the decision
    alone, and the witness is the first hole a whole-graph search by least
    label finds. Both passes skip blocks of fewer than seven vertices and
    bipartite blocks, so a bipartite graph costs no step. Exact; raises
    SearchBudgetExceeded instead of answering when the budget runs out.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    if not _has_long_odd_hole(G, budget):
        return None
    return next(_holes_by_min_vertex(G, budget, parity="odd", min_len=5, limit=1))


def _has_long_odd_hole(G: Graph, budget: SearchBudget) -> bool:
    """True when G has an induced odd cycle of length >= 7.

    Each block B of ``_odd_blocks`` is walked in a degeneracy order: the
    live vertex of least degree inside the live part of B first, the least
    label on ties, one mask per degree (a bucket queue; Matula and Beck,
    "Smallest-last ordering and clustering and graph coloring algorithms",
    J. ACM 1983). Every hole of B has exactly one first vertex a in that
    order; its two hole neighbours b1 < b2 come later, and its other
    vertices come later and avoid N(a). So the hole is a plus an odd
    induced b1-b2 path of length >= 5 inside ``later & ~N(a)``, where
    ``later`` is the part of B after a, and each root searches only what
    is left of B. The order changes the cost, not the answer: peeling the
    low-degree periphery first leaves the costly roots the smallest
    regions.
    """
    adj = G.adj
    for B in _odd_blocks(G, 7):
        deg = [0] * G.n
        buckets = [0] * G.n
        for v in iter_bits(B):
            deg[v] = d = (adj[v] & B).bit_count()
            buckets[d] |= 1 << v
        later = B
        d = 0
        while later:
            while not buckets[d]:
                d += 1
            low = buckets[d] & -buckets[d]
            buckets[d] ^= low
            later ^= low
            a = low.bit_length() - 1
            nbrs = adj[a] & later
            for u in iter_bits(nbrs):
                k = deg[u]
                deg[u] = k - 1
                buckets[k] ^= 1 << u
                buckets[k - 1] |= 1 << u
            d = max(d - 1, 0)
            inside = later & ~adj[a]
            rest = nbrs
            while rest:
                b1 = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                for b2 in iter_bits(rest & ~adj[b1]):
                    if enumerate_induced_paths(
                        G, b1, b2, inside, parity="odd", min_len=5, limit=1, budget=budget
                    ):
                        return True
    return False


def five_holes(G: Graph, budget: SearchBudget | None = None) -> list[Hole]:
    """Every induced 5-cycle, one representative per vertex set, in a
    deterministic order (by minimum vertex, then neighbor pair, then DFS).

    The search runs inside the non-bipartite blocks of at least five
    vertices: a 5-hole is an odd cycle and lies in one such block. So the
    list and its order are those of a whole-graph search.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    return list(_holes_by_min_vertex(G, budget, min_len=3, max_len=3))


def _odd_blocks(G: Graph, least: int) -> list[int]:
    """The blocks of at least ``least`` vertices that are not bipartite, as
    masks; none when G itself is smaller.

    Both hole searches ask only for odd holes, and an odd cycle cannot lie
    in a bipartite block: there every b1-b2 path has the parity of the
    b1-b2 distance, which is even when b1 and b2 share the neighbour a. A
    hole of ``least`` vertices lies in one block that big.
    """
    if G.n < least:
        return []
    return [B for B in blocks(G) if B.bit_count() >= least and layer_parity(G.adj, B)[1]]


def _holes_by_min_vertex(G: Graph, budget: SearchBudget, *, min_len: int, **path_options):
    """Yield validated holes through their minimum vertex a.

    Every hole is a plus an induced path between two non-adjacent
    neighbors of a, all of whose vertices exceed a and avoid N(a). The
    paths come from enumerate_induced_paths with ``min_len`` and
    ``path_options``, pair by pair in ascending order of a, then of the
    neighbor pair.

    A hole lies in one block: the block B of the edge a-b1. So b2 must lie
    in B, and the path search is confined to B. That drops only DFS
    subtrees that cannot reach b2, and keeps every path and its order. Only
    the blocks of ``_odd_blocks`` are searched, so the subtrees that go
    hold no answer.
    """
    big = _odd_blocks(G, min_len + 2)
    if not big:
        return
    adj = G.adj
    full = G.full_mask()
    for a in range(G.n):
        at_a = [B for B in big if B >> a & 1]
        if not at_a:
            continue
        above = full & ~((1 << (a + 1)) - 1)
        nbrs = bit_list(adj[a] & above)
        allowed = above & ~adj[a] & ~(1 << a)
        for i, b1 in enumerate(nbrs):
            B = next((B for B in at_a if B >> b1 & 1), 0)
            for b2 in nbrs[i + 1 :]:
                if not B >> b2 & 1 or G.has_edge(b1, b2):
                    continue
                for p in enumerate_induced_paths(
                    G, b1, b2, allowed & B, budget=budget, min_len=min_len, **path_options
                ):
                    hole = Hole((a,) + p.vertices)
                    hole.validate(G)
                    yield hole


def is_linked(G: Graph, s: int, t: int, budget: SearchBudget | None = None) -> bool:
    """True when s and t are joined by induced paths of length >= 3 of both
    parities. Requires s, t distinct and non-adjacent."""
    if not (0 <= s < G.n and 0 <= t < G.n) or s == t or G.has_edge(s, t):
        raise ContractViolation("linkedness is defined for distinct non-adjacent vertices")
    if budget is None:
        budget = SearchBudget.fresh()
    allowed = G.full_mask()
    odd = enumerate_induced_paths(G, s, t, allowed, parity="odd", min_len=3, limit=1, budget=budget)
    if not odd:
        return False
    even = enumerate_induced_paths(G, s, t, allowed, parity="even", min_len=3, limit=1, budget=budget)
    return bool(even)


def is_odd_linked(G: Graph, s: int, t: int, budget: SearchBudget | None = None) -> bool:
    """True when some induced s-t path has odd length >= 5."""
    if not (0 <= s < G.n and 0 <= t < G.n) or s == t or G.has_edge(s, t):
        raise ContractViolation("odd-linkedness is defined for distinct non-adjacent vertices")
    found = enumerate_induced_paths(
        G, s, t, G.full_mask(), parity="odd", min_len=5, limit=1, budget=budget
    )
    return bool(found)


@dataclass(frozen=True)
class Jump:
    """A local jump over a 5-hole: an induced path between two non-adjacent
    hole vertices whose interior avoids the hole and the neighbourhoods of
    the two hole vertices that are neither its ends nor ``across``.

    ``across`` is the hole vertex adjacent to both ends.
    """

    path: InducedPath
    hole: Hole
    across: int

    @property
    def kind(self) -> str:
        """The jump's kind: "short" for length exactly 3, "local" for longer."""
        return "short" if self.path.length == 3 else "local"

    def validate(self, G: Graph) -> None:
        self.path.validate(G)
        self._check(G, self.path.interior_mask(), self.hole.mask())

    def _check(self, G: Graph, interior: int, hmask: int) -> None:
        """Every clause of ``validate`` past the path's own, given the
        interior and hole masks. The path's ids are checked by then and
        ``across`` before its row is read, so adjacency is a mask test."""
        s, t = self.path.ends
        adj = G.adj
        if not ((hmask >> s & 1) and (hmask >> t & 1)):
            raise InvariantViolation("jump ends must lie on the hole")
        if adj[s] >> t & 1:
            raise InvariantViolation("jump ends must be non-adjacent")
        if interior & hmask:
            raise InvariantViolation("jump interior must avoid the hole")
        if self.path.length < 3:
            raise InvariantViolation("jumps have length at least three")
        if not 0 <= self.across < G.n:
            raise InvariantViolation(f"'across' {self.across} is not a vertex of the graph")
        ends = 1 << s | 1 << t
        if adj[self.across] & ends != ends:
            raise InvariantViolation("'across' vertex must neighbor both ends")
        for v in iter_bits(hmask & ~ends & ~(1 << self.across)):
            if adj[v] & interior:
                raise InvariantViolation(
                    "jump interior touches a hole vertex off its ends and across"
                )


def find_jumps(G: Graph, C: Hole, *, budget: SearchBudget | None = None) -> tuple[Jump, ...]:
    """The short and local jumps over the 5-hole C, pair by pair in
    ascending order of ends, each pair's paths in DFS order.

    Jumps touched by a hole vertex other than their ends and ``across``
    are not enumerated: the proof's star cutsets read none of them. Each
    pair's search keeps those two neighbourhoods out of its interior. The
    DFS extends in ascending vertex order, so a smaller allowed set only
    drops subtrees and keeps the order of the paths left. The search never
    leaves C's block: a child outside it hangs off a cut vertex already on
    the path, so it cannot reach t through the allowed vertices off the
    path, and ``_children_reaching_t`` drops it before it costs a step.
    Like every search here, running out of budget raises
    SearchBudgetExceeded; a partial list is never returned.
    """
    if C.length != 5:
        raise ContractViolation("jumps are defined over 5-holes")
    C.validate(G)
    if budget is None:
        budget = SearchBudget.fresh()
    cmask = C.mask()
    cyc = C.vertices
    allowed = G.full_mask() & ~cmask
    pairs = []
    for i in range(5):
        s, t = cyc[i], cyc[(i + 2) % 5]
        across = cyc[(i + 1) % 5]
        near = G.adj[cyc[(i + 3) % 5]] | G.adj[cyc[(i + 4) % 5]]
        pairs.append((min(s, t), max(s, t), across, allowed & ~near))
    pairs.sort()
    return tuple(
        _classify_jump(G, C, cmask, p, across)
        for s, t, across, inside in pairs
        for p in enumerate_induced_paths(G, s, t, inside, min_len=3, budget=budget)
    )


def _classify_jump(G: Graph, C: Hole, cmask: int, p: InducedPath, across: int) -> Jump:
    # A length-three jump touched by ``across`` closes a cycle shorter than
    # five, and an even local jump closes an odd hole longer than five with
    # the side of C away from ``across``: the input is not a pentagraph.
    # Then Jump.validate's clauses, with the masks taken once.
    interior = p.interior_mask()
    if p.length == 3 and G.adj[across] & interior:
        raise InvariantViolation("short jump touched by the hole; girth < 5 input", p.vertices)
    if p.length % 2 == 0:
        raise InvariantViolation("even local jump; input has a short or long odd hole", p.vertices)
    jump = Jump(p, C, across)
    p.validate(G)
    jump._check(G, interior, cmask)
    return jump


def contains_induced(
    G: Graph, pattern: Graph, budget: SearchBudget | None = None
) -> Embedding | None:
    """First induced embedding of ``pattern`` into G, or None.

    Backtracking over pattern vertices in a most-constrained-first order,
    with one candidate mask per position, at first the hosts of degree at
    least that of its pattern vertex. Placing u on host h narrows the mask
    of each later v: to N(h) if v neighbours u, else to ``two(h)``, the
    hosts at distance exactly two from h, if v and u share a neighbour,
    else to the hosts off N[h]. Then h is rejected as soon as a mask
    empties (forward checking). ``two(h)`` is built only for placed hosts,
    once per call.

    Every induced embedding extending the partial map sends such a v off
    N[h] and onto a neighbour of the image of their common neighbour, so
    the distance-two rule, like the rejection, drops only hosts that have
    no completion. The hosts left are tried in ascending order, one budget
    step each, so the first embedding is the one plain backtracking finds:
    the least one keyed by hosts in search order.
    """
    if pattern.n > G.n:
        return None
    if pattern.n == 0:
        return Embedding(())
    if budget is None:
        budget = SearchBudget.fresh()
    order = _search_order(pattern)
    adj = G.adj
    degrees = [a.bit_count() for a in adj]
    at_least = {
        k: mask_of(h for h, d in enumerate(degrees) if d >= k)
        for k in {a.bit_count() for a in pattern.adj}
    }
    # For each position, the relation of each later vertex to its own, as
    # an index into (N(h), two(h), outside N[h]).
    padj = pattern.adj
    later = [
        tuple(
            0 if padj[u] >> v & 1 else 1 if padj[u] & padj[v] else 2
            for v in order[pos + 1:]
        )
        for pos, u in enumerate(order)
    ]
    two: dict[int, int] = {}
    assign = [-1] * pattern.n

    def place(pos: int, masks: list[int]) -> bool:
        if pos == len(order):
            return True
        cand = masks[0]
        rest = masks[1:]
        rel = later[pos]
        wants_two = 1 in rel
        while cand:
            low = cand & -cand
            cand ^= low
            budget.spend()
            h = low.bit_length() - 1
            near = adj[h]
            if wants_two and h not in two:
                reach = 0
                for x in iter_bits(near):
                    reach |= adj[x]
                two[h] = reach & ~(near | low)
            by_rel = (near, two.get(h, 0), ~(near | low))
            narrowed = []
            for m, r in zip(rest, rel):
                m &= by_rel[r]
                if not m:
                    break
                narrowed.append(m)
            else:
                assign[order[pos]] = h
                if place(pos + 1, narrowed):
                    return True
        return False

    if place(0, [at_least[padj[u].bit_count()] for u in order]):
        emb = Embedding(tuple(assign))
        emb.validate(G, pattern)
        return emb
    return None


def _search_order(pattern: Graph) -> list[int]:
    """Most already-placed neighbours first, then highest degree, then
    lowest label; so the first pick is a max-degree vertex."""
    order = []
    placed = 0
    for _ in range(pattern.n):
        v = max(
            (v for v in range(pattern.n) if not placed >> v & 1),
            key=lambda v: ((pattern.adj[v] & placed).bit_count(), pattern.degree(v), -v),
        )
        order.append(v)
        placed |= 1 << v
    return order


def is_isomorphic(G: Graph, H: Graph, budget: SearchBudget | None = None) -> bool:
    """Exact isomorphism test via induced embedding of equal-sized graphs."""
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    if sorted(G.degree(v) for v in range(G.n)) != sorted(H.degree(v) for v in range(H.n)):
        return False
    return contains_induced(G, H, budget) is not None
