"""Induced paths, holes, jumps over 5-holes, and induced-subgraph search.

All searches here are exact. Anything that could blow up on an adversarial
input carries a step budget; running out raises SearchBudgetExceeded, which
callers surface as an explicit "indeterminate" rather than ever guessing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import ContractViolation, InvariantViolation, SearchBudgetExceeded
from .graph import Graph, bfs, bit_list, canonical_cycle, iter_bits, path_to

DEFAULT_MAX_STEPS = 10_000_000


def default_max_steps() -> int:
    """Step allowance for one query; PENTA_MAX_STEPS overrides."""
    raw = os.environ.get("PENTA_MAX_STEPS", "")
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

    @property
    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def interior_mask(self) -> int:
        m = 0
        for v in self.vertices[1:-1]:
            m |= 1 << v
        return m

    def validate(self, G: Graph) -> None:
        seq = self.vertices
        if len(seq) < 2 or len(set(seq)) != len(seq):
            raise InvariantViolation(f"not a path: {seq}")
        for i in range(len(seq) - 1):
            if not G.has_edge(seq[i], seq[i + 1]):
                raise InvariantViolation(f"missing edge {seq[i]}-{seq[i+1]} in {seq}")
        for i in range(len(seq)):
            for j in range(i + 2, len(seq)):
                if G.has_edge(seq[i], seq[j]):
                    raise InvariantViolation(f"chord {seq[i]}-{seq[j]} in {seq}")


@dataclass(frozen=True)
class Hole:
    """An induced cycle of length at least four, as a cyclic vertex tuple."""

    vertices: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    def mask(self) -> int:
        m = 0
        for v in self.vertices:
            m |= 1 << v
        return m

    def canonical(self) -> "Hole":
        return Hole(canonical_cycle(self.vertices))

    def validate(self, G: Graph) -> None:
        seq = self.vertices
        k = len(seq)
        if k < 4 or len(set(seq)) != k:
            raise InvariantViolation(f"not a hole: {seq}")
        for i in range(k):
            for j in range(i + 1, k):
                adjacent = G.has_edge(seq[i], seq[j])
                consecutive = j - i == 1 or (i == 0 and j == k - 1)
                if adjacent != consecutive:
                    kind = "chord" if adjacent else "missing edge"
                    raise InvariantViolation(f"{kind} {seq[i]}-{seq[j]} in cycle {seq}")


@dataclass(frozen=True)
class Embedding:
    """Induced embedding of a pattern: mapping[p] is the host vertex of p."""

    mapping: tuple[int, ...]

    def validate(self, G: Graph, pattern: Graph) -> None:
        m = self.mapping
        if len(m) != pattern.n or len(set(m)) != len(m):
            raise InvariantViolation("embedding is not injective on the pattern")
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if pattern.has_edge(u, v) != G.has_edge(m[u], m[v]):
                    raise InvariantViolation(f"adjacency mismatch at pattern pair ({u}, {v})")


class _LimitReached(Exception):
    pass


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
    path is itself induced and no dead branch survives. ``parity`` is one
    of "any", "even", "odd" and, with ``min_len``/``max_len``, constrains
    the number of edges. Output order is the DFS order, which is fixed by
    ascending vertex ids; the list is exhaustive unless ``limit`` cut it
    short (detectable by ``len(result) == limit``).

    Each DFS node costs one budget step; exhausting the budget raises
    SearchBudgetExceeded, it never silently returns a partial answer.
    """
    if s == t:
        raise ContractViolation("path ends must be distinct")
    if not (0 <= s < G.n and 0 <= t < G.n):
        raise ContractViolation("path ends must be vertices")
    if parity not in ("any", "even", "odd"):
        raise ContractViolation(f"bad parity {parity!r}")
    if budget is None:
        budget = SearchBudget.fresh()
    adj = G.adj
    allowed = interior_allowed & G.full_mask() & ~(1 << s) & ~(1 << t)
    tbit = 1 << t
    parity_bit = {"even": 0, "odd": 1}.get(parity)
    results: list[InducedPath] = []
    path = [s]

    def extend(last: int, excl: int) -> None:
        budget.spend()
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
                    raise _LimitReached
        if max_len is not None and len(path) >= max_len:
            return
        blocked = excl | adj[last]
        for z in iter_bits(cand & allowed):
            path.append(z)
            extend(z, blocked | (1 << z))
            path.pop()

    try:
        extend(s, 1 << s)
    except _LimitReached:
        pass
    return results


def shortest_odd_cycle(G: Graph) -> Hole | None:
    """A shortest odd cycle, or None if the graph is bipartite.

    A shortest odd closed walk is automatically a chordless simple cycle,
    so the result is a valid Hole. Found by BFS from every root: an edge
    joining two vertices equidistant from the root closes an odd walk of
    length 2d+1, and the minimum over all roots is exact. Only supported
    when the result has length at least five (i.e. triangle-free input);
    a triangle raises InvariantViolation.
    """
    n = G.n
    best = None
    per_root = []
    for r in range(n):
        dist, parent, _ = bfs(G, 1 << r)
        per_root.append((dist, parent))
        for u, w in G.edges():
            if dist[u] >= 0 and dist[u] == dist[w]:
                val = 2 * dist[u] + 1
                if best is None or val < best:
                    best = val
    if best is None:
        return None
    if best == 3:
        raise InvariantViolation("shortest odd cycle is a triangle; expected girth >= 5")
    best_cycle = None
    for r in range(n):
        dist, parent = per_root[r]
        for u, w in G.edges():
            if dist[u] >= 0 and dist[u] == dist[w] and 2 * dist[u] + 1 == best:
                walk = path_to(parent, u) + list(reversed(path_to(parent, w)))[:-1]
                if len(set(walk)) != len(walk):
                    continue  # a non-simple candidate cannot be minimal from this root
                cand = canonical_cycle(tuple(walk))
                if best_cycle is None or cand < best_cycle:
                    best_cycle = cand
    hole = Hole(best_cycle)
    hole.validate(G)
    return hole


def find_long_odd_hole(G: Graph, budget: SearchBudget | None = None) -> Hole | None:
    """An induced odd cycle of length >= 7, or None when none exists.

    Walks the holes through their minimum vertex and stops at the first
    whose path between the two neighbors is odd with length >= 5. Exact;
    raises SearchBudgetExceeded instead of answering when the budget runs
    out.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    holes = _holes_by_min_vertex(G, budget, parity="odd", min_len=5, limit=1)
    return next(holes, None)


def five_holes(G: Graph, budget: SearchBudget | None = None) -> list[Hole]:
    """Every induced 5-cycle, one representative per vertex set, in a
    deterministic order (by minimum vertex, then neighbor pair, then DFS)."""
    if budget is None:
        budget = SearchBudget.fresh()
    return list(_holes_by_min_vertex(G, budget, min_len=3, max_len=3))


def _holes_by_min_vertex(G: Graph, budget: SearchBudget, **path_options):
    """Yield validated holes through their minimum vertex a.

    Every hole is a plus an induced path between two non-adjacent
    neighbors of a, all of whose vertices exceed a and avoid N(a). The
    paths come from enumerate_induced_paths with ``path_options``, pair by
    pair in ascending order of a, then of the neighbor pair.
    """
    adj = G.adj
    full = G.full_mask()
    for a in range(G.n):
        above = full & ~((1 << (a + 1)) - 1)
        nbrs = bit_list(adj[a] & above)
        if len(nbrs) < 2:
            continue
        allowed = above & ~adj[a] & ~(1 << a)
        for i, b1 in enumerate(nbrs):
            for b2 in nbrs[i + 1 :]:
                if G.has_edge(b1, b2):
                    continue
                for p in enumerate_induced_paths(
                    G, b1, b2, allowed, budget=budget, **path_options
                ):
                    hole = Hole((a,) + p.vertices)
                    hole.validate(G)
                    yield hole


def is_linked(G: Graph, s: int, t: int, budget: SearchBudget | None = None) -> bool:
    """True when s and t are joined by induced paths of length >= 3 of both
    parities. Requires s, t distinct and non-adjacent."""
    if s == t or G.has_edge(s, t):
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
    if s == t or G.has_edge(s, t):
        raise ContractViolation("odd-linkedness is defined for distinct non-adjacent vertices")
    if budget is None:
        budget = SearchBudget.fresh()
    found = enumerate_induced_paths(
        G, s, t, G.full_mask(), parity="odd", min_len=5, limit=1, budget=budget
    )
    return bool(found)


@dataclass(frozen=True)
class Jump:
    """An induced path between two non-adjacent vertices of a 5-hole, with
    no other hole vertices on it.

    ``across`` is the hole vertex adjacent to both ends. ``kind`` is
    "short" (length exactly 3), "local" (no hole vertex other than the
    ends and ``across`` touches the interior) or "general".
    """

    path: InducedPath
    hole: Hole
    across: int
    kind: str

    @property
    def ends(self) -> tuple[int, int]:
        return self.path.ends

    def validate(self, G: Graph) -> None:
        self.path.validate(G)
        s, t = self.path.ends
        hmask = self.hole.mask()
        if not ((hmask >> s & 1) and (hmask >> t & 1)):
            raise InvariantViolation("jump ends must lie on the hole")
        if G.has_edge(s, t):
            raise InvariantViolation("jump ends must be non-adjacent")
        if self.path.interior_mask() & hmask:
            raise InvariantViolation("jump interior must avoid the hole")
        if self.path.length < 3:
            raise InvariantViolation("jumps have length at least three")
        if not (G.has_edge(self.across, s) and G.has_edge(self.across, t)):
            raise InvariantViolation("'across' vertex must neighbor both ends")


def find_jumps(G: Graph, C: Hole, *, budget: SearchBudget | None = None) -> tuple[Jump, ...]:
    """Enumerate and classify the jumps over the 5-hole C.

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
        pairs.append((min(s, t), max(s, t), across))
    pairs.sort()
    return tuple(
        _classify_jump(G, C, p, across)
        for s, t, across in pairs
        for p in enumerate_induced_paths(G, s, t, allowed, min_len=3, budget=budget)
    )


def _classify_jump(G: Graph, C: Hole, p: InducedPath, across: int) -> Jump:
    s, t = p.ends
    interior = p.interior_mask()
    others = C.mask() & ~(1 << across) & ~(1 << s) & ~(1 << t)
    local = all(G.adj[v] & interior == 0 for v in iter_bits(others))
    if p.length == 3:
        # Length three forces locality when the girth is at least five;
        # anything else means the input was not a pentagraph.
        if not local or G.adj[across] & interior:
            raise InvariantViolation("short jump touched by the hole; girth < 5 input", p)
        kind = "short"
    elif local:
        if p.length % 2 == 0:
            raise InvariantViolation("even local jump; input has a short or long odd hole", p)
        kind = "local"
    else:
        kind = "general"
    jump = Jump(p, C, across, kind)
    jump.validate(G)
    return jump


def contains_induced(
    G: Graph, pattern: Graph, budget: SearchBudget | None = None
) -> Embedding | None:
    """First induced embedding of ``pattern`` into G, or None.

    Backtracking over pattern vertices in a most-constrained-first order,
    pruning by degree and by the fact that host distances never exceed
    pattern distances under an induced embedding.
    """
    if pattern.n > G.n:
        return None
    if pattern.n == 0:
        return Embedding(())
    if budget is None:
        budget = SearchBudget.fresh()
    order = _search_order(pattern)
    pdist = _all_pairs_dist(pattern)
    gdist = _all_pairs_dist(G)
    pdeg = [pattern.degree(v) for v in range(pattern.n)]
    gdeg = [G.degree(v) for v in range(G.n)]
    assign = [-1] * pattern.n
    used = 0

    def place(pos: int) -> bool:
        nonlocal used
        if pos == len(order):
            return True
        u = order[pos]
        du = pdeg[u]
        for h in range(G.n):
            hb = 1 << h
            if used & hb or gdeg[h] < du:
                continue
            budget.spend()
            ok = True
            for w in order[:pos]:
                hw = assign[w]
                if pattern.has_edge(u, w) != G.has_edge(h, hw):
                    ok = False
                    break
                dp = pdist[u][w]
                if dp >= 0 and (gdist[h][hw] < 0 or gdist[h][hw] > dp):
                    ok = False
                    break
            if not ok:
                continue
            assign[u] = h
            used |= hb
            if place(pos + 1):
                return True
            used &= ~hb
            assign[u] = -1
        return False

    if place(0):
        emb = Embedding(tuple(assign))
        emb.validate(G, pattern)
        return emb
    return None


def _search_order(pattern: Graph) -> list[int]:
    """Max-degree seed, then most already-placed neighbors first."""
    n = pattern.n
    order = [max(range(n), key=lambda v: (pattern.degree(v), -v))]
    placed = {order[0]}
    while len(order) < n:
        best = None
        key = None
        for v in range(n):
            if v in placed:
                continue
            k = (sum(1 for w in placed if pattern.has_edge(v, w)), pattern.degree(v), -v)
            if key is None or k > key:
                key = k
                best = v
        order.append(best)
        placed.add(best)
    return order


def _all_pairs_dist(G: Graph) -> list[list[int]]:
    """BFS distance matrix with -1 for unreachable pairs."""
    return [bfs(G, 1 << s)[0] for s in range(G.n)]


def is_isomorphic(G: Graph, H: Graph, budget: SearchBudget | None = None) -> bool:
    """Exact isomorphism test via induced embedding of equal-sized graphs."""
    if G.n != H.n or G.edge_count() != H.edge_count():
        return False
    if sorted(G.degree(v) for v in range(G.n)) != sorted(H.degree(v) for v in range(H.n)):
        return False
    return contains_induced(G, H, budget) is not None
