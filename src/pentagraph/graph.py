"""Immutable bitmask graphs and the handful of BFS primitives everything
else is built on.

Vertices are ``0..n-1``. A vertex set is a plain ``int`` used as a bitmask,
so set algebra is ``&``, ``|``, ``&~`` and membership is ``mask >> v & 1``.
Graphs are small by design (default cap 64 vertices, hard cap 128); the
point of the library is exactness on desk-scale instances, not throughput
on large ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractViolation, GraphConstructionError

DEFAULT_MAX_VERTICES = 64
HARD_MAX_VERTICES = 128

INFINITY = math.inf


def iter_bits(mask: int):
    """Yield the indices of the set bits of ``mask`` in ascending order.

    A negative mask has infinitely many set bits and raises
    ContractViolation before anything is yielded."""
    if mask < 0:
        raise ContractViolation("a vertex mask cannot be negative")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def mask_of(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


class Graph:
    """An immutable simple undirected graph stored as one adjacency bitmask
    per vertex.

    Use :func:`make_graph` to build one from an edge list; the raw
    constructor trusts its arguments and is meant for internal callers that
    already hold a consistent adjacency table.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj

    # Graphs are values: equality and hashing follow the labeled structure.
    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        """ContractViolation for an id outside 0..n-1."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ContractViolation(f"edge ({u}, {v}) names a vertex outside 0..{self.n - 1}")
        return self.adj[u] >> v & 1 == 1

    def degree(self, v: int) -> int:
        """ContractViolation for an id outside 0..n-1."""
        if not 0 <= v < self.n:
            raise ContractViolation(f"{v} is not a vertex of the graph")
        return self.adj[v].bit_count()

    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted."""
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    out.append((u, v))
                rest >>= 1
                v += 1
        return out


def make_graph(n: int, edges, max_n: int | None = None) -> Graph:
    """Build a validated Graph from an iterable of (u, v) pairs.

    Duplicate edges collapse silently; self loops and out-of-range
    endpoints raise GraphConstructionError. ``max_n`` lifts the default
    vertex cap of 64 up to the hard cap of 128.
    """
    cap = DEFAULT_MAX_VERTICES if max_n is None else max_n
    if cap > HARD_MAX_VERTICES:
        raise GraphConstructionError(f"cap {cap} exceeds hard limit {HARD_MAX_VERTICES}")
    if not 0 <= n <= cap:
        raise GraphConstructionError(f"vertex count {n} outside [0, {cap}]")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise GraphConstructionError(f"self loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphConstructionError(f"edge ({u}, {v}) out of range for n={n}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def induced_subgraph(G: Graph, keep: int) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the vertex set ``keep`` (a bitmask).

    Returns ``(H, old_ids)`` where ``old_ids[new] = old``; new labels are
    the kept vertices in ascending old order. The inverse map, when
    needed, is ``{old: new for new, old in enumerate(old_ids)}``.
    """
    old_ids = bit_list(keep & G.full_mask())
    index = {old: new for new, old in enumerate(old_ids)}
    adj = []
    for old in old_ids:
        row = G.adj[old] & keep
        packed = 0
        for w in iter_bits(row):
            packed |= 1 << index[w]
        adj.append(packed)
    return Graph(len(old_ids), tuple(adj)), tuple(old_ids)


def components(G: Graph) -> list[int]:
    """Connected components as bitmasks, ordered by smallest member."""
    return components_within(G, G.full_mask())


def components_within(G: Graph, allowed: int) -> list[int]:
    """Components of the induced subgraph on ``allowed``, without relabeling."""
    out = []
    left = allowed = allowed & G.full_mask()
    while left:
        comp = 0
        for frontier in _frontiers(G, left & -left, allowed):
            comp |= frontier
        out.append(comp)
        left &= ~comp
    return out


def _frontiers(G: Graph, seed: int, allowed: int):
    """The breadth-first layers from the mask ``seed`` inside ``allowed``, as
    masks: the seed, then the unseen neighbours of each layer in turn."""
    # Whole frontiers as masks, not bfs(): components and layers need
    # neither distances nor parents.
    adj = G.adj
    seen = frontier = seed
    while frontier:
        yield frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & allowed & ~seen
        seen |= frontier


def blocks(G: Graph) -> list[int]:
    """The blocks (maximal 2-connected subgraphs) as vertex masks, in the
    order the search completes them.

    A bridge is a 2-vertex block and an isolated vertex lies in none. Two
    blocks share at most one vertex, so every edge, and every cycle, lies
    in exactly one block. The recursive depth-first search with low points
    of Hopcroft and Tarjan ("Efficient algorithms for graph manipulation",
    CACM 1973): one frame per tree edge, so at most 128 deep.
    """
    adj = G.adj
    disc = [0] * G.n  # discovery time, from 1; 0 means unvisited
    low = [0] * G.n
    clock = 0
    pending = []  # visited vertices not yet assigned to a block
    out = []

    def visit(v: int, parent: int) -> None:
        nonlocal clock
        clock += 1
        disc[v] = lo = clock
        pending.append(v)
        rest = adj[v]
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            if not disc[w]:
                visit(w, v)
                if low[w] < lo:
                    lo = low[w]
                if low[w] >= disc[v]:
                    # v separates w's subtree from the rest: they form a block.
                    mask = 1 << v
                    while True:
                        x = pending.pop()
                        mask |= 1 << x
                        if x == w:
                            break
                    out.append(mask)
            elif w != parent and disc[w] < lo:
                lo = disc[w]
        low[v] = lo

    for root in range(G.n):
        if not disc[root] and adj[root]:
            visit(root, -1)
    return out


def bfs(
    G: Graph, sources: int, allowed: int | None = None
) -> tuple[list[int], list[int], list[int]]:
    """Breadth-first search from every vertex of the mask ``sources`` at once,
    entering only vertices of ``allowed`` (default: all).

    Returns ``(dist, parent, order)``, the first two indexed by vertex.
    ``dist`` is 0 on the sources and -1 where the search never got;
    ``parent`` is the first vertex whose scan reached the vertex (queue
    order), and -1 on sources and unreached vertices. ``order`` lists the
    reached vertices as they were reached, sources first in ascending order,
    so it is sorted by ``dist`` and every parent precedes its children.
    """
    if sources >> G.n:  # also true for a negative mask
        raise ContractViolation("sources must be vertices of the graph")
    adj = G.adj
    dist = [-1] * G.n
    parent = [-1] * G.n
    unseen = (G.full_mask() if allowed is None else allowed) & ~sources
    order = bit_list(sources)
    for v in order:
        dist[v] = 0
    # The loop also visits the vertices appended to ``order`` inside it.
    for v in order:
        grow = adj[v] & unseen
        if grow:
            unseen ^= grow
            d = dist[v] + 1
            while grow:
                low = grow & -grow
                z = low.bit_length() - 1
                dist[z] = d
                parent[z] = v
                order.append(z)
                grow ^= low
    return dist, parent, order


def path_to(parent: list[int], v: int) -> list[int]:
    """The tree path from the root of ``v``'s search to ``v``, root first."""
    path = [v]
    while parent[path[-1]] >= 0:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def bfs_layers(G: Graph, source: int) -> tuple[int, ...]:
    """BFS distance classes from ``source``: entry k is the bitmask of the
    vertices at distance exactly k. Only the source's component appears."""
    if not 0 <= source < G.n:
        raise ContractViolation(f"source {source} not a vertex of the graph")
    return tuple(_frontiers(G, 1 << source, G.full_mask()))


def distance(G: Graph, u: int, v: int):
    """Shortest path length between u and v; INFINITY when disconnected."""
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ContractViolation("distance endpoints must be vertices")
    d = bfs(G, 1 << u)[0][v]
    return INFINITY if d < 0 else d


@dataclass(frozen=True)
class BipartiteCheck:
    """Result of is_bipartite: a proper 2-coloring (tuple of 0/1 per vertex)
    when the graph is bipartite, otherwise an odd closed walk witness."""

    two_coloring: tuple[int, ...] | None
    odd_cycle: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.two_coloring is not None


def is_bipartite(G: Graph, within: int | None = None) -> BipartiteCheck:
    """BFS 2-coloring of the subgraph induced on ``within`` (default: all of
    G); on failure returns an odd closed walk as witness.

    The 2-coloring is indexed by vertex of G and holds -1 outside
    ``within``. The witness is a vertex sequence whose consecutive pairs
    (cyclically) are edges and whose length is odd.
    """
    # layer_parity decides and colors. Only a failure searches again: bfs()
    # from the least vertex of the first non-bipartite component, up to the
    # first vertex in queue order with a neighbour in its own layer, closed
    # by the least such neighbour. Same-parity neighbours of a vertex are
    # same-layer ones.
    adj = G.adj
    within = G.full_mask() if within is None else within & G.full_mask()
    odd, clash = layer_parity(adj, within)
    if not clash:
        return BipartiteCheck(
            tuple([odd >> v & 1 if within >> v & 1 else -1 for v in range(G.n)]), None
        )
    even = within & ~odd
    _, parent, order = bfs(G, clash[0] & -clash[0], within)
    for x in order:
        same = adj[x] & (odd if odd >> x & 1 else even)
        if same:
            y = (same & -same).bit_length() - 1
            return BipartiteCheck(None, _odd_walk(parent, x, y))


def layer_parity(adj, within: int) -> tuple[int, list[int]]:
    """Breadth-first layers of the subgraph that the adjacency masks ``adj``
    induce on ``within``, one component at a time from its least vertex.
    Bits of ``within`` that name no vertex are ignored.

    Returns ``(odd, clash)``: ``odd`` is the mask of the vertices at odd
    distance from their component's least vertex, and ``clash`` the list of
    the components with an edge inside one of their layers, that is, the
    non-bipartite components, as masks in ascending order of least vertex.
    So ``clash`` is empty exactly when the subgraph is bipartite, and off
    ``clash`` ``odd`` is the side is_bipartite colors 1, component by
    component.
    """
    # Whole frontiers as masks, as in _frontiers; a layer holds an edge
    # exactly when the neighbours of its vertices meet it.
    odd = 0
    clash = []
    left = within & ((1 << len(adj)) - 1)
    while left:
        seen = frontier = left & -left
        parity = 0
        flat = True
        while frontier:
            nxt = 0
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                nxt |= adj[low.bit_length() - 1]
            nxt &= left
            if nxt & frontier:
                flat = False
            if parity:
                odd |= frontier
            parity ^= 1
            frontier = nxt & ~seen
            seen |= frontier
        if not flat:
            clash.append(seen)
        left &= ~seen
    return odd, clash


def _odd_walk(parent: list[int], x: int, y: int) -> tuple[int, ...]:
    # x and y share a side, so their root paths are equally long; join them
    # at their lowest common ancestor, and the edge (x, y) closes the cycle.
    px, py = path_to(parent, x), path_to(parent, y)
    k = next(i for i, (a, b) in enumerate(zip(px, py)) if a != b)
    return tuple(px[k - 1 :][::-1] + py[k:])


def shortest_cycle(G: Graph) -> tuple[int, ...] | None:
    """A shortest cycle as a vertex tuple, or None in a forest.

    Computed edge by edge: the shortest cycle through an edge (u, v) is
    that edge plus a shortest u-v path avoiding it. Ties are broken by the
    least canonical rotation among the per-edge candidates, so the answer
    is stable across runs.
    """
    best_len = None
    best_cycle = None
    for u, v in G.edges():
        if best_len is not None and best_len == 3:
            break
        path = _shortest_path_avoiding_edge(G, u, v, best_len)
        if path is None:
            continue
        cand = canonical_cycle(tuple(path))
        length = len(path)
        if best_len is None or length < best_len or (length == best_len and cand < best_cycle):
            best_len = length
            best_cycle = cand
    return best_cycle


def _shortest_path_avoiding_edge(G, u, v, cap):
    """Shortest u-v path not using the edge (u, v); None if it closes a
    cycle longer than ``cap``. Returns the path as a vertex list."""
    dist, parent, _ = bfs(G, G.adj[u] & ~(1 << v), G.full_mask() & ~(1 << u))
    if dist[v] < 0 or (cap is not None and dist[v] + 2 > cap):
        return None
    return [u] + path_to(parent, v)


def canonical_cycle(cycle: tuple[int, ...]) -> tuple[int, ...]:
    """Least rotation/reflection of a cyclic vertex sequence."""
    k = len(cycle)
    best = None
    doubled = cycle + cycle
    for i in range(k):
        for seq in (doubled[i : i + k], tuple(reversed(doubled[i : i + k]))):
            if best is None or seq < best:
                best = seq
    return best


def girth(G: Graph):
    """Length of a shortest cycle; INFINITY for forests.

    One frontier sweep per root in ascending order, each inside the
    vertices not yet swept (Itai and Rodeh, SIAM J. Comput. 1978). Exact: no
    sweep reports less than the girth, since an edge inside layer d closes
    an odd closed walk of length 2d + 1 and a layer-(d + 1) vertex reached
    from two layer-d vertices a cycle of length at most 2d + 2; a root on a
    shortest cycle inside its sweep finds that cycle's length; and a swept
    root leaves the later sweeps, since the least vertex of a shortest
    cycle is swept while the whole cycle is still inside.
    """
    adj = G.adj
    best = INFINITY
    allowed = G.full_mask()
    for root in range(G.n):
        # A cycle through root uses two of its neighbours: with fewer left, skip.
        if (adj[root] & allowed).bit_count() > 1:
            best = _sweep(adj, allowed, root, best)
            if best == 3:
                break
        allowed ^= 1 << root
    return best


def _sweep(adj, allowed: int, root: int, best):
    """The shortest closed walk a frontier sweep of ``allowed`` from ``root``
    finds, if it is shorter than ``best``; otherwise ``best``."""
    seen = frontier = 1 << root
    d = 0
    while frontier and 2 * d + 1 < best:
        nxt = twice = 0
        rest = frontier
        while rest:
            low = rest & -rest
            rest ^= low
            a = adj[low.bit_length() - 1] & allowed
            if a & frontier:
                return 2 * d + 1
            a &= ~seen
            twice |= nxt & a
            nxt |= a
        if twice:
            return 2 * d + 2
        seen |= nxt
        frontier = nxt
        d += 1
    return best
