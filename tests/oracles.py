"""Independent reference implementations used to freeze expected values.

Everything here is written against the raw adjacency data (Graph.n and
Graph.adj) with deliberately naive algorithms, so a bug in the library's
search machinery cannot hide in its own oracle.
"""

from itertools import combinations, permutations, product


def bits(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def o_distance(G, s, t):
    """Plain BFS distance; None when unreachable."""
    if s == t:
        return 0
    dist = {s: 0}
    frontier = [s]
    while frontier:
        nxt = []
        for u in frontier:
            for z in bits(G.adj[u]):
                if z not in dist:
                    dist[z] = dist[u] + 1
                    if z == t:
                        return dist[z]
                    nxt.append(z)
        frontier = nxt
    return None


def o_induced_cycle_masks(G, sizes=None):
    """Every vertex subset inducing a cycle, with its size; only subsets of
    the given ``sizes`` when they are given."""
    out = []
    for size in range(3, G.n + 1) if sizes is None else sizes:
        for combo in combinations(range(G.n), size):
            mask = 0
            for v in combo:
                mask |= 1 << v
            if all((G.adj[v] & mask).bit_count() == 2 for v in combo):
                seen = 1 << combo[0]
                frontier = seen
                while frontier:
                    grow = 0
                    for v in bits(frontier):
                        grow |= G.adj[v] & mask & ~seen
                    seen |= grow
                    frontier = grow
                if seen == mask:
                    out.append((size, mask))
    return out


def o_girth(G):
    """Shortest cycle length by BFS from every vertex; None for forests."""
    best = None
    for root in range(G.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for z in bits(G.adj[u]):
                    if z not in dist:
                        dist[z] = dist[u] + 1
                        parent[z] = u
                        nxt.append(z)
                    elif z != parent[u] and dist[z] >= dist[u]:
                        cand = dist[u] + dist[z] + 1
                        if best is None or cand < best:
                            best = cand
            frontier = nxt
    return best


def o_is_pentagraph(G):
    cycles = o_induced_cycle_masks(G)
    if any(size < 5 for size, _ in cycles):
        return False
    return not any(size % 2 == 1 and size > 5 for size, _ in cycles)


def o_has_long_odd_hole(G):
    """Whether some subset of odd size at least seven induces a cycle."""
    return bool(o_induced_cycle_masks(G, range(7, G.n + 1, 2)))


def o_is_bipartite(G):
    return not any(size % 2 == 1 for size, _ in o_induced_cycle_masks(G))


def o_induced_paths(G, s, t, interior_allowed=None):
    """All induced s-t paths as vertex tuples, DFS over simple paths."""
    if interior_allowed is None:
        interior_allowed = (1 << G.n) - 1
    out = []

    def grow(path):
        last = path[-1]
        for z in bits(G.adj[last]):
            if z == t:
                if len(path) >= 2 and any(G.adj[z] >> v & 1 for v in path[:-1]):
                    continue
                out.append(tuple(path) + (z,))
                continue
            if z in path or not interior_allowed >> z & 1:
                continue
            if any(G.adj[z] >> v & 1 for v in path[:-1]):
                continue
            grow(path + [z])

    if s != t and not G.adj[s] >> t & 1:
        grow([s])
    elif s != t:
        out.append((s, t))
    return out


def o_is_linked(G, s, t):
    lengths = {len(p) - 1 for p in o_induced_paths(G, s, t)}
    has_odd = any(l % 2 == 1 and l >= 3 for l in lengths)
    has_even = any(l % 2 == 0 and l >= 3 for l in lengths)
    return has_odd and has_even


def o_embeddings(host, pattern):
    """All induced embeddings pattern -> host by brute injection."""
    out = []
    for image in permutations(range(host.n), pattern.n):
        ok = True
        for u in range(pattern.n):
            for v in range(u + 1, pattern.n):
                if (pattern.adj[u] >> v & 1) != (host.adj[image[u]] >> image[v] & 1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(image)
    return out


def o_contains_induced(host, pattern, order):
    """Plain backtracking for an induced embedding, placing pattern vertices
    along ``order``. Each draws its hosts, in ascending order, from one mask:
    the unused hosts of at least its degree, adjacent to the image of each
    placed neighbour and not to that of each placed non-neighbour, with no
    look-ahead and no distance-two rule. Returns (mapping or None, steps),
    one step per host tried."""
    if pattern.n > host.n:
        return None, 0
    degree_ok = [
        sum(1 << h for h in range(host.n) if host.adj[h].bit_count() >= a.bit_count())
        for a in pattern.adj
    ]
    steps = 0
    assign = [-1] * pattern.n

    def place(pos, used):
        nonlocal steps
        if pos == len(order):
            return True
        u = order[pos]
        cand = degree_ok[u] & ~used
        for w in order[:pos]:
            cand &= host.adj[assign[w]] if pattern.adj[u] >> w & 1 else ~host.adj[assign[w]]
        for h in bits(cand):
            steps += 1
            assign[u] = h
            if place(pos + 1, used | 1 << h):
                return True
        return False

    if place(0, 0):
        return tuple(assign), steps
    return None, steps


def o_chromatic(G, k_max):
    """Least k admitting a proper coloring, by trying every assignment."""
    if G.n == 0:
        return 0
    edges = []
    for u in range(G.n):
        for v in bits(G.adj[u]):
            if v > u:
                edges.append((u, v))
    for k in range(1, k_max + 1):
        for assign in product(range(k), repeat=G.n):
            if all(assign[u] != assign[v] for u, v in edges):
                return k
    return None


def o_all_graphs(n):
    """Every labeled graph on n vertices, as adjacency tuples."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for picks in product((0, 1), repeat=len(pairs)):
        adj = [0] * n
        for bit, (u, v) in zip(picks, pairs):
            if bit:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        yield tuple(adj)


def o_components(G, allowed):
    """Components of the subgraph on the vertices of ``allowed``, as masks,
    ordered by least vertex; plain depth-first search."""
    out = []
    seen = 0
    for v in bits(allowed):
        if seen >> v & 1:
            continue
        comp = 1 << v
        stack = [v]
        while stack:
            for z in bits(G.adj[stack.pop()] & allowed):
                if not comp >> z & 1:
                    comp |= 1 << z
                    stack.append(z)
        seen |= comp
        out.append(comp)
    return out


# The Petersen graph as fixtures.petersen() labels it: outer pentagon,
# spokes, inner pentagram.
O_PETERSEN_EDGES = frozenset(
    frozenset(e)
    for i in range(5)
    for e in ((i, (i + 1) % 5), (i, i + 5), (5 + i, 5 + (i + 2) % 5))
)


def o_certificate_holds(G, out):
    """Whether every field of a decomposition certificate is true of G,
    read from the definitions: a proper 2-coloring; a vertex of degree at
    most two; an induced embedding of the Petersen graph onto all of G; a
    clique whose removal disconnects G; an induced three-vertex path with
    the components it leaves, in order of least vertex; a star whose
    removal leaves the stored components, with a witness among them that
    joins every two leaves by an even induced path of length at least two
    and a ``strong`` flag saying whether the center has a neighbour in it.
    none_found certifies nothing."""
    n = G.n
    full = (1 << n) - 1

    def vertex(v):
        return isinstance(v, int) and 0 <= v < n

    def adjacent(u, v):
        return G.adj[u] >> v & 1 == 1

    def mask(vs):
        return sum(1 << v for v in set(vs))

    if out.variant == "bipartite":
        col = out.two_coloring
        return (col is not None and len(col) == n and all(c in (1, 2) for c in col)
                and all(col[u] != col[v] for u in range(n) for v in bits(G.adj[u])))
    if out.variant == "low_degree":
        return vertex(out.vertex) and len(bits(G.adj[out.vertex])) <= 2
    if out.variant == "petersen":
        m = out.embedding.mapping if out.embedding is not None else ()
        return (n == 10 and len(m) == 10 and all(map(vertex, m)) and len(set(m)) == 10
                and all(adjacent(m[a], m[b]) == (frozenset((a, b)) in O_PETERSEN_EDGES)
                        for a, b in combinations(range(10), 2)))
    if out.variant == "clique_cut":
        cut = out.clique or ()
        return (len(cut) > 0 and all(map(vertex, cut)) and len(set(cut)) == len(cut)
                and all(adjacent(a, b) for a, b in combinations(cut, 2))
                and len(o_components(G, full & ~mask(cut))) >= 2)
    if out.variant == "p3":
        cut = out.p3
        if cut is None or len(cut.path) != 3 or not all(map(vertex, cut.path)):
            return False
        v1, v2, v3 = cut.path
        comps = tuple(o_components(G, full & ~mask(cut.path)))
        return (len(set(cut.path)) == 3 and adjacent(v1, v2) and adjacent(v2, v3)
                and not adjacent(v1, v3) and len(comps) >= 2 and cut.sides == comps)
    if out.variant == "star":
        star = out.star
        if star is None or not vertex(star.center) or star.leaves & ~G.adj[star.center]:
            return False
        comps = tuple(o_components(G, full & ~star.leaves & ~(1 << star.center)))
        w = star.witness_component
        return (len(comps) >= 2 and star.components == comps and w in comps
                and all(any(len(p) % 2 == 1 and len(p) >= 3 for p in o_induced_paths(G, a, b, w))
                        for a, b in combinations(bits(star.leaves), 2))
                and star.strong == (G.adj[star.center] & w != 0))
    return False


def o_path_violation(G, seq):
    """The message a vertex sequence fails InducedPath.validate with, or
    None: every pair is tested, missing edges along the path first."""
    if len(seq) < 2 or len(set(seq)) != len(seq) or not 0 <= min(seq) <= max(seq) < G.n:
        return f"not a path: {seq}"
    adjacent = lambda u, v: G.adj[u] >> v & 1 == 1
    for i in range(len(seq) - 1):
        if not adjacent(seq[i], seq[i + 1]):
            return f"missing edge {seq[i]}-{seq[i+1]} in {seq}"
    for i in range(len(seq)):
        for j in range(i + 2, len(seq)):
            if adjacent(seq[i], seq[j]):
                return f"chord {seq[i]}-{seq[j]} in {seq}"
    return None


def o_hole_violation(G, seq):
    """The message a vertex sequence fails Hole.validate with, or None:
    every pair (i, j), i < j, is tested in order."""
    k = len(seq)
    if k < 4 or len(set(seq)) != k or not 0 <= min(seq) <= max(seq) < G.n:
        return f"not a hole: {seq}"
    for i in range(k):
        for j in range(i + 1, k):
            adjacent = G.adj[seq[i]] >> seq[j] & 1 == 1
            consecutive = j - i == 1 or (i == 0 and j == k - 1)
            if adjacent != consecutive:
                kind = "chord" if adjacent else "missing edge"
                return f"{kind} {seq[i]}-{seq[j]} in cycle {seq}"
    return None
