"""Certified colorings: the layered 4-coloring, the recursive 3-coloring
with Kempe-exchange recombination, and a brute-force oracle.

The 3-coloring recursion colors vertex sets of the input graph into one
array, one component at a time. It colors a vertex of degree at most two
after the rest of its component (a peel), and copies a subgraph only to
cut a component that is neither bipartite nor has such a vertex. The
peels of a vertex set run in one forward pass and get their colors in one
backward pass that re-adds them through a parity union, so a chain of k
peels costs a constant number of sweeps, not k (see three_color). Below
that copy a coloring is one color per vertex of the copy, 0 for an
uncolored vertex: each side of a cut is colored with the cut into a fresh
array, fitted to the cut in those ids and merged, and the merged coloring
is verified. Both top-level colorers verify properness before returning.
Recombination steps that would only fail on inputs outside the class raise
InvariantViolation carrying the offending structure instead of returning a
bad coloring.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from itertools import permutations

from .decomposition import P3Cutset, decompose
from .errors import ContractViolation, InvariantViolation, NoDecompositionFound
from .graph import (
    Graph,
    bfs,
    bfs_layers,
    components,
    components_within,
    induced_subgraph,
    is_bipartite,
    iter_bits,
    layer_parity,
    mask_of,
    path_to,
)
from .structure import SearchBudget


@dataclass(frozen=True)
class Coloring:
    """A color assignment, colors[v] in 1..k; 0 marks an uncolored vertex."""

    k: int
    colors: tuple[int, ...]


def verify_coloring(G: Graph, c: Coloring) -> bool:
    """True iff proper, that is, no vertex has a neighbour in its own color
    class, tested with one mask per class; raises on assignments that are
    not total maps into 1..k."""
    return _is_proper(G, c, 1)


def _is_proper(G: Graph, c: Coloring, least: int) -> bool:
    """verify_coloring's test on colors in least..k; color 0, allowed when
    least is 0, marks an uncolored vertex, which clashes with nothing."""
    if len(c.colors) != G.n:
        raise ContractViolation("assignment must cover every vertex exactly once")
    classes = [0] * (c.k + 1)
    for v, col in enumerate(c.colors):
        if not least <= col <= c.k:
            raise ContractViolation(f"colors must lie in {least}..{c.k}")
        classes[col] |= 1 << v
    classes[0] = 0
    adj = G.adj
    for v, col in enumerate(c.colors):
        if adj[v] & classes[col]:
            return False
    return True


def _class_mask(c: Coloring, colors: tuple[int, ...]) -> int:
    """The vertices whose color is one of ``colors``, as a mask."""
    return mask_of(u for u, col in enumerate(c.colors) if col in colors)


def kempe_component(G: Graph, c: Coloring, pair: tuple[int, int], v: int) -> int:
    """The component of the {a,b}-colored subgraph containing v, as a mask."""
    a, b = pair
    if a == b or not (1 <= a <= c.k and 1 <= b <= c.k):
        raise ContractViolation(f"the color pair must be two distinct colors in 1..{c.k}")
    if len(c.colors) != G.n:
        raise ContractViolation("the coloring must cover every vertex exactly once")
    if not 0 <= v < G.n:
        raise ContractViolation(f"{v} is not a vertex of the graph")
    if c.colors[v] not in (a, b):
        raise ContractViolation(f"vertex {v} has color {c.colors[v]}, not in {{{a}, {b}}}")
    return next(m for m in components_within(G, _class_mask(c, pair)) if m >> v & 1)


def kempe_swap(G: Graph, c: Coloring, pair: tuple[int, int], v: int) -> Coloring:
    """Exchange the two colors on the component containing v; properness is
    preserved and the operation is an involution."""
    return _exchange(c, pair, kempe_component(G, c, pair, v))


def _exchange(c: Coloring, pair: tuple[int, int], swap_mask: int) -> Coloring:
    """Color a becomes b and b becomes a on the vertices of ``swap_mask``,
    each of which has one of the two colors."""
    a, b = pair
    out = list(c.colors)
    for u in iter_bits(swap_mask):
        out[u] = a if out[u] == b else b
    return Coloring(c.k, tuple(out))


def four_color(G: Graph) -> Coloring:
    """Layered 4-coloring: 2-color each breadth-first layer, palette {1,2}
    on even layers and {3,4} on odd ones.

    Works per component (source = least vertex). One layer_parity call
    on G gives the odd layers, and on a bipartite G nothing more: no edge
    lies inside a layer. Otherwise a second call, over the vertices with an
    edge inside their layer, gives each layer's sides; it seeds each
    layer's vertices in ascending order, as a search per layer would, so
    the sides are the same. A layer inducing a non-bipartite subgraph means
    the input was not in the class; then the layers are checked one by one,
    in (component, layer) order, and the first odd one raises
    InvariantViolation with (layer index, odd cycle) as witness.
    """
    odd, clash = layer_parity(G.adj, G.full_mask())  # odd: the odd layers
    side = 0
    if clash:
        even = ~odd
        # No edge skips a layer, so same-parity neighbours are same-layer ones.
        inner = [a & (odd if odd >> v & 1 else even) for v, a in enumerate(G.adj)]
        # From here clash lists the layers' parts that hold odd cycles.
        side, clash = layer_parity(inner, mask_of(v for v, a in enumerate(inner) if a))
    if clash:
        for comp in components(G):
            for idx, layer in enumerate(bfs_layers(G, (comp & -comp).bit_length() - 1)):
                one = is_bipartite(G, within=layer)
                if not one:
                    raise InvariantViolation(
                        f"layer {idx} induces an odd cycle", (idx, one.odd_cycle)
                    )
    coloring = Coloring(
        4, tuple([1 + 2 * (odd >> v & 1) + (side >> v & 1) for v in range(G.n)])
    )
    if not verify_coloring(G, coloring):
        raise InvariantViolation("layered coloring came out improper")
    return coloring


# A fixed proper 3-coloring of the ten-vertex reference graph, on the
# labeling used by fixtures.petersen().
PETERSEN_COLORING = (1, 2, 1, 2, 3, 2, 3, 3, 1, 1)


def combine_p3(G: Graph, cut: P3Cutset, side_colorings: list[Coloring]) -> Coloring:
    """Merge per-side 3-colorings of a P3-cutset into one for G.

    Side i colors sides[i] and the cut path, in G's ids, and leaves every
    other vertex at 0. Palettes are permuted so every side sends v1 to 1
    and v2 to 2; each side then gives v3 either 1 or 3. A side where v1
    and v3 share a {1,3}-Kempe component is stuck with its value; on any
    other side, exchanging 1 and 3 on v3's component, found once for the
    stuck test, flips v3 and leaves v1 and v2. If two stuck sides
    disagree, their connecting paths close an odd induced cycle of length
    at least seven, which raises InvariantViolation (input outside the
    class).
    """
    cut.validate(G)
    if len(side_colorings) != len(cut.sides):
        raise ContractViolation("one coloring per side is required")
    v1, v2, v3 = cut.path
    pmask = cut.path_mask()
    sides = []
    for mask, col in zip(cut.sides, side_colorings):
        if (col.k != 3 or not _is_proper(G, col, 0)
                or _class_mask(col, (0,)) != G.full_mask() & ~(mask | pmask)):
            raise ContractViolation(
                "each side coloring must be a proper 3-coloring of exactly its side and the path"
            )
        col = _permute_palette(col, {v1: 1, v2: 2})
        sides.append((col, kempe_component(G, col, (1, 3), v3)))

    stuck = [col for col, comp in sides if comp >> v1 & 1]
    stuck_values = {col.colors[v3] for col in stuck}
    if len(stuck_values) > 1:
        raise InvariantViolation(
            "sides force both parities at the cut path's end",
            tuple(_kempe_path(G, col, (1, 3), 1 << v1, 1 << v3) for col in stuck),
        )
    target = stuck_values.pop() if stuck_values else 1

    fitted = [col if col.colors[v3] == target else _exchange(col, (1, 3), comp)
              for col, comp in sides]
    # The fitted sides agree on the path and are 0 off it and their side.
    merged = Coloring(3, tuple(map(max, *(col.colors for col in fitted))))
    if not verify_coloring(G, merged):
        raise InvariantViolation("merged coloring improper; sides were inconsistent")
    return merged


def _permute_palette(c: Coloring, want: dict[int, int]) -> Coloring:
    """Least palette permutation sending each anchor vertex to its target;
    color 0 stays 0."""
    for perm in permutations(range(1, c.k + 1)):
        to = (0, *perm)
        if all(to[c.colors[v]] == target for v, target in want.items()):
            return Coloring(c.k, tuple(to[col] for col in c.colors))
    raise ContractViolation("no palette permutation satisfies the anchors")


def _kempe_path(G: Graph, c: Coloring, pair: tuple[int, int], s: int, t: int) -> tuple[int, ...]:
    """Shortest path inside the ``pair``-colored subgraph from the mask s
    to the first vertex of the mask t that breadth-first search reaches;
    () when it reaches none."""
    _, parent, order = bfs(G, s, _class_mask(c, pair))
    return next((tuple(path_to(parent, z)) for z in order if t >> z & 1), ())


def normalize_on_star(Gi: Graph, c: Coloring, v: int, X: int) -> Coloring:
    """Recolor so that v gets 1 and every vertex of X gets 2.

    After permuting the palette so v maps to 1, one pass swaps colors 2
    and 3 on every {2,3}-Kempe component that holds a leaf colored 3 and no
    leaf colored 2. A {2,3} exchange leaves the set of {2,3}-colored
    vertices as it is, so the components are fixed, and swapping one of
    these turns its 3-leaves into 2-leaves and touches no other component;
    so they can all be swapped at once, in any order. If a 3-leaf remains,
    its component also holds a 2-leaf, and a shortest leaf-to-leaf path in
    the {2,3}-subgraph is odd with interior outside the cutset, certifying
    an invalid cutset or an input outside the class; InvariantViolation
    carries that path. Vertices at 0 are uncolored: they join no Kempe
    component and stay 0, but the center and the leaves must be colored.
    """
    if not 0 <= v < Gi.n:
        raise ContractViolation(f"{v} is not a vertex of the graph")
    if X & ~Gi.adj[v]:
        raise ContractViolation("the center must be adjacent to every leaf")
    if c.k != 3 or not _is_proper(Gi, c, 0) or (X | 1 << v) & _class_mask(c, (0,)):
        raise ContractViolation("a proper three-coloring of the center and leaves is required")
    c = _permute_palette(c, {v: 1})
    two_leaves = X & _class_mask(c, (2,))
    three_leaves = X & _class_mask(c, (3,))
    pure = 0
    for comp in components_within(Gi, _class_mask(c, (2, 3))):
        if comp & three_leaves and not comp & two_leaves:
            pure |= comp
    c = _exchange(c, (2, 3), pure)
    if three_leaves & ~pure:
        raise InvariantViolation(
            "every exchange component mixes both leaf colors",
            _kempe_path(Gi, c, (2, 3), X & _class_mask(c, (2,)), X & _class_mask(c, (3,))),
        )
    if not _is_proper(Gi, c, 0):
        raise InvariantViolation("normalization produced an improper coloring")
    return c


def three_color(G: Graph, budget: SearchBudget | None = None) -> Coloring:
    """Proper 3-coloring by recursive decomposition.

    The coloring is that of a recursion over vertex sets of G, filled into
    one color array. One layer_parity sweep of the set gives every
    bipartite component its 2-coloring from its least vertex and lists the
    other components. One with a vertex of degree at most two inside it is
    colored without its least such vertex, a peel, which then takes the
    least color its neighbours leave free. Any other component is copied
    once and cut by decompose(): the ten-vertex base case is colored
    directly, a cut path colors its sides and recombines them with
    combine_p3, and a clique or star cutset colors each side together with
    the cut and fits it to the cut, by palette permutation or by
    normalize_on_star. Raises NoDecompositionFound when decompose finds
    nothing, which only happens off-class.

    The recursion is not run one sweep per peel. Components never touch,
    so peeling the least vertex of live degree at most two over all of
    them at once peels each in the recursion's order. A forward pass peels
    until no such vertex is left. A backward pass re-adds the peels in
    reverse, joining components by a parity union: a peel is one the
    recursion makes exactly when the part it closes is non-bipartite, and
    a bipartite part such a peel joins is one the recursion's sweep
    paints. The non-bipartite components the forward pass leaves are the
    cuts, made in the recursion's order, and then the peels take their
    colors, last peeled first. So a vertex set costs at most three sweeps
    however long its peel chains, and the colorings, the exceptions and
    the steps spent are the recursion's. Peels spend no steps; a budget of
    None is made fresh at the first cut.
    """
    out = [0] * G.n
    _color(G, G.full_mask(), out, budget, G.n + 2)
    result = Coloring(3, tuple(out))
    if not verify_coloring(G, result):
        raise InvariantViolation("three-coloring came out improper")
    return result


def _color(G: Graph, keep: int, out: list[int], budget: SearchBudget | None,
           depth: int) -> None:
    """Color G[keep] into ``out`` as three_color's recursion would, with at
    most three layer_parity sweeps: one here for the bipartite components,
    the others in _peel and _rejoin. The cuts come between the two passes,
    as the real peels' colors need theirs. A budget of None is made fresh
    at the first cut."""
    if depth < 0:
        raise InvariantViolation("coloring recursion exceeded its depth bound")
    adj = G.adj
    odd, clash = layer_parity(adj, keep)
    live = sum(clash)
    for v in iter_bits(keep & ~live):
        out[v] = 1 + (odd >> v & 1)
    if not clash:
        return
    peels, sure, swept, rest = _peel(adj, live, out)
    if rest or sure < len(peels):
        cuts, real = _rejoin(G, clash, peels, sure, swept, rest, out)
    else:
        # Every peel is known real and nothing is left to cut.
        cuts, real = [], peels[::-1]
    for comp in cuts:
        if budget is None:
            budget = SearchBudget.fresh()
        sub, old_ids = induced_subgraph(G, comp)
        with _witness_in(old_ids):
            for old, col in zip(old_ids, _color_cut(sub, budget, depth - 1)):
                out[old] = col
    for v, nbrs in real:
        # The least color the live neighbours leave free.
        used = 0
        for u in iter_bits(nbrs):
            used |= 1 << out[u]
        free = ~used & 0b1110
        out[v] = (free & -free).bit_length() - 1


def _peel(adj, live: int, out: list[int]) -> tuple[list, int, int, int]:
    """The forward pass over the non-bipartite components ``live``: peel
    the least live vertex of live degree at most two until none is left.

    Returns ``(peels, sure, swept, rest)``: the peels in order, each as
    (vertex, its live neighbours), of which the first ``sure`` are known
    to be real; the mask of the bipartite parts painted after the first
    degree-2 peel; and the vertices left, every one of live degree at
    least three. Up to that peel every peel has degree one, so its part
    stays connected and non-bipartite and the peel is real; one sweep
    then paints the bipartite parts it leaves from their least vertex.
    """
    deg = [0] * len(adj)
    low = 0
    rest = live
    while rest:
        bit = rest & -rest
        rest ^= bit
        v = bit.bit_length() - 1
        deg[v] = d = (adj[v] & live).bit_count()
        if d <= 2:
            low |= bit
    peels = []
    sure = None
    swept = 0
    while low:
        bit = low & -low
        low ^= bit
        live ^= bit
        v = bit.bit_length() - 1
        nbrs = adj[v] & live
        peels.append((v, nbrs))
        rest = nbrs
        while rest:
            ubit = rest & -rest
            rest ^= ubit
            u = ubit.bit_length() - 1
            deg[u] -= 1
            if deg[u] <= 2:
                low |= ubit
        if sure is None and deg[v] == 2:
            sure = len(peels)
            odd, parts = layer_parity(adj, live)
            swept = live & ~sum(parts)
            for u in iter_bits(swept):
                out[u] = 1 + (odd >> u & 1)
            live ^= swept
            low &= live
    return peels, len(peels) if sure is None else sure, swept, live


def _rejoin(G: Graph, clash: list[int], peels: list, sure: int, swept: int,
            rest: int, out: list[int]) -> tuple[list[int], list]:
    """The backward pass: re-add the peels in reverse order to the
    components of ``rest`` by a parity union and decide which peels the
    recursion makes.

    Each component is a record [mask, non-bipartite, the cuts below it in
    recursion order], found through a per-vertex label that a merge
    rewrites on the smaller side; ``side`` 2-colors every bipartite one.
    A peel has at most two live neighbours. It is real exactly when the
    part it closes is non-bipartite: every part the recursion peels on its
    way to that part contains it, and it never enters a bipartite part,
    which is painted whole. A real peel paints each bipartite component it
    joins from its least vertex, as the recursion's sweep of the rest
    would, and orders the cuts below it by the least vertex of their
    components. Returns the cuts in that order and the real peels in
    reverse order.
    """
    adj = G.adj
    label = [None] * G.n
    side, parts = layer_parity(adj, rest)
    records = [[m, True, [m]] for m in parts]
    records += [[m, False, []] for m in components_within(G, rest & ~sum(parts))]
    for rec in records:
        for x in iter_bits(rec[0]):
            label[x] = rec
    real = []
    for i in range(len(peels) - 1, -1, -1):
        v, nbrs = peels[i]
        bit = 1 << v
        # The records a and b of the live neighbours x and y, if any; a
        # neighbour painted after the first degree-2 peel has none.
        low = nbrs & -nbrs
        x = low.bit_length() - 1
        y = (nbrs ^ low).bit_length() - 1
        a = label[x] if nbrs else None
        b = label[y] if y >= 0 else None
        if a is None:
            a, x, b = b, y, None
        # Two neighbours on opposite sides of one component close an odd cycle.
        odd = a is b and a is not None and (side >> x ^ side >> y) & 1 == 1
        if a is b:
            b = None
        closes = (i < sure or odd or a is not None and a[1]
                  or b is not None and b[1])
        cuts = []
        if closes:
            real.append((v, nbrs))
            if b is not None and b[0] & -b[0] < a[0] & -a[0]:
                a, b = b, a
            for r in (a, b):
                if r is None:
                    continue
                if r[1]:
                    cuts += r[2]
                    continue
                m = r[0]
                flip = side >> ((m & -m).bit_length() - 1) & 1
                for u in iter_bits(m):
                    out[u] = 1 + ((side >> u & 1) ^ flip)
        else:
            # The part stays bipartite: align b with a, v opposite both.
            if b is not None and (side >> x ^ side >> y) & 1:
                side ^= a[0] if a[0].bit_count() < b[0].bit_count() else b[0]
            if a is not None:
                side = side & ~bit if side >> x & 1 else side | bit
        if a is None:
            label[v] = [bit, closes, cuts]
            continue
        if b is not None:
            # Merge into the larger record, relabelling the smaller.
            if b[0].bit_count() > a[0].bit_count():
                a, b = b, a
            for u in iter_bits(b[0]):
                label[u] = a
            a[0] |= b[0]
        a[0] |= bit
        a[1] = closes
        a[2] = cuts
        label[v] = a
    # Each top component, in order of least vertex, through a vertex of the
    # record that holds its cuts. Only the component of the first degree-2
    # peel has painted vertices, and there a degree-1 peel hanging off a
    # painted part has a record of its own, with no cuts; that peel's
    # record holds them all.
    cuts = []
    for comp in clash:
        if comp & swept:
            cuts += label[peels[sure - 1][0]][2]
        else:
            cuts += label[(comp & -comp).bit_length() - 1][2]
    return cuts, real


def _color_cut(G: Graph, budget: SearchBudget, depth: int) -> tuple[int, ...]:
    """Color a connected G that is neither bipartite nor has a vertex of
    degree at most two, along the arm decompose() finds. Each side of a cut
    is colored together with the cut into a fresh array, 0 elsewhere. A cut
    path's sides are merged by combine_p3; a clique or star cutset's are
    each fitted to the cut, merged and verified."""
    outcome = decompose(G, budget)
    if outcome.variant == "petersen":
        out = [0] * G.n
        for p, host in enumerate(outcome.embedding.mapping):
            out[host] = PETERSEN_COLORING[p]
        return tuple(out)
    if outcome.variant == "p3":
        cut, sides = outcome.p3.path_mask(), outcome.p3.sides
    elif outcome.variant == "clique_cut":
        cut = mask_of(outcome.clique)
        sides = components_within(G, G.full_mask() & ~cut)
    elif outcome.variant == "star":
        star = outcome.star
        cut, sides = star.cutset_mask(), star.components
    else:
        raise NoDecompositionFound("no decomposition applies; input is outside the class")
    fitted = []
    for side in sides:
        out = [0] * G.n
        _color(G, side | cut, out, budget, depth)
        col = Coloring(3, tuple(out))
        if outcome.variant == "clique_cut":
            col = _permute_palette(col, {u: i for i, u in enumerate(outcome.clique, 1)})
        elif outcome.variant == "star":
            col = normalize_on_star(G, col, star.center, star.leaves)
        fitted.append(col)
    if outcome.variant == "p3":
        return combine_p3(G, outcome.p3, fitted).colors
    # The fitted sides agree on the cut and are 0 off it and their side.
    merged = Coloring(3, tuple(map(max, *(col.colors for col in fitted))))
    if not verify_coloring(G, merged):
        raise InvariantViolation("merged coloring improper; sides disagree on the cut")
    return merged.colors


@contextmanager
def _witness_in(old_ids):
    """Rename the witness of an InvariantViolation raised in a copy from its
    ids i to old_ids[i]: a vertex tuple, or from combine_p3 a tuple of them."""
    try:
        yield
    except InvariantViolation as err:
        w = err.witness
        if w and isinstance(w[0], tuple):
            err.witness = tuple(tuple(old_ids[v] for v in path) for path in w)
        elif w:
            err.witness = tuple(old_ids[v] for v in w)
        raise


def chromatic_number_bruteforce(G: Graph, k_max: int) -> int | None:
    """Least number of colors in any proper coloring, or None when it
    exceeds k_max. Plain backtracking; vertices in descending-degree
    order, candidate colors capped at one above the count used so far."""
    if G.n == 0:
        return 0
    if k_max < 1:
        return None
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    adj = G.adj
    for k in range(1, k_max + 1):
        class_masks = [0] * (k + 1)

        def place(i: int, used: int) -> bool:
            if i == len(order):
                return True
            v = order[i]
            vb = 1 << v
            cap = min(k, used + 1)
            for col in range(1, cap + 1):
                if adj[v] & class_masks[col]:
                    continue
                class_masks[col] |= vb
                if place(i + 1, max(used, col)):
                    return True
                class_masks[col] &= ~vb
            return False

        if place(0, 0):
            return k
    return None
