"""Certified colorings: the layered 4-coloring, the recursive 3-coloring
with Kempe-exchange recombination, and a brute-force oracle.

The 3-coloring recursion colors vertex sets of the input graph into one
array, one component at a time, and copies a subgraph only to cut a
component that is neither bipartite nor has a vertex of degree at most two.
The sides of a clique or star cutset are each colored with the cut and
fitted to it, and the merged coloring is verified. Both top-level colorers
verify properness before returning. Recombination steps that would only
fail on inputs outside the class raise InvariantViolation carrying the
offending structure instead of returning a bad coloring.
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
    bit_list,
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
    """A total color assignment, colors[v] in 1..k."""

    k: int
    colors: tuple[int, ...]


def verify_coloring(G: Graph, c: Coloring) -> bool:
    """True iff proper, that is, no vertex has a neighbour in its own color
    class, tested with one mask per class; raises on assignments that are
    not total maps into 1..k."""
    if len(c.colors) != G.n:
        raise ContractViolation("assignment must cover every vertex exactly once")
    classes: dict[int, int] = {}
    for v, col in enumerate(c.colors):
        if not 1 <= col <= c.k:
            raise ContractViolation(f"colors must lie in 1..{c.k}")
        classes[col] = classes.get(col, 0) | 1 << v
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
    a, b = pair
    comp = kempe_component(G, c, pair, v)
    out = list(c.colors)
    for u in iter_bits(comp):
        out[u] = a if out[u] == b else b
    return Coloring(c.k, tuple(out))


def four_color(G: Graph) -> Coloring:
    """Layered 4-coloring: 2-color each breadth-first layer, palette {1,2}
    on even layers and {3,4} on odd ones.

    Works per component (source = least vertex). One layer_parity call
    on G gives the odd layers; a second, on the edges inside layers, gives
    each layer's sides, and it seeds each layer's vertices in ascending
    order, as a search per layer would, so the sides are the same. A layer
    inducing a non-bipartite subgraph means the input was not in the
    class; then the layers are checked one by one, in (component, layer)
    order, and the first odd one raises InvariantViolation with (layer
    index, odd cycle) as witness.
    """
    full = G.full_mask()
    odd = layer_parity(G.adj, full)[0]  # the vertices of odd layers
    even = ~odd
    # No edge skips a layer, so same-parity neighbours are same-layer ones.
    inner = [a & (odd if odd >> v & 1 else even) for v, a in enumerate(G.adj)]
    side, flat = layer_parity(inner, full)
    if not flat:
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

    Side i colors G[sides[i] plus the cut path]. Palettes are permuted so
    every side sends v1 to 1 and v2 to 2; each side then gives v3 either 1
    or 3. A side where v1 and v3 share a {1,3}-Kempe component is stuck
    with its value; other sides can be flipped at v3. If two stuck sides
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
        sub, old_ids = induced_subgraph(G, mask | pmask)
        if col.k != 3 or not verify_coloring(sub, col):
            raise ContractViolation("side colorings must be proper with three colors")
        pos = {old: new for new, old in enumerate(old_ids)}
        col = _permute_palette(col, {pos[v1]: 1, pos[v2]: 2})
        stuck = kempe_component(sub, col, (1, 3), pos[v3]) >> pos[v1] & 1
        sides.append((sub, old_ids, pos, col, bool(stuck)))

    stuck_values = {s[3].colors[s[2][v3]] for s in sides if s[4]}
    if len(stuck_values) > 1:
        raise InvariantViolation(
            "sides force both parities at the cut path's end",
            tuple(_alternating_path(s[0], s[3], s[2][v1], s[2][v3], s[1]) for s in sides if s[4]),
        )
    target = stuck_values.pop() if stuck_values else 1

    out = [0] * G.n
    out[v1], out[v2], out[v3] = 1, 2, target
    for sub, old_ids, pos, col, stuck in sides:
        if col.colors[pos[v3]] != target:
            col = kempe_swap(sub, col, (1, 3), pos[v3])
        for new, old in enumerate(old_ids):
            out[old] = col.colors[new]
    merged = Coloring(3, tuple(out))
    if not verify_coloring(G, merged):
        raise InvariantViolation("merged coloring improper; sides were inconsistent")
    return merged


def _permute_palette(c: Coloring, want: dict[int, int]) -> Coloring:
    """Least palette permutation sending each anchor vertex to its target."""
    for perm in permutations(range(1, c.k + 1)):
        if all(perm[c.colors[v] - 1] == target for v, target in want.items()):
            return Coloring(c.k, tuple(perm[col - 1] for col in c.colors))
    raise ContractViolation("no palette permutation satisfies the anchors")


def _alternating_path(
    sub: Graph, col: Coloring, s: int, t: int, old_ids: tuple[int, ...]
) -> tuple[int, ...]:
    """Shortest path from s to t inside the {1,3}-colored subgraph,
    reported in the parent graph's vertex ids."""
    _, parent, _ = bfs(sub, 1 << s, _class_mask(col, (1, 3)))
    return tuple(old_ids[v] for v in path_to(parent, t))


def normalize_on_star(Gi: Graph, c: Coloring, v: int, X: int) -> Coloring:
    """Recolor so that v gets 1 and every vertex of X gets 2.

    After permuting the palette so v maps to 1, repeatedly find a
    {2,3}-Kempe component that contains a leaf colored 3 and no leaf
    colored 2, and swap it; each pass strictly shrinks the set of leaves
    colored 3, so at most |X| passes run. If every component containing a
    3-leaf also holds a 2-leaf, a shortest leaf-to-leaf path in the
    {2,3}-subgraph is odd with interior outside the cutset, certifying an
    invalid cutset or an input outside the class; InvariantViolation
    carries that path.
    """
    if not 0 <= v < Gi.n:
        raise ContractViolation(f"{v} is not a vertex of the graph")
    if X & ~Gi.adj[v]:
        raise ContractViolation("the center must be adjacent to every leaf")
    if c.k != 3 or not verify_coloring(Gi, c):
        raise ContractViolation("a proper three-coloring is required")
    c = _permute_palette(c, {v: 1})
    passes = 0
    limit = X.bit_count()
    while True:
        three_leaves = X & _class_mask(c, (3,))
        if not three_leaves:
            break
        if passes > limit:
            raise InvariantViolation("leaf recoloring failed to terminate")
        two_leaves = X & _class_mask(c, (2,))
        swapped = False
        for u in iter_bits(three_leaves):
            if not kempe_component(Gi, c, (2, 3), u) & two_leaves:
                c = kempe_swap(Gi, c, (2, 3), u)
                swapped = True
                break
        if not swapped:
            witness = _mixed_leaf_path(Gi, c, X)
            raise InvariantViolation(
                "every exchange component mixes both leaf colors", witness
            )
        passes += 1
    if not verify_coloring(Gi, c):
        raise InvariantViolation("normalization produced an improper coloring")
    return c


def _mixed_leaf_path(Gi: Graph, c: Coloring, X: int) -> tuple[int, ...]:
    """Shortest path in the {2,3}-subgraph from a leaf colored 2 to a leaf
    colored 3; its interior avoids the leaves, and it has odd length."""
    _, parent, order = bfs(Gi, X & _class_mask(c, (2,)), _class_mask(c, (2, 3)))
    for z in order:
        if X >> z & 1 and c.colors[z] == 3:
            return tuple(path_to(parent, z))
    return ()


def three_color(G: Graph, budget: SearchBudget | None = None) -> Coloring:
    """Proper 3-coloring by recursive decomposition.

    Fills one color array indexed by G's vertices, one component of a
    vertex set at a time. A bipartite component gets its 2-coloring. One
    with a vertex of degree at most two inside it is colored without its
    least such vertex, which then takes the least color its neighbours
    leave free. Any other component is copied once and cut by decompose():
    the ten-vertex base case is colored directly, a cut path colors its
    sides and recombines them with combine_p3, and a clique or star cutset
    colors each side together with the cut and fits it to the cut, by
    palette permutation or by normalize_on_star. Raises
    NoDecompositionFound when decompose finds nothing, which only happens
    off-class.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    out = [0] * G.n
    _color(G, G.full_mask(), out, budget, G.n + 2)
    result = Coloring(3, tuple(out))
    if not verify_coloring(G, result):
        raise InvariantViolation("three-coloring came out improper")
    return result


def _color(G: Graph, keep: int, out: list[int], budget: SearchBudget, depth: int) -> None:
    """Color G[keep] into ``out``."""
    if depth < 0:
        raise InvariantViolation("coloring recursion exceeded its depth bound")
    adj = G.adj
    for comp in components_within(G, keep):
        odd, flat = layer_parity(adj, comp)
        if flat:
            for v in iter_bits(comp):
                out[v] = 1 + (odd >> v & 1)
            continue
        low = next((v for v in iter_bits(comp) if (adj[v] & comp).bit_count() <= 2), None)
        if low is not None:
            _color(G, comp & ~(1 << low), out, budget, depth - 1)
            forbidden = {out[u] for u in iter_bits(adj[low] & comp)}
            out[low] = min(c for c in (1, 2, 3) if c not in forbidden)
            continue
        sub, old_ids = induced_subgraph(G, comp)
        with _witness_in(old_ids):
            for old, col in zip(old_ids, _color_cut(sub, budget, depth - 1)):
                out[old] = col


def _color_side(G: Graph, keep: int, out: list[int], budget: SearchBudget,
                depth: int) -> Coloring:
    """Color G[keep] into ``out`` and return the coloring of the relabelled
    copy of G[keep], which keeps vertex order, before the next side
    overwrites the cut's colors."""
    _color(G, keep, out, budget, depth)
    return Coloring(3, tuple(out[v] for v in iter_bits(keep)))


def _color_cut(G: Graph, budget: SearchBudget, depth: int) -> tuple[int, ...]:
    """Color a connected G that is neither bipartite nor has a vertex of
    degree at most two, along the arm decompose() finds. Each side of a
    clique or star cutset is colored together with the cut, fitted to it
    and written back, and the merge is verified."""
    outcome = decompose(G, budget)
    out = [0] * G.n
    if outcome.variant == "petersen":
        for p, host in enumerate(outcome.embedding.mapping):
            out[host] = PETERSEN_COLORING[p]
        return tuple(out)
    if outcome.variant == "p3":
        cut = outcome.p3
        cols = [_color_side(G, side | cut.path_mask(), out, budget, depth) for side in cut.sides]
        return combine_p3(G, cut, cols).colors
    if outcome.variant == "clique_cut":
        cut = mask_of(outcome.clique)
        sides = components_within(G, G.full_mask() & ~cut)
    elif outcome.variant == "star":
        star = outcome.star
        cut = star.cutset_mask()
        sides = star.components
    else:
        raise NoDecompositionFound("no decomposition applies; input is outside the class")
    for side in sides:
        col = _color_side(G, side | cut, out, budget, depth)
        ids = bit_list(side | cut)
        if outcome.variant == "clique_cut":
            col = _permute_palette(col, {ids.index(u): i for i, u in enumerate(outcome.clique, 1)})
        else:
            leaves = mask_of(ids.index(u) for u in iter_bits(star.leaves))
            Gi = induced_subgraph(G, side | cut)[0]
            with _witness_in(ids):
                col = normalize_on_star(Gi, col, ids.index(star.center), leaves)
        for v, c in zip(ids, col.colors):
            out[v] = c
    if not verify_coloring(G, Coloring(3, tuple(out))):
        raise InvariantViolation("merged coloring improper; sides disagree on the cut")
    return tuple(out)


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
