"""The 3-coloring recursion as it stood before its peels ran in one pass,
kept as the reference for three_color's order of peels and cuts.

Unlike the oracles in oracles.py it reuses the library's cut arms and
recombination steps: only the peel, one layer_parity sweep and one
recursive call per peeled vertex, is written out here.
"""

from pentagraph import (
    Coloring,
    InvariantViolation,
    NoDecompositionFound,
    PETERSEN_COLORING,
    combine_p3,
    components_within,
    decompose,
    induced_subgraph,
    iter_bits,
    layer_parity,
    mask_of,
    normalize_on_star,
    verify_coloring,
)
from pentagraph.coloring import _permute_palette, _witness_in


def o_three_color(G, budget):
    """three_color by plain recursion, one layer_parity sweep per call: a
    non-bipartite component with a vertex of degree at most two is colored
    without its least such vertex, which then takes the least color its
    neighbours leave free; any other is copied and cut."""
    out = [0] * G.n
    _o_color(G, G.full_mask(), out, budget, G.n + 2)
    result = Coloring(3, tuple(out))
    if not verify_coloring(G, result):
        raise InvariantViolation("three-coloring came out improper")
    return result


def _o_color(G, keep, out, budget, depth):
    if depth < 0:
        raise InvariantViolation("coloring recursion exceeded its depth bound")
    adj = G.adj
    odd, clash = layer_parity(adj, keep)
    for v in iter_bits(keep & ~sum(clash)):
        out[v] = 1 + (odd >> v & 1)
    for comp in clash:
        low = next((v for v in iter_bits(comp) if (adj[v] & comp).bit_count() <= 2), None)
        if low is not None:
            _o_color(G, comp & ~(1 << low), out, budget, depth - 1)
            forbidden = {out[u] for u in iter_bits(adj[low] & comp)}
            out[low] = min(c for c in (1, 2, 3) if c not in forbidden)
            continue
        sub, old_ids = induced_subgraph(G, comp)
        with _witness_in(old_ids):
            for old, col in zip(old_ids, _o_color_cut(sub, budget, depth - 1)):
                out[old] = col


def _o_color_cut(G, budget, depth):
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
        _o_color(G, side | cut, out, budget, depth)
        col = Coloring(3, tuple(out))
        if outcome.variant == "clique_cut":
            col = _permute_palette(col, {u: i for i, u in enumerate(outcome.clique, 1)})
        elif outcome.variant == "star":
            col = normalize_on_star(G, col, star.center, star.leaves)
        fitted.append(col)
    if outcome.variant == "p3":
        return combine_p3(G, outcome.p3, fitted).colors
    merged = Coloring(3, tuple(map(max, *(col.colors for col in fitted))))
    if not verify_coloring(G, merged):
        raise InvariantViolation("merged coloring improper; sides disagree on the cut")
    return merged.colors
