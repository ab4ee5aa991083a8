"""Certificate mutation fuzzing: revalidate_outcome against a brute-force
reading of each certificate.

Seed certificates come from every arm decompose() returns, on fixtures,
gadgets, the 95-vertex member cut by a path and seeded random graphs
chosen because decompose reaches the arm on them. Each example damages one field of one seed: an id out of range,
a tuple one too long or too short, a leaf added or dropped, sides swapped,
merged or reordered, a wrong witness, or the strong flag flipped.
revalidate_outcome must refuse the mutant with InvariantViolation exactly
when oracles.o_certificate_holds says the certificate is false.
"""

import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from pentagraph import (
    DecompositionOutcome,
    InvariantViolation,
    decompose,
    find_p3_cutset,
    make_graph,
    mask_of,
    revalidate_outcome,
    verify_parity_star_cutset,
)
from pentagraph.fixtures import cycle, petersen

from conftest import p3_gadget, star_gadget
from oracles import o_certificate_holds
from test_decomposition import glue_petersens_at_vertex, glue_petersens_on_path
from test_p3_members import p3_member_graphs

# Seeds of gnp() on which decompose returns the arm; a plain sample of
# these graphs almost never reaches the clique, p3 or star arm.
GNP_SEEDS = {
    "low_degree": (0,),
    "bipartite": (1,),
    "clique_cut": (1526,),
    "p3": (74, 88),
    "star": (325, 471, 766),
    "none_found": (264,),
}


def gnp(seed):
    rng = random.Random(seed)
    n = rng.randrange(8, 15)
    p = rng.uniform(0.2, 0.45)
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@cache
def seed_certificates():
    """(graph, outcome) pairs covering every arm of decompose."""
    out = [(G, decompose(G)) for G in (
        cycle(6), cycle(5), petersen(), glue_petersens_at_vertex(), glue_petersens_on_path(),
        p3_member_graphs()[0],
    )]
    G = p3_gadget()
    out.append((G, DecompositionOutcome("p3", p3=find_p3_cutset(G))))
    G = star_gadget()
    star = verify_parity_star_cutset(G, 0, mask_of((1, 2)))
    out.append((G, DecompositionOutcome("star", star=star)))
    for variant, seeds in GNP_SEEDS.items():
        for seed in seeds:
            G = gnp(seed)
            outcome = decompose(G)
            assert outcome.variant == variant, (seed, outcome.variant)
            out.append((G, outcome))
    return tuple(out)


def test_seed_certificates_cover_every_arm_and_hold():
    seeds = seed_certificates()
    assert {out.variant for _, out in seeds} == {
        "bipartite", "low_degree", "petersen", "clique_cut", "p3", "star", "none_found",
    }
    for G, out in seeds:
        assert o_certificate_holds(G, out) == (out.variant != "none_found")


def bad_id(draw, G):
    return draw(st.sampled_from((-1, G.n, G.n + 3)))


def mutate_tuple(draw, G, tup, ids):
    """One damaged copy of a tuple field: an entry out of range (when the
    entries are vertex ids), one entry too many or too few, two entries
    swapped or merged into one, or the entries reordered."""
    kind = draw(st.sampled_from(("long", "short", "swap", "merge", "reorder", "bad_id")))
    tup = list(tup)
    if kind == "long":
        tup.append(draw(st.sampled_from(tup)) if tup else 0)
    elif kind == "short" and tup:
        tup.pop(draw(st.integers(0, len(tup) - 1)))
    elif kind == "bad_id" and ids and tup:
        tup[draw(st.integers(0, len(tup) - 1))] = bad_id(draw, G)
    elif kind in ("swap", "merge") and len(tup) >= 2:
        i, j = draw(st.lists(st.integers(0, len(tup) - 1), min_size=2, max_size=2, unique=True))
        if kind == "swap":
            tup[i], tup[j] = tup[j], tup[i]
        else:
            tup[i] |= tup[j]
            del tup[j]
    elif kind == "reorder":
        tup = draw(st.permutations(tup))
    return tuple(tup)


def mutate(draw, G, out):
    """One damaged copy of a certificate."""
    v = out.variant
    if v == "bipartite":
        col = list(out.two_coloring)
        if draw(st.booleans()) and col:
            i = draw(st.integers(0, len(col) - 1))
            col[i] = draw(st.sampled_from((0, 3, 3 - col[i])))
            return replace(out, two_coloring=tuple(col))
        return replace(out, two_coloring=mutate_tuple(draw, G, col, ids=False))
    if v == "low_degree":
        w = draw(st.integers(0, G.n - 1)) if draw(st.booleans()) else bad_id(draw, G)
        return replace(out, vertex=w)
    if v == "petersen":
        m = mutate_tuple(draw, G, out.embedding.mapping, ids=True)
        return replace(out, embedding=replace(out.embedding, mapping=m))
    if v == "clique_cut":
        if draw(st.booleans()):
            extra = draw(st.integers(0, G.n - 1))
            return replace(out, clique=tuple(sorted(set(out.clique) ^ {extra})))
        return replace(out, clique=mutate_tuple(draw, G, out.clique, ids=True))
    if v == "p3":
        cut = out.p3
        if draw(st.booleans()):
            return replace(out, p3=replace(cut, path=mutate_tuple(draw, G, cut.path, ids=True)))
        return replace(out, p3=replace(cut, sides=mutate_tuple(draw, G, cut.sides, ids=False)))
    if v == "star":
        star = out.star
        field = draw(st.sampled_from(("center", "leaves", "witness", "strong", "components")))
        if field == "center":
            return replace(out, star=replace(star, center=draw(
                st.sampled_from((*range(G.n), -1, G.n, G.n + 3)))))
        if field == "leaves":
            flip = draw(st.sampled_from((*range(G.n), G.n, G.n + 3)))
            return replace(out, star=replace(star, leaves=star.leaves ^ 1 << flip))
        if field == "witness":
            other = draw(st.sampled_from((*star.components, 0, 1 << G.n, star.witness_component
                                          | star.leaves)))
            return replace(out, star=replace(star, witness_component=other))
        if field == "strong":
            return replace(out, star=replace(star, strong=not star.strong))
        comps = mutate_tuple(draw, G, star.components, ids=False)
        return replace(out, star=replace(star, components=comps))
    return out


@settings(deadline=None, max_examples=400)
@given(st.data())
def test_revalidate_refuses_exactly_the_false_mutants(data):
    G, out = data.draw(st.sampled_from(seed_certificates()))
    mutant = mutate(data.draw, G, out)
    try:
        revalidate_outcome(G, mutant)
    except InvariantViolation:
        assert not o_certificate_holds(G, mutant), mutant
    else:
        assert o_certificate_holds(G, mutant), mutant


def test_revalidate_refuses_a_flipped_strong_flag():
    # The gadget's star is strong: its center 0 has the neighbour 9 in the
    # witness. A certificate saying otherwise is false, and so is one that
    # calls a star strong whose center has no neighbour in the witness.
    G = star_gadget()
    out = DecompositionOutcome("star", star=verify_parity_star_cutset(G, 0, mask_of((1, 2))))
    assert out.star.strong
    weak = replace(out, star=replace(out.star, strong=False))
    assert not o_certificate_holds(G, weak)
    with pytest.raises(InvariantViolation, match="strong flag"):
        revalidate_outcome(G, weak)
