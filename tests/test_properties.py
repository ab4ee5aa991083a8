"""Per-graph theorem checkers: the layer test, the decomposition test, the
extension test for graphs holding the eight-vertex fixture, and the jump
pair test."""

import pytest

from pentagraph import (
    CHECKS,
    InvariantViolation,
    SearchBudget,
    check_decomposition,
    check_layered_coloring,
    check_local_jump_pairs,
    check_p2_extension,
    enumerate_induced_paths,
    is_isomorphic,
    make_graph,
    mask_of,
    naive_recognize,
)
from pentagraph.fixtures import cycle, fixture, petersen

from conftest import star_gadget
from test_decomposition import glue_petersens_at_vertex


def k4():
    return make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def jump_clash_gadget():
    """Pentagon with two short jumps meeting at vertex 1 and no short jump
    joining 1's ring neighbors through their interiors.

    Outside the class: 5-6-4-3-8-7-1 is an induced 7-cycle. The jump pair
    check reports it as a counterexample."""
    return make_graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (1, 5), (5, 6), (6, 4),
         (1, 7), (7, 8), (8, 3)],
    )


def test_registry():
    assert set(CHECKS) == {"t12", "t13", "t25", "t31"}
    assert CHECKS["t12"] is check_layered_coloring
    assert CHECKS["t13"] is check_decomposition
    assert CHECKS["t25"] is check_p2_extension
    assert CHECKS["t31"] is check_local_jump_pairs


def test_layered_coloring_on_members(random_pentagraphs_20):
    for name in ("c5", "p0", "p1", "p2", "petersen"):
        r = check_layered_coloring(fixture(name))
        assert r.ok and not r.indeterminate
    for G in random_pentagraphs_20[:60]:
        assert check_layered_coloring(G).ok


def test_layered_coloring_counterexample():
    r = check_layered_coloring(k4())
    assert not r.ok
    idx, cyc = r.witness
    assert idx == 1 and set(cyc) == {1, 2, 3} and len(cyc) % 2 == 1
    assert "layer 1" in r.detail
    # Witness labels must come from the host graph, not the subgraph.
    union = make_graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        + [(u, v) for u in range(5, 9) for v in range(u + 1, 9)],
    )
    r = check_layered_coloring(union)
    assert not r.ok and set(r.witness[1]) == {6, 7, 8}
    # The checker hunts counterexamples to the layer property; a 7-cycle
    # has bipartite layers, so it passes despite being outside the class.
    assert check_layered_coloring(cycle(7)).ok


def test_decomposition_check_on_fixtures():
    for name in ("c5", "p0", "p1", "p2"):
        r = check_decomposition(fixture(name))
        assert r.ok and r.detail == "variant low_degree revalidated"
    r = check_decomposition(petersen())
    assert r.ok and r.detail == "variant petersen revalidated"


def test_decomposition_check_members(small_pentagraphs, random_pentagraphs_20):
    for G in small_pentagraphs[::313]:
        assert check_decomposition(G).ok
    for G in random_pentagraphs_20[:40]:
        r = check_decomposition(G, SearchBudget(10**8))
        assert r.ok and not r.indeterminate


def test_decomposition_check_counterexample_and_budget():
    r = check_decomposition(k4())
    assert not r.ok and r.detail == "no decomposition arm applies"
    r = check_decomposition(petersen(), SearchBudget(1))
    assert r.ok and r.indeterminate


def test_p2_extension_premise_void():
    assert check_p2_extension(fixture("c5")).detail == "premise void: no induced copy of p2"
    assert check_p2_extension(star_gadget()).ok


def test_p2_extension_reference_graphs():
    for name in ("petersen", "p0", "p1", "p2"):
        r = check_p2_extension(fixture(name))
        assert r.ok and r.detail == f"isomorphic to {name}"
    # A pentagon with two short jumps sharing an interior vertex is the
    # eight-vertex fixture in disguise.
    H = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (1, 5), (5, 6), (6, 3), (5, 7), (7, 4)],
    )
    assert naive_recognize(H).verdict == "pentagraph"
    assert is_isomorphic(H, fixture("p2"))
    r = check_p2_extension(H)
    assert r.ok and r.detail == "isomorphic to p2"


def test_p2_extension_cutset_and_budget():
    r = check_p2_extension(glue_petersens_at_vertex())
    assert r.ok and r.detail == "cut path found"
    r = check_p2_extension(petersen(), SearchBudget(1))
    assert r.ok and r.indeterminate


def test_p2_extension_members(random_pentagraphs_20):
    for G in random_pentagraphs_20[:40]:
        r = check_p2_extension(G, SearchBudget(10**8))
        assert r.ok and not r.indeterminate


def test_jump_pairs_vacuous_and_empty():
    r = check_local_jump_pairs(fixture("c5"))
    assert r.ok and r.detail == "0 qualifying pairs all held"
    assert check_local_jump_pairs(petersen()).detail == "premise void: contains p2"
    assert check_local_jump_pairs(star_gadget()).detail == "0 qualifying pairs all held"


def test_jump_pairs_members(random_pentagraphs_20):
    for G in random_pentagraphs_20[:40]:
        r = check_local_jump_pairs(G, SearchBudget(10**8))
        assert r.ok and not r.indeterminate


def test_jump_pairs_counterexample():
    G = jump_clash_gadget()
    # Independent ground truth: no length-3 path joins 0 and 2 through the
    # two jump interiors.
    assert not enumerate_induced_paths(
        G, 0, 2, mask_of((5, 6, 7, 8)), min_len=3, max_len=3, limit=1
    )
    r = check_local_jump_pairs(G)
    assert not r.ok and not r.indeterminate
    assert r.detail == "no short jump across 1"
    ring, path1, path2 = r.witness
    assert ring == (0, 1, 2, 3, 4)
    assert {frozenset(path1), frozenset(path2)} == {
        frozenset({1, 5, 6, 4}),
        frozenset({1, 7, 8, 3}),
    }


def test_jump_pairs_budget_outcomes():
    G = jump_clash_gadget()
    r = check_local_jump_pairs(G, SearchBudget(1))
    assert r.ok and r.indeterminate and r.detail == "budget ran out"
    # A budget that survives the hole scan but runs out in the jump scan.
    r = check_local_jump_pairs(G, SearchBudget(60))
    assert r.ok and r.indeterminate and r.detail == "budget ran out"


def test_jump_pairs_raises_on_even_local_jump():
    # Pentagon with two length-7 jumps stitched by a short connector; the
    # stitching leaves an even local jump over a new 5-hole, a structure
    # impossible in the class, and the jump classifier rejects it.
    G = make_graph(
        17,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
         (1, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10), (10, 3),
         (3, 11), (11, 12), (12, 13), (13, 14), (14, 15), (15, 16), (16, 0),
         (2, 7), (7, 13), (13, 4)],
    )
    assert naive_recognize(G).verdict == "not_pentagraph"
    with pytest.raises(InvariantViolation):
        check_local_jump_pairs(G)
