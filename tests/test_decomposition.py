import pytest

from pentagraph import (
    ContractViolation,
    Hole,
    InvariantViolation,
    P3Cutset,
    ParityStarCutset,
    PENTAGRAPH,
    SearchBudget,
    SearchBudgetExceeded,
    analyze_attachment,
    bruteforce_star_search,
    decompose,
    find_clique_cutset,
    find_low_degree,
    find_p3_cutset,
    find_strong_parity_star_cutset,
    five_holes,
    make_graph,
    mask_of,
    naive_recognize,
    parse_graph6,
    recognize,
    revalidate_outcome,
    verify_parity_star_cutset,
)
from pentagraph import decomposition
from pentagraph.decomposition import (
    ATTACH_MANY,
    ATTACH_PAIR,
    ATTACH_PATH,
    DecompositionOutcome,
)
from pentagraph.fixtures import cycle, fixture, petersen

from conftest import make_rng, p3_gadget, star_gadget


def glue_petersens_at_vertex():
    """Two Petersen copies sharing vertex 9; min degree 3, cut vertex 9."""
    edges = list(petersen().edges())
    relabel = {0: 9}
    relabel.update({k: 9 + k for k in range(1, 10)})
    edges += [(relabel[u], relabel[v]) for u, v in petersen().edges()]
    return make_graph(19, edges)


def glue_petersens_on_path():
    """Two Petersen copies sharing the induced path 0-1-2; min degree 3,
    no clique cutset, and {0, 1, 2} cuts the graph.

    Not a class member: an odd path of length 4 in one copy closes with an
    even path of length 3 in the other into an induced 7-cycle. Still the
    right shape for exercising the cut-path arm, which no small member
    reaches (members with minimum degree 3 and no clique cutset are scarce
    below a dozen vertices)."""
    edges = list(petersen().edges())
    relabel = {0: 0, 1: 1, 2: 2}
    relabel.update({k: 7 + k for k in range(3, 10)})
    edges += [(relabel[u], relabel[v]) for u, v in petersen().edges()]
    return make_graph(17, edges)


def test_find_low_degree():
    assert find_low_degree(petersen()) is None
    assert find_low_degree(fixture("p1")) == 6
    assert find_low_degree(cycle(5)) == 0
    assert find_low_degree(make_graph(0, [])) is None
    assert find_low_degree(make_graph(3, [(0, 1), (0, 2), (1, 2)])) == 0


def test_find_clique_cutset():
    assert find_clique_cutset(p3_gadget()) == (1,)
    assert find_clique_cutset(petersen()) is None
    assert find_clique_cutset(star_gadget()) is None
    # Two pentagons sharing an edge: that edge is the first clique cutset.
    shared = make_graph(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 5), (5, 6), (6, 7), (7, 0)],
    )
    assert find_clique_cutset(shared) == (0, 1)
    assert find_clique_cutset(glue_petersens_at_vertex()) == (9,)


def test_find_p3_cutset():
    cut = find_p3_cutset(p3_gadget())
    assert cut.path == (0, 1, 2)
    assert cut.sides == (mask_of([3, 4, 6]), mask_of([5]))
    cut.validate(p3_gadget())
    assert find_p3_cutset(petersen()) is None
    # A two-leaf star cutset is also a cut path through its center.
    cut = find_p3_cutset(star_gadget())
    assert cut.path == (1, 0, 2)
    assert cut.sides == (mask_of([3, 4, 5, 9]), mask_of([6, 7, 8]))
    assert find_p3_cutset(cycle(6)) is None  # removal leaves one component


def test_p3_cutset_validation():
    G = p3_gadget()
    with pytest.raises(InvariantViolation):
        P3Cutset((0, 1, 5), (mask_of([2, 3, 4, 6]),)).validate(G)  # no cut
    with pytest.raises(InvariantViolation):
        P3Cutset((0, 4, 3), (1, 2)).validate(G)  # wrong sides stored
    with pytest.raises(InvariantViolation):
        P3Cutset((0, 1, 0), (1, 2)).validate(G)
    with pytest.raises(InvariantViolation):
        # 0-4-3 followed by the chord test: 4-0 and 4-3 edges, 0-3 missing,
        # but removal keeps the rest connected.
        P3Cutset((0, 4, 3), (mask_of([1, 2, 5, 6]),)).validate(G)


def test_verify_parity_star_cutset():
    S = star_gadget()
    cert = verify_parity_star_cutset(S, 0, mask_of([1, 2]))
    assert cert is not None and cert.strong
    assert cert.center == 0
    assert cert.leaf_list() == [1, 2]
    assert cert.witness_component == mask_of([3, 4, 5, 9])
    assert cert.components == (mask_of([3, 4, 5, 9]), mask_of([6, 7, 8]))
    assert cert.cutset_mask() == mask_of([0, 1, 2])

    # Not a cutset.
    assert verify_parity_star_cutset(cycle(5), 0, mask_of([1])) is None
    # Disconnects, but no component joins the leaves by an even path.
    P5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert verify_parity_star_cutset(P5, 2, mask_of([1, 3])) is None
    # A bare cut vertex is a valid certificate with no leaves.
    P3 = make_graph(3, [(0, 1), (1, 2)])
    cert = verify_parity_star_cutset(P3, 1, 0)
    assert cert is not None and cert.strong and cert.leaves == 0

    with pytest.raises(ContractViolation):
        verify_parity_star_cutset(S, 10, 0)
    with pytest.raises(ContractViolation):
        verify_parity_star_cutset(S, 0, mask_of([0, 1]))
    with pytest.raises(ContractViolation):
        verify_parity_star_cutset(S, 0, mask_of([3]))  # 3 is not a neighbor of 0
    with pytest.raises(ContractViolation):
        verify_parity_star_cutset(S, 0, 1 << 40)


def test_weak_certificate():
    # C4 plus an isolated vertex: {1; 0, 2} cuts off {3} and {4}; the pair
    # (0, 2) has the even path 0-3-2, but 1 has no neighbor outside the cut.
    G = make_graph(5, [(0, 1), (1, 2), (0, 3), (3, 2)])
    cert = verify_parity_star_cutset(G, 1, mask_of([0, 2]))
    assert cert is not None and not cert.strong
    assert cert.witness_component == mask_of([3])

    lie = ParityStarCutset(1, mask_of([0, 2]), mask_of([3]), True, cert.components)
    with pytest.raises(InvariantViolation):
        revalidate_outcome(G, DecompositionOutcome("star", star=lie))


def test_find_strong_star_on_gadget():
    S = star_gadget()
    hole = Hole((0, 1, 3, 4, 9))
    cert = find_strong_parity_star_cutset(S, hole)
    assert cert.center == 0
    assert cert.leaves == mask_of([1, 2])
    assert cert.strong
    # The jump builder finds it on its own, before any sweep.
    assert decomposition._jump_star(S, hole, SearchBudget.fresh()) == cert
    bf = bruteforce_star_search(S)
    assert (bf.center, bf.leaves) == (0, mask_of([1, 2]))


def test_find_strong_star_from_clique_cutset():
    # Two pentagons sharing vertex 0: the cut vertex is a star with no leaves.
    G = make_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                       (0, 5), (5, 6), (6, 7), (7, 8), (8, 0)])
    cert = find_strong_parity_star_cutset(G, Hole((0, 1, 2, 3, 4)))
    assert cert == ParityStarCutset(
        0, 0, mask_of([1, 2, 3, 4]), True, (mask_of([1, 2, 3, 4]), mask_of([5, 6, 7, 8]))
    )
    # Two pentagons sharing the edge 0-1: one end is the center, the other
    # its only leaf.
    G = make_graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                       (1, 5), (5, 6), (6, 7), (7, 0)])
    cert = find_strong_parity_star_cutset(G, Hole((0, 1, 2, 3, 4)))
    assert cert == ParityStarCutset(
        0, mask_of([1]), mask_of([2, 3, 4]), True, (mask_of([2, 3, 4]), mask_of([5, 6, 7]))
    )


# Off-class (it has triangles), but with minimum degree 3, no clique cutset
# and no cut path, so decompose tries the star builder on both 5-holes and
# then finds a star in the exhaustive sweep. Found by a seeded G(n, p)
# search over n = 8..14 and minimum degree >= 3.
STAR_ARM_G6 = "Ghd^|c"


def test_decompose_star_arm(monkeypatch):
    G = parse_graph6(STAR_ARM_G6)
    assert len(five_holes(G)) == 2
    assert find_p3_cutset(G) is None
    scans = []
    real_scan = decomposition.find_clique_cutset
    monkeypatch.setattr(
        decomposition, "find_clique_cutset", lambda G: scans.append(1) or real_scan(G)
    )
    out = decompose(G)
    assert out.variant == "star"
    assert out.star == ParityStarCutset(
        6, mask_of([0, 2, 5]), mask_of([1]), True, (mask_of([1]), mask_of([3, 4, 7]))
    )
    revalidate_outcome(G, out)
    # decompose has already ruled out a clique cutset; no 5-hole scans again.
    assert len(scans) == 1


def test_no_star_cutset_in_petersen():
    # The only 3-cuts of the Petersen graph are vertex neighborhoods,
    # which are independent sets, never a center plus its leaves.
    P = petersen()
    hole = Hole((0, 1, 2, 3, 4))
    assert find_strong_parity_star_cutset(P, hole) is None
    assert bruteforce_star_search(P) is None
    with pytest.raises(ContractViolation):
        find_strong_parity_star_cutset(P, Hole((0, 1, 2, 3, 4, 5)))
    with pytest.raises(SearchBudgetExceeded):
        find_strong_parity_star_cutset(P, hole, budget=SearchBudget(2))


def test_bruteforce_star_cap():
    # A center with more than MAX_LEAF_POOL neighbors is tried last, not
    # skipped: only the budget bounds the search.
    star14 = make_graph(14, [(0, v) for v in range(1, 14)])
    assert star14.degree(0) > decomposition.MAX_LEAF_POOL
    cert = bruteforce_star_search(star14)
    assert cert is not None and cert.center == 0 and cert.leaves == 0
    with pytest.raises(SearchBudgetExceeded):
        bruteforce_star_search(star14, SearchBudget(5))


def test_analyze_attachment_cases():
    P = petersen()
    # A vertex with three neighbors in the subgraph.
    rep = analyze_attachment(P, P.full_mask() & ~(1 << 9))
    assert rep.case == ATTACH_MANY
    assert rep.vertex == 9 and rep.neighbors == mask_of([4, 6, 7])

    # Exactly two (necessarily nonadjacent) neighbors.
    p1 = fixture("p1")
    rep = analyze_attachment(p1, mask_of(range(6)))
    assert rep.case == ATTACH_PAIR
    assert rep.vertex == 6 and rep.ends == (0, 3)

    # Every outside vertex sees at most one subgraph vertex.
    rep = analyze_attachment(P, mask_of(range(5)))
    assert rep.case == ATTACH_PATH
    assert rep.path.vertices == (0, 5, 7, 2)
    assert rep.ends == (0, 2)
    rep.path.validate(P)


def test_analyze_attachment_contracts():
    P = petersen()
    with pytest.raises(ContractViolation):
        analyze_attachment(P, mask_of([0, 1]))
    with pytest.raises(ContractViolation):
        analyze_attachment(P, P.full_mask())
    with pytest.raises(ContractViolation):
        analyze_attachment(P, mask_of([0, 2, 6]))  # disconnected induced set
    with pytest.raises(ContractViolation):
        analyze_attachment(p3_gadget(), mask_of([0, 1, 2]))  # clique cutset
    # Two adjacent attachment points certify girth below five.
    G = make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1), (5, 2)])
    with pytest.raises(InvariantViolation):
        analyze_attachment(G, mask_of([0, 1, 4]))


def test_decompose_bipartite():
    out = decompose(cycle(6))
    assert out.variant == "bipartite"
    assert out.two_coloring == (1, 2, 1, 2, 1, 2)
    revalidate_outcome(cycle(6), out)
    out = decompose(make_graph(0, []))
    assert out.variant == "bipartite" and out.two_coloring == ()


def test_decompose_low_degree():
    out = decompose(cycle(5))
    assert out.variant == "low_degree" and out.vertex == 0
    revalidate_outcome(cycle(5), out)
    out = decompose(fixture("p2"))
    assert out.variant == "low_degree" and out.vertex == 0
    revalidate_outcome(fixture("p2"), out)


def test_decompose_petersen():
    out = decompose(petersen())
    assert out.variant == "petersen"
    out.embedding.validate(petersen(), petersen())
    revalidate_outcome(petersen(), out)


def test_decompose_clique_cut():
    G = glue_petersens_at_vertex()
    assert naive_recognize(G).verdict == PENTAGRAPH
    out = decompose(G)
    assert out.variant == "clique_cut" and out.clique == (9,)
    revalidate_outcome(G, out)

    # Sharing an edge instead: every induced cycle stays inside one copy,
    # so the graph is still a member, and the shared edge is the cut.
    edges = list(petersen().edges())
    relabel = {0: 0, 1: 1}
    relabel.update({k: 8 + k for k in range(2, 10)})
    edges += [(relabel[u], relabel[v]) for u, v in petersen().edges()]
    H = make_graph(18, edges)
    assert naive_recognize(H).verdict == PENTAGRAPH
    out = decompose(H)
    assert out.variant == "clique_cut" and out.clique == (0, 1)
    revalidate_outcome(H, out)


def test_decompose_p3():
    G = glue_petersens_on_path()
    rep = naive_recognize(G)
    assert rep.girth == 5
    assert len(rep.witness) == 7  # off-class by a long odd hole, see docstring
    out = decompose(G)
    assert out.variant == "p3"
    assert out.p3.path == (0, 1, 2)
    assert out.p3.sides == (mask_of(range(3, 10)), mask_of(range(10, 17)))
    revalidate_outcome(G, out)


def test_decompose_none_found_off_class():
    K4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    out = decompose(K4)
    assert out.variant == "none_found"
    with pytest.raises(InvariantViolation):
        revalidate_outcome(K4, out)


def test_decompose_budget():
    with pytest.raises(SearchBudgetExceeded):
        decompose(petersen(), budget=SearchBudget(1))


def test_decompose_members_and_revalidate(random_pentagraphs_20):
    seen = set()
    for G in random_pentagraphs_20:
        out = decompose(G)
        seen.add(out.variant)
        assert out.variant != "none_found"
        revalidate_outcome(G, out)
    assert "bipartite" in seen and "low_degree" in seen


def test_revalidate_rejects_bad_certificates():
    C6 = cycle(6)
    for bad in [
        DecompositionOutcome("bipartite", two_coloring=(1, 1, 1, 1, 1, 1)),
        DecompositionOutcome("bipartite", two_coloring=(1, 2)),
        DecompositionOutcome("bipartite", two_coloring=None),
        DecompositionOutcome("low_degree", vertex=None),
        DecompositionOutcome("petersen"),
        DecompositionOutcome("clique_cut", clique=()),
        DecompositionOutcome("clique_cut", clique=(0,)),
        DecompositionOutcome("p3", p3=None),
        DecompositionOutcome("star", star=None),
        DecompositionOutcome("none_found"),
        DecompositionOutcome("mystery"),
    ]:
        with pytest.raises(InvariantViolation):
            revalidate_outcome(C6, bad)
    P = petersen()
    with pytest.raises(InvariantViolation):
        revalidate_outcome(P, DecompositionOutcome("low_degree", vertex=3))
    with pytest.raises(InvariantViolation):
        # C5 has no star cutset, so this certificate cannot re-verify.
        revalidate_outcome(
            cycle(5),
            DecompositionOutcome(
                "star",
                star=ParityStarCutset(0, mask_of([1]), mask_of([3]), True, ()),
            ),
        )


def test_decompose_terminates_via_recursive_shrink(small_pentagraphs):
    rng = make_rng("decompose-sample")
    sample = rng.sample(small_pentagraphs, 400)
    for G in sample:
        out = decompose(G)
        assert out.variant != "none_found"
        revalidate_outcome(G, out)
