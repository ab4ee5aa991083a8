import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from pentagraph import (
    ContractViolation,
    Embedding,
    Hole,
    InducedPath,
    InvariantViolation,
    P3Cutset,
    ParityStarCutset,
    PENTAGRAPH,
    SearchBudget,
    SearchBudgetExceeded,
    bruteforce_star_search,
    decompose,
    distance,
    find_clique_cutset,
    find_low_degree,
    find_p3_cutset,
    find_strong_parity_star_cutset,
    five_holes,
    make_graph,
    mask_of,
    naive_recognize,
    parse_graph6,
    revalidate_outcome,
    verify_parity_star_cutset,
)
from pentagraph import decomposition
from pentagraph.decomposition import DecompositionOutcome
from pentagraph.fixtures import cycle, fixture, petersen

from conftest import make_rng, p3_gadget, star_gadget
from oracles import o_certificate_holds


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


@st.composite
def triangle_free_with_cycle(draw):
    """A k-cycle (4 <= k <= n) on n <= 14 vertices plus drawn edges that
    close no triangle, relabeled at random."""
    n = draw(st.integers(4, 14))
    k = draw(st.integers(4, n))
    adj = [0] * n
    edges = []

    def add(u, v):
        if u != v and not adj[u] >> v & 1 and not adj[u] & adj[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            edges.append((u, v))

    for i in range(k):
        add(i, (i + 1) % k)
    vertex = st.integers(0, n - 1)
    for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n)):
        add(u, v)
    perm = draw(st.permutations(range(n)))
    return make_graph(n, [(perm[u], perm[v]) for u, v in edges])


@settings(deadline=None, max_examples=300)
@given(triangle_free_with_cycle())
def test_a_clique_cutset_comes_with_a_cut_path(G):
    # The lemma behind check_p2_extension (t25) having no clique branch.
    if find_clique_cutset(G) is not None:
        assert find_p3_cutset(G) is not None


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
    assert cert.leaves == mask_of([1, 2])
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


def test_jump_star_drops_short_jump_leaves():
    # A member whose first candidate is center 2 with leaves {8, 9}, 9 a
    # short-jump interior vertex; both leaves drop.
    G = parse_graph6("IHB?GEgG_")
    budget = SearchBudget(10**6)
    cert = decomposition._jump_star(G, Hole((0, 5, 1, 2, 8)), budget)
    assert cert == ParityStarCutset(2, 0, 1011, True, (1011, 8))
    assert budget.remaining == 10**6 - 13


def test_find_star_cutset_answers_from_the_builder():
    G = parse_graph6("GM?PW_")
    assert five_holes(G) == [Hole((1, 2, 6, 5, 3))]
    budget = SearchBudget(10**6)
    cert = decomposition.find_star_cutset(G, budget)
    assert cert == ParityStarCutset(6, 0, 175, True, (175, 16))
    assert budget.remaining == 10**6 - 8


def star_search_graph(rng):
    """A random graph on 6..13 vertices: mostly of girth at least five
    (edges added in random order while their ends are at distance >= 4),
    else G(n, p) with triangles."""
    n = rng.randint(6, 13)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if rng.random() < 0.3:
        p = rng.uniform(0.15, 0.45)
        return make_graph(n, [e for e in pairs if rng.random() < p])
    rng.shuffle(pairs)
    edges = []
    target = rng.randint(n, 2 * n)
    for u, v in pairs:
        if len(edges) < target and distance(make_graph(n, edges), u, v) >= 4:
            edges.append((u, v))
    return make_graph(n, edges)


def test_star_pipeline_is_pinned():
    # Every certificate of the star searches and the budget each leaves,
    # tight budgets included: the order of their verifications is fixed,
    # not just their answers.
    rng = make_rng("star-pipeline")
    digest = hashlib.sha256()

    def record(search, *args):
        budget = SearchBudget(rng.choice((rng.randint(1, 80), 10**6)))
        try:
            result = search(*args, budget)
        except (SearchBudgetExceeded, InvariantViolation) as e:
            result = type(e).__name__
        digest.update(f"{result!r} {budget.remaining}\n".encode())

    for _ in range(300):
        G = star_search_graph(rng)
        record(bruteforce_star_search, G)
        record(decomposition.find_star_cutset, G)
        for hole in five_holes(G)[:3]:
            record(decomposition._jump_star, G, hole)
            record(find_strong_parity_star_cutset, G, hole)
        record(decompose, G)
    assert digest.hexdigest() == (
        "12f1123d43fef5bdedc29fe9293e57b4bd745f429d09ea99a84e51b42973672e"
    )


def test_bruteforce_star_cap():
    # A center with more than MAX_LEAF_POOL neighbors is tried last, not
    # skipped: only the budget bounds the search.
    star14 = make_graph(14, [(0, v) for v in range(1, 14)])
    assert star14.degree(0) > decomposition.MAX_LEAF_POOL
    cert = bruteforce_star_search(star14)
    assert cert is not None and cert.center == 0 and cert.leaves == 0
    with pytest.raises(SearchBudgetExceeded):
        bruteforce_star_search(star14, SearchBudget(5))


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
    # Certificates that name ids outside 0..n-1.
    P4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    for G, bad in [
        (P4, DecompositionOutcome("low_degree", vertex=-1)),
        (P4, DecompositionOutcome("low_degree", vertex=4)),
        (P, DecompositionOutcome("petersen", embedding=Embedding((-10, *range(1, 10))))),
        (P, DecompositionOutcome("petersen", embedding=Embedding((*range(9), 10)))),
        (P4, DecompositionOutcome("clique_cut", clique=(-3,))),
        (P4, DecompositionOutcome("clique_cut", clique=(9, 1))),
        (cycle(5), DecompositionOutcome("p3", p3=P3Cutset((0, 1, -2), ()))),
        (cycle(5), DecompositionOutcome("p3", p3=P3Cutset((4, 0, 5), ()))),
        (cycle(5), DecompositionOutcome("p3", p3=P3Cutset((0, 1), ()))),
        (cycle(5), DecompositionOutcome("p3", p3=P3Cutset((0, 1, 2, 3), ()))),
        (star_gadget(), DecompositionOutcome(
            "star", star=ParityStarCutset(-1, mask_of([1, 2]), 0, False, ()))),
        (star_gadget(), DecompositionOutcome(
            "star", star=ParityStarCutset(0, mask_of([1, 2, 10]), 0, False, ()))),
        (star_gadget(), DecompositionOutcome(
            "star", star=ParityStarCutset(0, -1, 0, False, ()))),
        (star_gadget(), DecompositionOutcome(
            "star", star=ParityStarCutset(0, mask_of([1, 3]), 0, False, ()))),
        (star_gadget(), DecompositionOutcome(
            "star", star=ParityStarCutset(0, mask_of([0, 1]), 0, False, ()))),
    ]:
        with pytest.raises(InvariantViolation):
            revalidate_outcome(G, bad)
    for bad in (Hole((0, 1, 2, -1)), Hole((0, 1, 2, 3, 5)), InducedPath((9, 0)),
                InducedPath((-1, 0))):
        with pytest.raises(InvariantViolation):
            bad.validate(cycle(5))


def test_revalidate_checks_a_star_certificates_own_fields():
    G = star_gadget()
    side, other = mask_of([3, 4, 5, 9]), mask_of([6, 7, 8])
    rest = side | other | 1 << 2
    good = verify_parity_star_cutset(G, 0, mask_of([1, 2]))
    assert good == ParityStarCutset(0, mask_of([1, 2]), side, True, (side, other))
    revalidate_outcome(G, DecompositionOutcome("star", star=good))
    # The other side also joins the leaves evenly (1-6-7-8-2), but the
    # center has no neighbor there, so it is a witness only of a weak claim.
    weak = ParityStarCutset(0, mask_of([1, 2]), other, False, (side, other))
    revalidate_outcome(G, DecompositionOutcome("star", star=weak))
    for bad in [
        ParityStarCutset(0, mask_of([1, 2]), other, True, (1 << 9,)),
        ParityStarCutset(0, mask_of([1, 2]), side, True, (side,)),
        ParityStarCutset(0, mask_of([1, 2]), side, True, (other, side)),
        ParityStarCutset(0, mask_of([1, 2]), side | other, True, (side, other)),
        ParityStarCutset(0, mask_of([1, 2]), other, True, (side, other)),
        # Without 0 and 1 the rest stays connected: no cutset, though the
        # one component is listed.
        ParityStarCutset(0, mask_of([1]), rest, True, (rest,)),
    ]:
        with pytest.raises(InvariantViolation):
            revalidate_outcome(G, DecompositionOutcome("star", star=bad))


def test_revalidate_refuses_a_witness_without_even_leaf_paths():
    # The gadget with 6-7-2 in place of 6-7-8-2, and 8 in place of 9: the
    # side {6, 7} joins the leaves 1 and 2 only by the odd path 1-6-7-2, so
    # it witnesses nothing, although the side {3, 4, 5, 8} would.
    G = make_graph(9, [(0, 1), (0, 2), (1, 3), (3, 4), (4, 5), (5, 2), (1, 6), (6, 7), (7, 2),
                       (0, 8), (8, 4)])
    side, other = mask_of([3, 4, 5, 8]), mask_of([6, 7])
    bad = ParityStarCutset(0, mask_of([1, 2]), other, False, (side, other))
    assert not o_certificate_holds(G, DecompositionOutcome("star", star=bad))
    with pytest.raises(InvariantViolation, match="misses an even leaf-to-leaf path"):
        revalidate_outcome(G, DecompositionOutcome("star", star=bad))
    revalidate_outcome(G, DecompositionOutcome("star", star=replace(bad, witness_component=side,
                                                                    strong=True)))


def test_star_revalidation_steps_are_pinned():
    # Only the witness is searched, one even path per leaf pair: four steps
    # for either side of the gadget's star. A check that searched both
    # sides spends 8, and one that then searched the weak side again 12.
    G = star_gadget()
    side, other = mask_of([3, 4, 5, 9]), mask_of([6, 7, 8])
    for witness, strong in ((side, True), (other, False)):
        cert = ParityStarCutset(0, mask_of([1, 2]), witness, strong, (side, other))
        budget = SearchBudget(1000)
        revalidate_outcome(G, DecompositionOutcome("star", star=cert), budget)
        assert 1000 - budget.remaining == 4


def test_decompose_terminates_via_recursive_shrink(small_pentagraphs):
    rng = make_rng("decompose-sample")
    sample = rng.sample(small_pentagraphs, 400)
    for G in sample:
        out = decompose(G)
        assert out.variant != "none_found"
        revalidate_outcome(G, out)
