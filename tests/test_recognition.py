from hypothesis import given, settings, strategies as st

from pentagraph import (
    Graph,
    Hole,
    INDETERMINATE,
    INFINITY,
    NOT_PENTAGRAPH,
    PENTAGRAPH,
    SearchBudget,
    chromatic_number_bruteforce,
    make_graph,
    naive_recognize,
    random_pentagraph,
    recognize,
    three_color,
    verify_coloring,
)
from pentagraph.fixtures import cycle, fixture, FIXTURE_NAMES

from conftest import make_rng
from test_graph import rand_graph
from oracles import o_is_pentagraph


def test_fixture_verdicts():
    for name in ("petersen", "p0", "p1", "p2", "c5"):
        rep = recognize(fixture(name))
        assert rep.verdict == PENTAGRAPH
        assert rep.girth == 5
        assert rep.witness is None
        assert not rep.bipartite
        assert rep.is_pentagraph is True
    rep = recognize(fixture("c7"))
    assert rep.verdict == NOT_PENTAGRAPH
    assert rep.girth == 7
    assert rep.witness == (0, 1, 2, 3, 4, 5, 6)
    assert rep.is_pentagraph is False
    assert "odd cycle of length 7" in rep.reason


def test_small_graphs():
    K4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    rep = recognize(K4)
    assert rep.verdict == NOT_PENTAGRAPH
    assert rep.girth == 3 and len(rep.witness) == 3
    rep = recognize(cycle(4))
    assert rep.verdict == NOT_PENTAGRAPH and rep.girth == 4
    assert rep.bipartite

    rep = recognize(cycle(6))
    assert rep.verdict == PENTAGRAPH and rep.girth == 6 and rep.bipartite

    tree = make_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    rep = recognize(tree)
    assert rep.verdict == PENTAGRAPH and rep.girth == INFINITY and rep.bipartite

    assert recognize(make_graph(0, [])).verdict == PENTAGRAPH


def test_budget_exhaustion_is_indeterminate():
    rep = recognize(fixture("petersen"), budget=SearchBudget(1))
    assert rep.verdict == INDETERMINATE
    assert rep.is_pentagraph is None
    assert rep.indeterminate
    # Girth refutation needs no search budget at all.
    rep = recognize(cycle(4), budget=SearchBudget(0))
    assert rep.verdict == NOT_PENTAGRAPH


def check_witness(G, rep):
    w = rep.witness
    assert len(set(w)) == len(w)
    for i, u in enumerate(w):
        assert G.has_edge(u, w[(i + 1) % len(w)])
    if "induced odd cycle" in rep.reason:
        assert len(w) % 2 == 1 and len(w) >= 7
        Hole(w).validate(G)
    else:
        assert len(w) == rep.girth < 5


def test_naive_and_fast_agree_on_all_small_graphs():
    from oracles import o_all_graphs

    for n in range(7):
        for adj in o_all_graphs(n):
            G = Graph(n, adj)
            fast = recognize(G)
            slow = naive_recognize(G)
            assert fast.verdict == slow.verdict
            assert fast.girth == slow.girth
            assert fast.bipartite == slow.bipartite
            assert (fast.verdict == PENTAGRAPH) == o_is_pentagraph(G)
            if fast.verdict == NOT_PENTAGRAPH:
                check_witness(G, fast)
                check_witness(G, slow)


def test_naive_and_fast_agree_on_random_graphs():
    rng = make_rng("recognize-random")
    for _ in range(300):
        n = rng.randrange(1, 12)
        G = rand_graph(rng, n, rng.choice([0.1, 0.2, 0.4]))
        fast = recognize(G)
        slow = naive_recognize(G)
        assert fast.verdict == slow.verdict
        assert fast.girth == slow.girth
        assert fast.bipartite == slow.bipartite
        if fast.verdict == NOT_PENTAGRAPH:
            check_witness(G, fast)
            check_witness(G, slow)


def test_recognize_on_random_members(random_pentagraphs_20):
    for G in random_pentagraphs_20:
        rep = recognize(G)
        assert rep.verdict == PENTAGRAPH
        assert rep.girth >= 5


@st.composite
def relabeled_pairs(draw):
    """A graph (a grown member or an arbitrary one) and a random relabeling."""
    n = draw(st.integers(0, 12))
    if draw(st.booleans()):
        G = random_pentagraph(n, draw(st.randoms(use_true_random=False)))
    else:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        G = make_graph(n, draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else [])
    perm = draw(st.permutations(range(n)))
    return G, make_graph(n, [(perm[u], perm[v]) for u, v in G.edges()])


@settings(deadline=None, max_examples=80)
@given(relabeled_pairs())
def test_verdict_girth_and_3_colorability_ignore_labels(case):
    # The hole search leans on the minimum-vertex order and on the block
    # that holds each edge; the answers must not.
    G, H = case
    rg, rh = recognize(G), recognize(H)
    assert (rg.verdict, rg.girth, rg.bipartite) == (rh.verdict, rh.girth, rh.bipartite)
    if rg.verdict == NOT_PENTAGRAPH:
        check_witness(G, rg)
        check_witness(H, rh)
    assert (chromatic_number_bruteforce(G, 3) is None) == (chromatic_number_bruteforce(H, 3) is None)
    if rh.verdict == PENTAGRAPH:
        assert verify_coloring(H, three_color(H))


def test_fixture_names_frozen():
    assert FIXTURE_NAMES == ("c5", "c7", "p0", "p1", "p2", "petersen")
