import hashlib
import inspect
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from pentagraph import (
    ContractViolation,
    Embedding,
    Hole,
    InducedPath,
    InvariantViolation,
    Jump,
    PENTAGRAPH,
    SearchBudget,
    SearchBudgetExceeded,
    contains_induced,
    enumerate_induced_paths,
    find_jumps,
    find_long_odd_hole,
    five_holes,
    is_isomorphic,
    is_linked,
    is_odd_linked,
    make_graph,
    recognize,
)
from pentagraph import structure
from pentagraph.fixtures import FIXTURE_NAMES, cycle, fixture, petersen
from pentagraph.graph import girth, induced_subgraph, is_bipartite
from pentagraph.generate import enumerate_girth5
from pentagraph.structure import (
    DEFAULT_MAX_STEPS,
    _has_long_odd_hole,
    _holes_by_min_vertex,
    _search_order,
    default_max_steps,
)

from conftest import make_rng, star_gadget
from test_coloring import member_graphs
from test_decomposition import glue_petersens_at_vertex
from test_graph import heawood, rand_graph
from test_p3_members import p3_member_graphs
from oracles import (
    o_contains_induced,
    o_embeddings,
    o_has_long_odd_hole,
    o_hole_violation,
    o_induced_cycle_masks,
    o_induced_paths,
    o_is_linked,
    o_path_violation,
)


def c5_with_path(tail):
    """Pentagon 0..4 plus a path from 1 to 4 through fresh vertices."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    chain = [1] + list(tail) + [4]
    edges += list(zip(chain, chain[1:]))
    return make_graph(5 + len(tail), edges)


def test_search_budget():
    b = SearchBudget(3)
    b.spend(2)
    assert b.remaining == 1
    b.spend()
    with pytest.raises(SearchBudgetExceeded):
        b.spend()
    assert SearchBudget.fresh().remaining == default_max_steps()


def test_default_max_steps_env(monkeypatch):
    monkeypatch.setenv("PENTA_MAX_STEPS", "123")
    assert default_max_steps() == 123
    # Unusable values fall back to the built-in allowance.
    for raw in ("bogus", "0", "-7"):
        monkeypatch.setenv("PENTA_MAX_STEPS", raw)
        assert default_max_steps() == DEFAULT_MAX_STEPS
    # SearchBudget.fresh() runs on every query, so an unset or empty
    # variable returns the built-in allowance without calling int().
    def no_parse(raw):
        raise AssertionError(f"int({raw!r}) called")

    monkeypatch.setattr(structure, "int", no_parse, raising=False)
    monkeypatch.delenv("PENTA_MAX_STEPS")
    assert default_max_steps() == DEFAULT_MAX_STEPS
    monkeypatch.setenv("PENTA_MAX_STEPS", "")
    assert default_max_steps() == DEFAULT_MAX_STEPS


def test_witness_validation():
    C5 = cycle(5)
    InducedPath((0, 1, 2)).validate(C5)
    with pytest.raises(InvariantViolation):
        InducedPath((0, 2)).validate(C5)  # missing edge
    with pytest.raises(InvariantViolation):
        InducedPath((0, 1, 2, 3, 4)).validate(C5)  # chord 0-4
    with pytest.raises(InvariantViolation):
        InducedPath((0,)).validate(C5)
    Hole((0, 1, 2, 3, 4)).validate(C5)
    with pytest.raises(InvariantViolation):
        Hole((0, 1, 2, 3)).validate(C5)
    with pytest.raises(InvariantViolation):
        Hole((0, 1, 2)).validate(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
    Embedding((0, 1, 2)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(InvariantViolation):
        Embedding((0, 1, 1)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(InvariantViolation):
        Embedding((0, 1, 3)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))


@st.composite
def sequences_on_graphs(draw):
    # A vertex sequence laid along a path or cycle of a graph, which then
    # gains a few random edges and may lose one of its own; the sequence may
    # then have two places swapped or one replaced by any id near 0..n-1.
    n = draw(st.integers(2, 12))
    seq = draw(st.permutations(range(n)))[: draw(st.integers(2, n))]
    own = set(zip(seq, seq[1:]))
    if len(seq) > 2 and draw(st.booleans()):
        own.add((seq[-1], seq[0]))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=3)) if pairs else set()
    if own and draw(st.booleans()):
        own.discard(draw(st.sampled_from(sorted(own))))
    G = make_graph(n, own | extra)
    change = draw(st.sampled_from(("none", "none", "swap", "replace")))
    if change == "swap" and len(seq) > 1:
        i, j = draw(st.lists(st.integers(0, len(seq) - 1), min_size=2, max_size=2, unique=True))
        seq[i], seq[j] = seq[j], seq[i]
    elif change == "replace":
        seq[draw(st.integers(0, len(seq) - 1))] = draw(st.integers(-1, n + 1))
    return G, tuple(seq)


@settings(deadline=None, max_examples=1000)
@given(sequences_on_graphs())
@example((make_graph(4, [(0, 1), (1, 2), (0, 2)]), (0, 1, 2, 3)))  # chord before a missing edge
@example((make_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (0, 5), (1, 4)]),
          (0, 1, 2, 3, 4, 5)))  # two chords from the first vertex, and one from the next
def test_path_and_hole_validation_match_the_pairwise_reference(case):
    # Each validator raises exactly when the all-pairs loop finds a fault,
    # and with that loop's message: the first offending pair in its order.
    G, seq = case
    for make, reference in ((InducedPath, o_path_violation), (Hole, o_hole_violation)):
        want = reference(G, seq)
        if want is None:
            make(seq).validate(G)
        else:
            with pytest.raises(InvariantViolation) as err:
                make(seq).validate(G)
            assert str(err.value) == want


def test_enumerate_induced_paths_matches_oracle():
    rng = make_rng("paths")
    for _ in range(150):
        n = rng.randrange(2, 10)
        G = rand_graph(rng, n, 0.35)
        s, t = rng.sample(range(n), 2)
        allowed = rng.randrange(1 << n)
        got = enumerate_induced_paths(G, s, t, allowed)
        want = o_induced_paths(G, s, t, allowed)
        assert sorted(p.vertices for p in got) == sorted(want)
        for p in got:
            p.validate(G)
            assert p.interior_mask() & ~allowed == 0 or p.length == 1


def test_enumerate_induced_paths_filters():
    G = petersen()
    full = G.full_mask()
    odd = enumerate_induced_paths(G, 0, 2, full, parity="odd")
    assert odd and all(p.length % 2 == 1 for p in odd)
    even = enumerate_induced_paths(G, 0, 2, full, parity="even", min_len=4)
    assert even and all(p.length % 2 == 0 and p.length >= 4 for p in even)
    both = enumerate_induced_paths(G, 0, 2, full)
    assert len(both) == len(odd) + len(even) + len(
        enumerate_induced_paths(G, 0, 2, full, parity="even", max_len=3)
    )
    capped = enumerate_induced_paths(G, 0, 2, full, limit=2)
    assert len(capped) == 2
    assert capped == both[:2]  # DFS order is stable under a limit


def test_enumerate_induced_paths_contracts():
    G = cycle(5)
    with pytest.raises(ContractViolation):
        enumerate_induced_paths(G, 1, 1, G.full_mask())
    with pytest.raises(ContractViolation):
        enumerate_induced_paths(G, 0, 5, G.full_mask())
    with pytest.raises(ContractViolation):
        enumerate_induced_paths(G, 0, 2, G.full_mask(), parity="weird")
    with pytest.raises(SearchBudgetExceeded):
        enumerate_induced_paths(petersen(), 0, 2, (1 << 10) - 1, budget=SearchBudget(3))


def test_enumerate_induced_paths_refuses_a_limit_below_one():
    # len(result) == limit is the sign that a limit cut the list short, so
    # a limit no list can meet is refused rather than read as 1.
    G = cycle(6)
    for limit in (0, -1):
        with pytest.raises(ContractViolation):
            enumerate_induced_paths(G, 0, 2, G.full_mask(), limit=limit)
    first = enumerate_induced_paths(G, 0, 2, G.full_mask(), limit=1)
    assert [p.vertices for p in first] == [(0, 1, 2)]


@st.composite
def path_queries(draw):
    """A graph, two distinct ends, an interior mask and one combination of
    the path filters. A quarter of the graphs are arbitrary on at most nine
    vertices, a quarter bipartite on at most twelve plus up to three edges
    that may close odd cycles, where parity decides most branches. A
    quarter are a 5- or 7-cycle through t with a tree holding s hanging off
    another cycle vertex, all allowed: a path from s reaches t either way
    round the cycle, so a sweep from t that misses the cycle's edge inside
    a layer drops the paths of one parity. The rest are a graph on at most
    four vertices with two to four induced chains hung between its
    vertices, earlier chains' vertices included, or from one vertex back to
    itself, all allowed: a chain's inner vertices have one child each, so
    the DFS meets lone children below the root, and the cycles the chains
    close have either parity."""
    kind = draw(st.sampled_from(["any", "bipartite", "cycle", "chain"]))
    if kind == "chain":
        n = draw(st.integers(1, 4))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if draw(st.booleans())]
        for _ in range(draw(st.integers(2, 4))):
            u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            inner = draw(st.integers(1, 3)) + (u == v)
            chain = [u, *range(n, n + inner), v]
            edges += zip(chain, chain[1:])
            n += inner
        s, t = draw(st.permutations(range(n)))[:2]
        allowed = (1 << n) - 1
    elif kind == "cycle":
        length = draw(st.sampled_from([5, 7]))
        n = length + draw(st.integers(1, 5))
        edges = [(i, (i + 1) % length) for i in range(length)]
        edges.append((draw(st.integers(1, length - 1)), length))
        edges += [(draw(st.integers(length, v - 1)), v) for v in range(length + 1, n)]
        label = draw(st.permutations(range(n)))
        edges = [(label[u], label[v]) for u, v in edges]
        s, t, allowed = label[n - 1], label[0], (1 << n) - 1
    else:
        n = draw(st.integers(2, 12 if kind == "bipartite" else 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        if kind == "bipartite":
            side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
            edges = [(u, v) for u, v in pairs if side[u] != side[v] and draw(st.booleans())]
            edges += draw(st.lists(st.sampled_from(pairs), max_size=3))
        else:
            edges = [e for e in pairs if draw(st.booleans())]
        s, t = draw(st.permutations(range(n)))[:2]
        allowed = draw(st.integers(0, (1 << n) - 1))
    options = dict(
        parity=draw(st.sampled_from(["any", "even", "odd"])),
        min_len=draw(st.integers(1, 6)),
        max_len=draw(st.one_of(st.none(), st.integers(1, 8))),
    )
    return make_graph(n, edges), s, t, allowed, options, draw(st.integers(1, 4))


# The 5-cycle 0-1-2-3-4 with the tail 2-5-6: the one odd path from 6 to 0
# is 6, 5, 2, 3, 4, 0, the long way round, and a sweep from 0 that misses
# the edge 2-3 inside its last layer finds none.
C5_WITH_TAIL = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5), (5, 6)])


@settings(deadline=None, max_examples=300)
@given(path_queries())
@example((C5_WITH_TAIL, 6, 0, C5_WITH_TAIL.full_mask(),
          dict(parity="odd", min_len=1, max_len=None), 1))
def test_enumerate_induced_paths_is_the_filtered_oracle_in_dfs_order(query):
    # The oracle walks every simple path with no cut, in ascending vertex
    # order; the pruned DFS must list the same paths in the same order,
    # and a limit must keep a prefix of that list.
    G, s, t, allowed, options, k = query
    parity_ok = {"any": (0, 1), "even": (0,), "odd": (1,)}[options["parity"]]
    want = [
        p for p in o_induced_paths(G, s, t, allowed)
        if len(p) - 1 >= options["min_len"]
        and (options["max_len"] is None or len(p) - 1 <= options["max_len"])
        and (len(p) - 1) % 2 in parity_ok
    ]
    got = enumerate_induced_paths(G, s, t, allowed, **options)
    assert [p.vertices for p in got] == want
    first = enumerate_induced_paths(G, s, t, allowed, limit=k, **options)
    assert [p.vertices for p in first] == want[:k]


@settings(deadline=None, max_examples=200)
@given(path_queries(), st.data())
def test_enumerate_induced_paths_exhausts_exactly_past_its_steps(query, data):
    # One step per DFS node and none for the sweeps: a budget of at least
    # the full run's steps gives the full answer, any smaller one raises.
    G, s, t, allowed, options, k = query
    full = SearchBudget(10**6)
    want = enumerate_induced_paths(G, s, t, allowed, limit=k, budget=full, **options)
    spent = 10**6 - full.remaining
    cap = data.draw(st.integers(0, spent + 1))
    budget = SearchBudget(cap)
    if cap < spent:
        with pytest.raises(SearchBudgetExceeded):
            enumerate_induced_paths(G, s, t, allowed, limit=k, budget=budget, **options)
        # The step that raises is the only overdraw.
        assert budget.remaining == -1
    else:
        got = enumerate_induced_paths(G, s, t, allowed, limit=k, budget=budget, **options)
        assert got == want and budget.remaining == cap - spent


def test_enumerate_induced_paths_skips_what_hangs_off_a_neighbor_of_t():
    # s=0 and t=2 share the neighbor 1, and a long path hangs off 1. Every
    # path through 1 that goes on past it has the chord 1-2, so the DFS
    # stops at 1 and costs the same two steps however long the tail is.
    for tail in (3, 60):
        chain = [1] + list(range(3, 3 + tail))
        G = make_graph(3 + tail, [(0, 1), (1, 2)] + list(zip(chain, chain[1:])))
        budget = SearchBudget(10)
        paths = enumerate_induced_paths(G, 0, 2, G.full_mask(), budget=budget)
        assert [p.vertices for p in paths] == [(0, 1, 2)]
        assert budget.remaining == 8


def test_enumerate_induced_paths_needs_no_frame_per_path_vertex():
    # On the 128-cycle the long 0-2 path has 126 edges. The DFS keeps its
    # path on a stack of its own, so 30 frames above the caller's suffice.
    # Its 127 nodes are s, 1 (adjacent to t) and 127 down to 3.
    ring = make_graph(128, [(v, (v + 1) % 128) for v in range(128)], max_n=128)
    longest = (0,) + tuple(range(127, 1, -1))
    for max_len in (None, 126):
        budget = SearchBudget(1000)
        limit = sys.getrecursionlimit()
        depth = len(inspect.stack(0))
        try:
            sys.setrecursionlimit(depth + 30)
            paths = enumerate_induced_paths(
                ring, 0, 2, ring.full_mask(), max_len=max_len, budget=budget
            )
        finally:
            sys.setrecursionlimit(limit)
        assert [p.vertices for p in paths] == [(0, 1, 2), longest]
        assert budget.remaining == 1000 - 127


def test_enumerate_induced_paths_with_max_len_skips_what_cannot_reach_t():
    # A dead branch hangs off s=0 and never reaches t=2: a tail of 3 or 60
    # vertices, or a Petersen graph. With max_len set, the DFS goes on only
    # to vertices close enough to t inside the allowed set; without it,
    # only to children that touch t's part of the vertices the path may
    # still use. Either way, and with a parity asked for, the branch costs
    # no step (an uncut DFS spends at least one step per tail vertex).
    chains = [[0] + list(range(3, 3 + tail)) for tail in (3, 60)]
    branches = [list(zip(chain, chain[1:])) for chain in chains]
    branches.append([(0, 3)] + [(u + 3, v + 3) for u, v in petersen().edges()])
    for branch in branches:
        G = make_graph(1 + max(v for _, v in branch), [(0, 1), (1, 2)] + branch)
        for max_len in (10, None):
            for parity in ("any", "even"):
                budget = SearchBudget(100)
                paths = enumerate_induced_paths(
                    G, 0, 2, G.full_mask(), parity=parity, max_len=max_len, budget=budget
                )
                assert [p.vertices for p in paths] == [(0, 1, 2)]
                assert budget.remaining == 98


def test_enumerate_induced_paths_decides_parity_in_a_bipartite_region():
    # In the 6x6 grid every 0-14 path has the parity of their distance,
    # four. The sweep from 14 at s finds no edge inside a layer, so an odd
    # search ends after its first step; an even one has paths to find.
    grid = make_graph(
        36, [(v, v + 1) for v in range(36) if v % 6 < 5] + [(v, v + 6) for v in range(30)]
    )
    budget = SearchBudget(10**6)
    assert enumerate_induced_paths(grid, 0, 14, grid.full_mask(), parity="odd", budget=budget) == []
    assert budget.remaining == 10**6 - 1
    even = enumerate_induced_paths(grid, 0, 14, grid.full_mask(), parity="even", limit=50)
    assert len(even) == 50
    # A diagonal 21-28 closes two triangles, and parity no longer decides:
    # the odd search goes on and finds a path through the diagonal.
    tri = make_graph(36, grid.edges() + [(21, 28)])
    odd = enumerate_induced_paths(tri, 0, 14, tri.full_mask(), parity="odd", limit=1)
    assert len(odd) == 1 and odd[0].length % 2 == 1 and {21, 28} <= set(odd[0].vertices)


def chained_graph(rng):
    """A random graph on three to eight vertices with two to five induced
    chains of one to five inner vertices hung between its vertices,
    earlier chains' vertices included."""
    n = rng.randrange(3, 9)
    p = rng.choice((0.2, 0.35, 0.5))
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    for _ in range(rng.randrange(2, 6)):
        u, v = rng.sample(range(n), 2)
        inner = rng.randrange(1, 6)
        chain = [u, *range(n, n + inner), v]
        edges += zip(chain, chain[1:])
        n += inner
    return make_graph(n, edges)


def test_lone_children_cost_the_same_steps_without_a_parity():
    # Below the root a lone child is entered with no sweep from t. With no
    # parity asked for, that sweep would have kept it, so the answers and
    # the steps are those of a sweep at every node, tight budgets included:
    # the digest is the one the DFS gave when every node swept.
    rng = make_rng("lone-child-steps")
    digest = hashlib.sha256()
    for _ in range(150):
        G = chained_graph(rng)
        for _ in range(4):
            s, t = rng.sample(range(G.n), 2)
            allowed = G.full_mask() if rng.random() < 0.75 else rng.getrandbits(G.n)
            for limit in (None, 1, 3):
                budget = SearchBudget(10**6)
                paths = enumerate_induced_paths(G, s, t, allowed, limit=limit, budget=budget)
                spent = 10**6 - budget.remaining
                digest.update(f"{[p.vertices for p in paths]} {spent}\n".encode())
                for cap in (spent - 1, spent):
                    budget = SearchBudget(cap)
                    try:
                        got = enumerate_induced_paths(G, s, t, allowed, limit=limit, budget=budget)
                    except SearchBudgetExceeded:
                        got = None
                    digest.update(f"{got == paths} {budget.remaining}\n".encode())
    assert digest.hexdigest() == (
        "9fa1d386bcd1ede4f25079ed70776768da8e73bc58fc758b5cb45ed67a35c866"
    )


def test_the_root_sweeps_for_its_lone_child():
    # s = 0 has the one neighbour 1, which leads down a chain to 60, 61 and
    # t = 62. With 61 left out of the interior the chain never reaches t,
    # and the root's sweep refuses its lone child: one step, where entering
    # it would walk all 60 chain vertices.
    G = make_graph(63, [(v, v + 1) for v in range(62)])
    dead = G.full_mask() & ~(1 << 61)
    for parity in ("any", "even", "odd"):
        budget = SearchBudget(10)
        assert enumerate_induced_paths(G, 0, 62, dead, parity=parity, budget=budget) == []
        assert budget.remaining == 9
    budget = SearchBudget(100)
    paths = enumerate_induced_paths(G, 0, 62, G.full_mask(), budget=budget)
    assert [p.vertices for p in paths] == [tuple(range(63))]
    assert budget.remaining == 100 - 62


def test_a_parity_search_may_refuse_a_lone_child_one_node_later():
    # s = 0, 1, 2, 3, t = 4 is the one path, of even length, and the
    # triangle 2, 5, 6 hangs off 2. The root keeps 1 through the triangle's
    # odd cycle, and 1's lone child 2 is entered with no sweep. For an odd
    # path, 2's own sweep refuses its children 3, 5 and 6: three steps, one
    # more than when 1 swept and refused 2. With no parity asked for, or an
    # even one, the steps are those of a sweep at every node.
    G = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6), (5, 6)])
    for parity, want, steps in (("odd", [], 3), ("even", [(0, 1, 2, 3, 4)], 4),
                                ("any", [(0, 1, 2, 3, 4)], 4)):
        budget = SearchBudget(10)
        paths = enumerate_induced_paths(G, 0, 4, G.full_mask(), parity=parity, budget=budget)
        assert [p.vertices for p in paths] == want
        assert budget.remaining == 10 - steps


def test_find_long_odd_hole():
    assert find_long_odd_hole(cycle(5)) is None
    assert find_long_odd_hole(petersen()) is None
    assert find_long_odd_hole(cycle(7)).length == 7
    assert find_long_odd_hole(cycle(9)).length == 9
    hole = find_long_odd_hole(c5_with_path([5, 6, 7, 8]))
    hole.validate(c5_with_path([5, 6, 7, 8]))
    assert hole.length == 7
    with pytest.raises(SearchBudgetExceeded):
        find_long_odd_hole(cycle(9), budget=SearchBudget(2))


def label_order_hole(G, budget):
    """The first long odd hole of the search through each hole's least
    label: the witness find_long_odd_hole names."""
    return next(_holes_by_min_vertex(G, budget, parity="odd", min_len=5, limit=1), None)


def test_long_odd_hole_decision_matches_oracle_on_random_graphs():
    rng = make_rng("long-odd-hole-decision")
    holes = 0
    for _ in range(1000):
        G = rand_graph(rng, rng.randrange(7, 14), rng.choice((0.15, 0.2, 0.25, 0.3)))
        found = _has_long_odd_hole(G, SearchBudget(10**9))
        assert found == o_has_long_odd_hole(G)
        holes += found
    assert holes == 65


def test_find_long_odd_hole_names_the_label_order_witness():
    # The degree order decides, the label order names the witness: the
    # answer is the first hole of the search by least label.
    rng = make_rng("long-odd-hole-witness")
    holes = 0
    for _ in range(4000):
        G = rand_graph(rng, rng.randrange(7, 19), rng.choice((0.15, 0.2, 0.25, 0.3)))
        hole = find_long_odd_hole(G, SearchBudget(10**9))
        assert hole == label_order_hole(G, SearchBudget(10**9))
        holes += hole is not None
    assert holes == 1183


@pytest.mark.parametrize("member", [True, False])
def test_find_long_odd_hole_is_indeterminate_only_past_its_steps(member):
    # A member costs the decision alone; a non-member the decision and the
    # label-order search that names its witness, both on one budget.
    G = member_graphs()[0] if member else c5_with_path([5, 6, 7, 8, 9, 10])
    budget = SearchBudget(10**9)
    hole = find_long_odd_hole(G, budget)
    assert (hole is None) == member
    steps = 10**9 - budget.remaining
    decide = SearchBudget(10**9)
    assert _has_long_odd_hole(G, decide) != member
    label = SearchBudget(10**9)
    assert label_order_hole(G, label) == hole
    assert steps == 10**9 - decide.remaining + (0 if member else 10**9 - label.remaining)
    budget = SearchBudget(steps)
    assert find_long_odd_hole(G, budget) == hole
    assert budget.remaining == 0
    with pytest.raises(SearchBudgetExceeded):
        find_long_odd_hole(G, SearchBudget(steps - 1))


def test_five_holes():
    assert five_holes(cycle(6)) == []
    assert [h.vertices for h in five_holes(cycle(5))] == [(0, 1, 2, 3, 4)]
    holes = five_holes(petersen())
    assert len(holes) == 12
    assert len({h.mask() for h in holes}) == 12
    for h in holes:
        h.validate(petersen())
    assert holes == five_holes(petersen())

    rng = make_rng("five-holes")
    for _ in range(100):
        G = rand_graph(rng, rng.randrange(1, 10), 0.3)
        want = {m for size, m in o_induced_cycle_masks(G) if size == 5}
        assert {h.mask() for h in five_holes(G)} == want


@st.composite
def glued_graphs(draw):
    """Two or three small girth >= 5 pieces, each glued to the graph so far
    at a shared vertex or by a new bridge, under shuffled labels; at most
    15 vertices, for the oracle's sake. A piece may start from a cycle on
    its first r >= 5 vertices, so that holes and jumps are common."""
    edges = []
    n = 0
    for _ in range(draw(st.integers(2, 3))):
        if n == 15:
            break  # two pieces joined by a bridge can fill the 15 vertices
        k = draw(st.integers(1, min(8, 15 - n)))
        r = draw(st.sampled_from([0] + list(range(5, k + 1))))
        piece = [(v, (v + 1) % r) for v in range(r)]
        adj = [0] * k
        for u, v in piece:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        for u, v in draw(st.permutations([(u, v) for u in range(k) for v in range(u + 1, k)])):
            # Keep u-v only when it closes no cycle shorter than five.
            if draw(st.booleans()) and not adj[u] >> v & 1:
                near = _spread(adj, _spread(adj, adj[u] | 1 << u))
                if not near >> v & 1:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
                    piece.append((u, v))
        if n and draw(st.booleans()):
            at = draw(st.integers(0, n - 1))  # piece vertex 0 is the cut vertex
            relabel = [at] + list(range(n, n + k - 1))
            n += k - 1
        else:
            relabel = list(range(n, n + k))
            if n:
                edges.append((draw(st.integers(0, n - 1)), n))  # a bridge
            n += k
        edges += [(relabel[u], relabel[v]) for u, v in piece]
    labels = draw(st.permutations(range(n)))
    return make_graph(n, [(labels[u], labels[v]) for u, v in edges])


def _spread(adj, mask):
    out = mask
    for v in range(len(adj)):
        if mask >> v & 1:
            out |= adj[v]
    return out


@settings(deadline=None, max_examples=150)
@given(glued_graphs())
def test_block_searches_match_oracle_on_glued_graphs(G):
    cycles = o_induced_cycle_masks(G)
    holes = five_holes(G)
    assert sorted(h.mask() for h in holes) == sorted(m for size, m in cycles if size == 5)
    long_odd = {m for size, m in cycles if size % 2 and size >= 7}
    hole = find_long_odd_hole(G)
    assert (hole is None) == (not long_odd)
    assert _has_long_odd_hole(G, SearchBudget(10**9)) == bool(long_odd)
    assert hole is None or hole.mask() in long_odd
    for C in holes:
        # Only local jumps: no hole vertex other than the ends and the one
        # across touches the interior.
        cyc = C.vertices
        want = []
        for i in range(5):
            s, t = sorted((cyc[i], cyc[(i + 2) % 5]))
            others = (cyc[(i + 3) % 5], cyc[(i + 4) % 5])
            want += [p for p in o_induced_paths(G, s, t, G.full_mask() & ~C.mask())
                     if len(p) >= 4 and not any(G.has_edge(v, z) for v in others for z in p[1:-1])]
        try:
            jumps = find_jumps(G, C)
        except InvariantViolation:
            assert long_odd  # only a long odd hole makes a jump invalid here
            continue
        got = [j.path.vertices for j in jumps]
        assert sorted(got) == sorted(want)


def test_glued_blocks_cost_no_more_than_each_block():
    # Every hole lies in one block, so two Petersen graphs sharing a vertex
    # cost twice one Petersen graph, not the walk across the cut vertex.
    lone = SearchBudget(10**6)
    assert find_long_odd_hole(petersen(), lone) is None
    glued = SearchBudget(10**6)
    assert find_long_odd_hole(glue_petersens_at_vertex(), glued) is None
    assert 10**6 - glued.remaining <= 2 * (10**6 - lone.remaining)


def test_bipartite_input_costs_no_search_steps():
    # No odd cycle lies in a bipartite block, so the hole searches skip it
    # without a step. A search of the whole Heawood graph spends 143 steps
    # and, on an empty budget, left recognize indeterminate.
    G = heawood()
    assert is_bipartite(G) and girth(G) == 6
    assert find_long_odd_hole(G, SearchBudget(0)) is None
    assert five_holes(G, SearchBudget(0)) == []
    assert recognize(G, SearchBudget(0)).verdict == PENTAGRAPH


CUBE = make_graph(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1])


@pytest.mark.parametrize("odd_block", ["c5", "c7", "p1"])
@pytest.mark.parametrize("even_block", ["c6", "c8", "cube"])
def test_bipartite_block_glued_to_odd_block(odd_block, even_block):
    # The odd block keeps labels 0..k-1 and shares its last vertex with
    # the bipartite block, so the glued graph's answers and steps are the
    # odd block's alone.
    H = fixture(odd_block)
    E = {"c6": cycle(6), "c8": cycle(8), "cube": CUBE}[even_block]
    k = H.n
    edges = H.edges() + [(u + k - 1, v + k - 1) for u, v in E.edges()]
    G = make_graph(k - 1 + E.n, edges)
    assert is_bipartite(E) and not is_bipartite(H)
    cycles = o_induced_cycle_masks(G)
    holes = five_holes(G)
    assert sorted(h.mask() for h in holes) == sorted(m for size, m in cycles if size == 5)
    long_odd = {m for size, m in cycles if size % 2 and size >= 7}
    alone, glued = SearchBudget(10**6), SearchBudget(10**6)
    hole = find_long_odd_hole(G, glued)
    assert (hole is None) == (not long_odd)
    assert hole is None or hole.mask() in long_odd
    assert hole == find_long_odd_hole(H, alone)
    assert glued.remaining == alone.remaining
    assert holes == five_holes(H)
    # The jump search never walks into the bipartite block either.
    for C in holes:
        alone, glued = SearchBudget(10**6), SearchBudget(10**6)
        assert find_jumps(G, C, budget=glued) == find_jumps(H, C, budget=alone)
        assert glued.remaining == alone.remaining


def test_linkedness_matches_oracle():
    rng = make_rng("linked")
    for _ in range(80):
        n = rng.randrange(2, 9)
        G = rand_graph(rng, n, 0.3)
        for s in range(n):
            for t in range(s + 1, n):
                if G.has_edge(s, t):
                    with pytest.raises(ContractViolation):
                        is_linked(G, s, t)
                    continue
                assert is_linked(G, s, t) == o_is_linked(G, s, t)
                lens = {len(p) - 1 for p in o_induced_paths(G, s, t)}
                want_odd5 = any(l >= 5 and l % 2 == 1 for l in lens)
                assert is_odd_linked(G, s, t) == want_odd5
    with pytest.raises(ContractViolation):
        is_linked(cycle(5), 2, 2)


@pytest.mark.parametrize("check", [is_linked, is_odd_linked])
def test_linkedness_refuses_ends_outside_the_graph(check):
    G = cycle(5)
    for bad in (-1, G.n, G.n + 5):
        for s, t in ((bad, 2), (2, bad)):
            with pytest.raises(ContractViolation):
                check(G, s, t)


def test_petersen_pairs_all_linked():
    # 0-4-3-2 is odd, 0-4-9-7-2 is even, and the longest induced path
    # between nonadjacent vertices has four edges (oracle-checked inline),
    # so every pair is linked and none is odd-linked.
    G = petersen()
    for s in range(10):
        for t in range(s + 1, 10):
            if not G.has_edge(s, t):
                lens = {len(p) - 1 for p in o_induced_paths(G, s, t)}
                assert max(lens) == 4
                assert is_linked(G, s, t) and o_is_linked(G, s, t)
                assert not is_odd_linked(G, s, t)


def test_find_jumps_short():
    G = c5_with_path([5, 6])
    C = Hole((0, 1, 2, 3, 4))
    jumps = find_jumps(G, C)
    assert len(jumps) == 1
    j = jumps[0]
    assert j.kind == "short"
    assert j.across == 0
    assert j.path.vertices == (1, 5, 6, 4)
    assert j.path.ends == (1, 4)
    j.validate(G)


def test_find_jumps_local():
    G = c5_with_path([5, 6, 7, 8])
    jumps = find_jumps(G, Hole((0, 1, 2, 3, 4)))
    assert [j.kind for j in jumps] == ["local"]
    assert jumps[0].path.length == 5
    assert jumps[0].across == 0


def test_find_jumps_skips_nonlocal_paths():
    # 1-6-7-8-2-5-4 joins two hole vertices across 3, but hole vertex 0
    # neighbours its vertex 2, so it is no jump the search returns.
    S = star_gadget()
    C = Hole((0, 1, 3, 4, 9))
    assert [(j.kind, j.path.vertices, j.across) for j in find_jumps(S, C)] == [
        ("short", (0, 2, 5, 4), 9),
    ]


def test_jump_validate_rejects_nonlocal_paths_and_derives_kind():
    S = star_gadget()
    C = Hole((0, 1, 3, 4, 9))
    path = InducedPath((1, 6, 7, 8, 2, 5, 4))
    with pytest.raises(InvariantViolation, match="touches a hole vertex"):
        Jump(path, C, 3).validate(S)
    # The kind follows from the length and cannot be mislabelled.
    short = Jump(InducedPath((0, 2, 5, 4)), C, 9)
    short.validate(S)
    assert short.kind == "short" and Jump(path, C, 3).kind == "local"


def test_jump_validate_refuses_an_across_outside_the_graph():
    S = star_gadget()
    C = Hole((0, 1, 3, 4, 9))
    for bad in (-1, S.n, S.n + 5):
        with pytest.raises(InvariantViolation, match="not a vertex"):
            Jump(InducedPath((0, 2, 5, 4)), C, bad).validate(S)


def test_jump_validate_refuses_each_broken_field():
    # Induced paths of the gadget that break one clause of a jump each.
    S = star_gadget()
    C = Hole((0, 1, 3, 4, 9))
    for path, across, message in [
        ((0, 2, 5), 9, "ends must lie on the hole"),
        ((0, 1), 9, "ends must be non-adjacent"),
        ((0, 1, 3), 1, "interior must avoid the hole"),
        ((0, 2, 5, 4), 1, "must neighbor both ends"),
    ]:
        with pytest.raises(InvariantViolation, match=message):
            Jump(InducedPath(path), C, across).validate(S)
    # A two-edge path between hole vertices closes a 4-cycle.
    G = make_graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(0, 5), (5, 2)])
    with pytest.raises(InvariantViolation, match="length at least three"):
        Jump(InducedPath((0, 5, 2)), Hole((0, 1, 2, 3, 4)), 1).validate(G)


def test_jump_steps_on_random_grow_graphs(random_pentagraphs_40):
    # Pins the work of the jump search on the first 100 random members: a
    # search that also walked the non-local paths spends 461,374 steps, and
    # one that walked the children that cannot reach t 284,365.
    budget = SearchBudget(10**9)
    count = 0
    for G in random_pentagraphs_40[:100]:
        for C in five_holes(G):
            count += len(find_jumps(G, C, budget=budget))
    assert (count, 10**9 - budget.remaining) == (4004, 18594)


def test_find_jumps_rejects_bad_input():
    with pytest.raises(ContractViolation):
        find_jumps(cycle(6), Hole((0, 1, 2, 3, 4, 5)))
    with pytest.raises(InvariantViolation):
        find_jumps(cycle(6), Hole((0, 1, 2, 3, 4)))
    # An even local jump certifies the input is off-class.
    with pytest.raises(InvariantViolation):
        find_jumps(c5_with_path([5, 6, 7]), Hole((0, 1, 2, 3, 4)))
    # A short jump whose interior touches the across vertex means girth < 5.
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(1, 5), (5, 6), (6, 4), (5, 0)]
    with pytest.raises(InvariantViolation):
        find_jumps(make_graph(7, edges), Hole((0, 1, 2, 3, 4)))
    # Running out of budget raises, as in every other search.
    with pytest.raises(SearchBudgetExceeded):
        find_jumps(star_gadget(), Hole((0, 1, 3, 4, 9)), budget=SearchBudget(4))


def test_contains_induced_matches_oracle():
    # The search tries hosts in ascending order along _search_order, so
    # its answer is the least embedding keyed by hosts in that order. The
    # girth-5 pairs hold pattern vertices at distance two, whose hosts the
    # search draws from the hosts at distance two.
    rng = make_rng("embed")
    girth5 = list(enumerate_girth5(7))
    pairs = []
    for _ in range(120):
        hn = rng.randrange(1, 10)
        host = rand_graph(rng, hn, rng.choice((0.2, 0.4, 0.7)))
        pairs.append((host, rand_graph(rng, rng.randrange(1, hn + 1), 0.4)))
    for _ in range(80):
        host, other = rng.sample(girth5, 2)
        keep = sum(1 << v for v in rng.sample(range(7), rng.randrange(3, 7)))
        pairs.append((host, induced_subgraph(other, keep)[0]))
    for host, pat in pairs:
        emb = contains_induced(host, pat)
        refs = o_embeddings(host, pat)
        if not refs:
            assert emb is None
            continue
        order = _search_order(pat)
        least = min(refs, key=lambda image: [image[u] for u in order])
        assert emb == Embedding(least)


def test_contains_induced_prunes_the_plain_search():
    # Against the plain candidate-mask backtracking: the same first
    # embedding, and never more steps, since each rule only drops hosts.
    rng = make_rng("embed-reference")
    patterns = [fixture(name) for name in FIXTURE_NAMES]
    hosts = member_graphs() + patterns
    hosts += [rand_graph(rng, rng.randrange(5, 16), rng.choice((0.2, 0.3, 0.5))) for _ in range(60)]
    total = reference_total = 0
    for host in hosts:
        for pat in patterns + [rand_graph(rng, rng.randrange(2, 7), 0.4)]:
            budget = SearchBudget(10**9)
            emb = contains_induced(host, pat, budget)
            steps = 10**9 - budget.remaining
            mapping, reference_steps = o_contains_induced(host, pat, _search_order(pat))
            assert (emb.mapping if emb else None) == mapping
            assert steps <= reference_steps
            total += steps
            reference_total += reference_steps
    assert total < reference_total / 3


@pytest.mark.parametrize("index", [0, 1, 2, 40, 63, 64, 127])
def test_contains_induced_is_indeterminate_only_past_its_steps(index):
    # Members with p2 (0, 2, 64, 127) and without it (1, 40, 63): the steps
    # a search spends are exactly the steps it needs, to find or to exhaust.
    G, p2 = member_graphs()[index], fixture("p2")
    budget = SearchBudget(10**9)
    emb = contains_induced(G, p2, budget)
    steps = 10**9 - budget.remaining
    budget = SearchBudget(steps)
    assert contains_induced(G, p2, budget) == emb
    assert budget.remaining == 0
    with pytest.raises(SearchBudgetExceeded):
        contains_induced(G, p2, SearchBudget(steps - 1))


def test_contains_induced_cases():
    pete = petersen()
    emb = contains_induced(pete, cycle(5))
    emb.validate(pete, cycle(5))
    assert contains_induced(cycle(5), make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) is None
    assert contains_induced(make_graph(0, []), make_graph(0, [])) == Embedding(())
    # An oversized pattern has no embedding; callers rely on None here.
    assert contains_induced(cycle(5), cycle(6)) is None
    with pytest.raises(SearchBudgetExceeded):
        contains_induced(pete, cycle(9), budget=SearchBudget(5))


def test_is_isomorphic():
    rng = make_rng("iso")
    assert is_isomorphic(fixture("p1"), fixture("p1"))
    assert not is_isomorphic(cycle(5), make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))
    # Same size and edge count, different structure.
    path4 = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    triangle_plus = make_graph(4, [(0, 1), (1, 2), (0, 2)])
    assert not is_isomorphic(path4, triangle_plus)
    for _ in range(60):
        n = rng.randrange(1, 9)
        G = rand_graph(rng, n, 0.4)
        perm = list(range(n))
        rng.shuffle(perm)
        H = make_graph(n, [(perm[u], perm[v]) for u, v in G.edges()])
        assert is_isomorphic(G, H)
        if G.edge_count():
            u, v = G.edges()[0]
            K = make_graph(n, [e for e in G.edges() if e != (u, v)])
            assert not is_isomorphic(G, K)


def test_girth5_stream_long_hole_split():
    # On 7 vertices, girth >= 5 graphs split into members (no odd hole
    # beyond the pentagon) and heptagon carriers, and the degree-order
    # decision agrees with the oracle on each.
    n_member = n_c7 = 0
    for G in enumerate_girth5(7):
        hole = find_long_odd_hole(G)
        assert _has_long_odd_hole(G, SearchBudget(10**9)) == o_has_long_odd_hole(G)
        if hole is None:
            n_member += 1
        else:
            assert hole.length == 7
            hole.validate(G)
            n_c7 += 1
    assert n_member + n_c7 == 53365
    assert n_c7 == 360  # labelings of the heptagon: 6!/2


def test_member_step_ledger():
    # The deterministic steps of the member searches over the 128 lines of
    # perfbench/members.g6 (read, never written), each search with its own
    # budget per graph and the jumps taken over every 5-hole. A change to
    # a DFS shows its step change here. Before the unbounded DFS swept from
    # t at each node, recognize spent 392,951 steps and find_jumps 648,570;
    # before contains_induced gained its distance-two masks and look-ahead,
    # the p2 search spent 41,517; before recognize decided in a degeneracy
    # order and searched in label order only for a witness, it spent 29,332,
    # and before a lone child below the root was entered without a sweep,
    # 16,554.
    ledger = dict.fromkeys(("recognize", "five_holes", "find_jumps", "contains_induced_p2"), 0)
    p2 = fixture("p2")
    for G in member_graphs():
        searches = {
            "recognize": lambda b: recognize(G, b),
            "five_holes": lambda b: five_holes(G, b),
            "find_jumps": lambda b: [find_jumps(G, C, budget=b) for C in five_holes(G)],
            "contains_induced_p2": lambda b: contains_induced(G, p2, b),
        }
        for name, search in searches.items():
            budget = SearchBudget(10**9)
            search(budget)
            ledger[name] += 10**9 - budget.remaining
    assert ledger == {
        "recognize": 16766,
        "five_holes": 14945,
        "find_jumps": 64613,
        "contains_induced_p2": 6014,
    }


def test_recognize_steps_on_random_grow_graphs(random_pentagraphs_40):
    # Pins recognition's work on the first 100 random members, every one a
    # member, so the degree-order decision alone. Rooting each hole at its
    # least label instead, recognize spent 15,617 steps, and sweeping from t
    # at a lone child below the root too, 4,347.
    steps = 0
    for G in random_pentagraphs_40[:100]:
        budget = SearchBudget(10**9)
        assert recognize(G, budget).verdict == PENTAGRAPH
        steps += 10**9 - budget.remaining
    assert steps == 4428


def test_five_holes_on_the_member_files():
    # five_holes keeps its label order: the holes, their order and the
    # steps spent on each graph of both member files.
    for graphs, want in (
        (member_graphs(), "e035517833484686429008bf71fd1aa51aaf0bc9c6c40cd3672ad2aeb6a4640c"),
        (p3_member_graphs(), "c520404b4b9a0110b52fcf0645c7b036d2f6ec9ce9ff3f2ca0a28f5beae4d311"),
    ):
        digest = hashlib.sha256()
        for G in graphs:
            budget = SearchBudget(10**9)
            holes = five_holes(G, budget)
            digest.update(f"{[h.vertices for h in holes]!r} {10**9 - budget.remaining}\n".encode())
        assert digest.hexdigest() == want
