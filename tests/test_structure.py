import pytest

from pentagraph import (
    ContractViolation,
    Embedding,
    Hole,
    InducedPath,
    InvariantViolation,
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
    mask_of,
    shortest_odd_cycle,
)
from pentagraph.fixtures import cycle, fixture, petersen
from pentagraph.generate import enumerate_girth5
from pentagraph.structure import DEFAULT_MAX_STEPS, default_max_steps

from conftest import make_rng, star_gadget
from test_graph import rand_graph
from oracles import (
    o_embeddings,
    o_induced_cycle_masks,
    o_induced_paths,
    o_is_linked,
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
    monkeypatch.delenv("PENTA_MAX_STEPS")
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
    assert Hole((2, 3, 4, 0, 1)).canonical() == Hole((0, 1, 2, 3, 4))
    Embedding((0, 1, 2)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(InvariantViolation):
        Embedding((0, 1, 1)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))
    with pytest.raises(InvariantViolation):
        Embedding((0, 1, 3)).validate(C5, make_graph(3, [(0, 1), (1, 2)]))


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


def test_shortest_odd_cycle():
    assert shortest_odd_cycle(make_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])) is None
    assert shortest_odd_cycle(make_graph(0, [])) is None
    got = shortest_odd_cycle(cycle(5))
    assert got.vertices == (0, 1, 2, 3, 4)
    with pytest.raises(InvariantViolation):
        shortest_odd_cycle(make_graph(3, [(0, 1), (1, 2), (0, 2)]))

    # Disjoint pentagon and heptagon: the pentagon wins.
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    G = make_graph(12, edges)
    assert shortest_odd_cycle(G).vertices == (0, 1, 2, 3, 4)

    rng = make_rng("odd-cycle")
    for _ in range(150):
        G = rand_graph(rng, rng.randrange(1, 10), 0.25)
        lens = sorted(size for size, _ in o_induced_cycle_masks(G) if size % 2 == 1)
        if not lens:
            assert shortest_odd_cycle(G) is None
        elif lens[0] == 3:
            with pytest.raises(InvariantViolation):
                shortest_odd_cycle(G)
        else:
            hole = shortest_odd_cycle(G)
            hole.validate(G)
            assert hole.length == lens[0]
            assert hole.vertices == shortest_odd_cycle(G).vertices


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
    assert j.ends == (1, 4)
    j.validate(G)


def test_find_jumps_local():
    G = c5_with_path([5, 6, 7, 8])
    jumps = find_jumps(G, Hole((0, 1, 2, 3, 4)))
    assert [j.kind for j in jumps] == ["local"]
    assert jumps[0].path.length == 5
    assert jumps[0].across == 0


def test_find_jumps_general_and_filters():
    S = star_gadget()
    C = Hole((0, 1, 3, 4, 9))
    assert [(j.kind, j.path.vertices, j.across) for j in find_jumps(S, C)] == [
        ("short", (0, 2, 5, 4), 9),
        ("general", (1, 6, 7, 8, 2, 5, 4), 3),
    ]


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
    rng = make_rng("embed")
    for _ in range(120):
        hn = rng.randrange(1, 8)
        host = rand_graph(rng, hn, 0.4)
        pat = rand_graph(rng, rng.randrange(1, hn + 1), 0.4)
        emb = contains_induced(host, pat)
        refs = o_embeddings(host, pat)
        assert (emb is not None) == bool(refs)
        if emb is not None:
            emb.validate(host, pat)


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
    # beyond the pentagon) and heptagon carriers.
    n_member = n_c7 = 0
    for G in enumerate_girth5(7):
        hole = find_long_odd_hole(G)
        if hole is None:
            n_member += 1
        else:
            assert hole.length == 7
            hole.validate(G)
            n_c7 += 1
    assert n_member + n_c7 == 53365
    assert n_c7 == 360  # labelings of the heptagon: 6!/2
