import hashlib
import inspect
import itertools
import math
import random
import sys

import networkx as nx
import pytest
from hypothesis import example, given, settings, strategies as st

from pentagraph import (
    ContractViolation,
    GraphConstructionError,
    INFINITY,
    bfs,
    bfs_layers,
    bit_list,
    blocks,
    canonical_cycle,
    components,
    components_within,
    distance,
    girth,
    induced_subgraph,
    is_bipartite,
    iter_bits,
    layer_parity,
    make_graph,
    mask_of,
    shortest_cycle,
)
from pentagraph.fixtures import fixture
from pentagraph.generate import enumerate_girth5
from pentagraph.graph import path_to

from conftest import make_rng
from oracles import bits, o_distance, o_girth, o_is_bipartite


def rand_graph(rng: random.Random, n: int, p: float):
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return make_graph(n, edges)


def to_nx(G):
    H = nx.Graph()
    H.add_nodes_from(range(G.n))
    H.add_edges_from(G.edges())
    return H


def test_mask_helpers():
    assert bit_list(0) == []
    assert bit_list(0b1011) == [0, 1, 3]
    assert list(iter_bits(0b10100)) == [2, 4]
    assert mask_of([]) == 0
    assert mask_of([3, 0, 3]) == 0b1001
    assert bit_list(mask_of(range(5))) == [0, 1, 2, 3, 4]


def test_iter_bits_refuses_a_negative_mask():
    # A negative int has infinitely many set bits: the walk raises before
    # its first index instead of counting up for ever.
    with pytest.raises(ContractViolation):
        list(itertools.islice(iter_bits(-1), 8))


def test_make_graph_validation():
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(1, 1)])
    with pytest.raises(GraphConstructionError):
        make_graph(3, [(0, 3)])
    with pytest.raises(GraphConstructionError):
        make_graph(2, [(-1, 0)])
    with pytest.raises(GraphConstructionError):
        make_graph(-1, [])
    with pytest.raises(GraphConstructionError):
        make_graph(65, [])
    assert make_graph(65, [], max_n=128).n == 65
    with pytest.raises(GraphConstructionError):
        make_graph(10, [], max_n=129)


def test_graph_basics():
    G = make_graph(4, [(0, 1), (1, 2), (0, 1)])
    assert G.edge_count() == 2
    assert G.edges() == [(0, 1), (1, 2)]
    assert G.has_edge(1, 0) and G.has_edge(1, 2) and not G.has_edge(0, 2)
    assert G.degree(1) == 2 and G.degree(3) == 0
    assert bit_list(G.adj[1]) == [0, 2]
    assert G == make_graph(4, [(1, 2), (0, 1)])
    assert hash(G) == hash(make_graph(4, [(1, 2), (0, 1)]))
    assert G != make_graph(5, [(0, 1), (1, 2)])
    assert G.full_mask() == 0b1111
    assert list(range(G.n)) == [0, 1, 2, 3]


def test_edge_and_degree_queries_refuse_ids_outside_the_graph():
    # -1 would read the last row, and an id of n or more has no row at all.
    G = fixture("c5")
    for bad in (-1, G.n, G.n + 5):
        with pytest.raises(ContractViolation):
            G.degree(bad)
        for u, v in ((bad, 2), (2, bad), (bad, bad)):
            with pytest.raises(ContractViolation):
                G.has_edge(u, v)


def test_induced_subgraph_relabeling():
    C5 = make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    H, old_ids = induced_subgraph(C5, mask_of([0, 2, 3]))
    assert old_ids == (0, 2, 3)
    assert H.n == 3
    assert H.edges() == [(1, 2)]

    rng = make_rng("induced")
    for _ in range(200):
        n = rng.randrange(1, 12)
        G = rand_graph(rng, n, 0.4)
        keep = rng.randrange(1 << n)
        H, old_ids = induced_subgraph(G, keep)
        assert list(old_ids) == bits(keep)
        index = {old: new for new, old in enumerate(old_ids)}
        want = sorted(
            tuple(sorted((index[u], index[v])))
            for u, v in G.edges()
            if u in index and v in index
        )
        assert H.edges() == want


def test_components_ordering():
    G = make_graph(7, [(1, 2), (2, 3), (1, 3), (5, 6)])
    assert components(G) == [mask_of([0]), mask_of([1, 2, 3]), mask_of([4]), mask_of([5, 6])]
    assert components(make_graph(0, [])) == []
    assert components_within(G, mask_of([2, 3, 5, 6])) == [mask_of([2, 3]), mask_of([5, 6])]
    assert components_within(G, 0) == []
    # Masks reaching past the graph are clipped to it.
    assert components_within(G, 1 << 7) == []
    assert components_within(G, -1) == components(G)


def test_distance_and_layers_match_oracle():
    rng = make_rng("distance")
    for _ in range(120):
        n = rng.randrange(1, 11)
        G = rand_graph(rng, n, 0.3)
        for u in range(n):
            lay = bfs_layers(G, u)
            for k, mask in enumerate(lay):
                for v in bits(mask):
                    assert o_distance(G, u, v) == k
            for v in range(n):
                d = distance(G, u, v)
                ref = o_distance(G, u, v)
                assert d == (INFINITY if ref is None else ref)


@st.composite
def bfs_inputs(draw):
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in pairs if draw(st.booleans())]
    sources = draw(st.integers(0, (1 << n) - 1))
    allowed = draw(st.none() | st.integers(0, (1 << n) - 1))
    return make_graph(n, edges), sources, allowed


@settings(deadline=None)
@given(bfs_inputs())
def test_bfs_matches_networkx_and_builds_a_tree(case):
    G, sources, allowed = case
    dist, parent, order = bfs(G, sources, allowed)
    inside = G.full_mask() if allowed is None else allowed | sources
    H = to_nx(G).subgraph(bit_list(inside))
    want = dict(nx.multi_source_dijkstra_path_length(H, bit_list(sources))) if sources else {}
    assert {v: d for v, d in enumerate(dist) if d >= 0} == want
    assert sorted(order) == sorted(want)
    assert [dist[v] for v in order] == sorted(dist[v] for v in order)
    position = {v: i for i, v in enumerate(order)}
    for v in range(G.n):
        p = parent[v]
        if dist[v] <= 0:
            assert p == -1
            continue
        assert G.has_edge(p, v) and dist[p] == dist[v] - 1
        assert position[p] < position[v]
        path = path_to(parent, v)
        assert len(path) == dist[v] + 1 and sources >> path[0] & 1


@st.composite
def block_inputs(draw):
    # Sparse random graphs, often disconnected, plus up to four isolated
    # vertices, under shuffled labels.
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    extra = draw(st.integers(0, 4))
    labels = draw(st.permutations(range(n + extra)))
    return make_graph(n + extra, [(labels[u], labels[v]) for u, v in edges])


def assert_blocks_match_networkx(G):
    got = blocks(G)
    want = [mask_of(c) for c in nx.biconnected_components(to_nx(G))]
    assert sorted(got) == sorted(want)
    for u, v in G.edges():
        assert sum(1 for B in got if B >> u & 1 and B >> v & 1) == 1


@settings(deadline=None)
@given(block_inputs())
def test_blocks_match_networkx(G):
    assert_blocks_match_networkx(G)


def test_blocks_at_the_vertex_cap():
    # A 128-vertex path is 127 bridges, found by a recursion one frame per
    # tree edge deep, so 150 frames above the caller's suffice; a cycle and
    # two cycles sharing a vertex are one and two blocks.
    path = make_graph(128, [(v, v + 1) for v in range(127)], max_n=128)
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    try:
        sys.setrecursionlimit(depth + 150)
        found = blocks(path)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(found) == sorted(3 << v for v in range(127))
    assert_blocks_match_networkx(path)
    # The block order is pinned over every girth-five graph with n <= 6.
    digest = hashlib.sha256()
    for n in range(7):
        for G in enumerate_girth5(n):
            digest.update(repr(blocks(G)).encode() + b"\n")
    assert digest.hexdigest() == (
        "3217f9cd7f355476ad7073aacdecab0abcefc62d0011d8e9da48f497f2ed8f70"
    )
    ring = make_graph(128, [(v, (v + 1) % 128) for v in range(128)], max_n=128)
    assert blocks(ring) == [(1 << 128) - 1]
    bowtie = make_graph(9, [(v, (v + 1) % 5) for v in range(5)]
                        + [(4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    assert sorted(blocks(bowtie)) == [0b11111, 0b111110000]
    assert blocks(make_graph(3, [])) == []


def test_distance_validates_endpoints():
    G = make_graph(2, [(0, 1)])
    with pytest.raises(ContractViolation):
        distance(G, 0, 2)
    with pytest.raises(ContractViolation):
        bfs_layers(G, -1)
    for sources in (1 << 2, -1):
        with pytest.raises(ContractViolation):
            bfs(G, sources)


def test_is_bipartite_against_networkx():
    rng = make_rng("bipartite")
    for _ in range(200):
        n = rng.randrange(1, 12)
        G = rand_graph(rng, n, 0.35)
        check = is_bipartite(G)
        assert bool(check) == o_is_bipartite(G)
        assert bool(check) == nx.is_bipartite(to_nx(G))
        if check:
            col = check.two_coloring
            assert len(col) == n and set(col) <= {0, 1}
            for u, v in G.edges():
                assert col[u] != col[v]
        else:
            cyc = check.odd_cycle
            assert len(cyc) % 2 == 1
            assert len(set(cyc)) == len(cyc)
            for i, u in enumerate(cyc):
                assert G.has_edge(u, cyc[(i + 1) % len(cyc)])


def test_is_bipartite_within_a_subset():
    rng = make_rng("bipartite-within")
    for _ in range(200):
        n = rng.randrange(1, 12)
        G = rand_graph(rng, n, 0.35)
        within = rng.randrange(1 << n)
        check = is_bipartite(G, within=within)
        H = to_nx(G).subgraph(bit_list(within))
        assert bool(check) == nx.is_bipartite(H)
        if check:
            col = check.two_coloring
            assert [c >= 0 for c in col] == [within >> v & 1 == 1 for v in range(n)]
            assert all(col[u] != col[v] for u, v in H.edges())
        else:
            assert all(within >> v & 1 for v in check.odd_cycle)


def test_is_bipartite_answers_pinned():
    # The 2-colouring, or the odd closed walk, of seeded G(n, p) graphs, half
    # of them inside a random vertex mask, pinned by hash. The walk is the
    # one closed at the first edge inside a layer in queue order, so a mask
    # with a bipartite component before an odd one must get past the first.
    rng = make_rng("bipartite-digest")
    digest = hashlib.sha256()
    late_odd = 0  # odd cases whose first component is bipartite
    for i in range(3000):
        n = rng.randrange(1, 31)
        G = rand_graph(rng, n, rng.choice((0.05, 0.1, 0.2, 0.3)))
        within = rng.randrange(1 << n) if i % 2 else None
        check = is_bipartite(G, within=within)
        digest.update(repr((check.two_coloring, check.odd_cycle)).encode() + b"\n")
        if not check:
            first = components_within(G, G.full_mask() if within is None else within)[0]
            late_odd += nx.is_bipartite(to_nx(G).subgraph(bit_list(first)))
    assert late_odd >= 100
    assert digest.hexdigest() == (
        "6749cfd8dd9986c49350e55f0cf318ae42c85aa20574904d91de3cde34dd0592"
    )


@st.composite
def masked_graphs(draw):
    # Random graphs, often with several components, inside a random mask.
    n = draw(st.integers(0, 14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=2 * n)) if pairs else set()
    within = draw(st.integers(0, (1 << n) - 1))
    return make_graph(n, edges), within


@settings(deadline=None, max_examples=300)
@given(masked_graphs())
def test_layer_parity_agrees_with_is_bipartite(case):
    G, within = case
    odd, clash = layer_parity(G.adj, within)
    # is_bipartite is built on the kernel, so the truth comes from networkx:
    # clash lists the non-bipartite components, by least vertex.
    H = to_nx(G).subgraph(bit_list(within))
    parts = sorted(
        (mask_of(comp) for comp in nx.connected_components(H)), key=lambda m: m & -m
    )
    assert clash == [m for m in parts if not nx.is_bipartite(H.subgraph(bit_list(m)))]
    check = is_bipartite(G, within=within)
    assert bool(check) == (clash == [])
    if check:
        assert odd == mask_of(v for v, side in enumerate(check.two_coloring) if side == 1)
    # Off clash, odd is each bipartite component's own 1-side.
    for m in parts:
        if m not in clash:
            sides = is_bipartite(G, within=m).two_coloring
            assert odd & m == mask_of(v for v, side in enumerate(sides) if side == 1)


@settings(deadline=None, max_examples=300)
@given(masked_graphs(), st.integers() | st.integers(-(1 << 200), 1 << 200))
@example((fixture("c5"), 0), 1 << 5)
@example((fixture("c5"), 0), -1)
def test_layer_parity_ignores_bits_that_name_no_vertex(case, w):
    # Any int is accepted as ``within``: its bits at or above n, and the
    # infinitely many of a negative int, are dropped on entry.
    G, _ = case
    assert layer_parity(G.adj, w) == layer_parity(G.adj, w & G.full_mask())


def test_canonical_cycle():
    assert canonical_cycle((2, 0, 1)) == (0, 1, 2)
    base = (0, 3, 1, 4, 2)
    want = canonical_cycle(base)
    doubled = base + base
    for i in range(5):
        rot = doubled[i : i + 5]
        assert canonical_cycle(rot) == want
        assert canonical_cycle(tuple(reversed(rot))) == want


def test_shortest_cycle_examples():
    assert shortest_cycle(make_graph(4, [(0, 1), (1, 2)])) is None
    assert girth(make_graph(3, [])) == INFINITY
    K4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert girth(K4) == 3
    C6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert shortest_cycle(C6) == (0, 1, 2, 3, 4, 5)
    assert girth(fixture("petersen")) == 5


def heawood():
    """The Heawood graph, LCF [5, -5]^7: 14 vertices, bipartite, girth 6."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return make_graph(14, edges)


def girth_sweep_inputs(rng, members):
    """Sparse graphs of girth five or more, long cycles, graphs whose tree
    vertices on low labels are swept before any cycle vertex, and a few
    whose only short cycle hangs off a part of girth five or more."""
    for _ in range(300):
        # Random pairs in random order, each kept when it closes no cycle
        # shorter than five: sparse graphs of girth five or more.
        n = rng.randrange(5, 17)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        G = make_graph(n, [])
        for u, v in pairs[: rng.randrange(len(pairs) + 1)]:
            d = o_distance(G, u, v)
            if d is None or d >= 4:
                G = make_graph(n, G.edges() + [(u, v)])
        yield G
    yield from members
    for k in range(5, 129):
        yield make_graph(k, [(i, (i + 1) % k) for i in range(k)], max_n=128)
    yield make_graph(128, [(i, i + 1) for i in range(127)], max_n=128)
    yield fixture("petersen")
    yield heawood()
    # A tree on 0..5, bridged from 5 to a 7-cycle on 6..12.
    tree = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]
    c7 = [(6 + i, 6 + (i + 1) % 7) for i in range(7)]
    yield make_graph(13, tree + [(5, 6)] + c7)
    # One triangle or one 4-cycle hung off a graph of girth five or more.
    P = fixture("petersen")
    for extra in ([(10, 11), (11, 12), (12, 10)], [(10, 11), (11, 12), (12, 13), (13, 10)]):
        k = max(max(e) for e in extra) + 1
        yield make_graph(k, P.edges() + [(9, 10)] + extra)
    H = heawood()
    yield make_graph(16, H.edges() + [(0, 14), (14, 15), (15, 0)])
    yield make_graph(15, H.edges() + [(0, 14), (14, 2)])
    for _ in range(4):
        # Pendant trees on 0..t-1, each vertex hung from a higher one, over
        # a cycle on the rest with chords that close no cycle shorter than
        # five: the first sweeps start from tree vertices.
        n = rng.randrange(60, 129)
        t = rng.randrange(5, 20)
        core = list(range(t, n))
        rng.shuffle(core)
        edges = [(v, rng.randrange(v + 1, n)) for v in range(t)]
        edges += [(core[i - 1], core[i]) for i in range(len(core))]
        G = make_graph(n, edges, max_n=128)
        for _ in range(30):
            u, v = rng.sample(core, 2)
            if o_distance(G, u, v) >= 4:
                G = make_graph(n, G.edges() + [(u, v)], max_n=128)
        yield G


def test_girth_matches_oracle(random_pentagraphs_20):
    rng = make_rng("girth")
    dense = (rand_graph(rng, rng.randrange(1, 10), 0.35) for _ in range(200))
    sparse = girth_sweep_inputs(rng, random_pentagraphs_20)
    for G in (*dense, *sparse):
        got = girth(G)
        ref = o_girth(G)
        assert got == (INFINITY if ref is None else ref)
        cyc = shortest_cycle(G)
        if ref is None:
            assert cyc is None
        else:
            assert len(cyc) == ref
            assert len(set(cyc)) == len(cyc)
            for i, u in enumerate(cyc):
                assert G.has_edge(u, cyc[(i + 1) % len(cyc)])
            assert cyc == canonical_cycle(cyc)


def test_zero_vertex_graph():
    G = make_graph(0, [])
    assert G.edge_count() == 0
    assert girth(G) == INFINITY
    assert bool(is_bipartite(G))
    assert math.isinf(INFINITY)
