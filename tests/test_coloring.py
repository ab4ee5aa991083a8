"""Colorings: verification, Kempe exchanges, the layered 4-coloring, the
recursive 3-coloring with its recombination steps, and the brute-force
chromatic oracle."""

import hashlib
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from pentagraph import (
    Coloring,
    ContractViolation,
    CorpusSpec,
    DecompositionOutcome,
    InvariantViolation,
    NoDecompositionFound,
    P3Cutset,
    PENTAGRAPH,
    PETERSEN_COLORING,
    PentagraphError,
    SearchBudget,
    SearchBudgetExceeded,
    bfs_layers,
    bit_list,
    chromatic_number_bruteforce,
    combine_p3,
    components,
    find_p3_cutset,
    four_color,
    generate_corpus,
    induced_subgraph,
    iter_bits,
    kempe_component,
    kempe_swap,
    make_graph,
    mask_of,
    normalize_on_star,
    parse_graph6,
    recognize,
    three_color,
    verify_coloring,
    verify_parity_star_cutset,
)
from pentagraph import coloring
from pentagraph.fixtures import cycle, fixture, petersen
from pentagraph.generate import enumerate_girth5

from conftest import make_rng, p3_gadget, star_gadget
from oracles import o_chromatic
from recursive_coloring import o_three_color
from test_decomposition import glue_petersens_at_vertex, glue_petersens_on_path
from test_graph import rand_graph

MEMBERS = Path(__file__).resolve().parents[1] / "perfbench" / "members.g6"
P3_MEMBERS = Path(__file__).resolve().parent / "p3_members.g6"


def pinned_graphs():
    # Every member on at most six vertices, twenty grown members and two
    # Petersen copies glued at a vertex.
    grown = CorpusSpec("random", 1, 40, seed=20260822, target_count=20)
    graphs = [
        *generate_corpus(CorpusSpec("exhaustive", 0, 6)),
        *generate_corpus(grown, SearchBudget(10**9)),
        glue_petersens_at_vertex(),
    ]
    assert len(graphs) == 3797
    return graphs


def member_graphs():
    lines = [
        ln for ln in MEMBERS.read_text(encoding="ascii").split("\n")
        if ln.strip() and not ln.startswith("#")
    ]
    assert len(lines) == 128
    return [parse_graph6(line) for line in lines]


def coloring_digest(graphs, color):
    digest = hashlib.sha256()
    for G in graphs:
        digest.update((",".join(map(str, color(G).colors)) + "\n").encode())
    return digest.hexdigest()


def test_verify_coloring_basics():
    G = cycle(5)
    assert verify_coloring(G, Coloring(3, (1, 2, 1, 2, 3)))
    assert not verify_coloring(G, Coloring(3, (1, 1, 2, 3, 2)))
    assert verify_coloring(make_graph(0, []), Coloring(3, ()))
    with pytest.raises(ContractViolation):
        verify_coloring(G, Coloring(3, (1, 2, 1)))
    with pytest.raises(ContractViolation):
        verify_coloring(G, Coloring(3, (1, 2, 1, 2, 4)))
    with pytest.raises(ContractViolation):
        verify_coloring(G, Coloring(3, (0, 2, 1, 2, 3)))


@settings(deadline=None)
@given(st.data())
def test_verify_coloring_matches_edge_definition(data):
    n = data.draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = data.draw(st.integers(1, 5))
    colors = tuple(data.draw(st.lists(st.integers(1, k), min_size=n, max_size=n)))
    G = make_graph(n, edges)
    want = all(colors[u] != colors[v] for u, v in edges)
    assert verify_coloring(G, Coloring(k, colors)) == want


def test_kempe_component_path():
    G = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    c = Coloring(3, (1, 2, 1, 2))
    assert kempe_component(G, c, (1, 2), 0) == mask_of(range(4))
    # Color 3 is unused, so the {1,3}-component of 0 is 0 alone.
    assert kempe_component(G, c, (1, 3), 0) == 1
    with pytest.raises(ContractViolation):
        kempe_component(G, c, (2, 2), 0)
    with pytest.raises(ContractViolation):
        kempe_component(G, Coloring(3, (1, 2, 3, 2)), (1, 2), 2)
    # A vertex outside 0..n-1, or a coloring of the wrong length, is a
    # contract error for the swap too, not an IndexError or a wrong answer.
    C5 = cycle(5)
    c5 = three_color(C5)
    short = Coloring(3, c5.colors[:3])
    for bad in (
        lambda: kempe_component(C5, c5, (1, 2), -1),
        lambda: kempe_component(C5, c5, (1, 2), 7),
        lambda: kempe_component(C5, short, (1, 2), 0),
        lambda: kempe_swap(C5, c5, (1, 2), -1),
        lambda: kempe_swap(C5, c5, (1, 2), 5),
        lambda: kempe_swap(C5, short, (1, 2), 0),
        lambda: kempe_swap(C5, c5, (1, 5), 1),
        lambda: kempe_swap(C5, c5, (0, 1), 1),
    ):
        with pytest.raises(ContractViolation):
            bad()


def test_kempe_swap_pentagon():
    G = cycle(5)
    c = Coloring(3, (1, 2, 1, 2, 3))
    # Vertices 0..3 form one {1,2}-component; 4 is left alone.
    assert kempe_swap(G, c, (1, 2), 0).colors == (2, 1, 2, 1, 3)
    assert kempe_swap(G, c, (1, 2), 3) == kempe_swap(G, c, (1, 2), 0)
    # {1,3} splits differently: only the edge 4-0 joins the pair.
    assert kempe_swap(G, c, (1, 3), 4).colors == (3, 2, 1, 2, 1)
    # Swapping twice at the same vertex is the identity.
    assert kempe_swap(G, kempe_swap(G, c, (1, 2), 0), (1, 2), 0) == c


def test_kempe_swap_random_properness_and_involution(random_pentagraphs_20):
    rng = make_rng("kempe")
    for G in random_pentagraphs_20[:60]:
        if G.n == 0:
            continue
        c = four_color(G)
        for _ in range(4):
            v = rng.randrange(G.n)
            other = rng.choice([x for x in (1, 2, 3, 4) if x != c.colors[v]])
            pair = (c.colors[v], other)
            swapped = kempe_swap(G, c, pair, v)
            assert verify_coloring(G, swapped)
            # Same component before and after, and the swap undoes itself.
            assert kempe_component(G, swapped, pair, v) == kempe_component(G, c, pair, v)
            assert kempe_swap(G, swapped, pair, v) == c
            c = swapped


def test_four_color_pentagon_frozen():
    # Layers from 0 are {0}, {1,4}, {2,3}: palette {1,2} on even layers,
    # {3,4} on odd ones, breadth-first sources landing on side 0.
    assert four_color(cycle(5)).colors == (1, 3, 1, 2, 3)
    assert four_color(make_graph(3, [])).colors == (1, 1, 1)
    assert four_color(make_graph(0, [])) == Coloring(4, ())
    # The colorings themselves, not just their properness, are fixed.
    assert coloring_digest(pinned_graphs() + member_graphs(), four_color) == (
        "b8da67d8084d38365f68906b355a72b3ac6dc01eebdfeeb053e690cc7d11ce43"
    )


def test_bipartite_graphs_take_one_parity_sweep(monkeypatch):
    # One sweep decides bipartiteness and colors: four_color needs no sweep
    # of the edges inside layers, and three_color no split into components.
    sweeps, splits = [], []
    real_parity, real_split = coloring.layer_parity, coloring.components_within

    def parity(adj, within):
        sweeps.append(within)
        return real_parity(adj, within)

    def split(G, allowed):
        splits.append(allowed)
        return real_split(G, allowed)

    monkeypatch.setattr(coloring, "layer_parity", parity)
    monkeypatch.setattr(coloring, "components_within", split)
    forest = make_graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
    for G in (make_graph(0, []), make_graph(3, []), cycle(6), cycle(8), forest):
        sweeps.clear()
        four_color(G)
        assert len(sweeps) == 1
        sweeps.clear()
        three_color(G)
        assert len(sweeps) == 1 and not any(splits)
    # A pentagon has an edge inside a layer: four_color sweeps those edges.
    sweeps.clear()
    four_color(cycle(5))
    assert sweeps == [0b11111, 0b01100]


def test_each_color_call_sweeps_at_most_three_times(monkeypatch):
    # _color peels a vertex set in one forward and one backward pass, so
    # it sweeps the set once, once more after its first degree-2 peel and
    # once over what the peels leave; the recursion it replaces made one
    # call and one sweep per peel, 3,188 of each on the members.
    real_color, real_parity = coloring._color, coloring.layer_parity
    calls = {"color": 0, "sweep": 0}
    open_calls = []
    most = 0

    def color(*args):
        nonlocal most
        calls["color"] += 1
        open_calls.append(0)
        try:
            return real_color(*args)
        finally:
            most = max(most, open_calls.pop())

    def parity(adj, within):
        calls["sweep"] += 1
        open_calls[-1] += 1
        return real_parity(adj, within)

    monkeypatch.setattr(coloring, "_color", color)
    monkeypatch.setattr(coloring, "layer_parity", parity)
    for G in member_graphs():
        three_color(G)
    assert calls == {"color": 194, "sweep": 477}
    assert most == 3


def pendant_pentagon(length):
    """A pentagon on the top five ids with a pendant path of ``length``
    vertices, numbered from its free end, hanging from its least vertex."""
    edges = [(i, i + 1) for i in range(length)]
    edges += [(length + i, length + (i + 1) % 5) for i in range(5)]
    return make_graph(length + 5, edges, max_n=128)


def test_one_color_call_peels_a_long_pendant_path(monkeypatch):
    # The least vertex of degree at most two is always the path's free
    # end, so the recursion peeled the path one level at a time, 121
    # levels deep; one _color call now peels it in two sweeps.
    G = pendant_pentagon(120)
    assert recognize(G).verdict == PENTAGRAPH
    real_color, real_parity = coloring._color, coloring.layer_parity
    calls = {"color": 0, "sweep": 0}

    def color(*args):
        calls["color"] += 1
        return real_color(*args)

    def parity(adj, within):
        calls["sweep"] += 1
        return real_parity(adj, within)

    monkeypatch.setattr(coloring, "_color", color)
    monkeypatch.setattr(coloring, "layer_parity", parity)
    got = three_color(G)
    assert calls == {"color": 1, "sweep": 2}
    assert got == o_three_color(G, SearchBudget(0))


def _color_outcome(color, G, steps):
    """(colors, None, steps left), or (None, (error type, message,
    witness), steps left) when the colorer raises."""
    budget = SearchBudget(steps)
    try:
        return color(G, budget).colors, None, budget.remaining
    except PentagraphError as err:
        return None, (type(err), str(err), getattr(err, "witness", None)), budget.remaining


def cuts_out_of_vertex_order():
    """Peeling 0 leaves the Petersen graph on 2..11 and a part holding 1,
    whose peel leaves K4 on 12..15: the recursion cuts the K4 first, which
    has the larger least vertex, and it raises before the Petersen graph's
    cut spends a step."""
    P = petersen()
    edges = [(0, 1), (0, 2), (1, 12)]
    edges += [(u + 2, v + 2) for u in range(10) for v in iter_bits(P.adj[u]) if u < v]
    edges += [(u + 12, v + 12) for u in range(4) for v in range(u + 1, 4)]
    return make_graph(16, edges)


def pendant_off_a_painted_part(rng, tree, part, core):
    """A pendant tree on the least ``tree`` ids hangs off a bipartite part
    on the ``part`` ids after the next one, which that next vertex, of
    degree two, joins to ``core`` on the top ids. The tree is peeled first,
    all at degree one, then the joining vertex; the sweep after it paints
    the part, so the tree's peels rejoin apart from the core's cuts."""
    join, first = tree, tree + 1
    edges = [(i, rng.randrange(i + 1, tree) if i + 1 < tree and rng.random() < 0.6
              else first + rng.randrange(part)) for i in range(tree)]
    if part >= 4 and part % 2 == 0 and rng.random() < 0.5:
        edges += [(first + i, first + (i + 1) % part) for i in range(part)]
    else:
        edges += [(first + i, first + rng.randrange(i)) for i in range(1, part)]
    top = first + part
    edges += [(join, first + rng.randrange(part)), (join, top + rng.randrange(core.n))]
    edges += [(top + u, top + v) for u, v in core.edges()]
    return make_graph(top + core.n, edges)


def test_three_color_matches_the_recursive_peel(random_pentagraphs_40):
    # The one-pass peel against the recursion it replaced: the same
    # colorings, the same exception with the same message and witness, and
    # the same steps left, on members and on graphs outside the class, at
    # a budget that suffices and at one that runs out part way. On the
    # gadget only the recursion's order of cuts gives the reference's answer.
    rng = make_rng("three-color-peel")
    inputs = [
        member_graphs(),
        [parse_graph6(ln) for ln in P3_MEMBERS.read_text(encoding="ascii").split("\n")
         if ln.strip() and not ln.startswith("#")],
        [G for n in range(8) for G in enumerate_girth5(n)],
        random_pentagraphs_40[:100],
        [rand_graph(rng, rng.randint(5, 16), rng.uniform(0.1, 0.45)) for _ in range(3000)],
        [rand_graph(rng, rng.randint(16, 40), rng.uniform(0.04, 0.2)) for _ in range(2000)],
    ]
    assert [len(graphs) for graphs in inputs] == [128, 127, 57141, 100, 3000, 2000]
    raised = Counter()
    for graphs in inputs:
        for G in graphs:
            got = _color_outcome(three_color, G, 10**6)
            assert got == _color_outcome(o_three_color, G, 10**6), G.adj
            raised[got[1] and got[1][0]] += 1
    assert raised == {None: 60746, InvariantViolation: 1321, NoDecompositionFound: 429}
    G = cuts_out_of_vertex_order()
    got = _color_outcome(three_color, G, 10**6)
    assert got == _color_outcome(o_three_color, G, 10**6)
    assert got[1][0] is NoDecompositionFound and got[2] == 10**6 - 32
    # Pendant trees off a part that the first degree-2 peel leaves
    # bipartite, with the cuts in the core; the first is the pendant path
    # 0-2-1 on a Petersen graph.
    rng = make_rng("painted-part")
    k4 = make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    cores = [petersen(), glue_petersens_at_vertex(), glue_petersens_on_path(), k4]
    gadgets = [make_graph(13, [(0, 2), (1, 2), (1, 3)]
                          + [(u + 3, v + 3) for u, v in petersen().edges()])]
    gadgets += [pendant_off_a_painted_part(rng, tree, part, core)
                for core in cores for tree in range(1, 5) for part in range(1, 7)]
    raised = Counter()
    for G in gadgets:
        got = _color_outcome(three_color, G, 10**6)
        assert got == _color_outcome(o_three_color, G, 10**6), G.adj
        raised[got[1] and got[1][0]] += 1
    assert raised == {None: 73, NoDecompositionFound: 24}
    raised = Counter()
    for G in inputs[1] + inputs[4] + inputs[5]:
        got = _color_outcome(three_color, G, 300)
        assert got == _color_outcome(o_three_color, G, 300), G.adj
        raised[got[1] and got[1][0]] += 1
    assert raised[SearchBudgetExceeded] == 493


def test_colorings_of_every_seven_vertex_member_are_pinned():
    # On seven vertices the only girth-five non-members are the 360 labeled
    # 7-cycles, the 2-regular graphs; three in four members are bipartite.
    members = [G for G in enumerate_girth5(7) if any(G.degree(v) != 2 for v in range(7))]
    assert len(members) == 53005
    assert coloring_digest(members, four_color) == (
        "e3e204695cbdeb699f11fb0ee2d3cd1c80d54d93531e2d225d046e8ae3457f9d"
    )
    assert coloring_digest(members, three_color) == (
        "7d767b354568d44e1617f02dbbe90c6f964a7adb0aee7f6fe22b29fb70b43d29"
    )


def test_four_color_members_layerwise(random_pentagraphs_20):
    for G in random_pentagraphs_20[:80]:
        col = four_color(G)
        assert col.k == 4
        assert verify_coloring(G, col)
        for comp in components(G):
            for idx, layer in enumerate(bfs_layers(G, bit_list(comp)[0])):
                allowed = (1, 2) if idx % 2 == 0 else (3, 4)
                assert all(col.colors[v] in allowed for v in iter_bits(layer))


def test_four_color_rejects_odd_layer():
    with pytest.raises(InvariantViolation) as err:
        four_color(make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    idx, cyc = err.value.witness
    assert idx == 1 and set(cyc) == {1, 2, 3}
    # Disjoint union: the witness must come back in the host labeling.
    union = make_graph(
        9,
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
        + [(u, v) for u in range(5, 9) for v in range(u + 1, 9)],
    )
    with pytest.raises(InvariantViolation) as err:
        four_color(union)
    idx, cyc = err.value.witness
    assert idx == 1 and set(cyc) == {6, 7, 8}
    # Layer 1 is the triangle 4-5-6 and layer 2 the triangle 1-2-3, whose
    # labels come first; the first odd layer is still the one named.
    G = make_graph(
        7,
        [(0, 4), (0, 5), (0, 6), (4, 5), (5, 6), (4, 6)]
        + [(1, 4), (2, 5), (3, 6), (1, 2), (2, 3), (1, 3)],
    )
    assert bfs_layers(G, 0) == (0b1, 0b1110000, 0b1110)
    with pytest.raises(InvariantViolation, match="layer 1 induces an odd cycle") as err:
        four_color(G)
    idx, cyc = err.value.witness
    assert idx == 1 and set(cyc) == {4, 5, 6}


def test_petersen_coloring_constant():
    assert len(PETERSEN_COLORING) == 10
    assert set(PETERSEN_COLORING) == {1, 2, 3}
    assert verify_coloring(petersen(), Coloring(3, PETERSEN_COLORING))


def test_combine_p3_agreeing_sides():
    G = p3_gadget()
    cut = find_p3_cutset(G)
    assert cut == P3Cutset((0, 1, 2), (mask_of((3, 4, 6)), mask_of((5,))))
    # Side colorings are in G's ids and leave every vertex off their side
    # and the path at 0: the first colors {0,1,2,3,4,6}, the second {0,1,2,5}.
    col1 = Coloring(3, (1, 2, 1, 2, 3, 0, 1))
    col2 = Coloring(3, (1, 2, 1, 0, 0, 1, 0))
    merged = combine_p3(G, cut, [col1, col2])
    assert merged == Coloring(3, (1, 2, 1, 2, 3, 1, 1))
    assert verify_coloring(G, merged)
    # A relabeled palette on one side anchors back to the same merge.
    col1_swapped = Coloring(3, (2, 1, 2, 1, 3, 0, 2))
    assert combine_p3(G, cut, [col1_swapped, col2]) == merged


def test_combine_p3_stuck_side_sets_the_target():
    G = p3_gadget()
    cut = find_p3_cutset(G)
    # First side: 0 and 2 share a {1,3}-component (0-4-3-2 alternates), so
    # its value 3 at the path's end is forced and the free side must flip.
    col1 = Coloring(3, (1, 2, 3, 1, 3, 0, 2))
    col2 = Coloring(3, (1, 2, 1, 0, 0, 1, 0))
    merged = combine_p3(G, cut, [col1, col2])
    assert merged == Coloring(3, (1, 2, 3, 1, 3, 1, 2))
    assert verify_coloring(G, merged)


def test_combine_p3_contract_errors():
    G = p3_gadget()
    cut = find_p3_cutset(G)
    col1 = Coloring(3, (1, 2, 1, 2, 3, 0, 1))
    col2 = Coloring(3, (1, 2, 1, 0, 0, 1, 0))
    with pytest.raises(ContractViolation):
        combine_p3(G, cut, [col1])
    with pytest.raises(ContractViolation):
        combine_p3(G, cut, [col1, Coloring(4, (1, 2, 1, 0, 0, 4, 0))])
    with pytest.raises(ContractViolation):
        combine_p3(G, cut, [col1, Coloring(3, (1, 1, 1, 0, 0, 1, 0))])
    for bad in (
        Coloring(3, (1, 2, 1, 2, 3, 0, 0)),  # side vertex 6 left at 0
        Coloring(3, (0, 2, 1, 2, 3, 0, 1)),  # path vertex 0 left at 0
        Coloring(3, (1, 2, 1, 2, 3, 1, 1)),  # vertex 5 lies off this side
        Coloring(3, (1, 2, 1, 1, 3, 0, 2)),  # edge 2-3 is monochromatic
        Coloring(4, (1, 2, 1, 2, 3, 0, 1)),  # a four-color palette
        Coloring(3, (1, 2, 1, 2, 3, 1)),  # the side's relabelled copy
    ):
        with pytest.raises(ContractViolation):
            combine_p3(G, cut, [bad, col2])
    bad_cut = P3Cutset((0, 1, 2), (mask_of((5,)), mask_of((3, 4, 6))))
    with pytest.raises(InvariantViolation):
        combine_p3(G, bad_cut, [col2, col1])
    # A cut path of two or four ids is refused, not unpacked.
    for path in ((0, 1), (0, 1, 2, 3)):
        with pytest.raises(InvariantViolation, match="three distinct vertices"):
            combine_p3(G, P3Cutset(path, cut.sides), [col1, col2])


def test_combine_p3_detects_parity_clash():
    # Two internally disjoint 0-2 connectors of different parity close an
    # induced 7-cycle (0-3-4-2-7-6-5), so the input sits outside the class
    # and both sides can be stuck on different values at the path's end.
    G = make_graph(
        8,
        [(0, 1), (1, 2), (0, 3), (3, 4), (4, 2), (0, 5), (5, 6), (6, 7), (7, 2)],
    )
    cut = P3Cutset((0, 1, 2), (mask_of((3, 4)), mask_of((5, 6, 7))))
    cut.validate(G)
    col_a = Coloring(3, (1, 2, 3, 3, 1, 0, 0, 0))
    col_b = Coloring(3, (1, 2, 1, 0, 0, 3, 1, 3))
    with pytest.raises(InvariantViolation) as err:
        combine_p3(G, cut, [col_a, col_b])
    assert err.value.witness == ((0, 3, 4, 2), (0, 5, 6, 7, 2))


def test_normalize_on_star_single_swap():
    G = star_gadget()
    start = Coloring(3, (1, 2, 3, 1, 2, 1, 1, 2, 1, 3))
    assert verify_coloring(G, start)
    fixed = normalize_on_star(G, start, 0, mask_of((1, 2)))
    assert fixed == Coloring(3, (1, 2, 2, 1, 2, 1, 1, 2, 1, 3))
    assert verify_coloring(G, fixed)
    # Already-normalized input passes through unchanged.
    assert normalize_on_star(G, fixed, 0, mask_of((1, 2))) == fixed


def test_normalize_on_star_permutes_palette_first():
    G = star_gadget()
    # Same coloring as above with the palette rotated 1->2->3->1; the
    # normalizer must first send the center back to color 1.
    start = Coloring(3, (2, 3, 1, 2, 3, 2, 2, 3, 2, 1))
    fixed = normalize_on_star(G, start, 0, mask_of((1, 2)))
    assert fixed == Coloring(3, (1, 2, 2, 1, 3, 1, 1, 3, 1, 2))
    assert fixed.colors[0] == 1 and fixed.colors[1] == fixed.colors[2] == 2
    assert verify_coloring(G, fixed)


def test_normalize_on_star_mixed_leaves_raise():
    # On the pentagon, {0} with leaves {1,4} is not a cutset; the exchange
    # component mixes both leaf colors and the odd leaf-to-leaf path comes
    # back as the witness.
    G = cycle(5)
    c = Coloring(3, (1, 2, 3, 2, 3))
    with pytest.raises(InvariantViolation) as err:
        normalize_on_star(G, c, 0, mask_of((1, 4)))
    assert err.value.witness == (1, 2, 3, 4)


def test_normalize_on_star_contract_errors():
    G = star_gadget()
    good = Coloring(3, (1, 2, 3, 1, 2, 1, 1, 2, 1, 3))
    with pytest.raises(ContractViolation):
        normalize_on_star(G, good, 0, mask_of((1, 3)))
    with pytest.raises(ContractViolation):
        normalize_on_star(G, four_color(G), 0, mask_of((1, 2)))
    with pytest.raises(ContractViolation):
        normalize_on_star(G, Coloring(3, (1,) * 10), 0, mask_of((1, 2)))
    # An uncolored center or leaf; other vertices may be uncolored.
    for colors in ((0, 2, 3, 1, 2, 1, 0, 0, 0, 3), (1, 0, 3, 1, 2, 1, 0, 0, 0, 3)):
        with pytest.raises(ContractViolation):
            normalize_on_star(G, Coloring(3, colors), 0, mask_of((1, 2)))
    # Out-of-range centers, and a coloring shorter than the graph.
    C5 = cycle(5)
    c5 = three_color(C5)
    for v in (-1, 5, 7):
        with pytest.raises(ContractViolation):
            normalize_on_star(C5, c5, v, mask_of([0, 3]))
    with pytest.raises(ContractViolation):
        normalize_on_star(C5, Coloring(3, c5.colors[:3]), 4, mask_of([0, 3]))


def test_normalize_on_star_swaps_every_pure_three_component():
    # Leaves 1 and 2 lie in the disjoint {2,3}-components {1, 3} and
    # {2, 4}, each holding a 3-leaf and no 2-leaf: one call swaps both.
    G = make_graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)])
    fixed = normalize_on_star(G, Coloring(3, (1, 3, 3, 2, 2)), 0, mask_of((1, 2)))
    assert fixed == Coloring(3, (1, 2, 2, 3, 3))
    # A third component, 5-7-8-6, mixes the leaf colors: the error names its
    # odd leaf-to-leaf path, and the pure components' swaps do not hide it.
    G = make_graph(9, [(0, 1), (0, 2), (0, 5), (0, 6), (1, 3), (2, 4), (5, 7), (7, 8), (8, 6)])
    with pytest.raises(InvariantViolation, match="mixes both leaf colors") as err:
        normalize_on_star(G, Coloring(3, (1, 3, 3, 2, 2, 2, 3, 3, 2)), 0, mask_of((1, 2, 5, 6)))
    assert err.value.witness == (5, 7, 8, 6)


def star_normalization_cases():
    """Seeded normalize_on_star inputs: a random graph, a random proper
    partial 3-coloring (some vertices left at 0), a center and a random set
    of its colored neighbours as leaves; now and then an uncolored center."""
    rng = make_rng("normalize-on-star")
    cases = []
    while len(cases) < 4000:
        n = rng.randrange(3, 15)
        G = rand_graph(rng, n, rng.uniform(0.1, 0.5))
        colors = [0] * n
        for v in rng.sample(range(n), n):
            free = [c for c in (1, 2, 3) if all(colors[u] != c for u in iter_bits(G.adj[v]))]
            if free and rng.random() < 0.9:
                colors[v] = rng.choice(free)
        v = rng.randrange(n)
        if not colors[v] and rng.random() < 0.9:
            continue
        leaves = [u for u in iter_bits(G.adj[v]) if colors[u]]
        X = mask_of(rng.sample(leaves, rng.randint(0, len(leaves))))
        cases.append((G, Coloring(3, tuple(colors)), v, X))
    return cases


def test_normalize_on_star_results_are_pinned():
    # The colorings, or the error's type, message and witness, are fixed.
    # The corpus has 396 mixed-leaf errors and 82 uncolored centers or
    # leaves; 821 calls swap one component, and 111 two or three.
    digest = hashlib.sha256()
    outcomes = {}
    for G, c, v, X in star_normalization_cases():
        try:
            record = ("ok", normalize_on_star(G, c, v, X).colors)
        except (ContractViolation, InvariantViolation) as err:
            record = (type(err).__name__, str(err), getattr(err, "witness", None))
        outcomes[record[0]] = outcomes.get(record[0], 0) + 1
        digest.update((repr(record) + "\n").encode())
    assert outcomes == {"ok": 3522, "InvariantViolation": 396, "ContractViolation": 82}
    assert digest.hexdigest() == (
        "f2ed6d2fdf9531dba7d0ac23593ef77717c3b4b3b15e42b5a0dbcdba94e10d7f"
    )


def test_normalize_on_star_keeps_uncolored_vertices():
    # One side of the gadget's star, {3, 4, 5, 9}, with the cut {0, 1, 2}:
    # normalized in G's ids with 0 on the other side, it gets the colors
    # its relabelled copy gets, and the 0s stay.
    G = star_gadget()
    keep = mask_of((0, 1, 2, 3, 4, 5, 9))
    partial = Coloring(3, (2, 3, 1, 2, 3, 2, 0, 0, 0, 1))
    fixed = normalize_on_star(G, partial, 0, mask_of((1, 2)))
    assert fixed == Coloring(3, (1, 2, 2, 1, 3, 1, 0, 0, 0, 2))
    sub, ids = induced_subgraph(G, keep)
    copy = Coloring(3, tuple(partial.colors[v] for v in ids))
    on_copy = normalize_on_star(sub, copy, ids.index(0), mask_of((ids.index(1), ids.index(2))))
    assert on_copy.colors == tuple(fixed.colors[v] for v in ids)


def test_merge_star_colors_the_gadget(monkeypatch):
    # The gadget has a vertex of degree two, which three_color would peel
    # before any cut. So the cut arms are driven directly, decompose is made
    # to answer with the star for the whole graph, and the sides merge
    # across it.
    G = star_gadget()
    cert = verify_parity_star_cutset(G, 0, mask_of((1, 2)))
    assert cert is not None and cert.strong
    real = coloring.decompose
    monkeypatch.setattr(
        coloring,
        "decompose",
        lambda H, budget: DecompositionOutcome("star", star=cert) if H is G else real(H, budget),
    )
    col = Coloring(3, coloring._color_cut(G, SearchBudget.fresh(), G.n))
    assert verify_coloring(G, col)
    assert col.colors[0] == 1 and col.colors[1] == col.colors[2] == 2


def test_three_color_fixtures():
    for name in ("c5", "p0", "p1", "p2", "petersen"):
        G = fixture(name)
        col = three_color(G)
        assert col.k == 3
        assert verify_coloring(G, col)
    assert set(three_color(petersen()).colors) == {1, 2, 3}
    # Deterministic output.
    assert three_color(fixture("p0")) == three_color(fixture("p0"))


def test_three_color_trivial_and_off_class():
    assert three_color(make_graph(0, [])) == Coloring(3, ())
    assert three_color(make_graph(1, [])).colors == (1,)
    # The 7-cycle is outside the class but unwinds by degree-2 deletions,
    # so the colorer still succeeds; it is not a recognizer.
    G = cycle(7)
    assert verify_coloring(G, three_color(G))
    with pytest.raises(NoDecompositionFound):
        three_color(make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))


def test_three_color_budget():
    with pytest.raises(SearchBudgetExceeded):
        three_color(petersen(), SearchBudget(1))


def test_three_color_small_members(small_pentagraphs):
    for G in small_pentagraphs[::97]:
        col = three_color(G)
        assert col.k == 3
        assert verify_coloring(G, col)


def test_three_color_random_members(random_pentagraphs_20, random_pentagraphs_40):
    for G in random_pentagraphs_20:
        assert verify_coloring(G, three_color(G, SearchBudget(10**9)))
    for G in random_pentagraphs_40[::10]:
        assert verify_coloring(G, three_color(G, SearchBudget(10**9)))


def test_three_color_colorings_are_pinned():
    # The colorings themselves, not just their properness, are fixed.
    assert coloring_digest(pinned_graphs(), three_color) == (
        "1c9332600d759d6bd488b280d3be8d4b21945a438f471a7cd2bc2c06e8958d23"
    )


def test_three_color_members_are_pinned():
    # The benchmark's member corpus reaches decompose's cut arms 167 times:
    # 134 ten-vertex base cases and 33 clique cuts.
    def color(G):
        return three_color(G, SearchBudget(10**9))

    assert coloring_digest(member_graphs(), color) == (
        "ae7a7952336febfcc03782de0779c9f185176e890add9ae260bf6079d0251987"
    )


def test_three_color_through_clique_cuts():
    # Both glued graphs are members whose recursion passes a clique cutset
    # and bottoms out in two ten-vertex base cases.
    for G in (glue_petersens_at_vertex(), make_glued_on_edge()):
        col = three_color(G, SearchBudget(10**9))
        assert col.k == 3
        assert verify_coloring(G, col)


def make_glued_on_edge():
    """Two Petersen copies sharing the edge 0-1; the clique cut (0, 1)."""
    edges = list(petersen().edges())
    relabel = {0: 0, 1: 1}
    relabel.update({k: 8 + k for k in range(2, 10)})
    edges += [(relabel[u], relabel[v]) for u, v in petersen().edges()]
    return make_graph(18, edges)


def assert_paths_of(G, witness):
    """The witness is a path of G, or (from combine_p3) a tuple of them."""
    assert witness
    for path in witness if isinstance(witness[0], tuple) else (witness,):
        assert len(set(path)) == len(path) and all(0 <= v < G.n for v in path)
        assert all(G.has_edge(u, v) for u, v in zip(path, path[1:])), path


def test_three_color_on_path_glued_copies():
    # Off-class input (it holds an induced 7-cycle) whose decomposition is
    # the cut path: the combiner either returns a verified coloring or
    # certifies the clash; both are in contract off the class.
    G = glue_petersens_on_path()
    try:
        col = three_color(G, SearchBudget(10**9))
    except InvariantViolation as err:
        assert_paths_of(G, err.witness)
    else:
        assert verify_coloring(G, col)


@pytest.mark.parametrize("g6, message, witness", [
    ("K?PGBPWKnSCi", "every exchange component mixes both leaf colors", (8, 9, 11, 5)),
    ("J`RDaBiCma?", "sides force both parities", ((3, 10, 0, 8), (3, 2, 8), (3, 9, 8))),
    ("M_p?OU_WKmNhlH?d?", "even local jump", (0, 4, 6, 13, 9)),
])
def test_three_color_witnesses_name_input_vertices(g6, message, witness):
    # Off-class graphs whose violation is raised inside a copied component
    # or star side: the witness must come back in the input's vertex ids.
    G = parse_graph6(g6)
    with pytest.raises(InvariantViolation, match=message) as err:
        three_color(G, SearchBudget(200_000))
    assert_paths_of(G, err.value.witness)
    assert err.value.witness == witness


def test_chromatic_bruteforce_cases():
    assert chromatic_number_bruteforce(make_graph(0, []), 3) == 0
    assert chromatic_number_bruteforce(cycle(5), 0) is None
    assert chromatic_number_bruteforce(make_graph(5, []), 3) == 1
    assert chromatic_number_bruteforce(make_graph(4, [(0, 1), (0, 2), (0, 3)]), 3) == 2
    assert chromatic_number_bruteforce(cycle(6), 4) == 2
    assert chromatic_number_bruteforce(cycle(5), 4) == 3
    assert chromatic_number_bruteforce(petersen(), 4) == 3
    k4 = make_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert chromatic_number_bruteforce(k4, 3) is None
    assert chromatic_number_bruteforce(k4, 4) == 4


def test_chromatic_bruteforce_matches_oracle():
    rng = make_rng("chromatic")
    for _ in range(60):
        G = rand_graph(rng, rng.randrange(7), rng.uniform(0.1, 0.9))
        assert chromatic_number_bruteforce(G, 4) == o_chromatic(G, 4)
