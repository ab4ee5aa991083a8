"""Corpus generation: exhaustive enumeration, the seeded random grower,
spec validation, and stream truncation."""

import hashlib
import random

import pytest

from pentagraph import (
    ContractViolation,
    CorpusSpec,
    PENTAGRAPH,
    SearchBudget,
    distance,
    enumerate_induced_paths,
    generate_corpus,
    girth,
    random_pentagraph,
    recognize,
    write_graph6,
)
from pentagraph import generate
from pentagraph.generate import _far_apart, _six_edge_path, enumerate_girth5
from pentagraph.graph import Graph, HARD_MAX_VERTICES

from conftest import make_rng
from oracles import o_all_graphs, o_distance, o_girth, o_induced_paths

# Labeled graphs of girth at least five, by vertex count.
GIRTH5_COUNTS = [1, 1, 2, 7, 38, 303, 3424, 53365]


def test_enumeration_counts_frozen():
    for n, want in enumerate(GIRTH5_COUNTS[:7]):
        assert sum(1 for _ in enumerate_girth5(n)) == want


def test_enumeration_matches_naive_filter():
    # Ground truth: filter every labeled graph by the oracle's girth.
    for n in range(6):
        want = set()
        for adj in o_all_graphs(n):
            g = o_girth(Graph(n, tuple(adj)))
            if g is None or g >= 5:
                want.add(adj)
        got = {G.adj for G in enumerate_girth5(n)}
        assert got == want


def test_enumeration_stream_properties():
    graphs = list(enumerate_girth5(5))
    # Deterministic order, starting from the edgeless graph.
    assert graphs[0].adj == (0, 0, 0, 0, 0)
    assert graphs == list(enumerate_girth5(5))
    assert len(set(g.adj for g in graphs)) == len(graphs)
    assert all(girth(g) >= 5 for g in graphs)
    # The n = 7 stream is pinned graph by graph, order included.
    digest = hashlib.sha256()
    for G in enumerate_girth5(7):
        digest.update(repr(G.adj).encode() + b"\n")
    assert digest.hexdigest() == (
        "8330bfd433964333557cc6e40e7064f808bd1f68d5c0f46c885c0ec666de47b2"
    )
    # The stream is lazy: at the vertex cap the first graphs come at once.
    big = enumerate_girth5(128)
    assert [next(big).edge_count() for _ in range(3)] == [0, 1, 1]
    with pytest.raises(ContractViolation):
        list(enumerate_girth5(-1))


def test_enumeration_refuses_more_vertices_than_the_cap():
    assert next(enumerate_girth5(HARD_MAX_VERTICES)).n == HARD_MAX_VERTICES
    for n in (HARD_MAX_VERTICES + 1, 200):
        with pytest.raises(ContractViolation):
            next(enumerate_girth5(n))


def test_random_grower_members_and_determinism():
    rng = make_rng("grower")
    for trial in range(25):
        n = rng.randrange(25)
        seed = rng.randrange(1 << 32)
        G = random_pentagraph(n, random.Random(seed))
        again = random_pentagraph(n, random.Random(seed))
        assert G.adj == again.adj
        assert recognize(G).verdict == PENTAGRAPH


def test_random_grower_edge_probability_zero():
    G = random_pentagraph(12, make_rng("coin"), edge_probability=0.0)
    assert G.adj == (0,) * 12


def test_random_grower_rejects_bad_inputs():
    for n, p in ((-2, 1.0), (129, 1.0), (130, 1.0), (5, 1.7), (5, -0.1)):
        with pytest.raises(ContractViolation):
            random_pentagraph(n, make_rng("bad-input"), edge_probability=p)
    assert random_pentagraph(0, make_rng("empty")).n == 0


def test_random_grower_is_maximal():
    # With the coin at 1.0 every skipped pair must be blocked by one of
    # the two legality rules: ends within distance three, or an induced
    # even path of length at least six between them. The 40-vertex graph
    # is one where a step cap on each probe once dropped 19 legal edges.
    cases = [(10, f"maximal-{seed}") for seed in range(8)] + [(40, "maximal-large")]
    for n, tag in cases:
        G = random_pentagraph(n, make_rng(tag))
        rest = G.full_mask()
        for u in range(G.n):
            for v in range(u + 1, G.n):
                if G.has_edge(u, v):
                    continue
                d = distance(G, u, v)
                if d is not None and d <= 3:
                    continue
                long_even = enumerate_induced_paths(
                    G, u, v, rest & ~(1 << u) & ~(1 << v),
                    parity="even", min_len=6, limit=1,
                )
                assert long_even, f"{tag}: edge {u}-{v} was legal but skipped"


def reference_grower(n, rng, edge_probability):
    """random_pentagraph without its parity cut: every far-apart pair is
    probed for an induced even path of length at least six."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs:
        if edge_probability < 1.0 and rng.random() >= edge_probability:
            continue
        G = Graph(n, tuple(adj))
        d = o_distance(G, u, v)
        if d is not None and d <= 3:
            continue
        rest = G.full_mask() & ~(1 << u) & ~(1 << v)
        if enumerate_induced_paths(G, u, v, rest, parity="even", min_len=6, limit=1):
            continue
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


@pytest.mark.parametrize("edge_probability", [1.0, 0.5])
def test_random_grower_matches_reference_without_parity_cut(edge_probability):
    # Skipping the probe where the ends lie in different components, or on
    # opposite sides of one bipartite component, must not change a graph.
    rng = make_rng(f"reference-grower-{edge_probability}")
    for _ in range(30):
        n = rng.randrange(31)
        seed = rng.randrange(1 << 32)
        got = random_pentagraph(n, random.Random(seed), edge_probability)
        assert got == reference_grower(n, random.Random(seed), edge_probability)


def _far_pairs(G):
    """The pairs at distance at least four, or in different components."""
    for u in range(G.n):
        for v in range(u + 1, G.n):
            d = o_distance(G, u, v)
            if d is None or d >= 4:
                yield u, v


def _check_six_edge_lemma(G):
    """_six_edge_path against the bounded DFS and the oracle on every far
    pair of G, which must have girth at least five; returns the pairs
    checked and how many of them hold a six-edge path."""
    checked = found = 0
    adj = list(G.adj)
    for u, v in _far_pairs(G):
        rest = G.full_mask() & ~(1 << u) & ~(1 << v)
        dfs = bool(enumerate_induced_paths(
            G, u, v, rest, parity="even", min_len=6, max_len=6, limit=1,
        ))
        oracle = any(len(p) == 7 for p in o_induced_paths(G, u, v))
        got = _six_edge_path(adj, u, v, _far_apart(adj, u, v))
        assert got == dfs == oracle, f"adj={G.adj} u={u} v={v}"
        checked += 1
        found += got
    return checked, found


def _girth5_process(n, rng, attempts):
    """A random girth-five graph that may hold long odd holes: try
    `attempts` random pairs, keeping each whose ends are at distance at
    least four."""
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    for u, v in pairs[:attempts]:
        d = o_distance(Graph(n, tuple(adj)), u, v)
        if d is None or d >= 4:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def test_six_edge_mask_test_matches_the_searches(monkeypatch):
    # On 7 vertices an induced six-edge path spans the graph, so the
    # witnesses are exactly the 2,520 labeled paths P7 with u, v as ends.
    checked, found = 0, 0
    for G in enumerate_girth5(7):
        c, f = _check_six_edge_lemma(G)
        checked, found = checked + c, found + f
    assert (checked, found) == (305445, 2520)

    # The graphs the grower actually probes, before each mask test.
    probed = []

    def record(adj, u, v, ball):
        probed.append(tuple(adj))
        return _six_edge_path(adj, u, v, ball)

    monkeypatch.setattr(generate, "_six_edge_path", record)
    rng = make_rng("six-edge-grows")
    for i in range(12):
        n = rng.randrange(12, 31)
        random_pentagraph(n, random.Random(rng.randrange(1 << 32)), (1.0, 0.7, 0.5)[i % 3])
    monkeypatch.undo()
    checked, found = 0, 0
    for adj in dict.fromkeys(probed):
        c, f = _check_six_edge_lemma(Graph(len(adj), adj))
        checked, found = checked + c, found + f
    assert found and checked > found

    # Girth-five graphs from a generator with no odd-hole rule.
    rng = make_rng("six-edge-girth5")
    checked, found = 0, 0
    for _ in range(40):
        n = rng.randrange(8, 25)
        G = _girth5_process(n, rng, rng.randrange(n, 3 * n))
        assert o_girth(G) is None or o_girth(G) >= 5
        c, f = _check_six_edge_lemma(G)
        checked, found = checked + c, found + f
    assert found and checked > found


def test_random_grow_corpus_steps():
    # Pins the random-grow corpus graph by graph, and the probe work of
    # growing it. Probing every far-apart pair with the unbounded search
    # alone spends 2,082,770 steps, skipping the probes that parity decides
    # 1,062,904, looking for a six-edge witness first 511,400, cutting the
    # children that cannot reach t in the unbounded pass 129,050, deciding
    # the six-edge witness by one mask test of one step 53,497, and
    # entering a lone child below the root without a sweep 54,292.
    budget = SearchBudget(10**9)
    spec = CorpusSpec("random", 1, 40, seed=20260822, target_count=100)
    digest = hashlib.sha256()
    for G in generate_corpus(spec, budget):
        digest.update((write_graph6(G) + "\n").encode())
    assert digest.hexdigest() == (
        "1545d5cdf904eb0a34d4bc0d0da7573582915ff175a09b021d5464a7a7b3c2e4"
    )
    assert 10**9 - budget.remaining == 54292


def test_random_grow_runs_no_bounded_search(monkeypatch):
    # The six-edge witness is a mask test, so growing the random-grow
    # corpus runs only the unbounded search, once for each of the 2,090
    # pairs that the 12,030 mask tests leave open.
    calls = []

    def record(*args, **kwargs):
        calls.append(kwargs)
        return enumerate_induced_paths(*args, **kwargs)

    monkeypatch.setattr(generate, "enumerate_induced_paths", record)
    spec = CorpusSpec("random", 1, 40, seed=20260822, target_count=100)
    assert sum(1 for _ in generate_corpus(spec, SearchBudget(10**9))) == 100
    assert all(kw.get("max_len") is None for kw in calls)
    assert len(calls) == 2090


def test_corpus_spec_validation():
    good = CorpusSpec(mode="random", n_min=0, n_max=12, seed=3, target_count=4)
    assert good.edge_probability == 1.0
    bad = [
        dict(mode="weird", n_min=0, n_max=5),
        dict(mode="exhaustive", n_min=-1, n_max=5),
        dict(mode="exhaustive", n_min=6, n_max=5),
        dict(mode="exhaustive", n_min=0, n_max=11),
        dict(mode="random", n_min=0, n_max=129, target_count=1),
        dict(mode="random", n_min=0, n_max=5),
        dict(mode="random", n_min=0, n_max=5, target_count=-1),
        dict(mode="random", n_min=0, n_max=5, target_count=1, edge_probability=1.5),
        dict(mode="random", n_min=0, n_max=5, target_count=1, edge_probability=-0.1),
        dict(mode="random", n_min=0, n_max=5, target_count=1, seed=-1),
        dict(mode="random", n_min=0, n_max=5, target_count=1, seed=1 << 64),
        dict(mode="random", n_min=0, n_max=5, target_count=1.5),
        dict(mode="random", n_min=0.5, n_max=5, target_count=1),
        dict(mode="random", n_min=0, n_max=5.0, target_count=1),
        dict(mode="random", n_min=0, n_max=5, target_count=1, seed=1.5),
        dict(mode="random", n_min=0, n_max=5, target_count=True),
        dict(mode="exhaustive", n_min=False, n_max=5),
        dict(mode="random", n_min=0, n_max=5, target_count=1, seed=True),
        dict(mode="random", n_min=0, n_max=5, target_count="1"),
    ]
    for kwargs in bad:
        with pytest.raises(ContractViolation):
            CorpusSpec(**kwargs)


def test_exhaustive_corpus_counts():
    # Up to six vertices every girth-five graph is a member: an induced
    # odd cycle longer than five needs at least seven vertices.
    stream = generate_corpus(CorpusSpec(mode="exhaustive", n_min=0, n_max=6))
    graphs = list(stream)
    assert len(graphs) == sum(GIRTH5_COUNTS[:7]) == 3776
    assert not stream.truncated
    assert stream.produced == 3776
    per_n = {}
    for G in graphs:
        per_n[G.n] = per_n.get(G.n, 0) + 1
    assert per_n == {n: GIRTH5_COUNTS[n] for n in range(7)}


def test_seven_vertex_member_count(small_pentagraphs):
    # 360 labeled 7-cycles drop out of the 53365 girth-five graphs.
    assert sum(1 for G in small_pentagraphs if G.n == 7) == 53365 - 360
    assert len(small_pentagraphs) == 56781


def test_exhaustive_corpus_target_count():
    spec = CorpusSpec(mode="exhaustive", n_min=0, n_max=10, target_count=12)
    stream = generate_corpus(spec)
    graphs = list(stream)
    assert len(graphs) == 12
    assert not stream.truncated


def test_random_corpus_stream():
    spec = CorpusSpec(mode="random", n_min=5, n_max=15, seed=11, target_count=25)
    first = [g.adj for g in generate_corpus(spec)]
    stream = generate_corpus(spec)
    second = [g.adj for g in stream]
    assert first == second
    assert len(first) == 25 and stream.produced == 25
    assert all(5 <= len(adj) <= 15 for adj in first)
    other = [g.adj for g in generate_corpus(
        CorpusSpec(mode="random", n_min=5, n_max=15, seed=12, target_count=25)
    )]
    assert other != first


def test_random_corpus_edge_probability_plumbs_through():
    spec = CorpusSpec(
        mode="random", n_min=6, n_max=6, seed=5, target_count=10, edge_probability=0.0
    )
    assert all(g.adj == (0,) * 6 for g in generate_corpus(spec))


def test_truncation_on_tiny_budgets():
    # A one-step budget lets through the graphs with no non-bipartite block
    # of seven vertices, which need no search, and dies on the first one
    # that does.
    spec = CorpusSpec(mode="exhaustive", n_min=7, n_max=7)
    stream = generate_corpus(spec, budget=SearchBudget(1))
    assert len(list(stream)) < GIRTH5_COUNTS[7]
    assert stream.truncated

    spec = CorpusSpec(mode="random", n_min=12, n_max=12, seed=9, target_count=5)
    stream = generate_corpus(spec, budget=SearchBudget(1))
    out = list(stream)
    assert stream.truncated and len(out) < 5


def test_truncated_stream_stays_stopped_and_overdraws_one_step():
    # The stream stops where the budget runs out and stays stopped. The
    # last probe overdraws by the one step that raised, and no more.
    budget = SearchBudget(5)
    stream = generate_corpus(CorpusSpec("exhaustive", 7, 7), budget)
    out = list(stream)
    assert stream.truncated and stream.produced == len(out) == 10840
    assert budget.remaining == -1
    with pytest.raises(StopIteration):
        next(stream)
    with pytest.raises(StopIteration):
        next(stream)
