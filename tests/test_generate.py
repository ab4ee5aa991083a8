"""Corpus generation: exhaustive enumeration, the seeded random grower,
spec validation, and stream truncation."""

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
)
from pentagraph.generate import enumerate_girth5
from pentagraph.graph import Graph

from conftest import make_rng
from oracles import o_all_graphs, o_girth

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
    with pytest.raises(ContractViolation):
        list(enumerate_girth5(-1))


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


def test_random_grower_is_maximal():
    # With the coin at 1.0 every skipped pair must be blocked by one of
    # the two legality rules: ends within distance three, or an induced
    # even path of length at least six between them.
    for seed in range(8):
        G = random_pentagraph(10, make_rng(f"maximal-{seed}"))
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
                assert long_even, f"seed {seed}: edge {u}-{v} was legal but skipped"


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
    # A one-step budget lets the cheapest (bipartite) graphs through and
    # dies on the first one that needs real search.
    spec = CorpusSpec(mode="exhaustive", n_min=6, n_max=6)
    stream = generate_corpus(spec, budget=SearchBudget(1))
    assert len(list(stream)) < GIRTH5_COUNTS[6]
    assert stream.truncated

    spec = CorpusSpec(mode="random", n_min=12, n_max=12, seed=9, target_count=5)
    stream = generate_corpus(spec, budget=SearchBudget(1))
    out = list(stream)
    assert stream.truncated and len(out) < 5


def test_truncated_stream_stays_stopped_and_overdraws_one_step():
    # The stream stops where the budget runs out and stays stopped. The
    # last probe overdraws by the one step that raised, and no more.
    budget = SearchBudget(5)
    stream = generate_corpus(CorpusSpec("exhaustive", 5, 6), budget)
    out = list(stream)
    assert stream.truncated and stream.produced == len(out) == 23
    assert budget.remaining == -1
    with pytest.raises(StopIteration):
        next(stream)
    with pytest.raises(StopIteration):
        next(stream)
