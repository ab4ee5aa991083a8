"""Members that reach the cut-path arm: the Heawood graph glued on one
18-vertex member at sets of its degree-2 vertices (see make_p3_members.py).
Each is recognized, decomposed with a certificate that revalidates, and
3-colored through combine_p3."""

from collections import Counter

import pytest

from pentagraph import (
    PENTAGRAPH,
    SearchBudget,
    decompose,
    find_clique_cutset,
    parse_graph6,
    recognize,
    revalidate_outcome,
    three_color,
    verify_coloring,
    write_graph6,
)
from pentagraph import coloring

import make_p3_members
from test_coloring import coloring_digest


def p3_member_lines():
    lines = [
        ln for ln in make_p3_members.OUT.read_text(encoding="ascii").split("\n")
        if ln.strip() and not ln.startswith("#")
    ]
    assert len(lines) == 127
    return lines


def p3_member_graphs():
    return [parse_graph6(line) for line in p3_member_lines()]


def test_the_file_is_what_the_script_writes():
    assert p3_member_lines() == [write_graph6(G) for G in make_p3_members.members()]


def test_every_line_is_a_member_with_a_certificate_that_holds():
    arms = Counter()
    for G in p3_member_graphs():
        assert recognize(G, SearchBudget(10**9)).verdict == PENTAGRAPH
        outcome = decompose(G, SearchBudget(10**9))
        revalidate_outcome(G, outcome)
        arms[outcome.variant] += 1
    # Only the sets that leave no degree-2 vertex reach p3 at the top.
    assert arms == {"low_degree": 82, "p3": 45}


def test_recognize_step_ledger():
    # Recognition's steps over the 127 lines, each with its own budget. The
    # degeneracy order costs more here than the least-label order's 9,194:
    # 62 lines spend more steps, at worst 46 -> 130, though the search takes
    # less time. Entering a lone child below the root without a sweep moved
    # it from 9,712.
    steps = 0
    for G in p3_member_graphs():
        budget = SearchBudget(10**9)
        recognize(G, budget)
        steps += 10**9 - budget.remaining
    assert steps == 9803


def test_the_full_boost_is_cut_by_a_path():
    # All seven slots: 18 + 7 * 11 vertices, 24 + 7 * 19 edges, a member in
    # 80 steps with no clique cutset. Recognition spent 136 when it rooted
    # each hole at its least label rather than in a degeneracy order.
    G = p3_member_graphs()[0]
    assert (G.n, G.edge_count()) == (95, 157)
    budget = SearchBudget(10**9)
    assert recognize(G, budget).verdict == PENTAGRAPH
    assert 10**9 - budget.remaining == 80
    assert find_clique_cutset(G) is None
    outcome = decompose(G)
    assert outcome.variant == "p3" and outcome.p3.path == (1, 2, 17)


@pytest.fixture
def counted_color(monkeypatch):
    """A verified three_color and the combine_p3 and Kempe exchange calls
    made under each of its calls, in order."""
    calls = []

    def count(name):
        inner = getattr(coloring, name)

        def counted(*args):
            calls[-1][name] += 1
            return inner(*args)

        monkeypatch.setattr(coloring, name, counted)

    def color(G):
        calls.append(Counter())
        col = three_color(G, SearchBudget(10**9))
        assert verify_coloring(G, col)
        return col

    count("combine_p3")
    count("_exchange")
    return calls, color


def test_three_color_goes_through_combine_p3(counted_color):
    # No merge needs combine_p3's Kempe exchange: after the palette
    # permutation every side already gives the path's far end one color.
    calls, color = counted_color
    assert coloring_digest(p3_member_graphs(), color) == (
        "0a4da906dc8751c2c8240b0bb1d27d76287f28374d66dfdec6993257a3ff0fcb"
    )
    assert calls[0] == {"combine_p3": 3}
    assert sum(calls, Counter()) == {"combine_p3": 117}
    assert sum(1 for c in calls if c) == 65
