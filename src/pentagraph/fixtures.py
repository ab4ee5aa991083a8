"""Named reference graphs.

All ids are zero-based. The classical drawings of these graphs number
vertices from one; id k here corresponds to label k+1 there.

Each named graph is built once, on first use, and every later call returns
that same Graph: graphs are immutable, and the library asks for these per
input graph. ``cycle(n)`` builds a new graph on every call.
"""

from __future__ import annotations

from functools import cache

from .errors import ContractViolation
from .graph import Graph, make_graph


def cycle(n: int) -> Graph:
    """The cycle 0-1-...-(n-1)-0; needs n >= 3."""
    if n < 3:
        raise ContractViolation("cycles need at least three vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


@cache
def petersen() -> Graph:
    """The Petersen graph: outer pentagon 0..4, spokes i-(i+5), inner
    pentagram on 5..9 stepping by two."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, edges)


@cache
def petersen_minus_edge() -> Graph:
    """Ten vertices: an 8-cycle 0..7 with chords 1-5 and 3-7, plus vertex 8
    adjacent to 0 and 4, and vertex 9 adjacent to 2 and 6. Isomorphic to
    the Petersen graph with one edge removed."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(1, 5), (3, 7), (8, 0), (8, 4), (9, 2), (9, 6)]
    return make_graph(10, edges)


@cache
def petersen_minus_vertex() -> Graph:
    """Nine vertices: a hexagon 0..5 plus vertices 6, 7, 8 adjacent to the
    three opposite pairs {0,3}, {1,4}, {2,5}. Isomorphic to the Petersen
    graph with one vertex removed."""
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges += [(6, 0), (6, 3), (7, 1), (7, 4), (8, 2), (8, 5)]
    return make_graph(9, edges)


@cache
def petersen_minus_two() -> Graph:
    """Eight vertices: an 8-cycle 0..7 with chords 1-5 and 3-7. Isomorphic
    to the Petersen graph with two adjacent vertices removed."""
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(1, 5), (3, 7)]
    return make_graph(8, edges)


_FIXTURES = {
    "petersen": petersen,
    "p0": petersen_minus_edge,
    "p1": petersen_minus_vertex,
    "p2": petersen_minus_two,
    "c5": cache(lambda: cycle(5)),
    "c7": cache(lambda: cycle(7)),
}

FIXTURE_NAMES = tuple(sorted(_FIXTURES))


def fixture(name: str) -> Graph:
    """Look up a named reference graph; unknown names are an error."""
    try:
        build = _FIXTURES[name]
    except KeyError:
        known = ", ".join(FIXTURE_NAMES)
        raise ContractViolation(f"unknown fixture {name!r} (known: {known})") from None
    return build()
