"""Corpus generation: exhaustive labeled enumeration at small n and seeded
random growth at larger n.

The exhaustive enumerator walks edge subsets directly. Keeping girth at
least five is a downward-closed property, so a depth-first walk over the
candidate edges in lexicographic order, adding an edge only while its ends
sit at distance at least four, visits every qualifying labeled graph
exactly once. No isomorphism dedup is attempted; labeled duplicates are
harmless for property testing.

The random grower inserts edges one at a time under the same distance rule
plus a rejection of any new induced even path of length at least six
between the ends, which is exactly what would close an induced odd cycle
of length at least seven. Every cycle a new edge creates passes through
that edge, so the invariant is maintained incrementally and every emitted
graph lands in the class by construction. The legality probes are exact
and draw on the caller's step budget alone: a stream whose budget runs
dry stops early and says so (``CorpusStream.truncated``) rather than emit
a graph with a legal edge left out.

Parity settles many probes without a search: ends in different
components are joined by no path, and ends on opposite sides of a
bipartite component only by odd ones, so neither pair needs a probe.
The other probes look for the shortest possible witness first, a path of
six edges, and only when there is none does the unbounded search run, so
every answer is the one the unbounded search alone would give.

The six-edge test is mask algebra, not a search. It rests on a lemma: if
G has girth at least five and dist(u, v) >= 4, every u-v walk of six
edges that never turns straight back is an induced path. A repeated
vertex would close a non-backtracking walk of at most four edges, a
triangle or a 4-cycle, or would put u and v within distance one. A chord
spanning two or three steps of the walk closes a triangle or a 4-cycle,
and one spanning four or more shortens it to a u-v walk of at most three
edges. The grower's graph has girth at least five by construction and
the distance is checked first, so a six-edge witness exists exactly when
some middle vertex c off N[u] and N[v] has neighbours a at distance two
from u and b at distance two from v with a != b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import ContractViolation, SearchBudgetExceeded
from .graph import Graph, HARD_MAX_VERTICES
from .structure import SearchBudget, enumerate_induced_paths, find_long_odd_hole

EXHAUSTIVE_MAX_N = 10


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters for one corpus run.

    ``edge_probability`` is the chance that a legal candidate edge is kept
    (random mode only); 1.0 grows to saturation. ``target_count`` bounds
    the stream length; exhaustive mode treats None as "everything in
    range".
    """

    mode: str
    n_min: int
    n_max: int
    seed: int = 0
    target_count: int | None = None
    edge_probability: float = 1.0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "random"):
            raise ContractViolation(f"unknown corpus mode {self.mode!r}")
        for name in ("n_min", "n_max", "seed", "target_count"):
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name == "target_count"):
                raise ContractViolation(f"{name} must be an integer, not {value!r}")
        if not 0 <= self.n_min <= self.n_max:
            raise ContractViolation("need 0 <= n_min <= n_max")
        if self.n_max > HARD_MAX_VERTICES:
            raise ContractViolation(f"n_max {self.n_max} exceeds cap {HARD_MAX_VERTICES}")
        if self.mode == "exhaustive" and self.n_max > EXHAUSTIVE_MAX_N:
            raise ContractViolation(
                f"exhaustive mode is budgeted for n_max <= {EXHAUSTIVE_MAX_N}"
            )
        if self.mode == "random" and self.target_count is None:
            raise ContractViolation("random mode needs a target_count")
        if self.target_count is not None and self.target_count < 0:
            raise ContractViolation("target_count must be nonnegative")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ContractViolation("edge_probability must lie in [0, 1]")
        if not 0 <= self.seed < 1 << 64:
            raise ContractViolation("seed must fit in 64 bits")


def _far_apart(adj: list[int], u: int, v: int) -> int:
    """The radius-2 ball around u as a mask when dist(u, v) >= 4, so the
    edge uv closes no cycle below 5, and 0 otherwise; the ball holds u, so
    the answer is true exactly when the ends are far apart."""
    # Kept apart from graph.bfs and components_within: it runs on the
    # enumerator's and the grower's mutable rows, not a Graph, once per
    # candidate edge in their innermost loops. dist(u, v) <= 3 exactly when
    # the radius-2 ball around u meets N[v], so one expansion, over N(u),
    # is enough; the grower's six-edge test reuses it.
    ball = 1 << u | adj[u]
    rest = adj[u]
    while rest:
        low = rest & -rest
        rest ^= low
        ball |= adj[low.bit_length() - 1]
    return 0 if ball & (1 << v | adj[v]) else ball


def _reach(adj: list[int], mask: int) -> int:
    """The union of N(x) over the vertices x of mask."""
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        out |= adj[low.bit_length() - 1]
    return out


def _six_edge_path(adj: list[int], u: int, v: int, ball: int) -> bool:
    """True iff an induced u-v path of exactly six edges exists, provided
    the graph has girth at least five, dist(u, v) >= 4 and ``ball`` is the
    radius-2 ball around u, as _far_apart returns it.

    Under the first two conditions every non-backtracking u-v walk of six
    edges is an induced path (see the module docstring), so a witness is
    a walk u, a', a, c, b, b', v with a at distance exactly two from u, b
    at distance exactly two from v, c outside N[u] and N[v], and a != b.
    A middle vertex c seen from both spheres gives such a walk unless the
    two spheres meet its neighbourhood in the same single vertex. When
    either condition fails the answer means nothing.
    """
    near = 1 << u | 1 << v | adj[u] | adj[v]
    s2u = ball & ~(1 << u | adj[u])
    s2v = _reach(adj, adj[v]) & ~(1 << v | adj[v])
    both = s2u | s2v
    mids = _reach(adj, s2u) & _reach(adj, s2v) & ~near
    while mids:
        low = mids & -mids
        mids ^= low
        ends = adj[low.bit_length() - 1] & both
        if ends & (ends - 1):
            return True
    return False


def enumerate_girth5(n: int) -> Iterator[Graph]:
    """Stream every labeled girth-at-least-five graph on n vertices, each
    exactly once.

    The order is that of a depth-first walk over the candidate edges in
    lexicographic order, exclude branch first, so the stream is
    deterministic and starts at the empty graph. Each graph is the
    successor of the one before: scanning down from the last candidate,
    drop every included edge met, and add the first excluded one whose
    ends are at distance at least four. The scan is a loop, not a
    recursion, whose depth would be the candidate count.
    """
    if not 0 <= n <= HARD_MAX_VERTICES:
        raise ContractViolation(f"vertex count {n} outside [0, {HARD_MAX_VERTICES}]")
    cand = [(u, v) for u in range(n) for v in range(u + 1, n)]
    adj = [0] * n
    included = []  # indices of the candidates in the graph, ascending
    yield Graph(n, tuple(adj))
    i = len(cand) - 1
    while i >= 0:
        u, v = cand[i]
        if included and included[-1] == i:
            included.pop()
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        elif _far_apart(adj, u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            included.append(i)
            yield Graph(n, tuple(adj))
            i = len(cand)
        i -= 1


def random_pentagraph(
    n: int,
    rng: random.Random,
    edge_probability: float = 1.0,
    budget: SearchBudget | None = None,
) -> Graph:
    """Grow one random member on n vertices by seeded edge insertion.

    Candidate pairs are shuffled once, then each is kept when the coin
    allows, the ends are at distance at least four, and no induced even
    path of length at least six joins the ends. The probe first asks for a
    path of exactly six edges, the shortest witness, and runs the unbounded
    search only when there is none, so it gives the unbounded search's
    answer. The first question is one mask test of one step,
    ``_six_edge_path``, exact here by the module's lemma: the graph keeps
    girth at least five, and the ends have just been found at distance at
    least four. Every probe is exact and charges ``budget``; running out
    raises SearchBudgetExceeded instead of skipping the edge, so with the
    coin at 1.0 the result is maximal under both rules.

    The probe is skipped when the ends lie in different components, where
    no path joins them and they are trivially far apart, or on opposite
    sides of a bipartite component, where every path between them is odd.
    Neither holds an even path, so the graph is the one that probing every
    far-apart pair gives, for fewer steps.
    """
    if not 0 <= n <= HARD_MAX_VERTICES:
        raise ContractViolation(f"vertex count {n} outside [0, {HARD_MAX_VERTICES}]")
    if not 0.0 <= edge_probability <= 1.0:
        raise ContractViolation("edge_probability must lie in [0, 1]")
    if budget is None:
        budget = SearchBudget.fresh()
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    full = (1 << n) - 1
    # The grown graph's components: a label and a 2-coloring side per
    # vertex, and per label whether the component is still bipartite.
    # Edges are only added, so a flag only turns off.
    comp = list(range(n))
    side = [0] * n
    bipartite = [True] * n
    for u, v in pairs:
        if edge_probability < 1.0 and rng.random() >= edge_probability:
            continue
        cu, cv = comp[u], comp[v]
        if cu == cv:
            ball = _far_apart(adj, u, v)
            if not ball:
                continue
            if not bipartite[cu] or side[u] == side[v]:
                budget.spend()
                if _six_edge_path(adj, u, v, ball):
                    continue
                rest = full & ~(1 << u) & ~(1 << v)
                if enumerate_induced_paths(
                    Graph(n, tuple(adj)), u, v, rest, parity="even", min_len=6, limit=1,
                    budget=budget,
                ):
                    continue
            bipartite[cu] = bipartite[cu] and side[u] != side[v]
        else:
            flip = side[u] == side[v]
            for w in range(n):
                if comp[w] == cv:
                    comp[w] = cu
                    side[w] ^= flip
            bipartite[cu] = bipartite[cu] and bipartite[cv]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


class CorpusStream:
    """Iterator over generated graphs with a truncation flag.

    ``truncated`` becomes True when the stream stopped early because the
    step budget ran dry; ``produced`` counts graphs handed out so far.
    """

    def __init__(self, inner: Iterator[Graph]):
        self._inner = inner
        self.truncated = False
        self.produced = 0

    def __iter__(self):
        return self

    def __next__(self) -> Graph:
        try:
            g = next(self._inner)
        except SearchBudgetExceeded:
            self.truncated = True
            raise StopIteration from None
        self.produced += 1
        return g


def generate_corpus(spec: CorpusSpec, budget: SearchBudget | None = None) -> CorpusStream:
    """Stream members of the class per ``spec``.

    Exhaustive mode walks every labeled girth-at-least-five graph with
    n_min <= n <= n_max and keeps those with no odd hole above five. Random
    mode emits ``target_count`` graphs grown by seeded edge insertion,
    sizes drawn uniformly from [n_min, n_max]. Fixed seeds give identical
    streams across runs.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    if spec.mode == "exhaustive":
        return CorpusStream(_exhaustive(spec, budget))
    return CorpusStream(_random(spec, budget))


def _exhaustive(spec: CorpusSpec, budget: SearchBudget) -> Iterator[Graph]:
    emitted = 0
    for n in range(spec.n_min, spec.n_max + 1):
        for G in enumerate_girth5(n):
            if spec.target_count is not None and emitted >= spec.target_count:
                return
            # The enumerator builds girth >= 5 only, so membership is the
            # absence of a long odd hole.
            if find_long_odd_hole(G, budget) is None:
                emitted += 1
                yield G


def _random(spec: CorpusSpec, budget: SearchBudget) -> Iterator[Graph]:
    rng = random.Random(spec.seed)
    for _ in range(spec.target_count):
        n = rng.randint(spec.n_min, spec.n_max)
        yield random_pentagraph(n, rng, spec.edge_probability, budget)
