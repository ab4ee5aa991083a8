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
graph lands in the class by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .errors import ContractViolation, SearchBudgetExceeded
from .graph import Graph, HARD_MAX_VERTICES, iter_bits
from .structure import SearchBudget, enumerate_induced_paths, find_long_odd_hole

EXHAUSTIVE_MAX_N = 10

# Step allowance for a single edge-legality probe in the random grower.
# Sliced off the caller's budget so one pathological probe cannot starve
# the rest of the stream.
_PROBE_STEPS = 20_000


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


def _ball3(adj: list[int], u: int) -> int:
    """Vertices within distance three of u, as a mask."""
    # Kept apart from graph.bfs: it runs on the enumerator's mutable rows,
    # once per candidate edge in its innermost loop, and stops at depth 3.
    m = 1 << u | adj[u]
    for _ in range(2):
        grow = 0
        for w in iter_bits(m):
            grow |= adj[w]
        m |= grow
    return m


def _far_apart(adj: list[int], u: int, v: int) -> bool:
    """True iff dist(u, v) >= 4, so the edge uv closes no cycle below 5."""
    return not _ball3(adj, u) >> v & 1


def enumerate_girth5(n: int) -> Iterator[Graph]:
    """Stream every labeled girth-at-least-five graph on n vertices, each
    exactly once.

    Depth-first over the candidate edges in lexicographic order, exclude
    branch first, so the stream is deterministic and starts at the empty
    graph. Iterative stack walk, so the per-graph overhead stays flat.
    """
    if n < 0:
        raise ContractViolation("vertex count must be nonnegative")
    cand = [(u, v) for u in range(n) for v in range(u + 1, n)]
    m = len(cand)
    adj = [0] * n
    if m == 0:
        yield Graph(n, tuple(adj))
        return
    # Frame modes: 0 = first visit (exclude branch), 1 = include branch,
    # 2 = undo the include on unwind.
    stack = [(0, 0)]
    while stack:
        i, mode = stack.pop()
        if mode == 2:
            u, v = cand[i]
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
            continue
        if mode == 0:
            stack.append((i, 1))
            if i + 1 == m:
                yield Graph(n, tuple(adj))
            else:
                stack.append((i + 1, 0))
            continue
        u, v = cand[i]
        if _far_apart(adj, u, v):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            stack.append((i, 2))
            if i + 1 == m:
                yield Graph(n, tuple(adj))
            else:
                stack.append((i + 1, 0))


def random_pentagraph(
    n: int,
    rng: random.Random,
    edge_probability: float = 1.0,
    budget: SearchBudget | None = None,
) -> Graph:
    """Grow one random member on n vertices by seeded edge insertion.

    Candidate pairs are shuffled once, then each is kept when the coin
    allows, the ends are at distance at least four, and no induced even
    path of length at least six joins the ends. A probe that runs out of
    steps skips its edge: the result stays in the class, it just may be
    sparser than the coin intended.
    """
    if budget is None:
        budget = SearchBudget.fresh()
    adj = [0] * n
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    full = (1 << n) - 1
    for u, v in pairs:
        if edge_probability < 1.0 and rng.random() >= edge_probability:
            continue
        if not _far_apart(adj, u, v):
            continue
        G = Graph(n, tuple(adj))
        probe = SearchBudget(min(_PROBE_STEPS, max(budget.remaining, 1)))
        before = probe.remaining
        try:
            closes_long_hole = bool(
                enumerate_induced_paths(
                    G,
                    u,
                    v,
                    full & ~(1 << u) & ~(1 << v),
                    parity="even",
                    min_len=6,
                    limit=1,
                    budget=probe,
                )
            )
        except SearchBudgetExceeded:
            budget.spend(before)
            continue
        budget.spend(before - probe.remaining)
        if closes_long_hole:
            continue
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
