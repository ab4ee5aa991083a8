"""Write members.g6, the fixed input of the member-cli workload.

    python3 perfbench/make_members.py            # rewrites perfbench/members.g6

The file is committed and the benchmark only reads it, so a change to the
program's random grower cannot change what member-cli measures. It holds:

* GROWN members grown by `generate_corpus` in random mode with 25 to 40
  vertices, seed GROWN_SEED;
* BLOCK members made by gluing copies of the blocks petersen, p0, p1 and p2
  (random generator seeded with BLOCK_SEED): each new block is attached at a
  shared vertex, along a shared edge, or by a new bridge edge, until the
  graph reaches its target size (20 to 110 vertices); the vertices are then
  relabeled at random.

Every odd hole of a glued graph lies inside one block, because the blocks
meet in a clique (a vertex or an edge) or not at all, and every block is in
the class, so the glued graphs are members by construction. The script
still checks each graph with `recognize` and with the benchmark's own girth
check before writing it.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from pentagraph import (  # noqa: E402
    PENTAGRAPH,
    CorpusSpec,
    SearchBudget,
    fixture,
    generate_corpus,
    make_graph,
    recognize,
    write_graph6,
)

GROWN = 64
GROWN_SEED = 4242
BLOCKS = ("petersen", "p0", "p1", "p2")
BLOCK_MEMBERS = 64
BLOCK_SEED = 2022
N_MIN, N_MAX = 20, 110


def glued(rng: random.Random, target: int):
    """Glue random blocks together until the graph has at least `target` vertices."""
    first = fixture(rng.choice(BLOCKS))
    n, edges = first.n, set(first.edges())
    while n < target:
        block = fixture(rng.choice(BLOCKS))
        block_edges = block.edges()
        how = rng.choice(("vertex", "edge", "bridge"))
        image = {}
        if how == "vertex":
            image[rng.randrange(block.n)] = rng.randrange(n)
        elif how == "edge":
            a, b = rng.choice(block_edges)
            c, d = rng.choice(sorted(edges))
            image[a], image[b] = (c, d) if rng.random() < 0.5 else (d, c)
        fresh = n
        for v in range(block.n):
            if v not in image:
                image[v] = fresh
                fresh += 1
        edges |= {(min(image[a], image[b]), max(image[a], image[b])) for a, b in block_edges}
        if how == "bridge":
            edges.add((rng.randrange(n), rng.randrange(n, fresh)))
        n = fresh
    label = list(range(n))
    rng.shuffle(label)
    return make_graph(n, [(label[a], label[b]) for a, b in edges], max_n=128)


def members():
    spec = CorpusSpec(mode="random", n_min=25, n_max=40, seed=GROWN_SEED, target_count=GROWN)
    yield from generate_corpus(spec, SearchBudget(10**9))
    rng = random.Random(BLOCK_SEED)
    for i in range(BLOCK_MEMBERS):
        yield glued(rng, N_MIN + (N_MAX - N_MIN) * i // (BLOCK_MEMBERS - 1))


def main() -> int:
    lines = [f"# member-cli input: written by perfbench/make_members.py "
             f"({GROWN} grown with seed {GROWN_SEED}, {BLOCK_MEMBERS} glued with seed {BLOCK_SEED})"]
    for G in members():
        reason = checks.girth_at_least_5(G.n, G.adj)
        verdict = recognize(G, SearchBudget(10**9)).verdict
        if reason is not None or verdict != PENTAGRAPH:
            raise SystemExit(f"not a member ({reason or verdict}): {write_graph6(G)}")
        lines.append(write_graph6(G))
    (HERE / "members.g6").write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines) - 1} graphs to {HERE / 'members.g6'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
