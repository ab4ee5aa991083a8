"""Output checks that do not trust the code under test.

Every check reads raw adjacency bitmasks (``n`` and ``adj``, a list of ints
with bit v of adj[u] set when u and v are adjacent) or the JSON a command
printed, and recomputes what it needs with its own short loops. None of them
calls into pentagraph. Each returns None when the output is right and a
one-line reason when it is not, so a workload can count and report every
wrong answer instead of stopping at the first.
"""

from __future__ import annotations

import json


def edges(n: int, adj) -> list[tuple[int, int]]:
    out = []
    for u in range(n):
        rest = adj[u] >> (u + 1)
        v = u + 1
        while rest:
            if rest & 1:
                out.append((u, v))
            rest >>= 1
            v += 1
    return out


def proper_coloring(n: int, adj, colors, k: int) -> str | None:
    """colors is a total map into 1..k with the two ends of every edge apart."""
    if len(colors) != n:
        return f"coloring has {len(colors)} entries for {n} vertices"
    for v, c in enumerate(colors):
        if not (isinstance(c, int) and 1 <= c <= k):
            return f"vertex {v} has color {c!r}, outside 1..{k}"
    for u, v in edges(n, adj):
        if colors[u] == colors[v]:
            return f"edge {u}-{v} has both ends colored {colors[u]}"
    return None


def girth_at_least_5(n: int, adj) -> str | None:
    """No two vertices share two neighbours and no adjacent pair shares one."""
    for u in range(n):
        for v in range(u + 1, n):
            common = (adj[u] & adj[v]).bit_count()
            if common > 1:
                return f"vertices {u} and {v} share {common} neighbours (a 4-cycle)"
            if common and adj[u] >> v & 1:
                return f"edge {u}-{v} lies on a triangle"
    return None


def is_seven_cycle(n: int, adj) -> bool:
    """The graph is a single cycle through all of its seven vertices."""
    if n != 7 or any(a.bit_count() != 2 for a in adj):
        return False
    seen = frontier = 1
    while frontier:
        grow = 0
        for v in range(n):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def cycle_witness(n: int, adj, witness, length: int) -> str | None:
    """witness lists `length` distinct vertices, cyclically consecutive ones adjacent."""
    if witness is None or len(witness) != length:
        return f"witness {witness!r} is not a cycle of length {length}"
    if len(set(witness)) != length or not all(0 <= v < n for v in witness):
        return f"witness {witness!r} repeats a vertex or leaves the graph"
    for i, v in enumerate(witness):
        w = witness[(i + 1) % length]
        if not adj[v] >> w & 1:
            return f"witness {witness!r} misses the edge {v}-{w}"
    return None


def two_coloring(n: int, adj, colors) -> str | None:
    """A bipartite certificate: a proper coloring with colors 1 and 2."""
    return proper_coloring(n, adj, colors, 2)


def low_degree_vertex(n: int, adj, v) -> str | None:
    if not (isinstance(v, int) and 0 <= v < n):
        return f"low-degree certificate names {v!r}, not a vertex"
    if adj[v].bit_count() > 2:
        return f"low-degree certificate names vertex {v} of degree {adj[v].bit_count()}"
    return None


def is_bipartite(n: int, adj) -> bool:
    side = [-1] * n
    for s in range(n):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            u = stack.pop()
            rest = adj[u]
            v = 0
            while rest:
                if rest & 1:
                    if side[v] < 0:
                        side[v] = side[u] ^ 1
                        stack.append(v)
                    elif side[v] == side[u]:
                        return False
                rest >>= 1
                v += 1
    return True


def decode_graph6(line: str) -> tuple[int, list[int]]:
    """(n, adj) from one graph6 line; the upper triangle is read column by column."""
    data = [ord(ch) - 63 for ch in line.strip()]
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        n, body = data[1] << 12 | data[2] << 6 | data[3], data[4:]
    bits = [b >> shift & 1 for b in body for shift in range(5, -1, -1)]
    adj = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            k += 1
    return n, adj


def _report(code: int, text: str, command: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"{command} exited with {code}"
    try:
        report = json.loads(text)
    except ValueError:
        return None, f"{command} printed no JSON report"
    return report, None


def color3_report(code: int, text: str, n: int, adj) -> str | None:
    """`penta color3` exits 0 with a verified proper 3-coloring of this graph."""
    report, err = _report(code, text, "color3")
    if err:
        return err
    outcome = report.get("outcome", {})
    coloring = outcome.get("coloring") or {}
    if outcome.get("verified") is not True or coloring.get("k") != 3:
        return f"color3 reported {outcome!r}, not a verified 3-coloring"
    return proper_coloring(n, adj, coloring.get("colors") or [], 3)


def verify_report(code: int, text: str, which: str, total: int) -> str | None:
    """`penta verify` exits 0 with every graph passed, none failed and none
    indeterminate. `passed` alone is not enough: the command counts an
    indeterminate graph as passed."""
    report, err = _report(code, text, f"verify {which}")
    if err:
        return err
    o = report.get("outcome", {})
    want = {"which": which, "total": total, "passed": total, "failed": 0, "indeterminate": 0}
    got = {key: o.get(key) for key in want}
    if got != want:
        return f"verify {which} reported {got!r}, expected {want!r}"
    return None
