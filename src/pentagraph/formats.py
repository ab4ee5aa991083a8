"""Graph serialization: graph6, DIMACS edge format, JSON, and DOT output.

Parsers raise ParseError with a byte offset into the input; they never
return a partially filled graph.
"""

from __future__ import annotations

import json
import math
import re

from .errors import ContractViolation, GraphConstructionError, ParseError
from .graph import HARD_MAX_VERTICES, Graph, make_graph

_G6_HEADER = ">>graph6<<"
_G6_INVALID = re.compile("[^?-~]")
# Each graph6 character '?'..'~' carries six bits, most significant first.
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}


def _g6_char(value: int) -> str:
    return chr(value + 63)


def _g6_val(ch: str, offset: int) -> int:
    v = ord(ch) - 63
    if not 0 <= v <= 63:
        raise ParseError(f"invalid graph6 character {ch!r}", offset)
    return v


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line (optional >>graph6<< prefix allowed)."""
    line = text.rstrip("\r\n")
    base = 0
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER) :]
        base = len(_G6_HEADER)
    if not line:
        raise ParseError("empty graph6 input", base)
    n, pos = _parse_g6_order(line, base)
    nbits = n * (n - 1) // 2
    nchars = (nbits + 5) // 6
    body = line[pos:]
    if len(body) < nchars:
        raise ParseError(
            f"graph6 body too short: need {nchars} characters for n={n}", base + len(line)
        )
    if len(body) > nchars:
        raise ParseError("trailing characters after graph6 body", base + pos + nchars)
    bad = _G6_INVALID.search(body)
    if bad:
        raise ParseError(f"invalid graph6 character {bad.group()!r}", base + pos + bad.start())
    bits = body.translate(_G6_BITS)
    # Padding bits live only in the last character.
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits", base + pos + nchars - 1)
    # Bits run over the upper triangle column by column, as write_graph6
    # emits them: bit k is pair (i, j) with k = j(j-1)/2 + i.
    edges = []
    k = bits.find("1")
    while k >= 0:
        j = (1 + math.isqrt(8 * k + 1)) // 2
        edges.append((k - j * (j - 1) // 2, j))
        k = bits.find("1", k + 1)
    try:
        # Parsers accept anything up to the hard cap; the default cap only
        # guards graphs built programmatically.
        return make_graph(n, edges, max_n=HARD_MAX_VERTICES)
    except GraphConstructionError as exc:
        raise ParseError(str(exc), base) from exc


def _parse_g6_order(line: str, base: int) -> tuple[int, int]:
    """Vertex count and the index where the edge bits begin."""
    v = _g6_val(line[0], base)
    if v < 63:
        return v, 1
    # '~' introduces an 18-bit count in the next three characters.
    if len(line) < 4:
        raise ParseError("truncated graph6 vertex count", base + len(line))
    if line[1] == "~":
        raise ParseError("graph6 vertex counts above 258047 are not supported", base + 1)
    n = 0
    for k in range(1, 4):
        n = n << 6 | _g6_val(line[k], base + k)
    return n, 4


def write_graph6(G: Graph) -> str:
    """Canonical graph6 line for G (no trailing newline)."""
    n = G.n
    if n <= 62:
        head = _g6_char(n)
    else:
        head = "~" + "".join(_g6_char(n >> s & 63) for s in (12, 6, 0))
    # Column j lists pairs (0, j) .. (j - 1, j): row j's low bits, lowest first.
    bits = "".join(format(G.adj[j] & ((1 << j) - 1), f"0{j}b")[::-1] for j in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(_g6_char(int(bits[k : k + 6], 2)) for k in range(0, len(bits), 6))


def parse_dimacs(text: str) -> Graph:
    """DIMACS edge format: one "p edge n m" header, then "e u v" lines
    with 1-based endpoints. Comments ("c ...") and blank lines pass;
    duplicate edges collapse silently."""
    n = None
    edges = []
    offset = 0
    for raw in text.splitlines(keepends=True):
        line = raw.strip()
        if not line or line.startswith("c"):
            offset += len(raw)
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate problem line", offset)
            if len(fields) != 4 or fields[1] != "edge":
                raise ParseError("malformed problem line, expected 'p edge n m'", offset)
            n = _dimacs_int(fields[2], offset)
            _dimacs_int(fields[3], offset)  # m is advisory: duplicates collapse
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge line before problem line", offset)
            if len(fields) != 3:
                raise ParseError("malformed edge line, expected 'e u v'", offset)
            u = _dimacs_int(fields[1], offset)
            v = _dimacs_int(fields[2], offset)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"edge endpoint out of range 1..{n}", offset)
            edges.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown line type {fields[0]!r}", offset)
        offset += len(raw)
    if n is None:
        raise ParseError("missing problem line", 0)
    try:
        return make_graph(n, edges, max_n=HARD_MAX_VERTICES)
    except GraphConstructionError as exc:
        raise ParseError(str(exc), 0) from exc


def _dimacs_int(token: str, offset: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"expected an integer, got {token!r}", offset) from None


def write_dimacs(G: Graph) -> str:
    lines = [f"p edge {G.n} {G.edge_count()}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def parse_json_graph(text: str) -> Graph:
    """JSON schema: {"n": int, "edges": [[u, v], ...]} with 0-based ids."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", 0) from None
    except ValueError:
        # Only an integer past Python's int-conversion digit limit gets here.
        raise ParseError("invalid JSON: integer has too many digits", 0) from None
    if not isinstance(data, dict):
        raise ParseError("expected a JSON object with 'n' and 'edges'", 0)
    n = data.get("n")
    edges = data.get("edges")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("'n' must be an integer", 0)
    if not isinstance(edges, list):
        raise ParseError("'edges' must be a list of pairs", 0)
    pairs = []
    for item in edges:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise ParseError(f"bad edge entry {item!r}", 0)
        pairs.append((item[0], item[1]))
    try:
        return make_graph(n, pairs, max_n=HARD_MAX_VERTICES)
    except GraphConstructionError as exc:
        raise ParseError(str(exc), 0) from exc


def write_json_graph(G: Graph) -> str:
    return json.dumps({"n": G.n, "edges": [[u, v] for u, v in G.edges()]})


_DOT_PALETTE = {1: "#4f9dd0", 2: "#e6a23c", 3: "#7cb66b", 4: "#c96a6a"}


def write_dot(G: Graph, colors: tuple[int, ...] | None = None) -> str:
    """DOT output for human inspection; optional vertex colors 1..4, one
    per vertex."""
    if colors is not None and len(colors) != G.n:
        raise ContractViolation("the colors must give one entry per vertex")
    lines = ["graph {"]
    for v in range(G.n):
        if colors is not None:
            fill = _DOT_PALETTE.get(colors[v], "#cccccc")
            lines.append(f'  {v} [style=filled, fillcolor="{fill}"];')
        else:
            lines.append(f"  {v};")
    for u, v in G.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
