import json

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pentagraph import (
    ContractViolation,
    ParseError,
    make_graph,
    parse_dimacs,
    parse_graph6,
    parse_json_graph,
    write_dimacs,
    write_dot,
    write_graph6,
    write_json_graph,
)
from pentagraph.fixtures import cycle, fixture, petersen
from pentagraph.graph import HARD_MAX_VERTICES

from conftest import make_rng
from test_graph import rand_graph, to_nx


def test_graph6_spec_examples():
    G = parse_graph6("D??")
    assert G.n == 5 and G.edge_count() == 0
    assert write_graph6(parse_graph6("DUW")) == "DUW"
    assert parse_graph6(write_graph6(cycle(5))) == cycle(5)


def test_graph6_c5_encoding():
    # Column-major upper triangle of the pentagon packs to "Dhc".
    assert write_graph6(cycle(5)) == "Dhc"
    assert parse_graph6("Dhc") == cycle(5)
    assert parse_graph6(">>graph6<<Dhc") == cycle(5)
    assert parse_graph6("Dhc\n") == cycle(5)


def test_graph6_matches_networkx():
    rng = make_rng("g6")
    graphs = [make_graph(0, []), make_graph(1, []), petersen(), fixture("p2")]
    graphs += [rand_graph(rng, rng.randrange(1, 20), 0.3) for _ in range(60)]
    for G in graphs:
        line = write_graph6(G)
        assert nx.to_graph6_bytes(to_nx(G), header=False).strip().decode() == line
        back = parse_graph6(line)
        assert back == G
        H = nx.from_graph6_bytes(line.encode())
        assert sorted(H.edges()) == G.edges()
        assert H.number_of_nodes() == G.n


def test_graph6_large_counts():
    for n in (63, 100, 128):
        G = make_graph(n, [(0, n - 1), (1, 2)], max_n=128)
        line = write_graph6(G)
        assert line.startswith("~")
        assert parse_graph6(line) == G
    with pytest.raises(ParseError):
        parse_graph6(write_graph6(make_graph(0, [])) .replace("?", "~~"))


def test_graph6_round_trips_every_order_up_to_128():
    # Seeded graphs of every order the parser accepts, sparse to dense,
    # across the switch to the four-character count at n = 63. Each line
    # parses back to its graph, and setting any padding bit of its last
    # character is refused at that character.
    rng = make_rng("g6-round-trip")
    for n in range(129):
        for p in (0.05, 0.5, 0.95):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            G = make_graph(n, [e for e in pairs if rng.random() < p], max_n=128)
            line = write_graph6(G)
            head = 1 if n <= 62 else 4
            assert (line[0] == "~") == (n >= 63)
            assert len(line) == head + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(line) == G
            assert parse_graph6(">>graph6<<" + line + "\n") == G
        pad = -(n * (n - 1) // 2) % 6
        for bit in range(pad):
            bad = line[:-1] + chr((ord(line[-1]) - 63 | 1 << bit) + 63)
            for prefix in ("", ">>graph6<<"):
                with pytest.raises(ParseError, match="nonzero padding bits") as err:
                    parse_graph6(prefix + bad)
                assert err.value.offset == len(prefix) + len(line) - 1


def test_graph6_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_graph6("")
    assert err.value.offset == 0
    with pytest.raises(ParseError) as err:
        parse_graph6(">>graph6<<")
    assert err.value.offset == 10
    with pytest.raises(ParseError) as err:
        parse_graph6("D?")  # body too short for n=5
    assert err.value.offset == 2
    with pytest.raises(ParseError) as err:
        parse_graph6("Dhc?")  # trailing junk
    assert err.value.offset == 3
    with pytest.raises(ParseError) as err:
        parse_graph6("A@")  # padding bit set
    assert err.value.offset == 1
    with pytest.raises(ParseError):
        parse_graph6("D h")  # space is not a graph6 character
    with pytest.raises(ParseError):
        parse_graph6("~?")  # truncated long count
    # 18-bit counts beyond the hard vertex cap parse but fail construction.
    too_big = "~" + "".join(chr(63 + (129 >> s & 63)) for s in (12, 6, 0))
    with pytest.raises(ParseError):
        parse_graph6(too_big + "?" * 2000)


def test_inputs_above_the_vertex_cap_are_parse_errors():
    # A complete 129-vertex graph6 line and a 129-vertex DIMACS header pass
    # every syntax check and fail construction; a second '~' asks for a
    # 36-bit count, which is refused at that character.
    n = HARD_MAX_VERTICES + 1
    line = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    line += "?" * ((n * (n - 1) // 2 + 5) // 6)
    for parse, text, offset in [
        (parse_graph6, line, 0),
        (parse_graph6, ">>graph6<<" + line, 10),
        (parse_dimacs, f"p edge {n} 0\n", 0),
    ]:
        with pytest.raises(ParseError, match=f"vertex count {n}") as err:
            parse(text)
        assert err.value.offset == offset
    with pytest.raises(ParseError, match="above 258047") as err:
        parse_graph6("~~??????" + "?" * 10)
    assert err.value.offset == 1


def test_dimacs_round_trip():
    text = write_dimacs(cycle(5))
    assert text.splitlines()[0] == "p edge 5 5"
    assert parse_dimacs(text) == cycle(5)
    rng = make_rng("dimacs")
    for _ in range(40):
        G = rand_graph(rng, rng.randrange(1, 15), 0.3)
        assert parse_dimacs(write_dimacs(G)) == G


def test_dimacs_pentagon_example():
    text = """c pentagon
p edge 5 5
e 1 2
e 2 3
e 3 4
e 4 5
e 5 1
"""
    assert parse_dimacs(text) == cycle(5)
    # Duplicates collapse silently.
    assert parse_dimacs(text + "e 1 2\n") == cycle(5)


def test_dimacs_errors():
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 0 1\n")  # endpoints are 1-based
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1 3\n")
    with pytest.raises(ParseError):
        parse_dimacs("e 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\np edge 2 1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge two 1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\nq 1 2\n")
    with pytest.raises(ParseError):
        parse_dimacs("p edge 2 1\ne 1\n")
    err = None
    try:
        parse_dimacs("c lead\np edge 2 1\ne 9 1\n")
    except ParseError as exc:
        err = exc
    assert err is not None and err.offset == len("c lead\np edge 2 1\n")


def test_json_round_trip():
    rng = make_rng("json")
    for _ in range(40):
        G = rand_graph(rng, rng.randrange(0, 15), 0.3)
        assert parse_json_graph(write_json_graph(G)) == G
    data = json.loads(write_json_graph(cycle(5)))
    assert data == {"n": 5, "edges": [[0, 1], [0, 4], [1, 2], [2, 3], [3, 4]]}


def test_json_errors():
    with pytest.raises(ParseError):
        parse_json_graph("{")
    with pytest.raises(ParseError):
        parse_json_graph("[1, 2]")
    with pytest.raises(ParseError):
        parse_json_graph('{"n": true, "edges": []}')
    with pytest.raises(ParseError):
        parse_json_graph('{"n": 3, "edges": [[0, 1, 2]]}')
    with pytest.raises(ParseError):
        parse_json_graph('{"n": 3, "edges": [[0, "1"]]}')
    with pytest.raises(ParseError):
        parse_json_graph('{"n": 3, "edges": 7}')
    with pytest.raises(ParseError):
        parse_json_graph('{"n": 3, "edges": [[0, 5]]}')


def test_json_deep_nesting_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_json_graph("[" * 100_000)


def test_json_overlong_integer_is_a_parse_error():
    digits = "1" * 5000
    with pytest.raises(ParseError, match="too many digits"):
        parse_json_graph(f'{{"n": {digits}, "edges": []}}')
    with pytest.raises(ParseError, match="too many digits"):
        parse_json_graph(f'{{"n": 3, "edges": [[0, {digits}]]}}')


@st.composite
def graphs(draw):
    n = draw(st.integers(0, HARD_MAX_VERTICES))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                          max_size=3 * n if n > 1 else 0))
    return make_graph(n, edges, max_n=HARD_MAX_VERTICES)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_formats_round_trip(G):
    assert parse_graph6(write_graph6(G)) == G
    assert parse_dimacs(write_dimacs(G)) == G
    assert parse_json_graph(write_json_graph(G)) == G


def json_texts():
    # Well-formed JSON shaped like, or almost like, the graph schema,
    # plus arbitrary text.
    scalar = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    value = st.recursive(
        scalar, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
            st.text(max_size=4), inner, max_size=4), max_leaves=12)
    schema = st.fixed_dictionaries({"n": st.integers(-2, 140) | value,
                                    "edges": st.lists(st.lists(st.integers(-2, 140)))
                                    | value})
    return st.text() | (value | schema).map(json.dumps)


def dimacs_texts():
    line = st.lists(st.sampled_from(["p", "e", "c", "edge", "0", "1", "2", "-1", "200",
                                     "x"]), max_size=5).map(" ".join)
    return st.text() | st.lists(line, max_size=8).map("\n".join)


@settings(max_examples=150, deadline=None)
@given(st.text() | st.text(alphabet="?@_~DHchw>graph6<\r\n", max_size=30), dimacs_texts(),
       json_texts())
def test_parsers_raise_only_parse_error(g6, dimacs, js):
    for parse, text in ((parse_graph6, g6), (parse_dimacs, dimacs), (parse_json_graph, js)):
        try:
            parse(text)
        except ParseError:
            pass


def test_dot_output():
    out = write_dot(make_graph(3, [(0, 1), (1, 2)]))
    assert out == "graph {\n  0;\n  1;\n  2;\n  0 -- 1;\n  1 -- 2;\n}\n"
    colored = write_dot(make_graph(2, [(0, 1)]), colors=(1, 4))
    assert 'fillcolor="#4f9dd0"' in colored and 'fillcolor="#c96a6a"' in colored
    assert "0 -- 1;" in colored


def test_dot_output_wants_one_color_per_vertex():
    G = cycle(5)
    assert write_dot(G, colors=(1, 2, 1, 2, 3)).count("fillcolor") == 5
    for length in (0, G.n - 1, G.n + 1, G.n + 5):
        with pytest.raises(ContractViolation):
            write_dot(G, colors=(1,) * length)
