"""End-to-end command-line tests, in-process via main(argv).

Exit code contract: 0 in the class or success, 1 not in the class or a
counterexample, 2 indeterminate under the budget, 3 usage/parse/file
errors."""

import io
import json
import sys

import pytest

from pentagraph import (
    Coloring,
    NoDecompositionFound,
    SearchBudgetExceeded,
    cli,
    make_graph,
    verify_coloring,
)
from pentagraph.cli import main
from pentagraph.fixtures import fixture, petersen
from pentagraph.formats import parse_graph6, write_graph6

from test_decomposition import glue_petersens_at_vertex


def run(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    rep = json.loads(out)
    assert set(rep) == {"budget", "command", "input", "outcome", "timing"}
    return rep


def k4_line():
    return write_graph6(make_graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))


def test_recognize_exit_codes(capsys):
    code, out, _ = run(["recognize", "fixture:c5"], capsys)
    rep = report(out)
    assert code == 0
    assert rep["outcome"]["verdict"] == "pentagraph"
    assert rep["outcome"]["girth"] == 5
    assert rep["budget"]["exhausted"] is False

    code, out, _ = run(["recognize", "fixture:c7"], capsys)
    rep = report(out)
    assert code == 1
    assert rep["outcome"]["verdict"] == "not_pentagraph"
    assert rep["outcome"]["witness"] == list(range(7))

    code, out, _ = run(["recognize", "fixture:petersen", "--max-steps", "1"], capsys)
    rep = report(out)
    assert code == 2
    assert rep["outcome"]["verdict"] == "indeterminate"
    assert rep["budget"] == {"max_steps": 1, "exhausted": True}


def test_report_byte_stable(capsys):
    code, first, _ = run(["recognize", "fixture:petersen"], capsys)
    assert code == 0
    code, second, _ = run(["recognize", "fixture:petersen"], capsys)
    assert code == 0
    a, b = json.loads(first), json.loads(second)
    del a["timing"], b["timing"]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_stdin_and_formats(capsys, monkeypatch):
    c5_edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    g6 = write_graph6(fixture("c5")) + "\n"
    code, out, _ = run(["recognize", "-"], capsys, monkeypatch, stdin=g6)
    assert code == 0 and report(out)["outcome"]["verdict"] == "pentagraph"

    code, out, _ = run(
        ["recognize", "-", "--format", "json"], capsys, monkeypatch,
        stdin=json.dumps({"n": 5, "edges": [list(e) for e in c5_edges]}),
    )
    assert code == 0 and report(out)["outcome"]["verdict"] == "pentagraph"

    dimacs = "p edge 5 5\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in c5_edges)
    code, out, _ = run(["recognize", "-", "--format", "dimacs"], capsys, monkeypatch,
                       stdin=dimacs)
    assert code == 0 and report(out)["outcome"]["verdict"] == "pentagraph"


def test_color_commands(capsys, monkeypatch):
    code, out, _ = run(["color3", "fixture:petersen"], capsys)
    rep = report(out)
    assert code == 0 and rep["outcome"]["verified"] is True
    col = rep["outcome"]["coloring"]
    assert col["k"] == 3
    assert verify_coloring(petersen(), Coloring(3, tuple(col["colors"])))

    code, out, _ = run(["color4", "fixture:c5"], capsys)
    rep = report(out)
    assert code == 0
    assert rep["outcome"]["coloring"] == {"k": 4, "colors": [1, 3, 1, 2, 3]}

    # Off-class input is refused with the recognition evidence attached.
    code, out, _ = run(["color3", "fixture:c7"], capsys)
    rep = report(out)
    assert code == 1 and rep["outcome"]["refused"] is True
    assert rep["outcome"]["recognition"]["verdict"] == "not_pentagraph"

    # Budget too small to even recognize: indeterminate, not a wrong answer.
    g6 = write_graph6(glue_petersens_at_vertex()) + "\n"
    code, out, _ = run(["color3", "-", "--max-steps", "300"], capsys, monkeypatch,
                       stdin=g6)
    rep = report(out)
    assert code == 2 and rep["outcome"]["refused"] is True
    assert rep["budget"]["exhausted"] is True


def test_color3_library_failure_is_internal_error(capsys, monkeypatch):
    # A recognized member that the colorer cannot decompose is a library
    # fault, not an exhausted budget.
    def no_decomposition(G, budget=None):
        raise NoDecompositionFound("no decomposition applies")

    monkeypatch.setattr(cli, "three_color", no_decomposition)
    code, out, err = run(["color3", "fixture:petersen"], capsys)
    assert code == 3 and out == ""
    assert err.startswith("internal error:")


def test_search_budget_exhausted_after_recognition(capsys, monkeypatch):
    # Recognition accepts the member, then the search itself runs dry.
    def exhausted(G, budget=None):
        raise SearchBudgetExceeded("search budget exhausted")

    for command, name, what in (
        ("color3", "three_color", "coloring"),
        ("decompose", "decompose", "certificate"),
    ):
        monkeypatch.setattr(cli, name, exhausted)
        code, out, _ = run([command, "fixture:petersen"], capsys)
        rep = report(out)
        assert code == 2
        assert rep["outcome"] == {
            "refused": True, "reason": f"budget exhausted before a {what}"
        }
        assert rep["budget"]["exhausted"] is True


def test_color_dot_emission(capsys, tmp_path):
    code, out, _ = run(["color4", "fixture:c5", "--emit", "dot"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "graph {"
    assert out.rstrip().endswith("}")
    assert "0 -- 1" in out

    path = tmp_path / "c5.dot"
    code, out, _ = run(["color4", "fixture:c5", "--emit", "dot", "--out", str(path)],
                       capsys)
    assert code == 0 and out == ""
    assert path.read_text().startswith("graph {")


def test_decompose_command(capsys):
    code, out, _ = run(["decompose", "fixture:petersen"], capsys)
    rep = report(out)
    assert code == 0
    assert rep["outcome"]["variant"] == "petersen"
    assert sorted(rep["outcome"]["mapping"]) == list(range(10))

    code, out, _ = run(["decompose", "fixture:c5"], capsys)
    rep = report(out)
    assert code == 0
    assert rep["outcome"]["variant"] == "low_degree"
    assert "vertex" in rep["outcome"]

    code, out, _ = run(["decompose", "fixture:c7"], capsys)
    assert code == 1 and report(out)["outcome"]["refused"] is True


def test_corpus_exhaustive(capsys, tmp_path):
    path = tmp_path / "c.g6"
    code, out, _ = run(
        ["corpus", "--mode", "exhaustive", "--n-max", "5", "--out", str(path)], capsys
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["outcome"]["total"] == 352
    assert rep["outcome"]["counts_by_n"] == {
        "0": 1, "1": 1, "2": 2, "3": 7, "4": 38, "5": 303
    }
    # Only the 12 labeled 5-cycles are non-bipartite at this size.
    assert rep["outcome"]["bipartite_fraction"] == pytest.approx(340 / 352)
    assert rep["outcome"]["truncated"] is False
    lines = path.read_text().splitlines()
    assert len(lines) == 352 and lines[0] == "?"
    for line in lines:
        assert write_graph6(parse_graph6(line)) == line


def test_corpus_random_determinism(capsys, tmp_path, monkeypatch):
    argv = ["corpus", "--mode", "random", "--n-max", "12", "--count", "25",
            "--seed", "9", "--out", "r.g6"]
    reports = []
    for d in ("one", "two"):
        (tmp_path / d).mkdir()
        monkeypatch.chdir(tmp_path / d)
        code, out, _ = run(argv, capsys)
        assert code == 0
        rep = json.loads(out)
        del rep["timing"]
        reports.append(rep)
    assert reports[0] == reports[1]
    assert reports[0]["outcome"]["total"] == 25
    assert (tmp_path / "one/r.g6").read_bytes() == (tmp_path / "two/r.g6").read_bytes()

    monkeypatch.chdir(tmp_path)
    run(["corpus", "--mode", "random", "--n-max", "12", "--count", "25",
         "--seed", "10", "--out", "other.g6"], capsys)
    assert (tmp_path / "other.g6").read_bytes() != (tmp_path / "one/r.g6").read_bytes()


def test_corpus_usage_errors(capsys):
    code, _, err = run(["corpus", "--n-max", "5"], capsys)
    assert code == 3 and "needs --out" in err
    code, _, err = run(["corpus", "--n-max", "99", "--out", "/dev/null"], capsys)
    assert code == 3 and "capped at --n-max 10" in err


def test_verify_command(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    run(["corpus", "--mode", "exhaustive", "--n-max", "5", "--out", str(corpus)],
        capsys)

    code, out, _ = run(["verify", "t12", str(corpus)], capsys)
    rep = report(out)
    assert code == 0
    assert rep["outcome"] == {
        "which": "t12", "total": 352, "passed": 352, "failed": 0,
        "indeterminate": 0, "first_counterexample": None,
    }

    code, out2, _ = run(["verify", "t12", str(corpus), "--jobs", "2"], capsys)
    rep2 = report(out2)
    assert code == 0
    del rep["timing"], rep2["timing"]
    assert rep == rep2


def test_verify_counterexample_and_budget(capsys, tmp_path):
    bad = tmp_path / "bad.g6"
    bad.write_text(
        write_graph6(fixture("c5")) + "\n# comment line\n" + k4_line() + "\n"
    )
    code, out, _ = run(["verify", "t12", str(bad)], capsys)
    rep = report(out)
    assert code == 1
    assert rep["outcome"]["failed"] == 1
    first = rep["outcome"]["first_counterexample"]
    assert first["index"] == 1 and first["graph6"] == k4_line()
    assert first["detail"] == "layer 1 induces an odd cycle"

    pete = tmp_path / "pete.g6"
    pete.write_text(write_graph6(petersen()) + "\n")
    code, out, _ = run(["verify", "t13", str(pete), "--max-steps", "1"], capsys)
    rep = report(out)
    assert code == 2
    assert rep["outcome"]["indeterminate"] == 1
    assert rep["outcome"]["passed"] == 0
    assert rep["budget"]["exhausted"] is True


def test_oracle_command(capsys):
    code, out, _ = run(["oracle", "fixture:c5", "--which", "chromatic"], capsys)
    rep = report(out)
    assert code == 0 and rep["outcome"]["chromatic_number"] == 3
    code, out, _ = run(
        ["oracle", "fixture:c5", "--which", "chromatic", "--k-max", "2"], capsys
    )
    assert report(out)["outcome"]["chromatic_number"] is None

    code, out, _ = run(["oracle", "fixture:c7"], capsys)
    rep = report(out)
    assert code == 1
    assert rep["outcome"]["verdict"] == "not_pentagraph"
    assert rep["outcome"]["witness"] == list(range(7))


def test_usage_and_io_errors(capsys, monkeypatch, tmp_path):
    for argv in ([], ["bogus"], ["recognize", "fixture:c5", "--max-steps", "0"],
                 ["recognize", "fixture:nope"],
                 ["recognize", str(tmp_path / "missing.g6")]):
        code, _, err = run(argv, capsys)
        assert code == 3 and err.startswith("error:"), argv

    code, _, err = run(["recognize", "-"], capsys, monkeypatch, stdin="!!bad\n")
    assert code == 3 and "invalid graph6 character" in err
    code, _, err = run(["recognize", "-"], capsys, monkeypatch, stdin="   \n")
    assert code == 3 and "no graph line found" in err


def test_report_to_file(capsys, tmp_path):
    path = tmp_path / "rep.json"
    code, out, _ = run(["recognize", "fixture:c5", "--out", str(path)], capsys)
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.endswith("\n")
    rep = json.loads(text)
    assert rep["command"] == "recognize" and rep["outcome"]["verdict"] == "pentagraph"


def test_unparseable_files_are_parse_errors(capsys, tmp_path):
    # A byte outside ASCII, and JSON nested past the recursion limit, are
    # parse errors with an offset, not tracebacks.
    bad = tmp_path / "bad.g6"
    bad.write_bytes(b"Dhc\n\xff\n")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    for argv, fragment in (
        (["recognize", str(bad)], "non-ASCII byte 0xff (byte offset 4)"),
        (["verify", "t12", str(bad)], "non-ASCII byte 0xff (byte offset 4)"),
        (["recognize", str(deep), "--format", "json"], "nested too deeply"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 3 and out == "", argv
        assert err.startswith("error:") and fragment in err, argv


def test_seed_is_a_corpus_option(capsys, tmp_path):
    corpus = tmp_path / "c.g6"
    corpus.write_text(write_graph6(fixture("c5")) + "\n")
    for argv in (["recognize", "fixture:c5"], ["color3", "fixture:c5"],
                 ["color4", "fixture:c5"], ["decompose", "fixture:c5"],
                 ["verify", "t12", str(corpus)], ["oracle", "fixture:c5"]):
        code, out, err = run(argv + ["--seed", "1"], capsys)
        assert code == 3 and out == "" and err.startswith("error:"), argv
