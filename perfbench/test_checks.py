"""The benchmark's output checks must be able to fail.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each check is fed a right answer, which it must accept, and a corrupted one,
which it must reject: an improper coloring, a 7-cycle reported as a member,
a verify report with indeterminate graphs, a command that refuses a member,
a repeated round that does less work than the first.
Real outputs come from running pentagraph itself, so the checks are also
shown to accept what the program prints today.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
import unittest.mock
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pentagraph import PENTAGRAPH, fixture, recognize, three_color, write_graph6  # noqa: E402
from pentagraph.cli import main as penta  # noqa: E402

C5 = [0b10010, 0b00101, 0b01010, 0b10100, 0b01001]
C7 = [(1 << (v - 1) % 7) | (1 << (v + 1) % 7) for v in range(7)]


def scratch_dir() -> tempfile.TemporaryDirectory:
    """A temporary directory under perfbench/work, which git ignores."""
    (HERE / "work").mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=HERE / "work")


def run_cli(*argv: str) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = penta(list(argv))
    return code, buf.getvalue()


def load_oracle():
    rg = workloads.RandomGrow(0, HERE)
    rg.prepare()
    return rg.oracle


class GraphChecks(unittest.TestCase):
    def test_proper_coloring(self):
        self.assertIsNone(checks.proper_coloring(5, C5, [1, 2, 1, 2, 3], 3))
        self.assertIn("edge 0-1", checks.proper_coloring(5, C5, [1, 1, 2, 1, 3], 3))
        self.assertIn("outside 1..3", checks.proper_coloring(5, C5, [1, 2, 1, 2, 4], 3))
        self.assertIn("entries", checks.proper_coloring(5, C5, [1, 2, 1, 2], 3))

    def test_girth(self):
        self.assertIsNone(checks.girth_at_least_5(5, C5))
        c4 = [0b1010, 0b0101, 0b1010, 0b0101]
        self.assertIn("4-cycle", checks.girth_at_least_5(4, c4))
        triangle = [0b110, 0b101, 0b011]
        self.assertIn("triangle", checks.girth_at_least_5(3, triangle))

    def test_seven_cycle_and_witness(self):
        self.assertTrue(checks.is_seven_cycle(7, C7))
        two_parts = C5 + [0b1000000, 0b0100000]
        self.assertFalse(checks.is_seven_cycle(7, two_parts))
        self.assertIsNone(checks.cycle_witness(7, C7, (0, 1, 2, 3, 4, 5, 6), 7))
        self.assertIsNotNone(checks.cycle_witness(7, C7, (0, 2, 1, 3, 4, 5, 6), 7))
        self.assertIsNotNone(checks.cycle_witness(7, C7, (0, 1, 2, 3, 4, 5), 7))

    def test_graph6_decoder_matches_the_writer(self):
        for name in ("petersen", "p0", "p1", "p2", "c7"):
            G = fixture(name)
            self.assertEqual(checks.decode_graph6(write_graph6(G)), (G.n, list(G.adj)))


class SmallExhaustiveChecks(unittest.TestCase):
    def test_accepts_the_program_on_c5_and_c7(self):
        G = fixture("c7")
        self.assertEqual(workloads.small_errors(7, C7, recognize(G), PENTAGRAPH),
                         [None, None])
        G = fixture("c5")
        import pentagraph as P

        out = P.decompose(G)
        errors = workloads.small_errors(
            5, C5, recognize(G), PENTAGRAPH, out, P.four_color(G),
            P.check_layered_coloring(G), three_color(G))
        self.assertEqual([e for e in errors if e], [])

    def test_rejects_a_seven_cycle_reported_as_member(self):
        rep = SimpleNamespace(verdict=PENTAGRAPH, witness=None)
        errors = workloads.small_errors(7, C7, rep, PENTAGRAPH)
        self.assertIn("a 7-cycle was reported as a member", errors)

    def test_rejects_a_bad_witness(self):
        rep = SimpleNamespace(verdict="not_pentagraph", witness=(0, 1, 2))
        self.assertTrue(any(workloads.small_errors(7, C7, rep, PENTAGRAPH)))

    def test_rejects_improper_colorings_and_certificates(self):
        rep = SimpleNamespace(verdict=PENTAGRAPH)
        ok = SimpleNamespace(ok=True, indeterminate=False)
        good4 = SimpleNamespace(colors=(1, 2, 1, 2, 3))
        good3 = SimpleNamespace(colors=(1, 2, 1, 2, 3))
        bad = SimpleNamespace(colors=(1, 1, 2, 1, 3))
        low = SimpleNamespace(variant="low_degree", vertex=0)
        self.assertFalse(any(workloads.small_errors(5, C5, rep, PENTAGRAPH, low, good4, ok,
                                                    good3)))
        for args in ((low, bad, ok, good3), (low, good4, ok, bad),
                     (SimpleNamespace(variant="bipartite", two_coloring=(1, 2, 1, 2, 1)),
                      good4, ok, good3),
                     (low, good4, SimpleNamespace(ok=True, indeterminate=True), good3)):
            self.assertTrue(any(workloads.small_errors(5, C5, rep, PENTAGRAPH, *args)), args)


class RandomGrowChecks(unittest.TestCase):
    def test_accepts_and_rejects(self):
        oracle = load_oracle()
        G = fixture("petersen")
        good = workloads.grown_errors(G.n, list(G.adj), recognize(G), PENTAGRAPH,
                                      three_color(G), oracle)
        self.assertFalse(any(good))
        bad = SimpleNamespace(colors=(1,) * G.n)
        self.assertTrue(any(workloads.grown_errors(G.n, list(G.adj), recognize(G), PENTAGRAPH,
                                                   bad, oracle)))

    def test_oracle_rejects_a_seven_cycle_reported_as_member(self):
        member = SimpleNamespace(verdict=PENTAGRAPH)
        coloring = SimpleNamespace(colors=(1, 2, 1, 2, 1, 2, 3))
        errors = workloads.grown_errors(7, C7, member, PENTAGRAPH, coloring, load_oracle())
        self.assertIn("brute-force oracle finds a short cycle or a long odd hole", errors)


class CliChecks(unittest.TestCase):
    def setUp(self):
        self.tmp = scratch_dir()
        self.path = str(Path(self.tmp.name) / "g.g6")
        self.G = fixture("petersen")
        Path(self.path).write_text(write_graph6(self.G) + "\n", encoding="ascii")

    def tearDown(self):
        self.tmp.cleanup()

    def test_color3(self):
        code, text = run_cli("color3", self.path, "--jobs", "1")
        n, adj = self.G.n, list(self.G.adj)
        self.assertIsNone(checks.color3_report(code, text, n, adj))
        report = json.loads(text)
        report["outcome"]["coloring"]["colors"] = [1] * n
        self.assertIn("both ends", checks.color3_report(code, json.dumps(report), n, adj))
        self.assertIsNotNone(checks.color3_report(2, text, n, adj))

    def test_verify(self):
        for which in ("t25", "t31"):
            code, text = run_cli("verify", which, self.path, "--jobs", "1")
            self.assertIsNone(checks.verify_report(code, text, which, 1))
        report = json.loads(text)
        report["outcome"]["indeterminate"] = 1
        self.assertIsNotNone(checks.verify_report(0, json.dumps(report), "t31", 1))
        report["outcome"].update(indeterminate=0, failed=1, passed=0)
        self.assertIsNotNone(checks.verify_report(0, json.dumps(report), "t31", 1))

    def test_verify_rejects_an_exhausted_budget(self):
        code, text = run_cli("verify", "t31", self.path, "--jobs", "1", "--max-steps", "5")
        self.assertEqual(json.loads(text)["outcome"]["passed"], 1)
        self.assertIsNotNone(checks.verify_report(code, text, "t31", 1))
        self.assertIsNotNone(checks.verify_report(0, text, "t31", 1))


class MemberCliRound(unittest.TestCase):
    """A member that a command refuses makes the round wrong, not only failed."""

    def setUp(self):
        self.tmp = scratch_dir()
        path = Path(self.tmp.name) / "g.g6"
        G = fixture("petersen")
        path.write_text(write_graph6(G) + "\n", encoding="ascii")
        self.workload = workloads.MemberCli(0, Path(self.tmp.name))
        self.workload.graphs = [(str(path), G.n, list(G.adj))]

    def tearDown(self):
        self.tmp.cleanup()

    def test_accepts_the_program(self):
        tally = workloads.Tally()
        self.workload.round(tally)
        self.assertEqual((tally.attempted, tally.failed, tally.wrong), (3, 0, 0))

    def test_a_starved_budget_is_wrong(self):
        # verify goes indeterminate (exit 2) when its searches run out.
        with unittest.mock.patch.dict("os.environ", {"PENTA_MAX_STEPS": "5"}):
            tally = workloads.Tally()
            self.workload.round(tally)
        self.assertGreater(tally.wrong, 0, tally.messages)

    def test_a_refusal_is_wrong(self):
        def refuse(argv):
            print(json.dumps({"outcome": {"verified": False}}))
            return 1

        import pentagraph.cli

        with unittest.mock.patch.object(pentagraph.cli, "main", refuse):
            tally = workloads.Tally()
            self.workload.round(tally)
        self.assertEqual(tally.wrong, 3, tally.messages)


class Repeats(unittest.TestCase):
    """A round that repeats less work than the first makes the run wrong."""

    def tally(self, *rounds):
        t = workloads.Tally()
        for lat in rounds:
            t.start_round()
            for x in lat:
                t.record(x)
        return t

    def test_steady_rounds_pass(self):
        t = self.tally([0.01, 0.02, 0.03], [0.012, 0.018, 0.03], [0.011, 0.02, 0.029])
        self.assertEqual(len(worker.graph_latencies(t)), 3)
        self.assertEqual(t.wrong, 0, t.messages)

    def test_a_cached_repeat_is_wrong(self):
        t = self.tally([0.01, 0.02, 0.03], [1e-5, 1e-5, 1e-5], [1e-5, 1e-5, 1e-5])
        worker.graph_latencies(t)
        self.assertEqual(t.wrong, 2, t.messages)


if __name__ == "__main__":
    unittest.main()
