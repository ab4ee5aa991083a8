"""The three workloads: what each round calls, and how its outputs are checked.

A round is a fixed list of graphs, each taken through a fixed sequence of
calls into pentagraph; every round of a run repeats the same inputs, so
counts per round repeat exactly. The program is looked up through its
modules at the start of each round, after any tracer has been installed.

Per graph the round records one latency, from the graph's first call (the
generator step that yields it, or the first command) to its last. Between
graphs, outside those windows, the calibration kernel of `calibrate.py`
times the machine. Checks run after the clock stops and use only
`checks.py` and the brute-force oracle in the repository's `tests/oracles.py`.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path
from time import perf_counter

import calibrate
import checks

HERE = Path(__file__).resolve().parent
MEMBERS_FILE = HERE / "members.g6"

# Labeled girth-five graphs on n = 0..7 vertices, recomputed by brute force
# with `python3 perfbench/count_girth5.py 7`. Of the 53,365 graphs on seven
# vertices, the 360 labeled 7-cycles are the only non-members.
GIRTH5_COUNTS = (1, 1, 2, 7, 38, 303, 3424, 53365)
SEVEN_CYCLES = 360

# The random-grow corpus: the first 100 graphs of the acceptance suite's
# random corpus (same seed and size range).
GROW_SEED = 20260822
GROW_COUNT = 100
GROW_N_MAX = 40
# Probes on 40-vertex graphs need more than the default step allowance; the
# grower caps each probe by itself.
GROW_BUDGET = 10**9
ORACLE_N_MAX = 12


class Tally:
    """What a run did: graph latencies per round, operations, and wrong answers."""

    def __init__(self, calibrate_every: int = 1):
        # rounds[r][i] is the latency of the i-th graph in round r; every
        # round takes the same graphs in the same order.
        self.rounds: list[list[float]] = []
        # kernel[r] holds the calibration kernel's times in round r: one at
        # its start and one after every `calibrate_every`-th graph. One call
        # at a time, each right after a graph, so every call starts from the
        # same state of the caches.
        self.calibrate_every = calibrate_every
        self.kernel: list[list[float]] = []
        # marks[r][i] is how many of them had been taken when graph i ended.
        self.marks: list[list[int]] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: list[str] = []

    def start_round(self) -> None:
        self.rounds.append([])
        self.kernel.append([calibrate.sample()])
        self.marks.append([])

    def record(self, latency: float) -> None:
        """One graph's latency, taken after the clock stopped."""
        self.rounds[-1].append(latency)
        self.marks[-1].append(len(self.kernel[-1]))
        if len(self.rounds[-1]) % self.calibrate_every == 0:
            self.kernel[-1].append(calibrate.sample())

    def fail(self, what: str, exc: BaseException) -> None:
        self.failed += 1
        self.note(f"failed: {what}: {type(exc).__name__}: {exc}")

    def check(self, what: str, reasons: list[str | None]) -> None:
        """Count one wrong answer per failed check in `reasons` (None passes)."""
        for reason in reasons:
            if reason is not None:
                self.wrong += 1
                self.note(f"wrong: {what}: {reason}")

    def note(self, text: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(text)


def small_errors(n, adj, rep, member_verdict, out=None, c4=None, layers=None, c3=None):
    """Checks on one small-exhaustive graph; the last four are given for members."""
    errors = [checks.girth_at_least_5(n, adj)]
    member = rep.verdict == member_verdict
    if checks.is_seven_cycle(n, adj):
        if member:
            return errors + ["a 7-cycle was reported as a member"]
        return errors + [checks.cycle_witness(n, adj, rep.witness, 7)]
    if not member:
        return errors + [f"member reported as {rep.verdict}"]
    if out.variant == "bipartite":
        errors.append(checks.two_coloring(n, adj, out.two_coloring))
    elif out.variant == "low_degree":
        errors.append(checks.low_degree_vertex(n, adj, out.vertex))
        if checks.is_bipartite(n, adj):
            errors.append("bipartite graph decomposed as low_degree")
    else:
        errors.append(f"arm {out.variant} below ten vertices, where the minimum degree is at most 2")
    errors.append(checks.proper_coloring(n, adj, c4.colors, 4))
    if not layers.ok or layers.indeterminate:
        errors.append(f"layered coloring check said {layers!r}")
    errors.append(checks.proper_coloring(n, adj, c3.colors, 3))
    return errors


def grown_errors(n, adj, rep, member_verdict, c3, oracle):
    """Checks on one random-grow graph."""
    errors = [checks.girth_at_least_5(n, adj), checks.proper_coloring(n, adj, c3.colors, 3)]
    if rep.verdict != member_verdict:
        errors.append(f"grown graph recognized as {rep.verdict}")
    if n <= ORACLE_N_MAX and not oracle.o_is_pentagraph(_Adjacency(n, adj)):
        errors.append("brute-force oracle finds a short cycle or a long odd hole")
    return errors


class _Adjacency:
    """The two attributes the oracles in tests/oracles.py read."""

    def __init__(self, n, adj):
        self.n = n
        self.adj = adj


class SmallExhaustive:
    """Every labeled girth-five graph on at most seven vertices."""

    name = "small-exhaustive"
    round_s = 17.0
    # A graph takes about 0.3 ms: the kernel runs about every 20 ms.
    calibrate_every = 64

    def __init__(self, seed: int, workdir: Path):
        # The input is exhaustive, so the seed has nothing to choose.
        pass

    def prepare(self) -> None:
        pass

    def round(self, t: Tally) -> None:
        import pentagraph as P
        from pentagraph import generate, properties

        enumerate_girth5 = generate.enumerate_girth5
        recognize, decompose, revalidate = P.recognize, P.decompose, P.revalidate_outcome
        four_color, three_color = P.four_color, P.three_color
        layered = properties.check_layered_coloring
        member_verdict = P.PENTAGRAPH
        counts = [0] * len(GIRTH5_COUNTS)
        non_members = 0
        t.start_round()
        for n in range(len(GIRTH5_COUNTS)):
            stream = enumerate_girth5(n)
            while True:
                step = 0
                t0 = perf_counter()
                try:
                    G = next(stream)
                except StopIteration:
                    break
                except Exception as e:
                    t.attempted += 1
                    t.fail(f"enumerate_girth5({n})", e)
                    break
                try:
                    step = 1
                    rep = recognize(G)
                    member = rep.verdict == member_verdict
                    if member:
                        step = 2
                        out = decompose(G)
                        step = 3
                        revalidate(G, out)
                        step = 4
                        c4 = four_color(G)
                        step = 5
                        layers = layered(G)
                        step = 6
                        c3 = three_color(G)
                    t1 = perf_counter()
                except Exception as e:
                    t.attempted += step + 1
                    t.fail(f"call {step} on n={n} adj={G.adj}", e)
                    continue
                t.attempted += step + 1
                t.record(t1 - t0)
                counts[n] += 1
                if not member and checks.is_seven_cycle(n, G.adj):
                    non_members += 1
                if member:
                    errors = small_errors(n, G.adj, rep, member_verdict, out, c4, layers, c3)
                else:
                    errors = small_errors(n, G.adj, rep, member_verdict)
                t.check(f"n={n} adj={G.adj}", errors)
        if tuple(counts) != GIRTH5_COUNTS:
            t.check("stream", [f"per-n counts {counts} differ from {list(GIRTH5_COUNTS)}"])
        if non_members != SEVEN_CYCLES:
            t.check("stream", [f"{non_members} 7-cycles found as non-members, "
                               f"expected {SEVEN_CYCLES}"])


class RandomGrow:
    """Seeded random growth up to 40 vertices, then recognize and three_color."""

    name = "random-grow"
    round_s = 7.5
    calibrate_every = 1

    def __init__(self, seed: int, workdir: Path):
        # The corpus is fixed: see the README for why the run seed does not
        # draw it.
        self.oracle = None

    def prepare(self) -> None:
        import importlib.util

        path = HERE.parent / "tests" / "oracles.py"
        spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
        self.oracle = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.oracle)

    def round(self, t: Tally) -> None:
        import pentagraph as P

        spec = P.CorpusSpec(mode="random", n_min=1, n_max=GROW_N_MAX, seed=GROW_SEED,
                            target_count=GROW_COUNT)
        recognize, three_color = P.recognize, P.three_color
        member_verdict = P.PENTAGRAPH
        stream = P.generate_corpus(spec, P.SearchBudget(GROW_BUDGET))
        t.start_round()
        while True:
            step = 0
            t0 = perf_counter()
            try:
                G = next(stream)
                step = 1
                rep = recognize(G)
                step = 2
                c3 = three_color(G)
                t1 = perf_counter()
            except StopIteration:
                break
            except Exception as e:
                t.attempted += step + 1
                t.fail(f"call {step} on graph {stream.produced}", e)
                continue
            t.attempted += 3
            t.record(t1 - t0)
            t.check(f"graph {stream.produced} n={G.n} adj={G.adj}",
                    grown_errors(G.n, G.adj, rep, member_verdict, c3, self.oracle))
        if stream.produced != GROW_COUNT or stream.truncated:
            t.check("stream", [f"{stream.produced} graphs, truncated={stream.truncated}"])


class MemberCli:
    """Committed members through `penta color3`, `verify t25`, `verify t31`."""

    name = "member-cli"
    round_s = 9.0
    calibrate_every = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.graphs: list[tuple[str, int, list[int]]] = []

    def prepare(self) -> None:
        lines = [ln.strip() for ln in MEMBERS_FILE.read_text(encoding="ascii").splitlines()
                 if ln.strip() and not ln.startswith("#")]
        random.Random(self.seed).shuffle(lines)
        for i, line in enumerate(lines):
            path = self.workdir / f"{i:04d}.g6"
            path.write_text(line + "\n", encoding="ascii")
            n, adj = checks.decode_graph6(line)
            self.graphs.append((str(path), n, adj))

    def round(self, t: Tally) -> None:
        from pentagraph import cli

        main = cli.main
        t.start_round()
        for path, n, adj in self.graphs:
            commands = (
                (["color3", path, "--jobs", "1"],
                 lambda code, text: checks.color3_report(code, text, n, adj)),
                (["verify", "t25", path, "--jobs", "1"],
                 lambda code, text: checks.verify_report(code, text, "t25", 1)),
                (["verify", "t31", path, "--jobs", "1"],
                 lambda code, text: checks.verify_report(code, text, "t31", 1)),
            )
            outputs = []
            t0 = perf_counter()
            try:
                for argv, _ in commands:
                    buf = io.StringIO()
                    with contextlib.redirect_stdout(buf):
                        code = main(argv)
                    outputs.append((code, buf.getvalue()))
                t1 = perf_counter()
            except Exception as e:
                t.attempted += len(outputs) + 1
                t.fail(f"{' '.join(commands[len(outputs)][0])}", e)
                continue
            t.attempted += len(commands)
            t.record(t1 - t0)
            # Every input is a member, so a command that exits non-zero (a
            # refused coloring, a counterexample, an indeterminate verify)
            # answered wrongly; the checks reject any code but 0.
            for (argv, check), (code, text) in zip(commands, outputs):
                t.check(" ".join(argv), [check(code, text)])


WORKLOADS = {w.name: w for w in (SmallExhaustive, RandomGrow, MemberCli)}
