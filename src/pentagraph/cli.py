"""Command-line surface.

Subcommands: recognize | color3 | color4 | decompose | corpus | verify |
oracle. Machine output is one JSON report on stdout (or --out) with sorted
keys; the "timing" entry is the only nondeterministic field, so byte
comparisons should drop it. Exit codes: 0 in the class (or success), 1 not
in the class (or a counterexample), 2 indeterminate under the step budget,
3 for I/O, parse, and usage errors and for internal library failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from .coloring import (
    Coloring,
    chromatic_number_bruteforce,
    four_color,
    three_color,
    verify_coloring,
)
from .decomposition import DecompositionOutcome, decompose
from .errors import (
    ContractViolation,
    GraphConstructionError,
    InvariantViolation,
    ParseError,
    PentagraphError,
    SearchBudgetExceeded,
)
from .fixtures import fixture
from .formats import (
    parse_dimacs,
    parse_graph6,
    parse_json_graph,
    write_dot,
    write_graph6,
)
from .generate import CorpusSpec, generate_corpus
from .graph import INFINITY, Graph, bit_list, layer_parity
from .properties import CHECKS, CheckResult
from .recognition import (
    INDETERMINATE,
    NOT_PENTAGRAPH,
    PENTAGRAPH,
    RecognitionReport,
    naive_recognize,
    recognize,
)
from .structure import DEFAULT_MAX_STEPS, SearchBudget, default_max_steps


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad usage, which would collide with
    # the "indeterminate" exit code; route usage problems to 3 instead.
    def error(self, message):
        raise _UsageError(message)


# Built once per process: main() may run many times in one process, and
# parsing reads nothing that changes between calls.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="penta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="graph file, '-' for stdin, or fixture:NAME")
        p.add_argument(
            "--format", choices=("g6", "dimacs", "json"), default="g6",
            help="input encoding (ignored for fixtures)",
        )

    def add_common(p):
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--max-steps", type=int, default=None,
            help="search step budget (default: PENTA_MAX_STEPS if set, "
            f"else {DEFAULT_MAX_STEPS})",
        )
        p.add_argument("--jobs", type=int, default=1,
                       help="worker processes for verify, at least 1; "
                       "other commands check it and ignore it")

    p = sub.add_parser("recognize", help="decide class membership")
    add_input(p)
    add_common(p)
    p.set_defaults(func=cmd_recognize)

    for k in (3, 4):
        p = sub.add_parser(f"color{k}", help=f"produce a verified {k}-coloring")
        add_input(p)
        add_common(p)
        p.add_argument(
            "--emit", choices=("json", "dot"), default="json",
            help="dot writes a colored DOT graph instead of the JSON report",
        )
        p.set_defaults(func=cmd_color, k=k)

    p = sub.add_parser("decompose", help="find a decomposition certificate")
    add_input(p)
    add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("corpus", help="generate a corpus as graph6 lines")
    add_common(p)
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--seed", type=int, default=0, help="seed for random mode")
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--count", type=int, default=None, help="graphs to emit (random mode)")
    p.add_argument("--edge-probability", type=float, default=1.0)
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("verify", help="check a theorem's statement over a corpus file")
    p.add_argument("which", choices=sorted(CHECKS))
    p.add_argument("corpus", help="file of graph6 lines")
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="run the brute-force reference oracles")
    add_input(p)
    add_common(p)
    p.add_argument("--which", choices=("recognize", "chromatic"), default="recognize")
    p.add_argument("--k-max", type=int, default=4)
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    started = time.perf_counter()
    try:
        if args.jobs < 1:
            raise _UsageError("--jobs must be positive")
        code, descriptor, outcome, exhausted = args.func(args)
        if outcome is not None:
            report = _report(args, descriptor, outcome, exhausted, started)
            # A corpus report goes to stdout: its --out holds the graph6 lines.
            _emit(None if args.command == "corpus" else args.out, report)
        return code
    except (_UsageError, ParseError, GraphConstructionError, ContractViolation, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except PentagraphError as e:
        # Library-level failure that recognition did not predict.
        print(f"internal error: {e}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------- plumbing


def _budget_cap(args) -> int:
    """The step budget: ``--max-steps`` if given, else default_max_steps()."""
    if args.max_steps is None:
        return default_max_steps()
    if args.max_steps <= 0:
        raise _UsageError("--max-steps must be positive")
    return args.max_steps


def _read_ascii(path: str) -> str:
    """The file's text with universal newlines; a byte outside ASCII is a
    parse error at its offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ParseError(f"non-ASCII byte 0x{data[exc.start]:02x}", exc.start) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _graph6_lines(text: str) -> list[str]:
    """The stripped lines of ``text``, less blank ones and '#' comments."""
    return [ln.strip() for ln in text.split("\n") if ln.strip() and not ln.startswith("#")]


def _read_graph(args) -> Graph:
    spec = args.input
    if spec.startswith("fixture:"):
        return fixture(spec[len("fixture:"):])
    if spec == "-":
        text = sys.stdin.read()
    else:
        text = _read_ascii(spec)
    if args.format == "dimacs":
        return parse_dimacs(text)
    if args.format == "json":
        return parse_json_graph(text)
    for line in _graph6_lines(text):
        return parse_graph6(line)
    raise ParseError("no graph line found in input")


def _emit(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _report(args, descriptor: str, outcome: dict, exhausted: bool, started: float) -> str:
    """The JSON report around ``outcome``: sorted keys, two-space indent."""
    report = {
        "command": args.command,
        "input": descriptor,
        "outcome": outcome,
        "budget": {"max_steps": _budget_cap(args), "exhausted": exhausted},
        "timing": {"elapsed_s": round(time.perf_counter() - started, 6)},
    }
    return json.dumps(report, sort_keys=True, indent=2)


def _ser_recognition(rep: RecognitionReport) -> dict:
    return {
        "verdict": rep.verdict,
        "girth": "infinity" if rep.girth == INFINITY else rep.girth,
        "witness": list(rep.witness) if rep.witness is not None else None,
        "bipartite": rep.bipartite,
        "reason": rep.reason,
    }


def _ser_coloring(col: Coloring) -> dict:
    return {"k": col.k, "colors": list(col.colors)}


def _ser_outcome(out: DecompositionOutcome) -> dict:
    payload: dict = {"variant": out.variant}
    if out.two_coloring is not None:
        payload["two_coloring"] = list(out.two_coloring)
    if out.embedding is not None:
        payload["mapping"] = list(out.embedding.mapping)
    if out.vertex is not None:
        payload["vertex"] = out.vertex
    if out.clique is not None:
        payload["clique"] = list(out.clique)
    if out.p3 is not None:
        payload["p3"] = {
            "path": list(out.p3.path),
            "sides": [bit_list(m) for m in out.p3.sides],
        }
    if out.star is not None:
        payload["star"] = {
            "center": out.star.center,
            "leaves": bit_list(out.star.leaves),
            "witness_component": bit_list(out.star.witness_component),
            "strong": out.star.strong,
            "components": [bit_list(m) for m in out.star.components],
        }
    return payload


def _verdict_exit(verdict: str) -> int:
    if verdict == PENTAGRAPH:
        return 0
    if verdict == NOT_PENTAGRAPH:
        return 1
    return 2


# ---------------------------------------------------------------- commands
# Each returns (exit code, input descriptor, outcome, exhausted); main()
# reports the outcome unless it is None: the command wrote its own output.


def cmd_recognize(args):
    rep = recognize(_read_graph(args), SearchBudget(_budget_cap(args)))
    return (_verdict_exit(rep.verdict), args.input, _ser_recognition(rep),
            rep.verdict == INDETERMINATE)


def _search_member(args, G: Graph, search, what: str):
    """Run ``search(G, budget)`` once recognition accepts G as a member;
    both draw on the one budget of ``--max-steps``.

    Returns (None, result), or (refusal, None) where the refusal is the
    command's return: the recognition for a non-member, or the budget
    running out before the search found a ``what``.
    """
    budget = SearchBudget(_budget_cap(args))
    rep = recognize(G, budget)
    if rep.verdict != PENTAGRAPH:
        outcome = {"refused": True, "recognition": _ser_recognition(rep)}
        return (_verdict_exit(rep.verdict), args.input, outcome,
                rep.verdict == INDETERMINATE), None
    try:
        return None, search(G, budget)
    except SearchBudgetExceeded:
        outcome = {"refused": True, "reason": f"budget exhausted before a {what}"}
        return (2, args.input, outcome, True), None


def cmd_color(args):
    G = _read_graph(args)
    search = three_color if args.k == 3 else lambda G, budget: four_color(G)
    refusal, col = _search_member(args, G, search, "coloring")
    if refusal:
        return refusal
    if not verify_coloring(G, col):
        raise InvariantViolation("emitted coloring failed verification")
    if args.emit == "dot":
        _emit(args.out, write_dot(G, col.colors))
        return 0, args.input, None, False
    return 0, args.input, {"coloring": _ser_coloring(col), "verified": True}, False


def cmd_decompose(args):
    refusal, out = _search_member(args, _read_graph(args), decompose, "certificate")
    if refusal:
        return refusal
    return 0 if out.variant != "none_found" else 1, args.input, _ser_outcome(out), False


def cmd_corpus(args):
    if not args.out:
        raise _UsageError("corpus needs --out FILE for the graph6 lines")
    spec = CorpusSpec(
        mode=args.mode,
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
        target_count=args.count,
        edge_probability=args.edge_probability,
    )
    stream = generate_corpus(spec, SearchBudget(_budget_cap(args)))
    by_n: dict[int, int] = {}
    bipartite_count = 0
    with open(args.out, "w", encoding="ascii") as fh:
        for G in stream:
            fh.write(write_graph6(G) + "\n")
            by_n[G.n] = by_n.get(G.n, 0) + 1
            if not layer_parity(G.adj, G.full_mask())[1]:
                bipartite_count += 1
    total = stream.produced
    outcome = {
        "written": args.out,
        "total": total,
        "counts_by_n": {str(n): c for n, c in sorted(by_n.items())},
        "bipartite_fraction": (bipartite_count / total) if total else None,
        "truncated": stream.truncated,
    }
    descriptor = f"mode={args.mode} n={spec.n_min}..{spec.n_max} seed={spec.seed}"
    return 2 if stream.truncated else 0, descriptor, outcome, stream.truncated


def _verify_one(task: tuple[str, str, int]) -> dict:
    which, line, max_steps = task
    G = parse_graph6(line)
    try:
        res = CHECKS[which](G, SearchBudget(max_steps))
    except InvariantViolation as e:
        # The checkers assume a member of the class; this input is not one.
        res = CheckResult(False, detail=f"input outside the class: {e}", witness=e.witness)
    return {
        "ok": res.ok,
        "indeterminate": res.indeterminate,
        "detail": res.detail,
        "witness": res.witness,
    }


def cmd_verify(args):
    lines = _graph6_lines(_read_ascii(args.corpus))
    cap = _budget_cap(args)
    tasks = [(args.which, ln, cap) for ln in lines]
    if args.jobs > 1 and len(tasks) > 1:
        # Imported here: loading multiprocessing costs every other command.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(args.jobs, len(tasks))) as pool:
            results = list(pool.map(_verify_one, tasks, chunksize=16))
    else:
        results = [_verify_one(t) for t in tasks]
    failed = [i for i, r in enumerate(results) if not r["ok"]]
    indeterminate = sum(1 for r in results if r["indeterminate"])
    first = None
    if failed:
        i = failed[0]
        first = {"index": i, "graph6": lines[i], **results[i]}
    outcome = {
        "which": args.which,
        "total": len(results),
        "passed": len(results) - len(failed) - indeterminate,
        "failed": len(failed),
        "indeterminate": indeterminate,
        "first_counterexample": first,
    }
    code = 1 if failed else 2 if indeterminate else 0
    return code, args.corpus, outcome, indeterminate > 0


def cmd_oracle(args):
    G = _read_graph(args)
    if args.which == "recognize":
        rep = naive_recognize(G)
        outcome = {"which": "recognize", **_ser_recognition(rep)}
        return _verdict_exit(rep.verdict), args.input, outcome, False
    outcome = {"which": "chromatic", "k_max": args.k_max,
               "chromatic_number": chromatic_number_bruteforce(G, args.k_max)}
    return 0, args.input, outcome, False


if __name__ == "__main__":
    sys.exit(main())
