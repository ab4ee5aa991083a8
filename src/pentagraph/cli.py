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
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor

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
from .generate import EXHAUSTIVE_MAX_N, CorpusSpec, generate_corpus
from .graph import INFINITY, Graph, bit_list, is_bipartite
from .properties import CHECKS
from .recognition import (
    INDETERMINATE,
    NOT_PENTAGRAPH,
    PENTAGRAPH,
    RecognitionReport,
    naive_recognize,
    recognize,
)
from .structure import SearchBudget, default_max_steps


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad usage, which would collide with
    # the "indeterminate" exit code; route usage problems to 3 instead.
    def error(self, message):
        raise _UsageError(message)


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
            help="search step budget (default: PENTA_MAX_STEPS or "
            f"{default_max_steps()})",
        )
        p.add_argument("--jobs", type=int, default=1, help="worker processes for batch runs")

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
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ParseError, GraphConstructionError, ContractViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except PentagraphError as e:
        # Library-level failure that recognition did not predict.
        print(f"internal error: {e}", file=sys.stderr)
        return 3


# ---------------------------------------------------------------- plumbing


def _budget(args) -> SearchBudget:
    if args.max_steps is not None:
        if args.max_steps <= 0:
            raise _UsageError("--max-steps must be positive")
        return SearchBudget(args.max_steps)
    return SearchBudget.fresh()


def _budget_cap(args) -> int:
    return args.max_steps if args.max_steps is not None else default_max_steps()


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


def _read_graph(args) -> tuple[Graph, str]:
    spec = args.input
    if spec.startswith("fixture:"):
        return fixture(spec[len("fixture:"):]), spec
    if spec == "-":
        text = sys.stdin.read()
    else:
        text = _read_ascii(spec)
    if args.format == "dimacs":
        return parse_dimacs(text), spec
    if args.format == "json":
        return parse_json_graph(text), spec
    for line in text.splitlines():
        if line.strip():
            return parse_graph6(line.strip()), spec
    raise ParseError("no graph line found in input")


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _report(args, command: str, descriptor: str, outcome: dict, *, exhausted: bool,
            started: float) -> None:
    report = {
        "command": command,
        "input": descriptor,
        "outcome": outcome,
        "budget": {"max_steps": _budget_cap(args), "exhausted": exhausted},
        "timing": {"elapsed_s": round(time.perf_counter() - started, 6)},
    }
    _emit(args, json.dumps(report, sort_keys=True, indent=2))


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


def cmd_recognize(args) -> int:
    started = time.perf_counter()
    G, descriptor = _read_graph(args)
    rep = recognize(G, _budget(args))
    _report(
        args, "recognize", descriptor, _ser_recognition(rep),
        exhausted=rep.verdict == INDETERMINATE, started=started,
    )
    return _verdict_exit(rep.verdict)


def _search_member(args, command: str, descriptor: str, G: Graph, started: float,
                   search, what: str):
    """Run ``search(G, budget)`` once recognition accepts G as a member.

    Returns (None, result), or (exit code, None) after writing a refusal
    report: the recognition for a non-member, or the budget running out
    before the search found a ``what``.
    """
    rep = recognize(G, _budget(args))
    if rep.verdict != PENTAGRAPH:
        _report(
            args, command, descriptor,
            {"refused": True, "recognition": _ser_recognition(rep)},
            exhausted=rep.verdict == INDETERMINATE, started=started,
        )
        return _verdict_exit(rep.verdict), None
    try:
        return None, search(G, _budget(args))
    except SearchBudgetExceeded:
        _report(
            args, command, descriptor,
            {"refused": True, "reason": f"budget exhausted before a {what}"},
            exhausted=True, started=started,
        )
        return 2, None


def cmd_color(args) -> int:
    started = time.perf_counter()
    G, descriptor = _read_graph(args)
    search = three_color if args.k == 3 else lambda G, budget: four_color(G)
    code, col = _search_member(
        args, f"color{args.k}", descriptor, G, started, search, "coloring"
    )
    if code is not None:
        return code
    if not verify_coloring(G, col):
        raise InvariantViolation("emitted coloring failed verification")
    if args.emit == "dot":
        _emit(args, write_dot(G, col.colors))
        return 0
    _report(
        args, f"color{args.k}", descriptor,
        {"coloring": _ser_coloring(col), "verified": True},
        exhausted=False, started=started,
    )
    return 0


def cmd_decompose(args) -> int:
    started = time.perf_counter()
    G, descriptor = _read_graph(args)
    code, out = _search_member(
        args, "decompose", descriptor, G, started, decompose, "certificate"
    )
    if code is not None:
        return code
    _report(args, "decompose", descriptor, _ser_outcome(out), exhausted=False,
            started=started)
    return 0 if out.variant != "none_found" else 1


def cmd_corpus(args) -> int:
    started = time.perf_counter()
    if not args.out:
        raise _UsageError("corpus needs --out FILE for the graph6 lines")
    if args.mode == "exhaustive" and args.n_max > EXHAUSTIVE_MAX_N:
        raise _UsageError(f"exhaustive mode is capped at --n-max {EXHAUSTIVE_MAX_N}")
    spec = CorpusSpec(
        mode=args.mode,
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
        target_count=args.count,
        edge_probability=args.edge_probability,
    )
    stream = generate_corpus(spec, _budget(args))
    by_n: dict[int, int] = {}
    bipartite_count = 0
    with open(args.out, "w", encoding="ascii") as fh:
        for G in stream:
            fh.write(write_graph6(G) + "\n")
            by_n[G.n] = by_n.get(G.n, 0) + 1
            if is_bipartite(G):
                bipartite_count += 1
    total = stream.produced
    report = {
        "command": "corpus",
        "input": f"mode={args.mode} n={spec.n_min}..{spec.n_max} seed={spec.seed}",
        "outcome": {
            "written": args.out,
            "total": total,
            "counts_by_n": {str(n): c for n, c in sorted(by_n.items())},
            "bipartite_fraction": (bipartite_count / total) if total else None,
            "truncated": stream.truncated,
        },
        "budget": {"max_steps": _budget_cap(args), "exhausted": stream.truncated},
        "timing": {"elapsed_s": round(time.perf_counter() - started, 6)},
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return 2 if stream.truncated else 0


def _verify_one(task: tuple[str, str, int]) -> dict:
    which, line, max_steps = task
    G = parse_graph6(line)
    res = CHECKS[which](G, SearchBudget(max_steps))
    return {
        "ok": res.ok,
        "indeterminate": res.indeterminate,
        "detail": res.detail,
        "witness": _json_safe(res.witness),
    }


def _json_safe(value):
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def cmd_verify(args) -> int:
    started = time.perf_counter()
    lines = [
        ln.strip() for ln in _read_ascii(args.corpus).split("\n")
        if ln.strip() and not ln.startswith("#")
    ]
    cap = _budget_cap(args)
    tasks = [(args.which, ln, cap) for ln in lines]
    if args.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
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
    _report(args, "verify", args.corpus, outcome,
            exhausted=indeterminate > 0, started=started)
    if failed:
        return 1
    return 2 if indeterminate else 0


def cmd_oracle(args) -> int:
    started = time.perf_counter()
    G, descriptor = _read_graph(args)
    if args.which == "recognize":
        rep = naive_recognize(G)
        _report(args, "oracle", descriptor,
                {"which": "recognize", **_ser_recognition(rep)},
                exhausted=False, started=started)
        return _verdict_exit(rep.verdict)
    chi = chromatic_number_bruteforce(G, args.k_max)
    _report(args, "oracle", descriptor,
            {"which": "chromatic", "k_max": args.k_max, "chromatic_number": chi},
            exhausted=False, started=started)
    return 0


if __name__ == "__main__":
    sys.exit(main())
