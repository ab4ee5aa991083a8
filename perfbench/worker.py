"""One workload in one process: set up, run whole rounds, check, report.

Started by run.py, never by hand. Prints one JSON object as its last line.
With --setup-only it stops after set-up and reports how long set-up took:
importing pentagraph and preparing the workload's inputs.
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def per_layer(tracer, rounds: int) -> dict[str, float]:
    """The per-layer metrics of one round: run totals divided by rounds."""
    L = tracer.stats
    out = {}
    for layer, stat in L.items():
        out[f"{layer}.self_s"] = stat.self_s / rounds
    for layer in ("graph.girth", "graph.is_bipartite", "graph.induced_subgraph",
                  "structure.induced_paths", "recognition.recognize",
                  "decomposition.decompose"):
        out[f"{layer}.calls"] = per_round(L[layer].calls, rounds)
    paths = L["structure.induced_paths"]
    out["structure.induced_paths.nodes"] = per_round(paths.steps, rounds)
    out["structure.induced_paths.nodes_per_s"] = (
        paths.steps / paths.total_s if paths.total_s else 0.0)
    out["structure.contains_induced.nodes"] = per_round(L["structure.contains_induced"].steps, rounds)
    out["recognition.steps"] = per_round(L["recognition.recognize"].steps, rounds)
    out["properties.steps"] = per_round(L["properties.check"].steps, rounds)
    probes, capped = tracer.edge_calls("generate.grow", "structure.induced_paths")
    out["generate.probes"] = per_round(probes, rounds)
    out["generate.probes_capped"] = per_round(capped, rounds)
    return out


def graph_latencies(tally) -> list[float]:
    """Each graph's latency in seconds on the reference machine."""
    # The latencies are scaled to the reference machine by the calibration
    # kernel's times around each graph (see calibrate.py).
    scaled = [calibrate.scale(*r) for r in zip(tally.rounds, tally.marks, tally.kernel)]
    if len({len(r) for r in scaled}) != 1:
        raise SystemExit("rounds timed different numbers of graphs")
    # A graph's latency is its median over the rounds, which repeat the same
    # graphs. That holds only while a repeated round does the same work as the
    # first: a program that remembered results between calls would make the
    # repeats nearly free, and such a run measures its cache, not its searches.
    first = sum(scaled[0])
    for r, later in enumerate(scaled[1:], start=2):
        if sum(later) < first / 2:
            tally.check("rounds", [f"round {r} took {sum(later):.3g} s, less than half of "
                                   f"round 1 ({first:.3g} s): it repeated less work"])
    return [statistics.median(samples) for samples in zip(*scaled)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    # Searches without an explicit budget take their size from this variable;
    # the benchmark always measures the default.
    os.environ.pop("PENTA_MAX_STEPS", None)

    import pentagraph.cli  # noqa: F401  (the CLI is not imported by the package)
    from workloads import WORKLOADS, Tally

    (HERE / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "work"))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        setup_s = perf_counter() - STARTED
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()

        tally = Tally(workload.calibrate_every)
        # Whole rounds only: as many as take --seconds on the reference
        # machine, at least one. The count depends on --seconds alone, so
        # two versions of the program are always measured on the same rounds.
        n_rounds = max(1, int(args.seconds // workload.round_s))
        t0 = perf_counter()
        for _ in range(n_rounds):
            workload.round(tally)
        elapsed = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lat = graph_latencies(tally)
    record = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "rounds": n_rounds,
        "graphs": len(lat),
        "elapsed_s": elapsed,
        "kernel_ms": [statistics.fmean(k) * 1e3 for k in tally.kernel],
        "wall_graphs_per_s": len(lat) / sum(statistics.median(s) for s in zip(*tally.rounds)),
        "messages": tally.messages,
        "graphs_per_s": len(lat) / sum(lat),
        "graph_p50_ms": statistics.median(lat) * 1e3,
        "graph_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        record["per_layer"] = per_layer(tracer, n_rounds)
        record["arms"] = {arm: per_round(count, n_rounds)
                          for arm, count in sorted(tracer.arms.items())}
    print(json.dumps(record))
    return 0


def per_round(total: int, rounds: int):
    """A count per round; every round repeats the same calls, so it divides exactly."""
    return total // rounds if total % rounds == 0 else total / rounds


if __name__ == "__main__":
    sys.exit(main())
