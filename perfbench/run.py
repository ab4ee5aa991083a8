"""The pentagraph benchmark.

    python3 perfbench/run.py                       # every workload, plain and traced
    python3 perfbench/run.py --workload random-grow --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload member-cli --repeat 10 --out perfbench/results/a.jsonl

Each workload runs in a process of its own (worker.py) from the root of the
checkout, importing pentagraph from its `src/`. A plain run (--trace 0)
prints every end-to-end metric of BENCHMARK.json; set-up time is the median
of SETUPS fresh processes that only set up. A traced run (--trace 1) wraps
pentagraph's public functions (spans.py) and prints every per-layer metric,
per round. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. Without --workload, every
workload runs plain and then traced, and the tracing overhead is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 11
# Every child must end well inside the 180 s a run may take.
RUN_LIMIT_S = 170


class BenchError(Exception):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def child(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args` and return the JSON object it printed last."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(args)}") from None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"worker exited with {done.returncode}: {' '.join(args)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_one(spec: dict, workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    values = {}
    if not trace:
        setups = [child(base + ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS)]
        values["setup_s"] = statistics.median(setups)
    record = child(base + ["--trace", str(trace)], deadline)
    values.update(record.get("per_layer") or record)
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"worker did not measure {missing}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "result": result, "detail": record}


def show(run: dict) -> None:
    w, res, detail = run["workload"], run["result"], run["detail"]
    for msg in detail["messages"]:
        print(f"{w}: {msg}", file=sys.stderr)
    print(f"{w} seed={run['seed']} trace={run['trace']}: {detail['rounds']} round(s), "
          f"{detail['graphs']} graphs, {res['attempted']} operations, {res['failed']} failed, "
          f"correct={res['correct']}")
    for name, m in res["metrics"].items():
        print(f"  {w} {name} = {m['value']:.6g} {m['unit']}")
    kernel = ", ".join(f"{k:.3f}" for k in detail["kernel_ms"])
    print(f"  {w} calibration kernel per round: {kernel} ms (reference 1 ms); "
          f"unscaled graphs_per_s = {detail['wall_graphs_per_s']:.6g} graphs/s")
    if not run["trace"]:
        return
    print(f"  {w} decomposition arms per round: {json.dumps(detail['arms'])}")
    print(f"  {w} graphs_per_s while traced = {detail['graphs_per_s']:.6g} graphs/s")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs with seeds SEED, SEED+1, ... (one workload only)")
    ap.add_argument("--out", help="append one JSON line per run to this file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pentagraph" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/pentagraph to benchmark", file=sys.stderr)
        return 2
    if not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} holds no tests/oracles.py for the output checks", file=sys.stderr)
        return 2

    if args.workload == "all":
        plan = [(w, args.seed, t) for w in names for t in (0, 1)]
    else:
        plan = [(args.workload, args.seed + i, args.trace) for i in range(args.repeat)]
    runs = []
    try:
        for workload, seed, trace in plan:
            run = run_one(spec, workload, seed, args.seconds, trace)
            show(run)
            runs.append(run)
            if args.out:
                Path(args.out).parent.mkdir(parents=True, exist_ok=True)
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(run) + "\n")
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(runs[-1]["result"]))
        return 0 if all(r["result"]["correct"] for r in runs) else 1

    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for plain, traced in zip(runs[::2], runs[1::2]):
        overhead = plain["detail"]["graphs_per_s"] / traced["detail"]["graphs_per_s"] - 1
        print(f"{plain['workload']} tracing overhead: {overhead:+.1%} program time per graph")
        for r in (plain, traced):
            summary["correct"] &= r["result"]["correct"]
            summary["attempted"] += r["result"]["attempted"]
            summary["failed"] += r["result"]["failed"]
        summary["workloads"][plain["workload"]] = {
            "metrics": plain["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
            "tracing_overhead": overhead,
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
