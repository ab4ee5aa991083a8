"""Compare two sets of benchmark runs, metric by metric, against the bounds.

    python3 perfbench/run.py --workload member-cli --repeat 10 --out before.jsonl
    ...change the program...
    python3 perfbench/run.py --workload member-cli --repeat 10 --out after.jsonl
    python3 perfbench/compare.py before.jsonl after.jsonl

Reads the JSON lines that run.py --out appends, keeps the plain (untraced)
runs, and prints for every workload and end-to-end metric of BENCHMARK.json
each side's median and quartiles, the change of the median, and a verdict:

  ok          the second median is not worse by more than the metric's bound
  worse       it is worse by more than the bound
  unresolved  one side's spread (quartile distance over median) exceeds the
              bound, and not every second run beats every first run
  better      as unresolved, except that every second run beats every first

It also prints each side's share of failed operations. Exits 1 when some
metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                run = json.loads(line)
                if run["trace"] == 0:
                    runs.setdefault(run["workload"], []).append(run["result"])
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def verdict(metric: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    ma, qa1, qa3 = summary(a)
    mb, qb1, qb3 = summary(b)
    sign = 1 if metric["better"] == "lower" else -1
    worse_by = sign * (mb - ma) / ma
    bound = metric["bound"]
    if (qa3 - qa1) / ma > bound or (qb3 - qb1) / mb > bound:
        beats = all(sign * y < sign * x for x in a for y in b)
        return ("better" if beats else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "ok"), worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    first, second = load(argv[1]), load(argv[2])
    worse = False
    for w in (w["name"] for w in spec["workloads"]):
        if w not in first or w not in second:
            print(f"{w}: runs on one side only, not compared")
            continue
        for side, runs in (("first", first[w]), ("second", second[w])):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"{w}: {side}: {len(runs)} runs, {failed} of {attempted} operations failed")
        for m in spec["end_to_end"]:
            a = [r["metrics"][m["name"]]["value"] for r in first[w]]
            b = [r["metrics"][m["name"]]["value"] for r in second[w]]
            word, worse_by = verdict(m, a, b)
            worse |= word == "worse"
            (ma, qa1, qa3), (mb, qb1, qb3) = summary(a), summary(b)
            print(f"  {w} {m['name']} ({m['unit']}, {m['better']} is better): "
                  f"{ma:.6g} [{qa1:.6g}, {qa3:.6g}] -> {mb:.6g} [{qb1:.6g}, {qb3:.6g}], "
                  f"worse by {worse_by:+.1%} (bound {m['bound']:.0%}): {word}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
