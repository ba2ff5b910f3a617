"""Compare two result files of the benchmark, metric by metric.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result file holds one JSON record per ``run.py`` invocation, as
``sweep.py --out`` writes them.  For each workload and each end-to-end
metric of ``BENCHMARK.json`` this prints the median and quartiles of both
sides and a label, judged against the metric's bound:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``better``: NEW wins at least 9 in 10 of all (BASE run, NEW run) pairs
  and the medians differ by more than BASE's interquartile range;
* ``unresolved``: neither, and either side spreads wider than the bound;
* ``within bound``: neither, and both sides are steadier than the bound.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(records: list[dict], workload: str, metric: str) -> list[float]:
    """The metric's value in each record of the workload, from its result or its raw figures."""
    found = []
    for r in records:
        if r["workload"] != workload:
            continue
        if metric in r["result"]["metrics"]:
            found.append(r["result"]["metrics"][metric]["value"])
        elif metric in r.get("raw", {}):
            found.append(r["raw"][metric])
    return found


def label(base: list[float], new: list[float], bound: float, higher_is_better: bool) -> str:
    sign = 1 if higher_is_better else -1
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    if sign * (bm - nm) > bound * bm:
        return "worse"
    wins = sum(1 for b in base for n in new if sign * (n - b) > 0)
    if wins >= 0.9 * len(base) * len(new) and sign * (nm - bm) > b3 - b1:
        return "better"
    if (b3 - b1) / bm > bound or (n3 - n1) / nm > bound:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads(SPEC.read_text("utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        runs = {side: [r for r in recs if r["workload"] == wl] for side, recs in (("base", base), ("new", new))}
        if not runs["base"] or not runs["new"]:
            continue
        print(f"{wl}: runs base {len(runs['base'])} new {len(runs['new'])}; fail_rate "
              + " ".join(f"{side} {sum(r['result']['failed'] for r in rs) / sum(r['result']['attempted'] for r in rs):.4f}"
                         for side, rs in runs.items()))
        for m in spec["end_to_end"]:
            b, n = values(base, wl, m["name"]), values(new, wl, m["name"])
            if not b or not n:
                continue
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            verdict = label(b, n, m["bound"], m["better"] == "higher")
            print(f"  {m['name']:14} {m['unit']:8} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  {100 * (nm - bm) / bm:+.2f}%  "
                  f"bound {m['bound']:.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
