"""Run the benchmark over several seeds and workloads and print every metric.

    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --out base.jsonl
    python3 perfbench/sweep.py --seeds 1 --trace both

Each run is a fresh ``python3 perfbench/run.py`` process, started the way
the ``command`` of ``BENCHMARK.json`` is.  Records are appended to
``--out`` (the input of ``compare.py``), with the input statistics and the
uncorrected figures (``raw``) that the run prints before its result.  For
each workload and metric the
table gives the unit, the median and quartiles over the seeds, and the
spread (interquartile range over median); end-to-end metrics also show
their bound and whether the spread stays under a third of it.  The sweep
exits non-zero if any run fails or reports ``correct: false``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import SPEC, quartiles, values

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().split("\n")
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-1000:]}")
    comment = {line.split(" ")[1]: json.loads(line.split(" ", 2)[2])
               for line in lines if line.startswith(("# inputs ", "# raw "))}
    return {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
            "inputs": comment.get("inputs", {}), "raw": comment.get("raw", {}),
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    spec = json.loads(SPEC.read_text("utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    parser.add_argument("--out", help="append one JSON record per run to this file")
    args = parser.parse_args(argv)

    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    records, ok = [], True
    for workload in args.workloads.split(","):
        for trace in traces:
            for seed in parse_seeds(args.seeds):
                rec = run_once(workload, seed, args.seconds, trace)
                res = rec["result"]
                ok &= res["correct"] and res["failed"] == 0
                print(f"{workload} seed {seed} trace {trace}: correct {res['correct']} "
                      f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)
                records.append(rec)
                if args.out:
                    with open(args.out, "a", encoding="utf-8") as f:
                        f.write(json.dumps(rec) + "\n")

    for workload in args.workloads.split(","):
        print(f"{workload}")
        named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
        raw_only = sorted({k for r in records for k in r["raw"]} - named)
        for m in spec["end_to_end"] + spec["per_layer"] + [{"name": k, "unit": "raw"} for k in raw_only]:
            vals = values(records, workload, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else 0.0
            line = (f"  {m['name']:30} {m['unit']:8} median {med:<14.6g} "
                    f"q1 {q1:<14.6g} q3 {q3:<14.6g} spread {spread:7.2%}")
            if "bound" in m:
                steady = "steady" if spread < m["bound"] / 3 else "NOT steady"
                line += f"  bound {m['bound']:.0%} ({steady})"
            print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
