"""Benchmark for the urdustem CLI: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload stem-text --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  The workload input is generated from ``--seed`` and
written to a scratch directory under ``.bench_work/``, which is removed
afterwards.  ``urdustem.cli.main`` then runs in this process, one call
after another (a closed loop with one caller), for ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
``words_per_s`` (median over the calls), ``setup_s`` (median over fresh
interpreters, one started after each call) and ``peak_rss_mb`` (one fresh
process running the workload once).  Times are in reference seconds: wall
seconds corrected for the machine's speed at that moment by a calibration
loop (``calibration.py``); the uncorrected figures are printed on the
``# raw`` line.  ``--trace 1`` alternates untraced and traced calls and
reports the per-layer metrics.  Every call's stdout is checked (see ``checks.py``)
outside the timed region; a call that exits non-zero or fails a check
counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the
same numbers for a reader, with the input statistics and the spans of the
last traced call.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from calibration import CAL_REF_S, calibrate
from checks import check_output, digest, naive_correct, pinned_digest
from workloads import DEFAULT_SEED, ROOT, SRC, TESTS, WORKLOADS, add_import_paths, is_marked

HERE = Path(__file__).resolve().parent
SPEC = ROOT / "BENCHMARK.json"
MIN_CALLS = 3
RAW_METRICS = ("cli.wall_words_per_s", "machine.calibration_s", "setup_wall_s")


def spec_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, in the order ``BENCHMARK.json`` lists them."""
    spec = json.loads(SPEC.read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Runs:
    """Attempted and failed CLI runs; the first passing output is checked in full."""

    def __init__(self, wl, inputs, seed: int):
        self.wl, self.inputs, self.seed = wl, inputs, seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checked: str | None = None  # digest of the output that passed the checks

    def record(self, code, out: str, err: str = "") -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"exit code {code}: {err.strip()[-300:]}"]
        elif self.checked is None:
            problems = check_output(self.wl, self.inputs, out, self.seed)
            if not problems:
                self.checked = digest(out)
                return
        elif digest(out) != self.checked:
            problems = ["stdout differs from the checked output of an earlier run"]
        else:
            return
        self.failed += 1
        self.problems.extend(problems[: 10 - len(self.problems)])


def call_cli(argv: list[str], tracer=None):
    """One in-process ``cli.main`` call: (exit code, stdout, stderr, seconds)."""
    from urdustem import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    installed = tracer.installed() if tracer else contextlib.nullcontext()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), installed:
        t0 = perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed run, not a benchmark error
            code = None
            err.write(repr(exc))
        seconds = perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def _child(workdir: Path, *args: str) -> str:
    """Run ``child.py`` in a fresh interpreter with the run's own bytecode cache.

    The caller's ``PYTHON*`` variables are dropped and ``PYTHONPYCACHEPREFIX``
    points into *workdir*, so neither the environment nor a ``__pycache__``
    left in the checkout decides whether sources are compiled or loaded: the
    first child of a run compiles them into the fresh cache and every later
    child loads them from it.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(workdir / "pycache"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


class Clock:
    """Turns wall seconds into reference seconds (see ``calibration.py``).

    The calibration loop runs once at the start and once after each
    measured interval; an interval is scaled by the mean of the two
    calibrations around it.
    """

    def __init__(self) -> None:
        self.last = calibrate()
        self.calibrations: list[float] = []

    def to_reference(self, wall_seconds: float) -> float:
        before, self.last = self.last, calibrate()
        self.calibrations.append((before + self.last) / 2)
        return wall_seconds * CAL_REF_S / self.calibrations[-1]


def peak_rss_mb(argv: list[str], workdir: Path, runs: Runs) -> float:
    out_path = workdir / "child.out"
    try:
        result = json.loads(_child(workdir, "rss", str(out_path), *argv))
    except RuntimeError as exc:
        runs.record(None, "", str(exc))
        return 0.0
    runs.record(result["exit"], out_path.read_text("utf-8"))
    return result["peak_rss_mb"]


def layer_metrics(tracer, out: str, input_bytes: int, scale: float) -> dict[str, float]:
    """Per-layer numbers of one traced call; times scaled by *scale*."""
    (words, *_), results = tracer.last.get("stemmer.stem_batch", (([],), []))
    n = len(words) or 1
    tokens = tracer.last.get("corpus.tokenize", ((), []))[1]
    report = tracer.last.get("evaluation.evaluate", ((), None))[1]
    stem_batch_s = tracer.seconds("stemmer.stem_batch") * scale
    stem_calls, _ = tracer.calls["stemmer.stem_word"]
    split_calls, split_s = tracer.calls["graphemes.split"]
    return {
        "stemmer.stem_batch_s": stem_batch_s,
        "stemmer.us_per_word": stem_batch_s / n * 1e6,
        "stemmer.stem_word_calls": stem_calls,
        "stemmer.words": len(words),
        "stemmer.unique_ratio": len(set(words)) / n,
        "stemmer.pass_through_ratio": sum(r.is_pass_through for r in results) / n,
        "stemmer.affixes_per_word": sum(len(r.applied) for r in results) / n,
        "stemmer.exception_hits": sum(r.exception_hit for r in results),
        "graphemes.split_calls": split_calls,
        "graphemes.split_s": split_s * scale,
        "graphemes.marked_word_ratio": sum(map(is_marked, words)) / n,
        "corpus.normalize_s": tracer.seconds("corpus.normalize") * scale,
        "corpus.tokenize_s": tracer.seconds("corpus.tokenize") * scale,
        "corpus.tokens": len(tokens),
        "evaluation.parse_gold_file_s": tracer.seconds("evaluation.parse_gold_file") * scale,
        "evaluation.evaluate_s": tracer.seconds("evaluation.evaluate") * scale,
        "evaluation.report_s":
            (tracer.seconds("evaluation.summarize") + tracer.seconds("evaluation.report_kv")) * scale,
        "evaluation.wrong_ratio": report.wrong / report.total_words if report else 0.0,
        "rules.parse_rule_file_s": tracer.seconds("rules.parse_rule_file") * scale,
        "cli.main_s": tracer.seconds("cli.main") * scale,
        "cli.self_s": tracer.self_seconds("cli.main") * scale,
        "cli.input_bytes": input_bytes,
        "cli.output_bytes": len(out.encode("utf-8")),
    }


def measure(args, wl, inputs, workdir: Path) -> tuple[Runs, dict, list]:
    input_path = workdir / "input.txt"
    input_path.write_text(inputs.text, encoding="utf-8")
    argv = wl.argv(str(input_path))
    runs = Runs(wl, inputs, args.seed)
    metrics: dict[str, float] = {}
    spans: list = []
    clock = Clock()
    rules = argv[argv.index("--rules") + 1]
    if args.trace:
        from tracer import Tracer
    else:
        _child(workdir, "setup", rules)  # fills the run's bytecode cache; not counted
        metrics["peak_rss_mb"] = peak_rss_mb(argv, workdir, runs)

    runs.record(*call_cli(argv)[:3])  # warm-up: fills caches, output checked in full
    wall, plain, traced, setup_wall, setup = [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while perf_counter() < deadline or len(plain) < MIN_CALLS:
        code, out, err, seconds = call_cli(argv)
        runs.record(code, out, err)
        wall.append(seconds)
        plain.append(clock.to_reference(seconds))
        if args.trace:
            tracer = Tracer()
            code, out, err, seconds = call_cli(argv, tracer)
            runs.record(code, out, err)
            scale = clock.to_reference(seconds) / seconds
            traced.append(layer_metrics(tracer, out, inputs.stats["bytes"], scale))
            spans = tracer.dump()
        else:
            # One fresh interpreter after each call, so that the set-up samples
            # span the window, and the machine's changing speed, as the calls do.
            setup_wall.append(float(_child(workdir, "setup", rules)))
            setup.append(clock.to_reference(setup_wall[-1]))

    words = len(inputs.words)
    metrics["words_per_s"] = words / statistics.median(plain)
    metrics["cli.wall_words_per_s"] = words / statistics.median(wall)
    metrics["machine.calibration_s"] = statistics.median(clock.calibrations)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        metrics["setup_wall_s"] = statistics.median(setup_wall)
    if args.trace:
        for name in traced[0]:
            # median_low keeps each value one that was measured, and counts whole.
            metrics[name] = statistics.median_low(t[name] for t in traced)
        metrics["trace.overhead_ratio"] = metrics["cli.main_s"] / statistics.median(plain)
    return runs, metrics, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "urdustem" / "cli.py", TESTS / "naive_oracle.py") if not p.is_file()]
    if missing:
        print(f"run.py: not in a checkout of urdustem, missing {missing[0]}", file=sys.stderr)
        return 2
    add_import_paths()
    wanted = spec_metrics(bool(args.trace))

    wl = WORKLOADS[args.workload]
    inputs = wl.generate(args.seed)
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=base))
    try:
        runs, measured, spans = measure(args, wl, inputs, workdir)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            base.rmdir()

    inputs.stats["pinned_digest"] = pinned_digest(wl.name, args.seed) is not None
    if inputs.gold:
        correct = naive_correct(wl, inputs)
        inputs.stats["wrong_ratio"] = None if correct is None else 1 - correct / len(inputs.gold)
    print(f"# workload {wl.name} seed {args.seed} trace {args.trace}")
    print(f"# argv {' '.join(wl.argv('INPUT')).replace(str(ROOT) + os.sep, '')}")
    print(f"# inputs {json.dumps(inputs.stats, sort_keys=True)}")
    if spans:
        print(f"# spans {json.dumps(spans)}")
    # The uncorrected figures behind the reported times, traced or not (sweep.py keeps them).
    raw = {name: measured[name] for name in RAW_METRICS if name in measured}
    print(f"# raw {json.dumps(raw)}")
    print(f"# attempted {runs.attempted} failed {runs.failed} "
          f"fail_rate {runs.failed / runs.attempted}")
    for problem in runs.problems:
        print(f"# FAILED {problem}")
    for name, unit in wanted.items():
        value = measured[name]
        print(f"{name:32} {value:>16.6f} {unit}" if isinstance(value, float) else f"{name:32} {value:>16} {unit}")
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": {name: {"value": measured[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
