"""Self-tests of the benchmark: seeded inputs, failure accounting, a smoke run.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

workloads.add_import_paths()

import checks  # noqa: E402
import run  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

# Each workload at a fiftieth of its size.
TINY = {name: dataclasses.replace(wl, size=wl.size // 50) for name, wl in WORKLOADS.items()}


@pytest.fixture(scope="module")
def tiny_outputs(tmp_path_factory):
    """(workload, inputs, stdout) for each workload at a tiny size."""
    outputs = {}
    for name, wl in TINY.items():
        inputs = wl.generate(3)
        path = tmp_path_factory.mktemp(name) / "input.txt"
        path.write_text(inputs.text, encoding="utf-8")
        code, out, err, _ = run.call_cli(wl.argv(str(path)))
        assert code == 0, err
        outputs[name] = (wl, inputs, out)
    return outputs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    wl = TINY[name]
    a, b, other = wl.generate(5), wl.generate(5), wl.generate(6)
    assert (a.text, a.words, a.gold, a.stats) == (b.text, b.words, b.gold, b.stats)
    assert a.text != other.text


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_correct_output_passes_and_corrupted_output_fails(tiny_outputs, name):
    wl, inputs, out = tiny_outputs[name]
    assert checks.check_output(wl, inputs, out, 3) == []

    if name == "eval-gold":
        kv = checks.parse_report(out)
        corrupted = out.replace(f"correct\t{kv['correct']}\n", f"correct\t{int(kv['correct']) + 1}\n")
    else:
        # Change the stem of the first word the oracle covers.
        lines = out.split("\n")
        i = next(i for i, w in enumerate(inputs.words) if not workloads.is_marked(w))
        lines[i] = lines[i].replace(inputs.words[i], inputs.words[i] + "ا")
        corrupted = "\n".join(lines)
    assert corrupted != out
    assert checks.check_output(wl, inputs, corrupted, 3)

    runs = run.Runs(wl, inputs, 3)
    runs.record(0, out)
    runs.record(0, corrupted)
    runs.record(2, out, "urdustem: failed")
    assert (runs.attempted, runs.failed) == (3, 2)


def test_pinned_digest_mismatch_fails(tiny_outputs):
    wl, inputs, out = tiny_outputs["eval-gold"]
    assert checks.pinned_digest(wl.name, DEFAULT_SEED) is not None
    problems = checks.check_output(wl, inputs, out, DEFAULT_SEED)
    assert any("sha256" in p for p in problems)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_reports_every_named_metric(name, trace, capsys, monkeypatch):
    monkeypatch.setitem(WORKLOADS, name, TINY[name])
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0.05", "--trace", str(trace)])
    out = capsys.readouterr().out
    result = json.loads(out.strip().split("\n")[-1])
    spec = json.loads(run.SPEC.read_text("utf-8"))
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_CALLS
    assert list(result["metrics"]) == names
    raw = json.loads(next(line[6:] for line in out.split("\n") if line.startswith("# raw ")))
    assert set(raw) == set(run.RAW_METRICS) - ({"setup_wall_s"} if trace else set())
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["stemmer.words"] > 0 and m["trace.overhead_ratio"] > 0
        assert (m["corpus.tokens"] > 0) == (name == "stem-text")
        assert (m["evaluation.evaluate_s"] > 0) == (name == "eval-gold")


def test_setup_children_use_their_own_bytecode_cache(tmp_path, monkeypatch):
    # The caller's environment must not decide whether set-up compiles or loads bytecode.
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    float(run._child(tmp_path, "setup", str(workloads.DATA / "default.rules")))
    assert list((tmp_path / "pycache").rglob("urdustem/cli.*.pyc"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stem-text", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
