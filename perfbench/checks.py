"""Output checks, run outside the timed region.

Three independent checks decide whether one CLI run was correct:

* the SHA-256 of stdout equals the digest pinned in ``digests.json`` for
  the workload at the default seed (the byte-identical gate for
  later optimizations);
* stem workloads: the echoed word sequence equals the generated one, and
  every word without marks or joiners has the decomposition that
  ``tests/naive_oracle.naive_stem`` re-derives from the rule file;
* ``eval-gold``: ``correct + wrong == total``, ``over + under + other ==
  wrong``, ``total`` is the number of gold entries, and ``correct`` equals
  a recount with the naive oracle.

A change that alters the output on purpose re-pins the digests, after the
other checks pass, with::

    python3 perfbench/checks.py
"""

import hashlib
import json
from pathlib import Path

from workloads import DEFAULT_SEED, Inputs, Workload, is_marked, read_rule_file

DIGESTS = Path(__file__).resolve().parent / "digests.json"
MAX_REPORTED = 5


def digest(out: str) -> str:
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def pin() -> dict[str, str]:
    """Write the stdout digests of every workload at the default seed to ``digests.json``."""
    import tempfile

    from run import call_cli
    from workloads import WORKLOADS

    pinned = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, wl in WORKLOADS.items():
            inputs = wl.generate(DEFAULT_SEED)
            path = Path(tmp) / "input.txt"
            path.write_text(inputs.text, encoding="utf-8")
            code, out, err, _ = call_cli(wl.argv(str(path)))
            problems = [f"exit code {code}: {err}"] if code != 0 else _check_content(wl, inputs, out)
            if problems:
                raise SystemExit(f"{name}: not pinning a failing output: {problems}")
            pinned[name] = digest(out)
    DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n", encoding="utf-8")
    return pinned


def pinned_digest(workload: str, seed: int) -> str | None:
    """The pinned stdout digest, or None when none is pinned for this input."""
    if seed != DEFAULT_SEED or not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text("utf-8")).get(workload)


class _Oracle:
    """``naive_stem`` with the workload's rule file and passes, memoized per word."""

    def __init__(self, wl: Workload):
        from naive_oracle import naive_stem

        self._stem = naive_stem
        self._rf = read_rule_file(wl.rules)
        self._passes = wl.passes
        self._memo: dict[str, tuple] = {}

    def __call__(self, word: str) -> tuple:
        """(prefix, stem, suffix, exception_hit, applied) for a mark-free word."""
        if word not in self._memo:
            rf = self._rf
            self._memo[word] = self._stem(
                word, list(rf.rules), rf.exceptions, rf.default_min_stem,
                suffix_passes=self._passes, prefix_passes=self._passes,
            )
        return self._memo[word]


def check_output(wl: Workload, inputs: Inputs, out: str, seed: int) -> list[str]:
    """Problems found in one run's stdout; empty when the output is correct."""
    errors: list[str] = []
    pinned = pinned_digest(wl.name, seed)
    if pinned is not None and digest(out) != pinned:
        errors.append(f"stdout sha256 {digest(out)} != pinned {pinned}")
    return errors + _check_content(wl, inputs, out)


def _check_content(wl: Workload, inputs: Inputs, out: str) -> list[str]:
    if wl.name == "eval-gold":
        return _check_eval(wl, inputs, out)
    return _check_stem(wl, inputs, out)


def _check_stem(wl: Workload, inputs: Inputs, out: str) -> list[str]:
    oracle = _Oracle(wl)
    lines = out.split("\n")
    if lines[-1] != "":
        return ["stdout does not end with a newline"]
    lines.pop()
    if len(lines) != len(inputs.words):
        return [f"{len(lines)} output lines for {len(inputs.words)} words"]
    as_json = "--json" in wl.flags
    errors: list[str] = []
    for i, (line, word) in enumerate(zip(lines, inputs.words)):
        if as_json:
            try:
                r = json.loads(line)
                got = (r["word"], r["prefix"], r["stem"], r["suffix"], r["exception"], tuple(r["applied"]))
            except (ValueError, KeyError, TypeError):
                got = None
        else:
            fields = line.split("\t")
            got = tuple(fields) if len(fields) == 4 else None
        if got is None or got[0] != word:
            errors.append(f"line {i + 1}: expected word {word!r}, got {line!r}")
        elif not is_marked(word):
            prefix, stem, suffix, exception, applied = oracle(word)
            if as_json:
                want = (word, prefix, stem, suffix, exception, applied)
            else:
                want = (word, (prefix or "").strip(), stem, (suffix or "").strip())
            if got != want:
                errors.append(f"line {i + 1}: {got!r} != oracle {want!r}")
        if len(errors) >= MAX_REPORTED:
            break
    return errors


def parse_report(out: str) -> dict[str, str]:
    """The ``key<TAB>value`` block that ends ``eval``'s text output."""
    fields = (line.split("\t") for line in out.split("\n"))
    return {f[0]: f[1] for f in fields if len(f) == 2}


def naive_correct(wl: Workload, inputs: Inputs) -> int | None:
    """Gold entries the naive oracle stems exactly right; None when a word has marks."""
    if any(is_marked(g[0]) for g in inputs.gold):
        return None
    oracle = _Oracle(wl)
    return sum(1 for word, stem, prefix, suffix in inputs.gold if oracle(word)[:3] == (prefix, stem, suffix))


def _check_eval(wl: Workload, inputs: Inputs, out: str) -> list[str]:
    kv = parse_report(out)
    keys = ("total_words", "correct", "wrong", "over_stemming", "under_stemming", "other_errors")
    try:
        total, correct, wrong, over, under, other = (int(kv[k]) for k in keys)
    except (KeyError, ValueError):
        return [f"eval report lacks integer fields {keys}"]
    errors = []
    if total != len(inputs.gold):
        errors.append(f"total_words {total} != {len(inputs.gold)} gold entries")
    if correct + wrong != total:
        errors.append(f"correct {correct} + wrong {wrong} != total {total}")
    if over + under + other != wrong:
        errors.append(f"over {over} + under {under} + other {other} != wrong {wrong}")
    recount = naive_correct(wl, inputs)
    if recount is not None and recount != correct:
        errors.append(f"correct {correct} != naive-oracle recount {recount}")
    return errors


if __name__ == "__main__":
    from workloads import add_import_paths

    add_import_paths()
    print(json.dumps(pin(), indent=2))
