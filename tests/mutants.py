"""Recorded mutants, each with the tests that must kill it.

A mutant replaces one exact piece of one source file with a wrong
version of it.  Run from any directory::

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The runner first runs every named test on an unmutated copy of the
tree, where they must pass.  Then, for each mutant, it applies the
mutant to a fresh copy of the tree and runs only its named tests there,
with ``-p no:cacheprovider`` and no saved ``.hypothesis`` database, so
no earlier failure is replayed.  A mutant is killed when each of its
named tests fails.  The runner exits 1 and names every mutant that
survives, that only some of its tests kill, or whose run ends in an
error (a collection error, or a test id that names nothing).

``tests/test_mutants.py`` checks the table on every tier-1 run: each old
text occurs exactly once in its file, and each mutated file still
parses.  A change that moves mutated code carries its mutants along.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# Left out of each copy: version control, caches, and saved test state.
_NOT_COPIED = shutil.ignore_patterns(
    ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".benchmarks", ".bench_*")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


MUTANTS = (
    Mutant(
        "index-shortest-first",
        "src/urdustem/rules.py",
        "        for rule in rules:\n            suffix = rule.kind is AffixKind.SUFFIX\n",
        "        for rule in rules[::-1]:\n            suffix = rule.kind is AffixKind.SUFFIX\n",
        ("tests/test_rules.py::TestRuleSet::test_buckets_index_each_kind_longest_first",
         "tests/test_stemmer.py::TestMarkedWordsAgainstOracle::test_marked_words_match_brute_force",
         "tests/test_cli.py::TestWordListAgainstNaiveStemmer"),
    ),
    Mutant(
        "bucket-miss-returns",
        "src/urdustem/stemmer.py",
        "            if entries is None:  # no pattern at this edge letter: the phase is done\n"
        "                break\n",
        "            if entries is None:\n"
        "                return tuple.__new__(\n"
        "                    StemResult, (word, stem, prefixes or None, suffixes or None, applied, False))\n",
        ("tests/test_stemmer.py::TestPhaseLoop::test_bucket_miss_ends_only_its_phase",),
    ),
    Mutant(
        "normalize-without-final-nfc",
        "src/urdustem/corpus.py",
        '    return unicodedata.normalize("NFC", text)\n',
        "    return text\n",
        ("tests/test_corpus.py::TestNormalize::test_final_nfc_pass_cases",
         "tests/test_corpus.py::TestNormalize::test_matches_reference_on_arabic_block"),
    ),
    Mutant(
        "classify-under-over-swapped",
        "src/urdustem/evaluation.py",
        "    if _proper_subsequence(expected, produced):\n        return _UNDER\n",
        "    if _proper_subsequence(expected, produced):\n        return _OVER\n",
        ("tests/test_evaluation.py::TestClassify::test_under_stemming_documented_example",
         "tests/test_evaluation.py::TestClassifyAgainstClusters::test_class_equals_the_cluster_comparison"),
    ),
    Mutant(
        "classify-ignores-affixes",
        "src/urdustem/evaluation.py",
        "            stem_only or (shown_affix(result.prefix)",
        "            True or (shown_affix(result.prefix)",
        ("tests/test_evaluation.py::TestClassify::test_affix_mismatch_with_equal_stem_is_other",
         "tests/test_evaluation.py::TestClassifyAgainstClusters::test_class_equals_the_cluster_comparison"),
    ),
    Mutant(
        "lexicon-entry-skips-paradigm-check",
        "src/urdustem/morphology.py",
        "        self._inflect(lemma)  # raises ParadigmError outside the paradigm\n",
        "",
        ("tests/test_records.py::TestContract::test_constructor_rejects",
         "tests/test_morphology.py::TestInflectNoun::test_lemma_without_paradigm_rejected",
         "tests/test_morphology.py::TestInflectVerb::test_empty_root_rejected_when_built"),
    ),
    Mutant(
        "verb-forms-with-noun-endings",
        "src/urdustem/morphology.py",
        "_inflect, _endings = staticmethod(inflect_verb), _VERB_ENDINGS\n",
        "_inflect, _endings = staticmethod(inflect_verb), _NOUN_ENDINGS\n",
        ("tests/test_morphology.py::TestGenerateGold::test_verb_entries",
         "tests/test_morphology.py::test_generate_gold_matches_cluster_reference",
         "tests/test_workflow.py::test_console_script_step"
         "[Console script generates gold for every paradigm (pinned SHA-256)]"),
    ),
)


def mutated(mutant: Mutant) -> str:
    """The text of the mutant's file in this tree with the mutant applied."""
    text = (ROOT / mutant.path).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old text occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}, not once")
    return text.replace(mutant.old, mutant.new)


def _copy_tree(into: Path) -> Path:
    copy = into / "tree"
    shutil.copytree(ROOT, copy, ignore=_NOT_COPIED)
    return copy


def _run_tests(tree: Path, ids) -> tuple[int, str]:
    """Run the test *ids* in *tree*: pytest's exit code and output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=tree, env=env, capture_output=True, text=True, timeout=1800,
    )
    return proc.returncode, proc.stdout + proc.stderr


def _failed(test_id: str, output: str) -> bool:
    """Whether pytest's short summary names a failure of *test_id* or of one of its cases."""
    return re.search(rf"^FAILED {re.escape(test_id)}(?:[\[:]| |$)", output, re.M) is not None


def run(mutants) -> list[str]:
    """Run each mutant; the names of those that survive, in whole or in part."""
    ids = list(dict.fromkeys(test_id for m in mutants for test_id in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code, output = _run_tests(_copy_tree(Path(tmp)), ids)
    if code != 0:
        sys.stdout.write(output)
        raise SystemExit("the named tests do not pass on the unmutated tree")
    survivors = []
    for mutant in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            tree = _copy_tree(Path(tmp))
            (tree / mutant.path).write_text(mutated(mutant), encoding="utf-8")
            code, output = _run_tests(tree, mutant.tests)
        alive = [test_id for test_id in mutant.tests if not _failed(test_id, output)]
        if code != 1 or alive:
            survivors.append(mutant.name)
            why = f"pytest exited {code}" if code != 1 else "not killed by " + ", ".join(alive)
            print(f"SURVIVED {mutant.name}: {why}\n{output}", flush=True)
        else:
            print(f"killed   {mutant.name} ({time.perf_counter() - start:.1f} s)", flush=True)
    return survivors


def main(argv) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}; known: {', '.join(by_name)}",
              file=sys.stderr)
        return 2
    survivors = run([by_name[name] for name in argv] or MUTANTS)
    if survivors:
        print(f"{len(survivors)} mutant(s) survived: {', '.join(survivors)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
