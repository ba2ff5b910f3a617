"""Accuracy metric and error taxonomy for stemmer output.

Accuracy is ``correct / total * 100`` in exact rational arithmetic.
Each wrong answer is classified by comparing grapheme clusters:
under-stemming when the expected stem's clusters occur in order, gaps
allowed, inside the produced stem and are fewer; over-stemming when the
produced stem's clusters occur that way inside the expected stem; other
when neither holds (e.g. a recoding divergence).  Two stems made only of
letters are compared by code point, which gives the same result, since
the clusters of letters-only text are its code points; there a substring
is tried first, as a substring is a subsequence.  ``evaluate`` classifies
each distinct (result, gold) pair once and counts it as often as it occurs.
"""

import json
from collections import Counter
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from urdustem import graphemes
from urdustem.corpus import data_lines
from urdustem.stemmer import StemResult, shown_affix


class GoldFileError(ValueError):
    """A malformed gold-corpus line."""

    def __init__(self, message: str, line: int):
        self.line = line
        super().__init__(f"line {line}: {message}")


class EvalError(ValueError):
    """Results and gold entries that cannot be evaluated together."""


class GoldEntry(NamedTuple):
    """A word and its expected decomposition; ``evaluate`` rejects an empty word or stem."""

    word: str
    expected_stem: str
    expected_prefix: str | None = None
    expected_suffix: str | None = None


class ErrorClass(Enum):
    CORRECT = "correct"
    OVER_STEMMING = "over-stemming"
    UNDER_STEMMING = "under-stemming"
    OTHER = "other"


# Bound once: reading ErrorClass.CORRECT costs about 141 ns on Python 3.10,
# 101 ns on 3.11 and 25 ns on 3.12 and 3.13, a module global 6 ns.
_CORRECT, _OVER, _UNDER, _OTHER = (
    ErrorClass.CORRECT, ErrorClass.OVER_STEMMING, ErrorClass.UNDER_STEMMING, ErrorClass.OTHER)


class EvalReport(NamedTuple):
    """Counts and exact accuracy for one evaluation run, immutable."""

    total_words: int
    correct: int
    wrong: int
    unique_correct: int
    pass_through_count: int
    accuracy_percent: Fraction
    over_count: int
    under_count: int
    other_count: int
    min_word_len: int
    max_word_len: int


def _is_correct(result: StemResult, gold: GoldEntry, stem_only: bool) -> bool:
    """Stems compare as they are; affixes as ``stem`` prints them."""
    if result.stem != gold.expected_stem:
        return False
    return stem_only or (shown_affix(result.prefix) == shown_affix(gold.expected_prefix)
                         and shown_affix(result.suffix) == shown_affix(gold.expected_suffix))


def _proper_subsequence(needle, haystack) -> bool:
    """True when the clusters of *needle* occur in order (gaps allowed)
    in *haystack* and *needle* has fewer clusters.

    Both are lists of clusters, or both are letters-only strings, whose
    code points are their clusters, so a substring is a subsequence.
    """
    if len(needle) >= len(haystack):
        return False
    if isinstance(needle, str) and needle in haystack:
        return True
    it = iter(haystack)
    return all(g in it for g in needle)


def classify_error(result: StemResult, gold: GoldEntry, stem_only: bool = False) -> ErrorClass:
    """Classify one (result, gold) pair.

    Under-stemming: the expected stem is a proper in-order grapheme
    subsequence of the produced stem (too little was removed).
    Over-stemming: the produced stem is a proper in-order grapheme
    subsequence of the expected stem (too much was removed, contiguously
    or from the interior).  At most one holds, since each needs the
    needle to be strictly shorter; anything else wrong is "other".
    """
    if result.word != gold.word:
        raise EvalError(f"result word {result.word!r} does not match gold word {gold.word!r}")
    if not gold.word or not gold.expected_stem:
        raise EvalError("gold word and expected_stem must be non-empty")
    if _is_correct(result, gold, stem_only):
        return _CORRECT
    expected, produced = gold.expected_stem, result.stem
    if not (expected.isalpha() and produced.isalpha()):
        expected, produced = graphemes.split(expected), graphemes.split(produced)
    if _proper_subsequence(expected, produced):
        return _UNDER
    if _proper_subsequence(produced, expected):
        return _OVER
    return _OTHER


def evaluate(results, gold, stem_only: bool = False) -> EvalReport:
    """Score aligned stemmer output against gold decompositions.

    Results and gold entries must be hashable, as ``stem_word`` and
    ``parse_gold_file`` build them: each distinct (result, gold) pair is
    classified once and weighted by its count.  An error names the first
    entry that holds the bad pair.
    """
    results = list(results)
    gold = list(gold)
    if len(results) != len(gold):
        raise EvalError(f"{len(results)} results vs {len(gold)} gold entries")
    if not gold:
        raise EvalError("accuracy is undefined for an empty evaluation set")

    correct_types: set[str] = set()
    correct = over = under = pass_through = 0
    for (r, g), n in Counter(zip(results, gold)).items():
        try:
            cls = classify_error(r, g, stem_only)
        except EvalError as exc:
            raise EvalError(f"entry {list(zip(results, gold)).index((r, g))}: {exc}") from exc
        # Tallied by identity: an Enum member's __hash__ is Python code.
        if cls is _CORRECT:
            correct += n
            correct_types.add(g.word)
            if r.is_pass_through:
                pass_through += n
        elif cls is _OVER:
            over += n
        elif cls is _UNDER:
            under += n

    lengths = [graphemes.count(w) for w in {g.word for g in gold}]
    total = len(gold)
    return EvalReport(
        total_words=total,
        correct=correct,
        wrong=total - correct,
        unique_correct=len(correct_types),
        pass_through_count=pass_through,
        accuracy_percent=Fraction(correct, total) * 100,
        over_count=over,
        under_count=under,
        other_count=total - correct - over - under,
        min_word_len=min(lengths),
        max_word_len=max(lengths),
    )


def format_percent(value: Fraction) -> str:
    """Render an exact percentage to one decimal place, half-up."""
    whole = int(value * 10 + Fraction(1, 2))  # value >= 0, so int() floors
    return f"{whole // 10}.{whole % 10}"


# (EvalReport attribute, report_kv key, summary label), in summary row
# order.  report_kv and report_json list the same fields in EvalReport's
# field order; both orders are part of the CLI's output.
_REPORT_FIELDS = (
    ("total_words", "total_words", "Total Words"),
    ("correct", "correct", "Correct stemmed output"),
    ("wrong", "wrong", "Wrong output"),
    ("unique_correct", "unique_correct", "Unique Words"),
    ("min_word_len", "min_word_len", "Min Length"),
    ("max_word_len", "max_word_len", "Max Length"),
    ("accuracy_percent", "accuracy_percent", "Accuracy (%)"),
    ("over_count", "over_stemming", "Over-stemming errors"),
    ("under_count", "under_stemming", "Under-stemming errors"),
    ("other_count", "other_errors", "Other errors"),
    ("pass_through_count", "pass_through", "Pass-through words"),
)
_KV_KEYS = {attr: key for attr, key, _ in _REPORT_FIELDS}


def _rendered(report: EvalReport) -> dict:
    """Field values as printed, in EvalReport field order."""
    return {k: format_percent(v) if isinstance(v, Fraction) else v
            for k, v in report._asdict().items()}


def summarize(report: EvalReport) -> str:
    """Plain-text summary table, deterministic."""
    values = _rendered(report)
    width = max(len(label) for _, _, label in _REPORT_FIELDS)
    return "".join(f"{label:<{width}}  {values[attr]}\n" for attr, _, label in _REPORT_FIELDS)


def report_kv(report: EvalReport) -> str:
    """Machine-readable key-value block, one ``key<TAB>value`` per line."""
    return "".join(f"{_KV_KEYS[attr]}\t{value}\n" for attr, value in _rendered(report).items())


def report_json(report: EvalReport) -> str:
    """The report as one JSON line keyed by EvalReport attribute."""
    return json.dumps(_rendered(report)) + "\n"


def parse_gold_file(text: str, strip_diacritics: bool = False) -> list[GoldEntry]:
    """Parse a gold-corpus TSV: ``word  stem  [prefix]  [suffix]``.

    Empty affix fields mean "no affix expected".  ``#`` starts a comment.
    The word is trimmed, as ``stem --pretokenized`` trims a line, and
    may not then start with ``#``.
    Lines are framed by :func:`urdustem.corpus.data_lines`, which unifies
    letters as ``stem`` does, and strips harakat from every field when
    *strip_diacritics* is set, as ``stem`` does by default (``eval``
    passes its ``--strip-diacritics``); a CR inside a line is rejected.
    Each distinct line is parsed once: repeated lines share one entry.
    """
    entries: list[GoldEntry] = []
    # Good lines only, so the first bad line raises with its own number.
    parsed: dict[str, GoldEntry] = {}
    for lineno, line in data_lines(text, GoldFileError, strip_diacritics):
        entry = parsed.get(line)
        if entry is None:
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:  # a 4-field line, as gold_to_tsv writes, unpacks as it is
                if len(fields) < 2 or len(fields) > 4:
                    raise GoldFileError(f"expected 2-4 tab-separated fields, got {len(fields)}", lineno)
                fields += [""] * (4 - len(fields))
            word, stem, prefix, suffix = fields
            word = word.strip()
            if not word or not stem:
                raise GoldFileError("gold word and expected_stem must be non-empty", lineno)
            if word.startswith("#"):  # indented; written back, it would read as a comment
                raise GoldFileError(f"word {word!r} starts with '#', which reads as a comment", lineno)
            # Built positionally in C, as stem_word builds its StemResult.
            entry = parsed[line] = tuple.__new__(
                GoldEntry, (word, stem, prefix or None, suffix or None))
        entries.append(entry)
    return entries


def gold_to_tsv(entries) -> str:
    """Render gold entries in the gold-corpus TSV format."""
    lines = [
        "\t".join((e.word, e.expected_stem, e.expected_prefix or "", e.expected_suffix or ""))
        for e in entries
    ]
    return "".join(line + "\n" for line in lines)
