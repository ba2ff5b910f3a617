"""Affix stripping by longest-first edge matching.

The engine looks the word's edge letter up in the rule set's pattern
index, tries its patterns longest first in grapheme clusters, and
detaches the first affix found at the edge that leaves a long-enough
residual stem (``stem_word`` says why that is the longest match).  A word
matching nothing is returned unchanged; exception-listed words are
returned verbatim before any rule is consulted.  A recoded stem is
renormalized to NFC.  Every pass runs inside ``stem_word``'s own loop and
probes the stem string itself, cutting it only for the affix it takes.
``StemConfig.phases`` holds all a pass needs from the config (its edge
index, pass range and probe), so a pass does no set-up of its own, and a
stem whose edge letter has no pattern ends its phase at one dict lookup.
A letters-only stem's clusters are its code points; any other stem's are
counted only once a pattern sits at its edge, and then carried as
arithmetic until a recoding.  ``stem_batch`` stems each distinct word
once, so repeats share one :class:`StemResult`.
"""

import unicodedata
from typing import NamedTuple

from urdustem import graphemes
from urdustem.record import Record
from urdustem.rules import RuleSet

MAX_PASSES = 4

SUFFIX_FIRST = "suffix-first"
PREFIX_FIRST = "prefix-first"


class StemError(ValueError):
    """Invalid stemmer input (a word that is not a str, empty or not NFC)."""


class StemConfig(Record):
    """How many affixes may be detached, and in which order.

    The defaults (one suffix, then one prefix) reproduce the behaviour of
    a single-strip stemmer while still letting words that carry both a
    prefix and a suffix shed both.  ``phases`` (not a field) holds a
    ``(suffix, edge, range(passes), probe)`` tuple for each phase with
    passes, in the order they run: ``edge`` indexes the stem's edge
    letter (``-1`` or ``0``) and ``probe`` is ``str.removesuffix`` or
    ``str.removeprefix``.
    """

    __slots__ = ("max_suffix_passes", "max_prefix_passes", "order", "phases")
    _fields = __slots__[:3]

    def __init__(
        self, max_suffix_passes: int = 1, max_prefix_passes: int = 1, order: str = SUFFIX_FIRST
    ) -> None:
        for n in (max_suffix_passes, max_prefix_passes):
            if type(n) is not int or n < 0 or n > MAX_PASSES:  # a bool is not a count
                raise ValueError(f"passes must be an int in 0..{MAX_PASSES}, got {n!r}")
        if order not in (SUFFIX_FIRST, PREFIX_FIRST):
            raise ValueError(f"order must be {SUFFIX_FIRST!r} or {PREFIX_FIRST!r}")
        # Not str.endswith/startswith: in CPython 3.11 those calls parse a
        # varargs tuple, several times the cost of a removesuffix that
        # misses.  Unbound, so that a pass binds no method to its stem.
        phases = ((True, -1, range(max_suffix_passes), str.removesuffix),
                  (False, 0, range(max_prefix_passes), str.removeprefix))
        if order == PREFIX_FIRST:
            phases = phases[::-1]
        self._set(max_suffix_passes=max_suffix_passes, max_prefix_passes=max_prefix_passes,
                  order=order, phases=tuple(phase for phase in phases if phase[2]))


DEFAULT_CONFIG = StemConfig()


class StemResult(NamedTuple):
    """The (prefix, stem, suffix) decomposition of one word, immutable.

    ``applied`` lists the fired rule ids in application order; it is empty
    for pass-through words and exception hits.
    """

    word: str
    stem: str
    prefix: str | None = None
    suffix: str | None = None
    applied: tuple[str, ...] = ()
    exception_hit: bool = False

    @property
    def is_pass_through(self) -> bool:
        return self.prefix is None and self.suffix is None and not self.exception_hit


def shown_affix(affix: str | None) -> str:
    """An affix as ``stem`` prints and ``eval`` compares it: ends trimmed, ``""`` for none."""
    return (affix or "").strip()


def stem_word(word: str, rs: RuleSet, cfg: StemConfig = DEFAULT_CONFIG) -> StemResult:
    """Decompose one word into (prefix, stem, suffix).

    The word must be a non-empty, NFC-normalized str (see
    :func:`urdustem.corpus.normalize`).

    Each ``(suffix, edge, passes, probe)`` phase of ``cfg.phases`` runs
    its passes in turn.  A pass looks the stem's edge letter,
    ``stem[edge]``, up in ``RuleSet.buckets``; with no pattern there the
    phase is done, and the next phase runs.  Otherwise it tries those
    patterns, most grapheme clusters first, each with ``probe`` (the
    unbound ``str.removesuffix`` or ``str.removeprefix``), which leaves a
    stem that lacks the pattern as it is and cuts only one that has it;
    a pass that takes none also ends its phase.  A match is
    taken only if the stem's *n* clusters reach the rule's minimum, which
    leaves at least one (``min_stem >= 1``), so the stem is never empty,
    and only where it cuts between two clusters: a suffix pattern starts
    with a non-extender (``AffixRule`` rejects the others), and a prefix
    cut is refused when the residual starts with an extender, which a
    letters-only stem never holds; else the scan goes on.  So every cut
    takes whole clusters and leaves ``n - rule.pattern_length`` of them,
    and of two patterns that both cut whole clusters from one stem the
    longer holds more clusters: the first match taken is the longest.  A
    stem that is not letters-only has its clusters counted when a pattern
    first sits at its edge, and a recoding makes the stem's count and
    letters-only flag afresh, after NFC, since a replacement may hold a
    mark, or start with one that composes with the residual (e.g. alif +
    maddah).
    """
    try:  # caught, not checked first, so a str pays nothing
        nfc = unicodedata.is_normalized("NFC", word)
        exception = word in rs.exceptions  # a str subclass may be unhashable
    except TypeError:
        raise StemError(f"word {word!r} has type {type(word).__name__}, not str") from None
    if not word:
        raise StemError("cannot stem an empty word")
    if not nfc:
        raise StemError(f"word {word!r} is not NFC; normalize it with urdustem.corpus.normalize")

    if exception:
        return StemResult(word=word, stem=word, exception_hit=True)

    # A letters-only stem's clusters are its code points, and none of them
    # extends a cluster; any other stem's clusters are counted (n is -1
    # until then) only once a pattern sits at its edge.
    letters = word.isalpha()
    stem, n = word, len(word) if letters else -1
    applied = ()
    prefixes = suffixes = ""
    for suffix, edge, passes, probe in cfg.phases:
        buckets = rs.buckets[suffix]
        for _ in passes:
            entries = buckets.get(stem[edge])
            if entries is None:  # no pattern at this edge letter: the phase is done
                break
            for pattern, rule, min_clusters in entries:
                rest = probe(stem, pattern)
                if rest == stem:  # the pattern is not at the edge
                    continue
                if n < 0:
                    n = graphemes.count(stem)
                if n < min_clusters:
                    continue
                if not (suffix or letters) and graphemes.extends_cluster(rest[0]):
                    continue
                if rule.replacement:
                    stem = unicodedata.normalize(
                        "NFC", rest + rule.replacement if suffix else rule.replacement + rest)
                    letters = stem.isalpha()
                    n = len(stem) if letters else -1
                else:
                    stem, n = rest, n - rule.pattern_length
                applied += (rule.rule_id,)
                if suffix:
                    # Later-stripped suffixes sit closer to the stem, i.e.
                    # earlier in logical order.
                    suffixes = pattern + suffixes
                else:
                    prefixes += pattern
                break
            else:  # no rule matched: this phase is done
                break

    # Built positionally in C: the NamedTuple's keyword-parsing __new__ is
    # Python code, several times the cost of tuple.__new__ per word.
    return tuple.__new__(
        StemResult, (word, stem, prefixes or None, suffixes or None, applied, False)
    )


def stem_batch(words, rs: RuleSet, cfg: StemConfig = DEFAULT_CONFIG) -> list[StemResult]:
    """Stem an iterable of words (not a ``str``), order-preserving.

    Each distinct word is stemmed once, in order of first occurrence, and
    its repeats share that one (immutable) result.  A per-word error is
    re-raised with the index of the word's first occurrence.
    """
    if isinstance(words, str):
        raise StemError("a str is not a list of words; split it with urdustem.corpus.tokenize")
    words = list(words)
    try:
        distinct = dict.fromkeys(words)
    except TypeError:  # an unhashable word, which stem_word rejects, as every bad word
        distinct = words
    results: dict[str, StemResult] = {}
    for word in distinct:
        try:
            results[word] = stem_word(word, rs, cfg)
        except StemError as exc:
            raise StemError(f"word {words.index(word)}: {exc}") from exc
    return list(map(results.__getitem__, words))
