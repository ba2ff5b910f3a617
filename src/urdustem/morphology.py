"""Inflection generator for synthesizing gold corpora.

Implements the one fully specified masculine noun paradigm (lemmas ending
in alif, choti he, or ain), the verb causative triple, and adjective
gender/case agreement.  Lemmas outside these paradigms raise
:class:`ParadigmError` rather than guessing at grammar the generator has
no rules for.

A paradigm is one ``_LexiconEntry`` subclass that names its inflector
(``_inflect``, raising :class:`ParadigmError` outside the paradigm) and
its endings (``_endings``, in the inflector's form order), plus its
lexicon-file category in ``_CATEGORIES``.
"""

from urdustem.corpus import data_lines
from urdustem.evaluation import GoldEntry
from urdustem.record import Record

ALIF = "ا"
CHOTI_HE = "ہ"
AIN = "ع"

YE_BARI = "ے"
WAW = "و"
WAW_NUN_GHUNNA = "وں"
FARSI_YE = "ی"

INFINITIVE = "نا"
DIRECT_CAUSATIVE = "انا"
INDIRECT_CAUSATIVE = "وانا"


class ParadigmError(ValueError):
    """Inflection requested for a paradigm the generator has no rules for."""


# Noun endings (singular nominative, oblique and vocative, then the plural
# three) replace a final alif or he and follow a final ain; None leaves the
# lemma unchanged.  Verb endings (infinitive, direct, indirect causative)
# follow the root; adjective endings (masculine oblique, feminine) replace
# the final alif.
_NOUN_ENDINGS = (None, YE_BARI, None, YE_BARI, WAW_NUN_GHUNNA, WAW)
_VERB_ENDINGS = (INFINITIVE, DIRECT_CAUSATIVE, INDIRECT_CAUSATIVE)
_ADJECTIVE_ENDINGS = (YE_BARI, FARSI_YE)


def inflect_noun(lemma: str) -> tuple[str, ...]:
    """The six case and number forms of a group-1 masculine noun, in ``_NOUN_ENDINGS`` order."""
    if not lemma.endswith((ALIF, CHOTI_HE, AIN)):
        raise ParadigmError(
            f"no paradigm specified for lemma {lemma!r} "
            f"(must end in {ALIF}, {CHOTI_HE} or {AIN})"
        )
    stem = lemma if lemma.endswith(AIN) else lemma[:-1]
    return tuple(lemma if ending is None else stem + ending for ending in _NOUN_ENDINGS)


def inflect_verb(root: str) -> tuple[str, str, str]:
    """Build the (infinitive, direct causative, indirect causative) triple."""
    if not root:
        raise ParadigmError("verb root must be non-empty")
    return tuple(root + ending for ending in _VERB_ENDINGS)


def inflect_adjective(lemma: str) -> tuple[str, str]:
    """Masculine-oblique and feminine agreement forms of an alif-final adjective."""
    if not lemma.endswith(ALIF):
        raise ParadigmError(f"paradigm not specified for adjective {lemma!r} (must end in {ALIF})")
    return tuple(lemma[:-1] + ending for ending in _ADJECTIVE_ENDINGS)


class _LexiconEntry(Record):
    __slots__ = _fields = ("lemma",)

    def __init__(self, lemma: str) -> None:
        if not isinstance(lemma, str):
            raise ParadigmError(f"lemma {lemma!r} has type {type(lemma).__name__}, not str")
        self._inflect(lemma)  # raises ParadigmError outside the paradigm
        self._set(lemma=lemma)


class ParadigmEntry(_LexiconEntry):
    """A group-1 masculine noun lemma (singular nominative) ending in alif, he or ain."""

    __slots__ = ()
    _inflect, _endings = staticmethod(inflect_noun), _NOUN_ENDINGS

    @classmethod
    def from_lemma(cls, lemma: str) -> "ParadigmEntry":
        """The entry for *lemma*; the same as ``ParadigmEntry(lemma)``."""
        return cls(lemma)


class VerbRoot(_LexiconEntry):
    __slots__ = ()
    _inflect, _endings = staticmethod(inflect_verb), _VERB_ENDINGS


class Adjective(_LexiconEntry):
    """An adjective lemma ending in alif (masculine direct form)."""

    __slots__ = ()
    _inflect, _endings = staticmethod(inflect_adjective), _ADJECTIVE_ENDINGS


def generate_gold(lexicon) -> list[GoldEntry]:
    """Expand a lexicon of nouns, verb roots and adjectives into gold entries.

    Output order is lexicon order crossed with each paradigm's form order,
    the order its inflector returns them in; the expected stem is always
    the citation form (lemma/root), and the expected suffix the ending the
    inflector added (none for an unchanged form).  That ending is exactly
    the surface past its common grapheme prefix with the lemma: every
    ending starts with a letter, and one that replaces a final alif or he
    starts with another letter (ain nouns and verbs only append).
    """
    entries: list[GoldEntry] = []
    for item in lexicon:
        if not isinstance(item, _LexiconEntry):
            raise ParadigmError(f"unsupported lexicon item {item!r}")
        entries.extend(GoldEntry(s, item.lemma, expected_suffix=e)
                       for s, e in zip(item._inflect(item.lemma), item._endings))
    return entries


_CATEGORIES = {"noun": ParadigmEntry, "verb": VerbRoot, "adj": Adjective}


def parse_lexicon_file(text: str):
    """Parse a lexicon TSV: lines of ``noun|verb|adj <TAB> lemma``.

    Lines are framed by :func:`urdustem.corpus.data_lines`, as rule and
    gold lines are, then trimmed, and so is the lemma; ``#`` starts a
    comment, and a CR inside a line is rejected.  So is a lemma that
    starts with ``#``: its gold lines would read as comments.
    """
    items = []
    lines = data_lines(text, lambda message, lineno: ParadigmError(f"line {lineno}: {message}"))
    for lineno, line in lines:
        line = line.strip()
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        try:
            if len(fields) != 2:
                raise ParadigmError("expected 'category<TAB>lemma'")
            category, lemma = fields[0], fields[1].strip()
            if lemma.startswith("#"):
                raise ParadigmError(f"lemma {lemma!r} starts with '#', "
                                    "which a gold file reads as a comment")
            if category not in _CATEGORIES:
                raise ParadigmError(f"unknown category {category!r}")
            items.append(_CATEGORIES[category](lemma))
        except ParadigmError as exc:
            raise ParadigmError(f"line {lineno}: {exc}") from None
    return items
