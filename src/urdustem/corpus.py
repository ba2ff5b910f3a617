"""Raw-text ingestion: data-file lines, Unicode normalization, tokenization.

Normalization brings text into the same space the rule files live in:
NFC, optionally stripped of Arabic-script diacritics (the harakat
classes), with Arabic letters unified to their Urdu counterparts per
``_UNIFY`` by ``str.replace``.  Tokenization splits text on whitespace,
and a chunk that is not letters-only by one ``str.translate`` through
``_WORD_CHARS``, which turns every non-word character into a space.
"""

import re
import unicodedata
from collections.abc import Iterator
from itertools import dropwhile

from urdustem.graphemes import extends_cluster

# Arabic-script combining marks removed by strip_diacritics: tashkeel
# (fathatan..sukun and the small high marks), the superscript alef (Urdu
# khari zabar), Quranic annotation signs, plus the tatweel elongation
# character.
_DIACRITICS = re.compile(
    r"[\u064b-\u065f\u0610-\u061a\u0670\u06d6-\u06dc\u06df-\u06e4\u06e7\u06e8\u06ea-\u06ed\u0640]"
)


# Arabic letter -> the Urdu letter that normalize writes for it.
_UNIFY = {
    "\u064a": "\u06cc",  # ARABIC LETTER YEH -> ARABIC LETTER FARSI YEH
    "\u0649": "\u06cc",  # ARABIC LETTER ALEF MAKSURA -> ARABIC LETTER FARSI YEH
    "\u0643": "\u06a9",  # ARABIC LETTER KAF -> ARABIC LETTER KEHEH
    "\u0647": "\u06c1",  # ARABIC LETTER HEH -> ARABIC LETTER HEH GOAL
    "\u0629": "\u06c1",  # ARABIC LETTER TEH MARBUTA -> ARABIC LETTER HEH GOAL
    "\u06c3": "\u06c1",  # ARABIC LETTER TEH MARBUTA GOAL -> ARABIC LETTER HEH GOAL
}


def normalize(text: str, strip_diacritics: bool = True) -> str:
    """Normalize raw text for stemming; idempotent.

    Output is NFC with the letter-unification table applied; when
    *strip_diacritics* is set, the Arabic-block marks in ``_DIACRITICS``
    and tatweel are removed first.  Other marks (Latin U+0301, Arabic
    Extended-A) are kept.  Each ``_UNIFY`` letter is replaced by one
    ``str.replace``, one scan that returns the text itself if it is absent;
    the order does not matter, as no Urdu letter written is itself a key.
    """
    text = unicodedata.normalize("NFC", text)
    if strip_diacritics:
        text = _DIACRITICS.sub("", text)
    for arabic, urdu in _UNIFY.items():
        text = text.replace(arabic, urdu)
    return unicodedata.normalize("NFC", text)


def data_lines(text: str, error, strip_diacritics: bool = False) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each non-blank line of a data file.

    The framing every data file shares (rule, gold and lexicon): one leading
    UTF-8 byte-order mark is dropped, letters are unified as ``stem``
    unifies them, marks kept unless *strip_diacritics* is set (one
    ``normalize(text, strip_diacritics)`` pass), lines are split on LF
    with trailing CRs stripped, and whitespace-only lines are skipped.
    A CR left inside a non-blank line raises ``error("CR inside a line",
    lineno)``, *error* being the reader's own error type.  Line numbers
    count every line from 1.
    """
    text = normalize(text.removeprefix("\ufeff"), strip_diacritics)
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if line and not line.isspace():
            if "\r" in line:
                raise error("CR inside a line", lineno)
            yield lineno, line


class _WordChars(dict):
    """``str.translate`` table, filled on first use: a word character (a
    letter, or a mark or joiner that ``extends_cluster``) maps to itself,
    any other code point to a space."""

    def __missing__(self, cp: int) -> int:
        ch = chr(cp)
        self[cp] = cp if ch.isalpha() or extends_cluster(ch) else 0x20
        return self[cp]


_WORD_CHARS = _WordChars()


def _chunk_words(chunk: str) -> list[str]:
    """The words of a chunk that is not letters-only."""
    # No word character is whitespace, so split() cuts exactly at the
    # characters that the table made spaces.
    words = []
    for run in chunk.translate(_WORD_CHARS).split():
        if not run[0].isalpha():
            # Marks and joiners that no letter precedes are dropped.
            run = "".join(dropwhile(extends_cluster, run))
        if run:
            words.append(run)
    return words


def tokenize(text: str, chunk_words: dict[str, list[str]] | None = None) -> list[str]:
    """Return the words of normalized text, in order.

    A word starts with a letter (``str.isalpha``, category L*) and runs on
    over letters, combining marks and ZWNJ/ZWJ (``graphemes.extends_cluster``);
    every other character, whitespace, digits, punctuation, symbols and lone
    surrogates alike, ends a word and is dropped, and so are marks and
    joiners that no letter precedes within the run.  The text is cut into
    whitespace-free chunks by ``str.split``.  A chunk of letters only is one
    word as it stands; any other chunk, each distinct one once per call, or
    once per *chunk_words*, any dict that the caller keeps across calls, is
    split into its runs of word characters by one ``str.translate`` through
    ``_WORD_CHARS`` and a second ``str.split``, and each run loses its
    leading marks and joiners.
    """
    words: list[str] = []
    if chunk_words is None:
        chunk_words = {}
    for chunk in text.split():
        if chunk.isalpha():
            words.append(chunk)
        elif chunk in chunk_words:
            words += chunk_words[chunk]
        else:
            words += chunk_words.setdefault(chunk, _chunk_words(chunk))
    return words
