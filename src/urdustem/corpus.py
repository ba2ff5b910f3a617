"""Raw-text ingestion: data-file lines, Unicode normalization, tokenization.

Normalization brings text into the same space the rule files live in:
NFC, optionally stripped of Arabic-script diacritics (the harakat
classes), with Arabic presentation letters unified to their Urdu
counterparts per the mapping table shipped in ``data/unify_map.tsv``.
"""

import re
import unicodedata
from collections.abc import Iterator
from enum import Enum
from importlib import resources
from itertools import groupby
from typing import NamedTuple

from urdustem.graphemes import extends_cluster

# Arabic-script combining marks removed by strip_diacritics: tashkeel
# (fathatan..sukun and the small high marks), the superscript alef (Urdu
# khari zabar), Quranic annotation signs, plus the tatweel elongation
# character.
_DIACRITICS = re.compile(
    r"[\u064b-\u065f\u0610-\u061a\u0670\u06d6-\u06dc\u06df-\u06e4\u06e7\u06e8\u06ea-\u06ed\u0640]"
)


def data_lines(text: str) -> Iterator[tuple[int, str]]:
    """Yield ``(lineno, line)`` for each non-blank line of a data file.

    The framing every data file shares (rule, gold, lexicon and the letter
    unification table): a leading UTF-8 byte-order mark is dropped, the
    text is NFC-normalized, lines are split on LF with trailing CRs
    stripped, and whitespace-only lines are skipped.  Line numbers count
    every line from 1.
    """
    text = unicodedata.normalize("NFC", text.removeprefix("\ufeff"))
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if line.strip():
            yield lineno, line


def _load_unify_map() -> dict[str, str]:
    table: dict[str, str] = {}
    text = resources.files("urdustem").joinpath("data/unify_map.tsv").read_text("utf-8")
    for _, line in data_lines(text):
        if line.startswith("#"):
            continue
        src, dst = line.split("\t")[:2]
        table[src] = dst
    return table


_UNIFY = _load_unify_map()
_UNIFIABLE = re.compile("[" + re.escape("".join(_UNIFY)) + "]")


def normalize(text: str, strip_diacritics: bool = True) -> str:
    """Normalize raw text for stemming; idempotent.

    Output is NFC with the letter-unification table applied; when
    *strip_diacritics* is set, the Arabic-block marks in ``_DIACRITICS``
    and tatweel are removed first.  Other marks (Latin U+0301, Arabic
    Extended-A) are kept.
    """
    text = unicodedata.normalize("NFC", text)
    if strip_diacritics:
        text = _DIACRITICS.sub("", text)
    text = _UNIFIABLE.sub(lambda m: _UNIFY[m[0]], text)
    return unicodedata.normalize("NFC", text)


class TokenKind(Enum):
    WORD = "word"
    PUNCT = "punct"
    NUMBER = "number"
    OTHER = "other"


class Token(NamedTuple):
    """One segment of the normalized source, with its UTF-8 byte span."""

    surface: str
    kind: TokenKind
    start: int
    end: int


def _char_class(ch: str) -> TokenKind | None:
    # None = separator (whitespace), never part of a token.
    if ch.isspace():
        return None
    if extends_cluster(ch):
        return TokenKind.WORD  # combining marks and word-internal joiners
    cat = unicodedata.category(ch)
    if cat.startswith("L"):
        return TokenKind.WORD
    if cat == "Nd":
        return TokenKind.NUMBER
    if cat.startswith("P"):
        return TokenKind.PUNCT
    return TokenKind.OTHER


class _ClassCache(dict):
    """``_char_class`` memo for one ``tokenize`` call."""

    def __missing__(self, ch: str) -> TokenKind | None:
        kind = self[ch] = _char_class(ch)
        return kind


# One whitespace-free chunk with the whitespace before it.  ``re``'s \s
# matches exactly the ``str.isspace`` characters, the ones ``_char_class``
# maps to None, so a chunk holds no separator.
_CHUNK = re.compile(r"(\s*)(\S+)")


def tokenize(text: str) -> list[Token]:
    """Segment normalized text into tokens of maximal same-class runs.

    Whitespace separates tokens and is emitted as no token; concatenating
    token surfaces with the skipped separators reconstructs the input.
    The text is cut into whitespace-free chunks first.  A chunk of letters
    only (``str.isalpha``) is one WORD token as it stands, since every
    letter classifies as WORD; any other chunk is split into its runs,
    each distinct character classified once per call.  Raises
    :class:`ValueError` naming the code-point offset of the first lone
    surrogate, which has no UTF-8 byte span.
    """
    tokens: list[Token] = []
    classify = _ClassCache().__getitem__
    offset = 0
    try:
        for gap, chunk in map(re.Match.groups, _CHUNK.finditer(text)):
            offset += len(gap.encode())
            if chunk.isalpha():
                end = offset + len(chunk.encode())
                tokens.append(Token(chunk, TokenKind.WORD, offset, end))
                offset = end
            else:
                for kind, run in groupby(chunk, classify):
                    surface = "".join(run)
                    end = offset + len(surface.encode())
                    tokens.append(Token(surface, kind, offset, end))
                    offset = end
    except UnicodeEncodeError:
        at = next(i for i, ch in enumerate(text) if "\ud800" <= ch <= "\udfff")
        raise ValueError(f"lone surrogate at code-point offset {at}") from None
    return tokens
