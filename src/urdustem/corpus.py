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
    """One maximal same-class run of the normalized source."""

    surface: str
    kind: TokenKind


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


def tokenize(text: str) -> list[Token]:
    """Segment normalized text into tokens of maximal same-class runs.

    Whitespace (``str.isspace``) separates tokens and is emitted as no
    token; concatenating the token surfaces gives the input with its
    whitespace removed.  The text is cut into whitespace-free chunks by
    ``str.split``.  A chunk of letters only (``str.isalpha``) is one WORD
    token as it stands, since every letter classifies as WORD; any other
    chunk is split into its runs, each distinct character classified once
    per call.  A lone surrogate is an OTHER character like any symbol.
    """
    tokens: list[Token] = []
    classify = _ClassCache().__getitem__
    for chunk in text.split():
        if chunk.isalpha():
            tokens.append(Token(chunk, TokenKind.WORD))
        else:
            for kind, run in groupby(chunk, classify):
                tokens.append(Token("".join(run), kind))
    return tokens
