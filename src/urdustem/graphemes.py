"""Grapheme-cluster helpers.

All length comparisons in this package are in user-perceived characters,
not code points: an Urdu base letter plus any trailing combining marks
counts as one unit.  The segmentation here is deliberately small -- a
cluster is a base character followed by Unicode mark characters (category
M*) and the zero-width (non-)joiners, which is sufficient for
Perso-Arabic text.  Text made only of letters (``str.isalpha``, category
L*) has no extender, so ``split`` returns its code points and ``count``
their number, without the per-character loop; the stemmer counts a
word's clusters once and never splits letters-only text.
"""

import unicodedata

ZWNJ = "\u200c"
ZWJ = "\u200d"

_EXTENDERS = {ZWNJ, ZWJ}


def split(text: str) -> list[str]:
    """Split *text* into grapheme clusters."""
    if text.isalpha():
        # Every code point is L*; extenders are M*, ZWNJ and ZWJ (Cf).
        return list(text)
    clusters: list[str] = []
    for ch in text:
        if clusters and extends_cluster(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def extends_cluster(ch: str) -> bool:
    """Whether *ch* joins the preceding cluster instead of starting one."""
    return ch in _EXTENDERS or unicodedata.category(ch).startswith("M")


def count(text: str) -> int:
    """Number of grapheme clusters in *text*."""
    return len(text) if text.isalpha() else len(split(text))
