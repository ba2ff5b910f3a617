"""Grapheme-cluster helpers.

All length comparisons in this package are in user-perceived characters,
not code points: an Urdu base letter plus any trailing combining marks
counts as one unit.  The segmentation here is deliberately small -- a
cluster is a base character followed by Unicode mark characters (category
M*) and the zero-width (non-)joiners, which is sufficient for
Perso-Arabic text.  Whether a code point extends a cluster is decided
once, in one table that ``str.translate`` also reads to delete extenders:
``count`` never splits.  Text made only of letters (``str.isalpha``,
category L*) has no extender, so its clusters are its code points and
``count`` returns their number.
"""

import unicodedata

ZWNJ = "\u200c"
ZWJ = "\u200d"


class _ExtenderTable(dict):
    """Code point -> ``None`` for an extender, else itself; filled on first sight."""

    def __missing__(self, cp: int) -> int | None:
        ch = chr(cp)
        self[cp] = None if ch in (ZWNJ, ZWJ) or unicodedata.category(ch).startswith("M") else cp
        return self[cp]


_DROP_EXTENDERS = _ExtenderTable()


def split(text: str) -> list[str]:
    """Split *text* into grapheme clusters."""
    clusters: list[str] = []
    for ch in text:
        if clusters and extends_cluster(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def extends_cluster(ch: str) -> bool:
    """Whether *ch* joins the preceding cluster instead of starting one."""
    return _DROP_EXTENDERS[ord(ch)] is None


def count(text: str) -> int:
    """Number of grapheme clusters in *text*."""
    if text.isalpha():
        return len(text)
    # Each non-extender starts a cluster, and so does a leading extender.
    return len(text.translate(_DROP_EXTENDERS)) + (text != "" and extends_cluster(text[0]))
