"""Brute-force stemming oracle, kept independent of the engine.

Works on raw code points (test alphabets contain no combining marks, so
code points and graphemes coincide) and re-derives the scan order itself:
try every rule of the active kind in descending pattern length, source
order on ties, and apply the first one that matches at the word edge and
leaves a long enough residual.  :class:`ClusterCodes` recodes words with
marks and joiners so that the same oracle applies to them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class NaiveRule:
    kind: str  # "P" or "S"
    pattern: str
    replacement: str = ""
    min_stem: int | None = None


class ClusterCodes:
    """Maps each grapheme cluster, as *split* cuts text, to one private-use
    code point, the same one every time, so that :func:`naive_stem`, which
    counts code points, applies to words with marks and joiners.

    ``codes(text)`` maps a text (``None`` stays ``None``); ``codes.rules``
    maps engine rules (anything with ``kind.value``, ``pattern``,
    ``replacement`` and ``min_stem``) to :class:`NaiveRule`.
    """

    def __init__(self, split):
        self.split = split
        self.code_points: dict[str, str] = {}

    def __call__(self, text):
        if text is None:
            return None
        code_points = self.code_points
        return "".join(
            code_points.setdefault(c, chr(0xE000 + len(code_points))) for c in self.split(text)
        )

    def rules(self, rules) -> list[NaiveRule]:
        return [NaiveRule(r.kind.value, self(r.pattern), self(r.replacement), r.min_stem)
                for r in rules]


def naive_stem(
    word: str,
    rules: list[NaiveRule],
    exceptions: frozenset[str] = frozenset(),
    default_min_stem: int = 2,
    suffix_passes: int = 1,
    prefix_passes: int = 1,
    order: str = "suffix-first",
):
    """Return (prefix, stem, suffix, exception_hit, applied_ids)."""
    if word in exceptions:
        return (None, word, None, True, ())

    def first_legal(working: str, kind: str):
        candidates = sorted(
            (r for r in rules if r.kind == kind), key=lambda r: -len(r.pattern)
        )
        for r in candidates:
            min_stem = r.min_stem if r.min_stem is not None else default_min_stem
            if len(working) - len(r.pattern) < min_stem:
                continue
            if kind == "S" and working.endswith(r.pattern):
                return r, working[: len(working) - len(r.pattern)] + r.replacement
            if kind == "P" and working.startswith(r.pattern):
                return r, r.replacement + working[len(r.pattern):]
        return None

    phases = [("S", suffix_passes), ("P", prefix_passes)]
    if order == "prefix-first":
        phases.reverse()

    working = word
    prefix_parts: list[str] = []
    suffix_parts: list[str] = []
    applied: list[str] = []
    for kind, passes in phases:
        for _ in range(passes):
            hit = first_legal(working, kind)
            if hit is None:
                break
            rule, working_next = hit
            applied.append(f"{rule.kind}:{rule.pattern}")
            if kind == "S":
                suffix_parts.insert(0, rule.pattern)
            else:
                prefix_parts.append(rule.pattern)
            working = working_next

    return (
        "".join(prefix_parts) or None,
        working,
        "".join(suffix_parts) or None,
        False,
        tuple(applied),
    )
