"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same Python code runs up to 1.6 times faster or
slower for stretches of tens of seconds, depending on what the
neighbours are doing.  A run's median wall time then says more about the
neighbours than about the program.  The benchmark therefore times this
fixed loop, which does the kind of work the stemmer does (grapheme
splitting with ``unicodedata``, edge lookups in a set, small frozen
dataclasses, dict counting, string joins), right before and after every
measured call, and reports each time in *reference seconds*:

    reference seconds = wall seconds * CAL_REF_S / calibration seconds

``CAL_REF_S`` is about the loop's time on the machine the baseline in
``README.md`` was measured on (its run medians were 0.020-0.030 s), so
there a reference second is about a wall second.  The loop is part of the benchmark and must not change with the
program; changing it re-bases every number.
"""

import unicodedata
from dataclasses import dataclass
from time import perf_counter

CAL_REF_S = 0.030

_WORDS = ["".join(chr(0x628 + (i * 7 + j * 3) % 30) for j in range(3 + i % 5)) for i in range(500)]
_AFFIXES = frozenset({"ا", "ے", "وں", "یاں", "ات", "ی"})


@dataclass(frozen=True)
class _Pair:
    word: str
    stem: str


def calibrate() -> float:
    """Wall seconds of one pass of the fixed calibration loop."""
    t0 = perf_counter()
    lines, counts = [], {}
    for _ in range(12):
        for word in _WORDS:
            clusters: list[str] = []
            for ch in word:
                if clusters and unicodedata.category(ch).startswith("M"):
                    clusters[-1] += ch
                else:
                    clusters.append(ch)
            for k in (3, 2, 1):
                if "".join(clusters[-k:]) in _AFFIXES:
                    break
            pair = _Pair(word, "".join(clusters[:-1]))
            counts[word] = counts.get(word, 0) + 1
            lines.append("\t".join((pair.word, pair.stem)))
    "\n".join(lines)
    return perf_counter() - t0
