"""Seeded input generators for the benchmark workloads.

Each workload is built from a seed alone: the same seed gives the same
bytes.  The program under test only ever sees the generated file; the
generator also keeps what it knows about that file (the word sequence the
CLI must echo back, the gold entries) so the checks can be independent of
the program's own parsing.

Workloads, and why each was chosen:

* ``stem-text``: running text through the default pipeline (normalize,
  tokenize, TSV).  The common real use: normalize and tokenize do real
  work, tokens repeat with Zipf weights, and no combining marks reach the
  stemmer because diacritics are stripped.
* ``stem-wordlist``: distinct pretokenized words with marks kept, two
  suffix and two prefix passes, the exception list and JSON output.  It
  isolates the stemmer on its hardest path: no repeats, no tokenization,
  and a third of the words take the slow grapheme path.
* ``eval-gold``: a gold TSV scored by ``eval``.  The only workload that
  parses gold files and runs ``evaluate``.
"""

import random
import sys
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = SRC / "urdustem" / "data"
TESTS = ROOT / "tests"

DEFAULT_SEED = 1

# Base letters only; the harakat, ZWNJ and Arabic letter variants are added
# as decorations where a workload wants them.
LETTERS = "ابپتٹجچخدڈرڑزسشعغفقکگلمنوہیھ"
HARAKAT = "\u064b\u064e\u064f\u0650\u0651\u0652"  # tanwin fatha, fatha, damma, kasra, shadda, sukun
TATWEEL = "\u0640"
ZWNJ = "\u200c"
MARKERS = frozenset(HARAKAT) | {ZWNJ, "\u200d"}
# Arabic code points that normalization unifies to these Urdu letters.
ARABIC_VARIANTS = {"ی": "ي", "ک": "ك", "ہ": "ه"}
DIGITS = "0123456789۰۱۲۳۴۵۶۷۸۹"
EXCEPTION_WORD = "بدمعاش"


@dataclass(frozen=True)
class RuleFile:
    """A rule file read by the benchmark itself, independent of ``urdustem.rules``."""

    rules: tuple  # of naive_oracle.NaiveRule, in source order
    exceptions: frozenset
    default_min_stem: int

    def patterns(self, kind: str) -> list[str]:
        return [r.pattern for r in self.rules if r.kind == kind]


def read_rule_file(name: str) -> RuleFile:
    """Parse a shipped rule file with the documented format, no validation."""
    from naive_oracle import NaiveRule

    rules, exceptions, default_min = [], set(), 2
    for line in (DATA / name).read_text("utf-8").split("\n"):
        fields = line.rstrip("\r").split("\t")
        if fields[0] == "#!exception":
            exceptions.add(fields[1])
        elif fields[0] == "#!default-min-stem":
            default_min = int(fields[1])
        elif line.strip() and not line.startswith("#"):
            kind, pattern, rest = fields[0], fields[1], fields[2:]
            replacement, min_stem = "", None
            if len(rest) == 2:
                replacement, min_stem = rest[0], int(rest[1])
            elif len(rest) == 1 and rest[0].isascii() and rest[0].isdigit():
                min_stem = int(rest[0])
            elif rest:
                replacement = rest[0]
            rules.append(NaiveRule(kind, pattern, replacement, min_stem))
    return RuleFile(tuple(rules), frozenset(exceptions), default_min)


@dataclass
class Inputs:
    """One generated workload input and what the generator knows about it."""

    text: str  # file content handed to the CLI
    words: list[str]  # words the CLI must stem, in output order (NFC)
    gold: list[tuple[str, str, str | None, str | None]] = field(default_factory=list)
    stats: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    rules: str
    size: int  # word tokens, words or gold entries
    flags: tuple[str, ...] = ()
    passes: int = 1  # suffix passes and prefix passes

    def argv(self, input_path: str) -> list[str]:
        rules = str(DATA / self.rules)
        if self.name == "eval-gold":
            argv = ["eval", "--rules", rules, "--gold", input_path]
        else:
            argv = ["stem", input_path, "--rules", rules]
        argv += self.flags
        if self.passes != 1:
            argv += ["--suffix-passes", str(self.passes), "--prefix-passes", str(self.passes)]
        return argv

    def generate(self, seed: int) -> "Inputs":
        rng = random.Random(f"{self.name}:{seed}")
        rf = read_rule_file(self.rules)
        inputs = _GENERATORS[self.name](rng, self.size, rf)
        inputs.stats.update(_word_stats(inputs.words, rf))
        inputs.stats["bytes"] = len(inputs.text.encode("utf-8"))
        return inputs


def is_marked(word: str) -> bool:
    """True when the word's graphemes are not its code points (marks or joiners)."""
    return any(ch in MARKERS or unicodedata.category(ch).startswith("M") for ch in word)


def _word_stats(words: list[str], rf: RuleFile) -> dict:
    suffixes, prefixes = rf.patterns("S"), rf.patterns("P")
    affixed = sum(
        1 for w in words
        if any(w.endswith(p) and len(w) > len(p) for p in suffixes)
        or any(w.startswith(p) and len(w) > len(p) for p in prefixes)
    )
    n = len(words)
    return {
        "word_tokens": n,
        "unique_ratio": len(set(words)) / n,
        "marked_word_ratio": sum(map(is_marked, words)) / n,
        "affix_word_ratio": affixed / n,
    }


def _stem(rng: random.Random, lo: int = 2, hi: int = 6) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(lo, hi)))


def _insert(rng: random.Random, word: str, ch: str) -> str:
    """Insert *ch* right after a letter of *word*; joiners and tatweel only inside it."""
    end = len(word) + 1 if ch in HARAKAT else len(word)
    i = rng.choice([i for i in range(1, end) if unicodedata.category(word[i - 1]) == "Lo"])
    return word[:i] + ch + word[i:]


def _lexicon() -> list:
    from urdustem import morphology

    return morphology.parse_lexicon_file((DATA / "lexicon_group1.tsv").read_text("utf-8"))


def _stem_text(rng: random.Random, n: int, rf: RuleFile) -> Inputs:
    suffixes = rf.patterns("S")
    prefixes = [p for p in rf.patterns("P") if " " not in p]
    from urdustem import morphology

    lexicon = sorted({g.word for g in morphology.generate_gold(_lexicon())})
    rng.shuffle(lexicon)
    # Zipf-Mandelbrot weights 1 / (rank + 5) ** 1.05 over a vocabulary a
    # twelfth the size of the text give ~8% distinct tokens; the offset keeps
    # any single word under 4% of the text, so no one word's cost dominates.
    # The shape of the word at each rank (lexicon surface, suffixed, prefixed
    # or bare; stem length; which affix) cycles with the rank, so the
    # frequent head is alike for every seed and only the letters vary.
    vocab: list[str] = []
    seen: set[str] = set()
    while len(vocab) < n // 12:
        rank = len(vocab)
        shape = rank % 20
        if shape == 10 and lexicon:
            word = lexicon.pop()
        else:
            word = _stem(rng, 2 + rank % 5, 2 + rank % 5)
            if shape < 11:
                word += suffixes[rank % len(suffixes)]
            elif shape < 13:
                word = prefixes[rank % len(prefixes)] + word
            if rank % 50 == 7:
                word = _insert(rng, word, ZWNJ)
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    cum, total = [], 0.0
    for rank in range(len(vocab)):
        total += 1.0 / (rank + 5) ** 1.05
        cum.append(total)
    words = rng.choices(vocab, cum_weights=cum, k=n)

    parts = []
    for word in words:
        token = word
        if rng.random() < 0.06:
            token = _insert(rng, token, rng.choice(HARAKAT))
        if rng.random() < 0.02:
            token = _insert(rng, token, TATWEEL)
        if rng.random() < 0.05:
            token = "".join(ARABIC_VARIANTS.get(ch, ch) for ch in token)
        parts.append(token)
        r = rng.random()
        if r < 0.07:
            parts.append("۔\n" if rng.random() < 0.3 else "۔ ")
        elif r < 0.14:
            parts.append("، ")
        else:
            parts.append(" ")
        if rng.random() < 0.03:
            parts.append("".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 4))) + " ")
    return Inputs(text="".join(parts), words=words)


def _stem_wordlist(rng: random.Random, n: int, rf: RuleFile) -> Inputs:
    suffixes, prefixes = rf.patterns("S"), rf.patterns("P")
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        word = _stem(rng)
        for _ in range(rng.choice((0, 1, 1, 1, 2))):
            word += rng.choice(suffixes)
        r = rng.random()
        if r < 0.2:
            word = rng.choice(prefixes) + word
        elif r < 0.25:
            word = rng.choice(prefixes) + rng.choice(prefixes).strip() + word
        if rng.random() < 1 / 3:
            mark = ZWNJ if rng.random() < 0.25 else rng.choice(HARAKAT)
            word = _insert(rng, word, mark)
        word = unicodedata.normalize("NFC", word).strip()
        if word not in seen and word not in rf.exceptions:
            seen.add(word)
            words.append(word)
    for _ in range(4):
        words.insert(rng.randrange(len(words) + 1), EXCEPTION_WORD)
    return Inputs(text="".join(w + "\n" for w in words), words=words)


def _eval_gold(rng: random.Random, n: int, rf: RuleFile) -> Inputs:
    from urdustem import evaluation, morphology

    lexicon = _lexicon()
    synthesized, lemmas, entries = [], set(), len(lexicon) * 6
    # At least n/2 synthesized entries, so that even a tiny input depends on the seed.
    while entries < max(n, len(lexicon) * 6 + n // 2):
        r = rng.random()
        if r < 0.6:
            lemma = _stem(rng) + rng.choice("اہع")
            item, count = morphology.ParadigmEntry.from_lemma(lemma), 6
        elif r < 0.8:
            lemma = _stem(rng, 2, 4)
            item, count = morphology.VerbRoot(lemma), 3
        else:
            lemma = _stem(rng) + "ا"
            item, count = morphology.Adjective(lemma), 2
        if lemma not in lemmas:
            lemmas.add(lemma)
            synthesized.append(item)
            entries += count
    gold = morphology.generate_gold(lexicon + synthesized)
    return Inputs(
        text=evaluation.gold_to_tsv(gold),
        words=[g.word for g in gold],
        gold=[(g.word, g.expected_stem, g.expected_prefix, g.expected_suffix) for g in gold],
    )


_GENERATORS = {
    "stem-text": _stem_text,
    "stem-wordlist": _stem_wordlist,
    "eval-gold": _eval_gold,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("stem-text", "default.rules", 20000),
        Workload(
            "stem-wordlist", "table2.rules", 12000,
            ("--pretokenized", "--strip-diacritics=false", "--json"), passes=2,
        ),
        Workload("eval-gold", "default.rules", 12000),
    )
}


def add_import_paths() -> None:
    """Make the checkout's ``urdustem`` sources and test oracle importable."""
    for p in (str(TESTS), str(SRC)):
        if p not in sys.path:
            sys.path.insert(0, p)
