"""Affix-rule data model and the declarative rule-file format.

A rule file is UTF-8 text, one rule per line, tab-separated::

    kind <TAB> pattern [<TAB> replacement] [<TAB> min_stem]

``kind`` is ``P`` (prefix) or ``S`` (suffix).  The pattern is matched at
the word edge; when it matches, the affix is detached and ``replacement``
(empty by default) is substituted in its place on the stem side.  A rule
only fires when the residual stem, before the replacement is appended,
still has at least ``min_stem`` graphemes.

A bare third field made of ASCII digits is read as ``min_stem``; anything
else is a replacement.  Lines starting with ``#`` are comments, except
the directives::

    #!exception <TAB> word        word is returned verbatim, never stemmed
    #!default-min-stem <TAB> n    min_stem used by rules that omit it
                                  (at most once per file)

Fields are not trimmed: a pattern may legitimately end in a space
(e.g. a prefix that consumes the following separator).  Lines are framed
by :func:`urdustem.corpus.data_lines`, as gold and lexicon lines are: BOM,
CRLF, and letters unified as ``stem`` unifies them, marks kept; a CR
inside a line is rejected.

Rules and exceptions that could never fire are rejected: a suffix
pattern starting with a combining mark or joiner (which belongs to the
preceding grapheme cluster), a suffix that ends, a prefix that starts or
an exception word that starts or ends with whitespace (no word that
``stem``, ``eval`` or ``gen`` reads has any at its edges), and a non-NFC
pattern, replacement or exception word.
"""

import unicodedata
from enum import Enum

from urdustem import graphemes
from urdustem.corpus import data_lines
from urdustem.record import Record

DEFAULT_MIN_STEM = 2


class RuleParseError(ValueError):
    """A rule file line that violates the format or the rule invariants."""

    def __init__(self, message: str, line: int, other_line: int | None = None):
        self.line = line
        self.other_line = other_line
        super().__init__(f"line {line}: {message}")


class AffixKind(Enum):
    PREFIX = "P"
    SUFFIX = "S"


class AffixRule(Record):
    """One prefix/suffix pattern with optional recoding replacement.

    ``min_stem`` of ``None`` defers to the owning rule set's default.
    ``rule_id`` and ``pattern_length`` are stored when the rule is built,
    since the stemmer reads them on every match.
    """

    __slots__ = ("kind", "pattern", "replacement", "min_stem", "rule_id", "pattern_length")
    _fields = __slots__[:4]

    def __init__(
        self, kind: AffixKind, pattern: str, replacement: str = "", min_stem: int | None = None
    ) -> None:
        if not isinstance(kind, AffixKind):
            raise ValueError(f"kind must be an AffixKind, got {kind!r}")
        pattern_length = graphemes.count(pattern)
        if pattern_length < 1:
            raise ValueError("affix pattern must have at least one grapheme")
        for name, text in (("pattern", pattern), ("replacement", replacement)):
            if not unicodedata.is_normalized("NFC", text):
                raise ValueError(f"{name} {text!r} is not NFC")
        if kind is AffixKind.SUFFIX and graphemes.extends_cluster(pattern[0]):
            # Such a suffix could only match a whole word, leaving no stem.
            raise ValueError(f"suffix pattern {pattern!r} starts with a combining mark or joiner")
        if (pattern[-1] if kind is AffixKind.SUFFIX else pattern[0]).isspace():
            # No word that stem, eval or gen reads starts or ends with whitespace.
            raise ValueError(f"{kind.name.lower()} pattern {pattern!r} has whitespace at its edge")
        if graphemes.count(replacement) > pattern_length:
            raise ValueError(
                "replacement must not be longer than the pattern "
                f"({replacement!r} vs {pattern!r})"
            )
        if replacement == pattern:
            raise ValueError(f"replacement must differ from the pattern ({pattern!r})")
        if min_stem is not None and (type(min_stem) is not int or min_stem < 1):
            raise ValueError(f"min_stem must be a positive int, got {min_stem!r}")
        self._set(kind=kind, pattern=pattern, replacement=replacement, min_stem=min_stem,
                  rule_id=f"{kind.value}:{pattern}", pattern_length=pattern_length)


class RuleSet(Record):
    """Rule collection plus exception words; immutable.

    Rules are kept sorted by pattern grapheme length, descending, ties in
    source order.  ``buckets`` (not a field) indexes them for the stemmer
    in that order: keyed by ``kind is AffixKind.SUFFIX``, then by edge
    letter (a suffix's last code point, a prefix's first), one tuple of
    ``(pattern, rule, min_clusters)`` entries; ``min_clusters``, the
    pattern's grapheme count plus its ``min_stem`` (else
    ``default_min_stem``), is the fewest clusters a word needs for the
    rule to fire.  :func:`urdustem.stemmer.stem_word` says why the first
    entry that fires is the longest match.  Building it rejects a
    duplicate ``(kind, pattern)``.
    """

    __slots__ = ("rules", "exceptions", "default_min_stem", "buckets")
    _fields = __slots__[:3]

    def __init__(
        self, rules, exceptions=frozenset(), default_min_stem: int = DEFAULT_MIN_STEM
    ) -> None:
        rules = tuple(rules)
        for rule in rules:
            if not isinstance(rule, AffixRule):
                raise ValueError(f"each rule must be an AffixRule, got {rule!r}")
        rules = tuple(sorted(rules, key=lambda r: -r.pattern_length))
        if isinstance(exceptions, (str, bytes)):
            raise ValueError(f"exceptions must be a collection of words, got {exceptions!r}")
        exceptions = tuple(exceptions)
        for word in exceptions:  # in input order, and before frozenset, which cannot hash a list
            if not isinstance(word, str):
                raise ValueError(f"exception word {word!r} is not a str")
            if not word:
                raise ValueError("exception words must be non-empty")
            if not unicodedata.is_normalized("NFC", word):
                raise ValueError(f"exception word {word!r} is not NFC")
            if word != word.strip():
                # stem, eval and gen trim every word they read, so it could never match.
                raise ValueError(f"exception word {word!r} has whitespace at an edge")
        if type(default_min_stem) is not int or default_min_stem < 1:
            raise ValueError(f"default_min_stem must be a positive int, got {default_min_stem!r}")
        self._set(rules=rules, exceptions=frozenset(exceptions), default_min_stem=default_min_stem)
        buckets: dict[bool, dict[str, list[tuple]]] = {True: {}, False: {}}
        seen: set[tuple[bool, str]] = set()
        for rule in rules:
            suffix = rule.kind is AffixKind.SUFFIX
            if (suffix, rule.pattern) in seen:
                raise ValueError(f"duplicate rule {rule.rule_id}")
            seen.add((suffix, rule.pattern))
            min_clusters = rule.pattern_length + (rule.min_stem or default_min_stem)
            buckets[suffix].setdefault(rule.pattern[-1 if suffix else 0], []).append(
                (rule.pattern, rule, min_clusters))
        self._set(buckets={suffix: {edge: tuple(entries) for edge, entries in by_edge.items()}
                           for suffix, by_edge in buckets.items()})

    @property
    def suffix_count(self) -> int:
        return sum(1 for r in self.rules if r.kind is AffixKind.SUFFIX)

    @property
    def prefix_count(self) -> int:
        return sum(1 for r in self.rules if r.kind is AffixKind.PREFIX)


def parse_rule_file(text: str) -> RuleSet:
    """Parse rule-file content into a :class:`RuleSet`.

    Raises :class:`RuleParseError` with the offending line number; a
    duplicate ``(kind, pattern)`` or ``#!default-min-stem`` also carries
    the first occurrence's line.
    """
    rules: list[AffixRule] = []
    first_line: dict[tuple[AffixKind, str], int] = {}
    exceptions: set[str] = set()
    default_min_stem, default_line = DEFAULT_MIN_STEM, None

    for lineno, line in data_lines(text, RuleParseError):
        if line.startswith("#") and not line.startswith("#!"):
            continue
        fields = line.split("\t")
        try:  # a check's ValueError gains the line number; a RuleParseError has it
            if fields[0] == "#!exception":
                if len(fields) != 2 or not fields[1]:
                    raise ValueError("#!exception needs one non-empty word")
                exceptions |= RuleSet((), {fields[1]}).exceptions  # RuleSet's checks on the word
                continue
            if fields[0] == "#!default-min-stem":
                if default_line:
                    message = f"duplicate #!default-min-stem (first defined on line {default_line})"
                    raise RuleParseError(message, lineno, other_line=default_line)
                value = _ascii_int(fields[1]) if len(fields) == 2 else None
                if not value:
                    raise ValueError("#!default-min-stem needs a positive integer")
                default_min_stem, default_line = value, lineno
                continue
            if line.startswith("#!"):
                raise ValueError(f"unknown directive {fields[0]!r}")
            if len(fields) < 2 or len(fields) > 4:
                raise ValueError(f"expected 2-4 tab-separated fields, got {len(fields)}")
            if len(fields) == 3 and _ascii_int(fields[2]) is not None:
                fields.insert(2, "")  # a bare digit field is min_stem, not a replacement
            kind, pattern, replacement, min_field = fields + [None] * (4 - len(fields))
            if kind not in ("P", "S"):
                raise ValueError(f"kind must be P or S, got {kind!r}")
            if not pattern:
                raise ValueError("empty affix pattern")
            min_stem = None if min_field is None else _ascii_int(min_field)
            if min_field is not None and not min_stem:
                raise ValueError(f"min_stem must be a positive integer, got {min_field!r}")
            rule = AffixRule(AffixKind(kind), pattern, replacement or "", min_stem)
            first = first_line.setdefault((rule.kind, pattern), lineno)
            if first != lineno:
                raise RuleParseError(f"duplicate rule {rule.rule_id} (first defined on line {first})",
                                     lineno, other_line=first)
            rules.append(rule)
        except RuleParseError:
            raise
        except ValueError as exc:
            raise RuleParseError(str(exc), lineno) from None

    return RuleSet(tuple(rules), frozenset(exceptions), default_min_stem)


def _ascii_int(text: str) -> int | None:
    """The value of *text* if it is all ASCII digits, else None."""
    return int(text) if text.isascii() and text.isdigit() else None


def serialize_rule_set(rs: RuleSet) -> str:
    """Render a rule set in canonical form, the rule file that ``urdustem rules list`` prints.

    ``parse_rule_file(serialize_rule_set(rs))`` equals ``rs``, and the
    output is a fixpoint of serialize-after-parse: each exception and
    rule line is written only if :func:`parse_rule_file` reads it back as
    that word or rule alone, and :class:`ValueError` names it otherwise.
    That refuses a tab, CR or LF inside a field, a letter there that
    reading unifies (``ي`` reads back as ``ی``), and a digit-only
    replacement without its own ``min_stem`` (read as ``min_stem``).
    """
    lines = [
        "# urdustem rule file",
        f"# suffixes: {rs.suffix_count}",
        f"# prefixes: {rs.prefix_count}",
        f"#!default-min-stem\t{rs.default_min_stem}",
    ]
    entries = [(f"#!exception\t{w}", RuleSet((), {w}), f"exception {w!r}")
               for w in sorted(rs.exceptions)]
    entries += [(f"{r.kind.value}\t{r.pattern}\t{r.replacement}\t{r.min_stem or ''}".rstrip("\t"),
                 RuleSet((r,)), f"rule {r.rule_id!r}")
                for r in rs.rules]  # a rule line drops its trailing empty fields
    for line, alone, name in entries:
        try:
            read = parse_rule_file(line)
        except RuleParseError:
            read = None
        if read != alone:
            raise ValueError(f"{name} cannot be written: its line {line!r} reads back otherwise")
        lines.append(line)
    return "\n".join(lines) + "\n"
