import os
import re
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from urdustem import data, graphemes
from urdustem.corpus import normalize
from urdustem.evaluation import GoldEntry, GoldFileError, parse_gold_file
from urdustem.graphemes import ZWJ, ZWNJ
from urdustem.morphology import ParadigmEntry, ParadigmError, parse_lexicon_file
from urdustem.rules import (
    DEFAULT_MIN_STEM,
    AffixKind,
    AffixRule,
    RuleParseError,
    RuleSet,
    parse_rule_file,
    serialize_rule_set,
)
from urdustem.stemmer import stem_word

S = AffixKind.SUFFIX
P = AffixKind.PREFIX


class TestAffixRule:
    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            AffixRule(S, "")

    def test_replacement_longer_than_pattern_rejected(self):
        with pytest.raises(ValueError, match="longer"):
            AffixRule(S, "ی", "یاں")

    def test_equal_length_recoding_allowed(self):
        # Needed for same-length recodings such as ye-bari -> he.
        assert AffixRule(S, "ے", "ہ").replacement == "ہ"

    def test_identity_replacement_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            AffixRule(S, "ے", "ے")

    def test_nonpositive_min_stem_rejected(self):
        with pytest.raises(ValueError):
            AffixRule(S, "وں", min_stem=0)

    @pytest.mark.parametrize("value", [1.5, 2.0, "1", True], ids=["fraction", "float", "str", "bool"])
    def test_min_stem_not_an_int_rejected(self, value):
        with pytest.raises(ValueError, match=f"min_stem must be a positive int, got {value!r}"):
            AffixRule(S, "وں", min_stem=value)

    def test_rule_id(self):
        assert AffixRule(P, "بد").rule_id == "P:بد"

    def test_cached_rule_id_stays_out_of_eq_hash_and_repr(self):
        rule = AffixRule(S, "وں", "ہ")
        assert rule.rule_id is rule.rule_id
        fresh = AffixRule(S, "وں", "ہ")
        assert rule == fresh and hash(rule) == hash(fresh)
        assert repr(rule) == repr(fresh) and "rule_id" not in repr(rule)

    # A mark or joiner joins the preceding grapheme cluster, so a suffix
    # edge can only start with one when it is the whole word.
    @pytest.mark.parametrize("pattern", ["\u064eی", ZWNJ + "ی"], ids=["fatha", "zwnj"])
    def test_suffix_starting_inside_a_cluster_rejected(self, pattern):
        with pytest.raises(ValueError, match="combining mark or joiner"):
            AffixRule(S, pattern)
        with pytest.raises(RuleParseError, match="^line 1: ") as exc_info:
            parse_rule_file(f"S\t{pattern}\n")
        assert exc_info.value.line == 1

    # stem, eval and gen read no word that starts or ends with whitespace, so
    # such a suffix or prefix edge could never match.
    @pytest.mark.parametrize("kind,pattern", [
        (S, "یں "), (S, "یں\u00a0"), (P, " بد"), (P, "\tبد"),
    ], ids=["suffix-space", "suffix-nbsp", "prefix-space", "prefix-tab"])
    def test_whitespace_at_the_matched_edge_rejected(self, kind, pattern):
        with pytest.raises(ValueError, match="has whitespace at its edge"):
            AffixRule(kind, pattern)
        if "\t" not in pattern:
            with pytest.raises(RuleParseError, match="^line 2: .* has whitespace at its edge"):
                parse_rule_file(f"S\tوں\n{kind.value}\t{pattern}\n")

    def test_whitespace_at_the_inner_edge_kept(self):
        assert parse_rule_file("P\tبد \nS\t یں\n").rules == (AffixRule(P, "بد "), AffixRule(S, " یں"))

    def test_prefix_starting_with_a_mark_still_fires(self):
        rs = parse_rule_file("P\t\u064eک\n")
        assert stem_word("\u064eکتاب", rs).stem == "تاب"

    @pytest.mark.parametrize("pattern,replacement,field", [
        ("\u0627\u0653", "", "pattern"),  # alif + maddah, NFC is U+0622
        ("بی", "\u0627\u0653", "replacement"),
    ])
    def test_non_nfc_field_rejected(self, pattern, replacement, field):
        with pytest.raises(ValueError, match=f"^{field} .* is not NFC"):
            AffixRule(S, pattern, replacement)
        assert AffixRule(S, unicodedata.normalize("NFC", pattern),
                         unicodedata.normalize("NFC", replacement))


class TestEveryAcceptedRuleFires:
    @given(
        kind=st.sampled_from([P, S]),
        pattern=st.text(alphabet="ابکی\u064e\u0650\u0653\u0654" + ZWNJ + ZWJ,
                        min_size=1, max_size=4),
        min_stem=st.sampled_from([None, 1, 2, 3]),
        default_min_stem=st.integers(1, 3),
        cluster=st.sampled_from(["ب", "ب\u064e"]),
        short=st.booleans(),
    )
    def test_accepted_rule_fires_next_to_a_plain_stem(
        self, kind, pattern, min_stem, default_min_stem, cluster, short
    ):
        # The rule fires on a stem of exactly its min_stem clusters (else the
        # default's), and not on one cluster fewer; a marked cluster is two
        # code points.
        try:
            rule = AffixRule(kind, pattern, min_stem=min_stem)
        except ValueError:
            return
        rs = RuleSet((rule,), default_min_stem=default_min_stem)
        stem = cluster * ((min_stem or default_min_stem) - short)
        word = unicodedata.normalize("NFC", stem + pattern if kind is S else pattern + stem)
        assert stem_word(word, rs).applied == (() if short else (rule.rule_id,))


class TestOrderRules:
    def test_descending_length(self):
        rules = [AffixRule(S, "ے"), AffixRule(S, "یاں"), AffixRule(S, "وں")]
        assert [r.pattern for r in RuleSet(rules).rules] == ["یاں", "وں", "ے"]

    def test_empty(self):
        assert RuleSet(()).rules == ()

    def test_ties_keep_source_order(self):
        rules = [AffixRule(S, "ات"), AffixRule(S, "وں", "ہ")]
        assert [r.pattern for r in RuleSet(rules).rules] == ["ات", "وں"]

    @given(st.lists(st.sampled_from("ابجدیوےں"), min_size=1, max_size=30))
    def test_sorted_invariant(self, letters):
        rules = []
        seen = set()
        for i, ch in enumerate(letters):
            pattern = ch * (i % 3 + 1)
            if pattern not in seen:
                seen.add(pattern)
                rules.append(AffixRule(S, pattern))
        ordered = RuleSet(rules).rules
        lengths = [r.pattern_length for r in ordered]
        assert lengths == sorted(lengths, reverse=True)
        assert sorted(r.pattern for r in ordered) == sorted(r.pattern for r in rules)


class TestParse:
    def test_seven_rule_file(self):
        text = "S\tوں\nS\tے\nS\tات\nS\tیاں\nP\tنو\nP\tلا\nP\tبد\n"
        rs = parse_rule_file(text)
        assert len(rs.rules) == 7
        patterns = [r.pattern for r in rs.rules if r.kind is S]
        # 3- and 2-grapheme suffixes come before the 1-grapheme one.
        assert patterns.index("یاں") < patterns.index("ے")
        assert patterns.index("وں") < patterns.index("ے")
        assert patterns.index("ات") < patterns.index("ے")
        assert rs.suffix_count == 4 and rs.prefix_count == 3

    def test_empty_file_is_identity_ruleset(self):
        rs = parse_rule_file("")
        assert rs.rules == () and rs.exceptions == frozenset()

    def test_recoding_line_and_ordering_against_hand_sort(self):
        text = "S\tے\nS\tوں\tہ\nS\tیاں\n"
        rs = parse_rule_file(text)
        # Hand sort of the file's patterns by grapheme length, descending:
        assert [r.pattern for r in rs.rules] == ["یاں", "وں", "ے"]
        assert rs.rules[1].replacement == "ہ"

    def test_min_stem_field(self):
        rs = parse_rule_file("S\tوں\t\t3\nS\tے\tہ\t4\nS\tی\t2\n")
        by_pattern = {r.pattern: r for r in rs.rules}
        assert by_pattern["وں"].min_stem == 3 and by_pattern["وں"].replacement == ""
        assert by_pattern["ے"].min_stem == 4 and by_pattern["ے"].replacement == "ہ"
        assert by_pattern["ی"].min_stem == 2

    def test_unknown_directive_names_itself_and_its_line(self):
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file("#!bogus\tx\nS\tوں\n")
        assert str(exc_info.value) == "line 1: unknown directive '#!bogus'"
        assert (exc_info.value.line, exc_info.value.other_line) == (1, None)

    def test_directives(self):
        rs = parse_rule_file("#!default-min-stem\t3\n#!exception\tبدمعاش\nS\tی\n")
        assert rs.default_min_stem == 3
        assert rs.exceptions == frozenset({"بدمعاش"})

    @pytest.mark.parametrize(
        "line",
        [
            "#!default-min-stem\t0",
            "#!default-min-stem\tx",
            "#!default-min-stem\t٣",  # Arabic-Indic three: a digit, not ASCII
            "#!default-min-stem\t",
            "#!default-min-stem",
            "#!default-min-stem\t2\t3",
        ],
    )
    def test_default_min_stem_needs_a_positive_integer(self, line):
        message = "^line 1: #!default-min-stem needs a positive integer"
        with pytest.raises(RuleParseError, match=message):
            parse_rule_file(line + "\nS\tی\n")

    @pytest.mark.parametrize("text,line,other_line", [
        ("#!default-min-stem\t3\nS\tی\n#!default-min-stem\t3\n", 3, 1),
        ("#!default-min-stem\t1\nS\tوں\n#!default-min-stem\t3\n", 3, 1),
        ("S\tی\n# note\n#!default-min-stem\t2\nS\tوں\n#!default-min-stem\t2\n", 5, 3),
        # The duplicate is reported before the second directive's own value is checked.
        ("#!default-min-stem\t2\n#!default-min-stem\t0\n", 2, 1),
        ("#!default-min-stem\t2\nS\tوں\n#!default-min-stem\n", 3, 1),
    ], ids=["same-value", "different-value", "after-rules", "invalid-value", "no-value"])
    def test_second_default_min_stem_names_both_lines(self, text, line, other_line):
        # A second directive would set min_stem for rules above it too.
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file(text)
        assert str(exc_info.value) == (
            f"line {line}: duplicate #!default-min-stem (first defined on line {other_line})"
        )
        assert (exc_info.value.line, exc_info.value.other_line) == (line, other_line)

    def test_a_repeated_rule_with_a_bad_field_reports_the_field_not_the_duplicate(self):
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file("S\tوں\nS\tوں\t0\n")
        assert str(exc_info.value) == "line 2: min_stem must be a positive integer, got '0'"
        assert (exc_info.value.line, exc_info.value.other_line) == (2, None)

    def test_comments_and_blank_lines_ignored(self):
        rs = parse_rule_file("# header\n\n   \nS\tی\n")
        assert len(rs.rules) == 1

    def test_pattern_trailing_space_preserved(self):
        rs = parse_rule_file("P\tبد \n")
        assert rs.rules[0].pattern == "بد "
        assert rs.rules[0].pattern_length == 3

    @pytest.mark.parametrize(
        "line",
        ["S", "S\t", "X\tی", "S\tی\tr\t2\textra", "S\tوں\tیاں", "S\tی\t0", "S\tوں\t\t-1"],
    )
    def test_malformed_lines_carry_line_number(self, line):
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file("# comment\n" + line + "\n")
        assert exc_info.value.line == 2

    @pytest.mark.parametrize("line,expected", [
        ("S\tوں", AffixRule(S, "وں")),
        ("S\tوں\tہ", AffixRule(S, "وں", "ہ")),
        ("S\tوں\t3", AffixRule(S, "وں", min_stem=3)),
        ("S\tوں\t007", AffixRule(S, "وں", min_stem=7)),
        ("S\tوں\t٣", AffixRule(S, "وں", "٣")),  # Arabic-Indic three: not ASCII, a replacement
        ("S\tوں\t", AffixRule(S, "وں")),
        ("S\tوں\t0", "min_stem must be a positive integer, got '0'"),
        ("S\tوں\t\t", "min_stem must be a positive integer, got ''"),
        ("S\tوں\tہ\t", "min_stem must be a positive integer, got ''"),
        ("S\tوں\t\t3", AffixRule(S, "وں", min_stem=3)),
        ("S\tوں\tہ\t3", AffixRule(S, "وں", "ہ", 3)),
        ("S\tوں\t5\t3", AffixRule(S, "وں", "5", 3)),
        ("S\tوں\tہ\tx", "min_stem must be a positive integer, got 'x'"),
        ("S\tوں\tہ\t٣", "min_stem must be a positive integer, got '٣'"),
        ("S\tوں\tوں", "replacement must differ from the pattern ('وں')"),
        ("S", "expected 2-4 tab-separated fields, got 1"),
        ("S\tوں\tہ\t3\t", "expected 2-4 tab-separated fields, got 5"),
        ("X\t\t0", "kind must be P or S, got 'X'"),
        ("S\t\t0", "empty affix pattern"),
    ])
    def test_each_field_shape_parses_or_names_its_fault(self, line, expected):
        text = "# comment\n" + line + "\n"
        if isinstance(expected, AffixRule):
            assert parse_rule_file(text).rules == (expected,)
        else:
            with pytest.raises(RuleParseError) as exc_info:
                parse_rule_file(text)
            assert str(exc_info.value) == f"line 2: {expected}"

    def test_duplicate_rule_names_both_lines(self):
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file("S\tوں\nS\tے\nS\tوں\tہ\n")
        assert exc_info.value.line == 3
        assert exc_info.value.other_line == 1
        assert "line 1" in str(exc_info.value)

    # Python 3.11 (and 3.10.7) refuse to convert more digits than this to an int.
    _INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

    @pytest.mark.skipif(not _INT_DIGITS, reason="int() takes digit strings of any length")
    @pytest.mark.parametrize("template", ["S\tوں\t{}", "S\tوں\t\t{}", "#!default-min-stem\t{}"])
    def test_digit_field_too_long_for_int_is_a_line_error(self, template):
        # int()'s ValueError is reported with its line, as every other check is.
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file("# comment\n" + template.format("9" * (self._INT_DIGITS + 1)) + "\n")
        assert exc_info.value.line == 2

    def test_leading_bom_ignored(self):
        text = "S\tوں\tہ\n#!exception\tحیات\n"
        assert parse_rule_file("\ufeff" + text) == parse_rule_file(text)

    def test_letters_unified_marks_kept(self):
        rs = parse_rule_file("S\tيں\nP\tك\u064e\n#!exception\tكتاب\n")
        assert rs == RuleSet((AffixRule(S, "یں"), AffixRule(P, "ک\u064e")), frozenset({"کتاب"}))

    def test_duplicate_pattern_different_kind_is_fine(self):
        rs = parse_rule_file("S\tنو\nP\tنو\n")
        assert len(rs.rules) == 2


def _index(by_edge):
    """``RuleSet.buckets[suffix]`` with each entry reduced to its pattern."""
    return {edge: [pattern for pattern, _, _ in bucket] for edge, bucket in by_edge.items()}


class TestRuleSet:
    @pytest.mark.parametrize("rules,rule_id", [
        ((AffixRule(S, "ی"), AffixRule(S, "ی", "ا")), "S:ی"),
        ((AffixRule(P, "نو"),) * 2, "P:نو"),
    ])
    def test_duplicate_built_in_code_raises_naming_it(self, rules, rule_id):
        with pytest.raises(ValueError, match=f"duplicate rule {rule_id}"):
            RuleSet(rules)

    def test_buckets_index_each_kind_longest_first(self):
        # Keyed by the suffix flag, then by the edge letter (a suffix's last
        # code point, a prefix's first), one (pattern, rule, min_clusters)
        # tuple per rule, in the order of rs.rules: most clusters first, ties
        # in source order, so the two-cluster "وَں" follows "وں", though it
        # has three code points.
        rs = parse_rule_file("S\tی\nS\tوں\nP\tنو\nS\tیاں\nS\tات\nS\tوَں\nP\tبَد\n")
        assert _index(rs.buckets[True]) == {"ں": ["یاں", "وں", "وَں"], "ت": ["ات"], "ی": ["ی"]}
        assert _index(rs.buckets[False]) == {"ب": ["بَد"], "ن": ["نو"]}
        assert {pattern: (rule.pattern, min_clusters)
                for pattern, rule, min_clusters in rs.buckets[True]["ں"]} == {
            "یاں": ("یاں", 3 + DEFAULT_MIN_STEM),
            "وَں": ("وَں", 2 + DEFAULT_MIN_STEM),
            "وں": ("وں", 2 + DEFAULT_MIN_STEM),
        }
        assert "buckets" not in repr(rs)

    @pytest.mark.parametrize("value", [1.5, 2.0, "1", True, None],
                             ids=["fraction", "float", "str", "bool", "none"])
    def test_default_min_stem_not_an_int_rejected(self, value):
        with pytest.raises(ValueError, match=f"default_min_stem must be a positive int, got {value!r}"):
            RuleSet((), default_min_stem=value)

    def test_non_nfc_exception_word_rejected(self):
        with pytest.raises(ValueError, match="exception word .* is not NFC"):
            RuleSet((), frozenset({"کتا\u0627\u0653"}))
        assert RuleSet((), frozenset({"کت\u0622"})).exceptions == {"کت\u0622"}

    @pytest.mark.parametrize("word", [" کتاب", "کتاب\u00a0"], ids=["leading-space", "trailing-nbsp"])
    def test_exception_word_with_whitespace_at_an_edge_rejected(self, word):
        # stem, eval and gen trim every word they read, so it could never match.
        with pytest.raises(ValueError, match=re.escape(f"exception word {word!r} has whitespace")):
            RuleSet((), frozenset({word}))
        with pytest.raises(RuleParseError) as exc_info:
            parse_rule_file(f"S\tاب\n#!exception\t{word}\n")
        assert str(exc_info.value) == f"line 2: exception word {word!r} has whitespace at an edge"

    @pytest.mark.parametrize("bad", [["کتاب"], {"کتاب": 1}, {"کتاب"}], ids=["list", "dict", "set"])
    def test_unhashable_exception_word_rejected_naming_it(self, bad):
        for words in ([bad], ["قلم", bad]):
            with pytest.raises(ValueError) as exc_info:
                RuleSet((), words)
            assert str(exc_info.value) == f"exception word {bad!r} is not a str"

    def test_first_bad_exception_word_in_input_order_is_named_whatever_the_hash_seed(self):
        # Each word has its own fault; the one named is the first given, not
        # the first that a frozenset of them yields.
        code = ("from urdustem.rules import RuleSet\n"
                "try:\n    RuleSet((), ['کتاب ', ' قلم', 'بآ'])\n"
                "except ValueError as exc:\n    print(exc)\n")
        src = str(Path(graphemes.__file__).resolve().parents[1])
        for seed in "0123":
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONIOENCODING": "utf-8",
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  encoding="utf-8", timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == "exception word 'کتاب ' has whitespace at an edge\n", seed

    def test_exception_word_with_inner_whitespace_kept(self):
        # A --pretokenized word may hold a space.
        assert RuleSet((), frozenset({"بد نصیب"})).exceptions == {"بد نصیب"}
        assert parse_rule_file("#!exception\tبد نصیب\n").exceptions == {"بد نصیب"}


def _parts(word, rs):
    res = stem_word(word, rs)
    return res.prefix, res.stem, res.suffix


class TestEdgeIndex:
    """Each pattern sits under its edge letter, and the stemmer finds it there."""

    def test_patterns_sharing_an_edge_letter_probe_longest_first(self):
        rs = parse_rule_file("S\tں\t4\nS\tوں\nS\tیوں\t3\nS\tئیوں\t9\nS\tات\n")
        assert _index(rs.buckets[True]) == {"ں": ["ئیوں", "یوں", "وں", "ں"], "ت": ["ات"]}
        # The longest pattern that leaves enough stem wins; a too-short
        # residual falls through to the next length under the same letter.
        assert _parts("لڑکیوں", rs) == (None, "لڑک", "یوں")
        assert _parts("کئیوں", rs) == (None, "کئی", "وں")
        assert _parts("سوالات", rs) == (None, "سوال", "ات")
        assert _parts("مکاں", rs) == (None, "مکاں", None)  # "ں" needs 4 more clusters

    def test_suffix_ending_in_a_mark_sits_under_the_mark(self):
        rs = parse_rule_file("S\tیَ\nS\tی\n")
        assert _index(rs.buckets[True]) == {"\u064e": ["یَ"], "ی": ["ی"]}
        assert _parts("کتابیَ", rs) == (None, "کتاب", "یَ")
        assert _parts("کتابی", rs) == (None, "کتاب", "ی")
        assert _parts("کتابَ", rs) == (None, "کتابَ", None)

    def test_prefix_with_a_trailing_space_sits_under_its_first_letter(self):
        rs = parse_rule_file("P\tبد \nP\tبد\nP\tب\n")
        assert _index(rs.buckets[False]) == {"ب": ["بد ", "بد", "ب"]}
        assert _parts("بد نصیب", rs) == ("بد ", "نصیب", None)
        assert _parts("بدنام", rs) == ("بد", "نام", None)
        assert rs.buckets[True] == {}

    def test_duplicate_under_a_shared_edge_letter_still_raises(self):
        rules = (AffixRule(S, "وں"), AffixRule(S, "یاں"), AffixRule(S, "ں"), AffixRule(S, "وں", "ا"))
        with pytest.raises(ValueError, match="duplicate rule S:وں"):
            RuleSet(rules)
        # The same pattern as a prefix is another rule under another edge.
        rs = RuleSet((AffixRule(S, "نو"), AffixRule(P, "نو")))
        assert (_index(rs.buckets[True]), _index(rs.buckets[False])) == ({"و": ["نو"]}, {"ن": ["نو"]})


_TEXT = ["وں", "ہ", "ے", "ات", "بد ", "قلم", "لڑکا", "علاقہ", "کھا", "اچھا"]


def _lines(heads, max_rest):
    """Lines of a head field and up to *max_rest* more, or blank and comment lines."""
    fields = st.lists(st.sampled_from([*_TEXT, "3", ""]), min_size=1, max_size=max_rest)
    line = st.builds(lambda head, rest: "\t".join([head, *rest]), st.sampled_from(heads), fields)
    return st.lists(line | st.sampled_from(["", " ", "# note"]), max_size=6)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("parse,files", [
    (parse_rule_file, _lines(["S", "P", "#!exception", "#!default-min-stem"], 3)),
    (parse_gold_file, _lines(_TEXT, 3)),
    (parse_lexicon_file, _lines(["noun", "verb", "adj"], 1)),
], ids=["rules", "gold", "lexicon"])
@given(data=st.data(), last_eol=st.booleans(), bom=st.booleans(),
       eol=st.sampled_from(["\n", "\r\n"]))
def test_bom_and_crlf_parse_alike(parse, files, data, last_eol, bom, eol):
    text = "\n".join(data.draw(files)) + ("\n" if last_eol else "")
    variant = ("\ufeff" if bom else "") + text.replace("\n", eol)
    assert _outcome(parse, variant) == _outcome(parse, text)


_HAMMER = [ParadigmEntry("ہتھوڑا")]
_FIELD_COUNT = "line 1: expected 2-4 tab-separated fields, got 1"


@pytest.mark.parametrize("parse,text,expected", [
    (parse_rule_file, "S\tوں\n \t \n \r\n", RuleSet((AffixRule(S, "وں"),))),
    (parse_gold_file, "کتاب\tکتاب\n \t \n \r\n", [GoldEntry("کتاب", "کتاب")]),
    (parse_lexicon_file, "noun\tہتھوڑا\n \t \n \r\n", _HAMMER),
    (parse_rule_file, "  # note\n", (RuleParseError, _FIELD_COUNT)),
    (parse_gold_file, "  # note\n", (GoldFileError, _FIELD_COUNT)),
    (parse_lexicon_file, "  # note\nnoun\tہتھوڑا\n", _HAMMER),
    (parse_lexicon_file, "  noun\tہتھوڑا  \n", _HAMMER),
    (parse_gold_file, " کتاب\tکتاب \n", [GoldEntry("کتاب", "کتاب ")]),
    (parse_rule_file, " S\tوں\n", (RuleParseError, "line 1: kind must be P or S, got ' S'")),
    (parse_rule_file, "S\tو\rں\r\n", (RuleParseError, "line 1: CR inside a line")),
    (parse_gold_file, "کتاب\tکتاب\nلڑ\rکا\tلڑکا\n", (GoldFileError, "line 2: CR inside a line")),
    (parse_lexicon_file, "noun\tلڑ\rکا\n", (ParadigmError, "line 1: CR inside a line")),
], ids=[
    "rules-blank", "gold-blank", "lexicon-blank",
    "rules-indented-hash", "gold-indented-hash", "lexicon-indented-comment",
    "lexicon-padded", "gold-keeps-spaces", "rules-keeps-spaces",
    "rules-lone-cr", "gold-lone-cr", "lexicon-lone-cr",
])
def test_framing_then_per_format_line_rules(parse, text, expected):
    # Shared framing: blank and whitespace-only lines are skipped, and
    # trailing CRs are line endings.  What follows is each format's own:
    # only the lexicon trims its lines, so only there is an indented "#" a
    # comment; each reader rejects a CR left inside a line with its own
    # error type.
    assert _outcome(parse, text) == expected


# Fields that reading changes or rejects: Arabic yeh, kaf and heh, which
# it unifies, heh + hamza above, which NFC composes, and a lone CR.
_READ_CHANGES = ["وں", "ے", "بد ", "قلم", "يں", "كا", "ہ\u0654", "اَ", "و\rں"]
_RULE_LINES = (
    st.builds(lambda kind, pattern, rest: "\t".join([kind, pattern, *rest]),
              st.sampled_from("SP"), st.sampled_from(_READ_CHANGES),
              st.lists(st.sampled_from(["", "ی", "ه", "3", "\r"]), max_size=2))
    | st.sampled_from(_READ_CHANGES).map("#!exception\t".__add__)
    | st.sampled_from(["#!default-min-stem\t3", "# \r", ""])
)


@given(st.lists(_RULE_LINES, max_size=4).map("\n".join))
def test_accepted_rule_text_serializes_and_reads_back_equal(text):
    rs = _outcome(parse_rule_file, text)
    if isinstance(rs, RuleSet):
        assert parse_rule_file(serialize_rule_set(rs)) == rs


# Field pieces: letters, a digit-only string, a fatha, a space, the Arabic
# yeh, kaf and heh that reading unifies, and the tab, CR and LF that split
# or end a line.
_FIELD_PIECES = ["ک", "تاب", "وں", "3", "12", "\u064e", " ", "ي", "ك", "ه", "\t", "\r", "\n"]
_FIELDS = st.lists(st.sampled_from(_FIELD_PIECES), max_size=3).map("".join)


def _or_none(build, *args):
    try:
        return build(*args)
    except ValueError:
        return None


_RULE_SETS = st.builds(
    lambda rules, exceptions: _or_none(RuleSet, [r for r in rules if r], exceptions),
    st.lists(st.builds(_or_none, st.just(AffixRule), st.sampled_from(AffixKind), _FIELDS, _FIELDS,
                       st.sampled_from([None, 1, 3])), max_size=4),
    # RuleSet refuses an empty word or one with whitespace at an edge.
    st.frozensets(_FIELDS.filter(lambda w: w and w == w.strip()), max_size=2),
)


def _unwritable(text):
    return not {"\t", "\r", "\n"}.isdisjoint(text) or normalize(text, strip_diacritics=False) != text


def _refused_name(rs):
    """What a writer that states the format's rules itself refuses first, or None.

    A field holding a tab, CR or LF or a letter that reading unifies, or a
    digit-only replacement on a rule without its own ``min_stem``.
    """
    for word in sorted(rs.exceptions):
        if _unwritable(word):
            return f"exception {word!r}"
    for rule in rs.rules:
        fields = (rule.pattern, rule.replacement)
        digit_only = rule.replacement.isascii() and rule.replacement.isdigit()
        if any(map(_unwritable, fields)) or digit_only and rule.min_stem is None:
            return f"rule {rule.rule_id!r}"
    return None


@settings(max_examples=300, deadline=None)
@given(_RULE_SETS)
def test_serialize_refuses_exactly_what_the_format_cannot_express(rs):
    assume(rs is not None)
    name = _refused_name(rs)
    if name is None:
        assert parse_rule_file(serialize_rule_set(rs)) == rs
    else:
        with pytest.raises(ValueError) as exc_info:
            serialize_rule_set(rs)
        assert name in str(exc_info.value)


class TestSerialize:
    def test_round_trip_seven_rules(self):
        rs = parse_rule_file("S\tوں\nS\tے\nS\tات\nS\tیاں\nP\tنو\nP\tلا\nP\tبد\n")
        assert parse_rule_file(serialize_rule_set(rs)) == rs

    def test_empty_ruleset_serializes_to_header_only(self):
        text = serialize_rule_set(RuleSet(()))
        assert all(line.startswith("#") for line in text.splitlines())
        assert parse_rule_file(text) == RuleSet(())

    def test_round_trip_with_exceptions_and_min_stem(self):
        rs = RuleSet(
            # "ہ" then "\u0654" would compose, but they sit in separate fields.
            (AffixRule(S, "وں", "ہ", 3), AffixRule(P, "بد "), AffixRule(S, "ab", "5", 2),
             AffixRule(S, "ہ", "\u0654")),
            frozenset({"بدمعاش", "حیات"}),
            default_min_stem=3,
        )
        assert parse_rule_file(serialize_rule_set(rs)) == rs

    @pytest.mark.parametrize(
        "rs,name",
        [
            (RuleSet((AffixRule(S, "ab", "5"),)), "'S:ab'"),  # would read back as min_stem=5
            (RuleSet((AffixRule(S, "a\tb"),)), "'S:a\\tb'"),  # would read back as a -> b
            (RuleSet((AffixRule(S, "ab", "\n"),)), "'S:ab'"),  # the replacement would be lost
            (RuleSet((), frozenset({"a\rb"})), "'a\\rb'"),
            # Reading unifies Arabic yeh, heh and kaf to the Urdu letters.
            (RuleSet((AffixRule(S, "يں"),)), "'S:يں'"),
            (RuleSet((AffixRule(S, "وں", "ه"),)), "'S:وں'"),
            (RuleSet((), frozenset({"كتاب"})), "'كتاب'"),
        ],
        ids=["digit-replacement", "tab-in-pattern", "lf-in-replacement", "cr-in-exception",
             "arabic-yeh-in-pattern", "arabic-heh-in-replacement", "arabic-kaf-in-exception"],
    )
    def test_inexpressible_rule_set_raises_naming_it(self, rs, name):
        with pytest.raises(ValueError) as exc_info:
            serialize_rule_set(rs)
        assert name in str(exc_info.value)

    def test_shipped_default_file_is_canonical_fixpoint(self, default_rules):
        from urdustem import data

        text = data.read_text(data.DEFAULT_RULES)
        assert serialize_rule_set(parse_rule_file(text)) == text


class TestShippedDefaults:
    def test_adjacent_rules_never_increase_in_length(self, default_rules):
        lengths = [r.pattern_length for r in default_rules.rules]
        assert all(a >= b for a, b in zip(lengths, lengths[1:]))

    def test_counts_match_file_header(self, default_rules):
        from urdustem import data

        header = data.read_text(data.DEFAULT_RULES).splitlines()[:3]
        assert f"# suffixes: {default_rules.suffix_count}" in header
        assert f"# prefixes: {default_rules.prefix_count}" in header

    def test_default_min_stem_is_two(self, default_rules):
        assert default_rules.default_min_stem == 2

    @pytest.mark.parametrize("name", [data.DEFAULT_RULES, data.TABLE2_RULES, data.PARADIGM_RULES])
    def test_buckets_are_in_code_point_order_too(self, name):
        # No shipped pattern holds a mark, so its clusters are its code points
        # and the index in rule order is, entry for entry, the index sorted
        # longest in code points first (ties in rule order).
        rs = data.load_rules(name)
        assert all(len(r.pattern) == r.pattern_length for r in rs.rules)
        by_code_points = {True: {}, False: {}}
        for rule in sorted(rs.rules, key=lambda r: -len(r.pattern)):
            suffix = rule.kind is S
            by_code_points[suffix].setdefault(rule.pattern[-1 if suffix else 0], []).append(rule)
        assert {suffix: {edge: [rule for _, rule, _ in bucket] for edge, bucket in by_edge.items()}
                for suffix, by_edge in rs.buckets.items()} == by_code_points
