import io
import json
import random
import unicodedata
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from urdustem import graphemes
from urdustem.cli import main
from urdustem.corpus import data_lines
from urdustem.evaluation import (
    ErrorClass,
    EvalError,
    EvalReport,
    GoldEntry,
    GoldFileError,
    classify_error,
    evaluate,
    format_percent,
    gold_to_tsv,
    parse_gold_file,
    report_kv,
    summarize,
)
from urdustem.graphemes import ZWNJ
from urdustem.rules import AffixKind, AffixRule, RuleSet, serialize_rule_set
from urdustem.stemmer import StemResult, shown_affix, stem_word

from conftest import random_ruleset, random_word
from naive_oracle import ClusterCodes, naive_stem


def result(word, stem, prefix=None, suffix=None):
    return StemResult(word=word, stem=stem, prefix=prefix, suffix=suffix)


# Letters, fatha, maddah and ZWNJ: the marks make multi-code-point clusters.
_CLASSIFY_ALPHABET = "ابتوی\u064e\u0653" + ZWNJ


@st.composite
def _classify_cases(draw):
    """A result and a gold entry for one word.  Both stems are usually
    cluster subsequences of the word, so both error directions are common."""
    word = draw(st.text(alphabet=_CLASSIFY_ALPHABET, min_size=1, max_size=8))
    clusters = graphemes.split(word)

    def stem():
        keep = draw(st.lists(st.booleans(), min_size=len(clusters), max_size=len(clusters)))
        kept = "".join(c for c, k in zip(clusters, keep) if k)
        return kept or draw(st.text(alphabet=_CLASSIFY_ALPHABET, min_size=1, max_size=4))

    affix = st.sampled_from([None, "ں", "وں"])
    res = result(word, stem(), draw(affix), draw(affix))
    return res, GoldEntry(word, stem(), draw(affix), draw(affix))


class TestClassify:
    def test_under_stemming_documented_example(self):
        got = classify_error(result("پیشگی", "پیشگ", suffix="ی"), GoldEntry("پیشگی", "پیش", None, "گی"))
        assert got is ErrorClass.UNDER_STEMMING

    def test_over_stemming_documented_example(self):
        got = classify_error(result("بدمعاش", "ماش", prefix="بد"), GoldEntry("بدمعاش", "بدمعاش"))
        assert got is ErrorClass.OVER_STEMMING

    def test_correct(self):
        got = classify_error(
            result("سوالات", "سوال", suffix="ات"), GoldEntry("سوالات", "سوال", None, "ات")
        )
        assert got is ErrorClass.CORRECT

    def test_recoding_miss_is_over_stemming(self):
        # The bare residual is a proper prefix of the recoded gold stem.
        got = classify_error(result("علاقوں", "علاق", suffix="وں"), GoldEntry("علاقوں", "علاقہ", None, "وں"))
        assert got is ErrorClass.OVER_STEMMING

    def test_orthogonal_mismatch_is_other(self):
        got = classify_error(result("علاقوں", "علاقے", suffix="وں"), GoldEntry("علاقوں", "علاقہ", None, "وں"))
        assert got is ErrorClass.OTHER

    def test_affix_mismatch_with_equal_stem_is_other(self):
        got = classify_error(result("سوالات", "سوال", suffix="ت"), GoldEntry("سوالات", "سوال", None, "ات"))
        assert got is ErrorClass.OTHER

    def test_stem_only_leniency(self):
        r = result("سوالات", "سوال", suffix="ت")
        g = GoldEntry("سوالات", "سوال", None, "ات")
        assert classify_error(r, g, stem_only=True) is ErrorClass.CORRECT

    def test_word_mismatch_errors(self):
        with pytest.raises(EvalError):
            classify_error(result("سوال", "سوال"), GoldEntry("سوالات", "سوال"))

    def test_non_contiguous_under_stemming(self):
        # کتب is in کتاب only with a gap (the alif is skipped).
        got = classify_error(result("کتابیں", "کتاب", suffix="یں"), GoldEntry("کتابیں", "کتب"))
        assert got is ErrorClass.UNDER_STEMMING

    def test_non_contiguous_over_stemming(self):
        # علقہ lost the interior alif of علاقہ.
        got = classify_error(result("علاقوں", "علقہ", suffix="وں"), GoldEntry("علاقوں", "علاقہ", None, "وں"))
        assert got is ErrorClass.OVER_STEMMING


def _evaluate_per_entry(results, gold, stem_only):
    """Reference: evaluate as it was, classifying every entry."""
    classes, correct_types, pass_through = [], set(), 0
    for i, (r, g) in enumerate(zip(results, gold)):
        try:
            cls = classify_error(r, g, stem_only)
        except EvalError as exc:
            raise EvalError(f"entry {i}: {exc}") from exc
        classes.append(cls)
        if cls is ErrorClass.CORRECT:
            correct_types.add(g.word)
            pass_through += r.is_pass_through
    tally = Counter(classes)
    lengths = [graphemes.count(g.word) for g in gold]
    return EvalReport(
        total_words=len(gold), correct=tally[ErrorClass.CORRECT],
        wrong=len(gold) - tally[ErrorClass.CORRECT], unique_correct=len(correct_types),
        pass_through_count=pass_through,
        accuracy_percent=Fraction(tally[ErrorClass.CORRECT], len(gold)) * 100,
        over_count=tally[ErrorClass.OVER_STEMMING], under_count=tally[ErrorClass.UNDER_STEMMING],
        other_count=tally[ErrorClass.OTHER], min_word_len=min(lengths), max_word_len=max(lengths))


@st.composite
def _repeated_cases(draw):
    """Aligned (result, gold) pairs drawn from a few distinct ones, each
    repeat either the same objects or value-equal copies, and perhaps one
    bad pair (a mismatched word or an empty expected stem) 1-3 times."""
    distinct = draw(st.lists(_classify_cases(), min_size=1, max_size=4))
    cases = []
    for _ in range(draw(st.integers(1, 12))):
        res, gold = draw(st.sampled_from(distinct))
        if draw(st.booleans()):
            res, gold = StemResult(*res), GoldEntry(*gold)
        cases.append((res, gold))
    if draw(st.booleans()):
        res, gold = draw(_classify_cases())
        bad = draw(st.sampled_from([(result("سوال", res.stem), gold),
                                    (res, GoldEntry(gold.word, ""))]))
        for _ in range(draw(st.integers(1, 3))):
            copy = (StemResult(*bad[0]), GoldEntry(*bad[1]))
            cases.insert(draw(st.integers(0, len(cases))), draw(st.sampled_from([bad, copy])))
    return cases


class TestEvaluate:
    def _aligned(self, n_correct, n_wrong):
        results, gold = [], []
        rng = random.Random(41)
        for i in range(n_correct):
            w = random_word(rng, 4, 8) + str()
            results.append(result(w, w))
            gold.append(GoldEntry(w, w))
        for i in range(n_wrong):
            w = random_word(rng, 4, 8)
            results.append(result(w, w[:-1], suffix=w[-1]))
            gold.append(GoldEntry(w, w))
        return results, gold

    def test_published_counts_render_as_86_5(self):
        results, gold = self._aligned(1730, 270)
        report = evaluate(results, gold)
        assert report.total_words == 2000
        assert report.correct == 1730 and report.wrong == 270
        assert report.accuracy_percent == Fraction(865, 10)
        assert format_percent(report.accuracy_percent) == "86.5"

    def test_all_correct(self):
        results, gold = self._aligned(7, 0)
        report = evaluate(results, gold)
        assert report.wrong == 0
        assert format_percent(report.accuracy_percent) == "100.0"

    def test_three_of_four(self):
        results, gold = self._aligned(3, 1)
        assert format_percent(evaluate(results, gold).accuracy_percent) == "75.0"

    def test_exact_rational_arithmetic(self):
        results, gold = self._aligned(1, 2)
        report = evaluate(results, gold)
        assert report.accuracy_percent == Fraction(100, 3)
        assert format_percent(report.accuracy_percent) == "33.3"

    @example(Fraction(1, 20))  # 0.05: a tie rounds up
    @example(Fraction(249, 100))
    @example(Fraction(3, 40))
    @example(Fraction(0))
    @given(value=st.fractions(min_value=0, max_value=10**6, max_denominator=10**6))
    def test_format_percent_rounds_half_up_to_one_place(self, value):
        with localcontext() as ctx:
            ctx.prec = 60  # exact at every tie; far from one otherwise
            exact = Decimal(value.numerator) / Decimal(value.denominator)
            expected = exact.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
        assert format_percent(value) == str(expected)

    @settings(max_examples=200, deadline=None)
    @given(cases=st.lists(_classify_cases(), min_size=1, max_size=12), stem_only=st.booleans())
    # Each class once or more, since other_count is what the other three leave.
    @example(cases=[
        (result("کتابیں", "کتاب", suffix="یں"), GoldEntry("کتابیں", "کتاب", None, "یں")),
        (result("پیشگی", "پیشگ", suffix="ی"), GoldEntry("پیشگی", "پیش", None, "گی")),
        (result("بدمعاش", "ماش", prefix="بد"), GoldEntry("بدمعاش", "بدمعاش")),
        (result("قلم", "قلب"), GoldEntry("قلم", "قلم")),
        (result("قلم", "قلب"), GoldEntry("قلم", "قلم")),
        (result("پیشگی", "پیشگ", suffix="ی"), GoldEntry("پیشگی", "پیش", None, "گی")),
    ], stem_only=False)
    def test_class_counts_tally_classify_error(self, cases, stem_only):
        results, gold = zip(*cases)
        report = evaluate(results, gold, stem_only)
        tally = Counter(classify_error(r, g, stem_only) for r, g in cases)
        assert (report.correct, report.over_count, report.under_count, report.other_count) == (
            tally[ErrorClass.CORRECT], tally[ErrorClass.OVER_STEMMING],
            tally[ErrorClass.UNDER_STEMMING], tally[ErrorClass.OTHER])
        assert report.wrong == len(cases) - tally[ErrorClass.CORRECT]

    @settings(max_examples=300, deadline=None)
    @given(cases=_repeated_cases(), stem_only=st.booleans())
    def test_repeated_pairs_score_as_each_entry_alone(self, cases, stem_only):
        results, gold = zip(*cases)
        try:
            expected = _evaluate_per_entry(results, gold, stem_only)
        except EvalError as exc:
            with pytest.raises(EvalError) as got:
                evaluate(results, gold, stem_only)
            assert str(got.value) == str(exc)  # names the first bad entry
            return
        assert evaluate(results, gold, stem_only)._asdict() == expected._asdict()

    def test_error_breakdown_partitions_wrong(self):
        results = [
            result("پیشگی", "پیشگ", suffix="ی"),
            result("بدمعاش", "ماش", prefix="بد"),
            result("علاقوں", "علاقے", suffix="وں"),
            result("سوال", "سوال"),
        ]
        gold = [
            GoldEntry("پیشگی", "پیش", None, "گی"),
            GoldEntry("بدمعاش", "بدمعاش"),
            GoldEntry("علاقوں", "علاقہ", None, "وں"),
            GoldEntry("سوال", "سوال"),
        ]
        report = evaluate(results, gold)
        assert (report.under_count, report.over_count, report.other_count) == (1, 1, 1)
        assert report.correct + report.wrong == report.total_words
        assert report.over_count + report.under_count + report.other_count == report.wrong

    def test_unique_and_pass_through_counts(self):
        w = "سوال"
        results = [result(w, w), result(w, w), result("جواب", "جواب")]
        gold = [GoldEntry(w, w), GoldEntry(w, w), GoldEntry("جواب", "جواب")]
        report = evaluate(results, gold)
        assert report.unique_correct == 2
        assert report.pass_through_count == 3

    def test_word_length_range_in_graphemes(self):
        results = [result("سوال", "سوال"), result("علاقوں", "علاقوں")]
        gold = [GoldEntry("سوال", "سوال"), GoldEntry("علاقوں", "علاقوں")]
        report = evaluate(results, gold)
        assert (report.min_word_len, report.max_word_len) == (4, 6)

    def test_empty_input_errors(self):
        with pytest.raises(EvalError, match="undefined"):
            evaluate([], [])

    def test_length_mismatch_errors(self):
        results, gold = self._aligned(2, 0)
        with pytest.raises(EvalError):
            evaluate(results[:1], gold)

    def test_word_mismatch_names_index(self):
        results, gold = self._aligned(2, 0)
        results[1] = result("سوال", "سوال")
        with pytest.raises(EvalError, match="entry 1"):
            evaluate(results, gold)

    def test_empty_gold_stem_names_index(self, default_rules):
        # GoldEntry builds with an empty field; evaluate refuses to score it.
        with pytest.raises(EvalError, match="entry 0"):
            evaluate([stem_word("کتاب", default_rules)], [GoldEntry("کتاب", "")])


class TestSummarize:
    def _report(self):
        results = [result("سوال", "سوال")]
        gold = [GoldEntry("سوال", "سوال")]
        return evaluate(results, gold)

    def test_table_rows(self):
        results, gold = TestEvaluate()._aligned(1730, 270)
        text = summarize(evaluate(results, gold))
        assert "Total Words" in text and "2000" in text
        assert "Correct stemmed output" in text and "1730" in text
        assert "Wrong output" in text and "270" in text
        assert "86.5" in text

    def test_single_word_report(self):
        text = summarize(self._report())
        assert "Total Words             1" in text
        assert "100.0" in text

    def test_deterministic(self):
        assert summarize(self._report()) == summarize(self._report())

    def test_kv_block(self):
        kv = report_kv(self._report())
        lines = dict(line.split("\t") for line in kv.strip().splitlines())
        assert lines["total_words"] == "1"
        assert lines["accuracy_percent"] == "100.0"


class TestGoldFile:
    def test_round_trip(self):
        entries = [
            GoldEntry("علاقوں", "علاقہ", None, "وں"),
            GoldEntry("نوجوان", "جوان", "نو", None),
            GoldEntry("قلم", "قلم"),
        ]
        assert parse_gold_file(gold_to_tsv(entries)) == entries

    def test_leading_bom_ignored(self):
        assert parse_gold_file("\ufeffقلم\tقلم\n") == parse_gold_file("قلم\tقلم\n")

    def test_letters_unified_marks_kept(self):
        # Arabic yeh and kaf read as the Urdu letters that stem unifies them to.
        assert parse_gold_file("كتابيں\tكتاب\t\tيں\nك\u064eتاب\tك\u064eتاب\n") == [
            GoldEntry("کتابیں", "کتاب", None, "یں"),
            GoldEntry("ک\u064eتاب", "ک\u064eتاب"),
        ]

    def test_strip_diacritics_strips_every_field(self):
        # Harakat, tatweel and superscript alef in the word, stem, prefix and
        # suffix, removed as stem --strip-diacritics removes them.
        text = "نو\u064eجو\u0640ان\u0670یں\tجو\u0650ان\tن\u064eو\tی\u064fں\n"
        assert parse_gold_file(text, strip_diacritics=True) == [
            GoldEntry("نوجوانیں", "جوان", "نو", "یں")
        ]
        assert parse_gold_file(text) == parse_gold_file(text, strip_diacritics=False)
        assert parse_gold_file(text)[0].expected_stem == "جو\u0650ان"

    def test_word_trimmed_other_fields_kept(self):
        # stem --pretokenized trims a line; it prints stems and affixes as is.
        assert parse_gold_file("\u00a0کتابیں \tکتاب \t\t یں\n") == [
            GoldEntry("کتابیں", "کتاب ", None, " یں")
        ]

    def test_word_of_whitespace_only_rejected_with_line(self):
        with pytest.raises(GoldFileError, match="^line 2: gold word and expected_stem"):
            parse_gold_file("قلم\tقلم\n \tقلم\n")

    def test_word_trimmed_to_hash_rejected_with_line(self):
        # Written back by gold_to_tsv, it would read as a comment.
        with pytest.raises(GoldFileError, match="^line 2: word '#کتاب' starts with '#'"):
            parse_gold_file("قلم\tقلم\n #کتاب\tکتاب\n")

    def test_comments_ignored(self):
        assert parse_gold_file("# header\nقلم\tقلم\n")[0].word == "قلم"

    def test_malformed_line_carries_number(self):
        for text in ("قلم\tقلم\n\tbroken\n", "قلم\tقلم\nقلم\t\n"):
            with pytest.raises(GoldFileError) as exc_info:
                parse_gold_file(text)
            assert exc_info.value.line == 2


def _parse_gold_lines_alone(text, strip_diacritics):
    """Reference: the gold-file rule applied to every line on its own, with no
    memo; returns the ``(line, entry)`` pairs in file order."""
    pairs = []
    for lineno, line in data_lines(text, GoldFileError, strip_diacritics):
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 2 or len(fields) > 4:
            raise GoldFileError(f"expected 2-4 tab-separated fields, got {len(fields)}", lineno)
        word, stem, prefix, suffix = fields + [""] * (4 - len(fields))
        word = word.strip()
        if not word or not stem:
            raise GoldFileError("gold word and expected_stem must be non-empty", lineno)
        if word.startswith("#"):
            raise GoldFileError(f"word {word!r} starts with '#', which reads as a comment", lineno)
        pairs.append((line, GoldEntry(word, stem, prefix or None, suffix or None)))
    return pairs


_GOOD_GOLD_LINES = [
    "قلم\tقلم",  # 2 fields
    "نوجوان\tجوان\tنو",  # 3 fields
    "کتابیں\tکتاب\t\tیں",  # 4 fields
    "علاقوں\tعلاقہ\t\tوں\r",  # CRLF
    "كتابيں\tكتاب\t\tيں",  # Arabic letters, unified on read
    "کتاب\u064eیں\tکتاب\t\tیں",  # a fatha, stripped only with strip_diacritics
    "  کتابیں\tکتاب\t\tیں",  # a space-led word, trimmed
    " قلم \tقلم ",  # trimmed word, untrimmed stem
    "# a comment",
    "#قلم\tقلم",  # a comment, though it has fields
    "",
    "   ",
]
_BAD_GOLD_LINES = [
    "قلم",  # 1 field
    "قلم\tقلم\t\t\tں",  # 5 fields
    "قلم\t",  # empty stem
    " \tقلم",  # word of whitespace only
    " #کتاب\tکتاب",  # word trimmed to '#'
    "لڑ\rکا\tلڑکا",  # CR inside the line
]


@st.composite
def _gold_texts(draw):
    """Gold text from a small pool of lines, repeats likely, with at most one
    distinct bad line, which may repeat."""
    lines = draw(st.lists(st.sampled_from(_GOOD_GOLD_LINES), max_size=14))
    bad = draw(st.none() | st.sampled_from(_BAD_GOLD_LINES))
    if bad is not None:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), bad)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestGoldFileAgainstLineByLine:
    @settings(max_examples=400, deadline=None)
    @given(text=_gold_texts(), strip_diacritics=st.booleans())
    @example(text="قلم\tقلم\nقلم\nقلم\tقلم\nقلم\n", strip_diacritics=False)
    # 2-, 3- and 4-field lines, then a 1- and a 5-field line after good ones.
    @example(text="قلم\tقلم\nنوجوان\tجوان\tنو\nکتابیں\tکتاب\t\tیں\n", strip_diacritics=False)
    @example(text="کتابیں\tکتاب\t\tیں\nقلم\tقلم\nقلم\n", strip_diacritics=False)
    @example(text="نوجوان\tجوان\tنو\nکتابیں\tکتاب\t\tیں\nقلم\tقلم\t\t\tں\n", strip_diacritics=True)
    def test_entries_errors_and_sharing_match_the_reference(self, text, strip_diacritics):
        try:
            pairs = _parse_gold_lines_alone(text, strip_diacritics)
        except GoldFileError as expected:
            with pytest.raises(GoldFileError) as got:
                parse_gold_file(text, strip_diacritics)
            assert (str(got.value), got.value.line) == (str(expected), expected.line)
            return
        entries = parse_gold_file(text, strip_diacritics)
        assert entries == [entry for _, entry in pairs]
        first = {}
        for (line, _), entry in zip(pairs, entries):
            assert first.setdefault(line, entry) is entry  # equal lines, one entry


def _cluster_classify(result, gold, stem_only):
    """Reference: the class by the rule written out, always comparing the
    grapheme clusters of ``graphemes.split``."""
    if result.stem == gold.expected_stem and (stem_only or (
            (shown_affix(result.prefix), shown_affix(result.suffix))
            == (shown_affix(gold.expected_prefix), shown_affix(gold.expected_suffix)))):
        return ErrorClass.CORRECT
    expected, produced = graphemes.split(gold.expected_stem), graphemes.split(result.stem)

    def proper_subsequence(needle, haystack):
        it = iter(haystack)
        return len(needle) < len(haystack) and all(g in it for g in needle)

    if proper_subsequence(expected, produced):
        return ErrorClass.UNDER_STEMMING
    if proper_subsequence(produced, expected):
        return ErrorClass.OVER_STEMMING
    return ErrorClass.OTHER


_STEM_LETTERS = "ابتوکیںہ"
# Fatha, damma, kasra and shadda, then ZWNJ and ZWJ: none is a letter.
_STEM_MARKS = "\u064e\u064f\u0650\u0651" + ZWNJ + graphemes.ZWJ


@st.composite
def _stem_pairs(draw):
    """A result and a gold entry whose stems are letters only, or hold marks
    and joiners, often one inside the other."""
    alphabet = draw(st.sampled_from([_STEM_LETTERS, _STEM_LETTERS + _STEM_MARKS]))
    word = draw(st.text(alphabet=alphabet, min_size=1, max_size=8))

    def stem():
        kind = draw(st.sampled_from(["kept", "slice", "letters", "marked"]))
        if kind == "slice":  # a contiguous run of the word's code points
            start = draw(st.integers(0, len(word) - 1))
            return word[start:draw(st.integers(start + 1, len(word)))]
        if kind == "kept":  # drop some code points of the word
            keep = draw(st.lists(st.booleans(), min_size=len(word), max_size=len(word)))
            kept = "".join(ch for ch, k in zip(word, keep) if k)
            if kept:
                return kept
        letters = _STEM_LETTERS + (_STEM_MARKS if kind == "marked" else "")
        return draw(st.text(alphabet=letters, min_size=1, max_size=6))

    affix = st.sampled_from([None, "ں", "وں", " وں"])
    return (result(word, stem(), draw(affix), draw(affix)),
            GoldEntry(word, stem(), draw(affix), draw(affix)))


class TestClassifyAgainstClusters:
    @settings(max_examples=1500, deadline=None)
    @given(case=_stem_pairs() | _classify_cases(), stem_only=st.booleans())
    @example(case=(result("کتاب", "کتا"), GoldEntry("کتاب", "کت\u064eا")), stem_only=False)
    @example(case=(result("کتاب", "کتاب"), GoldEntry("کتاب", "کتب")), stem_only=True)
    # The expected ب is a code-point substring of the produced بَ, but not
    # one of its clusters: other, not under-stemming.
    @example(case=(result("بَت", "بَ"), GoldEntry("بَت", "ب")), stem_only=False)
    # Equal stems: suffix " وں" against "وں" is correct, since stem prints
    # both as "وں"; "وں" against no suffix is other.
    @example(case=(result("کتابوں", "کتاب", suffix=" وں"), GoldEntry("کتابوں", "کتاب", None, "وں")),
             stem_only=False)
    @example(case=(result("کتابوں", "کتاب", suffix="وں"), GoldEntry("کتابوں", "کتاب")), stem_only=False)
    def test_class_equals_the_cluster_comparison(self, case, stem_only):
        res, gold = case
        assert classify_error(res, gold, stem_only) is _cluster_classify(res, gold, stem_only)


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("eval")


def _naive_results(rs, words, passes, order):
    """Reference: ``naive_stem`` of each word on cluster codes, decoded to
    text, as the dict that ``stem --json`` prints for it."""
    codes = ClusterCodes(graphemes.split)
    naive_rules = codes.rules(rs.rules)
    exceptions = frozenset(map(codes, rs.exceptions))
    coded = list(map(codes, words))
    clusters = {code: c for c, code in codes.code_points.items()}

    def decoded(text):
        return unicodedata.normalize("NFC", "".join(map(clusters.__getitem__, text)))

    rows = []
    for word, code in zip(words, coded):
        *parts, exception_hit, applied = naive_stem(
            code, naive_rules, exceptions, rs.default_min_stem,
            suffix_passes=passes[0], prefix_passes=passes[1], order=order)
        prefix, stem, suffix = (None if p is None else decoded(p) for p in parts)
        rows.append({"word": word, "prefix": prefix, "stem": stem, "suffix": suffix,
                     "applied": [a[:2] + decoded(a[2:]) for a in applied],
                     "exception": exception_hit})
    return rows


def _tally(rows, entries, stem_only):
    """Reference: the ``eval --json`` report of *rows* against *entries*,
    each pair classified by ``_cluster_classify`` and every entry counted,
    with no deduplication."""
    correct = over = under = pass_through = 0
    correct_words = set()
    for row, gold in zip(rows, entries):
        res = StemResult(row["word"], row["stem"], row["prefix"], row["suffix"])
        cls = _cluster_classify(res, gold, stem_only)
        if cls is ErrorClass.CORRECT:
            correct += 1
            correct_words.add(gold.word)
            pass_through += row["prefix"] is None and row["suffix"] is None and not row["exception"]
        over += cls is ErrorClass.OVER_STEMMING
        under += cls is ErrorClass.UNDER_STEMMING
    total = len(entries)
    tenths = (2000 * correct + total) // (2 * total)  # 1000 * correct / total, half-up
    lengths = [len(graphemes.split(g.word)) for g in entries]
    return {
        "total_words": total, "correct": correct, "wrong": total - correct,
        "unique_correct": len(correct_words), "pass_through_count": pass_through,
        "accuracy_percent": f"{tenths // 10}.{tenths % 10}", "over_count": over,
        "under_count": under, "other_count": total - correct - over - under,
        "min_word_len": min(lengths), "max_word_len": max(lengths),
    }


class TestEvalCommandAgainstReference:
    """``eval --json`` end to end against a reference that shares no scoring
    code with it: each gold line parsed on its own, each entry stemmed by
    ``naive_stem``, and no ``Counter``, ``classify_error`` or ``stem_word``.
    ``stem --json`` of the gold words is checked against the same stems,
    since ``applied`` reaches no field of the report."""

    @settings(max_examples=300, deadline=None)
    @given(
        rs=st.builds(lambda seed, n: random_ruleset(random.Random(seed), n)[0],
                     st.integers(0, 2**32 - 1), st.integers(1, 24)),
        exceptions=st.sets(st.sampled_from(["قلم", "کتابیں", "علاقوں"])),
        text=_gold_texts(), strip_diacritics=st.booleans(), stem_only=st.booleans(),
        passes=st.tuples(st.integers(0, 2), st.integers(0, 2)),
        order=st.sampled_from(["suffix-first", "prefix-first"]),
    )
    # Each class occurs: قلم over-stemmed by م, کتابیں under-stemmed by ں,
    # نوجوان correct, a repeated کتاب passed through, کتاب + fatha + یں other.
    @example(rs=RuleSet([AffixRule(AffixKind.SUFFIX, "م"), AffixRule(AffixKind.SUFFIX, "ں"),
                         AffixRule(AffixKind.PREFIX, "نو"),
                         AffixRule(AffixKind.SUFFIX, "یں", min_stem=5)]),
             exceptions=set(),
             text="قلم\tقلم\nکتابیں\tکتاب\t\tیں\nنوجوان\tجوان\tنو\nکتاب\tکتاب\n"
                  "کتاب\u064eیں\tکتاب\t\tیں\nکتاب\tکتاب\n",
             strip_diacritics=False, stem_only=False, passes=(1, 1), order="suffix-first")
    def test_report_equals_an_entry_by_entry_tally(
        self, eval_dir, rs, exceptions, text, strip_diacritics, stem_only, passes, order
    ):
        rs = RuleSet(rs.rules, exceptions, rs.default_min_stem)
        rules, gold, words = eval_dir / "random.rules", eval_dir / "gold.tsv", eval_dir / "words.txt"
        rules.write_text(serialize_rule_set(rs), encoding="utf-8")
        gold.write_text(text, encoding="utf-8")
        flags = ["--rules", str(rules), f"--strip-diacritics={strip_diacritics}",
                 "--suffix-passes", str(passes[0]), "--prefix-passes", str(passes[1]),
                 "--order", order]

        def run(*argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([*argv, *flags])
            return code, out.getvalue(), err.getvalue()

        code, out, err = run("eval", "--gold", str(gold), "--json",
                             *(["--stem-only"] if stem_only else []))
        try:
            entries = [entry for _, entry in _parse_gold_lines_alone(text, strip_diacritics)]
        except GoldFileError as exc:
            assert (code, out) == (2, "")
            assert err.startswith(f"urdustem: {gold}: line {exc.line}: ")
            return
        if not entries:
            assert (code, out) == (2, "") and "empty evaluation set" in err
            return
        rows = _naive_results(rs, [g.word for g in entries], passes, order)
        assert (code, err) == (0, "")
        assert json.loads(out) == _tally(rows, entries, stem_only)
        words.write_text("".join(g.word + "\n" for g in entries), encoding="utf-8")
        code, out, err = run("stem", str(words), "--pretokenized", "--json")
        assert (code, err) == (0, "")
        assert list(map(json.loads, out.splitlines())) == rows
