import copy
import pickle
import random
import unicodedata

import pytest
from hypothesis import example, given, settings, strategies as st

from urdustem import graphemes, stemmer
from urdustem.graphemes import ZWNJ
from urdustem.rules import AffixKind, AffixRule, RuleSet, parse_rule_file
from urdustem.stemmer import (
    MAX_PASSES,
    PREFIX_FIRST,
    SUFFIX_FIRST,
    StemConfig,
    StemError,
    StemResult,
    stem_batch,
    stem_word,
)

from conftest import URDU_LETTERS, random_ruleset, random_word
from naive_oracle import ClusterCodes, naive_stem

S = AffixKind.SUFFIX
P = AffixKind.PREFIX

TABLE2_EXPECTED = [
    ("علاقوں", None, "علاقہ", "وں"),
    ("فاصلے", None, "فاصلہ", "ے"),
    ("سوالات", None, "سوال", "ات"),
    ("لڑکیاں", None, "لڑکی", "یاں"),
    ("راجویر", "راج", "ویر", None),
    ("نوجوان", "نو", "جوان", None),
    ("لاجواب", "لا", "جواب", None),
    ("بد نصیب", "بد ", "نصیب", None),
]


class TestKnownWords:
    @pytest.mark.parametrize("word,prefix,stem,suffix", TABLE2_EXPECTED)
    def test_documented_decompositions(self, table2_rules, word, prefix, stem, suffix):
        res = stem_word(word, table2_rules)
        assert (res.prefix, res.stem, res.suffix) == (prefix, stem, suffix)
        assert not res.exception_hit

    def test_no_match_passes_through(self, default_rules):
        res = stem_word("قلم", default_rules)
        assert res.stem == "قلم"
        assert res.prefix is None and res.suffix is None
        assert res.applied == ()

    def test_exception_word_returned_verbatim(self, table2_rules):
        res = stem_word("بدمعاش", table2_rules)
        assert res.stem == "بدمعاش" and res.exception_hit
        assert res.applied == ()

    def test_without_exception_prefix_rule_fires(self, default_rules):
        res = stem_word("بدمعاش", default_rules)
        assert res.prefix == "بد"

    def test_longer_suffix_outranks_shorter(self):
        rs = parse_rule_file("S\tی\nS\tگی\n")
        res = stem_word("پیشگی", rs)
        assert res.stem == "پیش"
        assert res.suffix == "گی"

    def test_known_failure_literal_stripping(self, default_rules):
        # Literal stripping of the two-grapheme suffix leaves a stem that
        # is not a real word; recorded as a regression anchor, not truth.
        res = stem_word("حیات", default_rules)
        assert (res.stem, res.suffix) == ("حی", "ات")


class TestContracts:
    def test_empty_word_errors(self, default_rules):
        with pytest.raises(StemError):
            stem_word("", default_rules)

    def test_non_nfc_word_errors(self, default_rules):
        word = "\u0627\u0653\u0642\u0648\u0645"  # alif + maddah composes under NFC
        with pytest.raises(StemError, match="normalize"):
            stem_word(word, default_rules)

    @pytest.mark.parametrize("word,name", [(1, "int"), (b"ab", "bytes"), (None, "NoneType")])
    def test_non_str_word_errors_naming_its_type(self, default_rules, word, name):
        with pytest.raises(StemError, match=f"^word {word!r} has type {name}, not str$"):
            stem_word(word, default_rules)

    def test_min_stem_blocks_short_residuals(self):
        rs = parse_rule_file("S\tات\t\t3\n")
        assert stem_word("سوالات", rs).stem == "سوال"
        assert stem_word("حیات", rs).stem == "حیات"  # residual would be 2 < 3

    def test_min_stem_checked_before_replacement(self):
        # Residual of 1 grapheme is too short even though the replacement
        # would bring the stem back up to the minimum length.
        rs = parse_rule_file("S\tوں\tہ\t2\n")
        assert stem_word("توں", rs).stem == "توں"
        assert stem_word("علاقوں", rs).stem == "علاقہ"

    def test_skipped_rule_falls_through_to_shorter_legal_one(self):
        rs = parse_rule_file("S\tیاں\t\t4\nS\tاں\t\t2\n")
        res = stem_word("لڑکیاں", rs)
        assert res.suffix == "اں" and res.stem == "لڑکی"

    def test_deterministic(self, default_rules):
        a = stem_word("علاقوں", default_rules)
        b = stem_word("علاقوں", default_rules)
        assert a == b

    def test_reconstruction_without_recoding(self, default_rules):
        res = stem_word("نوجوان", default_rules)
        assert (res.prefix or "") + res.stem + (res.suffix or "") == res.word

    def test_exception_beats_longer_match(self):
        rs = parse_rule_file("S\tیاں\n#!exception\tلڑکیاں\n")
        res = stem_word("لڑکیاں", rs)
        assert res.exception_hit and res.stem == "لڑکیاں"


class TestConfig:
    def test_passes_bounded(self):
        with pytest.raises(ValueError):
            StemConfig(max_suffix_passes=5)
        with pytest.raises(ValueError):
            StemConfig(max_prefix_passes=-1)

    @pytest.mark.parametrize("value", [2.0, "1", True, None], ids=["float", "str", "bool", "none"])
    @pytest.mark.parametrize("field", ["max_suffix_passes", "max_prefix_passes"])
    def test_passes_not_an_int_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"passes must be an int in 0..4, got {value!r}"):
            StemConfig(**{field: value})

    def test_zero_passes_disable_phase(self, table2_rules):
        cfg = StemConfig(max_suffix_passes=0)
        res = stem_word("علاقوں", table2_rules, cfg)
        assert res.suffix is None and res.stem == "علاقوں"

    def test_two_suffix_passes(self):
        rs = parse_rule_file("S\tی\nS\tگی\n")
        cfg = StemConfig(max_suffix_passes=2, max_prefix_passes=0)
        res = stem_word("دوستیگی", rs, cfg)
        assert res.stem == "دوست"
        assert res.suffix == "یگی"  # inner affix first in logical order
        assert res.applied == ("S:گی", "S:ی")

    def test_order_prefix_first(self):
        rs = parse_rule_file("P\tلا\nS\tی\n")
        cfg = StemConfig(order=PREFIX_FIRST)
        res = stem_word("لاچاری", rs, cfg)
        assert res.prefix == "لا" and res.suffix == "ی" and res.stem == "چار"

    @pytest.mark.parametrize("order", [SUFFIX_FIRST, PREFIX_FIRST])
    def test_phases_is_derived_and_outside_equality(self, order):
        cfg = StemConfig(2, 3, order)
        suffix_first = ((True, -1, range(2), str.removesuffix),
                        (False, 0, range(3), str.removeprefix))
        assert cfg.phases == (suffix_first if order == SUFFIX_FIRST else suffix_first[::-1])
        assert "phases" not in StemConfig._fields
        assert repr(cfg) == f"StemConfig(max_suffix_passes=2, max_prefix_passes=3, order={order!r})"
        twin = StemConfig(max_suffix_passes=2, max_prefix_passes=3, order=order)
        assert cfg == twin and hash(cfg) == hash(twin)
        assert hash(cfg) == hash((2, 3, order))
        assert cfg != StemConfig(3, 2, order)
        for clone in (pickle.loads(pickle.dumps(cfg)), copy.copy(cfg)):
            assert clone == cfg and clone.phases == cfg.phases
        assert cfg.__reduce__() == (StemConfig, (2, 3, order))
        with pytest.raises(AttributeError):
            cfg.phases = ()

    @pytest.mark.parametrize("order", [SUFFIX_FIRST, PREFIX_FIRST])
    def test_zero_pass_phase_is_left_out(self, order):
        assert StemConfig(0, 0, order).phases == ()
        assert StemConfig(2, 0, order).phases == ((True, -1, range(2), str.removesuffix),)
        assert StemConfig(0, 3, order).phases == ((False, 0, range(3), str.removeprefix),)


class TestSingleSplit:
    @pytest.mark.parametrize("word", [
        *(row[0] for row in TABLE2_EXPECTED), "قلم", "نولڑکیاں", "بد نوعلاقوں",
        "عَلاقوں", "خوش" + ZWNJ + "حالیاں", "\u064eکتابیں",
    ])
    def test_one_split_per_word_plus_one_per_recoding(self, table2_rules, monkeypatch, word):
        """None at all: ``stem_word`` never calls ``graphemes.split``, for a
        letters-only word, a marked word or a recoded stem, since
        ``graphemes.count`` deletes extenders instead of splitting."""
        calls = []
        real_split = graphemes.split

        def counting(text):
            calls.append(text)
            return real_split(text)

        monkeypatch.setattr(graphemes, "split", counting)
        by_id = {r.rule_id: r for r in table2_rules.rules}
        res = stem_word(word, table2_rules, StemConfig(max_suffix_passes=2, max_prefix_passes=2))
        # Replay the fired rules on the string: the stem is still right.
        stem = word
        for rule in map(by_id.get, res.applied):
            if rule.kind is S:
                assert stem.endswith(rule.pattern)
                stem = stem[:len(stem) - len(rule.pattern)] + rule.replacement
            else:
                assert stem.startswith(rule.pattern)
                stem = rule.replacement + stem[len(rule.pattern):]
            stem = unicodedata.normalize("NFC", stem)
        assert stem == res.stem
        assert calls == []


class _UnhashableStr(str):
    __hash__ = None


class TestBatch:
    def test_elementwise_equal_to_single_calls(self, default_rules):
        words = [w for w, *_ in TABLE2_EXPECTED]
        assert stem_batch(words, default_rules) == [stem_word(w, default_rules) for w in words]

    def test_empty_sequence(self, default_rules):
        assert stem_batch([], default_rules) == []

    def test_error_carries_index(self, default_rules):
        with pytest.raises(StemError, match="word 1"):
            stem_batch(["قلم", ""], default_rules)
        # A bad word is never remembered: its first occurrence raises.
        with pytest.raises(StemError, match="^word 1: "):
            stem_batch(["قلم", "", "قلم", ""], default_rules)

    def test_a_str_is_rejected_not_stemmed_letter_by_letter(self, default_rules):
        with pytest.raises(StemError, match="urdustem.corpus.tokenize"):
            stem_batch("کتابیں", default_rules)

    def test_one_shot_iterator_equals_list(self, default_rules):
        words = ["علاقوں", "قلم", "علاقوں", "نوجوان", "قلم"]
        batch = stem_batch(iter(words), default_rules)
        assert batch == stem_batch(words, default_rules)
        assert batch[0] is batch[2] and batch[1] is batch[4]

    @pytest.mark.parametrize("words,index", [
        (["قلم", "e\u0301", "قلم", "e\u0301"], 1),
        (["قلم", "کتاب", "قلم", "", "کتاب", ""], 3),
        (["قلم", "قلم", "e\u0301", ""], 2),
        (["قلم", 1, "قلم", 1], 1),
        (["قلم", "کتاب", "قلم", b"ab"], 3),
        ([["قلم"]], 0),
        (["قلم", {"قلم": 1}, "قلم"], 1),
        (["قلم", "کتاب", {"قلم"}], 2),
        (["قلم", "", ["قلم"]], 1),
        (["قلم", 1, ["قلم"], 1], 1),
    ], ids=["non-nfc", "empty", "non-nfc-then-empty", "int", "bytes", "list", "dict-after-a-word",
            "set-after-words", "empty-then-list", "int-then-list"])
    def test_error_index_is_first_position_of_the_bad_word(self, default_rules, words, index):
        for given in (words, iter(words)):
            with pytest.raises(StemError, match=f"^word {index}: "):
                stem_batch(given, default_rules)

    @pytest.mark.parametrize("bad", [["قلم"], {"قلم": 1}, {"قلم"}, _UnhashableStr("کتاب")],
                             ids=["list", "dict", "set", "unhashable-str"])
    def test_unhashable_word_errors_naming_its_index_and_type(self, default_rules, bad):
        message = f"word {bad!r} has type {type(bad).__name__}, not str"
        for words in ([bad], ["قلم", bad]):
            with pytest.raises(StemError) as exc_info:
                stem_batch(words, default_rules)
            index = len(words) - 1
            assert str(exc_info.value) == f"word {index}: {message}"
        with pytest.raises(StemError) as exc_info:
            stem_word(bad, default_rules)
        assert str(exc_info.value) == message

    def test_large_random_batch_matches_per_word_path(self, default_rules):
        rng = random.Random(7)
        words = [random_word(rng, 2, 8) for _ in range(1000)]
        batch = stem_batch(words, default_rules)
        singles = [stem_word(w, default_rules) for w in words]
        assert batch == singles

    @settings(max_examples=100, deadline=None)
    @given(
        words=st.lists(
            st.sampled_from([w for w, *_ in TABLE2_EXPECTED])
            | st.text(alphabet="اوی" + URDU_LETTERS[:6], min_size=1, max_size=6),
            min_size=1, max_size=5,
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=30)),
        order=st.sampled_from([SUFFIX_FIRST, PREFIX_FIRST]),
        passes=st.integers(1, 2),
    )
    def test_repeated_words_match_single_calls(self, table2_rules, words, order, passes):
        cfg = StemConfig(max_suffix_passes=passes, max_prefix_passes=passes, order=order)
        batch = stem_batch(words, table2_rules, cfg)
        assert batch == [stem_word(w, table2_rules, cfg) for w in words]
        first = {}
        for word, result in zip(words, batch):
            assert result is first.setdefault(word, result)

    def test_each_distinct_word_stemmed_once(self, default_rules, monkeypatch):
        calls = []

        def counting(word, rs, cfg):
            calls.append(word)
            return stem_word(word, rs, cfg)

        monkeypatch.setattr(stemmer, "stem_word", counting)
        words = ["علاقوں", "قلم", "علاقوں", "نوجوان", "قلم", "علاقوں"]
        stem_batch(words, default_rules)
        assert sorted(calls) == sorted(set(words))


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_rulesets_match_brute_force(self, seed):
        rng = random.Random(seed)
        rs, naive_rules, default_min = random_ruleset(rng, n_rules=rng.randint(1, 12))
        lexicon = [random_word(rng, 1, 9) for _ in range(50)]
        for _ in range(250):
            word = rng.choice(lexicon)
            got = stem_word(word, rs)
            expected = naive_stem(
                word, naive_rules, rs.exceptions, default_min
            )
            assert (got.prefix, got.stem, got.suffix, got.exception_hit, got.applied) == expected

    def test_oracle_agreement_with_multiple_passes(self):
        rng = random.Random(99)
        rs, naive_rules, default_min = random_ruleset(rng, n_rules=10)
        cfg = StemConfig(max_suffix_passes=2, max_prefix_passes=2)
        for _ in range(300):
            word = random_word(rng, 2, 10)
            got = stem_word(word, rs, cfg)
            expected = naive_stem(
                word, naive_rules, rs.exceptions, default_min,
                suffix_passes=2, prefix_passes=2,
            )
            assert (got.prefix, got.stem, got.suffix, got.exception_hit, got.applied) == expected

    @pytest.mark.parametrize("order", [SUFFIX_FIRST, PREFIX_FIRST])
    @pytest.mark.parametrize("suffix_passes", [0, 1, 2, MAX_PASSES])
    @pytest.mark.parametrize("prefix_passes", [0, 1, 2, MAX_PASSES])
    def test_every_config_matches_brute_force(self, order, suffix_passes, prefix_passes):
        rng = random.Random(f"{order} {suffix_passes} {prefix_passes}")
        rs, naive_rules, default_min = random_ruleset(rng, n_rules=12)
        cfg = StemConfig(suffix_passes, prefix_passes, order)
        prefixes = [r.pattern for r in naive_rules if r.kind == "P"] or [""]
        suffixes = [r.pattern for r in naive_rules if r.kind == "S"] or [""]
        most_applied = 0
        for _ in range(300):
            # Stack rule patterns on both sides so that multi-pass chains and
            # the min_stem boundary come up often.
            word = "".join(
                [rng.choice(prefixes) for _ in range(rng.randint(0, 3))]
                + [random_word(rng, 1, 4)]
                + [rng.choice(suffixes) for _ in range(rng.randint(0, 3))]
            )
            got = stem_word(word, rs, cfg)
            expected = naive_stem(
                word, naive_rules, rs.exceptions, default_min,
                suffix_passes=suffix_passes, prefix_passes=prefix_passes, order=order,
            )
            assert (got.prefix, got.stem, got.suffix, got.exception_hit, got.applied) == expected
            # stem_word builds its result positionally: it must still be a
            # plain StemResult equal to the one built by keyword.
            prefix, stem, suffix, exception_hit, applied = expected
            assert type(got) is StemResult
            assert got == StemResult(word=word, stem=stem, prefix=prefix, suffix=suffix,
                                     applied=applied, exception_hit=exception_hit)
            most_applied = max(most_applied, len(got.applied))
        assert most_applied >= min(2, suffix_passes + prefix_passes)


HARAKAT = "".join(chr(cp) for cp in range(0x064B, 0x0653))
# Marks that compose with a preceding alif, waw or yeh under NFC.
COMPOSING = "\u0653\u0654\u0655"


def _cluster(alphabet: str):
    return st.tuples(
        st.sampled_from(alphabet), st.text(alphabet=HARAKAT + ZWNJ, max_size=2)
    ).map("".join)


def _nfc_clusters(clusters) -> str:
    return unicodedata.normalize("NFC", "".join(clusters))


@st.composite
def _rule_sets(draw, pattern, replacement):
    """A RuleSet of random rules, unique per (kind, pattern)."""
    rules: dict[tuple[str, str], AffixRule] = {}
    for _ in range(draw(st.integers(1, 8))):
        kind, pat = draw(st.sampled_from("PS")), draw(pattern)
        if kind == "S" and graphemes.extends_cluster(pat[0]):
            continue  # a suffix that could never fire; AffixRule rejects it
        rep = unicodedata.normalize("NFC", draw(replacement))
        if graphemes.count(rep) > graphemes.count(pat) or rep == pat:
            rep = ""
        min_stem = draw(st.sampled_from([None, 1, 2, 3]))
        rules.setdefault((kind, pat), AffixRule(AffixKind(kind), pat, rep, min_stem))
    return RuleSet(tuple(rules.values()), default_min_stem=draw(st.integers(1, 3)))


class TestRecodingKeepsNfc:
    def test_maddah_replacement_composes_with_alif(self):
        rs = RuleSet((AffixRule(S, "بی", "\u0653"),))
        res = stem_word("کتابی", rs)
        assert res.stem == "کت\u0622"
        assert unicodedata.is_normalized("NFC", res.stem)

    @settings(max_examples=200, deadline=None)
    @given(
        rs=_rule_sets(
            st.text(alphabet="اوی" + URDU_LETTERS[:6], min_size=1, max_size=3),
            st.text(alphabet="اوی" + COMPOSING + HARAKAT, max_size=3),
        ),
        words=st.lists(st.text(alphabet="اوی" + URDU_LETTERS[:6], min_size=1, max_size=8),
                       min_size=1, max_size=10),
        passes=st.integers(1, 2),
    )
    def test_stems_are_nfc_and_stem_again(self, rs, words, passes):
        cfg = StemConfig(max_suffix_passes=passes, max_prefix_passes=passes)
        for word in words:
            stem = stem_word(word, rs, cfg).stem
            assert unicodedata.is_normalized("NFC", stem)
            stem_word(stem, rs, cfg)  # never raises StemError


@st.composite
def _marked_cases(draw):
    """Words of letters, harakat and ZWNJ, and a rule set over them."""
    clusters = st.lists(_cluster("ابتوی" + ZWNJ), min_size=1, max_size=7)
    words = draw(st.lists(clusters.map(_nfc_clusters), min_size=1, max_size=10))
    # Half the patterns are word edges, so that most words hit a rule.
    edges = sorted({
        "".join(edge)
        for w in words
        for n in (1, 2, 3)
        for edge in (graphemes.split(w)[:n], graphemes.split(w)[-n:])
    })
    rs = draw(_rule_sets(
        st.one_of(st.sampled_from(edges), clusters.map(lambda c: _nfc_clusters(c[:3]))),
        st.text(alphabet="ابتوی", max_size=2),
    ))
    return rs, words


# Marked patterns where only longest-first order gives the oracle's result:
# a shortest-first scan cuts "ی" in place of "تَی" and "اَ" in place of
# "اَب", and then stops at a stem that ends in a fatha.  Suffix first with
# two passes each way, "اَبتوتَی" sheds "تَی" and then "و", and then "اَب"
# would leave one cluster, below the default minimum of two, so "اَ" is cut.
_LONGEST_FIRST = (
    RuleSet((AffixRule(S, "تَی"), AffixRule(S, "ی"), AffixRule(S, "و"),
             AffixRule(P, "اَب"), AffixRule(P, "اَ"))),
    ["اَبتوتَی", "اَب" + ZWNJ + "توی", "بوتَی"],
)


class TestMarkedWordsAgainstOracle:
    """Words with harakat and ZWNJ, checked against the code-point oracle
    by mapping each grapheme cluster to one private-use code point."""

    @settings(max_examples=150, deadline=None)
    @given(
        case=_marked_cases(),
        order=st.sampled_from([SUFFIX_FIRST, PREFIX_FIRST]),
        suffix_passes=st.sampled_from([0, 1, 2, MAX_PASSES]),
        prefix_passes=st.sampled_from([0, 1, 2, MAX_PASSES]),
    )
    @example(case=_LONGEST_FIRST, order=SUFFIX_FIRST, suffix_passes=2, prefix_passes=2)
    @example(case=_LONGEST_FIRST, order=PREFIX_FIRST, suffix_passes=2, prefix_passes=2)
    def test_marked_words_match_brute_force(self, case, order, suffix_passes, prefix_passes):
        rs, words = case
        mapped = ClusterCodes(graphemes.split)
        naive_rules = mapped.rules(rs.rules)
        cfg = StemConfig(suffix_passes, prefix_passes, order)
        for word in words:
            got = stem_word(word, rs, cfg)
            applied = tuple(f"{a[0]}:{mapped(a[2:])}" for a in got.applied)
            expected = naive_stem(
                mapped(word), naive_rules, frozenset(), rs.default_min_stem,
                suffix_passes=suffix_passes, prefix_passes=prefix_passes, order=order,
            )
            assert (
                mapped(got.prefix), mapped(got.stem), mapped(got.suffix),
                got.exception_hit, applied,
            ) == expected

    @settings(max_examples=150, deadline=None)
    @given(case=_marked_cases())
    def test_clusters_match_extended_grapheme_clusters(self, case):
        # The oracle above maps graphemes.split's clusters, so check them
        # against Unicode's extended grapheme clusters.  A regex built for
        # another Python raises ImportError, not ModuleNotFoundError.
        regex = pytest.importorskip("regex", exc_type=ImportError)
        rs, words = case
        for text in words + [r.pattern for r in rs.rules]:
            assert graphemes.split(text) == regex.findall(r"\X", text)


class TestPhaseLoop:
    """Each phase runs its passes until its edge letter has no pattern or
    no pattern fires; neither ends the other phase."""

    @settings(max_examples=150, deadline=None)
    @given(case=_marked_cases(), order=st.sampled_from([SUFFIX_FIRST, PREFIX_FIRST]))
    def test_zero_passes_return_every_word_whole(self, case, order):
        rs, words = case
        for word in words:
            res = stem_word(word, rs, StemConfig(0, 0, order))
            assert res == StemResult(word=word, stem=word) and res.is_pass_through

    @pytest.mark.parametrize("word,order,passes,expected", [
        ("لاچار", SUFFIX_FIRST, 1, ("لا", "چار", None, ("P:لا",))),
        ("چاری", PREFIX_FIRST, 1, (None, "چار", "ی", ("S:ی",))),
        ("لاچاری", SUFFIX_FIRST, 2, ("لا", "چار", "ی", ("S:ی", "P:لا"))),
        ("لاچاری", PREFIX_FIRST, 2, ("لا", "چار", "ی", ("P:لا", "S:ی"))),
    ], ids=["suffix-miss", "prefix-miss", "second-suffix-pass-miss", "second-prefix-pass-miss"])
    def test_bucket_miss_ends_only_its_phase(self, word, order, passes, expected):
        # "ر" ends no suffix pattern and "چ" starts no prefix pattern.
        rs = parse_rule_file("P\tلا\nS\tی\n")
        res = stem_word(word, rs, StemConfig(passes, passes, order))
        assert (res.prefix, res.stem, res.suffix, res.applied) == expected


class TestStringScan:
    """Edges are probed on the word string, so a cut must fall between two
    grapheme clusters and the residual's cluster count must stay exact."""

    CFG = StemConfig(max_suffix_passes=2, max_prefix_passes=2)

    @pytest.mark.parametrize("word", [
        "نوِٹفچخ",  # the kasra belongs to the prefix's last cluster
        "نوَجوان",
        "نو" + ZWNJ + "جوان",  # so does a ZWNJ
    ])
    def test_prefix_cut_inside_a_cluster_is_refused(self, table2_rules, word):
        res = stem_word(word, table2_rules, self.CFG)
        assert (res.prefix, res.stem, res.applied) == (None, word, ())

    def test_prefix_before_a_zwnj_inside_the_stem_fires(self, table2_rules):
        res = stem_word("نوج" + ZWNJ + "وان", table2_rules, self.CFG)
        assert (res.prefix, res.stem) == ("نو", "ج" + ZWNJ + "وان")

    def test_suffix_after_a_marked_cluster(self, table2_rules):
        res = stem_word("علاقَوں", table2_rules, self.CFG)
        assert (res.prefix, res.stem, res.suffix) == (None, "علاقَہ", "وں")

    @pytest.mark.parametrize("min_stem,fires", [(4, True), (5, False)])
    def test_residual_counted_in_clusters_across_passes(self, min_stem, fires):
        # 7 clusters, 9 code points: after "یَ" (one cluster, two code
        # points), the residual "کتَابوں" has 6 clusters, and stripping "وں"
        # would leave "کتَاب", 4 clusters.
        rs = RuleSet((AffixRule(S, "یَ"), AffixRule(S, "وں", "", min_stem)))
        res = stem_word("کتَابوںیَ", rs, self.CFG)
        assert res.applied == (("S:یَ", "S:وں") if fires else ("S:یَ",))

    @pytest.mark.parametrize("min_stem,fires", [(2, True), (3, False)])
    def test_recoding_composed_under_nfc_is_recounted(self, min_stem, fires):
        # "کتا" + maddah composes to "کتآ", 3 clusters where the detached
        # residual and the replacement count 3 + 1.
        rs = RuleSet((AffixRule(S, "بی", "\u0653"), AffixRule(S, "\u0622", "", min_stem)))
        res = stem_word("کتابی", rs, self.CFG)
        if fires:
            assert (res.stem, res.suffix) == ("کت", "\u0622بی")
        else:
            assert (res.stem, res.suffix) == ("کت\u0622", "بی")
