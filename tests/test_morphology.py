import pytest
from hypothesis import example, given, settings, strategies as st

from urdustem import graphemes
from urdustem.graphemes import ZWJ, ZWNJ
from urdustem.morphology import (
    Adjective,
    ParadigmEntry,
    ParadigmError,
    VerbRoot,
    generate_gold,
    inflect_adjective,
    inflect_noun,
    inflect_verb,
    parse_lexicon_file,
)

HAMMER = ParadigmEntry("ہتھوڑا")

# Forms in gold order: singular nominative, oblique and vocative, then
# plural nominative, oblique and vocative.
FORM_CELLS = [
    (case, number)
    for number in ("singular", "plural")
    for case in ("Case.NOMINATIVE", "Case.OBLIQUE", "Case.VOCATIVE")
]

TABLE1_GRID = [
    ("Case.NOMINATIVE", "singular", "ہتھوڑا"),
    ("Case.OBLIQUE", "singular", "ہتھوڑے"),
    ("Case.NOMINATIVE", "plural", "ہتھوڑے"),
    ("Case.OBLIQUE", "plural", "ہتھوڑوں"),
    ("Case.VOCATIVE", "plural", "ہتھوڑو"),
]


class TestInflectNoun:
    @pytest.mark.parametrize("case,number,expected", TABLE1_GRID)
    def test_alif_final_grid(self, case, number, expected):
        # Table 1's cells, each at its place in the six-form tuple.
        assert inflect_noun(HAMMER.lemma)[FORM_CELLS.index((case, number))] == expected

    def test_alif_final_replaces_the_alif(self):
        assert inflect_noun("ہتھوڑا") == ("ہتھوڑا", "ہتھوڑے", "ہتھوڑا", "ہتھوڑے", "ہتھوڑوں", "ہتھوڑو")

    def test_he_final_replaces_the_he(self):
        assert inflect_noun("علاقہ") == ("علاقہ", "علاقے", "علاقہ", "علاقے", "علاقوں", "علاقو")

    def test_ain_final_appends_instead_of_replacing(self):
        # Hand application of the ain sub-rule: the ending is added after
        # the final letter, nothing is removed.
        assert inflect_noun("موقع") == ("موقع", "موقعے", "موقع", "موقعے", "موقعوں", "موقعو")

    def test_lemma_without_paradigm_rejected(self):
        for build in (inflect_noun, ParadigmEntry):
            for lemma in ("سوال", ""):
                with pytest.raises(ParadigmError) as exc_info:
                    build(lemma)
                assert str(exc_info.value) == (
                    f"no paradigm specified for lemma {lemma!r} (must end in ا, ہ or ع)"
                )

    def test_from_lemma_inference(self):
        for lemma in ("ہتھوڑا", "علاقہ", "موقع"):
            assert ParadigmEntry.from_lemma(lemma) == ParadigmEntry(lemma)
        with pytest.raises(ParadigmError):
            ParadigmEntry.from_lemma("سوال")


class TestInflectVerb:
    def test_exemplar_triple(self):
        assert inflect_verb("کر") == ("کرنا", "کرانا", "کروانا")

    def test_empty_root_errors(self):
        with pytest.raises(ParadigmError):
            inflect_verb("")

    def test_empty_root_rejected_when_built(self):
        # Built, not only when inflected: generate_gold never sees it.
        with pytest.raises(ParadigmError, match="^verb root must be non-empty$"):
            VerbRoot("")

    @pytest.mark.parametrize(
        "root",
        "مل چل بن سن لکھ پڑھ دیکھ سمجھ بول کھا پی جا اٹھ بیٹھ دوڑ پکڑ چھوڑ مار کاٹ پہن".split(),
    )
    def test_pattern_shape(self, root):
        # Pattern-generalized beyond the single documented exemplar.
        forms = inflect_verb(root)
        assert all(f.startswith(root) and f.endswith("نا") for f in forms)
        assert len({*forms}) == 3


class TestInflectAdjective:
    def test_documented_pair(self):
        assert inflect_adjective("فرتیلا") == ("فرتیلے", "فرتیلی")

    def test_degenerate_single_grapheme(self):
        assert inflect_adjective("ا") == ("ے", "ی")

    def test_hand_verified_pair(self):
        assert inflect_adjective("لمبا") == ("لمبے", "لمبی")

    def test_non_alif_final_not_specified(self):
        with pytest.raises(ParadigmError, match="not specified"):
            inflect_adjective("خوش")


@pytest.mark.parametrize("kind", [ParadigmEntry, VerbRoot, Adjective])
def test_non_str_lemma_rejected(kind):
    for lemma, type_name in ((1, "int"), (None, "NoneType"), (b"\xd8\xa7", "bytes")):
        with pytest.raises(ParadigmError) as exc_info:
            kind(lemma)
        assert str(exc_info.value) == f"lemma {lemma!r} has type {type_name}, not str"


class TestGenerateGold:
    def test_noun_produces_table1_grid(self):
        gold = generate_gold([HAMMER])
        assert len(gold) == 6
        surfaces = [g.word for g in gold]
        assert surfaces == ["ہتھوڑا", "ہتھوڑے", "ہتھوڑا", "ہتھوڑے", "ہتھوڑوں", "ہتھوڑو"]
        identity = [g for g in gold if g.word == g.expected_stem]
        assert len(identity) == 2
        for g in identity:
            assert g.expected_prefix is None and g.expected_suffix is None
        for g in gold:
            assert g.expected_stem == "ہتھوڑا"

    def test_empty_lexicon(self):
        assert generate_gold([]) == []

    def test_verb_entries(self):
        gold = generate_gold([VerbRoot("کر")])
        assert [(g.word, g.expected_stem, g.expected_suffix) for g in gold] == [
            ("کرنا", "کر", "نا"),
            ("کرانا", "کر", "انا"),
            ("کروانا", "کر", "وانا"),
        ]

    def test_adjective_entries(self):
        gold = generate_gold([Adjective("فرتیلا")])
        assert [(g.word, g.expected_suffix) for g in gold] == [
            ("فرتیلے", "ے"),
            ("فرتیلی", "ی"),
        ]

    def test_output_count_is_sum_of_paradigm_sizes(self):
        gold = generate_gold([HAMMER, VerbRoot("کر"), Adjective("لمبا")])
        assert len(gold) == 6 + 3 + 2

    def test_surface_changes_only_the_edge(self):
        # Replacement paradigms touch only the final grapheme; the ain
        # paradigm only appends.
        for entry in (HAMMER, ParadigmEntry.from_lemma("موقع")):
            stem_g = graphemes.split(entry.lemma)
            for g in generate_gold([entry]):
                surface_g = graphemes.split(g.word)
                if stem_g[-1] == "ع":
                    assert surface_g[: len(stem_g)] == stem_g
                else:
                    assert surface_g[: len(stem_g) - 1] == stem_g[:-1]

    def test_unsupported_item_rejected(self):
        with pytest.raises(ParadigmError, match="unsupported"):
            generate_gold(["کر"])


def _cluster_suffix(lemma, surface):
    """Reference: the surface past its longest common grapheme-cluster prefix with the lemma."""
    lg, sg = graphemes.split(lemma), graphemes.split(surface)
    i = 0
    while i < len(lg) and i < len(sg) and lg[i] == sg[i]:
        i += 1
    return "".join(sg[i:]) or None


def _has_paradigm(kind, lemma):
    """Reference: whether the lemma's last grapheme cluster admits the item kind."""
    if not lemma:
        return False
    last = graphemes.split(lemma)[-1]
    return kind is VerbRoot or last in {ParadigmEntry: ("ا", "ہ", "ع"), Adjective: ("ا",)}[kind]


# Letters (the three paradigm finals among them), fatha, kasra, superscript
# alef, hamza above, maddah, ZWNJ and ZWJ, so that clusters span code points.
_LEMMAS = st.text(alphabet="اآہعکلمبوےیء\u064e\u0650\u0670\u0654\u0653" + ZWNJ + ZWJ, max_size=6)


@given(kind=st.sampled_from([ParadigmEntry, VerbRoot, Adjective]), lemma=_LEMMAS)
@example(kind=ParadigmEntry, lemma="ک\u064eا")
@example(kind=ParadigmEntry, lemma="کا\u0653")
@example(kind=Adjective, lemma="ل\u0670ا")
@example(kind=VerbRoot, lemma="\u064e")
def test_generate_gold_matches_cluster_reference(kind, lemma):
    try:
        gold = generate_gold([kind(lemma)])
    except ParadigmError:
        assert not _has_paradigm(kind, lemma)
        return
    assert _has_paradigm(kind, lemma)
    assert len(gold) == {ParadigmEntry: 6, VerbRoot: 3, Adjective: 2}[kind]
    for g in gold:
        assert g.expected_stem == lemma and g.expected_prefix is None
        assert g.expected_suffix == _cluster_suffix(lemma, g.word)


class TestLexiconFile:
    def test_parse_mixed_lexicon(self):
        items = parse_lexicon_file("noun\tہتھوڑا\nverb\tکر\nadj\tلمبا\n# comment\n")
        assert [type(i).__name__ for i in items] == ["ParadigmEntry", "VerbRoot", "Adjective"]

    def test_leading_bom_ignored(self):
        assert parse_lexicon_file("\ufeffnoun\tہتھوڑا\n") == parse_lexicon_file("noun\tہتھوڑا\n")

    def test_lemma_without_paradigm_carries_line(self):
        with pytest.raises(ParadigmError, match="line 2: no paradigm specified"):
            parse_lexicon_file("noun\tہتھوڑا\nnoun\tسوال\n")

    def test_bad_category_carries_line(self):
        with pytest.raises(ParadigmError, match="line 2"):
            parse_lexicon_file("noun\tہتھوڑا\nadverb\tیہاں\n")

    @pytest.mark.parametrize("category,lemma", [("noun", "#لڑکا"), ("verb", "#کر"), ("adj", "#لمبا")])
    def test_lemma_starting_with_hash_carries_line(self, category, lemma):
        # gen would write gold lines starting with "#", which read as comments.
        with pytest.raises(ParadigmError, match=f"line 2: lemma '{lemma}' starts with '#'"):
            parse_lexicon_file(f"noun\tکمرا\n{category}\t{lemma}\n")

    def test_lemma_trimmed(self):
        items = parse_lexicon_file("noun\t لڑکا\nverb\t\u00a0 کر\nadj\t  لمبا\n")
        assert items == [ParadigmEntry("لڑکا"), VerbRoot("کر"), Adjective("لمبا")]

    def test_letters_unified_marks_kept(self):
        items = parse_lexicon_file("noun\tعلاقه\nnoun\tلڑكا\nverb\tك\u064eر\n")
        assert items == [ParadigmEntry("علاقہ"), ParadigmEntry("لڑکا"), VerbRoot("ک\u064eر")]

    def test_shipped_lexicon_loads(self):
        from urdustem import data

        items = parse_lexicon_file(data.read_text(data.GROUP1_LEXICON))
        assert len(items) >= 50
        assert all(isinstance(i, ParadigmEntry) for i in items)


# Lemma pieces: the three noun endings, Arabic heh (read as choti he), a
# fatha, "#", and whitespace that trimming may or may not reach.
_LEMMA_PIECES = ["لڑک", "ا", "ہ", "ه", "ع", "ک", "\u064e", "#", " ", "\u00a0", "\t", "\r"]
_LEXICON_LINES = st.lists(
    st.builds(lambda category, lemma: f"{category}\t{lemma}",
              st.sampled_from(["noun", "verb", "adj", " noun", "# noun"]),
              st.lists(st.sampled_from(_LEMMA_PIECES), max_size=4).map("".join))
    | st.sampled_from(["", " ", "# note"]),
    max_size=5,
)
_PARADIGM_SIZES = {ParadigmEntry: 6, VerbRoot: 3, Adjective: 2}


@settings(max_examples=300, deadline=None)
@given(_LEXICON_LINES.map("\n".join))
def test_every_lexicon_that_parses_generates(text):
    # gen reads the lexicon as the one step that can fail: each item that
    # parse_lexicon_file builds is one generate_gold can inflect.
    try:
        lexicon = parse_lexicon_file(text)
    except ParadigmError:
        return
    gold = generate_gold(lexicon)
    assert len(gold) == sum(_PARADIGM_SIZES[type(item)] for item in lexicon)
