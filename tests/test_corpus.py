import random
import sys
import unicodedata
from itertools import groupby

import pytest
from hypothesis import given, strategies as st

from urdustem import cli, data
from urdustem.corpus import _WordChars, data_lines, normalize, tokenize
from urdustem.evaluation import GoldFileError, parse_gold_file
from urdustem.graphemes import ZWJ, ZWNJ
from urdustem.morphology import ParadigmError, parse_lexicon_file
from urdustem.rules import RuleParseError, parse_rule_file
from urdustem.stemmer import stem_batch

from conftest import DIACRITICS, URDU_LETTERS


def _in_word(ch: str) -> bool:
    return unicodedata.category(ch)[0] in "LM" or ch in (ZWNJ, ZWJ)


def _is_letter(ch: str) -> bool:
    return unicodedata.category(ch)[0] == "L"


def reference_tokenize(text: str) -> list[str]:
    """Test every character afresh, with no chunking and no memo.

    A letter opens a word unless one is open, a mark or joiner joins the
    open word and is dropped when none is open, and every other character
    closes the open word.
    """
    words: list[list[str]] = []
    is_open = False
    for ch in text:
        if _is_letter(ch):
            if not is_open:
                words.append([])
            is_open = True
        elif not _in_word(ch):
            is_open = False
        if is_open:
            words[-1].append(ch)
    return ["".join(word) for word in words]


# The merged table ``normalize`` used to run through ``str.translate``:
# letter unification, with the diacritic ranges and tatweel overriding it.
_OLD_DIACRITIC_RANGES = (
    (0x064B, 0x065F),
    (0x0610, 0x061A),
    (0x0670, 0x0670),
    (0x06D6, 0x06DC),
    (0x06DF, 0x06E4),
    (0x06E7, 0x06E8),
    (0x06EA, 0x06ED),
)
# The letter table, written out independently of ``corpus._UNIFY``.
_OLD_UNIFY = {
    0x064A: "\u06cc",  # ARABIC LETTER YEH -> FARSI YEH
    0x0649: "\u06cc",  # ARABIC LETTER ALEF MAKSURA -> FARSI YEH
    0x0643: "\u06a9",  # ARABIC LETTER KAF -> KEHEH
    0x0647: "\u06c1",  # ARABIC LETTER HEH -> HEH GOAL
    0x0629: "\u06c1",  # ARABIC LETTER TEH MARBUTA -> HEH GOAL
    0x06C3: "\u06c1",  # ARABIC LETTER TEH MARBUTA GOAL -> HEH GOAL
}
_OLD_STRIP_AND_UNIFY = {
    **_OLD_UNIFY,
    **dict.fromkeys(cp for lo, hi in _OLD_DIACRITIC_RANGES for cp in range(lo, hi + 1)),
    0x0640: None,
}


def reference_normalize(text: str, strip_diacritics: bool = True) -> str:
    """Reference: NFC, one ``translate`` through the merged table, NFC."""
    text = unicodedata.normalize("NFC", text)
    text = text.translate(_OLD_STRIP_AND_UNIFY if strip_diacritics else _OLD_UNIFY)
    return unicodedata.normalize("NFC", text)


def noisy_text(rng: random.Random, n_chars: int) -> str:
    pool = URDU_LETTERS + DIACRITICS + "  ،۔.!abc123٣" + ZWNJ
    return "".join(rng.choice(pool) for _ in range(n_chars))


class TestNormalize:
    def test_clean_nfc_input_is_fixpoint(self):
        text = "علاقوں میں"
        assert normalize(text) == text

    def test_strips_diacritics(self):
        assert normalize("عَلاقوں", strip_diacritics=True) == "علاقوں"

    def test_strips_every_combining_mark_of_the_arabic_block(self):
        marks = [chr(cp) for cp in range(0x0600, 0x0700)
                 if unicodedata.category(chr(cp)).startswith("M")]
        assert "\u0670" in marks  # superscript alef, Urdu khari zabar
        assert [m for m in marks if m in normalize("ب" + m)] == []

    def test_keeps_diacritics_when_asked(self):
        assert normalize("عَلاقوں", strip_diacritics=False) == "عَلاقوں"

    def test_unifies_arabic_letters(self):
        # Arabic yeh/kaf/heh to their Urdu counterparts.
        assert normalize("يكه") == "یکہ"

    def test_strips_tatweel(self):
        assert normalize("کـتاب") == "کتاب"

    def test_output_is_nfc(self):
        decomposed = "آلف"  # composes to alif-with-madda
        out = normalize(decomposed, strip_diacritics=False)
        assert unicodedata.is_normalized("NFC", out)
        assert out.startswith("آ")

    @pytest.mark.parametrize("strip", [True, False])
    def test_idempotent_on_random_noise(self, strip):
        rng = random.Random(3)
        for _ in range(300):
            text = noisy_text(rng, rng.randint(0, 40))
            once = normalize(text, strip_diacritics=strip)
            assert normalize(once, strip_diacritics=strip) == once

    @given(st.text(max_size=60))
    def test_idempotent_on_arbitrary_unicode(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @pytest.mark.parametrize("strip", [True, False])
    def test_matches_reference_on_every_code_point(self, strip):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert normalize(every, strip) == reference_normalize(every, strip)

    # The Arabic block (tatweel included), ZWNJ, Latin e and U+0301, with
    # half the draws from the pieces that need the final NFC pass: heh +
    # hamza above unifies to heh goal + hamza, which composes to U+06C2
    # when marks are kept, and e + tatweel + U+0301 composes to e-acute
    # once the tatweel is stripped.
    @given(
        st.lists(st.one_of(
            st.sampled_from([chr(cp) for cp in range(0x0600, 0x0700)]),
            st.sampled_from([ZWNJ, "e", "\u0301", "\u0640", "\u0647\u0654", "e\u0640\u0301"]),
        )).map("".join),
        st.booleans(),
    )
    def test_matches_reference_on_arabic_block(self, text, strip):
        assert normalize(text, strip) == reference_normalize(text, strip)

    def test_final_nfc_pass_cases(self):
        assert normalize("\u0647\u0654", strip_diacritics=False) == "\u06c2"
        assert normalize("e\u0640\u0301") == "\u00e9"


class _LineError(Exception):
    """Stands in for a reader's error type, built from (message, lineno)."""


def test_data_lines_frames_and_unifies_letters():
    # BOM, CRLF and blank lines are framing; Arabic kaf and yeh read as the
    # Urdu letters, the fatha stays, and a whitespace-only line that holds a
    # CR is skipped.  A CR inside a non-blank line raises the caller's error
    # type with its line, once the lines before it are yielded.
    lines = data_lines("\ufeffكتاب\r\n \t\n \r \nيَ\r\r\na\rb\nلکھ\n", _LineError)
    assert [next(lines), next(lines)] == [(1, "کتاب"), (4, "یَ")]
    with pytest.raises(_LineError) as exc_info:
        next(lines)
    assert exc_info.value.args == ("CR inside a line", 5)


# Every character that str.split() splits at but LF, which ends a line, and
# CR, which is drawn only at a line's end.
_INNER_SPACE = cli._WHITESPACE.replace("\n", "").replace("\r", "")


@st.composite
def _blank_and_letter_lines(draw):
    """Lines of whitespace, some holding one letter, each maybe CR-ended.
    A tab after the letter could make a valid gold line, so none is drawn."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        line = draw(st.text(alphabet=_INNER_SPACE, max_size=3))
        if draw(st.booleans()):
            line += "ک" + draw(st.text(alphabet=_INNER_SPACE.replace("\t", ""), max_size=3))
        lines.append(line + draw(st.sampled_from(["", "\r", "\r\r"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@given(text=_blank_and_letter_lines())
def test_data_lines_keeps_exactly_the_lines_with_a_non_space(text):
    # A letter line is malformed in every data file, so each reader fails
    # at the first line that str.strip() leaves non-empty, or reads nothing.
    kept = [n for n, line in enumerate(text.split("\n"), 1) if line.rstrip("\r").strip()]
    assert [n for n, _ in data_lines(text, _LineError)] == kept
    if not kept:
        assert parse_rule_file(text).rules == () and parse_gold_file(text) == []
        assert parse_lexicon_file(text) == []
        return
    with pytest.raises(RuleParseError) as rule_error:
        parse_rule_file(text)
    with pytest.raises(GoldFileError) as gold_error:
        parse_gold_file(text)
    assert rule_error.value.line == gold_error.value.line == kept[0]
    with pytest.raises(ParadigmError, match=f"^line {kept[0]}: "):
        parse_lexicon_file(text)


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("علاقوں میں") == ["علاقوں", "میں"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_kinds(self):
        # Digits and punctuation, fused to a word or standing alone, are dropped.
        assert tokenize("سال 2013، ٹیسٹ!") == ["سال", "ٹیسٹ"]

    def test_zwnj_is_word_internal(self):
        assert tokenize("خوش" + ZWNJ + "حال") == ["خوش" + ZWNJ + "حال"]

    @given(st.text())
    def test_words_rebuild_the_word_characters_of_text(self, text):
        # The word characters of text, less the marks and joiners that open
        # a run of them: lstrip removes a run's leading non-letters.
        runs = ["".join(run) for in_word, run in groupby(text, _in_word) if in_word]
        kept = [run.lstrip("".join(ch for ch in run if not _is_letter(ch))) for run in runs]
        words = tokenize(text)
        assert "".join(words) == "".join(kept)
        assert all(words) and all(_is_letter(word[0]) for word in words)

    @pytest.mark.parametrize("text,words", [
        ("،\u064e", []),
        ("۔\u0670", []),
        ("2\u0650کتاب", ["کتاب"]),
        ("7" + ZWNJ + "x", ["x"]),
        ("\u064e" + ZWNJ + "کتاب\u064e" + ZWNJ + "یں", ["کتاب\u064e" + ZWNJ + "یں"]),
    ])
    def test_word_starts_with_a_letter(self, text, words):
        # Marks and joiners after punctuation, a digit or a space are
        # dropped; those after a letter stay in the word.
        assert tokenize(text) == words
        assert tokenize(" " + text) == words

    def test_fixed_paragraph_token_count(self):
        # 40 sentences of 5 words and a final punctuation mark each: 200
        # words, counted by hand from the construction.
        sentence = "علاقوں میں نوجوان لوگ رہتے۔"
        paragraph = " ".join([sentence] * 40)
        words = tokenize(paragraph)
        assert len(words) == 200
        assert words == sentence[:-1].split() * 40

    def test_deterministic(self):
        text = "علاقوں میں، 42 لوگ۔"
        assert tokenize(text) == tokenize(text)

    def test_lone_surrogate_passes_through_the_pipeline(self):
        # Library entry points raise documented errors, never UnicodeError.
        text = normalize("کتابیں\ud800 لڑکوں \udfffَ")
        words = tokenize(text)
        assert [r.word for r in stem_batch(words, data.load_rules())] == words

    @given(st.text(alphabet=URDU_LETTERS + DIACRITICS + ZWNJ + "0123۴۵" + "۔، \n"))
    def test_matches_per_character_reference(self, text):
        assert tokenize(text) == reference_tokenize(text)

    # Whitespace beyond ASCII, ZWSP (Cf, not whitespace), Latin letters and
    # symbols, marks and ZWNJ that can open a chunk, and letters fused to
    # punctuation and digits.
    MIXED = (
        "\u00a0\u0085\u1680\u2009\u3000\x1c \n\t" + "\u200b"
        + "abcXYZ_$+" + URDU_LETTERS + DIACRITICS + ZWNJ + "۔،" + "09۴"
    )

    @given(st.text(alphabet=MIXED))
    def test_matches_reference_on_mixed_scripts_and_separators(self, text):
        assert tokenize(text) == reference_tokenize(text)

    # Astral letters (Lu, Lo) and marks (Mn, Mc), and lone surrogates.
    @given(st.lists(st.text(alphabet=(
        MIXED + "\U00010400\U0001e900\U00020000" + "\U0001d167\U000e0100\U00011000"
        + "\ud800\udfff"
    ))))
    def test_a_memo_kept_across_texts_gives_each_text_its_own_words(self, texts):
        # As cmd_stem keeps one memo, a plain dict, across its input blocks.
        shared = {}
        for text in texts:
            assert (tokenize(text, shared) == tokenize(text, {}) == tokenize(text)
                    == reference_tokenize(text))

    def test_matches_reference_on_every_code_point(self):
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert tokenize(every) == reference_tokenize(every)

    def test_lone_surrogate_in_mixed_chunk(self):
        assert tokenize("a\ud800b") == ["a", "b"]
        assert tokenize("ab \ud800c") == ["ab", "c"]


class TestTokenizeChunkFacts:
    """The Unicode facts ``tokenize``'s chunking, letters-only fast path and
    word-character table rest on, checked over every code point of the
    running interpreter's database."""

    ALL = "".join(map(chr, range(sys.maxunicode + 1)))

    def test_no_word_character_is_whitespace(self):
        # So a chunk translated through _WORD_CHARS splits only at the
        # spaces the table wrote.
        assert [ch for ch in self.ALL if _in_word(ch) and ch.isspace()] == []

    def test_word_chars_keeps_exactly_the_word_characters(self):
        table = _WordChars()
        assert [ch for ch in self.ALL
                if table[ord(ch)] != (ord(ch) if _in_word(ch) else 0x20)] == []

    def test_str_split_drops_exactly_the_isspace_characters(self):
        assert "".join(self.ALL.split()) == "".join(ch for ch in self.ALL if not ch.isspace())

    def test_isalpha_is_exactly_category_letter(self):
        assert [ch for ch in self.ALL
                if ch.isalpha() != unicodedata.category(ch).startswith("L")] == []
