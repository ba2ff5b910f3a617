import sys
import unicodedata

from hypothesis import given, strategies as st

from urdustem import graphemes
from urdustem.graphemes import ZWJ, ZWNJ

from conftest import URDU_LETTERS

HARAKAT = "\u064b\u064c\u064d\u064e\u064f\u0650\u0651\u0652"
MADDAH = "\u0653"
TATWEEL = "\u0640"


def reference_extends(ch: str) -> bool:
    """A mark (category M*), ZWNJ or ZWJ joins the cluster before it."""
    return ch in (ZWNJ, ZWJ) or unicodedata.category(ch).startswith("M")


def reference_count(text: str) -> int:
    """Clusters by category: the first code point and every non-extender start one."""
    return sum(1 for i, ch in enumerate(text) if i == 0 or not reference_extends(ch))


def loop_split(text: str) -> list[str]:
    """Clusters by category: one ``reference_extends`` test per code point."""
    clusters: list[str] = []
    for ch in text:
        if clusters and reference_extends(ch):
            clusters[-1] += ch
        else:
            clusters.append(ch)
    return clusters


def test_combining_marks_attach_to_base():
    assert graphemes.split("عَلاقوں") == ["عَ", "ل", "ا", "ق", "و", "ں"]
    assert graphemes.count("عَلاقوں") == 6


def test_zwnj_attaches_to_previous_cluster():
    assert graphemes.count("خوش" + graphemes.ZWNJ + "حال") == 6
    assert graphemes.split("خوش" + graphemes.ZWNJ + "حال")[2] == "ش" + graphemes.ZWNJ


def test_space_is_its_own_cluster():
    assert graphemes.count("بد ") == 3


def test_empty():
    assert graphemes.split("") == []


@given(st.text(max_size=40))
def test_join_of_split_is_identity(text):
    assert "".join(graphemes.split(text)) == text


def test_no_letter_extends_a_cluster():
    # The letters-only paths of count, corpus.tokenize and
    # evaluation.classify_error rely on this for every code point.
    letters = (chr(cp) for cp in range(sys.maxunicode + 1))
    assert [ch for ch in letters if ch.isalpha() and graphemes.extends_cluster(ch)] == []


_MARKS = HARAKAT + MADDAH + ZWNJ + ZWJ
_ALPHABET = URDU_LETTERS + _MARKS + TATWEEL + "0123456789۰۱۲ "


@given(
    lead=st.sampled_from(["", *_MARKS]),
    text=st.text(URDU_LETTERS, max_size=12) | st.text(_ALPHABET, max_size=12),
)
def test_split_matches_per_character_loop(lead, text):
    assert graphemes.split(lead + text) == loop_split(lead + text)


_LEADS = ["", *_MARKS, "\u0670", "\u0301", "\u0670" + ZWNJ]
_COUNT_ALPHABET = URDU_LETTERS + _MARKS + "\u0670\u0301" + "0123456789۰۱۲ " + "\ud800"


@given(lead=st.sampled_from(_LEADS), text=st.text(_COUNT_ALPHABET, max_size=16))
def test_count_deletes_extenders_as_split_counts_clusters(lead, text):
    text = lead + text
    assert graphemes.count(text) == len(graphemes.split(text)) == reference_count(text)


@given(st.characters(exclude_categories=()))
def test_extends_cluster_matches_categories(ch):
    assert graphemes.extends_cluster(ch) == reference_extends(ch)
