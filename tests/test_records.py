"""The six classes that validate on construction keep their contract:
every way of building one runs the checks, no field can be assigned,
equal fields mean equal objects and hashes, and a rule set's index
always covers exactly its own rules."""

import copy
import pickle
import random
import types

import pytest
from hypothesis import given, strategies as st

from urdustem import data
from urdustem.morphology import Adjective, ParadigmEntry, VerbRoot
from urdustem.rules import AffixKind, AffixRule, RuleSet, parse_rule_file, serialize_rule_set
from urdustem.stemmer import PREFIX_FIRST, StemConfig

from conftest import random_ruleset

S = AffixKind.SUFFIX
P = AffixKind.PREFIX

# class -> (arguments of a valid object, arguments of another valid object,
# argument tuples that the constructor rejects)
CASES = {
    StemConfig: ((2, 1, PREFIX_FIRST), (), [(5,), (1, -1), (1, 1, "both")]),
    AffixRule: (
        (S, "وں", "ہ", 2),
        (P, "بد"),
        [(S, ""), (S, "ی", "یاں"), (S, "ے", "ے"), (S, "وں", "", 0), (S, "\u064eی"),
         (S, "\u0627\u0653"), ("X", "ی")],
    ),
    RuleSet: (
        ((AffixRule(S, "وں"), AffixRule(P, "بد")), frozenset({"کتاب"}), 3),
        ((AffixRule(S, "وں"),),),
        [((), frozenset(), 0), ((), frozenset({""})), ((AffixRule(S, "ی"),) * 2,),
         ((), frozenset({"کتا\u0627\u0653"})), ((), "کتاب"), (["S\tوں"],), ((), [1]), ((), b"ab"),
         ((), [b"ab"]), ((), [["کتاب"]]), ((), ["کتاب", {"قلم": 1}]), ((), ["کتاب", {"قلم"}])],
    ),
    ParadigmEntry: (("لڑکا",), ("علاقہ",), [("سوال",), ("",), (1,), (None,)]),
    VerbRoot: (("کر",), ("کھا",), [("",), (1,)]),
    Adjective: (("لمبا",), ("اچھا",), [("سرخ",), ("",), (1,), (None,)]),
}
CLASSES = list(CASES)

REBUILDS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def _valid(cls):
    return cls(*CASES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestContract:
    def test_constructor_rejects(self, cls):
        for args in CASES[cls][2]:
            with pytest.raises(ValueError):
                cls(*args)

    @pytest.mark.parametrize("how", REBUILDS)
    def test_every_rebuild_runs_the_constructor(self, cls, how, monkeypatch):
        obj = _valid(cls)
        calls = []
        init = cls.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
        rebuilt = REBUILDS[how](obj)
        assert type(rebuilt) is cls and rebuilt == obj
        assert calls, f"{how} built a {cls.__name__} without its checks"

    def test_no_builder_skips_the_checks(self, cls):
        # A NamedTuple's _make and _replace build through tuple.__new__.
        obj = _valid(cls)
        for name in ("_make", "_replace", "__dict__"):
            assert not hasattr(obj, name)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        obj = _valid(cls)
        slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
        assert set(cls._fields) <= set(slots)
        for name in (*slots, "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        assert obj == _valid(cls)

    def test_equal_fields_give_equal_objects_and_hashes(self, cls):
        a, b = _valid(cls), _valid(cls)
        assert a is not b and a == b and hash(a) == hash(b)
        other = cls(*CASES[cls][1])
        assert a != other and not (a == other)
        assert a != a._values() and a != object()


def test_records_of_different_classes_differ():
    assert ParadigmEntry("لڑکا") != Adjective("لڑکا")
    assert len({ParadigmEntry("لڑکا"), Adjective("لڑکا")}) == 2


def test_repr_shows_the_fields_only():
    assert repr(StemConfig()) == (
        "StemConfig(max_suffix_passes=1, max_prefix_passes=1, order='suffix-first')"
    )
    assert repr(Adjective("لمبا")) == "Adjective(lemma='لمبا')"
    assert repr(VerbRoot("کر")) == "VerbRoot(lemma='کر')"


def test_the_stemmer_reads_stored_rule_attributes():
    # stem_word reads these on every match: slots, not properties.
    for name in ("pattern", "replacement", "rule_id", "pattern_length"):
        assert isinstance(AffixRule.__dict__[name], types.MemberDescriptorType)
    rule = AffixRule(S, "یاں", "ی")
    assert (rule.rule_id, rule.pattern_length) == ("S:یاں", 3)


def _indexed(rs: RuleSet) -> list:
    """Every bucket entry of *rs*, checked against the rule it holds."""
    entries = []
    for suffix, by_edge in rs.buckets.items():
        for edge, bucket in by_edge.items():
            lengths = [rule.pattern_length for _, rule, _ in bucket]
            assert lengths == sorted(lengths, reverse=True)
            for pattern, rule, min_clusters in bucket:
                assert rule.pattern == pattern
                assert (rule.kind is S) == suffix
                assert pattern[-1 if suffix else 0] == edge
                min_stem = rule.min_stem or rs.default_min_stem
                assert min_clusters == rule.pattern_length + min_stem
                entries.append(rule)
    return entries


def _assert_buckets_index_own_rules(rs: RuleSet) -> None:
    entries = _indexed(rs)
    assert sorted(map(id, entries)) == sorted(map(id, rs.rules))


def _builds(rs: RuleSet):
    yield rs
    yield RuleSet(rs.rules, rs.exceptions, rs.default_min_stem)
    yield RuleSet(list(rs.rules), list(rs.exceptions), rs.default_min_stem)
    yield parse_rule_file(serialize_rule_set(rs))
    yield from (rebuild(rs) for rebuild in REBUILDS.values())


def test_shipped_rule_sets_index_their_own_rules_after_every_build():
    for name in (data.DEFAULT_RULES, data.TABLE2_RULES, data.PARADIGM_RULES):
        rs = data.load_rules(name)
        for built in _builds(rs):
            assert built == rs
            _assert_buckets_index_own_rules(built)


@given(seed=st.integers(0, 2**32 - 1))
def test_random_rule_sets_index_their_own_rules_after_every_build(seed):
    rs, _, _ = random_ruleset(random.Random(seed))
    for built in _builds(rs):
        assert built == rs and hash(built) == hash(rs)
        _assert_buckets_index_own_rules(built)
