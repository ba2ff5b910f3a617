"""Shipped data files and loaders.

* ``default.rules`` -- the default affix rules: the published suggestive
  affix list plus the recodings that reproduce the documented stemming
  outputs, whose stems are he-final (``علاقوں`` -> ``علاقہ``).  It does not
  target the alif-final citation forms of ``generate_gold``: it strips
  their final alif.
* ``paradigm.rules`` -- companion rules that undo the group-1 noun
  paradigm, mapping case endings back to the alif-final citation form
  that ``generate_gold`` writes as the expected stem.
* ``table2.rules`` -- default rules extended with the compound-splitting
  prefix and exception entry used by the golden regression test; the
  same stem convention as ``default.rules``.
* ``lexicon_group1.tsv`` -- alif-final masculine noun lemmas for
  round-trip testing.

The letter-unification table lives in code, ``urdustem.corpus._UNIFY``.
"""

from importlib import resources

from urdustem.rules import RuleSet, parse_rule_file

DEFAULT_RULES = "default.rules"
PARADIGM_RULES = "paradigm.rules"
TABLE2_RULES = "table2.rules"
GROUP1_LEXICON = "lexicon_group1.tsv"


def read_text(name: str) -> str:
    return resources.files(__package__).joinpath(name).read_text("utf-8")


def path(name: str) -> str:
    """Filesystem path of a shipped data file (for CLI flags)."""
    return str(resources.files(__package__).joinpath(name))


def load_rules(name: str = DEFAULT_RULES) -> RuleSet:
    return parse_rule_file(read_text(name))
