"""Rule-driven affix-stripping stemmer for Urdu (Perso-Arabic script).

Modules:

* ``rules``      -- affix-rule data model and the tab-separated rule-file format
* ``stemmer``    -- longest-first edge matching with optional recoding
* ``graphemes``  -- grapheme-cluster splitting and counting
* ``morphology`` -- inflection generator for synthesizing gold corpora
* ``corpus``     -- data-file line framing, Unicode normalization and tokenization
* ``evaluation`` -- accuracy metric and over-/under-stemming error taxonomy
* ``record``     -- base of the frozen classes that validate on construction
* ``data``       -- shipped rule files and lexicon
* ``cli``        -- command-line front end
"""

from urdustem.rules import AffixKind, AffixRule, RuleSet, parse_rule_file, serialize_rule_set
from urdustem.stemmer import StemConfig, StemResult, stem_batch, stem_word

__version__ = "0.1.0"

__all__ = [
    "AffixKind",
    "AffixRule",
    "RuleSet",
    "StemConfig",
    "StemResult",
    "parse_rule_file",
    "serialize_rule_set",
    "stem_batch",
    "stem_word",
]
