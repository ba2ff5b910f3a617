import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from urdustem import data
from urdustem.rules import AffixKind, AffixRule, RuleSet

from naive_oracle import NaiveRule

# Letters only (no combining marks), so code points == graphemes in
# randomized fixtures.
URDU_LETTERS = "اببتجخدرسشعقکگلمنوہیڑںے"
DIACRITICS = "ًٌٍَُِّْ"


@pytest.fixture(scope="session")
def default_rules() -> RuleSet:
    return data.load_rules(data.DEFAULT_RULES)


@pytest.fixture(scope="session")
def table2_rules() -> RuleSet:
    return data.load_rules(data.TABLE2_RULES)


@pytest.fixture(scope="session")
def paradigm_rules() -> RuleSet:
    return data.load_rules(data.PARADIGM_RULES)


def random_word(rng: random.Random, min_len=1, max_len=10) -> str:
    return "".join(rng.choice(URDU_LETTERS) for _ in range(rng.randint(min_len, max_len)))


def random_ruleset(rng: random.Random, n_rules=8):
    """Build a matching (RuleSet, list[NaiveRule]) pair from random rules."""
    naive: list[NaiveRule] = []
    seen: set[tuple[str, str]] = set()
    while len(naive) < n_rules:
        kind = rng.choice("PS")
        pattern = random_word(rng, 1, 3)
        if (kind, pattern) in seen:
            continue
        seen.add((kind, pattern))
        replacement = ""
        if rng.random() < 0.3:
            replacement = random_word(rng, 1, len(pattern))
            if replacement == pattern:
                replacement = ""
        min_stem = rng.choice([None, None, 1, 2, 3])
        naive.append(NaiveRule(kind, pattern, replacement, min_stem))
    default_min = rng.randint(1, 3)
    rs = RuleSet(
        tuple(AffixRule(AffixKind(r.kind), r.pattern, r.replacement, r.min_stem) for r in naive),
        default_min_stem=default_min,
    )
    return rs, naive, default_min
