"""The recorded mutant table (``tests/mutants.py``) stays applicable: a
cheap check here; running each mutant against its tests is a CI step."""

import ast
import re

import pytest

from mutants import MUTANTS, ROOT, mutated


def test_mutant_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once_and_parses(mutant):
    text = mutated(mutant)  # raises unless the old text occurs exactly once
    assert text != (ROOT / mutant.path).read_text(encoding="utf-8")
    ast.parse(text, filename=mutant.path)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_tests_that_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        path, *names = re.sub(r"\[.*\]$", "", test_id).split("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        for name in names:
            found = [node for node in ast.iter_child_nodes(tree)
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
            assert found, f"{test_id}: no {name} in {path}"
            tree = found[0]
