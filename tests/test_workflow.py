"""What CI checks, run offline: the workflow's console-script steps, the
oldest Python that ``requires-python`` admits, what start-up imports, and
that README's examples and public names match the package."""

import ast
import doctest
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import urdustem

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
CONSOLE_STEPS = [
    step
    for job in yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"].values()
    for step in job["steps"]
    if step.get("name", "").startswith("Console script")
]


def test_console_script_steps_found():
    assert len(CONSOLE_STEPS) >= 34


@pytest.mark.parametrize("step", CONSOLE_STEPS, ids=[step["name"] for step in CONSOLE_STEPS])
def test_console_script_step(step, tmp_path):
    """The step's ``run:`` block passes with ``urdustem`` running this
    checkout's source through a shim first on ``PATH``."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "urdustem"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m urdustem.cli "$@"\n')
    shim.chmod(0o755)
    env = {
        **os.environ,
        **step.get("env", {}),
        "RUNNER_TEMP": str(tmp_path),
        "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
    }
    proc = subprocess.run(
        ["bash", "-e", "-o", "pipefail", "-c", step["run"]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize(
    "path", sorted((ROOT / "src" / "urdustem").glob("*.py")), ids=lambda path: path.name
)
def test_source_parses_as_python_3_10(path):
    """Every module parses under Python 3.10's grammar.

    This catches syntax newer than 3.10 (``except*``, say) on a newer
    interpreter, but not calls to library functions newer than 3.10.
    """
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_no_module_reads_a_private_name_of_another():
    """No module of ``urdustem`` imports a ``_``-prefixed name from another
    ``urdustem`` module, or reads one as ``module._name``."""
    found = []
    for path in sorted((ROOT / "src" / "urdustem").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = set()  # the names this file binds to urdustem modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("urdustem"):
                found += [f"{path.name}: from {node.module} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
                if node.module == "urdustem":
                    modules |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                modules |= {alias.asname or alias.name.split(".")[0] for alias in node.names
                            if alias.name.startswith("urdustem")}
        found += [f"{path.name}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and node.attr.startswith("_")
                  and not node.attr.startswith("__")]
    assert found == []


def test_cli_start_up_skips_importlib_resources():
    """``import urdustem.cli`` under ``python -S``, with no ``site`` hooks to
    load it first, does not import ``importlib.resources``: the letter
    table is code, and only ``urdustem.data`` reads shipped files."""
    code = "import sys, urdustem.cli; assert 'importlib.resources' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_start_up_imports_only_what_stem_needs():
    """``import urdustem.cli`` under ``python -S`` loads neither
    ``dataclasses`` (the validating classes are ``__slots__`` records), nor
    ``evaluation`` and ``morphology`` (``eval`` and ``gen`` import them),
    nor ``json`` (``stem --json`` imports its escaper)."""
    banned = ("dataclasses", "inspect", "urdustem.evaluation", "urdustem.morphology",
              "fractions", "decimal", "json")
    code = f"import sys, urdustem.cli; print(' '.join(m for m in {banned!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_public_name_exists_and_readme_names_it():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for name in urdustem.__all__:
        assert hasattr(urdustem, name), name
        assert re.search(rf"\b{name}\b", readme), f"README does not name {name}"


def test_readme_examples_run():
    """The ``>>>`` examples of README, the library's text pipeline among them."""
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False, encoding="utf-8")
    assert result.failed == 0 and result.attempted >= 6, result
