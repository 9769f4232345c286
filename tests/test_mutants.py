"""The committed mutants of ``mutants.py`` still apply: each old text
occurs exactly once in ``src/``, and each named test is defined in its
file. Running the mutants is ``python3 tests/mutants.py``."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT, SRC


@functools.cache
def defined_tests(path: str) -> frozenset[str]:
    """The ``test`` and ``Class::test`` names that the test file at
    ``path``, relative to the repository root, defines at its top level."""
    names = set()
    for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body
                         if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return frozenset(names)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        # a parametrize suffix names one case of the test
        assert (ROOT / path).is_file() and name.partition("[")[0] in defined_tests(path), test
