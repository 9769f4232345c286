"""The committed mutants of ``mutants.py`` still apply: each old text
occurs exactly once in ``src/``, each named test is defined in its file,
and none of them catches its mutant by random draws alone. Running the
mutants is ``python3 tests/mutants.py``."""

import ast
import functools

import pytest

from mutants import MUTANTS, ROOT, SRC


def decorator_name(node: ast.expr) -> str:
    """``given`` for ``@given(...)`` and ``@hypothesis.given(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


@functools.cache
def defined_tests(path: str) -> dict[str, frozenset[str]]:
    """The ``test`` and ``Class::test`` names that the test file at
    ``path``, relative to the repository root, defines at its top level,
    each with the names of its decorators."""
    tests = {}
    for node in ast.parse((ROOT / path).read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            tests.update((f"{node.name}::{item.name}",
                          frozenset(map(decorator_name, item.decorator_list)))
                         for item in node.body if isinstance(item, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            tests[node.name] = frozenset(map(decorator_name, node.decorator_list))
    return tests


def decorators(test: str) -> frozenset[str]:
    path, _, name = test.partition("::")
    return defined_tests(path)[name.partition("[")[0]]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert mutant.tests
    for test in mutant.tests:
        path, _, name = test.partition("::")
        # a parametrize suffix names one case of the test
        assert (ROOT / path).is_file() and name.partition("[")[0] in defined_tests(path), test


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_no_named_test_relies_on_random_draws(mutant):
    """A mutant is caught only when every test it names fails, so a named
    ``@given`` test runs at least one ``@example`` (one that fails under
    the mutant), and a fresh run catches the mutant as the last one did.
    Each mutant also names a test with no ``@given`` at all."""
    bare = [test for test in mutant.tests
            if "given" in decorators(test) and "example" not in decorators(test)]
    assert bare == []
    assert any("given" not in decorators(test) for test in mutant.tests)
