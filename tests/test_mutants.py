"""The committed mutants of ``mutants.py`` still apply: each old text
occurs exactly once in ``src/``, and each named test file exists. Running
the mutants is ``python3 tests/mutants.py``."""

import pytest

from mutants import MUTANTS, ROOT, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_old_text_occurs_once(mutant):
    assert (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.old != mutant.new
    assert all((ROOT / test.partition("::")[0]).is_file() for test in mutant.tests)
