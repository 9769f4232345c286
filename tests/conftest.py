"""Shared fixtures and the acceptance-criteria summary section."""

from collections import Counter

import pytest

import ipcconfine.engine as engine_module
from ipcconfine import ConfinementEngine, SimKernel, VmRegistry
from ipcconfine.model import HOST, VmId

# entries used by most engine-level tests; one trailing-* pattern included
TEST_LONG_LIST = (
    r"\srv\alpha",
    r"\srv\beta",
    r"\srv\gamma",
    r"\Device\NamedPipe\ctl\Pipe*",
)


@pytest.fixture
def registry():
    reg = VmRegistry()
    reg.vm_create("10.0.0.2")
    reg.vm_create("10.0.0.3")
    return reg


@pytest.fixture
def engine():
    eng = ConfinementEngine()
    eng.load_long_list(TEST_LONG_LIST)
    return eng


@pytest.fixture
def kernel(registry, engine):
    return SimKernel(registry, engine)


@pytest.fixture
def host_proc(registry):
    return registry.process_spawn(HOST)


@pytest.fixture
def vm1_proc(registry):
    return registry.process_spawn(VmId(1))


@pytest.fixture
def vm2_proc(registry):
    return registry.process_spawn(VmId(2))


@pytest.fixture
def probes(monkeypatch) -> Counter:
    """Lookup counts by label, with the engine module's name checks counted
    under ``"check"``."""
    counts = Counter()
    check = engine_module.check_object_name

    def counted_check(*args, **kwargs):
        counts["check"] += 1
        return check(*args, **kwargs)

    monkeypatch.setattr(engine_module, "check_object_name", counted_check)
    return counts


# one PASS/FAIL line per acceptance criterion in the terminal summary
_criterion_results = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and item.name.startswith("test_criterion_"):
        doc = (item.function.__doc__ or item.name).strip().splitlines()[0]
        _criterion_results[item.name] = (doc, report.passed)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_criterion_results):
        doc, passed = _criterion_results[name]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{word} {name.removeprefix('test_')}: {doc}")
