"""The engine and the full-scan oracle against the plain model of steps
(a)-(g) in ``pipeline_model``.

Each resolve is compared four ways: the route, the effective name, the one
step counter that moved (its letter from the model) and the short list in
the engine's snapshot. Where the model decides by (d)-(g), the oracle's one
scan is compared too: it agrees with the model's long-list match, and it
differs from the engine exactly where (e) renames a listed name.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from ipcconfine.engine import ConfinementEngine, ReferenceEngine
from ipcconfine.model import PORT, Intent, ProcessRef, Scope, VmId
from pipeline_model import PipelineModel, listed

# the EngineCounters field that each step moves
STEP_COUNTERS = {"a": "host_bypass", "b": "global_table_hits", "c": "global_table_hits",
                 "d": "short_hits", "e": "post_seal_long_skips", "f": "long_hits",
                 "g": "long_misses"}
MOVABLE = sorted(set(STEP_COUNTERS.values()))

# long-list entries: exact names, a Global component, prefixes that end in a
# letter or a digit, and a prefix that is a stem of another
ENTRIES = (r"\srv\a", r"\srv\b", r"\srv\Global\h", r"\p\x12", r"\p\x*", r"\p\x1*",
           r"\p\y*", r"\Global\g*")
# names that the entries list or not: ASCII and non-ASCII digit tails,
# Global components, and a lower-case "global"
NAMES = (r"\srv\a", r"\srv\b", r"\srv\Global\h", r"\p\x12", r"\p\x1", r"\p\x2",
         "\\p\\x1\u00b2", r"\p\y0", "\\p\\y\u0661", r"\Global\g7", r"\app\global",
         r"\app\Global\z", r"\app\z")
# (vm, name, create, declared Global), drawn as one value
RESOLVES = st.sampled_from(list(product(range(3), NAMES, (False, True), (False, True))))


def run_both(engine, oracle, model, op) -> str | None:
    """Apply ``op`` to the engine and the model, assert that they agree,
    and return the model's step letter (None for a seal)."""
    if op is None:
        engine.seal_host_objects()
        model.seal()
        return None
    vm, name, create, global_scope = op
    before = vars(engine.counters).copy()
    out = engine.resolve(ProcessRef(100 + vm, VmId(vm)), name, PORT,
                         Intent.CREATE if create else Intent.OPEN,
                         Scope.GLOBAL if global_scope else Scope.LOCAL)
    after = vars(engine.counters).copy()
    effective, route, step = model.resolve(vm, name, create, global_scope)
    moved = {key: after[key] - before[key] for key in MOVABLE if after[key] != before[key]}
    assert (out.effective_name, out.route.value, moved) == (
        effective, route, {STEP_COUNTERS[step]: 1}), op
    assert after["resolves_total"] == before["resolves_total"] + 1, op
    assert engine.snapshot().short_list == tuple(model.short_list), op
    if step in "defg":
        scanned = oracle.resolve(name, VmId(vm))
        on_list = listed(model.long_list, name)
        assert scanned.route.value == ("HostPassthrough" if on_list else "VmPrivate"), op
        assert (scanned == out) is not (step == "e" and on_list), op
    return step


def engines(long_list):
    engine, oracle = ConfinementEngine(), ReferenceEngine()
    engine.load_long_list(long_list)
    oracle.load_long_list(long_list)
    return engine, oracle, PipelineModel(long_list)


@settings(max_examples=500, deadline=None)
@given(long_list=st.lists(st.sampled_from(ENTRIES), min_size=1, max_size=8),
       ops=st.lists(RESOLVES, min_size=8, max_size=40), seal_at=st.integers(0, 41))
def test_engine_matches_model(long_list, ops, seal_at):
    """Random resolves, with a seal before the one at ``seal_at``, or none
    when ``seal_at`` is past the end."""
    engine, oracle, model = engines(long_list)
    if seal_at <= len(ops):
        ops.insert(seal_at, None)
    for op in ops:
        run_both(engine, oracle, model, op)


def test_a_fixed_sequence_takes_every_step():
    """The comparison is not vacuous: one sequence takes all seven steps,
    both ways of being global, a pattern and a non-ASCII digit."""
    engine, oracle, model = engines((r"\srv\a", r"\p\x1*"))
    ops = [
        (0, r"\srv\a", False, False),           # (a)
        (1, r"\obj\g", True, True),             # (b), declared Global
        (1, r"\obj\Global\h", True, False),     # (b), a Global component
        (1, r"\obj\g", False, False),           # (c)
        (2, r"\obj\Global\h", False, False),    # (g): another VM's global
        (1, r"\srv\a", False, False),           # (f)
        (2, r"\p\x12", False, False),           # (f), a pattern
        (2, r"\srv\a", False, False),           # (d), moved to the front
        (1, "\\p\\x1\u00b2", False, False),    # (g): no ASCII digit
        None,
        (2, r"\p\x12", False, False),           # (d), not moved
        (2, r"\p\x13", False, False),           # (e)
        (1, r"\srv\a", True, True),             # (b) of a short-listed name
    ]
    steps = [run_both(engine, oracle, model, op) for op in ops]
    assert steps == [
        "a", "b", "b", "c", "g", "f", "f", "d", "g", None, "d", "e", "b"]
    assert model.short_list == [r"\srv\a", r"\p\x12"]
