"""The reference dual replay: every create and open compared, in lockstep,
with an unsealed ``PipelineModel``.

``Replayer`` in dual mode compares the full-scan oracle only with the
outcomes it can decide differently, with one scan per distinct (name, VM).
``lockstep_replay`` asks
the model everything instead: the model keeps its own global names and
short list and is never sealed, so it decides every create and open as the
oracle would if it ran the whole pipeline. ``test_oracle.py`` compares the
two reports byte for byte, so a route that the Replayer skips but the
oracle would decide otherwise, or a wrong outcome compared in its place,
shows as a difference.
"""

from ipcconfine import trace
from ipcconfine.trace import Replayer, ReplayReport
from pipeline_model import PRINCIPLES, PipelineModel


def lockstep_replay(events) -> ReplayReport:
    """``replay(events)`` with every create and open compared with the
    model, loaded with the trace's long list; a difference between the two
    outcomes is recorded as a divergence, as a dual replay records one."""
    model = None

    def load(replayer: Replayer, event) -> tuple:
        nonlocal model
        row = Replayer._load_long_list(replayer, event)
        model = PipelineModel(event.names)
        return row

    def create_or_open(replayer: Replayer, event) -> tuple:
        row = Replayer._create_or_open(replayer, event)
        result = dict(zip(row[0], row[1:]))
        engine = result["effective_name"], result["route"]
        vm = replayer.registry.process(event.actor).vm.id
        reference = model.resolve(vm, event.name, event.op == "create",
                                  event.scope == "Global")[:2]
        if reference != engine:
            replayer._divergences.append({
                "seq": event.seq,
                "name": event.name,
                "engine": {key: result[key] for key in ("effective_name", "route", "principle")},
                "reference": {"effective_name": reference[0], "route": reference[1],
                              "principle": PRINCIPLES[reference[1]]},
            })
        return row

    handlers = trace._HANDLERS
    saved = {op: handlers[op] for op in ("load_long_list", "create", "open")}
    handlers.update(load_long_list=load, create=create_or_open, open=create_or_open)
    try:
        # single mode: the model, not the oracle, is compared
        return Replayer().run(events)
    finally:
        handlers.update(saved)


def diverging_names(events) -> set[str]:
    """The names on which the engine and the unsealed model disagree: where
    a dual replay of ``events`` is expected to diverge."""
    return {d["name"] for d in lockstep_replay(events).divergences}
