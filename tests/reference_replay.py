"""The reference dual replay: the full-scan oracle's whole ``resolve`` run in
lockstep with every create and open.

``Replayer`` in dual mode asks the oracle only for the outcomes it can
decide differently, with one scan each. ``lockstep_replay`` asks it
everything instead: the oracle keeps its own global-object tables and
checks every call, as an independent engine would. ``test_oracle.py``
compares the two reports byte for byte, so a route that the Replayer skips
but the oracle would decide otherwise, or a wrong outcome compared in its
place, shows as a difference.
"""

from ipcconfine import trace
from ipcconfine.engine import ResolveOutcome, Route
from ipcconfine.model import Intent, IpcCategory, Scope
from ipcconfine.trace import Replayer, ReplayReport


def lockstep_create_or_open(replayer: Replayer, event, result: dict) -> None:
    """The Replayer's own create or open, with its oracle detached, then the
    oracle's public ``resolve`` on the same arguments; a difference between
    the two outcomes is recorded as a divergence."""
    oracle, replayer.reference = replayer.reference, None
    try:
        Replayer._create_or_open(replayer, event, result)
    finally:
        replayer.reference = oracle
    engine = ResolveOutcome(result["effective_name"], Route(result["route"]))
    intent = Intent.CREATE if event.op == "create" else Intent.OPEN
    reference = oracle.resolve(replayer.registry.process(event.actor), event.name,
                               IpcCategory.parse(event.category), intent,
                               Scope(event.scope or Scope.LOCAL.value))
    if reference != engine:
        replayer._divergences.append({
            "seq": event.seq,
            "name": event.name,
            "engine": engine.to_dict(),
            "reference": reference.to_dict(),
        })


def lockstep_replay(events) -> ReplayReport:
    """``replay(events, dual=True)`` with every create and open compared by
    ``lockstep_create_or_open``."""
    handlers = trace._HANDLERS
    saved = handlers["create"], handlers["open"]
    handlers["create"] = handlers["open"] = lockstep_create_or_open
    try:
        return Replayer(dual=True).run(events)
    finally:
        handlers["create"], handlers["open"] = saved
