"""Simulator for IPC confinement between OS-level virtual machines.

Confinement is enforced at name resolution time: names a VM process uses for
ports, pipes, shared memory, and sync objects are renamed into that VM's
private namespace unless a per-VM global-object table or the host-object
table (long list, MRU short list, one-way flag) says otherwise. Messages and
dangerous cross-process calls are decided by comparing VM ids. A small
simulated kernel and a JSONL trace replayer with a full-scan reference
oracle sit on top.
"""

from .engine import (
    ConfinementEngine,
    DangerousKind,
    Decision,
    EngineCounters,
    EngineSnapshot,
    Principle,
    ReferenceEngine,
    ResolveOutcome,
    Route,
    SYSTEM_WIDE,
    Verdict,
)
from .errors import ConfinementError, KernelError, ParseError, ReplayError, ValidationError
from .kernel import Delivery, HookScope, SimKernel
from .model import (
    HOST,
    Intent,
    IpcCategory,
    IpcGroup,
    ProcessRef,
    Scope,
    VmId,
    VmRegistry,
    rename,
    unrename,
)
from .trace import (
    ReplayReport,
    Replayer,
    TraceEvent,
    TraceParams,
    fixture_rpcss,
    fixture_three_iis,
    generate_random_trace,
    parse_trace,
    replay,
    serialize_trace,
    validate_events,
)

__version__ = "0.1.0"

__all__ = [
    "ConfinementEngine", "ReferenceEngine", "Route", "Principle", "Decision",
    "ResolveOutcome", "Verdict", "EngineCounters", "EngineSnapshot",
    "DangerousKind", "SYSTEM_WIDE",
    "ConfinementError", "KernelError", "ParseError", "ValidationError", "ReplayError",
    "SimKernel", "Delivery", "HookScope",
    "VmId", "HOST", "ProcessRef", "IpcGroup", "IpcCategory", "Scope", "Intent",
    "VmRegistry", "rename", "unrename",
    "TraceEvent", "TraceParams", "ReplayReport", "Replayer",
    "parse_trace", "serialize_trace", "validate_events", "replay",
    "fixture_rpcss", "fixture_three_iis", "generate_random_trace",
    "__version__",
]
