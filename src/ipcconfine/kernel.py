"""Simulated OS surface routing every IPC action through the confinement engine.

State held here: a named-object registry keyed by effective (post-resolution)
names with refcounted handles, a window registry, and per-VM IP-aliased socket
bindings. Messages and dangerous calls are decided, not stored. No real
syscalls, networking, or data transfer; this is the bookkeeping needed to
observe the confinement semantics end to end.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from enum import Enum

from .engine import ConfinementEngine, ResolveOutcome
from .errors import (
    AddressInUse,
    AlreadyExists,
    CategoryMismatch,
    InvalidHandle,
    InvalidPort,
    KernelError,
    NotFound,
    UnknownProcess,
)
from .model import (
    Intent,
    IpcCategory,
    ProcessRef,
    Scope,
    VmId,
    VmRegistry,
)

__all__ = [
    "ObjectRecord",
    "Handle",
    "WindowRecord",
    "SocketBinding",
    "HookScope",
    "HookGrant",
    "SimKernel",
]


@dataclass(slots=True)
class ObjectRecord:
    category: IpcCategory
    creator: ProcessRef
    refcount: int = 0


@dataclass(slots=True)
class Handle:
    """An open reference to an object record.

    A handle is open exactly while its kernel maps its id to it: ids never
    repeat, and closing deletes the entry. Whoever holds an open handle can
    close it; the replayer keys handles by (actor, name), so an actor closes
    only its own.
    """

    id: int
    object: ObjectRecord
    outcome: ResolveOutcome


@dataclass(frozen=True)
class WindowRecord:
    class_name: str
    owner: ProcessRef


@dataclass(frozen=True)
class SocketBinding:
    owner: ProcessRef
    effective: tuple[str, int]


class HookScope(Enum):
    SYSTEM_WIDE = "SystemWide"
    OWN_VM = "OwnVm"


# Enum members read on every call of an op, bound once: a class-attribute
# read of a member costs several times a module-global read.
_CREATE, _OPEN, _LOCAL = Intent.CREATE, Intent.OPEN, Scope.LOCAL
_SYSTEM_WIDE = HookScope.SYSTEM_WIDE


@dataclass(frozen=True)
class HookGrant:
    """Effective scope of an installed hook: always one context."""

    effective_vm: VmId
    narrowed: bool


class SimKernel:
    """Object registry, window table, and socket table behind the engine.

    Mutations appear atomic (one plain, non-re-entrant kernel lock).
    ``create_object`` and ``open_object`` hold it across their
    ``engine.resolve``, so each is one critical section and linearizable:
    no other op sees a name resolved but its object not yet made or found.
    The lock order is kernel, then engine; the engine never calls the
    kernel, so there is no cycle. They return a failure's error class
    with the resolve outcome instead of raising it, so a failed create or
    open in a replay costs no raise and no catch. They and ``close``,
    called once per name event of a replay, take the lock with explicit
    ``acquire()`` / ``release()`` calls, with a ``finally`` that releases it
    on every error: a ``with`` block's context-manager calls cost about
    120 ns more per call (Python 3.11, Intel Xeon).
    Windows are held in one list per VM, in registration order, so a lookup
    never reads another VM's windows.
    Every op that takes a process checks it against the registry first, so
    a ref that pairs a live pid with another VM id is refused.
    ``send_message`` and ``create_remote_thread`` return the engine's access
    decision, True to allow, False to deny; a message is not stored.
    """

    def __init__(self, registry: VmRegistry, engine: ConfinementEngine):
        self.registry = registry
        self.engine = engine
        self._lock = threading.Lock()
        self._objects: dict[str, ObjectRecord] = {}
        self._handles: dict[int, Handle] = {}
        self._handle_ids = itertools.count(1)
        # vm id -> its windows, in registration order
        self._windows: dict[int, list[WindowRecord]] = {}
        self._bindings: dict[tuple[str, int], SocketBinding] = {}

    # -- named objects (categories I-IV) --------------------------------------

    def create_object(self, caller: ProcessRef, name: str, category: IpcCategory,
                      scope: Scope = Scope.LOCAL) -> tuple[Handle | type[KernelError],
                                                           ResolveOutcome]:
        """``(handle, outcome)``, or, where the name is taken, ``(AlreadyExists
        or CategoryMismatch, outcome)``; a failure changes no object or
        handle. Engine and caller errors raise."""
        self._check_live(caller)
        lock = self._lock
        lock.acquire()
        try:
            outcome = self.engine.resolve(caller, name, category, _CREATE, scope)
            effective = outcome[0]
            record = self._objects.get(effective)
            if record is not None:
                if record.category.group is not category.group:
                    return CategoryMismatch, outcome
                return AlreadyExists, outcome
            record = self._objects[effective] = ObjectRecord(category, caller, 1)
            return self._new_handle(record, outcome), outcome
        finally:
            lock.release()

    def open_object(self, caller: ProcessRef, name: str,
                    category: IpcCategory) -> tuple[Handle | type[KernelError],
                                                    ResolveOutcome]:
        """As ``create_object``, with ``NotFound`` or ``CategoryMismatch`` as
        the failures; a success adds one to the record's refcount."""
        self._check_live(caller)
        lock = self._lock
        lock.acquire()
        try:
            outcome = self.engine.resolve(caller, name, category, _OPEN, _LOCAL)
            record = self._objects.get(outcome[0])
            if record is None:
                return NotFound, outcome
            if record.category.group is not category.group:
                return CategoryMismatch, outcome
            record.refcount += 1
            return self._new_handle(record, outcome), outcome
        finally:
            lock.release()

    def close(self, handle: Handle):
        lock = self._lock
        lock.acquire()
        try:
            if self._handles.get(handle.id) is not handle:
                raise InvalidHandle(f"handle {handle.id} is not open")
            del self._handles[handle.id]
            record = handle.object
            record.refcount -= 1
            if record.refcount == 0:
                del self._objects[handle.outcome[0]]
        finally:
            lock.release()

    def _new_handle(self, record: ObjectRecord, outcome: ResolveOutcome) -> Handle:
        handle = Handle(next(self._handle_ids), record, outcome)
        self._handles[handle.id] = handle
        return handle

    # -- messages (category V) --------------------------------------------------

    def send_message(self, sender: ProcessRef, target: ProcessRef) -> bool:
        self._check_live(sender)
        self._check_live(target)
        return self.engine.access_decide(sender, target)

    # -- windows (what FindWindow searches) ---------------------------------------

    def register_window(self, owner: ProcessRef, class_name: str) -> WindowRecord:
        self._check_live(owner)
        record = WindowRecord(class_name, owner)
        with self._lock:
            self._windows.setdefault(owner.vm.id, []).append(record)
        return record

    def find_window(self, caller: ProcessRef, class_name: str) -> WindowRecord | None:
        """First window of that class registered in the caller's VM; windows
        in other VMs (and in the host, for VM callers) are invisible."""
        self._check_live(caller)
        with self._lock:
            for record in self._windows.get(caller.vm.id, ()):
                if record.class_name == class_name:
                    return record
            return None

    # -- dangerous calls (category VII) -------------------------------------------

    def create_remote_thread(self, caller: ProcessRef, target: ProcessRef) -> bool:
        self._check_live(caller)
        self._check_live(target)
        return self.engine.dangerous_decide(caller, target)

    def set_hook(self, caller: ProcessRef, requested_scope: HookScope) -> HookGrant:
        """Hooks never cross a VM border: the effective scope is always the
        caller's own context, and a system-wide request is narrowed to it.
        Nothing is denied, so the engine is not asked."""
        self._check_live(caller)
        return HookGrant(caller.vm, requested_scope is _SYSTEM_WIDE)

    # -- sockets (category VI) -------------------------------------------------------

    def bind_socket(self, caller: ProcessRef, requested_ip: str, port: int) -> SocketBinding:
        self._check_live(caller)
        # exact type, as the trace schema has it: a bool is no port
        if type(port) is not int or not 1 <= port <= 65535:
            raise InvalidPort(f"port out of range: {port!r}")
        if caller.vm.is_host:
            effective_ip = requested_ip
        else:
            # IP aliasing: VM sockets always bind the VM's exclusive alias
            effective_ip = self.registry.alias_of(caller.vm)
        key = (effective_ip, port)
        with self._lock:
            if key in self._bindings:
                raise AddressInUse(f"{effective_ip}:{port}")
            binding = SocketBinding(caller, key)
            self._bindings[key] = binding
            return binding

    @property
    def bindings(self) -> list[SocketBinding]:
        with self._lock:
            return sorted(self._bindings.values(),
                          key=lambda b: (b.effective[0], b.effective[1]))

    # -- inspection ---------------------------------------------------------------

    def objects(self) -> dict[str, ObjectRecord]:
        with self._lock:
            return dict(self._objects)

    def live_handle_count(self, record: ObjectRecord) -> int:
        with self._lock:
            return sum(1 for h in self._handles.values() if h.object is record)

    def _check_live(self, proc: ProcessRef):
        """Refuse a process the registry does not hold as given: an unknown
        pid, or a known pid paired with another VM id. The identity test
        comes first, so the registry's own refs skip the field compare."""
        registered = self.registry.process(proc.pid)
        if registered is not proc and registered != proc:
            raise UnknownProcess(f"{proc} is not registered; pid {proc.pid} is {registered}")
