"""The IPC confinement decision core.

Two decision surfaces:

* :meth:`ConfinementEngine.resolve` handles name-addressed categories (ports,
  pipes, shared memory, sync objects). It decides, per caller, whether a name
  passes through to the shared host namespace or is renamed into the caller
  VM's private namespace, consulting the per-VM global-object tables and the
  host-object table (long boot-time list, MRU short list, one-way flag).

* :meth:`ConfinementEngine.access_decide` / :meth:`dangerous_decide` handle
  process- and window-addressed categories (messages, dangerous cross-process
  calls) purely by comparing VM ids.

Resolve pipeline, in order:

  (a) host callers bypass everything and keep the original name;
  (b) a Create of a global-scoped name records it in the caller VM's
      global-object table and renames it;
  (c) a name in the caller VM's global-object table renames to that VM's copy;
  (d) a name on the short host-object list passes through (promoted to the
      front while the flag is off);
  (e) with the flag set, the long list is skipped and the name is renamed;
  (f) a name on the long host-object list passes through and enters the
      short list;
  (g) everything else is renamed into the caller VM's private namespace.

:class:`ReferenceEngine` runs the same decision logic with no short list and
no flag (every host lookup scans the full long list); it is the oracle the
optimized engine is equivalence-tested against.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, fields, replace
from enum import Enum

from .errors import AlreadyLoaded, BadCategory, NotLoaded
from .model import (
    HOST,
    Intent,
    IpcCategory,
    IpcGroup,
    ProcessRef,
    Scope,
    VmId,
    check_object_name,
    is_ascii_digits,
    is_global_name,
)
# Both engines check a name once, on entry to ``resolve``, so renaming skips
# the re-check that the public ``model.rename`` makes.
from .model import rename_unchecked as rename

logger = logging.getLogger(__name__)

__all__ = [
    "Route",
    "Principle",
    "Decision",
    "ResolveOutcome",
    "Verdict",
    "EngineCounters",
    "EngineSnapshot",
    "HostObjectTable",
    "ConfinementEngine",
    "ReferenceEngine",
    "DangerousKind",
    "SYSTEM_WIDE",
]


class Route(Enum):
    HOST_PASSTHROUGH = "HostPassthrough"
    VM_GLOBAL = "VmGlobal"
    VM_PRIVATE = "VmPrivate"


class Principle(Enum):
    ISOLATION = "Isolation"
    GLOBAL_OBJECT = "GlobalObject"
    HOST_OBJECT = "HostObject"


class Decision(Enum):
    ALLOW = "Allow"
    DENY = "Deny"


class DangerousKind(Enum):
    FIND_WINDOW = "FindWindow"
    CREATE_REMOTE_THREAD = "CreateRemoteThread"
    SET_WINDOW_HOOK = "SetWindowHook"
    ENUMERATE_WINDOWS = "EnumerateWindows"


# Target sentinel for a hook that asks for system-wide scope.
SYSTEM_WIDE = None


@dataclass(frozen=True)
class ResolveOutcome:
    effective_name: str
    route: Route
    principle: Principle

    def to_dict(self) -> dict:
        return {
            "effective_name": self.effective_name,
            "route": self.route.value,
            "principle": self.principle.value,
        }


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reason: str

    @property
    def allowed(self) -> bool:
        return self.decision is Decision.ALLOW

    def to_dict(self) -> dict:
        return {"decision": self.decision.value, "reason": self.reason}


@dataclass
class EngineCounters:
    """Monotonic per-engine event counts.

    ``host_bypass`` (host-caller resolves) and ``long_list_reads`` (a probe
    incremented on every long-list consultation) are instrumentation on top
    of the decision counts; together they make the conservation identity
    checkable:

        resolves_total == host_bypass + global_table_hits + short_hits
                          + long_hits + long_misses + post_seal_long_skips
    """

    resolves_total: int = 0
    global_table_hits: int = 0
    short_hits: int = 0
    long_hits: int = 0
    long_misses: int = 0
    renames: int = 0
    host_passthroughs: int = 0
    post_seal_long_skips: int = 0
    denials: int = 0
    host_bypass: int = 0
    long_list_reads: int = 0

    def copy(self) -> "EngineCounters":
        return replace(self)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def conservation_holds(self) -> bool:
        decided = (
            self.host_bypass
            + self.global_table_hits
            + self.short_hits
            + self.long_hits
            + self.long_misses
            + self.post_seal_long_skips
        )
        return (
            self.resolves_total == decided
            and self.host_passthroughs == self.short_hits + self.long_hits
            and self.renames
            == self.global_table_hits + self.long_misses + self.post_seal_long_skips
        )


@dataclass(frozen=True)
class EngineSnapshot:
    """Read-only consistent view of engine state."""

    long_list: frozenset[str]
    long_patterns: tuple[str, ...]
    short_list: tuple[str, ...]
    flag: bool
    global_tables: dict[int, frozenset[str]]
    counters: EngineCounters

    def to_dict(self) -> dict:
        return {
            "long_list": sorted(self.long_list),
            "long_patterns": list(self.long_patterns),
            "short_list": list(self.short_list),
            "flag": self.flag,
            "global_tables": {str(vm): sorted(names) for vm, names in self.global_tables.items()},
            "counters": self.counters.to_dict(),
        }


class HostObjectTable:
    """Long boot-time list, MRU short list, and the one-way host-object flag.

    The long list is a hash set of exact names plus an ordered list of
    trailing-``*`` patterns (a pattern matches any non-empty decimal suffix).
    The short list holds concrete names only, most recently used first; every
    short entry matches the long list. Once the flag is set it never reverts,
    and the short list is frozen.
    """

    def __init__(self):
        self.exact: set[str] = set()
        self.patterns: list[str] = []
        # value unused; key order is MRU-first
        self.short: OrderedDict[str, None] = OrderedDict()
        self.flag = False
        self.loaded = False

    def load(self, names) -> int:
        if self.loaded:
            raise AlreadyLoaded("long host-object list may be loaded only once")
        exact: set[str] = set()
        patterns: list[str] = []
        for name in names:
            check_object_name(name, allow_pattern=True)
            if name.endswith("*"):
                if name[:-1] not in patterns:
                    patterns.append(name[:-1])
            else:
                exact.add(name)
        self.exact = exact
        self.patterns = patterns
        self.loaded = True
        return len(exact) + len(patterns)

    def long_contains(self, name: str) -> bool:
        if name in self.exact:
            return True
        for prefix in self.patterns:
            if name.startswith(prefix) and is_ascii_digits(name[len(prefix):]):
                return True
        return False

    def short_hit(self, name: str) -> bool:
        if name not in self.short:
            return False
        if not self.flag:
            self.short.move_to_end(name, last=False)
        return True

    def short_insert(self, name: str):
        if not self.flag:
            self.short[name] = None
            self.short.move_to_end(name, last=False)

    def short_order(self) -> tuple[str, ...]:
        return tuple(self.short)


class ConfinementEngine:
    """Optimized confinement engine: Figure-of-merit short list + flag.

    All operations are linearizable; a single lock makes each resolve (and
    its table updates) atomic with respect to concurrent callers.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._host = HostObjectTable()
        self._global_tables: dict[VmId, set[str]] = {}
        self.counters = EngineCounters()

    # -- setup ---------------------------------------------------------------

    def load_long_list(self, names) -> int:
        """Load the boot-time host-object inventory. Callable once."""
        with self._lock:
            count = self._host.load(names)
            logger.info("long host-object list loaded: %d entries", count)
            return count

    def seal_host_objects(self):
        """Set the host-object flag: stop consulting the long list, freeze
        the short list. Idempotent; irreversible."""
        with self._lock:
            self._require_loaded()
            if not self._host.flag:
                self._host.flag = True
                logger.info("host-object flag set; short list frozen at %d entries",
                            len(self._host.short))

    @property
    def sealed(self) -> bool:
        return self._host.flag

    # -- renaming decision (categories I-IV) ----------------------------------

    def resolve(
        self,
        caller: ProcessRef,
        name: str,
        category: IpcCategory,
        intent: Intent,
        scope: Scope = Scope.LOCAL,
    ) -> ResolveOutcome:
        if not category.name_addressed:
            raise BadCategory(f"resolve handles name-addressed categories only, got {category}")
        check_object_name(name)
        with self._lock:
            self._require_loaded()
            c = self.counters
            c.resolves_total += 1

            # (a) host callers keep the original name, no table updates
            if caller.vm.is_host:
                c.host_bypass += 1
                return ResolveOutcome(name, Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)

            table = self._global_tables.setdefault(caller.vm, set())

            # (b) creating a global object registers it for this VM
            if intent is Intent.CREATE and is_global_name(name, scope):
                table.add(name)
                c.global_table_hits += 1
                c.renames += 1
                return ResolveOutcome(rename(name, caller.vm), Route.VM_GLOBAL, Principle.GLOBAL_OBJECT)

            # (c) globals created in this VM resolve to the VM's copy
            if name in table:
                c.global_table_hits += 1
                c.renames += 1
                return ResolveOutcome(rename(name, caller.vm), Route.VM_GLOBAL, Principle.GLOBAL_OBJECT)

            # (d) recently used host-objects pass through
            if self._host.short_hit(name):
                c.short_hits += 1
                c.host_passthroughs += 1
                return ResolveOutcome(name, Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)

            # (e) after seal the long list is never consulted again
            if self._host.flag:
                c.post_seal_long_skips += 1
                c.renames += 1
                return ResolveOutcome(rename(name, caller.vm), Route.VM_PRIVATE, Principle.ISOLATION)

            # (f)/(g) consult the long list
            c.long_list_reads += 1
            if self._host.long_contains(name):
                self._host.short_insert(name)
                c.long_hits += 1
                c.host_passthroughs += 1
                return ResolveOutcome(name, Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)

            c.long_misses += 1
            c.renames += 1
            return ResolveOutcome(rename(name, caller.vm), Route.VM_PRIVATE, Principle.ISOLATION)

    # -- access decision (categories V-VII) ------------------------------------

    def access_decide(self, sender: ProcessRef, receiver: ProcessRef,
                      category: IpcCategory) -> Verdict:
        """Message-style IPC: allowed only within one context (host counts
        as its own context)."""
        if category.group is not IpcGroup.MESSAGE:
            raise BadCategory(f"access_decide handles message IPC only, got {category}")
        if sender.vm == receiver.vm:
            return Verdict(Decision.ALLOW, "SameVm")
        with self._lock:
            self.counters.denials += 1
        return Verdict(Decision.DENY, "CrossVm")

    def dangerous_decide(self, caller: ProcessRef, target_vm: VmId | None,
                         kind: DangerousKind) -> Verdict:
        """Cross-process calls: confined to the caller's VM.

        ``target_vm=SYSTEM_WIDE`` (None) on a window hook is granted but
        narrowed to the caller's own VM.
        """
        if kind is DangerousKind.SET_WINDOW_HOOK and target_vm is SYSTEM_WIDE:
            return Verdict(Decision.ALLOW, "ScopedToVm")
        if target_vm is not None and caller.vm == target_vm:
            return Verdict(Decision.ALLOW, "SameVm")
        with self._lock:
            self.counters.denials += 1
        return Verdict(Decision.DENY, "CrossVm")

    # -- inspection -------------------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        with self._lock:
            host = self._host
            return EngineSnapshot(
                long_list=frozenset(host.exact),
                long_patterns=tuple(p + "*" for p in host.patterns),
                short_list=host.short_order(),
                flag=host.flag,
                global_tables={vm.id: frozenset(names)
                               for vm, names in self._global_tables.items()},
                counters=self.counters.copy(),
            )

    def _require_loaded(self):
        if not self._host.loaded:
            raise NotLoaded("long host-object list not loaded")


class ReferenceEngine:
    """Naive oracle: the same decisions with no short list and no flag.

    Every host-object lookup scans the entire long list (exact entries and
    patterns alike), so it is never affected by sealing. Entries are split
    into exact names and pattern prefixes once, at load. It keeps its own
    global-object tables so it can be driven over a trace in lockstep with
    the optimized engine.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._exact: list[str] = []
        self._prefixes: list[str] = []
        self._loaded = False
        self._global_tables: dict[VmId, set[str]] = {}
        self.counters = EngineCounters()

    def load_long_list(self, names) -> int:
        with self._lock:
            if self._loaded:
                raise AlreadyLoaded("long host-object list may be loaded only once")
            names = list(names)
            for name in names:
                check_object_name(name, allow_pattern=True)
            entries = dict.fromkeys(names)  # drops repeats, keeps order
            self._exact = [name for name in entries if not name.endswith("*")]
            self._prefixes = [name[:-1] for name in entries if name.endswith("*")]
            self._loaded = True
            return len(entries)

    def seal_host_objects(self):
        # the oracle has no flag; sealing changes nothing
        if not self._loaded:
            raise NotLoaded("long host-object list not loaded")

    def resolve(
        self,
        caller: ProcessRef,
        name: str,
        category: IpcCategory,
        intent: Intent,
        scope: Scope = Scope.LOCAL,
    ) -> ResolveOutcome:
        if not category.name_addressed:
            raise BadCategory(f"resolve handles name-addressed categories only, got {category}")
        check_object_name(name)
        with self._lock:
            if not self._loaded:
                raise NotLoaded("long host-object list not loaded")
            c = self.counters
            c.resolves_total += 1

            if caller.vm.is_host:
                c.host_bypass += 1
                return ResolveOutcome(name, Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)

            table = self._global_tables.setdefault(caller.vm, set())
            if intent is Intent.CREATE and is_global_name(name, scope):
                table.add(name)
                c.global_table_hits += 1
                c.renames += 1
                return ResolveOutcome(rename(name, caller.vm), Route.VM_GLOBAL, Principle.GLOBAL_OBJECT)
            if name in table:
                c.global_table_hits += 1
                c.renames += 1
                return ResolveOutcome(rename(name, caller.vm), Route.VM_GLOBAL, Principle.GLOBAL_OBJECT)

            c.long_list_reads += 1
            if self._scan(name):
                c.long_hits += 1
                c.host_passthroughs += 1
                return ResolveOutcome(name, Route.HOST_PASSTHROUGH, Principle.HOST_OBJECT)

            c.long_misses += 1
            c.renames += 1
            return ResolveOutcome(rename(name, caller.vm), Route.VM_PRIVATE, Principle.ISOLATION)

    def _scan(self, name: str) -> bool:
        # deliberate full scan, entry by entry: list membership compares the
        # exact names one at a time, then every pattern prefix is tried
        if name in self._exact:
            return True
        for prefix in self._prefixes:
            if name.startswith(prefix) and is_ascii_digits(name[len(prefix):]):
                return True
        return False
