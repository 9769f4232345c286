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

Both engines run one pipeline, ``_ResolvePipeline._decide``, in three
phases:

  1. stored outcomes: for a VM caller, a hit in a table that holds decided
     outcomes, the VM's global-object table (c) or the engine's short list
     (d), returns the stored outcome before any name check; every stored
     name passed the check when it went in;
  2. the check: category, name, reserved ``vm<digits>`` prefix, loaded
     state, in that order of errors;
  3. the decision: steps (a), (b), this engine's host-object lookup
     (e)-(f), and (g).

:class:`ConfinementEngine` supplies the MRU short list, the flag, and a long
list of exact names (a hash set) and pattern prefixes (a set probed at the
name's digit stem, the name without its trailing digits, and inside those
digits only when a prefix that ends in a digit has that stem).
:class:`ReferenceEngine`, the oracle it is equivalence-tested against,
supplies no short list; it compares every exact entry and tries every
prefix. A table hit returns the outcome stored with the name instead of
renaming it again.
"""

from __future__ import annotations

import logging
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

from .errors import AlreadyLoaded, BadCategory, NotLoaded
from .model import (
    DIGITS,
    TAG_START,
    Intent,
    IpcCategory,
    IpcGroup,
    ProcessRef,
    Scope,
    VmId,
    check_object_name,
    check_unreserved,
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
    CREATE_REMOTE_THREAD = "CreateRemoteThread"
    SET_WINDOW_HOOK = "SetWindowHook"


# Target sentinel for a hook that asks for system-wide scope.
SYSTEM_WIDE = None

# Enum members read on every resolve, bound once: a class-attribute read of
# a member costs several times a module-global read.
_PASSTHROUGH, _VM_GLOBAL, _VM_PRIVATE = Route.HOST_PASSTHROUGH, Route.VM_GLOBAL, Route.VM_PRIVATE
_HOST_OBJECT, _GLOBAL_OBJECT, _ISOLATION = (
    Principle.HOST_OBJECT, Principle.GLOBAL_OBJECT, Principle.ISOLATION)
_CREATE = Intent.CREATE


class ResolveOutcome(NamedTuple):
    """The decided outcome of one resolve.

    A tuple: immutable, so the tables may hand one instance to many callers,
    and equal to a plain tuple of the same three values.
    """

    effective_name: str
    route: Route
    principle: Principle

    def to_dict(self) -> dict:
        # ``_value_`` is the member's stored value; the ``value`` property
        # reads the same through a Python-level descriptor call
        return {
            "effective_name": self.effective_name,
            "route": self.route._value_,
            "principle": self.principle._value_,
        }


# Builds an outcome in one C call; ``ResolveOutcome(...)`` runs the
# generated Python ``__new__`` around the same call.
_new = tuple.__new__


@dataclass(frozen=True)
class Verdict:
    decision: Decision
    reason: str

    @property
    def allowed(self) -> bool:
        return self.decision is Decision.ALLOW

    def to_dict(self) -> dict:
        return {"decision": self.decision.value, "reason": self.reason}


# The three verdicts the engine gives, shared by every call.
_SAME_VM = Verdict(Decision.ALLOW, "SameVm")
_CROSS_VM = Verdict(Decision.DENY, "CrossVm")
_SCOPED_TO_VM = Verdict(Decision.ALLOW, "ScopedToVm")


@dataclass
class EngineCounters:
    """Monotonic per-engine event counts.

    Each resolve counts the one step that decided it, host-caller resolves
    (``host_bypass``) included, so the conservation identity is checkable:

        resolves_total == host_bypass + global_table_hits + short_hits
                          + long_hits + long_misses + post_seal_long_skips

    ``renames``, ``host_passthroughs`` and ``long_list_reads`` are derived
    from the step counts: every long-list consultation ends in exactly one
    long hit or long miss.
    """

    resolves_total: int = 0
    global_table_hits: int = 0
    short_hits: int = 0
    long_hits: int = 0
    long_misses: int = 0
    post_seal_long_skips: int = 0
    denials: int = 0
    host_bypass: int = 0

    @property
    def renames(self) -> int:
        return self.global_table_hits + self.long_misses + self.post_seal_long_skips

    @property
    def host_passthroughs(self) -> int:
        return self.short_hits + self.long_hits

    @property
    def long_list_reads(self) -> int:
        return self.long_hits + self.long_misses

    def copy(self) -> "EngineCounters":
        return replace(self)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _COUNTER_KEYS}

    def conservation_holds(self) -> bool:
        return self.resolves_total == (
            self.host_bypass + self.global_table_hits + self.short_hits
            + self.long_hits + self.long_misses + self.post_seal_long_skips)


# the exported counters, derived ones included, in their report order
_COUNTER_KEYS = ("resolves_total", "global_table_hits", "short_hits", "long_hits",
                 "long_misses", "renames", "host_passthroughs", "post_seal_long_skips",
                 "denials", "host_bypass", "long_list_reads")


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

    The long list is a hash set of exact names plus a set of pattern
    prefixes (``prefix*`` matches ``prefix`` and one or more ASCII digits).
    Such a name's digit stem, the name without its trailing ASCII digits,
    equals the prefix's, so a lookup probes the exact set once and, for a
    name with a trailing digit, the prefix set once, at its stem.
    ``digit_stems`` holds the stems of the prefixes that end in a digit;
    only when it holds the name's stem are the cut points inside the
    name's digits probed too. The cost depends on neither list size nor
    pattern count. ``patterns`` keeps the prefixes in load order for
    snapshots. The short list maps concrete names, most recently used
    first, to their ``HOST_PASSTHROUGH`` outcome; each matches the long
    list. Once set, the flag never reverts, and the short list is frozen.
    """

    def __init__(self):
        self.exact: set[str] = set()
        self.patterns: list[str] = []
        self.prefixes: frozenset[str] = frozenset()
        self.digit_stems: frozenset[str] = frozenset()
        self.short: OrderedDict[str, ResolveOutcome] = OrderedDict()
        self.flag = False

    def load(self, exact: list[str], prefixes: list[str]) -> int:
        self.exact = set(exact)
        self.patterns = list(dict.fromkeys(prefixes))  # drops repeats, keeps order
        self.prefixes = frozenset(self.patterns)
        # the digit stems of the prefixes that end in a digit
        self.digit_stems = frozenset(
            stem for p in self.patterns if (stem := p.rstrip(DIGITS)) != p)
        return len(self.exact) + len(self.patterns)

    def long_contains(self, name: str) -> bool:
        if name in self.exact:
            return True
        # ``prefix*`` matches only names whose digit stem is the prefix's
        stem = name.rstrip(DIGITS)
        end = len(stem)
        if end == len(name):
            return False
        if stem in self.prefixes:
            return True
        if stem not in self.digit_stems:
            return False
        # a prefix that ends in digits: try the cuts inside the name's digits
        prefixes = self.prefixes
        for cut in range(end + 1, len(name)):
            if name[:cut] in prefixes:
                return True
        return False


class _ResolvePipeline:
    """The resolve pipeline both engines run: stored outcomes, checks, and
    steps (a), (b) and (g).

    An engine supplies its host-object lookup: ``_load(exact, prefixes)``
    keeps the checked long-list entries and returns their count without
    repeats; ``_host_lookup(name, counters)``, the host-object steps after
    the short list, counts the step that decided and returns the name's
    pass-through outcome, or None to have the name renamed into the caller's
    VM. An engine with a short list, step (d), sets ``_host`` to its
    :class:`HostObjectTable`. A single lock makes each resolve, with its
    table updates, atomic: all operations are linearizable. ``_decide``
    takes it with explicit ``acquire()`` / ``release()`` calls, with a
    ``finally`` that releases it on every error: a ``with`` block's
    context-manager calls cost about 120 ns more per resolve (Python 3.11,
    Intel Xeon).
    """

    _host: HostObjectTable | None = None

    def __init__(self):
        self._lock = threading.RLock()
        self._loaded = False
        # vm id -> {name: its VM_GLOBAL outcome in that VM}
        self._global_tables: dict[int, dict[str, ResolveOutcome]] = {}
        self.counters = EngineCounters()

    def load_long_list(self, names) -> int:
        """Load the boot-time host-object inventory. Callable once."""
        with self._lock:
            if self._loaded:
                raise AlreadyLoaded("long host-object list may be loaded only once")
            exact, prefixes = [], []
            for name in names:
                check_object_name(name, allow_pattern=True)
                if name.startswith(TAG_START):
                    check_unreserved(name)
                if name[-1] == "*":
                    prefixes.append(name[:-1])
                else:
                    exact.append(name)
            count = self._load(exact, prefixes)
            self._loaded = True
            logger.info("long host-object list loaded: %d entries", count)
            return count

    def _require_loaded(self):
        if not self._loaded:
            raise NotLoaded("long host-object list not loaded")

    def _decide(
        self,
        caller: ProcessRef,
        name: str,
        category: IpcCategory,
        intent: Intent,
        scope: Scope = Scope.LOCAL,
    ) -> ResolveOutcome:
        if not category.name_addressed:
            raise BadCategory(f"resolve handles name-addressed categories only, got {category}")
        vm = caller.vm
        vm_id = vm.id
        lock = self._lock
        lock.acquire()
        try:
            c = self.counters
            table = None
            # 1. stored outcomes. Each stored name passed the check when it
            # went in, so a hit skips it; a name that is no str is never
            # probed and fails the check below.
            if vm_id and isinstance(name, str):
                # (c) globals created in this VM resolve to the VM's copy; a
                # repeated Create of one is decided here too, with (b)'s outcome
                table = self._global_tables.get(vm_id)
                if table is not None and name in table:
                    c.resolves_total += 1
                    c.global_table_hits += 1
                    return table[name]
                # (d) recently used host objects pass through, unless this is
                # a Create of a global name, which (b) decides
                host = self._host
                if host is not None:
                    outcome = host.short.get(name)  # the one short-list probe
                    if outcome is not None and not (
                            intent is _CREATE and is_global_name(name, scope)):
                        if not host.flag:
                            host.short.move_to_end(name, last=False)
                        c.resolves_total += 1
                        c.short_hits += 1
                        return outcome

            # 2. every other resolve is checked
            check_object_name(name)
            if name.startswith(TAG_START):
                check_unreserved(name)
            if not self._loaded:
                raise NotLoaded("long host-object list not loaded")
            c.resolves_total += 1

            # 3. the decision
            # (a) host callers keep the original name, no table updates
            if not vm_id:
                c.host_bypass += 1
                return _new(ResolveOutcome, (name, _PASSTHROUGH, _HOST_OBJECT))

            # (b) creating a global object registers it for this VM
            if intent is _CREATE and is_global_name(name, scope):
                if table is None:
                    table = self._global_tables[vm_id] = {}
                outcome = table[name] = _new(
                    ResolveOutcome, (rename(name, vm), _VM_GLOBAL, _GLOBAL_OBJECT))
                c.global_table_hits += 1
                return outcome

            # (e)-(f) this engine's host-object lookup
            outcome = self._host_lookup(name, c)
            if outcome is not None:
                return outcome

            # (g) everything else is renamed into the caller VM's namespace
            return _new(ResolveOutcome, (rename(name, vm), _VM_PRIVATE, _ISOLATION))
        finally:
            lock.release()


class ConfinementEngine(_ResolvePipeline):
    """Optimized confinement engine: MRU short list + one-way flag."""

    def __init__(self):
        super().__init__()
        self._host = HostObjectTable()

    resolve = _ResolvePipeline._decide

    def _load(self, exact: list[str], prefixes: list[str]) -> int:
        return self._host.load(exact, prefixes)

    def _host_lookup(self, name: str, c: EngineCounters) -> ResolveOutcome | None:
        # the short list, step (d), missed in the pipeline's first phase
        host = self._host
        # (e) after seal the long list is never consulted again
        if host.flag:
            c.post_seal_long_skips += 1
            return None
        # (f) a listed name passes through and enters the short list
        if host.long_contains(name):
            outcome = host.short[name] = _new(ResolveOutcome, (name, _PASSTHROUGH, _HOST_OBJECT))
            host.short.move_to_end(name, last=False)
            c.long_hits += 1
            return outcome
        c.long_misses += 1
        return None

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

    # -- access decision (categories V-VII) ------------------------------------

    def access_decide(self, sender: ProcessRef, receiver: ProcessRef,
                      category: IpcCategory) -> Verdict:
        """Message-style IPC: allowed only within one context (host counts
        as its own context)."""
        if category.group is not IpcGroup.MESSAGE:
            raise BadCategory(f"access_decide handles message IPC only, got {category}")
        if sender.vm == receiver.vm:
            return _SAME_VM
        with self._lock:
            self.counters.denials += 1
        return _CROSS_VM

    def dangerous_decide(self, caller: ProcessRef, target_vm: VmId | None,
                         kind: DangerousKind) -> Verdict:
        """Cross-process calls: confined to the caller's VM.

        ``target_vm=SYSTEM_WIDE`` (None) on a window hook is granted but
        narrowed to the caller's own VM.
        """
        if kind is DangerousKind.SET_WINDOW_HOOK and target_vm is SYSTEM_WIDE:
            return _SCOPED_TO_VM
        if target_vm is not None and caller.vm == target_vm:
            return _SAME_VM
        with self._lock:
            self.counters.denials += 1
        return _CROSS_VM

    # -- inspection -------------------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        with self._lock:
            host = self._host
            return EngineSnapshot(
                long_list=frozenset(host.exact),
                long_patterns=tuple(p + "*" for p in host.patterns),
                short_list=tuple(host.short),
                flag=host.flag,
                global_tables={vm: frozenset(table)
                               for vm, table in self._global_tables.items()},
                counters=self.counters.copy(),
            )


class ReferenceEngine(_ResolvePipeline):
    """Naive oracle: the same pipeline with no short list and no flag.

    Every host-object lookup scans the entire long list (exact entries and
    patterns alike), so it is never affected by sealing. Entries are split
    into exact names and pattern prefixes once, at load. It keeps its own
    global-object tables so it can be driven over a trace in lockstep with
    the optimized engine.
    """

    def __init__(self):
        super().__init__()
        self._exact: list[str] = []
        self._prefixes: tuple[str, ...] = ()

    resolve = _ResolvePipeline._decide

    def _load(self, exact: list[str], prefixes: list[str]) -> int:
        # repeats dropped, load order kept
        self._exact, self._prefixes = list(dict.fromkeys(exact)), tuple(dict.fromkeys(prefixes))
        return len(self._exact) + len(self._prefixes)

    def seal_host_objects(self):
        # the oracle has no flag; sealing changes nothing
        self._require_loaded()

    def _host_lookup(self, name: str, c: EngineCounters) -> ResolveOutcome | None:
        if self._scan(name):
            c.long_hits += 1
            return _new(ResolveOutcome, (name, _PASSTHROUGH, _HOST_OBJECT))
        c.long_misses += 1
        return None

    def _scan(self, name: str) -> bool:
        # deliberate full scan, entry by entry: list membership compares the
        # exact names one at a time, then one ``startswith`` call tries every
        # pattern prefix; only a name that some prefix starts is checked,
        # prefix by prefix, for a digit suffix
        if name in self._exact:
            return True
        prefixes = self._prefixes
        if not name.startswith(prefixes):
            return False
        for prefix in prefixes:
            if name.startswith(prefix) and is_ascii_digits(name[len(prefix):]):
                return True
        return False
