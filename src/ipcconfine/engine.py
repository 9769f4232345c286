"""The IPC confinement decision core.

Two decision surfaces:

* :meth:`ConfinementEngine.resolve` handles name-addressed categories (ports,
  pipes, shared memory, sync objects). It decides, per caller, whether a name
  passes through to the shared host namespace or is renamed into the caller
  VM's private namespace, consulting the per-VM global-object tables and the
  engine's own host-object lookup.

* :meth:`ConfinementEngine.access_decide` handles the process-addressed
  categories, messages (V) and dangerous cross-process calls (VII), with one
  VM comparison that returns True to allow and False to deny;
  :meth:`dangerous_decide` is the same method under the name of category
  VII. Hook narrowing is the kernel's alone.

A resolve outcome is an effective name and a route. Each route fixes the
confinement principle behind it (``VmPrivate`` Isolation, ``VmGlobal``
GlobalObject, ``HostPassthrough`` HostObject), so the principle is stored
once, on the route member, and an outcome reads it from there.

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

``ConfinementEngine.resolve`` runs them in three phases:

  1. stored outcomes: for a VM caller, a hit in a table that holds decided
     outcomes, the VM's global-object table (c) or the short list (d),
     returns the stored outcome before any name check; every stored name
     passed the check when it went in;
  2. the check: category, name, reserved ``vm<digits>`` prefix, loaded
     state, in that order of errors;
  3. the decision: steps (a), (b), (e), (f) and (g).

:class:`ReferenceEngine`, the oracle the engine is compared with in dual
replay, is only a long list and steps (f) and (g): its ``resolve(name, vm)``
scans every exact entry and tries every prefix. The two share only
``_split_long_list``, which checks and splits the long-list entries.
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
    Intent,
    IpcCategory,
    ProcessRef,
    Scope,
    VmId,
    check_object_name,
    is_ascii_digits,
    is_global_name,
)
# The engine checks a name once, on entry to ``resolve``, and the oracle is
# given names the engine checked, so renaming skips the re-check that the
# public ``model.rename`` makes.
from .model import rename_unchecked as rename

logger = logging.getLogger(__name__)

__all__ = [
    "Route",
    "Principle",
    "ResolveOutcome",
    "EngineCounters",
    "EngineSnapshot",
    "ConfinementEngine",
    "ReferenceEngine",
]


class Principle(Enum):
    ISOLATION = "Isolation"
    GLOBAL_OBJECT = "GlobalObject"
    HOST_OBJECT = "HostObject"


class Route(Enum):
    HOST_PASSTHROUGH = "HostPassthrough"
    VM_GLOBAL = "VmGlobal"
    VM_PRIVATE = "VmPrivate"

    principle: Principle  # set on each member below


# The one pairing of route and principle. A member attribute, not a dict
# keyed by member: hashing an Enum member is a Python-level call.
Route.HOST_PASSTHROUGH.principle = Principle.HOST_OBJECT
Route.VM_GLOBAL.principle = Principle.GLOBAL_OBJECT
Route.VM_PRIVATE.principle = Principle.ISOLATION

# Enum members read on every resolve, bound once: a class-attribute read of
# a member costs several times a module-global read.
_PASSTHROUGH, _VM_GLOBAL, _VM_PRIVATE = Route.HOST_PASSTHROUGH, Route.VM_GLOBAL, Route.VM_PRIVATE
_CREATE = Intent.CREATE


class ResolveOutcome(NamedTuple):
    """The decided outcome of one resolve: the effective name and the route,
    whose member carries the principle.

    A tuple: immutable, so the tables may hand one instance to many callers,
    and equal to a plain tuple of the same two values.
    """

    effective_name: str
    route: Route

    @property
    def principle(self) -> Principle:
        return self.route.principle

    def to_dict(self) -> dict:
        # ``_value_`` is the member's stored value; the ``value`` property
        # reads the same through a Python-level descriptor call
        route = self.route
        return {
            "effective_name": self.effective_name,
            "route": route._value_,
            "principle": route.principle._value_,
        }


# Builds an outcome in one C call; ``ResolveOutcome(...)`` runs the
# generated Python ``__new__`` around the same call.
_new = tuple.__new__


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


def _split_long_list(names) -> tuple[dict[str, None], dict[str, None]]:
    """Check each long-list entry, patterns allowed, and split the entries
    into exact names and pattern prefixes: two ordered dicts, repeats
    dropped, load order kept."""
    exact, prefixes = {}, {}
    for name in names:
        check_object_name(name, allow_pattern=True)
        if name[-1] == "*":
            prefixes[name[:-1]] = None
        else:
            exact[name] = None
    return exact, prefixes


class ConfinementEngine:
    """The confinement engine: stored outcomes, checks, and steps (a) to (g),
    each with its counter. It owns the per-VM global-object tables and the
    host-object table: the long boot-time list, the MRU short list in front
    of it, and the one-way flag.

    The long list is a dict of exact names plus a dict of pattern prefixes,
    both in load order (``prefix*`` matches ``prefix`` and one or more
    ASCII digits). Such a name's digit stem, the name without its trailing
    ASCII digits, equals the prefix's, so a lookup probes the exact dict
    once and, for a name with a trailing digit, the prefix dict once, at its
    stem. ``_digit_stems`` holds the stems of the prefixes that end in a
    digit; only when it holds the name's stem are the cut points inside the
    name's digits probed too. The cost depends on neither list size nor
    pattern count. The short list maps concrete names, most recently used
    first, to their ``HOST_PASSTHROUGH`` outcome; each matches the long
    list. Once set, the flag never reverts, and the short list is frozen.

    A single plain lock makes each resolve, with its table updates, atomic:
    all operations are linearizable. No method calls another engine method
    while it holds the lock, so the lock is not re-entrant. ``resolve``
    takes it with explicit ``acquire()`` / ``release()`` calls, with a
    ``finally`` that releases it on every error: a ``with`` block's
    context-manager calls cost about 120 ns more per resolve (Python 3.11,
    Intel Xeon).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._loaded = False
        # vm id -> {name: its VM_GLOBAL outcome in that VM}
        self._global_tables: dict[int, dict[str, ResolveOutcome]] = {}
        self.counters = EngineCounters()
        self._exact: dict[str, None] = {}
        self._prefixes: dict[str, None] = {}
        self._digit_stems: frozenset[str] = frozenset()
        self._short: OrderedDict[str, ResolveOutcome] = OrderedDict()
        self._flag = False

    def load_long_list(self, names) -> int:
        """Load the boot-time host-object inventory. Callable once."""
        with self._lock:
            if self._loaded:
                raise AlreadyLoaded("long host-object list may be loaded only once")
            exact, prefixes = _split_long_list(names)
            self._exact, self._prefixes = exact, prefixes
            # the digit stems of the prefixes that end in a digit
            self._digit_stems = frozenset(
                stem for p in prefixes if (stem := p.rstrip(DIGITS)) != p)
            count = len(exact) + len(prefixes)
            self._loaded = True
            logger.info("long host-object list loaded: %d entries", count)
            return count

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
        vm = caller.vm
        vm_id = vm.id
        lock = self._lock
        lock.acquire()
        try:
            c = self.counters
            table = None
            short = self._short
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
                outcome = short.get(name)  # the one short-list probe
                if outcome is not None and not (
                        intent is _CREATE and is_global_name(name, scope)):
                    if not self._flag:
                        short.move_to_end(name, last=False)
                    c.resolves_total += 1
                    c.short_hits += 1
                    return outcome

            # 2. every other resolve is checked
            check_object_name(name)
            if not self._loaded:
                raise NotLoaded("long host-object list not loaded")
            c.resolves_total += 1

            # 3. the decision
            # (a) host callers keep the original name, no table updates
            if not vm_id:
                c.host_bypass += 1
                return _new(ResolveOutcome, (name, _PASSTHROUGH))

            # (b) creating a global object registers it for this VM
            if intent is _CREATE and is_global_name(name, scope):
                if table is None:
                    table = self._global_tables[vm_id] = {}
                outcome = table[name] = _new(ResolveOutcome, (rename(name, vm), _VM_GLOBAL))
                c.global_table_hits += 1
                return outcome

            # (e) after the seal the long list is never consulted again
            if self._flag:
                c.post_seal_long_skips += 1
            # (f) a listed name passes through and enters the short list
            elif self._listed(name):
                c.long_hits += 1
                outcome = _new(ResolveOutcome, (name, _PASSTHROUGH))
                short[name] = outcome
                short.move_to_end(name, last=False)
                return outcome
            else:
                c.long_misses += 1

            # (g) everything else is renamed into the caller VM's namespace
            return _new(ResolveOutcome, (rename(name, vm), _VM_PRIVATE))
        finally:
            lock.release()

    def _listed(self, name: str) -> bool:
        if name in self._exact:
            return True
        # ``prefix*`` matches only names whose digit stem is the prefix's
        stem = name.rstrip(DIGITS)
        end = len(stem)
        if end == len(name):
            return False
        prefixes = self._prefixes
        if stem in prefixes:
            return True
        if stem not in self._digit_stems:
            return False
        # a prefix that ends in digits: try the cuts inside the name's digits
        for cut in range(end + 1, len(name)):
            if name[:cut] in prefixes:
                return True
        return False

    def seal_host_objects(self):
        """Set the host-object flag: stop consulting the long list, freeze
        the short list. Idempotent; irreversible."""
        with self._lock:
            if not self._loaded:
                raise NotLoaded("long host-object list not loaded")
            if not self._flag:
                self._flag = True
                logger.info("host-object flag set; short list frozen at %d entries",
                            len(self._short))

    # -- access decision (categories V and VII) --------------------------------

    def access_decide(self, sender: ProcessRef, receiver: ProcessRef) -> bool:
        """Messages and dangerous calls: True (allowed) only within one
        context, the host counting as its own; each False is a counted
        denial."""
        if sender.vm == receiver.vm:
            return True
        with self._lock:
            self.counters.denials += 1
        return False

    # the same decision under category VII's name
    dangerous_decide = access_decide

    # -- inspection -------------------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        with self._lock:
            return EngineSnapshot(
                long_list=frozenset(self._exact),
                long_patterns=tuple(p + "*" for p in self._prefixes),
                short_list=tuple(self._short),
                flag=self._flag,
                global_tables={vm: frozenset(table)
                               for vm, table in self._global_tables.items()},
                counters=self.counters.copy(),
            )


class ReferenceEngine:
    """The full-scan oracle of dual replay: the long list, and one decision.

    It holds the same checked entries as the engine, split once at load
    into exact names and pattern prefixes, and decides steps (f) and (g)
    with a full scan of them: :meth:`resolve` passes a listed name through
    and renames any other. It has no short list and no flag, so sealing
    does not touch it; no lock, counters or global-object tables, as it
    decides nothing else. A dual replay asks it, once per distinct name and
    VM, about the outcomes of a VM caller that are not ``VmGlobal``: the
    engine decides those by step (d), (e), (f) or (g), and only (e) can
    decide otherwise than the scan.
    """

    def __init__(self):
        self._exact: list[str] = []
        self._prefixes: tuple[str, ...] = ()

    def load_long_list(self, names) -> int:
        """Load the long list with the engine's entry check; returns the
        number of distinct entries."""
        exact, prefixes = _split_long_list(names)
        self._exact, self._prefixes = list(exact), tuple(prefixes)
        return len(exact) + len(prefixes)

    def resolve(self, name: str, vm: VmId) -> ResolveOutcome:
        """Steps (f) and (g) for VM ``vm``: ``name`` passes through if the
        full scan lists it and is renamed into the VM otherwise. No check:
        the caller passes a name that the engine resolved for that VM, with
        the same long list loaded."""
        if self._listed(name):
            return _new(ResolveOutcome, (name, _PASSTHROUGH))
        return _new(ResolveOutcome, (rename(name, vm), _VM_PRIVATE))

    def _listed(self, name: str) -> bool:
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
