r"""Seeded inputs for the benchmark workloads, with the outcome each must give.

Nothing here imports ``ipcconfine``. The replay trace is written as plain
JSONL and the resolve streams as plain tuples, and every outcome is predicted
from this module's own model of the confinement rules. So a change to the
program, or to its ``generate_random_trace``, changes neither the workloads
nor the outcomes they are checked against.

Processes are the same in every workload: pid 1 is a host process, and pids
2..17 are sixteen processes spread over VMs 1..4 (pid ``p`` lives in VM
``(p - 2) % 4 + 1``).
"""

from __future__ import annotations

import json
import random

PORT = "I_Port"
PIPE = "II_PseudoFile:NamedPipe"
SECTION = "III_SharedMemory:Section"
MUTEX = "IV_Sync:Mutex"
CATEGORIES = (PORT, PIPE, SECTION, MUTEX)

VM_COUNT = 4
HOST_PID = 1
VM_PIDS = tuple(range(2, 2 + 16))

PASSTHROUGH = "HostPassthrough"
VM_GLOBAL = "VmGlobal"
VM_PRIVATE = "VmPrivate"


def vm_of(pid: int) -> int:
    return 0 if pid == HOST_PID else (pid - 2) % VM_COUNT + 1


def renamed(name: str, vm: int) -> str:
    return f"\\vm{vm}{name}"


def alias_ip(vm: int) -> str:
    return f"10.0.0.{1 + vm}"


class RouteModel:
    """The benchmark's own statement of the resolve pipeline (a)-(g).

    ``resolve`` returns ``(route, effective_name, diverges)``; ``diverges``
    is true where the full-scan oracle would pass a name through that the
    sealed engine renames (the post-seal skip of a listed host object).
    """

    def __init__(self, exact, prefixes):
        self.exact = set(exact)
        self.prefixes = tuple(prefixes)
        self.short: set[str] = set()
        self.sealed = False
        self.globals: dict[int, set[str]] = {vm: set() for vm in range(1, VM_COUNT + 1)}

    def listed(self, name: str) -> bool:
        if name in self.exact:
            return True
        return any(name.startswith(p) and name[len(p):].isdigit() for p in self.prefixes)

    def resolve(self, pid: int, name: str, create: bool, global_scope: bool):
        vm = vm_of(pid)
        if vm == 0:
            return PASSTHROUGH, name, False
        table = self.globals[vm]
        if create and (global_scope or "Global" in name[1:].split("\\")):
            table.add(name)
            return VM_GLOBAL, renamed(name, vm), False
        if name in table:
            return VM_GLOBAL, renamed(name, vm), False
        if name in self.short:
            return PASSTHROUGH, name, False
        if self.sealed:
            return VM_PRIVATE, renamed(name, vm), self.listed(name)
        if self.listed(name):
            self.short.add(name)
            return PASSTHROUGH, name, False
        return VM_PRIVATE, renamed(name, vm), False


# ---------------------------------------------------------------------------
# replay trace
# ---------------------------------------------------------------------------

REPLAY_EVENTS = 40_000
REPLAY_POOL = 400
REPLAY_HOST_FRACTION = 0.3
REPLAY_PATTERNS = 16
REPLAY_GLOBAL_CREATE = 0.10
REPLAY_HOST_ACTOR = 0.05
WINDOW_CLASSES = tuple(f"WndClass{j}" for j in range(8))

# cumulative op mix of the main body of the trace
_REPLAY_MIX = (
    (0.28, "create"),
    (0.60, "open"),
    (0.74, "close"),
    (0.82, "send"),
    (0.87, "remote_thread"),
    (0.92, "find_window"),
    (0.96, "set_hook"),
    (1.00, "bind"),
)


class ReplayInput:
    """A trace plus everything the benchmark knows about its outcomes.

    ``expected[i]`` maps result keys of event ``i`` to the values the
    replay must report (``error`` is always present, ``None`` for success).
    ``calls`` lists the trace's name resolutions in order as
    ``(pid, name, category, create, global_scope)``, with ``seal_at`` the
    number of them made before the seal, and ``call_routes`` their
    ``(route, effective_name)``.
    """

    def __init__(self):
        self.lines: list[str] = []
        self.expected: list[dict] = []
        self.long_list: list[str] = []
        self.calls: list[tuple] = []
        self.call_routes: list[tuple] = []
        self.seal_at = 0
        self.divergences = 0

    @property
    def event_count(self) -> int:
        return len(self.expected)


def replay_input(seed: int, events: int = REPLAY_EVENTS) -> ReplayInput:
    """Trace of about ``events`` events: 4 VMs, 16 VM processes, 1 host process.

    The pool of 400 names is 30% host names (on the long list, 24 of them as
    instances of 16 trailing-``*`` patterns). About 10% of creates are
    global. The seal falls at the midpoint of the main body, and a tenth of
    the host names are touched by VM processes only after it, so their
    post-seal touches diverge from the oracle.
    """
    rng = random.Random(seed)
    out = ReplayInput()

    host_count = round(REPLAY_POOL * REPLAY_HOST_FRACTION)
    prefixes = [f"\\srv\\pipe{k:02d}_" for k in range(REPLAY_PATTERNS)]
    instance_count = 24
    exact_host = [f"\\srv\\host-{i:04d}" for i in range(host_count - instance_count)]
    instances = [f"{prefixes[i % REPLAY_PATTERNS]}{i}" for i in range(instance_count)]
    host_names = exact_host + instances
    private_names = [f"\\app\\obj-{i:04d}" for i in range(REPLAY_POOL - host_count)]
    pool = host_names + private_names
    category_of = {name: CATEGORIES[i % len(CATEGORIES)] for i, name in enumerate(pool)}
    late = set(rng.sample(host_names, host_count // 10))
    early_pool = [n for n in pool if n not in late]

    model = RouteModel(exact_host, prefixes)
    objects: dict[str, int] = {}              # effective name -> refcount
    handles: dict[tuple[int, str], list[str]] = {}
    open_keys: list[tuple[int, str]] = []      # keys with a non-empty stack
    open_pos: dict[tuple[int, str], int] = {}
    windows: set[tuple[str, int]] = set()      # (class, vm)
    bindings: set[tuple[str, int]] = set()
    seq = 0

    def emit(event: dict, expected: dict):
        nonlocal seq
        seq += 1
        event["seq"] = seq
        out.lines.append(json.dumps(event, sort_keys=True) + "\n")
        expected.setdefault("error", None)
        out.expected.append(expected)

    def push_handle(key, eff):
        stack = handles.setdefault(key, [])
        stack.append(eff)
        if len(stack) == 1:
            open_pos[key] = len(open_keys)
            open_keys.append(key)

    def pop_handle(key) -> str:
        stack = handles[key]
        eff = stack.pop()
        if not stack:
            pos = open_pos.pop(key)
            last = open_keys.pop()
            if last != key:
                open_keys[pos] = last
                open_pos[last] = pos
        return eff

    def name_op(op: str, pid: int, name: str, global_scope: bool = False):
        create = op == "create"
        category = category_of[name]
        route, eff, diverges = model.resolve(pid, name, create, global_scope)
        out.calls.append((pid, name, category, create, global_scope))
        out.call_routes.append((route, eff))
        out.divergences += diverges
        expected = {"route": route, "effective_name": eff}
        if create:
            if eff in objects:
                expected["error"] = "AlreadyExists"
            else:
                objects[eff] = 1
                push_handle((pid, name), eff)
        elif eff not in objects:
            expected["error"] = "NotFound"
        else:
            objects[eff] += 1
            push_handle((pid, name), eff)
        event = {"op": op, "actor": pid, "name": name, "category": category}
        if create:
            event["scope"] = "Global" if global_scope else "Local"
        emit(event, expected)

    long_list = exact_host + [p + "*" for p in prefixes]
    out.long_list = long_list
    emit({"op": "load_long_list", "names": long_list}, {"loaded": len(long_list)})
    for vm in range(1, VM_COUNT + 1):
        emit({"op": "vm_create", "ip": alias_ip(vm)}, {"vm": vm})
    for pid in (HOST_PID,) + VM_PIDS:
        emit({"op": "spawn", "vm": vm_of(pid)}, {"pid": pid})
    for pid in (HOST_PID,) + VM_PIDS:
        for cls in rng.sample(WINDOW_CLASSES, 2):
            windows.add((cls, vm_of(pid)))
            emit({"op": "register_window", "actor": pid, "class_name": cls}, {})
    for name in host_names:
        name_op("create", HOST_PID, name)

    seal_index = events // 2
    for index in range(events):
        if index == seal_index:
            model.sealed = True
            out.seal_at = len(out.calls)
            emit({"op": "seal"}, {})
        draw = rng.random()
        op = next(o for bound, o in _REPLAY_MIX if draw < bound)
        if op == "close" and not open_keys:
            op = "open"
        if op in ("create", "open"):
            pid = HOST_PID if rng.random() < REPLAY_HOST_ACTOR else rng.choice(VM_PIDS)
            names = pool if model.sealed or pid == HOST_PID else early_pool
            global_scope = op == "create" and rng.random() < REPLAY_GLOBAL_CREATE
            name_op(op, pid, rng.choice(names), global_scope)
        elif op == "close":
            key = rng.choice(open_keys)
            eff = pop_handle(key)
            objects[eff] -= 1
            if objects[eff] == 0:
                del objects[eff]
            emit({"op": "close", "actor": key[0], "name": key[1]}, {})
        elif op == "send":
            pid = HOST_PID if rng.random() < REPLAY_HOST_ACTOR else rng.choice(VM_PIDS)
            target = rng.randint(1, VM_PIDS[-1])
            same = vm_of(pid) == vm_of(target)
            emit({"op": "send", "actor": pid, "target": target, "payload": f"m{index}"},
                 {"decision": "Allow" if same else "Deny",
                  "delivery": "Delivered" if same else "Blocked"})
        elif op == "remote_thread":
            pid = rng.choice(VM_PIDS)
            target = rng.randint(1, VM_PIDS[-1])
            same = vm_of(pid) == vm_of(target)
            emit({"op": "remote_thread", "actor": pid, "target": target},
                 {"decision": "Allow" if same else "Deny",
                  "reason": "SameVm" if same else "CrossVm"})
        elif op == "find_window":
            pid = rng.choice(VM_PIDS)
            cls = rng.choice(WINDOW_CLASSES)
            found = (cls, vm_of(pid)) in windows
            emit({"op": "find_window", "actor": pid, "class_name": cls},
                 {"found": found, "decision": "Allow" if found else "Deny"})
        elif op == "set_hook":
            pid = rng.choice(VM_PIDS)
            scope = rng.choice(("SystemWide", "OwnVm"))
            emit({"op": "set_hook", "actor": pid, "hook_scope": scope},
                 {"decision": "Allow", "effective_vm": vm_of(pid),
                  "narrowed": scope == "SystemWide"})
        else:  # bind
            pid = rng.choice(VM_PIDS)
            port = rng.randrange(1024, 49152)
            key = (alias_ip(vm_of(pid)), port)
            if key in bindings:
                expected = {"error": "AddressInUse"}
            else:
                bindings.add(key)
                expected = {"effective_ip": key[0], "effective_port": port}
            emit({"op": "bind", "actor": pid, "ip": "0.0.0.0", "port": port}, expected)
    return out


# ---------------------------------------------------------------------------
# host-object table and resolve streams
# ---------------------------------------------------------------------------

TABLE_EXACT = 100_000
TABLE_PATTERNS = 256
SWEEP_SMALL_LIST = 1_000
SWEEP_FEW_PATTERNS = 16
SEALED_STREAM = 200_000
WARM_HOST = 64
WARM_INSTANCES = 16
GLOBALS_PER_VM = 32
PRIVATE_POOL = 20_000

_DIRS = ("\\RPC Control", "\\BaseNamedObjects", "\\Device\\NamedPipe", "\\Sessions\\1")

# stream kinds; each maps to one decision step of the engine
SHORT, GLOBAL, COLD, PRIVATE, HOST = (
    "short_hit", "global_hit", "cold_long", "private_miss", "host_bypass")


def table_exact(count: int = TABLE_EXACT) -> list[str]:
    return [f"{_DIRS[i % len(_DIRS)]}\\hostobj-{i:06d}" for i in range(count)]


def table_prefixes(count: int = TABLE_PATTERNS) -> list[str]:
    return [f"\\Device\\NamedPipe\\pool{k:03d}_" for k in range(count)]


def long_list(exact, prefixes) -> list[str]:
    return list(exact) + [p + "*" for p in prefixes]


class ResolveInput:
    """A resolve stream: ``calls[i] = (pid, name, category, create)`` with
    all creates local, ``routes[i] = (route, effective_name)``, ``kinds[i]``
    the stream kind, and ``warm`` the calls made during set-up (as
    ``(pid, name, category, create, global_scope)``) before the seal."""

    def __init__(self):
        self.warm: list[tuple] = []
        self.calls: list[tuple] = []
        self.routes: list[tuple] = []
        self.kinds: list[str] = []


def _private_name(j: int) -> str:
    return f"\\app\\private-{j:05d}"


def sealed_input(seed: int, count: int = SEALED_STREAM) -> ResolveInput:
    """Warm-up of 64 host names, 16 pattern instances and 32 global names
    per VM, then a post-seal stream of short hits, global hits, cold
    long-list names, private misses and host-caller bypasses.

    Warm host names come from the first 1 000 table entries, so the same
    warm-up and stream run unchanged on the 1k-entry sweep table.
    """
    rng = random.Random(seed)
    out = ResolveInput()
    exact = table_exact()
    prefixes = table_prefixes()
    warm_idx = rng.sample(range(SWEEP_SMALL_LIST), WARM_HOST)
    short = [exact[i] for i in warm_idx]
    short += [f"{prefixes[k]}{rng.randrange(10_000)}"
              for k in rng.sample(range(TABLE_PATTERNS), WARM_INSTANCES)]
    globals_ = [f"\\Sessions\\shared-{j:02d}" for j in range(GLOBALS_PER_VM)]
    category = {name: rng.choice(CATEGORIES) for name in short + globals_}
    for name in short:
        out.warm.append((rng.choice(VM_PIDS), name, category[name], False, False))
    for vm in range(1, VM_COUNT + 1):
        for name in globals_:
            out.warm.append((VM_PIDS[vm - 1], name, category[name], True, True))
    warm = set(warm_idx)

    mix = ((0.35, SHORT), (0.55, GLOBAL), (0.70, COLD), (0.85, PRIVATE), (1.00, HOST))
    for _ in range(count):
        draw = rng.random()
        kind = next(k for bound, k in mix if draw < bound)
        pid = rng.choice(VM_PIDS)
        if kind == SHORT:
            name = rng.choice(short)
            route = (PASSTHROUGH, name)
        elif kind == GLOBAL:
            name = rng.choice(globals_)
            route = (VM_GLOBAL, renamed(name, vm_of(pid)))
        elif kind in (COLD, PRIVATE):
            if kind == COLD:
                i = rng.randrange(TABLE_EXACT)
                while i in warm:
                    i = rng.randrange(TABLE_EXACT)
                name = exact[i]
            else:
                name = _private_name(rng.randrange(PRIVATE_POOL))
            route = (VM_PRIVATE, renamed(name, vm_of(pid)))
        else:
            pid = HOST_PID
            name = rng.choice((rng.choice(short), rng.choice(globals_),
                               exact[rng.randrange(TABLE_EXACT)],
                               _private_name(rng.randrange(PRIVATE_POOL))))
            route = (PASSTHROUGH, name)
        cat = category.get(name) or rng.choice(CATEGORIES)
        out.calls.append((pid, name, cat, rng.random() < 0.2))
        out.routes.append(route)
        out.kinds.append(kind)
    return out


def private_misses(seed: int, count: int) -> list[tuple]:
    """``count`` calls ``(pid, name, category, create)`` from VM processes on
    private names, none of them on the long list: on an unsealed engine each
    one scans every pattern."""
    rng = random.Random(seed)
    return [(rng.choice(VM_PIDS), _private_name(rng.randrange(PRIVATE_POOL)),
             rng.choice(CATEGORIES), rng.random() < 0.2) for _ in range(count)]


def counter_deltas(kinds) -> dict[str, int]:
    """Engine counter increments that sealed-stream calls of these kinds make;
    cold and private names are skipped, so the long list is never read."""
    counter_of = {
        SHORT: "short_hits", GLOBAL: "global_table_hits", COLD: "post_seal_long_skips",
        PRIVATE: "post_seal_long_skips", HOST: "host_bypass",
    }
    deltas = dict.fromkeys(("short_hits", "long_hits", "long_misses", "global_table_hits",
                            "post_seal_long_skips", "host_bypass", "long_list_reads"), 0)
    for kind in kinds:
        deltas[counter_of[kind]] += 1
    return deltas
