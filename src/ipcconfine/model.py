"""Identity and naming substrate: VMs, processes, object names, IPC categories.

Object names use the Windows object-manager style: backslash-separated
components, always beginning with a backslash (e.g. ``\\RPC Control\\epmapper``).
Each VM gets a disjoint view of that namespace through :func:`rename`, which
prefixes names with a per-VM tag component (``\\vm1\\RPC Control\\epmapper``).
The host context (VM id 0) is never renamed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    DuplicateAlias,
    HostRenameForbidden,
    InvalidName,
    UnknownProcess,
    UnknownVm,
)

__all__ = [
    "VmId",
    "HOST",
    "ProcessRef",
    "IpcGroup",
    "IpcCategory",
    "Scope",
    "Intent",
    "DIGITS",
    "is_ascii_digits",
    "check_object_name",
    "rename",
    "rename_unchecked",
    "unrename",
    "is_global_name",
    "VmRegistry",
]

SEP = "\\"
TAG_START = SEP + "vm"  # how every name with a ``vm<digits>`` first component starts
_EMPTY_COMPONENT = SEP + SEP
_SEP_STAR = SEP + "*"

# The one definition of a digit for pattern suffixes and ``vm<digits>`` tags:
# ``str.isdigit`` alone also accepts digits such as ``'²'``.
DIGITS = "0123456789"


def is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of the characters in :data:`DIGITS`."""
    return text.isascii() and text.isdigit()


def _is_reserved_component(component: str) -> bool:
    """True if a path component collides with the rename image space."""
    return component.startswith("vm") and is_ascii_digits(component[2:])


@dataclass(frozen=True)
class VmId:
    """Identity of an execution context. Id 0 is the host; VMs have id >= 1."""

    id: int

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("VmId must be non-negative")

    @property
    def is_host(self) -> bool:
        return self.id == 0

    def __str__(self) -> str:
        return "host" if self.id == 0 else f"vm{self.id}"


HOST = VmId(0)


@dataclass(frozen=True)
class ProcessRef:
    """A simulated process: system-wide unique pid pinned to one VM for life."""

    pid: int
    vm: VmId

    def __str__(self) -> str:
        return f"pid{self.pid}@{self.vm}"


class IpcGroup(Enum):
    """The seven mechanism groups IPC operations fall into.

    Groups I-IV address objects by name and are confined by renaming;
    groups V and VII address processes and are confined by allow/deny
    decisions; group VI, sockets, is confined by IP aliasing.
    """

    PORT = "I_Port"
    PSEUDO_FILE = "II_PseudoFile"
    SHARED_MEMORY = "III_SharedMemory"
    SYNC = "IV_Sync"
    MESSAGE = "V_Message"
    SOCKET = "VI_Socket"
    DANGEROUS = "VII_Dangerous"

    @property
    def name_addressed(self) -> bool:
        return self in _NAME_ADDRESSED


_NAME_ADDRESSED = {
    IpcGroup.PORT,
    IpcGroup.PSEUDO_FILE,
    IpcGroup.SHARED_MEMORY,
    IpcGroup.SYNC,
}


@dataclass(frozen=True)
class IpcCategory:
    """Group plus a free-form subtype label (e.g. IV_Sync:Mutex)."""

    group: IpcGroup
    subtype: str = ""

    # derived from ``group`` once, so ``resolve`` reads a plain attribute
    name_addressed: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "name_addressed", self.group.name_addressed)

    def __str__(self) -> str:
        return f"{self.group.value}:{self.subtype}" if self.subtype else self.group.value

    @classmethod
    def parse(cls, text: str) -> "IpcCategory":
        group_text, _, subtype = text.partition(":")
        try:
            group = IpcGroup(group_text)
        except ValueError:
            raise ValueError(f"unknown IPC group {group_text!r}") from None
        return cls(group, subtype)


# Convenience instances for the common category spellings.
PORT = IpcCategory(IpcGroup.PORT)
PSEUDO_FILE = IpcCategory(IpcGroup.PSEUDO_FILE)
SHARED_MEMORY = IpcCategory(IpcGroup.SHARED_MEMORY)
SYNC = IpcCategory(IpcGroup.SYNC)
MESSAGE = IpcCategory(IpcGroup.MESSAGE)


class Scope(Enum):
    """Visibility declared at object creation; only groups I-IV carry one."""

    LOCAL = "Local"
    GLOBAL = "Global"


class Intent(Enum):
    CREATE = "Create"
    OPEN = "Open"


def check_object_name(name: str, allow_pattern: bool = False) -> str:
    """Validate an original object name and return it unchanged.

    A valid name starts with the separator, has no empty components and no
    trailing separator. ``allow_pattern`` additionally permits a single
    trailing ``*`` (host-list entries matching an arbitrary decimal suffix);
    plain object names never contain ``*``. Its first component is no
    ``vm<digits>`` tag: such a name would alias a VM's renamed copy.
    """
    if not isinstance(name, str) or not name.startswith(SEP):
        raise InvalidName(f"object name must start with {SEP!r}: {name!r}")
    if len(name) == 1:
        raise InvalidName(f"object name has no components: {name!r}")
    if _EMPTY_COMPONENT in name or name[-1] == SEP:
        raise InvalidName(f"empty component or trailing separator: {name!r}")
    if "*" in name and (not allow_pattern or name.count("*") > 1 or name[-1] != "*"
                        or name.endswith(_SEP_STAR)):
        raise InvalidName(f"'*' only allowed as a trailing suffix pattern: {name!r}")
    if name.startswith(TAG_START) and _is_reserved_component(name[1:].partition(SEP)[0]):
        raise InvalidName(f"reserved vm-prefix name {name!r}")
    return name


def rename(name: str, vm: VmId) -> str:
    """Prefix ``name`` with the VM's tag component.

    Deterministic and injective per VM; images for distinct VMs are disjoint,
    and disjoint from original names, since :func:`check_object_name` rejects
    an original that starts with a ``vm<digits>`` component. Host names are
    never renamed.
    """
    if vm.is_host:
        raise HostRenameForbidden("host (vm 0) names are never renamed")
    check_object_name(name)
    return rename_unchecked(name, vm)


def rename_unchecked(name: str, vm: VmId) -> str:
    """:func:`rename` without its checks, for callers that have already
    validated ``name`` and know ``vm`` is not the host."""
    return f"{TAG_START}{vm.id}{name}"


def unrename(effective: str) -> tuple[VmId, str] | None:
    """Invert :func:`rename`: (vm, original) if ``effective`` carries a tag
    that ``rename`` makes, ``vm`` and a VM id with no leading zero."""
    if not effective.startswith(SEP):
        return None
    first, sep, rest = effective[1:].partition(SEP)
    if sep and _is_reserved_component(first) and first[2] != "0":
        return VmId(int(first[2:])), SEP + rest
    return None


_GLOBAL = Scope.GLOBAL
_GLOBAL_COMPONENT = SEP + "Global" + SEP


def is_global_name(name: str, declared_scope: Scope) -> bool:
    """Global if declared so, or if any path component is literally "Global".

    For a valid name (leading separator, no empty component) that is one
    substring test: with a separator appended, every component is enclosed
    by separators.
    """
    return declared_scope is _GLOBAL or _GLOBAL_COMPONENT in name + SEP


class VmRegistry:
    """Allocates VM ids and pids; tracks alias IPs and live processes.

    A new id is its table's size plus one, which never repeats an id, as
    nothing removes a VM or a process. Allocation is linearizable: a lock
    makes each create/spawn atomic, so concurrent callers observe a total
    order with unique, monotonically increasing ids.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._aliases: dict[VmId, str] = {}
        self._by_alias: dict[str, VmId] = {}
        self._processes: dict[int, ProcessRef] = {}

    def vm_create(self, alias_ip: str) -> VmId:
        if not alias_ip or not isinstance(alias_ip, str):
            raise DuplicateAlias("alias IP must be a non-empty string")
        with self._lock:
            if alias_ip in self._by_alias:
                raise DuplicateAlias(f"alias {alias_ip} already assigned to {self._by_alias[alias_ip]}")
            vm = VmId(len(self._aliases) + 1)
            self._aliases[vm] = alias_ip
            self._by_alias[alias_ip] = vm
            return vm

    def process_spawn(self, vm: VmId) -> ProcessRef:
        with self._lock:
            if not vm.is_host and vm not in self._aliases:
                raise UnknownVm(f"no such VM: {vm}")
            proc = ProcessRef(len(self._processes) + 1, vm)
            self._processes[proc.pid] = proc
            return proc

    def alias_of(self, vm: VmId) -> str:
        if vm not in self._aliases:
            raise UnknownVm(f"no such VM: {vm}")
        return self._aliases[vm]

    def process(self, pid: int) -> ProcessRef:
        try:
            return self._processes[pid]
        except KeyError:
            raise UnknownProcess(f"no such pid: {pid}") from None
