"""Simulated kernel: named objects, messages, windows, dangerous calls, sockets."""

import inspect

import pytest

from ipcconfine import ConfinementEngine, SimKernel, errors
from ipcconfine.engine import ResolveOutcome, Route
from ipcconfine.errors import (
    AddressInUse,
    AlreadyExists,
    CategoryMismatch,
    ConfinementError,
    InvalidHandle,
    InvalidName,
    InvalidPort,
    KernelError,
    NotFound,
    UnknownProcess,
)
from ipcconfine.kernel import Handle, HookScope
from ipcconfine.model import (
    HOST,
    Intent,
    IpcCategory,
    IpcGroup,
    PORT,
    PSEUDO_FILE,
    ProcessRef,
    Scope,
    SHARED_MEMORY,
    SYNC,
    VmId,
)


class TestNamedObjects:
    """``create_object`` and ``open_object`` return ``(handle, outcome)``,
    or a failure's error class with the outcome; only engine and caller
    errors raise."""

    def test_create_open_close_refcounts(self, kernel, vm1_proc):
        handle, outcome = kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert handle.outcome is outcome
        assert handle.object.refcount == 1
        assert handle.outcome.effective_name == r"\vm1\app\x"
        second, _ = kernel.open_object(vm1_proc, r"\app\x", PORT)
        assert second.object is handle.object
        assert handle.object.refcount == 2
        assert kernel.live_handle_count(handle.object) == 2
        kernel.close(second)
        assert handle.object.refcount == 1
        kernel.close(handle)
        assert r"\vm1\app\x" not in kernel.objects()
        assert kernel.open_object(vm1_proc, r"\app\x", PORT) == (NotFound, outcome)

    def test_double_close_rejected(self, kernel, vm1_proc):
        handle, _ = kernel.create_object(vm1_proc, r"\app\x", PORT)
        second, _ = kernel.open_object(vm1_proc, r"\app\x", PORT)
        kernel.close(handle)
        with pytest.raises(InvalidHandle):
            kernel.close(handle)
        # the failed close touched neither the record nor the other handle
        assert handle.object.refcount == 1
        assert kernel.live_handle_count(handle.object) == 1
        kernel.close(second)
        assert kernel.live_handle_count(handle.object) == 0

    def test_handle_of_another_kernel_rejected(self, registry, kernel, vm1_proc):
        other_engine = ConfinementEngine()
        other_engine.load_long_list([])
        other = SimKernel(registry, other_engine)
        mine, _ = kernel.create_object(vm1_proc, r"\app\x", PORT)
        foreign, _ = other.create_object(vm1_proc, r"\app\x", PORT)
        assert foreign.id == mine.id  # each kernel counts its own ids
        with pytest.raises(InvalidHandle):
            kernel.close(foreign)
        assert kernel.live_handle_count(mine.object) == 1
        assert other.live_handle_count(foreign.object) == 1
        kernel.close(mine)
        other.close(foreign)

    def test_duplicate_create_same_vm(self, kernel, vm1_proc):
        handle, _ = kernel.create_object(vm1_proc, r"\app\x", PORT)
        failed, outcome = kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert failed is AlreadyExists
        assert outcome.effective_name == r"\vm1\app\x"
        assert handle.object.refcount == 1

    def test_same_name_coexists_across_contexts(self, kernel, host_proc,
                                                 vm1_proc, vm2_proc):
        # one original name, three distinct objects
        for proc in (host_proc, vm1_proc, vm2_proc):
            assert type(kernel.create_object(proc, r"\app\x", PORT)[0]) is Handle
        assert set(kernel.objects()) == {r"\app\x", r"\vm1\app\x", r"\vm2\app\x"}

    def test_host_cannot_plant_a_vm_object(self, kernel, host_proc, vm1_proc):
        # \vm1\secret is where vm1's own \secret lives
        with pytest.raises(InvalidName, match="reserved"):
            kernel.create_object(host_proc, r"\vm1\secret", PORT)
        assert kernel.objects() == {}
        assert kernel.open_object(vm1_proc, r"\secret", PORT)[0] is NotFound
        with pytest.raises(InvalidName, match="reserved"):
            kernel.open_object(host_proc, r"\vm1\secret", PORT)

    def test_vm_opens_its_own_copy(self, kernel, host_proc, vm1_proc):
        kernel.create_object(host_proc, r"\app\x", PORT)
        kernel.create_object(vm1_proc, r"\app\x", PORT)
        opened, _ = kernel.open_object(vm1_proc, r"\app\x", PORT)
        assert opened.object.creator is vm1_proc

    def test_vm_opens_listed_host_object(self, kernel, host_proc, vm1_proc):
        kernel.create_object(host_proc, r"\srv\alpha", PORT)
        opened, outcome = kernel.open_object(vm1_proc, r"\srv\alpha", PORT)
        assert opened.object.creator is host_proc
        assert outcome.route.value == "HostPassthrough"

    def test_cross_vm_private_object_unreachable(self, kernel, vm1_proc, vm2_proc):
        kernel.create_object(vm1_proc, r"\app\secret", PORT)
        failed, outcome = kernel.open_object(vm2_proc, r"\app\secret", PORT)
        assert failed is NotFound
        assert outcome.effective_name == r"\vm2\app\secret"

    def test_category_group_mismatch(self, kernel, vm1_proc):
        handle, outcome = kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert kernel.open_object(vm1_proc, r"\app\x", PSEUDO_FILE) == (CategoryMismatch, outcome)
        assert kernel.create_object(vm1_proc, r"\app\x", SHARED_MEMORY) == (CategoryMismatch,
                                                                          outcome)
        assert kernel.objects()[r"\vm1\app\x"].category == PORT

    def test_failure_returns_class_and_changes_nothing(self, kernel, vm1_proc):
        """Each failure returns its error class with the outcome and changes
        no object or handle; a success returns the handle with its own
        outcome."""
        handle, outcome = kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert handle.outcome is outcome and handle.object.refcount == 1
        failures = [
            (kernel.create_object, PORT, AlreadyExists),
            (kernel.create_object, SHARED_MEMORY, CategoryMismatch),
            (kernel.open_object, PSEUDO_FILE, CategoryMismatch),
        ]
        for op, category, cls in failures:
            before = (kernel.objects(), dict(kernel._handles))
            assert op(vm1_proc, r"\app\x", category) == (cls, outcome)
            assert (kernel.objects(), dict(kernel._handles)) == before
        assert handle.object.refcount == 1
        before = kernel.objects()
        assert kernel.open_object(vm1_proc, r"\app\ghost", PORT)[0] is NotFound
        assert kernel.objects() == before and len(kernel._handles) == 1
        opened, again = kernel.open_object(vm1_proc, r"\app\x", PORT)
        assert again == outcome and opened.object is handle.object
        assert kernel.live_handle_count(handle.object) == 2

    def test_subtypes_within_group_interchange(self, kernel, vm1_proc):
        mutex = IpcCategory(IpcGroup.SYNC, "Mutex")
        kernel.create_object(vm1_proc, r"\app\m", mutex)
        opened, _ = kernel.open_object(vm1_proc, r"\app\m", SYNC)
        assert opened.object.category == mutex

    def test_not_found_carries_outcome(self, kernel, vm1_proc):
        failed, outcome = kernel.open_object(vm1_proc, r"\app\ghost", PORT)
        assert failed is NotFound
        assert outcome.route.value == "VmPrivate"

    def test_unknown_process_rejected(self, kernel):
        ghost = ProcessRef(999, VmId(1))
        with pytest.raises(UnknownProcess):
            kernel.create_object(ghost, r"\app\x", PORT)


class TestMessages:
    """A message is decided by the engine and stored nowhere: the op
    returns the decision."""

    def test_same_vm_delivered(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        assert kernel.send_message(vm1_proc, peer) is True
        assert kernel.send_message(peer, vm1_proc) is True
        assert kernel.send_message(vm1_proc, vm1_proc) is True
        assert kernel.engine.counters.denials == 0

    def test_cross_vm_blocked(self, kernel, vm1_proc, vm2_proc):
        assert kernel.send_message(vm1_proc, vm2_proc) is False
        assert kernel.engine.counters.denials == 1

    def test_host_border_blocked_both_ways(self, kernel, host_proc, vm1_proc):
        assert kernel.send_message(vm1_proc, host_proc) is False
        assert kernel.send_message(host_proc, vm1_proc) is False

    def test_host_to_host_delivered(self, kernel, registry, host_proc):
        other = registry.process_spawn(HOST)
        assert kernel.send_message(host_proc, other) is True


class TestWindows:
    def test_find_window_scoped_to_vm(self, kernel, registry, vm1_proc, vm2_proc):
        kernel.register_window(vm1_proc, "Shell_TrayWnd")
        kernel.register_window(vm2_proc, "Shell_TrayWnd")
        found = kernel.find_window(vm1_proc, "Shell_TrayWnd")
        assert found.owner is vm1_proc
        peer = registry.process_spawn(VmId(1))
        assert kernel.find_window(peer, "Shell_TrayWnd").owner is vm1_proc

    def test_find_window_invisible_across_border(self, kernel, host_proc,
                                                  vm1_proc, vm2_proc):
        kernel.register_window(vm1_proc, "OnlyInVm1")
        assert kernel.find_window(vm2_proc, "OnlyInVm1") is None
        assert kernel.find_window(host_proc, "OnlyInVm1") is None

    def test_registration_order_wins(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        kernel.register_window(vm1_proc, "W")
        kernel.register_window(peer, "W")
        assert kernel.find_window(vm1_proc, "W").owner is vm1_proc

    def test_find_window_matches_class_in_one_list(self, kernel, registry, vm1_proc):
        """A VM's windows of several classes share one list: a lookup finds
        the first window of the class asked for."""
        peer = registry.process_spawn(VmId(1))
        first_a = kernel.register_window(vm1_proc, "A")
        b = kernel.register_window(vm1_proc, "B")
        kernel.register_window(peer, "A")
        found = kernel.find_window(peer, "A")
        assert found is first_a and found.class_name == "A"
        assert kernel.find_window(vm1_proc, "B") is b
        assert kernel.find_window(peer, "C") is None


class TestDangerousCalls:
    def test_remote_thread_same_vm(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        assert kernel.create_remote_thread(vm1_proc, peer) is True

    def test_remote_thread_cross_vm_denied(self, kernel, host_proc, vm1_proc, vm2_proc):
        assert kernel.create_remote_thread(vm1_proc, vm2_proc) is False
        assert kernel.create_remote_thread(vm1_proc, host_proc) is False
        assert kernel.create_remote_thread(host_proc, vm1_proc) is False

    def test_system_wide_hook_narrowed(self, kernel, vm1_proc):
        grant = kernel.set_hook(vm1_proc, HookScope.SYSTEM_WIDE)
        assert grant.narrowed
        assert grant.effective_vm == VmId(1)

    def test_own_vm_hook_unchanged(self, kernel, vm1_proc):
        grant = kernel.set_hook(vm1_proc, HookScope.OWN_VM)
        assert not grant.narrowed
        assert grant.effective_vm == VmId(1)

    def test_host_hook_scoped_to_host(self, kernel, host_proc):
        grant = kernel.set_hook(host_proc, HookScope.SYSTEM_WIDE)
        assert grant.effective_vm == HOST


class TestSockets:
    def test_vm_bind_lands_on_alias(self, kernel, vm1_proc):
        binding = kernel.bind_socket(vm1_proc, "0.0.0.0", 80)
        assert binding.effective == ("10.0.0.2", 80)

    def test_same_port_across_vms(self, kernel, vm1_proc, vm2_proc, host_proc):
        kernel.bind_socket(vm1_proc, "0.0.0.0", 80)
        kernel.bind_socket(vm2_proc, "0.0.0.0", 80)
        kernel.bind_socket(host_proc, "192.168.1.1", 80)
        assert [b.effective[0] for b in kernel.bindings] == [
            "10.0.0.2", "10.0.0.3", "192.168.1.1"]

    def test_conflict_within_vm(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        kernel.bind_socket(vm1_proc, "0.0.0.0", 80)
        with pytest.raises(AddressInUse):
            kernel.bind_socket(peer, "127.0.0.1", 80)

    def test_conflict_with_host_on_alias_ip(self, kernel, host_proc, vm1_proc):
        kernel.bind_socket(host_proc, "10.0.0.2", 443)
        with pytest.raises(AddressInUse):
            kernel.bind_socket(vm1_proc, "0.0.0.0", 443)

    def test_host_binds_requested_ip(self, kernel, host_proc):
        binding = kernel.bind_socket(host_proc, "0.0.0.0", 8080)
        assert binding.effective == ("0.0.0.0", 8080)

    @pytest.mark.parametrize("port", [0, 65536, -1, "80", True, False])
    def test_invalid_port(self, kernel, vm1_proc, port):
        with pytest.raises(InvalidPort):
            kernel.bind_socket(vm1_proc, "0.0.0.0", port)


# every SimKernel op that takes a process, called with ``proc`` in each
# process position in turn and a registered ``peer`` in the other
CALLER_OPS = {
    "create_object": lambda k, proc, peer: k.create_object(proc, r"\app\new", PORT),
    "open_object": lambda k, proc, peer: k.open_object(proc, r"\app\secret", PORT),
    "send_message/sender": lambda k, proc, peer: k.send_message(proc, peer),
    "send_message/target": lambda k, proc, peer: k.send_message(peer, proc),
    "register_window": lambda k, proc, peer: k.register_window(proc, "W"),
    "find_window": lambda k, proc, peer: k.find_window(proc, "W"),
    "create_remote_thread/caller": lambda k, proc, peer: k.create_remote_thread(proc, peer),
    "create_remote_thread/target": lambda k, proc, peer: k.create_remote_thread(peer, proc),
    "set_hook": lambda k, proc, peer: k.set_hook(proc, HookScope.SYSTEM_WIDE),
    "bind_socket": lambda k, proc, peer: k.bind_socket(proc, "0.0.0.0", 80),
}


def kernel_state(kernel) -> tuple:
    """Everything a kernel op may change, in the kernel and its engine."""
    return (
        {name: (r.category, r.creator, r.refcount) for name, r in kernel.objects().items()},
        dict(kernel._handles),
        {vm: list(records) for vm, records in kernel._windows.items()},
        kernel.bindings,
        kernel.engine.snapshot(),
    )


class TestCallerCheck:
    """A ref that pairs a registered pid with another VM id, the host's
    included, is refused by every op before it touches any state; an
    equal copy of a registered ref is accepted."""

    def test_every_process_taking_op_is_covered(self):
        taking = {name for name, method in inspect.getmembers(SimKernel, inspect.isfunction)
                  if not name.startswith("_") and "ProcessRef" in
                  {p.annotation for p in inspect.signature(method).parameters.values()}}
        assert taking == {op.partition("/")[0] for op in CALLER_OPS}

    @pytest.mark.parametrize("op", CALLER_OPS)
    def test_relabelled_ref_refused(self, op, kernel, host_proc, vm1_proc, vm2_proc):
        kernel.create_object(vm2_proc, r"\app\secret", PORT)
        kernel.register_window(vm2_proc, "W")
        kernel.send_message(vm1_proc, vm1_proc)
        kernel.bind_socket(host_proc, "0.0.0.0", 80)
        kernel.engine.resolve(vm1_proc, r"\srv\alpha", PORT, Intent.OPEN)
        in_vm = {0: host_proc, 1: vm1_proc, 2: vm2_proc}
        before = kernel_state(kernel)
        for real in in_vm.values():
            for vm in (0, 1, 2, 3):
                if vm == real.vm.id:
                    continue
                forged = ProcessRef(real.pid, VmId(vm))
                with pytest.raises(UnknownProcess):
                    CALLER_OPS[op](kernel, forged, in_vm.get(vm, host_proc))
                assert kernel_state(kernel) == before, (real, forged)
        copy = ProcessRef(vm2_proc.pid, vm2_proc.vm)
        assert copy is not vm2_proc
        CALLER_OPS[op](kernel, copy, vm2_proc)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


class TestErrors:
    """A KernelError's text, arguments and repr are those of a plain
    exception made with the same arguments, and its code is its class
    name. It carries no resolve outcome: the kernel's cores return that
    with the error class."""

    OUTCOME = ResolveOutcome(r"\vm1\app\a", Route.VM_PRIVATE)

    @pytest.mark.parametrize("cls", [KernelError, *subclasses(KernelError)],
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("how", ["keyword", "positional", "bare"])
    def test_kernel_error_fields(self, cls, how):
        if how == "keyword":
            # the ``outcome=`` keyword is gone with the attribute
            with pytest.raises(TypeError):
                cls("msg", outcome=self.OUTCOME)
        args = () if how == "bare" else ("msg",)
        exc, plain = cls(*args), Exception(*args)
        assert str(exc) == str(plain)
        assert exc.args == plain.args == args
        assert repr(exc) == cls.__name__ + repr(plain).removeprefix("Exception")
        assert not hasattr(exc, "outcome")
        assert exc.code == cls.__name__

    def test_every_code_is_the_class_name(self):
        classes = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, ConfinementError)]
        assert {ConfinementError, KernelError, NotFound} <= set(classes)
        for cls in classes:
            assert cls.code == cls.__name__
        assert errors.ParseError(3, "bad").code == "ParseError"
