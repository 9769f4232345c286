"""Simulated kernel: named objects, messages, windows, dangerous calls, sockets."""

import pytest

from ipcconfine import ConfinementEngine, SimKernel, errors
from ipcconfine.engine import Principle, ResolveOutcome, Route
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
from ipcconfine.kernel import Delivery, HookScope
from ipcconfine.model import (
    HOST,
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
    def test_create_open_close_refcounts(self, kernel, vm1_proc):
        handle = kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert handle.object.refcount == 1
        assert handle.outcome.effective_name == r"\vm1\app\x"
        second = kernel.open_object(vm1_proc, r"\app\x", PORT)
        assert second.object is handle.object
        assert handle.object.refcount == 2
        assert kernel.live_handle_count(handle.object) == 2
        kernel.close(second)
        assert handle.object.refcount == 1
        kernel.close(handle)
        assert r"\vm1\app\x" not in kernel.objects()
        with pytest.raises(NotFound):
            kernel.open_object(vm1_proc, r"\app\x", PORT)

    def test_double_close_rejected(self, kernel, vm1_proc):
        handle = kernel.create_object(vm1_proc, r"\app\x", PORT)
        second = kernel.open_object(vm1_proc, r"\app\x", PORT)
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
        mine = kernel.create_object(vm1_proc, r"\app\x", PORT)
        foreign = other.create_object(vm1_proc, r"\app\x", PORT)
        assert foreign.id == mine.id  # each kernel counts its own ids
        with pytest.raises(InvalidHandle):
            kernel.close(foreign)
        assert kernel.live_handle_count(mine.object) == 1
        assert other.live_handle_count(foreign.object) == 1
        kernel.close(mine)
        other.close(foreign)

    def test_duplicate_create_same_vm(self, kernel, vm1_proc):
        kernel.create_object(vm1_proc, r"\app\x", PORT)
        with pytest.raises(AlreadyExists) as exc:
            kernel.create_object(vm1_proc, r"\app\x", PORT)
        assert exc.value.outcome.effective_name == r"\vm1\app\x"

    def test_same_name_coexists_across_contexts(self, kernel, host_proc,
                                                 vm1_proc, vm2_proc):
        # one original name, three distinct objects
        kernel.create_object(host_proc, r"\app\x", PORT)
        kernel.create_object(vm1_proc, r"\app\x", PORT)
        kernel.create_object(vm2_proc, r"\app\x", PORT)
        assert set(kernel.objects()) == {r"\app\x", r"\vm1\app\x", r"\vm2\app\x"}

    def test_host_cannot_plant_a_vm_object(self, kernel, host_proc, vm1_proc):
        # \vm1\secret is where vm1's own \secret lives
        with pytest.raises(InvalidName, match="reserved"):
            kernel.create_object(host_proc, r"\vm1\secret", PORT)
        with pytest.raises(NotFound):
            kernel.open_object(vm1_proc, r"\secret", PORT)
        with pytest.raises(InvalidName, match="reserved"):
            kernel.open_object(host_proc, r"\vm1\secret", PORT)

    def test_vm_opens_its_own_copy(self, kernel, host_proc, vm1_proc):
        kernel.create_object(host_proc, r"\app\x", PORT)
        kernel.create_object(vm1_proc, r"\app\x", PORT)
        opened = kernel.open_object(vm1_proc, r"\app\x", PORT)
        assert opened.object.creator is vm1_proc

    def test_vm_opens_listed_host_object(self, kernel, host_proc, vm1_proc):
        kernel.create_object(host_proc, r"\srv\alpha", PORT)
        opened = kernel.open_object(vm1_proc, r"\srv\alpha", PORT)
        assert opened.object.creator is host_proc
        assert opened.outcome.route.value == "HostPassthrough"

    def test_cross_vm_private_object_unreachable(self, kernel, vm1_proc, vm2_proc):
        kernel.create_object(vm1_proc, r"\app\secret", PORT)
        with pytest.raises(NotFound) as exc:
            kernel.open_object(vm2_proc, r"\app\secret", PORT)
        assert exc.value.outcome.effective_name == r"\vm2\app\secret"

    def test_category_group_mismatch(self, kernel, vm1_proc):
        kernel.create_object(vm1_proc, r"\app\x", PORT)
        with pytest.raises(CategoryMismatch):
            kernel.open_object(vm1_proc, r"\app\x", PSEUDO_FILE)
        with pytest.raises(CategoryMismatch):
            kernel.create_object(vm1_proc, r"\app\x", SHARED_MEMORY)

    def test_subtypes_within_group_interchange(self, kernel, vm1_proc):
        mutex = IpcCategory(IpcGroup.SYNC, "Mutex")
        kernel.create_object(vm1_proc, r"\app\m", mutex)
        opened = kernel.open_object(vm1_proc, r"\app\m", SYNC)
        assert opened.object.category == mutex

    def test_not_found_carries_outcome(self, kernel, vm1_proc):
        with pytest.raises(NotFound) as exc:
            kernel.open_object(vm1_proc, r"\app\ghost", PORT)
        assert exc.value.outcome.route.value == "VmPrivate"

    def test_unknown_process_rejected(self, kernel):
        ghost = ProcessRef(999, VmId(1))
        with pytest.raises(UnknownProcess):
            kernel.create_object(ghost, r"\app\x", PORT)


class TestMessages:
    def test_same_vm_delivery_fifo(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        assert kernel.send_message(vm1_proc, peer, "WindowsMessage", b"a") is Delivery.DELIVERED
        assert kernel.send_message(vm1_proc, peer, "Clipboard", b"b") is Delivery.DELIVERED
        assert kernel.inbox(peer) == [
            (vm1_proc.pid, "WindowsMessage", b"a"),
            (vm1_proc.pid, "Clipboard", b"b"),
        ]

    def test_cross_vm_blocked(self, kernel, vm1_proc, vm2_proc):
        assert kernel.send_message(vm1_proc, vm2_proc) is Delivery.BLOCKED
        assert kernel.inbox(vm2_proc) == []
        assert kernel.engine.counters.denials == 1

    def test_host_border_blocked_both_ways(self, kernel, host_proc, vm1_proc):
        assert kernel.send_message(vm1_proc, host_proc) is Delivery.BLOCKED
        assert kernel.send_message(host_proc, vm1_proc) is Delivery.BLOCKED

    def test_host_to_host_delivered(self, kernel, registry, host_proc):
        other = registry.process_spawn(HOST)
        assert kernel.send_message(host_proc, other) is Delivery.DELIVERED


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

    def test_enumerate_windows_same_vm_only(self, kernel, vm1_proc, vm2_proc):
        kernel.register_window(vm1_proc, "A")
        kernel.register_window(vm2_proc, "B")
        assert [w.class_name for w in kernel.enumerate_windows(vm1_proc)] == ["A"]


class TestDangerousCalls:
    def test_remote_thread_same_vm(self, kernel, registry, vm1_proc):
        peer = registry.process_spawn(VmId(1))
        assert kernel.create_remote_thread(vm1_proc, peer).allowed

    def test_remote_thread_cross_vm_denied(self, kernel, host_proc, vm1_proc, vm2_proc):
        assert not kernel.create_remote_thread(vm1_proc, vm2_proc).allowed
        assert not kernel.create_remote_thread(vm1_proc, host_proc).allowed
        assert not kernel.create_remote_thread(host_proc, vm1_proc).allowed

    def test_system_wide_hook_narrowed(self, kernel, vm1_proc):
        grant = kernel.set_hook(vm1_proc, HookScope.SYSTEM_WIDE)
        assert grant.narrowed
        assert grant.effective_vm == VmId(1)
        assert grant.requested is HookScope.SYSTEM_WIDE

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
        assert binding.requested == ("0.0.0.0", 80)
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

    @pytest.mark.parametrize("port", [0, 65536, -1, "80"])
    def test_invalid_port(self, kernel, vm1_proc, port):
        with pytest.raises(InvalidPort):
            kernel.bind_socket(vm1_proc, "0.0.0.0", port)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


class TestErrors:
    """A failed create or open raises one KernelError per call; its text,
    arguments and code are those of a plain exception with one message."""

    OUTCOME = ResolveOutcome(r"\vm1\app\a", Route.VM_PRIVATE, Principle.ISOLATION)

    @pytest.mark.parametrize("cls", [KernelError, *subclasses(KernelError)],
                             ids=lambda cls: cls.__name__)
    @pytest.mark.parametrize("how", ["keyword", "positional", "bare"])
    def test_kernel_error_fields(self, cls, how):
        if how == "keyword":
            exc, message, outcome = cls("msg", outcome=self.OUTCOME), "msg", self.OUTCOME
        elif how == "positional":
            exc, message, outcome = cls("msg", self.OUTCOME), "msg", self.OUTCOME
        else:
            exc, message, outcome = cls(), "", None
        assert str(exc) == message
        assert exc.args == (message,)
        assert repr(exc) == f"{cls.__name__}({message!r})"
        assert exc.outcome is outcome
        assert exc.code == cls.__name__

    def test_every_code_is_the_class_name(self):
        classes = [value for value in vars(errors).values()
                   if isinstance(value, type) and issubclass(value, ConfinementError)]
        assert {ConfinementError, KernelError, NotFound} <= set(classes)
        for cls in classes:
            assert cls.code == cls.__name__
        assert errors.ParseError(3, "bad").code == "ParseError"
