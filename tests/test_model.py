"""Names, renaming, categories, and the VM/process registry."""

import pytest
from hypothesis import given, strategies as st

from ipcconfine.errors import (
    DuplicateAlias,
    HostRenameForbidden,
    InvalidName,
    UnknownProcess,
    UnknownVm,
)
from ipcconfine.model import (
    HOST,
    Intent,
    IpcCategory,
    IpcGroup,
    ProcessRef,
    Scope,
    VmId,
    VmRegistry,
    check_object_name,
    check_unreserved,
    is_ascii_digits,
    is_global_name,
    rename,
    rename_unchecked,
    unrename,
)


class TestVmId:
    def test_host_identity(self):
        assert HOST.is_host
        assert int(HOST) == 0
        assert str(HOST) == "host"

    def test_vm_identity(self):
        vm = VmId(3)
        assert not vm.is_host
        assert str(vm) == "vm3"
        assert int(vm) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            VmId(-1)

    def test_process_ref_str(self):
        assert str(ProcessRef(7, VmId(2))) == "pid7@vm2"


class TestCategories:
    def test_name_addressed_groups(self):
        named = {IpcGroup.PORT, IpcGroup.PSEUDO_FILE, IpcGroup.SHARED_MEMORY, IpcGroup.SYNC}
        for group in IpcGroup:
            assert group.name_addressed == (group in named)

    def test_category_name_addressed_is_derived_not_compared(self):
        # a plain attribute set from the group, outside equality, hash, repr
        for group in IpcGroup:
            category = IpcCategory(group, "x")
            assert category.name_addressed == group.name_addressed
        a, b = IpcCategory(IpcGroup.SYNC, "Mutex"), IpcCategory.parse("IV_Sync:Mutex")
        assert a == b and hash(a) == hash(b)
        assert repr(a) == "IpcCategory(group=<IpcGroup.SYNC: 'IV_Sync'>, subtype='Mutex')"

    def test_parse_roundtrip(self):
        cat = IpcCategory.parse("IV_Sync:Mutex")
        assert cat.group is IpcGroup.SYNC
        assert cat.subtype == "Mutex"
        assert str(cat) == "IV_Sync:Mutex"
        assert IpcCategory.parse(str(cat)) == cat

    def test_parse_without_subtype(self):
        cat = IpcCategory.parse("I_Port")
        assert cat == IpcCategory(IpcGroup.PORT)
        assert str(cat) == "I_Port"

    def test_parse_unknown_group(self):
        with pytest.raises(ValueError):
            IpcCategory.parse("VIII_Other")


class TestObjectNames:
    @pytest.mark.parametrize("name", [
        r"\a",
        r"\RPC Control\epmapper",
        r"\BaseNamedObjects\Global\RotHintTable",
        r"\a\b\c d\e_f-g",
    ])
    def test_valid(self, name):
        assert check_object_name(name) == name

    @pytest.mark.parametrize("name", [
        "",
        "a",
        "epmapper",
        "\\",
        r"\a\\b",
        "\\a\\b\\",
        r"\a\b*",
        r"\a*b\c",
        123,
        None,
    ])
    def test_invalid(self, name):
        with pytest.raises(InvalidName):
            check_object_name(name)

    def test_pattern_allowed_only_when_asked(self):
        assert check_object_name(r"\pipe\Ctl*", allow_pattern=True)
        with pytest.raises(InvalidName):
            check_object_name(r"\pipe\Ctl*")

    def test_pattern_star_needs_prefix_in_component(self):
        # a bare-* component would match everything; reject it
        with pytest.raises(InvalidName):
            check_object_name("\\pipe\\*", allow_pattern=True)
        with pytest.raises(InvalidName):
            check_object_name(r"\pipe\a*b*", allow_pattern=True)

    @pytest.mark.parametrize("name,reserved", [
        (r"\vm1\a", True),
        (r"\vm42\x\y", True),
        (r"\vm\a", False),
        (r"\vmx\a", False),
        (r"\a\vm1", False),
        (r"\virtual\a", False),
        ("\\vm\u0661\\a", False),   # Arabic-Indic digit one
        ("\\vm\u00b2\\a", False),   # superscript two
    ])
    def test_reserved_prefix(self, name, reserved):
        if reserved:
            with pytest.raises(InvalidName, match="reserved"):
                check_unreserved(name)
        else:
            assert check_unreserved(name) == name

    @pytest.mark.parametrize("text,digits", [
        ("0", True),
        ("0123456789", True),
        ("", False),
        ("1a", False),
        ("\u00b2", False),
        ("1\u0661", False),
        ("\uff11", False),           # fullwidth digit one
    ])
    def test_ascii_digits(self, text, digits):
        assert is_ascii_digits(text) is digits


class TestRename:
    def test_rename_prefixes_tag(self):
        assert rename(r"\a\b", VmId(1)) == r"\vm1\a\b"
        assert rename(r"\RPC Control\epmapper", VmId(12)) == r"\vm12\RPC Control\epmapper"

    def test_host_never_renamed(self):
        with pytest.raises(HostRenameForbidden):
            rename(r"\a\b", HOST)

    def test_rename_validates_name(self):
        with pytest.raises(InvalidName):
            rename("a\\b", VmId(1))

    def test_unrename_inverse(self):
        assert unrename(r"\vm3\a\b") == (VmId(3), r"\a\b")
        assert unrename(r"\a\b") is None
        assert unrename(r"\vmx\a") is None
        assert unrename("plain") is None

    def test_unrename_needs_ascii_digits(self):
        assert unrename("\\vm\u0661\\x") is None
        assert unrename("\\vm\u00b2\\x") is None

    @pytest.mark.parametrize("effective", [r"\vm01\x", r"\vm0\x", r"\vm007\a\b"])
    def test_unrename_rejects_tags_rename_never_makes(self, effective):
        # rename writes a VM id >= 1 with no leading zero
        assert unrename(effective) is None

    def test_unrename_multi_digit_id(self):
        assert unrename(r"\vm10\x") == (VmId(10), r"\x")

    def test_unchecked_rename_matches_rename(self):
        assert rename_unchecked(r"\a\b", VmId(7)) == rename(r"\a\b", VmId(7))

    @given(
        components=st.lists(
            st.text(alphabet="abcxy09_", min_size=1, max_size=5),
            min_size=1, max_size=4),
        vm=st.integers(min_value=1, max_value=40),
    )
    def test_rename_roundtrip_property(self, components, vm):
        name = "\\" + "\\".join(components)
        effective = rename(name, VmId(vm))
        assert unrename(effective) == (VmId(vm), name)

    @given(
        a=st.lists(st.text(alphabet="abcxy09_", min_size=1, max_size=4), min_size=1, max_size=3),
        b=st.lists(st.text(alphabet="abcxy09_", min_size=1, max_size=4), min_size=1, max_size=3),
        vm_a=st.integers(min_value=1, max_value=20),
        vm_b=st.integers(min_value=1, max_value=20),
    )
    def test_rename_injective_property(self, a, b, vm_a, vm_b):
        name_a = "\\" + "\\".join(a)
        name_b = "\\" + "\\".join(b)
        if (vm_a, name_a) != (vm_b, name_b):
            assert rename(name_a, VmId(vm_a)) != rename(name_b, VmId(vm_b))
        else:
            assert rename(name_a, VmId(vm_a)) == rename(name_b, VmId(vm_b))


class TestGlobalName:
    @given(st.lists(st.sampled_from(["Global", "global", "Globals", "xGlobal", "G", "a"]),
                    min_size=1, max_size=5))
    def test_substring_test_matches_component_split(self, components):
        name = "\\" + "\\".join(components)
        assert is_global_name(name, Scope.LOCAL) == ("Global" in components)

    def test_declared_scope_wins(self):
        assert is_global_name(r"\a\b", Scope.GLOBAL)
        assert not is_global_name(r"\a\b", Scope.LOCAL)

    def test_literal_component(self):
        assert is_global_name(r"\BaseNamedObjects\Global\X", Scope.LOCAL)
        assert is_global_name(r"\Global", Scope.LOCAL)
        assert not is_global_name(r"\a\GlobalX", Scope.LOCAL)
        assert not is_global_name(r"\a\globals", Scope.LOCAL)

    def test_intent_enum_values(self):
        assert Intent.CREATE.value == "Create"
        assert Intent.OPEN.value == "Open"


class TestVmRegistry:
    def test_monotone_ids(self):
        reg = VmRegistry()
        assert reg.vm_create("10.0.0.2") == VmId(1)
        assert reg.vm_create("10.0.0.3") == VmId(2)
        p1 = reg.process_spawn(VmId(1))
        p2 = reg.process_spawn(HOST)
        assert (p1.pid, p2.pid) == (1, 2)
        assert (reg.process(1), reg.process(2)) == (p1, p2)
        assert (p1.vm, p2.vm) == (VmId(1), HOST)

    def test_duplicate_alias(self):
        reg = VmRegistry()
        reg.vm_create("10.0.0.2")
        with pytest.raises(DuplicateAlias):
            reg.vm_create("10.0.0.2")
        with pytest.raises(DuplicateAlias):
            reg.vm_create("")

    def test_spawn_requires_vm(self):
        reg = VmRegistry()
        with pytest.raises(UnknownVm):
            reg.process_spawn(VmId(5))
        # the host always exists
        assert reg.process_spawn(HOST).vm == HOST

    def test_lookup(self):
        reg = VmRegistry()
        vm = reg.vm_create("10.9.9.9")
        proc = reg.process_spawn(vm)
        assert reg.alias_of(vm) == "10.9.9.9"
        assert reg.process(proc.pid) is proc
        assert reg.process(proc.pid).vm == vm
        assert reg.process_exists(proc.pid)
        with pytest.raises(UnknownProcess):
            reg.process(99)
        with pytest.raises(UnknownVm):
            reg.alias_of(VmId(9))
