"""A plain model of the resolve pipeline, steps (a)-(g), stated apart from
``ipcconfine.engine``: it imports nothing from the package, and states
each rule (the pattern match, the global rule, the renaming, the step
order) again in the simplest form.

A name is a str that the engine's check accepts, a VM is its number (0 for
the host), and an outcome is ``(effective name, route, step)``, with the
route's value (``"VmPrivate"``, ``"VmGlobal"``, ``"HostPassthrough"``) and
the step's letter. ``test_pipeline_model.py`` drives the engine and this
model with the same random operations; an unsealed model also states what
the full-scan oracle decides, as it never skips the long list.
"""

SEP = "\\"

PRINCIPLES = {"VmPrivate": "Isolation", "VmGlobal": "GlobalObject",
              "HostPassthrough": "HostObject"}


def listed(long_list, name: str) -> bool:
    """Whether an entry of ``long_list`` holds ``name``: an exact entry
    equals it, and ``prefix*`` matches ``prefix`` followed by one or more
    ASCII digits."""
    for entry in long_list:
        if entry.endswith("*"):
            prefix = entry[:-1]
            tail = name[len(prefix):]
            if name.startswith(prefix) and tail and all(ch in "0123456789" for ch in tail):
                return True
        elif entry == name:
            return True
    return False


def is_global(name: str, global_scope: bool) -> bool:
    """Declared Global, or a path component that is literally ``Global``."""
    return global_scope or "Global" in name.split(SEP)


class PipelineModel:
    """Steps (a)-(g) over a long list, per-VM global names, a short list
    most recently used first, and a seal."""

    def __init__(self, long_list):
        self.long_list = list(long_list)
        self.global_names: dict[int, set[str]] = {}
        self.short_list: list[str] = []
        self.sealed = False

    def seal(self) -> None:
        self.sealed = True

    def resolve(self, vm: int, name: str, create: bool, global_scope: bool) -> tuple:
        renamed = f"{SEP}vm{vm}{name}"
        if vm == 0:
            return name, "HostPassthrough", "a"
        mine = self.global_names.setdefault(vm, set())
        if name in mine:
            return renamed, "VmGlobal", "c"
        if create and is_global(name, global_scope):
            mine.add(name)
            return renamed, "VmGlobal", "b"
        if name in self.short_list:
            if not self.sealed:
                self.short_list.remove(name)
                self.short_list.insert(0, name)
            return name, "HostPassthrough", "d"
        if self.sealed:
            return renamed, "VmPrivate", "e"
        if listed(self.long_list, name):
            self.short_list.insert(0, name)
            return name, "HostPassthrough", "f"
        return renamed, "VmPrivate", "g"
