"""Exception hierarchy for the confinement simulator.

Every error carries a stable ``code`` string (the class name) so trace
files can assert on errors by name and the CLI can report them uniformly.
"""

from __future__ import annotations


class ConfinementError(Exception):
    """Base class for all simulator errors."""

    code = "ConfinementError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__


# --- identity / registry errors -------------------------------------------

class DuplicateAlias(ConfinementError):
    pass


class UnknownVm(ConfinementError):
    pass


class UnknownProcess(ConfinementError):
    pass


class HostRenameForbidden(ConfinementError):
    pass


class InvalidName(ConfinementError):
    pass


# --- engine errors ----------------------------------------------------------

class AlreadyLoaded(ConfinementError):
    pass


class NotLoaded(ConfinementError):
    pass


class BadCategory(ConfinementError):
    pass


# --- kernel errors ----------------------------------------------------------

class KernelError(ConfinementError):
    """Kernel op failure, a normal outcome of an op. ``bind_socket`` raises
    ``AddressInUse``; a failed create or open raises nothing, as
    ``create_object`` and ``open_object`` return the failure's class with
    the resolve outcome."""


class AlreadyExists(KernelError):
    pass


class CategoryMismatch(KernelError):
    pass


class NotFound(KernelError):
    pass


class InvalidHandle(ConfinementError):
    pass


class AddressInUse(KernelError):
    pass


class InvalidPort(ConfinementError):
    pass


# --- trace / replay errors --------------------------------------------------

class ParseError(ConfinementError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ConfinementError):
    def __init__(self, seq: int, reason: str):
        super().__init__(f"seq {seq}: {reason}")
        self.seq = seq
        self.reason = reason


class ReplayError(ConfinementError):
    def __init__(self, seq: int, reason: str):
        super().__init__(f"seq {seq}: {reason}")
        self.seq = seq
        self.reason = reason


class InvalidParams(ConfinementError):
    pass
