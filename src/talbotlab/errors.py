"""Exception types shared across the package, and the message of a failed run."""

import sys


class TalbotLabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(TalbotLabError):
    """A physical or numerical parameter is out of its valid range."""


class AliasingRisk(TalbotLabError):
    """The requested propagation would alias on the given grid."""


class UnderResolved(TalbotLabError):
    """The grid is too coarse for the structure it must represent."""


class BinMisalignment(TalbotLabError):
    """Detector bins cannot be laid out consistently on the grid."""


class NonNormalized(TalbotLabError):
    """A probability table does not sum to one."""


_GUARDS = (AliasingRisk, UnderResolved, BinMisalignment)


def report_failure(exc: Exception, path) -> int:
    """Print the one-line message of a failed run on stderr and return its exit
    code: 3 for a numerical guard, 2 for any other package error or a ``MemoryError``,
    and 2 for an ``OSError`` met making or writing ``path`` (or the file it names)."""
    if isinstance(exc, _GUARDS):
        message, code = f"numerical guard: {exc}", 3
    elif isinstance(exc, TalbotLabError):
        message, code = f"invalid configuration: {exc}", 2
    elif isinstance(exc, MemoryError):
        message, code = "out of memory; use a smaller configuration", 2
    else:
        message, code = f"cannot write {exc.filename or path}: {exc.strerror or exc}", 2
    print(message, file=sys.stderr, flush=True)
    return code
