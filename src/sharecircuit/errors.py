"""Exception types shared across the package, and the one repr through
which their messages quote an offending value: `reprlib`'s, which bounds
its length however long or deeply nested the value is."""

from reprlib import repr as quote


class ShareCircuitError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArguments(ShareCircuitError):
    pass


class SingularMatrix(ShareCircuitError):
    pass


class IndexOutOfRange(ShareCircuitError):
    pass


class CyclicGraph(ShareCircuitError):
    pass


class DanglingInputOutput(ShareCircuitError):
    pass


class DuplicateTerminal(ShareCircuitError):
    pass


class TerminalNotInNetwork(ShareCircuitError):
    pass


class ArityMismatch(ShareCircuitError):
    pass


class RetriesExhausted(ShareCircuitError):
    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class PreconditionViolation(ShareCircuitError):
    pass


class SingularSubmatrix(ShareCircuitError):
    pass


class StateSpaceTooLarge(ShareCircuitError):
    pass
