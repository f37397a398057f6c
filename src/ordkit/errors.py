"""Exception types shared across the toolkit.

Every error carries a stable ``name`` used by the CLI as the first output
line on failure (exit status 1).
"""


class ToolkitError(Exception):
    name = "toolkit-error"


class ParseError(ToolkitError):
    name = "syntax-error"

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class FileInputError(ToolkitError):
    name = "file-error"


class OutOfRangeError(ToolkitError):
    name = "out-of-range"


class PartitionError(ToolkitError):
    name = "partition-mismatch"


class BoundViolation(ToolkitError):
    name = "bound-violation"


class FuelExhausted(ToolkitError):
    name = "fuel-exhausted"


class InconsistentMapSpec(ToolkitError):
    name = "inconsistent-mapspec"


class PreconditionViolated(ToolkitError):
    name = "precondition-violated"


class CoverageBroken(ToolkitError):
    name = "coverage-broken"


class WitnessNotFound(ToolkitError):
    name = "witness-not-found"


class TableNotInjective(ToolkitError):
    name = "table-not-injective"


class CertificateError(ToolkitError):
    name = "certificate-error"


class EmptyFiber(ToolkitError):
    name = "empty-fiber"


class RowUndefined(ToolkitError):
    name = "row-undefined"


class TailLimitUndecided(ToolkitError):
    name = "tail-limit-undecided"
