"""Exception hierarchy shared by all bidfm modules.

The CLI maps these onto exit codes: usage problems exit 1, data problems
exit 2, numerical failures exit 3.
"""


class BidfmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(BidfmError, ValueError):
    """Shapes or counts are incompatible with the requested operation."""


class ValidationError(BidfmError, ValueError):
    """Model parameters violate one or more invariants.

    ``violations`` lists every broken rule, not just the first.
    """

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainError(BidfmError, ValueError):
    """A value lies outside the range admitted by the chosen distribution."""


class InfeasibleError(BidfmError, ValueError):
    """The request cannot be satisfied for any random draw (e.g. n < K)."""


class UnsupportedError(BidfmError, ValueError):
    """The algorithm does not support the requested configuration."""


class ConvergenceError(BidfmError, RuntimeError):
    """An iterative routine hit its iteration cap before converging.

    ``found`` is the number of singular triplets it had found by then, when
    known.
    """

    def __init__(self, message, found=None):
        super().__init__(message)
        self.found = found


class ParseError(BidfmError, ValueError):
    """A file could not be parsed; carries the problem (``reason``), the
    offending line number and the file's path, each shown when known:
    ``"net.txt: line 3: bad label 'x'"``."""

    def __init__(self, message, line=None, path=None):
        self.reason, self.line, self.path = message, line, path
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
