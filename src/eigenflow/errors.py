"""Exception hierarchy for eigenflow.

Two error families matter operationally: configuration/validation problems
(rejected before any compute starts) and numerical failures detected during
compute. The CLI maps them to distinct exit codes (2 and 3).
"""


class EigenflowError(Exception):
    """Base class for all eigenflow errors."""


class ValidationError(EigenflowError):
    """Invalid configuration, parameters, or preconditions.

    Raised before any simulation or heavy computation starts. CLI exit
    code 2.
    """


class TruncationError(ValidationError):
    """A moment hierarchy does not close at the requested order.

    Raised when coefficient polynomial degrees force the moment ODE to
    reference moments beyond the computed triangle.
    """


class UnsupportedLawOperation(ValidationError):
    """The requested operation is undefined for this law.

    Example: CDF or density of a moments-only law (geometric, Jacobi).
    """


class NumericalError(EigenflowError):
    """Numerical failure during compute (explosion, invariant violation).

    ``replica`` is the index of the failing replica, when the failure is in
    one. CLI exit code 3.
    """

    def __init__(self, message: str, replica: int | None = None):
        super().__init__(message)
        self.replica = replica
