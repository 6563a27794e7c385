"""Exception types shared across the package."""


class FenchelFixError(Exception):
    """Base class for all package errors."""


class DimMismatch(FenchelFixError):
    """Operands have incompatible dimensions."""


class NotSymmetric(FenchelFixError):
    """A matrix violates the symmetry tolerance."""


class Singular(FenchelFixError):
    """A matrix required to be invertible is (numerically) singular."""


class NotPSD(FenchelFixError):
    """A matrix required to be positive semidefinite is not."""


class NotPositiveDefinite(FenchelFixError):
    """A matrix required to be positive definite is not."""


class NotInvolution(FenchelFixError):
    """An operator expected to square to the identity does not."""


class BadDeterminant(FenchelFixError):
    """A determinant constraint is violated."""


class EmptyList(FenchelFixError):
    """A nonempty sequence was required."""


class AllInfinite(FenchelFixError):
    """A sampled function has no finite values (not proper)."""


class OutOfRange(FenchelFixError):
    """Finite inputs drive a value the computation needs past the largest
    float (it overflows): an input error, not an internal failure."""


class NumericalFailure(FenchelFixError):
    """A numerical routine failed on valid input (e.g. LAPACK did not
    converge): an internal failure, not an input error."""


class ParseError(FenchelFixError):
    """A config or data file could not be parsed."""


class UnknownDemo(FenchelFixError):
    """An unknown demo scenario name was requested."""
