"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError/TypeError are reserved for programming errors at the
call site (wrong shapes, wrong argument types).
"""


class EvfamError(Exception):
    """Base class for all package-specific errors."""


class DomainError(EvfamError):
    """A parameter or sample point lies outside its declared domain."""


class ConvergenceError(EvfamError):
    """An iterative solve (Newton inversion, quadrature ladder) did not converge."""


class UnsupportedModelError(EvfamError):
    """The requested model family or parameter regime is not in the catalog."""


class DataError(EvfamError):
    """Input data is malformed (bad CSV shape, non-numeric entries, NaN)."""
