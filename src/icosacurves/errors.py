"""Typed domain errors shared across the package.

Every error carries a human-readable message and an optional payload dict of
machine-readable detail (offending index, residual coefficient, and so on).
The CLI serialises these as {"error": {"type": ..., "message": ..., ...}}.
"""


class IcosaError(Exception):
    """Base class for all domain errors raised by this package."""

    def __init__(self, message="", **payload):
        super().__init__(message)
        self.message = message
        self.payload = payload

    def to_json(self):
        out = {"type": type(self).__name__, "message": self.message}
        out.update({k: str(v) for k, v in self.payload.items()})
        return out


class DivisionByZero(IcosaError):
    """Inversion of the zero element of a field."""


class ZeroPolynomial(IcosaError):
    """An operation that needs a nonzero polynomial received the zero one."""


class DuplicateAbscissa(IcosaError):
    """Interpolation abscissae repeat."""


class InconsistentData(IcosaError):
    """Samples contradict the declared degree bound or fitted model."""


class ConstantInner(IcosaError):
    """Composition with a constant inner function."""


class IdentityFailed(IcosaError):
    """A claimed polynomial identity fails; payload holds the first bad index."""


class DegreeMismatch(IcosaError):
    """Degrees rule the requested factorisation out."""


class FixedPointsOutsideField(IcosaError):
    """Fixed points of the map live outside the ambient cyclotomic field."""


class ParabolicElement(IcosaError):
    """The map has a single (repeated) fixed point and no scaling form."""


class NotInLocus(IcosaError):
    """The genus or invariant data does not belong to any family handled here."""


class DegenerateBranchValue(IcosaError):
    """A branch value of 0 or 1728 collapses the covering."""


class DuplicateBranchValue(IcosaError):
    """Repeated branch values collapse distinct components."""


class NotEven(IcosaError):
    """Polynomial is neither even nor x times an even polynomial."""


class OrderTooLarge(IcosaError):
    """Transvectant order exceeds a factor degree."""


class DegreeTooSmall(IcosaError):
    """Form degree too small for the requested invariants."""


class NormalizationUndefined(IcosaError):
    """Quadratic invariant vanishes, absolute invariants have no finite value."""


class DegenerateLeadingOrTrailing(IcosaError):
    """Leading or trailing even-model coefficient vanishes."""


class SingularSystem(IcosaError):
    """Linear system for parameter recovery is singular or inconsistent."""


class EliminationDegenerate(IcosaError):
    """Resultant-based elimination degenerated (vanished or lost degree)."""


class UnexpectedFactorStructure(IcosaError):
    """Eliminant did not reduce to the expected quadratic factor."""


class RationalI3(IcosaError):
    """Third absolute invariant is rational where a quadratic was expected."""


class SingularPoint(IcosaError):
    """Invariant point is a singular point of the locus; fibre is a pair."""


class NotOnLocus(IcosaError):
    """Invariant point does not lie on the locus."""


class FactoringExhausted(IcosaError):
    """Integer factoring or a prime certificate ran out of its effort bound."""


class UsageError(IcosaError):
    """Command-line usage error (maps to exit status 64)."""
