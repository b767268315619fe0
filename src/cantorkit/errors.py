"""Exception types shared across the package."""


class CantorkitError(Exception):
    """Base class for all cantorkit errors."""


class InvalidDigitError(CantorkitError, ValueError):
    """A digit lies outside the alphabet of its numeral system."""


class FamilyConstraintError(CantorkitError, ValueError):
    """A digit sequence violates the defining restriction of a set family."""


class UnsupportedFamilyError(CantorkitError, ValueError):
    """The requested operation has no meaning for this family kind."""


class OutOfRangeError(CantorkitError, ValueError):
    """A number lies outside the representable range of the target expansion."""


class CapExceededError(CantorkitError, RuntimeError):
    """A walk or a table would pass its size cap; raised before it is built."""


class FamilyParseError(CantorkitError, ValueError):
    """A family description string does not match the grammar."""
