"""Exception hierarchy.

Validation errors carry a minimal witness (the first failing instance) as
attributes, so callers and the CLI can report exactly what broke.
"""

from __future__ import annotations


class RackhomError(Exception):
    """Base class for all package errors."""


class ShapeError(RackhomError):
    pass


class R1Violation(RackhomError):
    """Column ``y`` of the operation table is not a permutation."""

    def __init__(self, y):
        self.y = y
        super().__init__(f"R1 fails: column {y} is not a permutation")


class R2Violation(RackhomError):
    """Self-distributivity fails at the witness triple (x, y, z)."""

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z
        super().__init__(f"R2 fails at (x,y,z)=({x},{y},{z})")


class InvalidGroupTable(RackhomError):
    pass


class BijectivityViolation(RackhomError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"action of {x} is not a bijection")


class CompatibilityViolation(RackhomError):
    def __init__(self, y, x, xp):
        self.y, self.x, self.xp = y, x, xp
        super().__init__(f"action compatibility fails at (y,x,x')=({y},{x},{xp})")


class RackMismatch(RackhomError):
    pass


class NotAQuandle(RackhomError):
    pass


class IndexOutOfRange(RackhomError):
    pass


class CoefficientMismatch(RackhomError):
    pass


class MixedDegrees(RackhomError):
    pass


class ResourceLimit(RackhomError):
    """A configured resource cap was exceeded (CLI exit code 2)."""


class DimensionOverflow(ResourceLimit):
    """A basis size cap was exceeded."""


class OrbitLimitExceeded(ResourceLimit):
    pass


class NotAComplex(RackhomError):
    """Consecutive boundary matrices do not compose to zero."""


class NotACocycle(RackhomError):
    pass


class ContextMismatch(RackhomError):
    pass


class InvalidSpec(RackhomError, ValueError):
    """A ring, field or suite selector names nothing valid."""


class ParseError(RackhomError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)
