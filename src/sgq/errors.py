"""Exception types raised by the library.

Every domain failure carries a human-readable locus in its message; the CLI
maps these to exit status 1 and embeds name + message in the output document.
"""


class SgqError(Exception):
    """Base class for all domain errors."""


class RingMismatch(SgqError):
    """Operands belong to different super rings."""


class ParityViolation(SgqError):
    """A homomorphism image has the wrong parity for its variable."""


class UnknownVariable(SgqError):
    """A variable name is not a generator of the ring."""


class NotInvertible(SgqError):
    """Element or matrix fails the body-invertibility test."""


class ShapeMismatch(SgqError):
    """Matrix shapes are incompatible for the requested operation."""


class ParityPatternViolation(SgqError):
    """A matrix entry is not homogeneous of the parity its position forces."""


class NotInBigCell(SgqError):
    """The corner blocks do not have invertible body."""


class RankDeficient(SgqError):
    """No choice of rows certifies full rank of a span."""


class NotAPoint(SgqError):
    """A relation does not vanish at the proposed point."""


class UnassignedVariable(SgqError):
    """An even variable survives evaluation where a number is required."""


class UnknownSuite(SgqError):
    """The property-test harness does not know the requested suite."""


class LimitExceeded(SgqError):
    """A value is over a size limit, such as a coefficient with more digits
    than a document reader accepts."""


class SchemaError(SgqError):
    """An input document does not match the expected JSON schema."""
