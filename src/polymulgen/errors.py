"""Exception types shared across the package."""


class InexactDivision(ArithmeticError):
    """Exact division was requested but the divisor does not divide the value."""


class InternalInterpolationError(RuntimeError):
    """A Toom interpolation step produced a non-exact division.

    This always indicates an implementation bug (the interpolation system is
    exact by construction), so callers must abort rather than truncate.
    """


class BadParams(ValueError):
    """Generator or model parameters outside the supported range."""


class BadDigit(ValueError):
    """Digit size outside 1..m for a digit-serial configuration."""


class UncheckedIR(ValueError):
    """Emission was attempted on IR that still has check() diagnostics."""


class XmlSyntax(ValueError):
    """Config file is not well-formed XML."""


class SchemaViolation(ValueError):
    """Config XML is well-formed but violates the job schema."""


class ToomRequiresInteger(SchemaViolation, BadParams):
    """A Toom method was asked for the carry-less mode (in a config or a call)."""


class BadFrequency(ValueError):
    """Frequency must be positive."""


class BadInput(ValueError):
    """Analysis input value outside its domain."""
