"""Exception types shared across the package."""


class JdlError(Exception):
    """Base class for all package errors."""


class DomainViolation(JdlError):
    """A point lies outside a chart's domain or an elementary function's domain."""


class OrderUnsupported(JdlError):
    """Requested jet order is not in {1, 2, 3}."""


class DimensionMismatch(JdlError):
    """Operands live over incompatible charts or ambient dimensions."""


class SamplingExhausted(JdlError):
    """Rejection sampling failed to find enough admissible points."""


class NotContained(JdlError):
    """A subspace is not contained in the claimed enclosing subspace."""


class DegreeUnsupported(JdlError):
    """Schouten bracket requested for degrees outside (1,1), (1,2), (2,2)."""


class EvenDimension(JdlError):
    """A contact check was requested on an even-dimensional chart."""


class SingularSystem(JdlError):
    """A linear solve that should be regular is singular (contact failure)."""


class DegenerateCurvature(JdlError):
    """The restricted curvature form is degenerate at the point."""


class InconsistentOracle(JdlError):
    """The closed-form Jacobi pair of a contact structure fails ϖ♭∘J♯ = id."""


class ZeroConformalFactor(JdlError):
    """A conformal factor vanishes at a sampled point."""


class ChartIndexInvalid(JdlError):
    """Affine chart index outside the Lie coalgebra dimension."""


class OracleMismatch(JdlError):
    """A derived closed form disagrees with its defining oracle."""


class SingularOmega(JdlError):
    """The 2-form of an l.c.s. candidate is singular at the point."""


class StepOutOfDomain(JdlError):
    """A flow integration step left the chart box."""


class UnknownId(JdlError):
    """No catalog entry with the requested id."""
