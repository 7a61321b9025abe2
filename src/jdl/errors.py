"""Exception types shared across the package."""


class JdlError(Exception):
    """Base class for all package errors."""


class DomainViolation(JdlError):
    """A point lies outside a chart's domain or an elementary function's domain."""


class OrderUnsupported(JdlError):
    """Requested jet order is not in {1, 2}."""


class DimensionMismatch(JdlError):
    """Operands live over incompatible charts or ambient dimensions."""


class SamplingExhausted(JdlError):
    """Rejection sampling failed to find enough admissible points, or a
    check was given none."""


class NotContained(JdlError):
    """A subspace is not contained in the claimed enclosing subspace."""


class DegreeUnsupported(JdlError):
    """A field matrix or a jet was requested of a form or multivector whose
    degree is not 1 or 2."""


class EvenDimension(JdlError):
    """A contact check was requested on an even-dimensional chart."""


class SingularSystem(JdlError):
    """A linear solve that should be regular is singular (contact failure)."""


class DegenerateCurvature(JdlError):
    """The restricted curvature form is degenerate at the point."""


class ZeroConformalFactor(JdlError):
    """A conformal factor vanishes at a sampled point."""


class OracleMismatch(JdlError):
    """A closed form disagrees with its defining oracle: the Jacobi pair of
    a contact structure fails ϖ♭∘J♯ = id, a Poissonization fails its
    bracket oracle, or a bracket is not first-order and antisymmetric."""


class SingularOmega(JdlError):
    """The 2-form of an l.c.s. candidate is singular at the point."""


class StepOutOfDomain(JdlError):
    """A flow integration step left the chart box."""


class UnknownId(JdlError):
    """No catalog entry with the requested id."""
