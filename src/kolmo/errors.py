"""Exception types shared across the library."""


class KolmoError(Exception):
    """Base class for all library errors."""


class ArgumentError(KolmoError, ValueError):
    """An argument lies outside the range a routine accepts."""


class NotCanonical(KolmoError):
    """A block of B that must vanish has a nonzero entry."""


class RankDeficient(KolmoError):
    """A sub-diagonal block B_j has rank below m_j."""


class InternalInconsistency(KolmoError):
    """Two equivalent criteria disagreed beyond tolerance (numerical bug)."""


class NotSPD(KolmoError):
    """A diffusion matrix breaks its ellipticity: an eigenvalue of A0's
    value set outside the spec's declared [lambda, Lambda], or a Cholesky
    factorization that fails."""


class WindowUnderflow(KolmoError):
    """A mollified evaluation needs samples outside the field's time window."""


class Unstable(KolmoError):
    """The solver's step breaks a promise that keeps it stable: a requested
    dt above the step's cap, or a step that produced non-finite values,
    grew the sup norm beyond its monotone bound or took a datum >= 0 below
    zero."""


class BoxTooSmall(KolmoError):
    """Boundary mass exceeds the far-field truncation threshold."""


class SupportExceedsGrid(KolmoError):
    """A support does not fit the grid: a test function's cylinder leaves
    the solution's time range, or a fundamental-solution datum's standard
    deviation spans too few cells of an axis."""


class NonFinite(KolmoError):
    """Non-finite values encountered during simulation."""


class NotNonnegative(KolmoError):
    """Harnack harness requires a non-negative solution."""


class CylinderUnresolved(KolmoError):
    """Too few grid nodes fall inside a Harnack sub-cylinder."""


class ConeUnresolved(KolmoError):
    """Too few grid nodes fall inside the probed cone."""


class NoAdmissibleFit(KolmoError):
    """No lambda in the grid yields a positive lower envelope constant."""
