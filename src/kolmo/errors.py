"""Exception types shared across the library."""


class KolmoError(Exception):
    """Base class for all library errors."""


class ArgumentError(KolmoError, ValueError):
    """An argument lies outside the range a routine accepts."""


class NotCanonical(KolmoError):
    """A block of B that must vanish is nonzero beyond tolerance."""

    def __init__(self, position, magnitude=None):
        self.position = position
        self.magnitude = magnitude
        super().__init__(f"off-pattern block at {position}"
                         + (f" with magnitude {magnitude:.3e}" if magnitude is not None else ""))


class RankDeficient(KolmoError):
    """A sub-diagonal block B_j has rank below m_j."""

    def __init__(self, j, rank=None, expected=None):
        self.j = j
        self.rank = rank
        self.expected = expected
        super().__init__(f"block B_{j} has rank {rank} < {expected}")


class InternalInconsistency(KolmoError):
    """Two equivalent criteria disagreed beyond tolerance (numerical bug)."""


class NotSPD(KolmoError):
    """Cholesky factorization failed: matrix is not positive definite."""


class WindowUnderflow(KolmoError):
    """A mollified evaluation needs samples outside the field's time window."""


class BoundaryNode(KolmoError):
    """Discrete operator requested at a non-interior grid node."""


class OutOfDomain(KolmoError):
    """Requested point lies outside the grid."""


class Unstable(KolmoError):
    """A time step produced non-finite values."""


class BoxTooSmall(KolmoError):
    """Boundary mass exceeds the far-field truncation threshold."""


class SupportExceedsGrid(KolmoError):
    """Test-function support is not contained in the grid."""


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
