"""Exception types shared across the library."""


class CurvedNBodyError(Exception):
    """Base class for every error raised by this package."""


class InvalidConfiguration(CurvedNBodyError):
    """A structural invariant of an input record is violated."""


class SingularConfiguration(CurvedNBodyError):
    """Two bodies sit at (or numerically at) zero or antipodal separation."""


class SingularIterate(SingularConfiguration):
    """A solver iterate entered the singular set."""


class PolarSingularity(CurvedNBodyError):
    """The spherical chart degenerates: sin(theta) is numerically zero."""


class NonpositiveMass(CurvedNBodyError):
    """A mass value is zero or negative."""


class NotAdmissible(CurvedNBodyError):
    """The mass triple lies outside the region that admits a fixed point."""


class DegenerateShape(CurvedNBodyError):
    """A triangle shape sits on (or past) the boundary of the admissible wedge."""


class NoConvergence(CurvedNBodyError):
    """An iterative solver exhausted its iteration budget."""


class InconsistentPair(CurvedNBodyError):
    """Masses and shape do not satisfy the fixed-point proportionality relations."""


class NotAFixedPoint(CurvedNBodyError):
    """The configuration fails the fixed-point residual test."""


class DegenerateSpectrum(CurvedNBodyError):
    """An eigenvalue pattern required for classification did not separate cleanly."""


class DegenerateBasis(CurvedNBodyError):
    """A requested subspace basis is numerically rank deficient."""


class StepFailure(CurvedNBodyError):
    """A time step could not be completed.

    Carries the time at which stepping failed in ``time`` and the index of
    the failing step (counted from 1; 0 for the initial state) in ``step``,
    when known.
    """

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step


class NoGrowthWindow(CurvedNBodyError):
    """The deviation never reached the growth-fit window (consistent with stability).

    ``max_deviation`` records the largest deviation seen over the horizon.
    """

    def __init__(self, message, max_deviation=None):
        super().__init__(message)
        self.max_deviation = max_deviation


class IOFailure(CurvedNBodyError):
    """A report or data file could not be written."""
