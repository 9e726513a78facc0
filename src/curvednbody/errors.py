"""Exception types shared across the library.

Every error type except ``IOFailure`` belongs to one of two categories:
``InputError`` (the input is invalid, so the CLI exits 2) or
``NumericalFailure`` (a numerical procedure failed on valid input, exit 3).
``IOFailure`` exits 1.
"""


class CurvedNBodyError(Exception):
    """Base class for every error raised by this package."""


class InputError(CurvedNBodyError):
    """The input is invalid: no computation can succeed on it."""


class NumericalFailure(CurvedNBodyError):
    """A numerical procedure failed on valid input."""


class InvalidConfiguration(InputError):
    """A structural invariant of an input record is violated."""


class SingularConfiguration(InputError):
    """Two bodies sit at (or numerically at) zero or antipodal separation."""


class PolarSingularity(InputError):
    """The spherical chart degenerates: sin(theta) is numerically zero."""


class NonpositiveMass(InputError):
    """A mass value is zero or negative."""


class NotAdmissible(InputError):
    """The mass triple lies outside the region that admits a fixed point."""


class DegenerateShape(InputError):
    """A triangle shape sits on (or past) the boundary of the admissible wedge."""


class NoConvergence(NumericalFailure):
    """An iterative solver exhausted its iteration budget."""


class InconsistentPair(InputError):
    """Masses and shape do not satisfy the fixed-point proportionality relations."""


class NotAFixedPoint(NumericalFailure):
    """The configuration fails the fixed-point residual test."""


class DegenerateSpectrum(NumericalFailure):
    """An eigenvalue pattern required for classification did not separate cleanly."""


class DegenerateBasis(NumericalFailure):
    """A requested subspace basis is numerically rank deficient."""


class StepFailure(NumericalFailure):
    """A time step could not be completed.

    Carries the time at which stepping failed in ``time`` and the index of
    the failing step (counted from 1; 0 for the initial state) in ``step``,
    when known.
    """

    def __init__(self, message, time=None, step=None):
        super().__init__(message)
        self.time = time
        self.step = step


class NoGrowthWindow(NumericalFailure):
    """The deviation never reached the growth-fit window.

    At a linearly stable rate that is consistent with stability; at any
    other rate the run was too short to grow.  ``max_deviation`` records the
    largest deviation seen over the horizon, ``verdict`` the rate's linear
    verdict and ``expected_rate`` its unstable exponent, None when it is 0.
    """

    def __init__(self, message, max_deviation=None, verdict=None, expected_rate=None):
        super().__init__(message)
        self.max_deviation = max_deviation
        self.verdict = verdict
        self.expected_rate = expected_rate


class IOFailure(CurvedNBodyError):
    """A report or data file could not be written."""
