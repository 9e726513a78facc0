"""Hamiltonian dynamics of the curved three-body problem in spherical angles.

The flow is integrated in the chart (theta, phi, p_theta, p_phi) with the
implicit midpoint rule as the reference integrator and an adaptive
Runge-Kutta route for cross-checks.  Pair contributions to the longitude
momenta cancel in exactly opposite floating-point pairs, so the total
angular momentum about the polar axis is conserved to the iteration floor.
The vector field and the frame energy are straight-line code over the
three bodies' floats.  ``relative_equilibrium`` takes a RingConfiguration's
angles as its construction converted, finite-checked and pair-guarded them
on the equator, past the polar guard, and checks only the momenta m * omega.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    InvalidConfiguration,
    NoGrowthWindow,
    SingularConfiguration,
    StepFailure,
)
from .geometry import (
    BODIES,
    EQUATOR,
    POLAR_TOL,
    SINE_RECHECK,
    MassVector,
    RingConfiguration,
    _check_bodies,
    _check_finite,
    _pair_guard,
    _pair_sines,
    _polar_error,
    _recheck_sine,
    frozen_value,
    instance_fill,
)
from .fixedpoints import AdmissibleMassTriple
from .integrators import SEPARATION_FLOOR, midpoint_run, rk45_solve, step_count
from .integrators import midpoint_step  # noqa: F401  perfbench's tracer test wraps it here
from .stability import LinearizationBlocks, ring_pipeline, vertical_mode
from .stability import rate_square, rate_verdict
from .stability import assemble_blocks  # noqa: F401  perfbench's tracer test wraps it here

# the window of the growth fit; see growth_rate_experiment
GROWTH_FLOOR_FACTOR = 10.0
GROWTH_CEILING = 1e-2
GROWTH_MIN_POINTS = 8


@frozen_value
class PhaseState:
    """Phase point of the three bodies in the spherical chart.

    Longitudes are kept unreduced so trajectories can wind.  Construction
    rejects a block that does not hold three values, colatitudes at the
    polar guard and singular pair separations.
    """

    thetas: tuple
    phis: tuple
    pthetas: tuple
    pphis: tuple

    def __post_init__(self):
        fields = {}
        for name in ("thetas", "phis", "pthetas", "pphis"):
            vals = tuple(float(v) for v in getattr(self, name))
            _check_finite(name, vals)
            _check_bodies(len(vals))
            fields[name] = vals
        st = [math.sin(t) for t in fields["thetas"]]
        if min(st) <= POLAR_TOL:
            raise _polar_error(st)
        self.__dict__.update(fields)
        _pair_guard(fields["thetas"], fields["phis"])

    @property
    def n(self) -> int:
        return len(self.thetas)

    def as_vector(self) -> np.ndarray:
        return np.array(self.thetas + self.phis + self.pthetas + self.pphis)

    @classmethod
    def from_vector(cls, vec) -> "PhaseState":
        v = [float(x) for x in vec]
        n, rest = divmod(len(v), 4)
        if rest:
            raise InvalidConfiguration("phase vector length must be a multiple of 4")
        return cls(
            tuple(v[0:n]),
            tuple(v[n : 2 * n]),
            tuple(v[2 * n : 3 * n]),
            tuple(v[3 * n : 4 * n]),
        )


def _mass_vector(masses) -> MassVector:
    """``masses`` as a MassVector: a MassVector as it is, an AdmissibleMassTriple
    as its ``mass_vector()``; anything else raises InvalidConfiguration."""
    if isinstance(masses, MassVector):
        return masses
    if isinstance(masses, AdmissibleMassTriple):
        return masses.mass_vector()
    raise InvalidConfiguration(
        "masses must be a MassVector or an AdmissibleMassTriple, got %s"
        % type(masses).__name__
    )


def relative_equilibrium(masses, ring: RingConfiguration, omega: float) -> PhaseState:
    """Phase state of the ring rotating rigidly at the given rate; a ring that
    is not a RingConfiguration gets PhaseState's full check.  ``masses``, here
    and in ``make_field``, ``hamiltonian`` and ``integrate``, is a MassVector
    or an AdmissibleMassTriple, taken as its mass vector."""
    pphis = tuple(float(m * omega) for m in _mass_vector(masses).masses)
    values = dict(thetas=ring.thetas, phis=ring.phis, pthetas=(0.0,) * BODIES, pphis=pphis)
    if not isinstance(ring, RingConfiguration):
        return PhaseState(**values)
    _check_finite("pphis", pphis)
    state = object.__new__(PhaseState)
    instance_fill(PhaseState)(state, values)
    return state


def _field_kernel(masses: MassVector, omega: float):
    """The vector field of ``make_field`` on lists of floats, list in, list out;
    a rate that ``rate_square`` rejects raises InvalidConfiguration.

    The field is straight-line code over the 12 floats.  Its pair blocks come
    in ``_pair_table``'s order (1,2), (1,3), (2,3) and each sum starts from
    0.0, so it gives the bits and the errors of the loop over
    ``_angle_gradient`` that ``tests/test_field_three.py`` keeps as its oracle.
    """
    rate_square(omega)
    m1, m2, m3 = masses.masses
    m12, m13, m23 = m1 * m2, m1 * m3, m2 * m3
    om = float(omega)
    sin, cos, sqrt = math.sin, math.cos, math.sqrt

    def field(vals):
        th1, th2, th3, ph1, ph2, ph3, pt1, pt2, pt3, pp1, pp2, pp3 = vals
        s1, s2, s3 = sin(th1), sin(th2), sin(th3)
        c1, c2, c3 = cos(th1), cos(th2), cos(th3)
        sp1, sp2, sp3 = sin(ph1), sin(ph2), sin(ph3)
        cp1, cp2, cp3 = cos(ph1), cos(ph2), cos(ph3)
        lo = s2 if s2 < s1 else s1
        if (s3 if s3 < lo else lo) <= POLAR_TOL:  # min(s1, s2, s3)
            raise _polar_error((s1, s2, s3))
        x1, x2, x3 = s1 * cp1, s2 * cp2, s3 * cp3
        y1, y2, y3 = s1 * sp1, s2 * sp2, s3 * sp3
        u1, u2, u3 = c1 * cp1, c2 * cp2, c3 * cp3
        v1, v2, v3 = c1 * sp1, c2 * sp2, c3 * sp3
        # pairs (1,2), (1,3), (2,3): g sums the theta partials, h the phi ones
        c = x1 * x2 + y1 * y2 + c1 * c2
        d = 1.0 - c * c
        s = 0.0 if 0.0 > d else sqrt(d)  # sqrt(max(d, 0.0))
        if s < SINE_RECHECK:
            s = _recheck_sine(0, 1, c, (x1, x2, x3), (y1, y2, y3), (c1, c2, c3))
        f = m12 / (s * s * s)
        b = f * (x1 * y2 - y1 * x2)
        g1 = 0.0 + f * (u1 * x2 + v1 * y2 - s1 * c2)
        g2 = 0.0 + f * (u2 * x1 + v2 * y1 - s2 * c1)
        h1, h2 = 0.0 + b, 0.0 - b

        c = x1 * x3 + y1 * y3 + c1 * c3
        d = 1.0 - c * c
        s = 0.0 if 0.0 > d else sqrt(d)  # sqrt(max(d, 0.0))
        if s < SINE_RECHECK:
            s = _recheck_sine(0, 2, c, (x1, x2, x3), (y1, y2, y3), (c1, c2, c3))
        f = m13 / (s * s * s)
        b = f * (x1 * y3 - y1 * x3)
        g1 += f * (u1 * x3 + v1 * y3 - s1 * c3)
        g3 = 0.0 + f * (u3 * x1 + v3 * y1 - s3 * c1)
        h1, h3 = h1 + b, 0.0 - b

        c = x2 * x3 + y2 * y3 + c2 * c3
        d = 1.0 - c * c
        s = 0.0 if 0.0 > d else sqrt(d)  # sqrt(max(d, 0.0))
        if s < SINE_RECHECK:
            s = _recheck_sine(1, 2, c, (x1, x2, x3), (y1, y2, y3), (c1, c2, c3))
        f = m23 / (s * s * s)
        b = f * (x2 * y3 - y2 * x3)
        g2 += f * (u2 * x3 + v2 * y3 - s2 * c3)
        g3 += f * (u3 * x2 + v3 * y2 - s3 * c2)
        h2, h3 = h2 + b, h3 - b

        q1, q2, q3 = m1 * (s1 * s1), m2 * (s2 * s2), m3 * (s3 * s3)
        return [
            pt1 / m1, pt2 / m2, pt3 / m3,
            pp1 / q1 - om, pp2 / q2 - om, pp3 / q3 - om,
            pp1 * pp1 * c1 / (q1 * s1) + g1,
            pp2 * pp2 * c2 / (q2 * s2) + g2,
            pp3 * pp3 * c3 / (q3 * s3) + g3,
            h1, h2, h3,
        ]

    return field


def make_field(masses, omega: float = 0.0):
    """Right-hand side of the equations of motion on flat 12-vectors.

    ``omega`` is the rotation rate of the observing frame; it shifts the
    longitude velocities by a constant and nothing else.  The longitude
    momentum derivatives are accumulated as exactly opposite pairs.  A rate
    that ``rate_square`` rejects, or a state that ``_state_values`` rejects,
    raises InvalidConfiguration.
    """
    kernel = _field_kernel(_mass_vector(masses), omega)
    return lambda x: np.array(kernel(_state_values(x)))


def _state_values(state) -> list:
    """A state's 12 values: a list as it is (``integrate`` samples are lists of
    floats), a PhaseState or a vector as a new list.  Another size, or an entry
    that is nan or infinite, raises InvalidConfiguration."""
    if isinstance(state, PhaseState):
        state = state.as_vector()
    if not isinstance(state, list):
        x = np.asarray(state, float)
        state = x.tolist() if x.ndim == 1 else []  # other shapes fail the check
    if len(state) != 4 * BODIES:
        raise InvalidConfiguration("state length does not match mass count")
    _check_finite("state", state)
    return state


def hamiltonian(masses, state, omega: float = 0.0) -> float:
    """Energy in a frame rotating at rate omega: kinetic + potential - omega J,
    written out over the three bodies and the pairs of ``_pair_sines``.  A
    rate that ``rate_square`` rejects raises InvalidConfiguration, and the
    rate is taken as the float it converts to.  A body at the polar guard
    raises before any pair is read."""
    m = _mass_vector(masses).masses
    rate_square(omega)
    omega = float(omega)
    vals = _state_values(state)
    sin = math.sin
    s1, s2, s3 = sin(vals[0]), sin(vals[1]), sin(vals[2])
    if s1 <= POLAR_TOL or s2 <= POLAR_TOL or s3 <= POLAR_TOL:
        raise _polar_error((s1, s2, s3))
    total = _rest_energy(m, vals, *_pair_sines(vals[0:3], vals[3:6]))
    if omega != 0.0:
        total -= omega * sum(vals[9:])
    return total


def _rest_energy(m, vals, st, cosines, sines) -> float:
    """Kinetic plus potential energy of the 12 ``vals`` from the tables of
    ``_pair_sines``: the frame energy at rate zero."""
    m1, m2, m3 = m
    s1, s2, s3 = st
    pt1, pt2, pt3, pf1, pf2, pf3 = vals[6:]
    total = (
        pt1 * pt1 / (2.0 * m1) + pf1 * pf1 / (2.0 * m1 * (s1 * s1))
        + (pt2 * pt2 / (2.0 * m2) + pf2 * pf2 / (2.0 * m2 * (s2 * s2)))
        + (pt3 * pt3 / (2.0 * m3) + pf3 * pf3 / (2.0 * m3 * (s3 * s3)))
    )
    (c12, c13, c23), (a, b, c) = cosines, sines
    total -= m1 * m2 * c12 / a
    total -= m1 * m3 * c13 / b
    total -= m2 * m3 * c23 / c
    return total


def _sample_monitor(m, vals, omega):
    """(smallest pair sine, frame energy, total longitude momentum J) of a
    recorded sample, from one set of sines: ``_pair_guard`` at
    ``SEPARATION_FLOOR`` and then ``hamiltonian``, with their bits and their
    errors in that order.  A sine that passes the hard floor passes the
    energy's lower one, so the energy reuses the guard's sines."""
    st, cosines, sines = _pair_sines(vals[0:3], vals[3:6], SEPARATION_FLOOR)
    _check_finite("state", vals)
    s1, s2, s3 = st
    if s1 <= POLAR_TOL or s2 <= POLAR_TOL or s3 <= POLAR_TOL:
        raise _polar_error(st)
    a, b, c = sines
    lo = b if b < a else a  # min(a, b, c), first of equal values
    j = sum(vals[9:])
    energy = _rest_energy(m, vals, st, cosines, sines)
    if omega != 0.0:
        energy -= omega * j
    return (c if c < lo else lo), energy, j


def _midpoint_run(masses, omega, x0, step, nsteps, record_stride):
    """Samples of the seeded midpoint run of the full system from the list ``x0``:
    ``integrators.midpoint_run``, one loop whose only call is the field."""
    return midpoint_run(_field_kernel(masses, omega), x0, step, nsteps, record_stride)


@frozen_value
class TrajectoryRecord:
    """Sampled trajectory with its conservation and proximity monitors.

    ``energies`` and ``momenta`` hold the frame energy and the total
    longitude momentum of each recorded sample; the drifts are their largest
    deviations from their initial values.
    """

    times: np.ndarray
    states: np.ndarray
    energies: np.ndarray
    momenta: np.ndarray
    omega: float
    energy_drift: float
    momentum_drift: float
    max_equator_deviation: float
    min_separation_sine: float


def integrate(
    masses,
    initial,
    horizon: float,
    step: float = 1e-3,
    omega: float = 0.0,
    record_stride: int = 10,
    method: str = "midpoint",
) -> TrajectoryRecord:
    """Integrate the equations of motion and collect conservation monitors.

    ``method`` selects the implicit midpoint reference integrator or the
    adaptive "rk45" cross-check route.  An initial state that ``_state_values``
    rejects raises InvalidConfiguration.  Integration aborts with StepFailure,
    carrying the time and the step index, when a step fails or a recorded
    sample has a pair separation sine below the hard floor; an rk45 run
    also aborts, carrying the time, when its pace needs more field
    evaluations than ``RK45_MAX_EVALS``.
    """
    masses = _mass_vector(masses)
    x0 = [float(v) for v in _state_values(initial)]
    if method not in ("midpoint", "rk45"):
        raise InvalidConfiguration("unknown integration method %r" % method)
    nsteps = step_count(horizon, step, record_stride)

    if method == "rk45":
        t_record = [k * step for k in range(record_stride, nsteps + 1, record_stride)]
        if not t_record or t_record[-1] < nsteps * step:
            t_record.append(nsteps * step)
        ts, xs = rk45_solve(
            make_field(masses, omega), x0, nsteps * step, t_eval=np.array(t_record)
        )
        samples = [(0.0, x0)]
        samples.extend((float(t), x.tolist()) for t, x in zip(ts, xs))
    else:
        samples = _midpoint_run(masses, omega, x0, step, nsteps, record_stride)

    times = []
    states = []
    energies = []
    momenta = []
    min_sep = 2.0
    max_eq = h_drift = j_drift = 0.0
    m = masses.masses
    for t, vals in samples:
        try:
            sep, h, j = _sample_monitor(m, vals, omega)
        except SingularConfiguration as exc:
            raise StepFailure(str(exc), time=t, step=round(t / step)) from None
        min_sep = min(min_sep, sep)
        max_eq = max(max_eq, max(abs(t_ - EQUATOR) for t_ in vals[0:3]))
        if not states:
            h0, j0 = h, j
        h_drift = max(h_drift, abs(h - h0))
        j_drift = max(j_drift, abs(j - j0))
        times.append(t)
        states.append(vals)
        energies.append(h)
        momenta.append(j)

    return TrajectoryRecord(
        times=np.array(times),
        states=np.array(states),
        energies=np.array(energies),
        momenta=np.array(momenta),
        omega=float(omega),
        energy_drift=h_drift,
        momentum_drift=j_drift,
        max_equator_deviation=max_eq,
        min_separation_sine=min_sep,
    )


@frozen_value
class GrowthFit:
    """Outcome of the deviation-growth experiment at a rotating ring.

    ``rate`` is the slope of log deviation over the fit window; for an
    unstable rate it should match ``expected_rate``, the square root of the
    shifted vertical eigenvalue.  Times and deviations cover all recorded
    samples, not just the window.
    """

    omega: float
    amplitude: float
    rate: float
    expected_rate: float | None
    n_points: int
    window: tuple
    log_residual: float
    max_deviation: float
    times: np.ndarray
    deviations: np.ndarray


def _line_fit(xs: list, ys: list) -> tuple:
    """Slope and intercept of the least-squares line through the points, on
    floats: the slope is sum (x - xbar)(y - ybar) over sum (x - xbar)^2,
    both sums taken about the means and rounded once by ``math.fsum``."""
    n = len(xs)
    xbar, ybar = math.fsum(xs) / n, math.fsum(ys) / n
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((x - xbar) * (x - xbar) for x in xs)
    slope = sxy / sxx
    return slope, ybar - slope * xbar


def growth_rate_experiment(
    masses,
    omega: float,
    amplitude: float = 1e-6,
    horizon: float = 200.0,
    step: float = 0.01,
    record_stride: int = 10,
) -> GrowthFit:
    """Measure the growth rate of a seeded perturbation in the rotating frame.

    ``masses`` is a mass triple, whose canonical ring is checked and
    linearized here, or the ``LinearizationBlocks`` a caller has already
    assembled at a ring, whose masses and ring are then used as they are.
    The ring is perturbed along the vertical mode: the exact unstable
    eigenvector when the rate is subcritical, otherwise the same shape used
    as a neutral probe.  Deviations are fit on the window where they exceed
    ``GROWTH_FLOOR_FACTOR`` times the amplitude but stay below
    ``GROWTH_CEILING``, where growth is linear before nonlinear saturation;
    the run stops once a deviation passes twice the ceiling.  Fewer than
    ``GROWTH_MIN_POINTS`` samples in the window raises NoGrowthWindow, the
    expected outcome at supercritical rates, carrying the rate's verdict and
    expected rate.  An amplitude that is not finite and positive raises
    InvalidConfiguration.
    """
    if not math.isfinite(amplitude):
        raise InvalidConfiguration("amplitude %r is not finite" % (amplitude,))
    if amplitude <= 0.0:
        raise InvalidConfiguration("amplitude %r is not positive" % (amplitude,))
    if isinstance(masses, LinearizationBlocks):
        blocks = masses
    else:
        blocks = ring_pipeline(masses)[3]
    mv, ring = blocks.masses, blocks.ring
    lam1, u = vertical_mode(blocks)
    verdict, exponent = rate_verdict(omega, lam1)
    scale = exponent or math.sqrt(lam1)
    n = mv.n
    m = mv.array()
    w = np.zeros(4 * n)
    w[0:n] = u / (m * scale)
    w[2 * n : 3 * n] = u
    w /= np.max(np.abs(w))

    rest = relative_equilibrium(mv, ring, omega).as_vector()
    nsteps = step_count(horizon, step, record_stride)
    samples = _midpoint_run(
        mv, omega, (rest + amplitude * w).tolist(), step, nsteps, record_stride
    )
    rest = rest.tolist()
    times = []
    devs = []
    for t, x in samples:
        dev = max([abs(a - b) for a, b in zip(x, rest)])
        times.append(t)
        devs.append(dev)
        if t > 0.0 and dev > 2.0 * GROWTH_CEILING:
            break
    times_arr = np.array(times)
    devs_arr = np.array(devs)
    floor = GROWTH_FLOOR_FACTOR * amplitude
    window = [(t, d) for t, d in zip(times, devs) if floor <= d <= GROWTH_CEILING]
    count = len(window)
    max_dev = float(np.max(devs_arr))
    if count < GROWTH_MIN_POINTS:
        raise NoGrowthWindow(
            "only %d samples between %.3g and %.3g" % (count, floor, GROWTH_CEILING),
            max_deviation=max_dev,
            verdict=verdict,
            expected_rate=exponent or None,
        )
    tw = [t for t, _ in window]
    logd = [math.log(d) for _, d in window]
    slope, intercept = _line_fit(tw, logd)
    residual = max(abs(y - (slope * t + intercept)) for t, y in zip(tw, logd))
    return GrowthFit(
        omega=float(omega),
        amplitude=float(amplitude),
        rate=slope,
        expected_rate=exponent or None,
        n_points=count,
        window=(tw[0], tw[-1]),
        log_residual=residual,
        max_deviation=max_dev,
        times=times_arr,
        deviations=devs_arr,
    )
