"""Reduction of the three-body equatorial dynamics by its rotational symmetry.

Mass-weighted angle coordinates split off the conserved total angular
momentum; on a fixed momentum level the remaining two degrees of freedom
carry a reduced Hamiltonian whose rest points are the ring fixed points.
The Hessian of the force function in the gap variables certifies those rest
points as strict minima, giving nonlinear stability of the circular motions
within the equatorial subsystem.  The reduced Hamiltonian is separable, so
``integrate_reduced`` follows its flow with the explicit fourth-order
Yoshida composition of leapfrog, one step of it written out over float
locals with the gap gradient inline.  Each rule of the chart is written
once: the mass check of ``JacobiConstants.from_masses``, the gaps of
``_gaps`` (the Yoshida-4 step and the separation check write them out
again), the singular-gap guard ``_gap_sine`` and the reduced energy
``_reduced_energy``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfiguration, SingularConfiguration
from .fixedpoints import (
    CONSISTENCY_TOL,
    AdmissibleMassTriple,
    TriangleShape,
    _roots,
    as_mass_triple,
    check_shape_mass_pair,
    shape_from_masses,
)
from .geometry import SINGULAR_TOL, MassVector, _check_finite, frozen_value
from .integrators import (
    _YOSHIDA_DRIFTS,
    _YOSHIDA_KICKS,
    SEPARATION_FLOOR,
    fixed_steps,
    step_count,
)
from .integrators import midpoint_step  # noqa: F401  perfbench's tracer test wraps it here


@frozen_value
class JacobiConstants:
    """The three masses and the combinations of them entering the
    symmetry-adapted angle coordinates; ``from_masses`` checks the masses
    through MassVector, apart from an AdmissibleMassTriple's, which its
    construction checked."""

    masses: tuple
    mbar: float
    nu1: float
    nu2: float
    nu3: float
    nu4: float

    @classmethod
    def from_masses(cls, masses) -> "JacobiConstants":
        if isinstance(masses, AdmissibleMassTriple):
            values = masses.as_tuple()
        else:
            values = (masses if isinstance(masses, MassVector) else MassVector(masses)).masses
        m1, m2, m3 = values
        mbar = m1 + m2 + m3
        m12 = m1 + m2
        return cls(
            masses=values,
            mbar=mbar,
            nu1=m1 / m12,
            nu2=m2 / m12,
            nu3=m1 * m2 / m12,
            nu4=m12 * m3 / mbar,
        )


def _angle_matrix(jc: JacobiConstants) -> np.ndarray:
    """Matrix sending raw longitudes to (mean angle, first gap, second combination)."""
    m1, m2, m3 = jc.masses
    return np.array(
        [
            [m1 / jc.mbar, m2 / jc.mbar, m3 / jc.mbar],
            [-1.0, 1.0, 0.0],
            [-jc.nu1, -jc.nu2, 1.0],
        ]
    )


def _momentum_matrix(jc: JacobiConstants) -> np.ndarray:
    """Contragredient momentum map, written mass-weighted so no inverse is needed.

    With A the angle transform, D the mass diagonal and D' the reduced-mass
    diagonal, the momentum map is B = D' A D^-1; the congruence A^T B = I
    encodes that the pairing of angles and momenta is preserved.
    """
    a = _angle_matrix(jc)
    dprime = np.diag([jc.mbar, jc.nu3, jc.nu4])
    dinv = np.diag([1.0 / m for m in jc.masses])
    return dprime @ a @ dinv


@frozen_value
class ReducedState:
    """Point of the reduced phase space on a fixed momentum level.

    phi1 is the gap from body 1 to body 2; phi2 combines body 3 with the
    mass-weighted pair angle.  momentum_level records the conserved total
    angular momentum of the underlying full state.  A non-finite entry
    raises InvalidConfiguration.
    """

    phi1: float
    phi2: float
    p1: float
    p2: float
    momentum_level: float = 0.0

    def __post_init__(self):
        _check_finite(
            "reduced state", (self.phi1, self.phi2, self.p1, self.p2, self.momentum_level)
        )

    def as_vector(self) -> np.ndarray:
        return np.array([self.phi1, self.phi2, self.p1, self.p2])

    @classmethod
    def from_vector(cls, vec, momentum_level: float = 0.0) -> "ReducedState":
        v = [float(x) for x in vec]
        if len(v) != 4:
            raise InvalidConfiguration("reduced state vector must have length 4")
        return cls(v[0], v[1], v[2], v[3], momentum_level)

    def separations(self, masses) -> tuple:
        """The three pair separation angles (signed) determined by this state."""
        jc = JacobiConstants.from_masses(masses)
        return _gaps(jc.nu1, jc.nu2, self.phi1, self.phi2)


def _gaps(nu1, nu2, phi1, phi2):
    """The three signed pair gaps of the reduced angles (phi1, phi2)."""
    return phi1, phi2 - nu1 * phi1, phi2 + nu2 * phi1


def to_jacobi(longitudes, momenta, masses):
    """Transform raw equatorial angles and momenta to the reduced chart.

    Returns (mean_angle, ReducedState, total_momentum); the total momentum
    equals the plain sum of the input momenta and is stored on the state as
    its momentum level.
    """
    phis = np.array([float(p) for p in longitudes])
    ps = np.array([float(p) for p in momenta])
    if phis.shape != (3,) or ps.shape != (3,):
        raise InvalidConfiguration("to_jacobi expects three angles and three momenta")
    jc = JacobiConstants.from_masses(masses)
    new_phi = _angle_matrix(jc) @ phis
    new_p = _momentum_matrix(jc) @ ps
    p_total = float(ps[0] + ps[1] + ps[2])
    mean, phi1, phi2 = new_phi.tolist()
    state = ReducedState(phi1, phi2, *new_p.tolist()[1:], p_total)
    return mean, state, p_total


def _gap_sine(x: float) -> float:
    """sin x of a signed gap x; at or below SINGULAR_TOL in size it raises."""
    s = math.sin(x)
    if abs(s) <= SINGULAR_TOL:
        raise SingularConfiguration("reduced separation %.17g is singular" % x)
    return s


def _force_value(jc: JacobiConstants, phi1: float, phi2: float) -> float:
    """The force function at the reduced angles; a gap d has cotangent cos d / |sin d|."""
    m1, m2, m3 = jc.masses
    gaps = _gaps(jc.nu1, jc.nu2, phi1, phi2)
    ca, cb, cc = (math.cos(d) / abs(_gap_sine(d)) for d in gaps)
    return m1 * m2 * ca + m2 * m3 * cb + m1 * m3 * cc


def _reduced_energy(jc: JacobiConstants, phi1, phi2, p1, p2, omega=0.0) -> float:
    """Reduced energy at (phi1, phi2, p1, p2) on the level of rate omega.

    Momenta whose squares overflow a float raise InvalidConfiguration.
    """
    try:
        kinetic = 0.5 * (p1 ** 2 / jc.nu3 + p2 ** 2 / jc.nu4)
    except OverflowError:
        raise InvalidConfiguration(
            "reduced kinetic energy overflows at momenta (%r, %r)" % (p1, p2)
        ) from None
    return kinetic - _force_value(jc, phi1, phi2) + 0.5 * jc.mbar * omega * omega


def reduced_force_function(state: ReducedState, masses) -> float:
    """Force function evaluated through the reduced angles."""
    return _force_value(JacobiConstants.from_masses(masses), state.phi1, state.phi2)


def reduced_hamiltonian(state: ReducedState, masses, omega: float = 0.0) -> float:
    """Reduced energy on the momentum level of a rigid rotation with rate omega."""
    jc = JacobiConstants.from_masses(masses)
    return _reduced_energy(jc, state.phi1, state.phi2, state.p1, state.p2, omega)


def rest_point_from_shape(shape: TriangleShape, masses, omega: float = 0.0) -> ReducedState:
    """Reduced rest point sitting over the ring with the given shape."""
    jc = JacobiConstants.from_masses(masses)
    return ReducedState(
        phi1=shape.alpha,
        phi2=shape.beta + jc.nu1 * shape.alpha,
        p1=0.0,
        p2=0.0,
        momentum_level=jc.mbar * omega,
    )


def hessian_alpha_beta(
    shape: TriangleShape, masses, tol: float = CONSISTENCY_TOL
) -> np.ndarray:
    """Hessian of the force function in the gap variables at a consistent pair.

    The pair must satisfy the fixed-point proportionality relations to the
    given tolerance; at such points both eigenvalues are negative, making
    the ring shape a strict maximum of the force function on the level.
    """
    a, c, d = _gap_hessian(shape, masses, tol)
    return np.array([[a, c], [c, d]])


def _gap_hessian(shape: TriangleShape, masses, tol: float) -> tuple:
    """The entries (H11, H12, H22) of ``hessian_alpha_beta`` as floats."""
    check_shape_mass_pair(shape, masses, tol)
    m1, m2, m3 = as_mass_triple(masses).as_tuple()
    sa, ca = math.sin(shape.alpha), math.cos(shape.alpha)
    sb, cb = math.sin(shape.beta), math.cos(shape.beta)
    sab = math.sin(shape.alpha + shape.beta)
    cab = math.cos(shape.alpha + shape.beta)
    cross = -m1 * m3 * cab / sab ** 3
    h11 = m1 * m2 * ca / sa ** 3 + cross
    h22 = m2 * m3 * cb / sb ** 3 + cross
    return 2.0 * h11, 2.0 * cross, 2.0 * h22


def hessian_determinant_closed_form(shape: TriangleShape, masses) -> float:
    """Closed form for the determinant of half the gap Hessian."""
    m1, m2, m3 = as_mass_triple(masses).as_tuple()
    sa = math.sin(shape.alpha)
    sb = math.sin(shape.beta)
    return m1 * m3 * m2 ** 2 / (sa ** 2 * sb ** 2)


@frozen_value
class LyapunovCertificate:
    """Certificate that a ring rest point minimizes the reduced energy.

    The gap Hessian of the force function must be negative definite, and
    the full second variation of the reduced Hamiltonian (kinetic block
    plus negated potential Hessian in the reduced angles) must be positive
    definite.  ``certified`` collects both checks.
    """

    shape: TriangleShape
    hessian: np.ndarray
    eigenvalues: tuple
    trace: float
    determinant_half: float
    determinant_closed_form: float
    reduced_min_eigenvalue: float
    certified: bool


def lyapunov_certificate(masses, tol: float = CONSISTENCY_TOL) -> LyapunovCertificate:
    """Build the stability certificate for the ring fixed point of a triple,
    in closed forms on floats: each 2-by-2 pair by ``fixedpoints._roots``, and
    the block-diagonal second variation's smallest eigenvalue as the least of
    its potential block's smaller one, 1/nu3 and 1/nu4."""
    triple = as_mass_triple(masses)
    shape = shape_from_masses(triple)
    a, c, d = _gap_hessian(shape, triple, tol)
    eigs = sorted(_roots(a, c, c, d))
    jc = JacobiConstants.from_masses(triple)
    # chain rule to the reduced angles: -(B^T H B) with B = [[1, 0], [-nu1, 1]]
    nu = jc.nu1
    off = -(c - nu * d)
    potential = _roots(-(a - nu * c - nu * (c - nu * d)), off, off, -d)
    min_eig = min(min(potential), 1.0 / jc.nu3, 1.0 / jc.nu4)
    return LyapunovCertificate(
        shape=shape,
        hessian=np.array([[a, c], [c, d]]),
        eigenvalues=(eigs[0], eigs[1]),
        trace=a + d,
        determinant_half=(a * d - c * c) / 4,
        determinant_closed_form=hessian_determinant_closed_form(shape, triple),
        reduced_min_eigenvalue=min_eig,
        certified=eigs[1] < 0.0 and min_eig > 0.0,
    )


@frozen_value
class ReducedTrajectory:
    """Sampled reduced trajectory with its energy drift."""

    times: np.ndarray
    states: np.ndarray
    energy_drift: float
    momentum_level: float


def integrate_reduced(
    masses,
    initial: ReducedState,
    horizon: float,
    step: float = 1e-3,
    record_stride: int = 10,
) -> ReducedTrajectory:
    """Fixed-step integration of the reduced system.

    The reduced Hamiltonian is separable, so each step is the explicit
    fourth-order symplectic composition of leapfrog.  Records every
    ``record_stride``-th step (plus the endpoints) and reports the largest
    deviation of the reduced energy from its initial value over the
    recorded samples.  The masses are
    checked by ``JacobiConstants.from_masses``; ``ReducedState`` checks
    that the initial state is finite.  After every step each of the three
    separation sines must keep the sign it started with and stay above
    SEPARATION_FLOOR, so a step that jumps across a collision is caught; a
    step that fails or breaks this raises StepFailure with its time and step
    index (0 for an initial state at the floor).
    """
    jc = JacobiConstants.from_masses(masses)
    m1, m2, m3 = jc.masses
    nu1, nu2 = jc.nu1, jc.nu2
    advance = _yoshida4_advance(m1, m2, m3, nu1, nu2, 1.0 / jc.nu3, 1.0 / jc.nu4, step)
    nsteps = step_count(horizon, step, record_stride)
    x0 = initial.as_vector().tolist()
    check = _separation_check(nu1, nu2, x0)
    times = []
    states = []
    drift = 0.0
    for t, x in fixed_steps(advance, x0, step, nsteps, record_stride, check):
        energy = _reduced_energy(jc, *x)
        if not states:
            e0 = energy
        drift = max(drift, abs(energy - e0))
        times.append(t)
        states.append(x)
    return ReducedTrajectory(
        times=np.array(times),
        states=np.array(states),
        energy_drift=drift,
        momentum_level=initial.momentum_level,
    )


def _yoshida4_advance(m1, m2, m3, nu1, nu2, inv_nu3, inv_nu4, h):
    """The reduced flow's step of size h on a list (phi1, phi2, p1, p2): the
    Yoshida-4 composition of ``integrators``, drift, kick, ..., drift.

    Each of the three kicks is the gradient of the reduced force function
    in (phi1, phi2) written out: the cotangent of a gap d has derivative
    -sign(sin d) / sin^2 d.  A singular gap raises through ``_gap_sine``, so
    the step gives the bits and the errors of the composition's loop over a
    force function.
    """
    k12, k23, k13 = m1 * m2, m2 * m3, m1 * m3
    kb, kc = nu1 * m2 * m3, nu2 * m1 * m3
    stages = tuple((c * h, d * h) for c, d in zip(_YOSHIDA_DRIFTS, _YOSHIDA_KICKS))
    last = _YOSHIDA_DRIFTS[-1] * h
    sin, copysign, tol = math.sin, math.copysign, SINGULAR_TOL

    def advance(x):
        q1, q2, p1, p2 = x
        for ch, dh in stages:
            q1 += ch * (p1 * inv_nu3)
            q2 += ch * (p2 * inv_nu4)
            db, dc = q2 - nu1 * q1, q2 + nu2 * q1
            sa, sb, sc = sin(q1), sin(db), sin(dc)
            if abs(sa) <= tol or abs(sb) <= tol or abs(sc) <= tol:
                for d in (q1, db, dc):
                    _gap_sine(d)
            ga = -copysign(1.0, sa) / (sa * sa)
            gb = -copysign(1.0, sb) / (sb * sb)
            gc = -copysign(1.0, sc) / (sc * sc)
            p1 += dh * (k12 * ga - kb * gb + kc * gc)
            p2 += dh * (k23 * gb + k13 * gc)
        q1 += last * (p1 * inv_nu3)
        q2 += last * (p2 * inv_nu4)
        return [q1, q2, p1, p2]

    return advance


def _separation_check(nu1, nu2, x0):
    """Check that the separations of a reduced state stay where they started.

    The separations are the gaps of ``_gaps``.  A sine can change sign only
    through a collision or an antipodal alignment, so the returned check
    raises SingularConfiguration when a sine, taken with the sign it has at
    ``x0``, is at or below SEPARATION_FLOOR.  It runs after every step, so
    it tests the three sines written out first; only a state that fails
    there takes the loop, which names the first failing separation.
    """

    def sines(x):
        return list(map(math.sin, _gaps(nu1, nu2, x[0], x[1])))

    start = sines(x0)
    sa, sb, sc = signs = [math.copysign(1.0, s) for s in start]
    sin, floor = math.sin, SEPARATION_FLOOR

    def check(x):
        q1, q2 = x[0], x[1]
        if (
            sin(q1) * sa > floor
            and sin(q2 - nu1 * q1) * sb > floor
            and sin(q2 + nu2 * q1) * sc > floor
        ):
            return
        for k, s in enumerate(sines(x)):
            if not s * signs[k] > SEPARATION_FLOOR:
                raise SingularConfiguration(
                    "reduced separation %d is at or past a singular configuration "
                    "(sine %.3g, %.3g at the start, floor %.3g)"
                    % (k + 1, s, start[k], SEPARATION_FLOOR)
                )

    return check
