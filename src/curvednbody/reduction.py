"""Reduction of the three-body equatorial dynamics by its rotational symmetry.

Mass-weighted angle coordinates split off the conserved total angular
momentum; on a fixed momentum level the remaining two degrees of freedom
carry a reduced Hamiltonian whose rest points are the ring fixed points.
The Hessian of the force function in the gap variables certifies those rest
points as strict minima, giving nonlinear stability of the circular motions
within the equatorial subsystem.  The reduced Hamiltonian is separable, so
``integrate_reduced`` follows its flow with the explicit fourth-order
Yoshida composition of leapfrog by default, one step of it written out over
float locals with the gap gradient inline, and with the implicit midpoint
rule of the full system as the cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfiguration, SingularConfiguration
from .fixedpoints import (
    CONSISTENCY_TOL,
    TriangleShape,
    as_mass_triple,
    check_shape_mass_pair,
    shape_from_masses,
)
from .geometry import SINGULAR_TOL, MassVector
from .integrators import (
    _YOSHIDA_DRIFTS,
    _YOSHIDA_KICKS,
    SEPARATION_FLOOR,
    fixed_steps,
    midpoint_step,
    step_count,
)


@dataclass(frozen=True)
class JacobiConstants:
    """Mass combinations entering the symmetry-adapted angle coordinates."""

    mbar: float
    nu1: float
    nu2: float
    nu3: float
    nu4: float

    @classmethod
    def from_masses(cls, masses) -> "JacobiConstants":
        m1, m2, m3 = _triple_values(masses)
        mbar = m1 + m2 + m3
        m12 = m1 + m2
        return cls(
            mbar=mbar,
            nu1=m1 / m12,
            nu2=m2 / m12,
            nu3=m1 * m2 / m12,
            nu4=m12 * m3 / mbar,
        )


def _triple_values(masses):
    if isinstance(masses, MassVector):
        values = masses.masses
    elif hasattr(masses, "as_tuple"):
        values = masses.as_tuple()
    else:
        values = tuple(float(m) for m in masses)
    if len(values) != 3:
        raise InvalidConfiguration("reduction requires exactly three bodies")
    return values


def angle_transform_matrix(masses) -> np.ndarray:
    """Matrix sending raw longitudes to (mean angle, first gap, second combination)."""
    m1, m2, m3 = _triple_values(masses)
    jc = JacobiConstants.from_masses(masses)
    return np.array(
        [
            [m1 / jc.mbar, m2 / jc.mbar, m3 / jc.mbar],
            [-1.0, 1.0, 0.0],
            [-jc.nu1, -jc.nu2, 1.0],
        ]
    )


def momentum_transform_matrix(masses) -> np.ndarray:
    """Contragredient momentum map, written mass-weighted so no inverse is needed.

    With A the angle transform, D the mass diagonal and D' the reduced-mass
    diagonal, the momentum map is B = D' A D^-1; the congruence A^T B = I
    encodes that the pairing of angles and momenta is preserved.
    """
    m1, m2, m3 = _triple_values(masses)
    jc = JacobiConstants.from_masses(masses)
    a = angle_transform_matrix(masses)
    dprime = np.diag([jc.mbar, jc.nu3, jc.nu4])
    dinv = np.diag([1.0 / m1, 1.0 / m2, 1.0 / m3])
    return dprime @ a @ dinv


@dataclass(frozen=True)
class ReducedState:
    """Point of the reduced phase space on a fixed momentum level.

    phi1 is the gap from body 1 to body 2; phi2 combines body 3 with the
    mass-weighted pair angle.  momentum_level records the conserved total
    angular momentum of the underlying full state.
    """

    phi1: float
    phi2: float
    p1: float
    p2: float
    momentum_level: float = 0.0

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
        return (
            self.phi1,
            self.phi2 - jc.nu1 * self.phi1,
            self.phi2 + jc.nu2 * self.phi1,
        )


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
    a = angle_transform_matrix(masses)
    b = momentum_transform_matrix(masses)
    new_phi = a @ phis
    new_p = b @ ps
    p_total = float(ps[0] + ps[1] + ps[2])
    state = ReducedState(
        phi1=float(new_phi[1]),
        phi2=float(new_phi[2]),
        p1=float(new_p[1]),
        p2=float(new_p[2]),
        momentum_level=p_total,
    )
    return float(new_phi[0]), state, p_total


def _cot_from_angle(x: float) -> float:
    """Cotangent of the geodesic separation for a signed gap angle."""
    s = abs(math.sin(x))
    if s <= SINGULAR_TOL:
        raise SingularConfiguration("reduced separation %.17g is singular" % x)
    return math.cos(x) / s


def reduced_force_function(state: ReducedState, masses) -> float:
    """Force function evaluated through the reduced angles."""
    m1, m2, m3 = _triple_values(masses)
    da, db, dc = state.separations(masses)
    return (
        m1 * m2 * _cot_from_angle(da)
        + m2 * m3 * _cot_from_angle(db)
        + m1 * m3 * _cot_from_angle(dc)
    )


def _cot_derivative(x: float) -> float:
    """Derivative of the separation cotangent with respect to the signed gap."""
    s = math.sin(x)
    if abs(s) <= SINGULAR_TOL:
        raise SingularConfiguration("reduced separation %.17g is singular" % x)
    return -math.copysign(1.0, s) / (s * s)


def _gap_gradient(m1, m2, m3, nu1, nu2, phi1, phi2):
    """Partials of the reduced force function with respect to (phi1, phi2).

    The separations are those of ``ReducedState.separations``.
    """
    ga = _cot_derivative(phi1)
    gb = _cot_derivative(phi2 - nu1 * phi1)
    gc = _cot_derivative(phi2 + nu2 * phi1)
    dv_dphi1 = m1 * m2 * ga - nu1 * m2 * m3 * gb + nu2 * m1 * m3 * gc
    dv_dphi2 = m2 * m3 * gb + m1 * m3 * gc
    return dv_dphi1, dv_dphi2


def reduced_hamiltonian(state: ReducedState, masses, omega: float = 0.0) -> float:
    """Reduced energy on the momentum level of a rigid rotation with rate omega."""
    jc = JacobiConstants.from_masses(masses)
    kinetic = 0.5 * (state.p1 ** 2 / jc.nu3 + state.p2 ** 2 / jc.nu4)
    level_term = 0.5 * jc.mbar * omega * omega
    return kinetic - reduced_force_function(state, masses) + level_term


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
    check_shape_mass_pair(shape, masses, tol)
    m1, m2, m3 = as_mass_triple(masses).as_tuple()
    sa, ca = math.sin(shape.alpha), math.cos(shape.alpha)
    sb, cb = math.sin(shape.beta), math.cos(shape.beta)
    sab = math.sin(shape.alpha + shape.beta)
    cab = math.cos(shape.alpha + shape.beta)
    cross = -m1 * m3 * cab / sab ** 3
    h11 = m1 * m2 * ca / sa ** 3 + cross
    h22 = m2 * m3 * cb / sb ** 3 + cross
    return 2.0 * np.array([[h11, cross], [cross, h22]])


def hessian_determinant_closed_form(shape: TriangleShape, masses) -> float:
    """Closed form for the determinant of half the gap Hessian."""
    m1, m2, m3 = as_mass_triple(masses).as_tuple()
    sa = math.sin(shape.alpha)
    sb = math.sin(shape.beta)
    return m1 * m3 * m2 ** 2 / (sa ** 2 * sb ** 2)


@dataclass(frozen=True)
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
    """Build the stability certificate for the ring fixed point of a triple."""
    triple = as_mass_triple(masses)
    shape = shape_from_masses(triple)
    hess = hessian_alpha_beta(shape, triple, tol)
    eigs = np.linalg.eigvalsh(hess)
    jc = JacobiConstants.from_masses(triple)
    # chain rule from gap variables to the reduced angles
    b = np.array([[1.0, 0.0], [-jc.nu1, 1.0]])
    potential_block = -(b.T @ hess @ b)
    second_variation = np.zeros((4, 4))
    second_variation[:2, :2] = potential_block
    second_variation[2, 2] = 1.0 / jc.nu3
    second_variation[3, 3] = 1.0 / jc.nu4
    min_eig = float(np.linalg.eigvalsh(second_variation)[0])
    det_half = float(np.linalg.det(0.5 * hess))
    certified = bool(eigs[1] < 0.0 and min_eig > 0.0)
    return LyapunovCertificate(
        shape=shape,
        hessian=hess,
        eigenvalues=(float(eigs[0]), float(eigs[1])),
        trace=float(np.trace(hess)),
        determinant_half=det_half,
        determinant_closed_form=hessian_determinant_closed_form(shape, triple),
        reduced_min_eigenvalue=min_eig,
        certified=certified,
    )


@dataclass(frozen=True)
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
    method: str = "yoshida4",
) -> ReducedTrajectory:
    """Fixed-step integration of the reduced system.

    The reduced Hamiltonian is separable, so the default ``method``
    "yoshida4" is the explicit fourth-order symplectic composition of
    leapfrog; "midpoint" is the implicit midpoint rule of the full system,
    kept as the cross-check.  Records every ``record_stride``-th step (plus
    the endpoints) and reports the largest deviation of the reduced energy
    from its initial value over the recorded samples.  A non-finite initial
    state raises InvalidConfiguration.  After every step each of the three
    separation sines must keep the sign it started with and stay above
    SEPARATION_FLOOR, so a step that jumps across a collision is caught; a
    step that fails or breaks this raises StepFailure with its time and step
    index (0 for an initial state at the floor).
    """
    jc = JacobiConstants.from_masses(masses)
    m1, m2, m3 = _triple_values(masses)
    nu1, nu2 = jc.nu1, jc.nu2
    inv_nu3, inv_nu4 = 1.0 / jc.nu3, 1.0 / jc.nu4

    if method == "yoshida4":
        advance = _yoshida4_advance(m1, m2, m3, nu1, nu2, inv_nu3, inv_nu4, step)
    elif method == "midpoint":

        def field(x):
            g1, g2 = _gap_gradient(m1, m2, m3, nu1, nu2, x[0], x[1])
            return [x[2] * inv_nu3, x[3] * inv_nu4, g1, g2]

        def advance(x):
            return midpoint_step(field, x, step)

    else:
        raise InvalidConfiguration("unknown integration method %r" % method)

    nsteps = step_count(horizon, step, record_stride)
    x0 = initial.as_vector().tolist()
    if not all(map(math.isfinite, x0)):
        raise InvalidConfiguration("initial state contains a non-finite entry")
    check = _separation_check(nu1, nu2, x0)
    times = []
    states = []
    drift = 0.0
    for t, x in fixed_steps(advance, x0, step, nsteps, record_stride, check):
        energy = reduced_hamiltonian(
            ReducedState.from_vector(x, initial.momentum_level), masses
        )
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

    Each of the three kicks is ``_gap_gradient`` written out, with the same
    products and the same SingularConfiguration, so the step gives the bits
    of the composition's loop over a force function.
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
                d = next(d for d, s in ((q1, sa), (db, sb), (dc, sc)) if abs(s) <= tol)
                raise SingularConfiguration("reduced separation %.17g is singular" % d)
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

    The separations are those of ``ReducedState.separations``.  A sine can
    change sign only through a collision or an antipodal alignment, so the
    returned check raises SingularConfiguration when a sine, taken with the
    sign it has at ``x0``, is at or below SEPARATION_FLOOR.
    """

    def sines(x):
        phi1, phi2 = x[0], x[1]
        return (
            math.sin(phi1),
            math.sin(phi2 - nu1 * phi1),
            math.sin(phi2 + nu2 * phi1),
        )

    start = sines(x0)
    signs = [math.copysign(1.0, s) for s in start]

    def check(x):
        for k, s in enumerate(sines(x)):
            if not s * signs[k] > SEPARATION_FLOOR:
                raise SingularConfiguration(
                    "reduced separation %d is at or past a singular configuration "
                    "(sine %.3g, %.3g at the start, floor %.3g)"
                    % (k + 1, s, start[k], SEPARATION_FLOOR)
                )

    return check
