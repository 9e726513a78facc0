"""Equatorial fixed points of three bodies: the criterion and the mass-shape maps.

A ring's residual and both coupling blocks come from one pass over its pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateShape,
    InconsistentPair,
    InvalidConfiguration,
    NoConvergence,
    NotAdmissible,
    SingularConfiguration,
)
from .geometry import (
    SINGULAR_TOL,
    TWO_PI,
    MassVector,
    RingConfiguration,
    _check_bodies,
    _pair_sine,
    frozen_value,
)

# Clamp arccos arguments only this close to +-1; anything further out is a
# genuine domain violation rather than rounding.
ACOS_CLAMP_TOL = 1e-14

# Newton stops once the residual max-norm falls below NEWTON_TOL, and fails
# after NEWTON_MAX_ITERATIONS iterations; a mass-shape pair is consistent
# while its relations' relative defect stays within CONSISTENCY_TOL.
NEWTON_TOL = 1e-11
NEWTON_MAX_ITERATIONS = 100
CONSISTENCY_TOL = 1e-8


def checked_tolerance(name: str, value: float, gateless: bool = False) -> float:
    """``value``, a bound on a nonnegative defect: one that is not finite and
    positive raises InvalidConfiguration, but for +inf where ``gateless``
    lets it switch the gate off."""
    if not (0.0 < value < math.inf or (gateless and value == math.inf)):
        raise InvalidConfiguration("tolerance %s must be %s, not %r" % (
            name, "positive" if gateless else "finite and positive", value))
    return value


@frozen_value
class TriangleShape:
    """Ring shape of three bodies given by consecutive gaps alpha and beta.

    Valid shapes satisfy 0 < alpha < pi, 0 < beta < pi and
    pi < alpha + beta < 2*pi, which keeps all three pair separations inside
    (0, pi).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        self.__dict__.update(alpha=a, beta=b)
        if not (0.0 < a < math.pi and 0.0 < b < math.pi):
            raise DegenerateShape("gaps must lie strictly inside (0, pi)")
        if not (math.pi < a + b < TWO_PI):
            raise DegenerateShape(
                "gap sum %.17g must lie strictly inside (pi, 2*pi)" % (a + b)
            )

    @property
    def d13(self) -> float:
        return TWO_PI - (self.alpha + self.beta)


def admissibility_value(m1: float, m2: float, m3: float) -> float:
    """Value of the admissibility inequality for a unit-sum mass triple,
    negative inside the region; numpy arrays of masses broadcast."""
    return (
        m1 * m1 * m2 * m2
        + m1 * m1 * m3 * m3
        + m2 * m2 * m3 * m3
        - 2.0 * m1 * m2 * m3
    )


class AdmissibilityCheck(NamedTuple):
    admissible: bool
    value: float


def _unit_sum(m1, m2, m3) -> tuple:
    """The raw triple scaled to total mass one; MassVector checks the masses.

    A triple whose float sum overflows is divided by its largest mass first;
    every other triple is divided by its sum alone, so it keeps its bits.
    """
    raw = MassVector((m1, m2, m3)).masses
    total = sum(raw)
    if math.isinf(total):
        top = max(raw)
        raw = tuple(m / top for m in raw)
        total = sum(raw)
    return tuple(m / total for m in raw)


def is_admissible(m1: float, m2: float, m3: float) -> AdmissibilityCheck:
    """Check whether a raw positive triple (normalized internally) admits a fixed point."""
    value = admissibility_value(*_unit_sum(m1, m2, m3))
    return AdmissibilityCheck(value < 0.0, value)


@frozen_value
class AdmissibleMassTriple:
    """Unit-sum positive mass triple strictly inside the admissible region.

    Raw triples are normalized to total mass one on construction; the
    admissibility inequality must then be strictly negative.
    """

    m1: float
    m2: float
    m3: float

    def __post_init__(self):
        m1, m2, m3 = _unit_sum(self.m1, self.m2, self.m3)
        value = admissibility_value(m1, m2, m3)
        if not (value < 0.0):
            raise NotAdmissible(
                "inequality value %.17g is not negative for (%.17g, %.17g, %.17g)"
                % (value, m1, m2, m3)
            )
        self.__dict__.update(m1=m1, m2=m2, m3=m3)

    def as_tuple(self) -> tuple:
        return (self.m1, self.m2, self.m3)

    def mass_vector(self) -> MassVector:
        return MassVector(self.as_tuple())


def as_mass_triple(masses) -> AdmissibleMassTriple:
    """Coerce a triple-like input to an AdmissibleMassTriple."""
    if isinstance(masses, AdmissibleMassTriple):
        return masses
    if isinstance(masses, MassVector):
        masses = masses.masses
    values = tuple(float(m) for m in masses)
    _check_bodies(len(values))
    return AdmissibleMassTriple(*values)


def fixed_point_residual(masses: MassVector, config: RingConfiguration) -> np.ndarray:
    """Residual vector of the equatorial fixed-point criterion.

    Entry k holds the sum over the other bodies of
    m_k m_i sin(phi_k - phi_i) / sin^3(d_ki).  Pair terms are accumulated
    with exactly opposite signs, so the entries sum to zero identically.
    """
    if not isinstance(config, RingConfiguration):
        raise InvalidConfiguration("fixed_point_residual expects a RingConfiguration")
    return np.array(_ring_pass(masses.masses, config.longitudes)[0])


def _ring_pass(m, phis) -> tuple:
    """(residual, vertical, tangential) of masses ``m`` at longitudes ``phis``
    as tuples of floats, by the formulas of ``fixed_point_residual`` and
    ``stability.assemble_blocks``; a singular pair raises SingularConfiguration.

    Straight-line code over the pairs in ``_pair_table``'s order (1,2), (1,3),
    (2,3): all three cosines and sines, and their errors, come before any
    sum, and each sum starts from 0.0, so it gives the bits and the errors of
    the loop over the pairs that ``tests/test_ring_pass.py`` keeps as its oracle.
    """
    m1, m2, m3 = m
    p1, p2, p3 = phis
    sin, cos = math.sin, math.cos
    c12 = cos(p1 - p2)
    s12 = _pair_sine(0, 1, c12, None, None, None, phis)
    c13 = cos(p1 - p3)
    s13 = _pair_sine(0, 2, c13, None, None, None, phis)
    c23 = cos(p2 - p3)
    s23 = _pair_sine(1, 2, c23, None, None, None, phis)

    mm = m1 * m2
    s3 = s12 * s12 * s12
    t = mm * sin(p1 - p2) / s3
    r1, r2 = 0.0 + t, 0.0 - t
    f12 = mm / s3
    e = f12 * c12
    v11, v22 = 0.0 - e, 0.0 - e
    g12 = -2.0 * f12 * c12
    t11, t22 = 0.0 - g12, 0.0 - g12

    mm = m1 * m3
    s3 = s13 * s13 * s13
    t = mm * sin(p1 - p3) / s3
    r1, r3 = r1 + t, 0.0 - t
    f13 = mm / s3
    e = f13 * c13
    v11, v33 = v11 - e, 0.0 - e
    g13 = -2.0 * f13 * c13
    t11, t33 = t11 - g13, 0.0 - g13

    mm = m2 * m3
    s3 = s23 * s23 * s23
    t = mm * sin(p2 - p3) / s3
    r2, r3 = r2 + t, r3 - t
    f23 = mm / s3
    e = f23 * c23
    v22, v33 = v22 - e, v33 - e
    g23 = -2.0 * f23 * c23
    t22, t33 = t22 - g23, t33 - g23
    return (
        (r1, r2, r3),
        ((v11, f12, f13), (f12, v22, f23), (f13, f23, v33)),
        ((t11, g12, g13), (g12, t22, g23), (g13, g23, t33)),
    )


def _residual_norm(res) -> float:
    """max |r_k| of a ring-pass residual, nan if an entry is nan, as numpy's
    max of abs gives it."""
    a, b, c = abs(res[0]), abs(res[1]), abs(res[2])
    top = b if b > a or b != b else a
    return c if c > top or c != c else top


def _roots(a: float, b: float, c: float, d: float, det: float | None = None) -> list:
    """Eigenvalues of [[a, b], [c, d]], larger magnitude first (for a product
    x @ y, the squares of those of [[0, x], [y, 0]]).  Scaled to entries of at
    most 1, the larger comes from the trace and the discriminant clamped at 0
    (equal masses' double root stays real), the smaller as the determinant,
    ``det`` if given, else a d - b c, over the larger."""
    scale = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
    a, b, c, d = a / scale, b / scale, c / scale, d / scale
    half = (a + d) / 2
    root = math.sqrt(max((a - d) ** 2 / 4 + b * c, 0.0))
    big = half - root if half < 0.0 else half + root
    if det is None:
        return [big * scale, (a * d - b * c) / big * scale if big else 0.0]
    return [big * scale, det / (big * scale) if big else 0.0]


def shape_from_masses(masses) -> TriangleShape:
    """Invert the mass map: recover the unique ring shape of an admissible triple."""
    triple = as_mass_triple(masses)
    m1, m2, m3 = triple.as_tuple()
    cos_alpha = (m1 * m2 - m3 * (m1 + m2)) / (2.0 * m3 * math.sqrt(m1 * m2))
    cos_beta = (m3 * (m2 - m1) - m1 * m2) / (2.0 * m1 * math.sqrt(m2 * m3))
    angles = []
    for c in (cos_alpha, cos_beta):
        if abs(c) > 1.0:
            if abs(c) > 1.0 + ACOS_CLAMP_TOL:
                raise NotAdmissible(
                    "arccos argument %.17g leaves [-1, 1] beyond rounding" % c
                )
            c = math.copysign(1.0, c)
        angles.append(math.acos(c))
    return TriangleShape(angles[0], angles[1])


def masses_from_shape(shape: TriangleShape) -> AdmissibleMassTriple:
    """Map a ring shape to the unique unit-sum mass triple fixing it."""
    sa = math.sin(shape.alpha)
    sb = math.sin(shape.beta)
    sab = math.sin(shape.alpha + shape.beta)
    if abs(sab) <= SINGULAR_TOL or abs(sb) <= SINGULAR_TOL:
        raise DegenerateShape("shape sits on the degenerate boundary")
    w1 = (sa * sa) / (sb * sb)
    w2 = (sa * sa) / (sab * sab)
    return AdmissibleMassTriple(w1, w2, 1.0)


def ring_from_shape(shape: TriangleShape) -> RingConfiguration:
    """Canonical equatorial ring (0, alpha, alpha + beta) of a shape."""
    return RingConfiguration((0.0, shape.alpha, shape.alpha + shape.beta))


def shape_mass_defect(shape: TriangleShape, masses) -> float:
    """Largest relative defect of the three fixed-point proportionality relations."""
    triple = as_mass_triple(masses)
    m1, m2, m3 = triple.as_tuple()
    sa2 = math.sin(shape.alpha) ** 2
    sb2 = math.sin(shape.beta) ** 2
    sab2 = math.sin(shape.alpha + shape.beta) ** 2
    pairs = (
        (m2 * sab2, m3 * sa2),
        (m1 * sb2, m3 * sa2),
        (m2 * sab2, m1 * sb2),
    )
    worst = 0.0
    for lhs, rhs in pairs:
        scale = max(abs(lhs), abs(rhs), 1e-300)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst


def check_shape_mass_pair(shape: TriangleShape, masses, tol: float = CONSISTENCY_TOL):
    """Raise InconsistentPair unless masses and shape satisfy the criterion
    relations to ``tol``, which ``checked_tolerance`` checks first."""
    checked_tolerance("tol", tol)
    defect = shape_mass_defect(shape, masses)
    if defect > tol:
        raise InconsistentPair(
            "mass-shape relations violated (relative defect %.3g > %.3g)" % (defect, tol)
        )


@frozen_value
class IsoscelesVerdict:
    """Outcome of the isosceles admissibility test for a raw triple."""

    masses: tuple
    isosceles: bool
    bound_margin: float
    bound_holds: bool
    admissible: bool
    value: float

    @property
    def alpha_beta_gap(self) -> float | None:
        """|alpha - beta| of the ring shape, or None if the triple is not admissible."""
        if not self.admissible:
            return None
        shape = shape_from_masses(AdmissibleMassTriple(*self.masses))
        return abs(shape.alpha - shape.beta)


def isosceles_bound_check(m1: float, m2: float, m3: float) -> IsoscelesVerdict:
    """Test the equal-outer-mass criterion: admissible iff m1 = m3 and m1 < 4 m2."""
    t = _unit_sum(m1, m2, m3)
    value = admissibility_value(*t)
    margin = 4.0 * t[1] - t[0]
    return IsoscelesVerdict(
        masses=t,
        isosceles=abs(t[0] - t[2]) <= 1e-12,
        bound_margin=margin,
        bound_holds=margin > 0.0,
        admissible=value < 0.0,
        value=value,
    )


def solve_fixed_point_numeric(
    masses: MassVector,
    initial: RingConfiguration,
    tol: float = NEWTON_TOL,
) -> RingConfiguration:
    """Newton solve of the fixed-point criterion with the first longitude pinned.

    Parameters
    ----------
    masses : MassVector
        Masses of the three bodies.
    initial : RingConfiguration
        Starting guess; the returned configuration keeps its first body at
        longitude zero.
    tol : float
        Convergence threshold on the residual max-norm; NoConvergence is
        raised if it is not met within NEWTON_MAX_ITERATIONS iterations.  A
        threshold that is not finite and positive raises InvalidConfiguration.

    The Jacobian is minus the tangential block with the pinned first row and
    column removed, from the pass over the pairs that gave the residual.  The
    iterates, the steps and the 2-by-2 solve, by Cramer's rule, are floats; a
    zero or non-finite determinant raises NoConvergence.
    """
    checked_tolerance("tol", tol)
    m = masses.masses
    phis = initial.longitudes
    res, _, tangential = _ring_pass(m, phis)
    norm = _residual_norm(res)
    for _ in range(NEWTON_MAX_ITERATIONS):
        if norm < tol:
            break
        _, (_, a, b), (_, c, d) = tangential
        det = a * d - b * c
        if not (det != 0.0 and math.isfinite(det)):
            raise NoConvergence("singular Newton system: determinant %r" % det)
        s1 = (res[1] * d - b * res[2]) / det
        s2 = (a * res[2] - c * res[1]) / det
        p0, p1, p2 = phis
        # damped update: halve until the residual norm stops increasing
        scale = 1.0
        for _halving in range(40):
            trial = (p0, p1 + scale * s1, p2 + scale * s2)
            try:
                trial_res, _, trial_tangential = _ring_pass(m, trial)
            except SingularConfiguration:
                if scale <= 2.0 ** -39:
                    raise
                scale *= 0.5
                continue
            trial_norm = _residual_norm(trial_res)
            if trial_norm < norm or scale <= 2.0 ** -39:
                break
            scale *= 0.5
        phis, res, tangential, norm = trial, trial_res, trial_tangential, trial_norm
    else:
        raise NoConvergence(
            "residual %.3g above %.3g after %d iterations"
            % (norm, tol, NEWTON_MAX_ITERATIONS)
        )
    try:
        return RingConfiguration(phis)
    except InvalidConfiguration as exc:
        raise NoConvergence("converged to a non-canonical ring: %s" % exc) from None
