"""Spherical kinematics and the cotangent force function on the unit sphere.

Bodies live on the unit sphere, parametrized by colatitude theta in (0, pi)
and longitude phi.  The mutual potential of a pair is proportional to the
cotangent of its geodesic separation, which blows up at collision and at
antipodal alignment; both ends are guarded by a shared tolerance.  A ring's
``thetas`` are all ``EQUATOR`` and its ``phis`` are its longitudes, so
``to_cartesian``, ``force_function``, ``force_gradient`` and
``force_hessian_blocks`` take a ring, a ``SphereConfiguration`` or a
``PhaseState`` directly.

``_pair_table`` is the one place that enumerates the pairs, computes each
separation's cosine and sine and applies that guard; every pairwise sum of
the package reads it.  The only pair code outside it is the three-body
vector field of ``dynamics``, ``_field_three``, which writes its three
pairs out as straight-line code because it is the inner loop of the flow.
Both compute sin d as sqrt(1 - cos^2 d) and hand a small one to
``_recheck_sine``, which recomputes it and raises the one message.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    InvalidConfiguration,
    NonpositiveMass,
    PolarSingularity,
    SingularConfiguration,
)

# Geodesic separations within this distance of 0 or pi are treated as singular.
SINGULAR_TOL = 1e-10

# Colatitudes with sin(theta) at or below this value leave the chart.
POLAR_TOL = 1e-8

# A separation sine read as sqrt(1 - cos^2 d) below this is taken again by
# ``_recheck_sine``: the cheap form cancels near 0 and pi, where its relative
# error grows like eps / sin^2 d (1e-10 at sin d = 1e-3, which the 1/sin^3 d
# pair forces carry into the spectra near the admissibility boundary), and
# reads 1.5e-8 for some exact collisions.  Above 0.1 that error stays below
# 3e-14.  It exceeds SINGULAR_TOL, so a pair whose cheap sine is not
# rechecked cannot be singular.
SINE_RECHECK = 0.1

TWO_PI = 2.0 * math.pi

EQUATOR = math.pi / 2.0  # the colatitude of every ring


def _polar_error(st):
    """The PolarSingularity for the first body whose sin(theta) is at the guard."""
    i = next(i for i, s in enumerate(st) if s <= POLAR_TOL)
    return PolarSingularity("body %d at the polar guard" % (i + 1))


def _check_finite(name, values):
    """Raise InvalidConfiguration if an entry of ``values`` is nan or infinite."""
    if not all(map(math.isfinite, values)):
        raise InvalidConfiguration("%s contains a non-finite entry" % name)


def _check_count(masses, n):
    """Raise InvalidConfiguration unless ``masses`` holds ``n`` bodies."""
    if masses.n != n:
        raise InvalidConfiguration(
            "mass count %d does not match body count %d" % (masses.n, n)
        )


@dataclass(frozen=True)
class MassVector:
    """Positive finite masses of n >= 2 bodies."""

    masses: tuple

    def __post_init__(self):
        values = tuple(float(m) for m in self.masses)
        object.__setattr__(self, "masses", values)
        if len(values) < 2:
            raise InvalidConfiguration("need at least two bodies, got %d" % len(values))
        for m in values:
            if not (m > 0.0) or not math.isfinite(m):
                raise NonpositiveMass("masses must be positive, got %r" % (m,))

    @property
    def n(self) -> int:
        return len(self.masses)

    def array(self) -> np.ndarray:
        return np.array(self.masses, dtype=float)


def _reduce_longitude(phi: float) -> float:
    out = math.fmod(float(phi), TWO_PI)
    if out < 0.0:
        out += TWO_PI
    return out


@dataclass(frozen=True)
class SphereConfiguration:
    """Positions of n bodies on the unit sphere in spherical angles.

    Longitudes are reduced mod 2*pi on construction.  Construction fails if
    an angle is not finite, any colatitude leaves (0, pi) or any pair
    separation is singular.
    """

    thetas: tuple
    phis: tuple

    def __post_init__(self):
        thetas = tuple(float(t) for t in self.thetas)
        phis = tuple(float(p) for p in self.phis)
        _check_finite("thetas", thetas)
        _check_finite("phis", phis)
        phis = tuple(map(_reduce_longitude, phis))
        if len(thetas) != len(phis):
            raise InvalidConfiguration("theta and phi counts differ")
        if len(thetas) < 2:
            raise InvalidConfiguration("need at least two bodies")
        for t in thetas:
            if not (0.0 < t < math.pi):
                raise PolarSingularity("colatitude %.17g outside (0, pi)" % t)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "phis", phis)
        _pair_guard(thetas, phis)

    @property
    def n(self) -> int:
        return len(self.thetas)


@dataclass(frozen=True)
class RingConfiguration:
    """Bodies on the equator in canonical ring order.

    The first longitude is rotated to zero and all angles reduced mod 2*pi.
    The longitudes must be finite.  The canonical order requires strictly
    increasing longitudes, consecutive gaps in (0, pi), and a wrap-around gap
    exceeding pi, which forces n >= 3.
    """

    longitudes: tuple

    def __post_init__(self):
        raw = tuple(float(p) for p in self.longitudes)
        if len(raw) < 3:
            raise InvalidConfiguration("a ring needs at least three bodies")
        _check_finite("longitudes", raw)
        base = raw[0]
        phis = tuple(_reduce_longitude(p - base) for p in raw)
        for i in range(len(phis) - 1):
            gap = phis[i + 1] - phis[i]
            if not (0.0 < gap < math.pi):
                raise InvalidConfiguration(
                    "gap %d -> %d is %.17g, outside (0, pi)" % (i + 1, i + 2, gap)
                )
        if not (phis[-1] - phis[0] > math.pi):
            raise InvalidConfiguration(
                "total spread %.17g does not exceed pi" % (phis[-1] - phis[0])
            )
        object.__setattr__(self, "longitudes", phis)
        _pair_guard(self.thetas, phis)

    @property
    def n(self) -> int:
        return len(self.longitudes)

    @property
    def thetas(self) -> tuple:
        return (EQUATOR,) * len(self.longitudes)

    @property
    def phis(self) -> tuple:
        return self.longitudes


def to_cartesian(config) -> np.ndarray:
    """Unit-sphere embedding of a configuration as an (n, 3) array."""
    out = np.empty((config.n, 3))
    for i, (t, p) in enumerate(zip(config.thetas, config.phis)):
        st = math.sin(t)
        out[i] = (st * math.cos(p), st * math.sin(p), math.cos(t))
    return out


def geodesic_distance(qi, qj) -> float:
    """Great-circle distance between two unit vectors.

    Parameters
    ----------
    qi, qj : array_like
        Cartesian points with unit norm (checked to 1e-12).

    Returns
    -------
    float
        arccos of the clamped inner product, a value in [0, pi].
    """
    qi = np.asarray(qi, dtype=float)
    qj = np.asarray(qj, dtype=float)
    if qi.shape != (3,) or qj.shape != (3,):
        raise InvalidConfiguration("geodesic_distance expects 3-vectors")
    for q in (qi, qj):
        if abs(float(q @ q) - 1.0) > 1e-12:
            raise InvalidConfiguration("input vector is not unit length")
    dot = float(qi @ qj)
    return math.acos(min(1.0, max(-1.0, dot)))


def _sphere_tables(thetas, phis):
    """Sines and cosines of the chart angles and the x, y coordinates.

    Returns (sin theta, cos theta, sin phi, cos phi, x, y) as lists; the z
    coordinates are the cos theta list.
    """
    st = list(map(math.sin, thetas))
    ct = list(map(math.cos, thetas))
    sp = list(map(math.sin, phis))
    cp = list(map(math.cos, phis))
    return st, ct, sp, cp, list(map(mul, st, cp)), list(map(mul, st, sp))


def _singular_pair(i, j, cosd, sind):
    """The exception for bodies i and j (0-based) at a singular separation."""
    kind = "collision" if cosd > 0 else "antipodal alignment"
    return SingularConfiguration(
        "bodies %d and %d at %s (separation sine %.3g)" % (i + 1, j + 1, kind, sind)
    )


def _recheck_sine(i, j, cosd, xs, ys, zs, phis=None, floor=SINGULAR_TOL):
    """Separation sine of bodies i and j as |sin(phi_i - phi_j)|, or as
    |q_i x q_j| if no ``phis`` are given; at or below ``floor`` it raises."""
    if phis is None:
        sind = math.hypot(
            ys[i] * zs[j] - zs[i] * ys[j],
            zs[i] * xs[j] - xs[i] * zs[j],
            xs[i] * ys[j] - ys[i] * xs[j],
        )
    else:
        sind = abs(math.sin(phis[i] - phis[j]))
    if sind <= floor:
        raise _singular_pair(i, j, cosd, sind)
    return sind


def _pair_table(xs=None, ys=None, zs=None, phis=None, floor=SINGULAR_TOL):
    """Every pair i < j as (i, j, cos d, sin d), in order.

    Bodies are given either as Cartesian unit vectors (xs, ys, zs), where
    cos d is their dot product, or as equatorial longitudes ``phis``, where
    cos d = cos(phi_i - phi_j).  The two forms round differently, and ring
    results are printed to 17 digits, so neither replaces the other.  A
    pair with sin d at or below ``floor`` raises SingularConfiguration.
    """
    n = len(xs) if phis is None else len(phis)
    table = []
    for i in range(n):
        for j in range(i + 1, n):
            if phis is None:
                cosd = xs[i] * xs[j] + ys[i] * ys[j] + zs[i] * zs[j]
            else:
                cosd = math.cos(phis[i] - phis[j])
            sind = math.sqrt(max(1.0 - cosd * cosd, 0.0))
            if sind < SINE_RECHECK:
                sind = _recheck_sine(i, j, cosd, xs, ys, zs, phis, floor)
            elif sind <= floor:
                raise _singular_pair(i, j, cosd, sind)
            table.append((i, j, cosd, sind))
    return table


def _pair_guard(thetas, phis, floor=SINGULAR_TOL):
    """Smallest pair separation sine; a sine at or below ``floor`` raises."""
    _, ct, _, _, xs, ys = _sphere_tables(thetas, phis)
    return min(sind for _, _, _, sind in _pair_table(xs, ys, ct, floor=floor))


def force_function(masses: MassVector, config) -> float:
    """Value of the force function: the sum over pairs of m_i m_j cot(d_ij)."""
    _check_count(masses, config.n)
    m = masses.masses
    _, ct, _, _, xs, ys = _sphere_tables(config.thetas, config.phis)
    total = 0.0
    for i, j, cosd, sind in _pair_table(xs, ys, ct):
        total += m[i] * m[j] * cosd / sind
    return total


def _angle_gradient(m, st, ct, sp, cp, xs, ys):
    """Partials of the force function in theta and in phi, as two lists.

    The arguments after the masses are the lists of ``_sphere_tables``.
    """
    zs = ct
    n = len(st)
    dtheta = [0.0] * n
    dphi = [0.0] * n
    for i, j, _, sind in _pair_table(xs, ys, zs):
        f = m[i] * m[j] / (sind * sind * sind)
        # d q_i / d theta_i dotted with q_j, and the mirrored term
        a_i = ct[i] * cp[i] * xs[j] + ct[i] * sp[i] * ys[j] - st[i] * zs[j]
        a_j = ct[j] * cp[j] * xs[i] + ct[j] * sp[j] * ys[i] - st[j] * zs[i]
        # d q_i / d phi_i is z-hat cross q_i, so the two phi terms cancel exactly
        b = xs[i] * ys[j] - ys[i] * xs[j]
        dtheta[i] += f * a_i
        dtheta[j] += f * a_j
        dphi[i] += f * b
        dphi[j] -= f * b
    return dtheta, dphi


def force_gradient(masses: MassVector, config) -> np.ndarray:
    """Gradient of the force function in spherical angles.

    Parameters
    ----------
    masses : MassVector
    config : RingConfiguration, SphereConfiguration or PhaseState

    Returns
    -------
    numpy.ndarray
        Length-2n vector: the n partials with respect to theta followed by
        the n partials with respect to phi.  Pair contributions to the phi
        block are accumulated with exactly opposite signs, so the phi block
        sums to zero to the last bit.
    """
    _check_count(masses, config.n)
    tables = _sphere_tables(config.thetas, config.phis)
    dtheta, dphi = _angle_gradient(masses.masses, *tables)
    return np.array(dtheta + dphi)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def force_hessian_blocks(masses: MassVector, config):
    """Second derivatives of the force function in spherical angles.

    Returns the three n-by-n blocks (V_tt, V_tp, V_pp), where V_tt holds
    d2V/dtheta_i dtheta_j, V_tp holds d2V/dtheta_i dphi_j, and V_pp holds
    d2V/dphi_i dphi_j.  The theta-phi block for swapped index order is the
    transpose of V_tp.
    """
    _check_count(masses, config.n)
    m = masses.masses
    n = config.n
    st, ct, sp, cp, xs, ys = _sphere_tables(config.thetas, config.phis)
    zs = ct
    vtt = np.zeros((n, n))
    vtp = np.zeros((n, n))
    vpp = np.zeros((n, n))
    # tangent vectors along theta and phi for each body
    tth = [(ct[i] * cp[i], ct[i] * sp[i], -st[i]) for i in range(n)]
    tph = [(-ys[i], xs[i], 0.0) for i in range(n)]
    for i, j, cosd, sind in _pair_table(xs, ys, zs):
        s3 = sind * sind * sind
        f3 = 1.0 / s3
        f5 = 3.0 * cosd / (s3 * sind * sind)
        mm = m[i] * m[j]
        qi = (xs[i], ys[i], zs[i])
        qj = (xs[j], ys[j], zs[j])

        at_i = _dot(qj, tth[i])
        at_j = _dot(qi, tth[j])
        ap_i = _dot(qj, tph[i])
        ap_j = _dot(qi, tph[j])

        vtt[i, j] = mm * (f5 * at_i * at_j + f3 * _dot(tth[j], tth[i]))
        vtt[j, i] = vtt[i, j]
        vpp[i, j] = mm * (f5 * ap_i * ap_j + f3 * _dot(tph[j], tph[i]))
        vpp[j, i] = vpp[i, j]
        vtp[i, j] = mm * (f5 * at_i * ap_j + f3 * _dot(tph[j], tth[i]))
        vtp[j, i] = mm * (f5 * at_j * ap_i + f3 * _dot(tph[i], tth[j]))

        # same-body second derivatives accumulate on the diagonal
        qi2_tt = (-xs[i], -ys[i], -zs[i])
        qj2_tt = (-xs[j], -ys[j], -zs[j])
        qi2_pp = (-xs[i], -ys[i], 0.0)
        qj2_pp = (-xs[j], -ys[j], 0.0)
        qi2_tp = (-ct[i] * sp[i], ct[i] * cp[i], 0.0)
        qj2_tp = (-ct[j] * sp[j], ct[j] * cp[j], 0.0)
        vtt[i, i] += mm * (f5 * at_i * at_i + f3 * _dot(qj, qi2_tt))
        vtt[j, j] += mm * (f5 * at_j * at_j + f3 * _dot(qi, qj2_tt))
        vpp[i, i] += mm * (f5 * ap_i * ap_i + f3 * _dot(qj, qi2_pp))
        vpp[j, j] += mm * (f5 * ap_j * ap_j + f3 * _dot(qi, qj2_pp))
        vtp[i, i] += mm * (f5 * at_i * ap_i + f3 * _dot(qj, qi2_tp))
        vtp[j, j] += mm * (f5 * at_j * ap_j + f3 * _dot(qi, qj2_tp))
    return vtt, vtp, vpp
