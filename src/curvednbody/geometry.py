"""Spherical kinematics and the cotangent force function on the unit sphere.

Three bodies live on the unit sphere, parametrized by colatitude theta in
(0, pi) and longitude phi.  The mutual potential of a pair is proportional to
the cotangent of its geodesic separation, which blows up at collision and at
antipodal alignment; both ends are guarded by a shared tolerance.  A ring's
``thetas`` are all ``EQUATOR`` and its ``phis`` are its longitudes, so
``to_cartesian``, ``force_function``, ``force_gradient`` and
``force_hessian_blocks`` take a ring, a ``SphereConfiguration`` or a
``PhaseState`` directly.

The package solves the three-body problem only.  ``_check_bodies`` is the
one body-count rule: every mass vector, configuration and phase state meets
it on construction, so the functions that take them check no count.

``_pair_table`` is the one place that enumerates the pairs of a
configuration in Cartesian form, computes each separation's cosine and sine
and applies that guard; every pairwise sum over such pairs reads it:
``force_function``, the gradient's ``_angle_gradient`` and the Hessian's
``_hessian_rows``, which sums on float lists with its dot products written
out and serves ``force_hessian_blocks`` and ``stability.assemble_L_general``
alike.  The only pair code outside it writes the three pairs out as
straight-line code because it runs once per field evaluation, per recorded
sample or per ring pass: the vector field ``dynamics._field_kernel``; ``_pair_sines``, the
table of three bodies that the guard ``_pair_guard``, the frame energy
``dynamics.hamiltonian`` and the sample monitor of ``dynamics.integrate``
read; and the ring's residual and coupling blocks ``fixedpoints._ring_pass``,
the one walk over a ring's pairs, which takes cos d as cos(phi_i - phi_j).
All of them compute sin d as sqrt(1 - cos^2 d) and hand a small one to
``_recheck_sine``, which recomputes it and raises the one message; apart
from the field, they take that rule from ``_pair_sine``.  These inner loops
spell builtin ``min`` and ``max`` out as comparisons, which keep the
builtins' first-of-equal and nan behaviour and cost no call.

Every frozen value type is built by one rule, ``frozen_value``: ``__init__``
fills the instance dict in one step, then ``__post_init__`` checks and normalizes.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
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


BODIES = 3  # the body count of every mass vector, configuration and state


def _check_bodies(count):
    """Raise InvalidConfiguration unless ``count`` is ``BODIES``."""
    if count != BODIES:
        raise InvalidConfiguration("need exactly three bodies, got %d" % count)


def frozen_value(cls):
    """``cls`` as a frozen dataclass built by the construction rule of the
    module docstring; equality, hash, repr, ``dataclasses.replace``, pickling
    and FrozenInstanceError are the dataclass's own."""
    cls = dataclass(frozen=True, init=False)(cls)
    names = [f.name for f in fields(cls)]
    defaults = {f.name: f.default for f in fields(cls) if f.default is not MISSING}
    params = [n + ("=_defaults[%r]" % n if n in defaults else "") for n in names]
    body = "_fill(self, {%s})" % ", ".join("%r: %s" % (n, n) for n in names)
    if hasattr(cls, "__post_init__"):
        body += "; self.__post_init__()"
    space = {"_fill": instance_fill(cls), "_defaults": defaults}
    exec("def __init__(self, %s): %s" % (", ".join(params), body), space)
    cls.__init__ = space["__init__"]
    return cls


def instance_fill(cls):
    """The rule's one step: makes a dict of the fields the instance dict."""
    return cls.__dict__["__dict__"].__set__


@frozen_value
class MassVector:
    """Positive finite masses of the three bodies."""

    masses: tuple

    def __post_init__(self):
        values = tuple(float(m) for m in self.masses)
        self.__dict__["masses"] = values
        _check_bodies(len(values))
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


@frozen_value
class SphereConfiguration:
    """Positions of the three bodies on the unit sphere in spherical angles.

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
        _check_bodies(len(thetas))
        _check_bodies(len(phis))
        phis = tuple(map(_reduce_longitude, phis))
        for t in thetas:
            if not (0.0 < t < math.pi):
                raise PolarSingularity("colatitude %.17g outside (0, pi)" % t)
        self.__dict__.update(thetas=thetas, phis=phis)
        _pair_guard(thetas, phis)

    @property
    def n(self) -> int:
        return len(self.thetas)


@frozen_value
class RingConfiguration:
    """The three bodies on the equator in canonical ring order.

    The first longitude is rotated to zero and all angles reduced mod 2*pi.
    The longitudes must be finite.  The canonical order requires strictly
    increasing longitudes, consecutive gaps in (0, pi), and a wrap-around gap
    exceeding pi.
    """

    longitudes: tuple

    def __post_init__(self):
        raw = tuple(float(p) for p in self.longitudes)
        _check_bodies(len(raw))
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
        self.__dict__["longitudes"] = phis
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
    """Unit-sphere embedding of a configuration as a (3, 3) array, one row a body."""
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


def _pair_sine(i, j, cosd, xs, ys, zs, phis=None, floor=SINGULAR_TOL):
    """sin d of bodies i and j from cos d: sqrt(max(1 - cos^2 d, 0)), taken
    again by ``_recheck_sine`` below SINE_RECHECK; at or below ``floor`` it raises."""
    d = 1.0 - cosd * cosd
    sind = 0.0 if 0.0 > d else math.sqrt(d)
    if sind < SINE_RECHECK:
        return _recheck_sine(i, j, cosd, xs, ys, zs, phis, floor)
    if sind <= floor:
        raise _singular_pair(i, j, cosd, sind)
    return sind


def _pair_table(xs, ys, zs, floor=SINGULAR_TOL):
    """Every pair i < j of the Cartesian unit vectors (xs, ys, zs) as
    (i, j, cos d, sin d), in order, cos d their dot product.

    A ring's pairs take cos d = cos(phi_i - phi_j) in ``fixedpoints._ring_pass``
    instead: the two forms round differently, and ring results are printed to
    17 digits, so neither replaces the other.  A pair with sin d at or below
    ``floor`` raises SingularConfiguration.
    """
    n = len(xs)
    table = []
    for i in range(n):
        for j in range(i + 1, n):
            cosd = xs[i] * xs[j] + ys[i] * ys[j] + zs[i] * zs[j]
            table.append((i, j, cosd, _pair_sine(i, j, cosd, xs, ys, zs, floor=floor)))
    return table


def _pair_sines(thetas, phis, floor=SINGULAR_TOL):
    """(sin theta of each body, cos d of the pairs, sin d of the pairs) of three
    bodies, the pairs in order (1,2), (1,3), (2,3); a sine at or below
    ``floor`` raises.  ``_pair_table``'s Cartesian pairs written out: the
    same order, bits and errors."""
    (t1, t2, t3), (p1, p2, p3) = thetas, phis
    sin, cos = math.sin, math.cos
    s1, s2, s3 = sin(t1), sin(t2), sin(t3)
    zs = z1, z2, z3 = cos(t1), cos(t2), cos(t3)
    xs = x1, x2, x3 = s1 * cos(p1), s2 * cos(p2), s3 * cos(p3)
    ys = y1, y2, y3 = s1 * sin(p1), s2 * sin(p2), s3 * sin(p3)
    c12 = x1 * x2 + y1 * y2 + z1 * z2
    a = _pair_sine(0, 1, c12, xs, ys, zs, floor=floor)
    c13 = x1 * x3 + y1 * y3 + z1 * z3
    b = _pair_sine(0, 2, c13, xs, ys, zs, floor=floor)
    c23 = x2 * x3 + y2 * y3 + z2 * z3
    c = _pair_sine(1, 2, c23, xs, ys, zs, floor=floor)
    return (s1, s2, s3), (c12, c13, c23), (a, b, c)


def _pair_guard(thetas, phis, floor=SINGULAR_TOL):
    """Smallest pair separation sine of ``_pair_sines``; a sine at or below
    ``floor`` raises."""
    a, b, c = _pair_sines(thetas, phis, floor)[2]
    lo = b if b < a else a  # min(a, b, c), first of equal values
    return c if c < lo else lo


def force_function(masses: MassVector, config) -> float:
    """Value of the force function: the sum over pairs of m_i m_j cot(d_ij)."""
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
        Length-6 vector: the three partials with respect to theta followed
        by the three partials with respect to phi.  Pair contributions to the phi
        block are accumulated with exactly opposite signs, so the phi block
        sums to zero to the last bit.
    """
    tables = _sphere_tables(config.thetas, config.phis)
    dtheta, dphi = _angle_gradient(masses.masses, *tables)
    return np.array(dtheta + dphi)


def _hessian_rows(masses: MassVector, config) -> tuple:
    """(V_tt, V_tp, V_pp) of ``force_hessian_blocks`` as lists of rows.

    Each dot product of a tangent vector or a same-body second derivative
    with a position or a tangent is written out with its zero terms, and
    each diagonal sums onto 0.0, so every bit, a signed zero's too, is that
    of the sum in order; a - b stands for a + (-b) and b - a for (-a) + b,
    which IEEE arithmetic rounds alike.
    """
    _check_bodies(config.n)
    m = masses.masses
    n = config.n
    st, ct, sp, cp, xs, ys = _sphere_tables(config.thetas, config.phis)
    zs = ct
    # the tangent along theta of each body; along phi it is (-y, x, 0)
    txs = list(map(mul, ct, cp))
    tys = list(map(mul, ct, sp))
    tzs = [-s for s in st]
    vtt = [[0.0] * n for _ in range(n)]
    vtp = [[0.0] * n for _ in range(n)]
    vpp = [[0.0] * n for _ in range(n)]
    for i, j, cosd, sind in _pair_table(xs, ys, zs):
        s3 = sind * sind * sind
        f3 = 1.0 / s3
        f5 = 3.0 * cosd / (s3 * sind * sind)
        mm = m[i] * m[j]
        xi, yi, zi, txi, tyi, tzi = xs[i], ys[i], zs[i], txs[i], tys[i], tzs[i]
        xj, yj, zj, txj, tyj, tzj = xs[j], ys[j], zs[j], txs[j], tys[j], tzs[j]

        at_i = xj * txi + yj * tyi + zj * tzi
        at_j = xi * txj + yi * tyj + zi * tzj
        ap_i = yj * xi - xj * yi + zj * 0.0
        ap_j = yi * xj - xi * yj + zi * 0.0

        vtt[i][j] = vtt[j][i] = mm * (
            f5 * at_i * at_j + f3 * (txj * txi + tyj * tyi + tzj * tzi))
        vpp[i][j] = vpp[j][i] = mm * (f5 * ap_i * ap_j + f3 * (yj * yi + xj * xi + 0.0))
        vtp[i][j] = mm * (f5 * at_i * ap_j + f3 * (xj * tyi - yj * txi + 0.0 * tzi))
        vtp[j][i] = mm * (f5 * at_j * ap_i + f3 * (xi * tyj - yi * txj + 0.0 * tzj))

        # same-body second derivatives accumulate on the diagonal: of q_i
        # they are -q_i in theta, (-x_i, -y_i, 0) in phi, (-ty_i, tx_i, 0) mixed
        vtt[i][i] += mm * (f5 * at_i * at_i + f3 * (xj * -xi - yj * yi - zj * zi))
        vtt[j][j] += mm * (f5 * at_j * at_j + f3 * (xi * -xj - yi * yj - zi * zj))
        vpp[i][i] += mm * (f5 * ap_i * ap_i + f3 * (xj * -xi - yj * yi + zj * 0.0))
        vpp[j][j] += mm * (f5 * ap_j * ap_j + f3 * (xi * -xj - yi * yj + zi * 0.0))
        vtp[i][i] += mm * (f5 * at_i * ap_i + f3 * (yj * txi - xj * tyi + zj * 0.0))
        vtp[j][j] += mm * (f5 * at_j * ap_j + f3 * (yi * txj - xi * tyj + zi * 0.0))
    return vtt, vtp, vpp


def force_hessian_blocks(masses: MassVector, config):
    """Second derivatives of the force function in spherical angles.

    Returns the three 3-by-3 blocks (V_tt, V_tp, V_pp), where V_tt holds
    d2V/dtheta_i dtheta_j, V_tp holds d2V/dtheta_i dphi_j, and V_pp holds
    d2V/dphi_i dphi_j.  The theta-phi block for swapped index order is the
    transpose of V_tp.  ``config`` may be duck-typed (any state with ``n``,
    ``thetas`` and ``phis``), so ``_hessian_rows`` holds its body count to
    the one rule.  The blocks are summed on floats and each made an array once.
    """
    return tuple(map(np.array, _hessian_rows(masses, config)))
