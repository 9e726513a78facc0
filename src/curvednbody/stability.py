"""Linear stability of rigid ring rotations on the equator.

At an equatorial fixed point the linearized flow splits into a block acting
on colatitude perturbations and one acting on longitude perturbations.  Both
blocks are built from pairwise couplings of the ring; their null vectors
reflect the rotational symmetries, and the signs of the remaining
eigenvalues decide linear stability as a function of the rotation rate.
The ring's fixed-point residual and both blocks come from one pass over its
pairs, ``fixedpoints._ring_pass``.

Only the centrifugal shift of the vertical block depends on the rate.  A
``LinearizationBlocks`` holds its arrays read-only and computes the block
spectra, lambda1, and the splitting's frames and rate-free numbers once, on
first use; every rate reuses them.  The block spectra are closed forms on
Python floats (``_block_spectra``): lambda1 is a trace, its vector is normal
to the ring's plane, and the tangential pair comes from a 2-by-2 product in
the gap variables.  Nothing on the ring path factorizes.

The equator's reflection z -> -z keeps (theta, p_theta) and (phi, p_phi)
apart, so ``invariant_subspaces`` splits each parity on its own, from
Householder frames in closed form: the transverse spectrum comes from a
1-by-1 and a 2-by-2 product.  The splitting is written out on Python floats
from the blocks' 3-by-3 entries, with no matrix product, so no BLAS kernel
moves a bit of it.  The 12-by-12 flow matrix is built only at a general
phase state, by ``assemble_L_general``; at a ring the blocks stand for it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import field
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, InvalidConfiguration, NotAFixedPoint
from .fixedpoints import (
    TriangleShape,
    _residual_norm,
    _ring_pass,
    _roots,
    as_mass_triple,
    checked_tolerance,
    ring_from_shape,
    shape_from_masses,
)
from .geometry import (
    POLAR_TOL,
    MassVector,
    RingConfiguration,
    _check_bodies,
    _check_finite,
    _hessian_rows,
    _polar_error,
    frozen_value,
    instance_fill,
)

# A ring whose fixed-point residual max-norm reaches this is not a fixed point.
FIXED_POINT_TOL = 1e-10

# For a ring's blocks V cos(phi) = diag(sin phi) r, V sin(phi) = -diag(cos phi) r
# and T 1 = 0 exactly, r the fixed-point residual: each null vector's image has a
# 2-norm of at most sqrt(3) max |r_k|.  The spectra bound it, over the block's
# Frobenius norm, by the residual gate made scale-free (r and V share the factors
# m_i m_j / sin^3 d_ij): blocks built past the gate near the boundary pass, blocks
# without the null structure, whose images are of their own size, do not.
NULL_BOUND = math.sqrt(3) * FIXED_POINT_TOL


@frozen_value
class LinearizationBlocks:
    """Coupling matrices of the linearized flow at an equatorial fixed point.

    ``vertical`` couples colatitude perturbations, ``tangential`` couples
    longitude perturbations; both are symmetric 3-by-3.  ``mass_diagonal``
    holds the masses, the diagonal of the kinetic metric on the equator.
    The arrays are read-only float copies, so what does not depend on the
    rotation rate (block spectra, lambda1, the reports' five rate-free
    fields, the splitting's frames as float tuples, its rate-free numbers and
    its 12-row bases) is computed once per instance on first use, read-only,
    and shared by every rate.
    """

    masses: MassVector
    ring: RingConfiguration
    vertical: np.ndarray
    tangential: np.ndarray

    def __post_init__(self):
        for name in ("vertical", "tangential"):
            self.__dict__[name] = _frozen(np.array(getattr(self, name), dtype=float))

    @cached_property
    def mass_diagonal(self) -> np.ndarray:
        return _frozen(self.masses.array())

    @cached_property
    def _rows(self) -> tuple:
        return self.vertical.tolist(), self.tangential.tolist()

    @cached_property
    def _inverse_masses(self) -> tuple:
        return tuple(1.0 / m for m in self.masses.masses)

    @cached_property
    def _spectra(self) -> _BlockSpectra:
        return _block_spectra(self)

    @cached_property
    def _report_fields(self) -> dict:
        """A StabilityReport's fields in order: the five no rate changes, None for four."""
        s = self._spectra
        return dict(masses=self.masses, omega=None,
                    vertical_eigenvalues=(0.0, 0.0, s.lambda1),
                    tangential_eigenvalues=s.tangential_eigenvalues, lambda1=s.lambda1,
                    omega_critical=s.omega_critical, verdict=None, spectrum=None,
                    unstable_exponent=None)

    @cached_property
    def _frames(self) -> tuple:
        """The transverse part's frames: the unit vectors of w / m and w, w
        the normal of the ring's plane, and of m and the plane normal to it."""
        w = _ring_normal(self.ring)
        wm = [x / mi for x, mi in zip(w, self.masses.masses)]
        m_unit = _unit(self.masses.masses)
        return _unit(wm), _unit(w), m_unit, _plane(m_unit)

    @cached_property
    def _planes(self) -> tuple:
        """The symmetry part's vertical frames: the planes normal to w / m
        and to w."""
        return _plane(self._frames[0]), _plane(self._frames[1])

    @cached_property
    def _split_parts(self) -> tuple:
        return _split_parts(self)

    @cached_property
    def _bases(self) -> tuple:
        return _parity_bases(self)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _ring_normal(ring: RingConfiguration) -> tuple:
    """w = radial x transverse = (sin(p3 - p2), sin(p1 - p3), sin(p2 - p1))."""
    p1, p2, p3 = ring.longitudes
    return math.sin(p3 - p2), math.sin(p1 - p3), math.sin(p2 - p1)


def _unit(v) -> tuple:
    """v / |v| as a float triple."""
    x, y, z = v
    n = math.hypot(x, y, z)
    return x / n, y / n, z / n


def _plane(u: tuple) -> tuple:
    """The two columns of an orthonormal basis of the plane normal to the
    unit vector u, as float tuples: the columns but k of the Householder
    reflection I - h h^T / |h_k| with h = u -+ e_k, where u's entry k is its
    largest."""
    a0, a1, a2 = abs(u[0]), abs(u[1]), abs(u[2])
    k = 0 if a0 >= a1 and a0 >= a2 else 1 if a1 >= a2 else 2
    h = list(u)
    h[k] += math.copysign(1.0, u[k])
    s = abs(h[k])
    h0, h1, h2 = h
    columns = (
        (1.0 - h0 * h0 / s, 0.0 - h1 * h0 / s, 0.0 - h2 * h0 / s),
        (0.0 - h0 * h1 / s, 1.0 - h1 * h1 / s, 0.0 - h2 * h1 / s),
        (0.0 - h0 * h2 / s, 0.0 - h1 * h2 / s, 1.0 - h2 * h2 / s),
    )
    return columns[:k] + columns[k + 1 :]


# the unit vector along (1, 1, 1) and the plane normal to it, for every ring
ONE_UNIT = _unit((1.0, 1.0, 1.0))
ONE_PLANE = _plane(ONE_UNIT)


def assemble_blocks(
    masses: MassVector,
    ring: RingConfiguration,
    residual_tol: float = FIXED_POINT_TOL,
) -> LinearizationBlocks:
    """Build the coupling blocks of the linearization at a ring fixed point.

    Off the diagonal the vertical block carries m_i m_j / sin^3(d_ij) and the
    tangential block -2 m_i m_j cos(d_ij) / sin^3(d_ij); the diagonals are
    fixed by the null vectors of the rotational symmetries.  The residual
    comes from the same pass over the pairs as the blocks: a residual
    max-norm not below ``residual_tol``, nan too, raises NotAFixedPoint.  A
    ``residual_tol`` that is nan or not positive raises InvalidConfiguration;
    +inf builds the blocks of any ring.
    """
    checked_tolerance("residual_tol", residual_tol, gateless=True)
    res, vertical, tangential = _ring_pass(masses.masses, ring.longitudes)
    worst = _residual_norm(res)
    if not worst < residual_tol:
        raise NotAFixedPoint("ring misses the fixed-point equations by %.3g" % worst)
    return LinearizationBlocks(masses, ring, vertical, tangential)


def _null_residuals(ring: RingConfiguration, v: list, t: list) -> list:
    """2-norms of V radial, V transverse and T uniform, each over its block's
    Frobenius norm (0 for a zero block), for blocks given as lists of rows."""
    phis = ring.longitudes
    out = []
    for rows, (x, y, z) in (
        (v, [math.cos(p) for p in phis]),
        (v, [math.sin(p) for p in phis]),
        (t, (1.0, 1.0, 1.0)),
    ):
        image = math.hypot(*(a * x + b * y + c * z for a, b, c in rows))
        norm = math.hypot(*rows[0], *rows[1], *rows[2])
        out.append(image / norm if norm else 0.0)
    return out


def null_structure_check(blocks: LinearizationBlocks) -> dict:
    """Relative norms of the blocks applied to their symmetry null vectors."""
    v, t = blocks._rows
    keys = ("vertical_radial", "vertical_transverse", "tangential_uniform")
    return dict(zip(keys, _null_residuals(blocks.ring, v, t)))


def assemble_L_general(masses: MassVector, state) -> np.ndarray:
    """Linearized Hamiltonian flow at an arbitrary phase state.

    ``state`` needs ``thetas``, ``phis``, ``pthetas`` and ``pphis``, as a
    PhaseState has.  As PhaseState's checks do, a nan or infinite entry
    raises InvalidConfiguration and each block's length meets the one
    body-count rule, before any pair is read; a colatitude at the polar
    guard raises PolarSingularity.  Coordinate order is (theta, phi,
    p_theta, p_phi).  A frame rotating at constant rate shifts the flow by a
    constant, so the same matrix is the Jacobian in every such frame.  At an
    equatorial fixed point with the rigid-rotation momenta its blocks are
    1/M, V - omega^2 M and T.  The matrix is laid out from the Hessian's
    float rows as one list; an entry of V_tt off the diagonal sums onto 0.0,
    as it did onto the zeros of an array.
    """
    for name in ("thetas", "phis", "pthetas", "pphis"):
        values = getattr(state, name)
        _check_finite(name, values)
        _check_bodies(len(values))
    (
        ((t11, t12, t13), (t21, t22, t23), (t31, t32, t33)),
        ((b11, b12, b13), (b21, b22, b23), (b31, b32, b33)),
        ((p11, p12, p13), (p21, p22, p23), (p31, p32, p33)),
    ) = _hessian_rows(masses, state)
    thetas = [float(t) for t in state.thetas]
    sines = [math.sin(t) for t in thetas]
    if any(s <= POLAR_TOL for s in sines):
        raise _polar_error(sines)
    m1, m2, m3 = m = masses.masses
    pphis = [float(p) for p in state.pphis]
    (k1, j1, c1), (k2, j2, c2), (k3, j3, c3) = map(_chart_terms, m, sines, thetas, pphis)
    z = 0.0
    return np.fromiter([
        z, z, z, z, z, z, 1.0 / m1, z, z, z, z, z,
        z, z, z, z, z, z, z, 1.0 / m2, z, z, z, z,
        z, z, z, z, z, z, z, z, 1.0 / m3, z, z, z,
        k1, z, z, z, z, z, z, z, z, j1, z, z,
        z, k2, z, z, z, z, z, z, z, z, j2, z,
        z, z, k3, z, z, z, z, z, z, z, z, j3,
        c1 + t11, z + t12, z + t13, b11, b12, b13, z, z, z, -k1, z, z,
        z + t21, c2 + t22, z + t23, b21, b22, b23, z, z, z, z, -k2, z,
        z + t31, z + t32, c3 + t33, b31, b32, b33, z, z, z, z, z, -k3,
        b11, b21, b31, p11, p12, p13, z, z, z, z, z, z,
        b12, b22, b32, p21, p22, p23, z, z, z, z, z, z,
        b13, b23, b33, p31, p32, p33, z, z, z, z, z, z,
    ], float, 144).reshape(12, 12)


def _chart_terms(m, st, theta, pphi) -> tuple:
    """(d phidot / d theta, d phidot / d p_phi, d p_theta dot / d theta without
    the force) of a body of mass m at colatitude theta, sin(theta) = st."""
    ct = math.cos(theta)
    s2 = st * st
    k = -2.0 * pphi * ct / (m * s2 * st)
    return k, 1.0 / (m * s2), -pphi * pphi * (1.0 + 2.0 * ct * ct) / (m * s2 * s2)


@frozen_value
class StabilityReport:
    """Spectral classification of a rigid ring rotation.

    ``vertical_eigenvalues`` and ``tangential_eigenvalues`` list the spectra
    of the mass-weighted coupling blocks in ascending order.  ``lambda1`` is
    the single positive vertical eigenvalue whose square root separates the
    unstable and stable rotation rates.  ``spectrum`` holds the six
    eigenvalues of the linearized flow transverse to the symmetry modes.
    """

    masses: MassVector
    omega: float
    vertical_eigenvalues: tuple
    tangential_eigenvalues: tuple
    lambda1: float
    omega_critical: float
    verdict: str
    spectrum: tuple
    unstable_exponent: float


_fill_report = instance_fill(StabilityReport)


VERDICT_FIXED_POINT = "fixed-point-unstable"
VERDICT_UNSTABLE = "re-unstable"
VERDICT_BOUNDARY = "re-degenerate-boundary"
VERDICT_STABLE = "re-linearly-stable"

# omega^2 within this distance of lambda1 counts as the degenerate boundary.
BOUNDARY_TOL = 1e-9


def rate_square(omega: float) -> float:
    """omega^2, or InvalidConfiguration if the rate or its square is not finite.

    The rate is taken as the float it converts to, in the square and in the
    message, so a numpy scalar overflows to inf without a warning and an
    np.float32 rate squares as a float.
    """
    if not math.isfinite(omega):
        raise InvalidConfiguration("rotation rate %r is not finite" % (float(omega),))
    w = float(omega)
    w2 = w * w
    if not math.isfinite(w2):
        raise InvalidConfiguration("square of rotation rate %r is not finite" % (w,))
    return w2


def rate_verdict(omega: float, lam1: float) -> tuple:
    """Verdict and unstable exponent sqrt(lambda1 - omega^2) of one rotation rate.

    A rate that ``rate_square`` rejects raises InvalidConfiguration.
    """
    w2 = rate_square(omega)
    exponent = math.sqrt(lam1 - w2) if lam1 > w2 else 0.0
    if omega == 0.0:
        return VERDICT_FIXED_POINT, exponent
    if abs(w2 - lam1) < BOUNDARY_TOL:
        return VERDICT_BOUNDARY, exponent
    return (VERDICT_UNSTABLE if w2 < lam1 else VERDICT_STABLE), exponent


@frozen_value
class _BlockSpectra:
    """The rate-independent part of a StabilityReport and lambda1's eigenvector."""

    tangential_eigenvalues: tuple
    tangential_pairs: tuple
    lambda1: float
    omega_critical: float
    vertical_vector: np.ndarray


def _block_spectra(blocks: LinearizationBlocks) -> _BlockSpectra:
    """The block spectra in closed form.  V kills the radial and transverse
    vectors, so it is a multiple of w w^T, w = radial x transverse: its
    mass-weighted eigenvalues are (0, 0, lambda1), lambda1 the trace of V / m,
    with the vector w / |w / sqrt(m)| signed to a positive sum.  T = A^T H A
    kills the uniform vector, A the gap map, H = [[T11, -T13], [-T13, T33]]:
    its eigenvalues are 0 and the pair of H G, G = A diag(1/m) A^T, the
    smaller root as det H det G over the larger.  Null residuals above
    NULL_BOUND, lambda1 not positive or a tangential root not negative raise
    DegenerateSpectrum."""
    m1, m2, m3 = blocks.masses.masses
    v, t = blocks._rows
    names = ("vertical", "vertical", "tangential")
    for name, residual in zip(names, _null_residuals(blocks.ring, v, t)):
        if not residual <= NULL_BOUND:
            raise DegenerateSpectrum(
                "%s block misses a symmetry null vector by %.3g of its norm, above %.3g"
                % (name, residual, NULL_BOUND))
    lam1 = v[0][0] / m1 + v[1][1] / m2 + v[2][2] / m3
    if not lam1 > 0.0:
        raise DegenerateSpectrum("vertical block has a nonpositive transverse mode")
    h11, h12, h22 = t[0][0], -t[0][2], t[2][2]
    g11, g12, g22 = 1.0 / m1 + 1.0 / m2, -1.0 / m2, 1.0 / m2 + 1.0 / m3
    det = (h11 * h22 - h12 * h12) * ((m1 + m2 + m3) / (m1 * m2 * m3))
    roots = _roots(h11 * g11 + h12 * g12, h11 * g12 + h12 * g22,
                   h12 * g11 + h22 * g12, h12 * g12 + h22 * g22, det)
    if not (roots[0] < 0.0 and roots[1] < 0.0):
        raise DegenerateSpectrum("tangential block has a nonnegative transverse mode")
    w = _ring_normal(blocks.ring)
    norm = math.hypot(w[0] / math.sqrt(m1), w[1] / math.sqrt(m2), w[2] / math.sqrt(m3))
    norm = -norm if w[0] + w[1] + w[2] < 0.0 else norm
    return _BlockSpectra(
        tangential_eigenvalues=(roots[0], roots[1], 0.0),
        tangential_pairs=tuple(_pairs(roots)),
        lambda1=lam1,
        omega_critical=math.sqrt(lam1),
        vertical_vector=_frozen(np.array([x / norm for x in w])),
    )


def spectral_analysis(blocks: LinearizationBlocks, omega: float = 0.0) -> StabilityReport:
    """Classify the rotating ring through the mass-weighted block spectra.

    The block spectra come from ``_block_spectra`` on the first call for
    ``blocks`` and are reused; blocks it rejects raise DegenerateSpectrum.
    The transverse spectrum lists the vertical pair +-sqrt(lambda1 -
    omega^2) first, then the tangential pairs.  The report is filled as
    ``__init__`` would fill it, from the blocks' shared fields and four more.
    """
    spectra = blocks._spectra
    verdict, exponent = rate_verdict(omega, spectra.lambda1)
    omega = float(omega)
    s = cmath.sqrt(complex(spectra.lambda1 - omega * omega))
    report = object.__new__(StabilityReport)
    _fill_report(report, dict(blocks._report_fields, omega=omega, verdict=verdict,
                              spectrum=(s, -s) + spectra.tangential_pairs,
                              unstable_exponent=exponent))
    return report


def vertical_mode(blocks: LinearizationBlocks):
    """(lambda1, u) with vertical @ diag(1/m) u = lambda1 u, u a fresh copy, from
    the block spectra of ``spectral_analysis``: a pattern it rejects raises its
    DegenerateSpectrum.  The pair seeds the unstable direction of the growth
    experiment."""
    return blocks._spectra.lambda1, blocks._spectra.vertical_vector.copy()


def ring_pipeline(masses, residual_tol: float = FIXED_POINT_TOL) -> tuple:
    """(triple, shape, ring, blocks) of the ring fixed point of a mass triple.

    The triple is checked and normalized, its shape and canonical ring are
    constructed, and the blocks are assembled with ``residual_tol`` as the
    fixed-point gate of ``assemble_blocks``, which rejects a nan or
    nonpositive one.
    """
    triple = as_mass_triple(masses)
    shape = shape_from_masses(triple)
    ring = ring_from_shape(shape)
    blocks = assemble_blocks(triple.mass_vector(), ring, residual_tol)
    return triple, shape, ring, blocks


def classify(masses, omega: float = 0.0) -> StabilityReport:
    """Stability report for the ring fixed point of an admissible mass triple."""
    return spectral_analysis(ring_pipeline(masses)[3], omega)


def lambda1_closed_form(shape: TriangleShape, masses) -> float:
    """Closed form of the positive vertical eigenvalue for a mass triple.

    Agrees with the trace of the mass-weighted vertical block; each term is
    positive because the wrap separation has negative sine on admissible
    shapes.
    """
    m1, m2, m3 = as_mass_triple(masses).as_tuple()
    sa = math.sin(shape.alpha)
    sb = math.sin(shape.beta)
    sab = math.sin(shape.alpha + shape.beta)
    return (
        -(m2 / sa ** 2) * sb / (sab * sa)
        - (m2 / sb ** 2) * sa / (sab * sb)
        - (m3 / sb ** 2) * sab / (sa * sb)
    )


def omega_critical(masses) -> float:
    """Smallest rotation rate at which the vertical instability switches off."""
    return classify(masses, 0.0).omega_critical


@frozen_value
class InvariantSplitting:
    """Symmetry subspaces of the linearized flow and the transverse spectra.

    ``symmetry_basis`` spans the modes generated by the rotational
    symmetries and their momentum shifts (dimension 6); ``rotation_basis``
    is its part from the rotation about the polar axis alone (dimension 2).
    The complements are skew-orthogonal: ``transverse_basis`` (dimension 6)
    pairs to zero with every symmetry mode, ``reduced_basis`` (dimension 10)
    with the rotation modes.  Residuals measure, relative to the flow
    matrix's Frobenius norm, how far the flow is from leaving each subspace
    invariant.  Spectra list the vertical pairs first.

    The transverse residual and spectrum are dataclass fields, built at the
    call from the blocks' frames.  The other residuals and the reduced
    spectrum are built on first read and cached, on floats like the
    transverse part; ``nilpotent_residual`` is None unless the rate is zero.
    The bases are 12-row arrays built from the frames on first read, once
    per blocks.
    """

    transverse_residual: float
    transverse_spectrum: tuple
    _blocks: LinearizationBlocks = field(repr=False)
    _norm: float = field(repr=False)
    _omega: float = field(repr=False)

    @property
    def transverse_basis(self) -> np.ndarray:
        return self._blocks._bases[0]

    @property
    def symmetry_basis(self) -> np.ndarray:
        return self._blocks._bases[1]

    @property
    def rotation_basis(self) -> np.ndarray:
        return self._blocks._bases[1][:, 4:6]

    @property
    def reduced_basis(self) -> np.ndarray:
        return self._blocks._bases[2]

    @cached_property
    def _symmetry_part(self) -> tuple:
        # vertical positions along the plane normal to w, momenta along the
        # one normal to w / m; tangential ones along the uniform vector and m
        blocks = self._blocks
        (n1, n2, n3), (u1, u2, u3) = blocks._frames[2], ONE_UNIT
        i1, i2, i3 = minv = blocks._inverse_masses
        v = _shifted(blocks, self._omega * self._omega)
        a, b, leak = _pair_part(v, minv, blocks._planes[1], blocks._planes[0])
        tu1, tu2, tu3 = (r1 * u1 + r2 * u2 + r3 * u3 for r1, r2, r3 in blocks._rows[1])
        tb = n1 * tu1 + n2 * tu2 + n3 * tu3
        mn1, mn2, mn3 = i1 * n1, i2 * n2, i3 * n3
        ta = u1 * mn1 + u2 * mn2 + u3 * mn3
        leak += [tu1 - n1 * tb, tu2 - n2 * tb, tu3 - n3 * tb,
                 mn1 - u1 * ta, mn2 - u2 * ta, mn3 - u3 * ta]
        return (a, b, ta, tb), math.hypot(*leak) / self._norm

    @property
    def symmetry_residual(self) -> float:
        return self._symmetry_part[1]

    @cached_property
    def nilpotent_residual(self) -> float | None:
        if self._omega != 0.0:
            return None
        # the restriction is [[0, a], [b, 0]] per parity; its square is
        # block diagonal with a b and b a
        (a, b, ta, tb), _ = self._symmetry_part
        square = _product(a, b) + _product(b, a) + [ta * tb, tb * ta]
        return math.hypot(*square) / max(self._norm, 1.0)

    @cached_property
    def reduced_residual(self) -> float:
        # the reduced subspace holds the whole vertical parity, which leaks
        # nothing: what leaks is the transverse part's tangential leak
        return math.hypot(*self._blocks._split_parts[3]) / self._norm

    @cached_property
    def reduced_spectrum(self) -> tuple:
        # the vertical pairs are +-sqrt(nu - omega^2) for the mass-weighted
        # eigenvalues (lambda1, 0, 0); the tangential pairs are the
        # transverse part's
        w2 = self._omega * self._omega
        tangential = self._blocks._split_parts[2]
        return tuple(_pairs([self._blocks._spectra.lambda1 - w2, -w2, -w2] + tangential))


def _parity_bases(blocks: LinearizationBlocks) -> tuple:
    """Read-only transverse, symmetry and reduced bases, with orthonormal
    columns each in one parity, built from the blocks' frames: vertical
    positions, vertical momenta, tangential positions, tangential momenta.
    The reduced basis holds the whole vertical parity."""
    wm_unit, w_unit, m_unit, m_plane = blocks._frames
    wm_plane, w_plane = blocks._planes
    eye = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    return (
        _embed((wm_unit,), (w_unit,), m_plane, ONE_PLANE),
        _embed(w_plane, wm_plane, (ONE_UNIT,), (m_unit,)),
        _embed(eye, eye, m_plane, ONE_PLANE),
    )


def _embed(*columns) -> np.ndarray:
    """Columns of the theta, p_theta, phi and p_phi rows as a read-only
    phase-space basis in the order (theta, phi, p_theta, p_phi)."""
    out = np.zeros((12, sum(map(len, columns))))
    start = 0
    for cols, row in zip(columns, (0, 6, 3, 9)):
        out[row : row + 3, start : start + len(cols)] = np.array(cols).T
        start += len(cols)
    return _frozen(out)


def _pair_part(rows, minv, cols, onto) -> tuple:
    """[[0, M^-1], [K, 0]], K given by its ``rows``, on positions along the
    two orthonormal 3-vectors ``cols`` and momenta along the two ``onto``:
    (A, B, leak) with A = cols^T M^-1 onto and B = onto^T K cols as rows,
    and the entries of K cols - onto B and of M^-1 onto - cols A."""
    (k11, k12, k13), (k21, k22, k23), (k31, k32, k33) = rows
    i1, i2, i3 = minv
    (c1, c2, c3), (d1, d2, d3) = cols
    (e1, e2, e3), (f1, f2, f3) = onto
    kc1 = k11 * c1 + k12 * c2 + k13 * c3
    kc2 = k21 * c1 + k22 * c2 + k23 * c3
    kc3 = k31 * c1 + k32 * c2 + k33 * c3
    kd1 = k11 * d1 + k12 * d2 + k13 * d3
    kd2 = k21 * d1 + k22 * d2 + k23 * d3
    kd3 = k31 * d1 + k32 * d2 + k33 * d3
    b11, b12 = e1 * kc1 + e2 * kc2 + e3 * kc3, e1 * kd1 + e2 * kd2 + e3 * kd3
    b21, b22 = f1 * kc1 + f2 * kc2 + f3 * kc3, f1 * kd1 + f2 * kd2 + f3 * kd3
    me1, me2, me3, mf1, mf2, mf3 = i1 * e1, i2 * e2, i3 * e3, i1 * f1, i2 * f2, i3 * f3
    a11, a12 = c1 * me1 + c2 * me2 + c3 * me3, c1 * mf1 + c2 * mf2 + c3 * mf3
    a21, a22 = d1 * me1 + d2 * me2 + d3 * me3, d1 * mf1 + d2 * mf2 + d3 * mf3
    leak = [
        kc1 - (e1 * b11 + f1 * b21), kc2 - (e2 * b11 + f2 * b21), kc3 - (e3 * b11 + f3 * b21),
        kd1 - (e1 * b12 + f1 * b22), kd2 - (e2 * b12 + f2 * b22), kd3 - (e3 * b12 + f3 * b22),
        me1 - (c1 * a11 + d1 * a21), me2 - (c2 * a11 + d2 * a21), me3 - (c3 * a11 + d3 * a21),
        mf1 - (c1 * a12 + d1 * a22), mf2 - (c2 * a12 + d2 * a22), mf3 - (c3 * a12 + d3 * a22),
    ]
    return ((a11, a12), (a21, a22)), ((b11, b12), (b21, b22)), leak


def _product(a, b) -> list:
    """Entries of the 2-by-2 product a b, row by row."""
    return [a[i][0] * b[0][k] + a[i][1] * b[1][k] for i in (0, 1) for k in (0, 1)]


def _shifted(blocks: LinearizationBlocks, w2: float) -> list:
    """Rows of V - omega^2 M, the flow matrix's vertical block at the rate."""
    (v11, v12, v13), (v21, v22, v23), (v31, v32, v33) = blocks._rows[0]
    m1, m2, m3 = blocks.masses.masses
    return [(v11 - w2 * m1, v12, v13), (v21, v22 - w2 * m2, v23), (v31, v32, v33 - w2 * m3)]


def _split_parts(blocks: LinearizationBlocks) -> tuple:
    """The rate-free numbers of the transverse part, wmu and wu the unit
    vectors of w / m and w: x = wmu^T M^-1 wu, the leak of M^-1 wu off wmu,
    the tangential roots of the product of m_plane^T M^-1 one_plane and
    one_plane^T T m_plane, and the leaks of those two restrictions."""
    (a1, a2, a3), (b1, b2, b3), _, m_plane = blocks._frames
    i1, i2, i3 = minv = blocks._inverse_masses
    mb1, mb2, mb3 = i1 * b1, i2 * b2, i3 * b3
    x = a1 * mb1 + a2 * mb2 + a3 * mb3
    a, b, leak = _pair_part(blocks._rows[1], minv, m_plane, ONE_PLANE)
    return x, [mb1 - a1 * x, mb2 - a2 * x, mb3 - a3 * x], _roots(*_product(a, b)), leak


def _pairs(roots: list) -> list:
    """+-sqrt(mu) for each mu of ``roots``, in order."""
    return [z for s in map(cmath.sqrt, roots) for z in (s, -s)]


def invariant_subspaces(
    blocks: LinearizationBlocks, omega: float = 0.0
) -> InvariantSplitting:
    """Split phase space at the rotating ring into symmetry and transverse parts.

    The symmetry subspace is invariant at every rotation rate, and at rate
    zero its restriction is nilpotent of index two (``nilpotent_residual``).
    A rate that ``rate_square`` rejects raises here.  Each basis keeps the
    parities apart, so the transverse restriction is [[0, x], [y, 0]] in
    each: the vertical pair is +-sqrt(x y) of 1-by-1 blocks, the tangential
    pairs come from ``_roots`` of 2-by-2 ones.  Everything is on floats from
    the blocks' frames; what does not depend on the rate comes once per
    blocks (``_split_parts``), so a call computes y = wu^T (V - omega^2 M)
    wmu, its leak and the flow matrix's norm.  Norms are taken by ``math.hypot``, which squares
    no entry, so every rate that ``rate_square`` accepts gives finite
    residuals.
    """
    w2 = rate_square(omega)
    x, vleak, tangential, tleak = blocks._split_parts
    (a1, a2, a3), (b1, b2, b3) = blocks._frames[:2]
    (v11, v12, v13), (v21, v22, v23), (v31, v32, v33) = _shifted(blocks, w2)
    va1 = v11 * a1 + v12 * a2 + v13 * a3
    va2 = v21 * a1 + v22 * a2 + v23 * a3
    va3 = v31 * a1 + v32 * a2 + v33 * a3
    y = b1 * va1 + b2 * va2 + b3 * va3
    leak = math.hypot(va1 - b1 * y, va2 - b2 * y, va3 - b3 * y, *vleak, *tleak)
    t1, t2, t3 = blocks._rows[1]
    minv = blocks._inverse_masses
    # the 24 nonzero entries of the flow matrix, row by row
    norm = math.hypot(*minv, *minv, v11, v12, v13, v21, v22, v23, v31, v32, v33,
                      *t1, *t2, *t3)
    spectrum = tuple(_pairs([x * y] + tangential))
    return InvariantSplitting(leak / norm, spectrum, blocks, norm, float(omega))
