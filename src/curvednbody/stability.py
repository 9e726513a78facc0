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
spectra, lambda1, the splitting's bases and the rate-independent part of the
flow matrix once, on first use; every rate reuses them.  The block spectra
are closed forms on Python floats (``_block_spectra``): lambda1 is a trace,
its vector is normal to the ring's plane, and the tangential pair comes from
a 2-by-2 product in the gap variables.  Nothing on the ring path factorizes.

The equator's reflection z -> -z keeps (theta, p_theta) and (phi, p_phi)
apart, so ``invariant_subspaces`` splits each parity on its own, from bases
in closed form: the transverse spectrum comes from a 1-by-1 and a 2-by-2
product, with no factorization.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateSpectrum, InvalidConfiguration, NotAFixedPoint
from .fixedpoints import (
    TriangleShape,
    _residual_norm,
    _ring_pass,
    _roots,
    as_mass_triple,
    ring_from_shape,
    shape_from_masses,
)
from .geometry import (
    POLAR_TOL,
    MassVector,
    RingConfiguration,
    _polar_error,
    force_hessian_blocks,
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


@dataclass(frozen=True)
class LinearizationBlocks:
    """Coupling matrices of the linearized flow at an equatorial fixed point.

    ``vertical`` couples colatitude perturbations, ``tangential`` couples
    longitude perturbations; both are symmetric 3-by-3.  ``mass_diagonal``
    holds the masses, the diagonal of the kinetic metric on the equator.
    The arrays are read-only float copies, so what does not depend on the
    rotation rate (block spectra, lambda1, the 12-by-12 flow matrix but for
    its three centrifugal entries, and the splitting's parity bases) is
    computed once per instance on first use, read-only, and shared by every
    rate.
    """

    masses: MassVector
    ring: RingConfiguration
    vertical: np.ndarray
    tangential: np.ndarray

    def __post_init__(self):
        for name in ("vertical", "tangential"):
            copy = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, name, _frozen(copy))

    @property
    def n(self) -> int:
        return self.masses.n

    @cached_property
    def mass_diagonal(self) -> np.ndarray:
        return _frozen(self.masses.array())

    @cached_property
    def _rate_free_L(self) -> np.ndarray:
        return _frozen(_flow_matrix(self))

    @cached_property
    def _spectra(self) -> _BlockSpectra:
        return _block_spectra(self)

    @cached_property
    def _bases(self) -> tuple:
        return _parity_bases(self)


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


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
    max-norm not below ``residual_tol``, nan too, raises NotAFixedPoint.
    """
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
    v, t = blocks.vertical.tolist(), blocks.tangential.tolist()
    keys = ("vertical_radial", "vertical_transverse", "tangential_uniform")
    return dict(zip(keys, _null_residuals(blocks.ring, v, t)))


def _flow_matrix(blocks: LinearizationBlocks) -> np.ndarray:
    """``assemble_L_from_blocks`` at rate zero: every rate's matrix but for
    the three centrifugal entries on the vertical block's diagonal."""
    m = blocks.mass_diagonal
    L = np.zeros((12, 12))
    minv = np.diag(1.0 / m)
    L[0:3, 6:9] = minv
    L[3:6, 9:12] = minv
    L[6:9, 0:3] = blocks.vertical
    L[9:12, 3:6] = blocks.tangential
    return L


def assemble_L_from_blocks(blocks: LinearizationBlocks, omega: float) -> np.ndarray:
    """Full 12-by-12 linearized flow matrix at the rotating ring, a new array.

    Coordinate order is (theta, phi, p_theta, p_phi).  The rotation enters
    only through the centrifugal shift of the vertical block's diagonal,
    written into a copy of the matrix at rate zero.  A rate that
    ``rate_square`` rejects raises InvalidConfiguration.
    """
    w2 = rate_square(omega)
    L = blocks._rate_free_L.copy()
    m1, m2, m3 = blocks.masses.masses
    L[6, 0] -= w2 * m1
    L[7, 1] -= w2 * m2
    L[8, 2] -= w2 * m3
    return L


def assemble_L_general(masses: MassVector, state) -> np.ndarray:
    """Linearized Hamiltonian flow at an arbitrary phase state.

    ``state`` needs ``n``, ``thetas``, ``phis``, ``pthetas`` and ``pphis``,
    as a PhaseState has; ``force_hessian_blocks`` holds its body count to the
    one rule, and a colatitude at the polar guard raises PolarSingularity.  The coordinate
    order of the output matches assemble_L_from_blocks.  A frame rotating at
    constant rate shifts the flow by a constant, so the same matrix is the
    Jacobian in every such frame.  At an equatorial fixed point with the
    rigid-rotation momenta this reduces to the block form.
    """
    n = masses.n
    m = masses.masses
    thetas = [float(t) for t in state.thetas]
    pphis = [float(p) for p in state.pphis]
    vtt, vtp, vpp = force_hessian_blocks(masses, state)
    sines = [math.sin(t) for t in thetas]
    if any(s <= POLAR_TOL for s in sines):
        raise _polar_error(sines)
    L = np.zeros((4 * n, 4 * n))
    for i in range(n):
        st = sines[i]
        ct = math.cos(thetas[i])
        s2 = st * st
        k = -2.0 * pphis[i] * ct / (m[i] * s2 * st)
        ncent = -pphis[i] * pphis[i] * (1.0 + 2.0 * ct * ct) / (m[i] * s2 * s2)
        L[i, 2 * n + i] = 1.0 / m[i]
        L[n + i, i] = k
        L[n + i, 3 * n + i] = 1.0 / (m[i] * s2)
        L[2 * n + i, 3 * n + i] = -k
        L[2 * n + i, i] = ncent
    L[2 * n : 3 * n, 0:n] += vtt
    L[2 * n : 3 * n, n : 2 * n] = vtp
    L[3 * n : 4 * n, 0:n] = vtp.T
    L[3 * n : 4 * n, n : 2 * n] = vpp
    return L


@dataclass(frozen=True)
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


VERDICT_FIXED_POINT = "fixed-point-unstable"
VERDICT_UNSTABLE = "re-unstable"
VERDICT_BOUNDARY = "re-degenerate-boundary"
VERDICT_STABLE = "re-linearly-stable"

# omega^2 within this distance of lambda1 counts as the degenerate boundary.
BOUNDARY_TOL = 1e-9


def rate_square(omega: float) -> float:
    """omega^2, or InvalidConfiguration if the rate or its square is not finite."""
    if not math.isfinite(omega):
        raise InvalidConfiguration("rotation rate %r is not finite" % (omega,))
    w2 = omega * omega
    if not math.isfinite(w2):
        raise InvalidConfiguration("square of rotation rate %r is not finite" % (omega,))
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


@dataclass(frozen=True)
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
    v, t = blocks.vertical.tolist(), blocks.tangential.tolist()
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
    p1, p2, p3 = blocks.ring.longitudes
    w = [math.sin(p3 - p2), math.sin(p1 - p3), math.sin(p2 - p1)]
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
    omega^2) first, then the tangential pairs.
    """
    spectra = blocks._spectra
    s = cmath.sqrt(complex(spectra.lambda1 - omega * omega))
    omega = float(omega)
    verdict, exponent = rate_verdict(omega, spectra.lambda1)
    return StabilityReport(
        blocks.masses,
        omega,
        (0.0, 0.0, spectra.lambda1),
        spectra.tangential_eigenvalues,
        spectra.lambda1,
        spectra.omega_critical,
        verdict,
        (s, -s) + spectra.tangential_pairs,
        exponent,
    )


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
    fixed-point gate of ``assemble_blocks``.
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


@dataclass(frozen=True)
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
    call.  The other residuals and the reduced spectrum are built on first
    read and cached; ``nilpotent_residual`` is None unless the rate is zero.
    """

    transverse_residual: float
    transverse_spectrum: tuple
    _blocks: LinearizationBlocks = field(repr=False)
    _flow: np.ndarray = field(repr=False)
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
        return _restriction(self._flow, self.symmetry_basis, self._norm)

    @property
    def symmetry_residual(self) -> float:
        return self._symmetry_part[1]

    @cached_property
    def nilpotent_residual(self) -> float | None:
        if self._omega != 0.0:
            return None
        restriction = self._symmetry_part[0]
        square = (restriction @ restriction).ravel().tolist()
        return math.hypot(*square) / max(self._norm, 1.0)

    @cached_property
    def _reduced_part(self) -> tuple:
        return _restriction(self._flow, self.reduced_basis, self._norm)

    @property
    def reduced_residual(self) -> float:
        return self._reduced_part[1]

    @cached_property
    def reduced_spectrum(self) -> tuple:
        # the reduced subspace holds the whole vertical parity, whose pairs are
        # +-sqrt(nu - omega^2) for the mass-weighted eigenvalues (lambda1, 0, 0)
        c, w2 = self._reduced_part[0], self._omega * self._omega
        tangential = _roots(*(c[6:8, 8:10] @ c[8:10, 6:8]).ravel().tolist())
        return tuple(_pairs([self._blocks._spectra.lambda1 - w2, -w2, -w2] + tangential))


def _normal_frame(v: list) -> tuple:
    """(v / |v| as a column, an orthonormal basis of the plane normal to v):
    the columns but k of the Householder reflection that maps e_k to
    -+v / |v|, where v's entry k is its largest."""
    n = math.hypot(*v)
    u = [x / n for x in v]
    k = max(range(3), key=lambda i: abs(u[i]))
    h = [x + math.copysign(i == k, u[k]) for i, x in enumerate(u)]
    plane = [[(i == j) - h[i] * h[j] / abs(h[k]) for j in range(3) if j != k]
             for i in range(3)]
    return np.array(u)[:, None], np.array(plane)


def _parity_bases(blocks: LinearizationBlocks) -> tuple:
    """Read-only transverse, symmetry and reduced bases, with orthonormal
    columns each in one parity: vertical positions, vertical momenta,
    tangential positions, tangential momenta.

    The vertical symmetry modes radial, transverse, m radial and m transverse
    span the planes normal to w = radial x transverse and to w / m; the
    tangential ones are the uniform vector and m.  Transverse positions are
    orthogonal to the symmetry momenta and transverse momenta to the
    symmetry positions: w / m and w, and the planes normal to m and to 1.
    The reduced basis holds the whole vertical parity.
    """
    m = blocks.masses.masses
    p1, p2, p3 = blocks.ring.longitudes
    w = [math.sin(p3 - p2), math.sin(p1 - p3), math.sin(p2 - p1)]
    w_unit, w_plane = _normal_frame(w)
    wm_unit, wm_plane = _normal_frame([x / mi for x, mi in zip(w, m)])
    one_unit, one_plane = _normal_frame([1.0, 1.0, 1.0])
    m_unit, m_plane = _normal_frame(list(m))
    return (
        _embed(wm_unit, w_unit, m_plane, one_plane),
        _embed(w_plane, wm_plane, one_unit, m_unit),
        _embed(np.eye(3), np.eye(3), m_plane, one_plane),
    )


def _embed(*columns) -> np.ndarray:
    """Columns of the theta, p_theta, phi and p_phi rows as a read-only
    phase-space basis in the order (theta, phi, p_theta, p_phi)."""
    out = np.zeros((12, sum(cols.shape[1] for cols in columns)))
    start = 0
    for cols, row in zip(columns, (0, 6, 3, 9)):
        out[row : row + 3, start : start + cols.shape[1]] = cols
        start += cols.shape[1]
    return _frozen(out)


def _restriction(L: np.ndarray, q: np.ndarray, denom: float) -> tuple:
    """Matrix of L on the span of the orthonormal columns q, and the
    Frobenius norm of what leaks out of the span over ``denom``."""
    lq = L @ q
    coeffs = q.T @ lq
    leak = (lq - q @ coeffs).ravel().tolist()
    return coeffs, math.hypot(*leak) / denom


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
    pairs come from ``_roots`` of 2-by-2 ones.  Norms are taken by
    ``math.hypot``, which squares no entry, so every rate that
    ``rate_square`` accepts gives finite residuals.
    """
    L = _frozen(assemble_L_from_blocks(blocks, omega))
    norm = math.hypot(*L.ravel().tolist())
    c, residual = _restriction(L, blocks._bases[0], norm)
    tangential = _roots(*(c[2:4, 4:6] @ c[4:6, 2:4]).ravel().tolist())
    roots = [float(c[0, 1] * c[1, 0])] + tangential
    return InvariantSplitting(residual, tuple(_pairs(roots)), blocks, L, norm, omega)
