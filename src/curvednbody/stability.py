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
spectra, lambda1 and the symmetry bases once; every rate reuses them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateBasis,
    DegenerateSpectrum,
    InvalidConfiguration,
    NotAFixedPoint,
)
from .fixedpoints import (
    TriangleShape,
    _ring_pass,
    as_mass_triple,
    ring_from_shape,
    shape_from_masses,
)
from .geometry import (
    POLAR_TOL,
    MassVector,
    RingConfiguration,
    _check_count,
    _polar_error,
    force_hessian_blocks,
)

# Eigenvalues below this fraction of the matrix scale count as zero modes.
EIG_ZERO_TOL = 1e-9

# A ring whose fixed-point residual max-norm reaches this is not a fixed point.
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class LinearizationBlocks:
    """Coupling matrices of the linearized flow at an equatorial fixed point.

    ``vertical`` couples colatitude perturbations, ``tangential`` couples
    longitude perturbations; both are symmetric n-by-n.  ``mass_diagonal``
    holds the masses, the diagonal of the kinetic metric on the equator.
    The arrays are read-only float copies, so what does not depend on the
    rotation rate (block spectra, lambda1, symmetry bases) is computed once
    per instance and shared by every rate.
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
    def _spectra(self) -> _BlockSpectra:
        return _block_spectra(self)

    @cached_property
    def _bases(self) -> tuple:
        return _symmetry_bases(self)


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
    _check_count(masses, ring.n)
    res, vertical, tangential = _ring_pass(masses.masses, ring.longitudes)
    worst = float(np.max(np.abs(res)))
    if not worst < residual_tol:
        raise NotAFixedPoint("ring misses the fixed-point equations by %.3g" % worst)
    return LinearizationBlocks(masses, ring, vertical, tangential)


def null_vectors(ring: RingConfiguration) -> tuple:
    """(radial, transverse, uniform): the ring's x and y coordinates, killed by
    the vertical block, and the all-ones vector, killed by the tangential one."""
    phis = np.array(ring.longitudes)
    return np.cos(phis), np.sin(phis), np.ones(ring.n)


def null_structure_check(blocks: LinearizationBlocks) -> dict:
    """Relative norms of the blocks applied to their symmetry null vectors."""
    radial, transverse, uniform = null_vectors(blocks.ring)
    vnorm = float(np.linalg.norm(blocks.vertical))
    tnorm = float(np.linalg.norm(blocks.tangential))
    return {
        "vertical_radial": float(np.linalg.norm(blocks.vertical @ radial)) / vnorm,
        "vertical_transverse": float(np.linalg.norm(blocks.vertical @ transverse))
        / vnorm,
        "tangential_uniform": float(np.linalg.norm(blocks.tangential @ uniform))
        / tnorm,
    }


def assemble_L_from_blocks(blocks: LinearizationBlocks, omega: float) -> np.ndarray:
    """Full 4n-by-4n linearized flow matrix at the rotating ring.

    Coordinate order is (theta, phi, p_theta, p_phi).  The rotation enters
    only through the centrifugal shift of the vertical block.  A rate that
    ``rate_square`` rejects raises InvalidConfiguration.
    """
    n = blocks.n
    m = blocks.mass_diagonal
    L = np.zeros((4 * n, 4 * n))
    minv = np.diag(1.0 / m)
    L[0:n, 2 * n : 3 * n] = minv
    L[n : 2 * n, 3 * n : 4 * n] = minv
    L[2 * n : 3 * n, 0:n] = blocks.vertical - rate_square(omega) * np.diag(m)
    L[3 * n : 4 * n, n : 2 * n] = blocks.tangential
    return L


def assemble_L_general(masses: MassVector, state) -> np.ndarray:
    """Linearized Hamiltonian flow at an arbitrary phase state.

    ``state`` needs ``n``, ``thetas``, ``phis``, ``pthetas`` and ``pphis``,
    as a PhaseState has; ``force_hessian_blocks`` checks its body count, and
    a colatitude at the polar guard raises PolarSingularity.  The coordinate
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


def _mass_weighted_eigensolve(block: np.ndarray, m: np.ndarray):
    """Eigenpairs of block @ diag(1/m) through the symmetric congruence.

    Conjugating by the square root of the mass diagonal turns the product
    into a symmetric matrix, so the eigenvalues are real and the solve is
    well conditioned.  Returned vectors u satisfy block @ diag(1/m) u = lam u.
    """
    root = np.sqrt(m)
    sym = block / root[:, None] / root[None, :]
    lams, w = np.linalg.eigh(sym)
    vecs = root[:, None] * w
    return lams, vecs, float(np.linalg.norm(sym))


@dataclass(frozen=True)
class StabilityReport:
    """Spectral classification of a rigid ring rotation.

    ``vertical_eigenvalues`` and ``tangential_eigenvalues`` list the spectra
    of the mass-weighted coupling blocks in ascending order.  ``lambda1`` is
    the single positive vertical eigenvalue whose square root separates the
    unstable and stable rotation rates.  ``spectrum`` holds the 4n - 6
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

    vertical_eigenvalues: tuple
    tangential_eigenvalues: tuple
    vertical_rest: tuple
    tangential_pairs: tuple
    lambda1: float
    omega_critical: float
    vertical_vector: np.ndarray


def _block_spectra(blocks: LinearizationBlocks) -> _BlockSpectra:
    m = blocks.mass_diagonal
    vlams, vvecs, vscale = _mass_weighted_eigensolve(blocks.vertical, m)
    tlams, _, tscale = _mass_weighted_eigensolve(blocks.tangential, m)
    vzero = np.abs(vlams) <= EIG_ZERO_TOL * vscale
    tzero = np.abs(tlams) <= EIG_ZERO_TOL * tscale
    if int(np.sum(vzero)) != 2:
        raise DegenerateSpectrum(
            "vertical block has %d zero modes, expected 2" % int(np.sum(vzero))
        )
    if int(np.sum(tzero)) != 1:
        raise DegenerateSpectrum(
            "tangential block has %d zero modes, expected 1" % int(np.sum(tzero))
        )
    vrest = vlams[~vzero]
    trest = tlams[~tzero]
    if vrest.size == 0 or np.any(vrest <= 0.0):
        raise DegenerateSpectrum("vertical block has a nonpositive transverse mode")
    if np.any(trest >= 0.0):
        raise DegenerateSpectrum("tangential block has a nonnegative transverse mode")
    top = int(np.argmax(vlams))  # the zero modes lie below the positive rest
    lam1 = float(vlams[top])
    tangential_pairs = []
    for lam in trest.tolist():
        s = complex(0.0, math.sqrt(-lam))
        tangential_pairs.extend([s, -s])
    return _BlockSpectra(
        vertical_eigenvalues=tuple(vlams.tolist()),
        tangential_eigenvalues=tuple(tlams.tolist()),
        vertical_rest=tuple(vrest.tolist()),
        tangential_pairs=tuple(tangential_pairs),
        lambda1=lam1,
        omega_critical=math.sqrt(lam1),
        vertical_vector=_frozen(vvecs[:, top].copy()),
    )


def spectral_analysis(blocks: LinearizationBlocks, omega: float = 0.0) -> StabilityReport:
    """Classify the rotating ring through the mass-weighted block spectra.

    The vertical block must show exactly two zero modes with the rest
    positive, the tangential block exactly one zero mode with the rest
    negative; any other pattern raises DegenerateSpectrum.  The block
    spectra are computed on the first call for ``blocks`` and reused.
    """
    spectra = blocks._spectra
    w2 = omega * omega
    spectrum = []
    for lam in spectra.vertical_rest:
        s = cmath.sqrt(complex(lam - w2))
        spectrum.extend([s, -s])
    verdict, exponent = rate_verdict(float(omega), spectra.lambda1)
    return StabilityReport(
        masses=blocks.masses,
        omega=float(omega),
        vertical_eigenvalues=spectra.vertical_eigenvalues,
        tangential_eigenvalues=spectra.tangential_eigenvalues,
        lambda1=spectra.lambda1,
        omega_critical=spectra.omega_critical,
        verdict=verdict,
        spectrum=tuple(spectrum) + spectra.tangential_pairs,
        unstable_exponent=exponent,
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


def _skew_matrix(dim4n: int) -> np.ndarray:
    half = dim4n // 2
    J = np.zeros((dim4n, dim4n))
    J[:half, half:] = -np.eye(half)
    J[half:, :half] = np.eye(half)
    return J


@dataclass(frozen=True)
class InvariantSplitting:
    """Symmetry subspaces of the linearized flow and the transverse spectra.

    ``symmetry_basis`` spans the modes generated by the rotational
    symmetries and their momentum shifts (dimension 6); ``rotation_basis``
    is the 2-dimensional part from the rotation about the polar axis alone.
    The complements are skew-orthogonal: ``transverse_basis`` (dimension
    4n - 6) pairs to zero with every symmetry mode, ``reduced_basis``
    (dimension 4n - 2) with the rotation modes.  Residuals measure how far
    the flow matrix is from leaving each subspace invariant.
    """

    symmetry_basis: np.ndarray
    rotation_basis: np.ndarray
    transverse_basis: np.ndarray
    reduced_basis: np.ndarray
    symmetry_residual: float
    transverse_residual: float
    reduced_residual: float
    transverse_spectrum: tuple
    reduced_spectrum: tuple
    nilpotent_residual: float | None


def _skew_complement(basis: np.ndarray, expected_dim: int) -> np.ndarray:
    """Orthonormal basis of the skew-orthogonal complement of ``basis``."""
    dim = basis.shape[0]
    J = _skew_matrix(dim)
    constraint = basis.T @ J
    _, sing, vt = np.linalg.svd(constraint)
    rank = int(np.sum(sing > 1e-10 * (sing[0] if sing.size else 1.0)))
    null_dim = dim - rank
    if null_dim != expected_dim:
        raise DegenerateBasis(
            "skew complement has dimension %d, expected %d" % (null_dim, expected_dim)
        )
    return vt[rank:].T


def _restriction(L: np.ndarray, q: np.ndarray, denom: float):
    """Matrix of L on the span of the orthonormal columns q, with residual."""
    lq = L @ q
    coeffs = q.T @ lq
    leak = lq - q @ coeffs
    return coeffs, float(np.linalg.norm(leak)) / denom


def _symmetry_bases(blocks: LinearizationBlocks) -> tuple:
    """Read-only symmetry, rotation, orthonormal symmetry, transverse and
    reduced bases: the rate-independent part of an InvariantSplitting."""
    n = blocks.n
    dim = 4 * n
    m = blocks.mass_diagonal
    radial, transverse, uniform = null_vectors(blocks.ring)

    symmetry = np.zeros((dim, 6))
    symmetry[0:n, 0] = radial
    symmetry[2 * n : 3 * n, 1] = m * radial
    symmetry[0:n, 2] = transverse
    symmetry[2 * n : 3 * n, 3] = m * transverse
    symmetry[n : 2 * n, 4] = uniform
    symmetry[3 * n : 4 * n, 5] = m * uniform
    rotation = symmetry[:, 4:6]
    q_sym, _ = np.linalg.qr(symmetry)
    transverse = _skew_complement(symmetry, dim - 6)
    reduced = _skew_complement(rotation, dim - 2)
    return tuple(_frozen(b) for b in (symmetry, rotation, q_sym, transverse, reduced))


def invariant_subspaces(
    blocks: LinearizationBlocks, omega: float = 0.0
) -> InvariantSplitting:
    """Split phase space at the rotating ring into symmetry and transverse parts.

    The symmetry modes are built explicitly from the null vectors; both
    skew-complements come from an SVD null space.  The symmetry subspace is
    invariant at every rotation rate, and at rate zero its restriction is
    nilpotent of index two, which is reported through ``nilpotent_residual``.
    The bases are built on the first call for ``blocks``, are read-only and
    are shared by every later call.
    """
    symmetry, rotation, q_sym, transverse, reduced = blocks._bases
    L = assemble_L_from_blocks(blocks, omega)
    norm = float(np.linalg.norm(L))
    sym_restriction, sym_residual = _restriction(L, q_sym, norm)
    nilpotent = None
    if omega == 0.0:
        nilpotent = float(
            np.linalg.norm(sym_restriction @ sym_restriction)
        ) / max(norm, 1.0)
    trans_restriction, trans_residual = _restriction(L, transverse, norm)
    red_restriction, red_residual = _restriction(L, reduced, norm)
    return InvariantSplitting(
        symmetry_basis=symmetry,
        rotation_basis=rotation,
        transverse_basis=transverse,
        reduced_basis=reduced,
        symmetry_residual=sym_residual,
        transverse_residual=trans_residual,
        reduced_residual=red_residual,
        transverse_spectrum=tuple(np.linalg.eigvals(trans_restriction)),
        reduced_spectrum=tuple(np.linalg.eigvals(red_restriction)),
        nilpotent_residual=nilpotent,
    )
