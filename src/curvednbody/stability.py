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
spectra, lambda1, each symmetry basis and the rate-independent part of the
flow matrix once, on first use; every rate reuses them.  What is done on
three numbers (the ring pass, the zero-mode counts and sign checks of the
spectra) is done on Python floats; numpy keeps the eigensolves and the
matrix products.

``invariant_subspaces`` builds at the call only what the check of the
transverse spectrum needs: the flow matrix, its norm, the transverse basis
and the transverse restriction, residual and spectrum.  The symmetry and
reduced splittings, which only the CLI's ``stability`` report prints, are
built on their first read.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
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
    _residual_norm,
    _ring_pass,
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

# Eigenvalues below this fraction of the matrix scale count as zero modes.
EIG_ZERO_TOL = 1e-9

# A ring whose fixed-point residual max-norm reaches this is not a fixed point.
FIXED_POINT_TOL = 1e-10


@dataclass(frozen=True)
class LinearizationBlocks:
    """Coupling matrices of the linearized flow at an equatorial fixed point.

    ``vertical`` couples colatitude perturbations, ``tangential`` couples
    longitude perturbations; both are symmetric 3-by-3.  ``mass_diagonal``
    holds the masses, the diagonal of the kinetic metric on the equator.
    The arrays are read-only float copies, so what does not depend on the
    rotation rate (block spectra, lambda1, the 12-by-12 flow matrix but for
    its three centrifugal entries, and the symmetry bases) is computed once
    per instance on first use, read-only, and shared by every rate.  Each
    basis has a cache of its own: the symmetry and rotation matrices, the QR
    of the symmetry matrix, and the transverse and reduced skew complements.
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
    def _symmetry(self) -> tuple:
        return _symmetry_matrices(self)

    @cached_property
    def _symmetry_q(self) -> np.ndarray:
        return _frozen(np.linalg.qr(self._symmetry[0])[0])

    @cached_property
    def _transverse_complement(self) -> np.ndarray:
        return _frozen(_skew_complement(self._symmetry[0], 4 * self.n - 6))

    @cached_property
    def _reduced_complement(self) -> np.ndarray:
        return _frozen(_skew_complement(self._symmetry[1], 4 * self.n - 2))


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
    vl, tl = vlams.tolist(), tlams.tolist()
    vtol, ttol = EIG_ZERO_TOL * vscale, EIG_ZERO_TOL * tscale
    # a nan eigenvalue is no zero mode, as numpy's comparison reads it
    vrest = [lam for lam in vl if not abs(lam) <= vtol]
    trest = [lam for lam in tl if not abs(lam) <= ttol]
    if len(vl) - len(vrest) != 2:
        raise DegenerateSpectrum(
            "vertical block has %d zero modes, expected 2" % (len(vl) - len(vrest))
        )
    if len(tl) - len(trest) != 1:
        raise DegenerateSpectrum(
            "tangential block has %d zero modes, expected 1" % (len(tl) - len(trest))
        )
    if not vrest or any(lam <= 0.0 for lam in vrest):
        raise DegenerateSpectrum("vertical block has a nonpositive transverse mode")
    if any(lam >= 0.0 for lam in trest):
        raise DegenerateSpectrum("tangential block has a nonnegative transverse mode")
    top = int(np.argmax(vlams))  # the zero modes lie below the positive rest
    lam1 = vl[top]
    tangential_pairs = []
    for lam in trest:
        s = complex(0.0, math.sqrt(-lam))
        tangential_pairs.extend([s, -s])
    return _BlockSpectra(
        vertical_eigenvalues=tuple(vl),
        tangential_eigenvalues=tuple(tl),
        vertical_rest=tuple(vrest),
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
    omega = float(omega)
    verdict, exponent = rate_verdict(omega, spectra.lambda1)
    return StabilityReport(
        blocks.masses,
        omega,
        spectra.vertical_eigenvalues,
        spectra.tangential_eigenvalues,
        spectra.lambda1,
        spectra.omega_critical,
        verdict,
        tuple(spectrum) + spectra.tangential_pairs,
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


def _canonical_skew() -> np.ndarray:
    J = np.zeros((12, 12))
    J[:6, 6:] = -np.eye(6)
    J[6:, :6] = np.eye(6)
    return _frozen(J)


# the skew form J = [[0, -I], [I, 0]] that pairs each position with its momentum
SKEW = _canonical_skew()


@dataclass(frozen=True)
class InvariantSplitting:
    """Symmetry subspaces of the linearized flow and the transverse spectra.

    ``symmetry_basis`` spans the modes generated by the rotational
    symmetries and their momentum shifts (dimension 6); ``rotation_basis``
    is the 2-dimensional part from the rotation about the polar axis alone.
    The complements are skew-orthogonal: ``transverse_basis`` (dimension 6)
    pairs to zero with every symmetry mode, ``reduced_basis`` (dimension 10)
    with the rotation modes.  Residuals measure how far
    the flow matrix is from leaving each subspace invariant.

    The transverse part (its basis, residual and spectrum) is built at the
    call.  The symmetry and rotation bases, the reduced basis, the symmetry
    and reduced residuals, the reduced spectrum and ``nilpotent_residual``
    (None unless the rate is zero) are built from the same flow matrix on
    first read, cached and read-only.  They are no dataclass fields, so
    ``dataclasses.fields``, ``replace`` and ``asdict`` see only the
    transverse part and the private inputs of the rest.
    """

    transverse_basis: np.ndarray
    transverse_residual: float
    transverse_spectrum: tuple
    _blocks: LinearizationBlocks = field(repr=False)
    _flow: np.ndarray = field(repr=False)
    _norm: float = field(repr=False)
    _omega: float = field(repr=False)

    @property
    def symmetry_basis(self) -> np.ndarray:
        return self._blocks._symmetry[0]

    @property
    def rotation_basis(self) -> np.ndarray:
        return self._blocks._symmetry[1]

    @property
    def reduced_basis(self) -> np.ndarray:
        return self._blocks._reduced_complement

    @cached_property
    def _symmetry_part(self) -> tuple:
        return _restriction(self._flow, self._blocks._symmetry_q, self._norm)

    @property
    def symmetry_residual(self) -> float:
        return self._symmetry_part[1]

    @cached_property
    def nilpotent_residual(self) -> float | None:
        if self._omega != 0.0:
            return None
        restriction = self._symmetry_part[0]
        return float(np.linalg.norm(restriction @ restriction)) / max(self._norm, 1.0)

    @cached_property
    def _reduced_part(self) -> tuple:
        return _restriction(self._flow, self.reduced_basis, self._norm)

    @property
    def reduced_residual(self) -> float:
        return self._reduced_part[1]

    @cached_property
    def reduced_spectrum(self) -> tuple:
        return tuple(np.linalg.eigvals(self._reduced_part[0]))


def _skew_complement(basis: np.ndarray, expected_dim: int) -> np.ndarray:
    """Orthonormal basis of the skew-orthogonal complement of ``basis``."""
    dim = basis.shape[0]
    constraint = basis.T @ SKEW
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


def _symmetry_matrices(blocks: LinearizationBlocks) -> tuple:
    """Read-only symmetry and rotation bases, built from the null vectors
    without a factorization; the rotation basis is a view of the last two
    symmetry columns."""
    n = blocks.n
    m = blocks.mass_diagonal
    radial, transverse, uniform = null_vectors(blocks.ring)
    symmetry = np.zeros((4 * n, 6))
    symmetry[0:n, 0] = radial
    symmetry[2 * n : 3 * n, 1] = m * radial
    symmetry[0:n, 2] = transverse
    symmetry[2 * n : 3 * n, 3] = m * transverse
    symmetry[n : 2 * n, 4] = uniform
    symmetry[3 * n : 4 * n, 5] = m * uniform
    return _frozen(symmetry), _frozen(symmetry[:, 4:6])


def invariant_subspaces(
    blocks: LinearizationBlocks, omega: float = 0.0
) -> InvariantSplitting:
    """Split phase space at the rotating ring into symmetry and transverse parts.

    The symmetry modes are built explicitly from the null vectors; both
    skew-complements come from an SVD null space.  The symmetry subspace is
    invariant at every rotation rate, and at rate zero its restriction is
    nilpotent of index two, which is reported through ``nilpotent_residual``.

    The call builds the transverse basis (its DegenerateBasis raises here),
    the flow matrix (a rate that ``rate_square`` rejects raises here), its
    norm and the transverse restriction, residual and spectrum.  Every other
    part is built on its first read from that flow matrix.  The bases are
    built once per ``blocks``, one cache per part, are read-only and are
    shared by every later call: reading only the transverse part costs one
    SVD per ``blocks`` and no QR.
    """
    transverse = blocks._transverse_complement
    L = _frozen(assemble_L_from_blocks(blocks, omega))
    norm = float(np.linalg.norm(L))
    restriction, residual = _restriction(L, transverse, norm)
    return InvariantSplitting(
        transverse,
        residual,
        tuple(np.linalg.eigvals(restriction)),
        blocks,
        L,
        norm,
        omega,
    )
