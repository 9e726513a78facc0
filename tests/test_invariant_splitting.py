"""The invariant splitting from closed-form parity bases, against the eager
SVD splitting.

``eager_splitting`` computes the splitting the generic way: the QR of the
symmetry matrix, skew complements from an SVD null space, and dense
eigensolves of the 6-by-6 and 10-by-10 restrictions of the 12-by-12 flow
matrix.  ``stability.invariant_subspaces`` builds every basis per parity in
closed form instead.  Each part must match the oracle within a bound derived
from the oracle's own conditioning, on drawn triples, on triples near the
admissibility boundary on the four rays of the ``atlas`` benchmark's edge
triples, and at rates from zero to 1e100:

- A basis, by its orthogonal projector P.  A backward-stable QR or SVD of a
  matrix B finds its column space or skew complement within about
  eps * cond(B) in sin-theta (Wedin); the closed forms are within a few eps.
  So ||P - P_oracle||_2 <= SLACK * eps * cond(B).
- A residual, ||(I - P) L P||_F / ||L||_F, moves by at most 2 ||dP||_2 when
  P moves by dP, plus its rounding.
- An eigenvalue z of the eager restriction R = Q^T L Q.  The eigensolve is
  exact for R + E with ||E|| <= SLACK * eps * ||L||_F, and the oracle basis's
  error moves R by ||L||_F times its projector error; z moves by at most
  kappa(z) times the sum, where kappa(z) = |x| |y| / |y^H x| for its right
  and left eigenvectors x and y.

Where numpy's Frobenius norm of the flow matrix overflows (the rate 1e100),
the oracle reads nan: there the bases are still held to the oracle's, which
do not depend on the rate, and the spectrum to ``spectral_analysis``.

The splitting builds its frames as float tuples; ``oracle_parity_bases``
builds the same Householder bases as arrays, and the basis properties must
match it byte for byte.
"""

import ast
import dataclasses
import inspect
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvednbody import stability
from curvednbody.errors import DegenerateSpectrum, InvalidConfiguration
from curvednbody.geometry import MassVector
from curvednbody.stability import (
    InvariantSplitting,
    LinearizationBlocks,
    assemble_L_from_blocks,
    invariant_subspaces,
    ring_pipeline,
    spectral_analysis,
)

from conftest import CENTRE, EDGE_RAYS, SKEW, boundary_reach, null_vectors

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

EPS = np.finfo(float).eps
# the multiple of eps in a backward error of a dense factorization of the
# 12-dimensional flow: the dimension itself
SLACK = 12.0

BASES = ("symmetry_basis", "rotation_basis", "transverse_basis", "reduced_basis")
PARTS = BASES + (
    "symmetry_residual",
    "transverse_residual",
    "reduced_residual",
    "transverse_spectrum",
    "reduced_spectrum",
    "nilpotent_residual",
)
# rates as (value, relative): a multiple of omega_crit, or the rate itself
RATES = tuple((f, True) for f in (0.0, 0.5, -0.5, 1.0, 1.5)) + tuple(
    (w, False) for w in (-0.0, -0.7, 1e100)
)


def oracle_skew_complement(basis):
    """Orthonormal basis of the skew complement of ``basis``, from an SVD."""
    _, sing, vt = np.linalg.svd(basis.T @ SKEW)
    rank = int(np.sum(sing > 1e-10 * sing[0]))
    assert rank == basis.shape[1]
    return vt[rank:].T


def oracle_restriction(L, q, denom):
    lq = L @ q
    coeffs = q.T @ lq
    leak = lq - q @ coeffs
    return coeffs, float(np.linalg.norm(leak)) / denom


def eigen_conditions(matrix):
    """Eigenvalues of a dense matrix and each one's condition number; a
    defective or nearly defective eigenvalue's is inf."""
    values, right = np.linalg.eig(matrix)
    with np.errstate(all="ignore"):
        try:
            left = np.linalg.inv(right)
        except np.linalg.LinAlgError:
            return values, np.full(values.shape, np.inf)
        kappa = np.linalg.norm(right, axis=0) * np.linalg.norm(left, axis=1)
    return values, np.nan_to_num(kappa, nan=np.inf)


def eager_splitting(blocks, omega):
    """Every part of the splitting, computed the generic way, with the
    conditioning each bound of the module docstring needs."""
    m = blocks.mass_diagonal
    radial, transverse, uniform = null_vectors(blocks.ring)
    symmetry = np.zeros((12, 6))
    symmetry[0:3, 0] = radial
    symmetry[6:9, 1] = m * radial
    symmetry[0:3, 2] = transverse
    symmetry[6:9, 3] = m * transverse
    symmetry[3:6, 4] = uniform
    symmetry[9:12, 5] = m * uniform
    rotation = symmetry[:, 4:6]
    L = assemble_L_from_blocks(blocks, omega)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = float(np.linalg.norm(L))
    out = {
        "symmetry_basis": np.linalg.qr(symmetry)[0],
        "rotation_basis": np.linalg.qr(rotation)[0],
        "transverse_basis": oracle_skew_complement(symmetry),
        "reduced_basis": oracle_skew_complement(rotation),
        "symmetry_cond": np.linalg.cond(symmetry),
        "rotation_cond": np.linalg.cond(rotation),
        "norm": norm,
    }
    if not math.isfinite(norm):
        return out
    for part in ("symmetry", "transverse", "reduced"):
        restriction, residual = oracle_restriction(L, out[part + "_basis"], norm)
        out[part + "_residual"] = residual
        out[part + "_restriction"] = restriction
    out["nilpotent_residual"] = None
    if omega == 0.0:
        square = out["symmetry_restriction"] @ out["symmetry_restriction"]
        out["nilpotent_residual"] = float(np.linalg.norm(square)) / max(norm, 1.0)
    return out


def oracle_normal_frame(v):
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


def oracle_embed(*columns):
    out = np.zeros((12, sum(cols.shape[1] for cols in columns)))
    start = 0
    for cols, row in zip(columns, (0, 6, 3, 9)):
        out[row : row + 3, start : start + cols.shape[1]] = cols
        start += cols.shape[1]
    return out


def oracle_parity_bases(blocks):
    """The transverse, symmetry and reduced bases as arrays, each column in
    one parity, from Householder frames of w / m, w, m and (1, 1, 1)."""
    m = blocks.masses.masses
    p1, p2, p3 = blocks.ring.longitudes
    w = [math.sin(p3 - p2), math.sin(p1 - p3), math.sin(p2 - p1)]
    w_unit, w_plane = oracle_normal_frame(w)
    wm_unit, wm_plane = oracle_normal_frame([x / mi for x, mi in zip(w, m)])
    one_unit, one_plane = oracle_normal_frame([1.0, 1.0, 1.0])
    m_unit, m_plane = oracle_normal_frame(list(m))
    return {
        "transverse_basis": oracle_embed(wm_unit, w_unit, m_plane, one_plane),
        "symmetry_basis": oracle_embed(w_plane, wm_plane, one_unit, m_unit),
        "reduced_basis": oracle_embed(np.eye(3), np.eye(3), m_plane, one_plane),
    }


def projector(basis):
    return basis @ basis.T


def match_pairs(got, want):
    """(got, want) pairs of a one-to-one nearest matching of two eigenvalue lists."""
    got = [complex(z) for z in got]
    pairs = []
    for z in want:
        k = int(np.argmin([abs(g - z) for g in got]))
        pairs.append((got.pop(k), z))
    assert not got
    return pairs


def assert_spectrum_near_analytic(got, rep):
    """The transverse spectrum against ``spectral_analysis``'s, both ordered
    vertical pair first, then the tangential pairs, larger magnitudes first.

    Each z is +-sqrt(mu) of an eigenvalue mu of a mass-weighted block product,
    found both ways within a few eps * K, where K is the scale that mu is
    computed from: lambda1 + omega^2 for the vertical pair, the larger
    tangential magnitude for the tangential ones.  So z is found within
    |d mu| / (2 |z|), that is within eps * |z| * K / |mu| up to the factor
    SLACK.
    """
    w2 = rep.omega * rep.omega
    big = -min(rep.tangential_eigenvalues)
    scales = [rep.lambda1 + w2] * 2 + [big] * 4
    assert len(got) == len(rep.spectrum) == 6
    for z, want, scale in zip(got, rep.spectrum, scales):
        assert abs(z - want) <= SLACK * EPS * scale / abs(want)
        assert z.real == 0.0 or want.imag == 0.0


def assert_matches_eager(blocks, omega):
    """Every part of ``invariant_subspaces(blocks, omega)`` within the bounds
    of the module docstring of the eager splitting's."""
    split = invariant_subspaces(blocks, omega)
    want = eager_splitting(blocks, omega)
    bound = {
        "symmetry": SLACK * EPS * want["symmetry_cond"],
        "rotation": SLACK * EPS * want["rotation_cond"],
        "transverse": SLACK * EPS * want["symmetry_cond"],
        "reduced": SLACK * EPS * want["rotation_cond"],
    }
    for part, tol in bound.items():
        got = getattr(split, part + "_basis")
        assert not got.flags.writeable
        assert np.allclose(got.T @ got, np.eye(got.shape[1]), rtol=0.0, atol=4 * EPS)
        gap = np.linalg.norm(projector(got) - projector(want[part + "_basis"]), 2)
        assert gap <= tol, part
    for part in ("symmetry", "transverse", "reduced"):
        assert math.isfinite(getattr(split, part + "_residual"))
    if not math.isfinite(want["norm"]):
        rep = spectral_analysis(blocks, omega)
        assert_spectrum_near_analytic(split.transverse_spectrum, rep)
        return
    rounding = SLACK * EPS
    for part in ("symmetry", "transverse", "reduced"):
        got = getattr(split, part + "_residual")
        assert abs(got - want[part + "_residual"]) <= 2 * bound[part] + rounding, part
    if omega == 0.0:
        # R^2 = Q^T L P L Q moves by 4 ||L|| ||dP|| at most, over max(||L||, 1)
        gap = abs(split.nilpotent_residual - want["nilpotent_residual"])
        assert gap <= 4 * (bound["symmetry"] + rounding) * want["norm"]
    else:
        assert split.nilpotent_residual is None
    for part in ("transverse", "reduced"):
        spectrum = getattr(split, part + "_spectrum")
        values, kappa = eigen_conditions(want[part + "_restriction"])
        moved = SLACK * EPS * want["norm"] + want["norm"] * bound[part]
        closed = spectrum[:6] if part == "reduced" else ()
        for (got, z), k in zip(match_pairs(spectrum, values), kappa):
            assert math.isfinite(abs(got))
            extra = rank_one_move(blocks, omega, got) if got in closed else 0.0
            assert abs(got - z) <= k * moved + extra, (part, got, z)


def rank_one_move(blocks, omega, z):
    """How far a vertical pair z = +-sqrt(nu - omega^2) of the reduced
    spectrum may lie from the flow's own.  It takes nu from (lambda1, 0, 0),
    the spectrum of the rank-one S0 = tr(S) y y^T with S the mass-weighted
    vertical block and y its unit vector along w / sqrt(m).  S's own
    eigenvalues lie within delta = ||S - S0||_2 of those (Weyl), plus the
    rounding of the trace, and a principal square root of reals moves by at
    most min(sqrt(delta), delta / |z|)."""
    lam1, u = stability.vertical_mode(blocks)
    root = np.sqrt(blocks.mass_diagonal)
    sym = blocks.vertical / root[:, None] / root[None, :]
    y = u / root
    delta = np.linalg.norm(sym - np.trace(sym) * np.outer(y, y), 2)
    delta += SLACK * EPS * (lam1 + omega * omega)
    return min(math.sqrt(delta), delta / abs(z)) if z else math.sqrt(delta)


def fresh_blocks(masses):
    """Blocks without the residual gate, which the edge triples fail."""
    return ring_pipeline(masses, math.inf)[3]


def matches_eager(masses, rate):
    """``assert_matches_eager`` at ``rate``; a ring whose block spectra are
    degenerate takes omega_crit as 1."""
    value, relative = rate
    blocks = fresh_blocks(masses)
    try:
        crit = spectral_analysis(blocks, 0.0).omega_critical
    except DegenerateSpectrum:
        crit = 1.0
    assert_matches_eager(blocks, value * crit if relative else value)


@st.composite
def interior_triples(draw):
    """A triple on a ray from the equal-mass point, short of the boundary."""
    d, reach = boundary_reach(draw(st.floats(0.0, 2.0 * math.pi)))
    fraction = draw(st.floats(0.0, 0.99))
    return tuple(CENTRE + fraction * reach * dk for dk in d)


@st.composite
def edge_triples(draw):
    """A triple on an edge ray, from 99 % to 1 - 1e-6 of the way to the boundary."""
    d, reach = draw(st.sampled_from(EDGE_RAYS))
    fraction = draw(st.one_of(st.floats(0.99, 1.0 - 1e-6), st.just(1.0 - 1e-6)))
    return tuple(CENTRE + fraction * reach * dk for dk in d)


@PROPERTY
@given(st.one_of(interior_triples(), edge_triples()), st.sampled_from(RATES))
@example((0.2, 0.5, 0.3), (0.0, False))
@example((1.0, 1.0, 1.0), (1e100, False))
@example((1.0, 1.0, 1.0), (1.5, True))
def test_every_part_matches_the_eager_splitting(masses, rate):
    matches_eager(masses, rate)


@PROPERTY
@given(st.one_of(interior_triples(), edge_triples()))
@example((1.0, 1.0, 1.0))
def test_bases_are_the_householder_bases_bit_for_bit(masses):
    # the frames on floats give the bits of the array-built Householder bases
    blocks = fresh_blocks(masses)
    want = oracle_parity_bases(blocks)
    want["rotation_basis"] = want["symmetry_basis"][:, 4:6]
    split = invariant_subspaces(blocks, 0.7)
    for name in BASES:
        got = getattr(split, name)
        assert got.shape == want[name].shape
        assert got.tobytes() == want[name].tobytes(), name


@pytest.mark.parametrize("rate", RATES, ids=repr)
def test_every_part_matches_at_the_edge_triples(rate):
    # the atlas benchmark's edge triples, whose rings fail the residual gate
    for d, reach in EDGE_RAYS:
        matches_eager(tuple(CENTRE + (1.0 - 1e-6) * reach * dk for dk in d), rate)


@pytest.mark.parametrize("masses", [(0.2, 0.5, 0.3), (1.0, 1.0, 1.0), (0.25, 0.45, 0.3)])
def test_transverse_spectrum_matches_spectral_analysis_up_to_1e100(masses):
    blocks = ring_pipeline(masses)[3]
    crit = spectral_analysis(blocks, 0.0).omega_critical
    rates = [f * crit for f in (0.5, 0.9, 1.1, 1.5, 2.0, 10.0)]
    for omega in rates + [1e3, 1e7, 1e10, 1e50, 1e100]:
        split = invariant_subspaces(blocks, omega)
        rep = spectral_analysis(blocks, omega)
        assert_spectrum_near_analytic(split.transverse_spectrum, rep)
        for part in ("symmetry", "transverse", "reduced"):
            assert getattr(split, part + "_residual") <= SLACK * EPS
        if omega > crit:
            assert max(abs(z.real) for z in split.reduced_spectrum) == 0.0


def test_nilpotent_residual_only_at_rate_zero(triples_1000):
    for masses in triples_1000[:20]:
        blocks = ring_pipeline(masses)[3]
        assert invariant_subspaces(blocks, 0.0).nilpotent_residual < 1e-12
        assert invariant_subspaces(blocks, -0.0).nilpotent_residual is not None
        assert invariant_subspaces(blocks, 5e-324).nilpotent_residual is None


def test_no_read_makes_a_factorization_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a factorization was called")

    for name in ("qr", "svd", "eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name, refuse)
    blocks = fresh_blocks((0.2, 0.5, 0.3))
    for omega in (0.0, 0.7, 2.3, 1e100):
        split = invariant_subspaces(blocks, omega)
        for name in PARTS:
            getattr(split, name)


def test_second_read_does_not_compute_again(monkeypatch):
    calls = Counter()

    def spy(name):
        real = getattr(stability, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(stability, name, counted)

    for name in ("_plane", "_split_parts", "_pair_part", "_parity_bases"):
        spy(name)
    blocks = fresh_blocks((0.2, 0.5, 0.3))
    split = invariant_subspaces(blocks, 0.0)
    # the frames and the rate-free numbers once per blocks, no basis array
    assert calls == Counter({"_plane": 1, "_split_parts": 1, "_pair_part": 1})
    assert "_bases" not in vars(blocks)
    first = {name: getattr(split, name) for name in PARTS}
    for name in reversed(PARTS):
        assert getattr(split, name) is first[name] or name == "rotation_basis"
    # the bases and the symmetry planes on first read, the symmetry part once
    assert calls == Counter(
        {"_plane": 3, "_split_parts": 1, "_pair_part": 2, "_parity_bases": 1})
    other = invariant_subspaces(blocks, 0.7)
    assert calls["_pair_part"] == 2
    for name in PARTS:
        getattr(other, name)
    assert calls == Counter(
        {"_plane": 3, "_split_parts": 1, "_pair_part": 3, "_parity_bases": 1})


def test_stability_makes_no_matrix_product():
    # the splitting and the spectra are on floats, so no BLAS kernel, whose
    # choice depends on the CPU, can move a bit of what they report
    tree = ast.parse(inspect.getsource(stability))
    for node in ast.walk(tree):
        assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult))
        if isinstance(node, ast.Attribute):
            assert node.attr not in ("dot", "matmul", "linalg", "einsum"), node.attr


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e200])
def test_rejected_rate_raises_at_the_call(omega):
    blocks = ring_pipeline((0.2, 0.5, 0.3))[3]
    with pytest.raises(InvalidConfiguration):
        invariant_subspaces(blocks, omega)
    assert_matches_eager(blocks, 0.7)


def test_parts_are_read_only():
    split = invariant_subspaces(ring_pipeline((0.2, 0.5, 0.3))[3], 0.0)
    for name in BASES:
        basis = getattr(split, name)
        assert not basis.flags.writeable
        with pytest.raises(ValueError):
            basis[0, 0] = 1.0
    for name in PARTS:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(split, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(split, name)
        assert getattr(split, name) is not None


def test_replace_keeps_the_parts_it_does_not_name():
    split = invariant_subspaces(ring_pipeline((0.2, 0.5, 0.3))[3], 0.0)
    spectrum = list(split.transverse_spectrum)
    spectrum[0] *= 1.0 + 1e-6
    changed = dataclasses.replace(split, transverse_spectrum=tuple(spectrum))
    assert isinstance(changed, InvariantSplitting)
    assert changed.transverse_spectrum == tuple(spectrum)
    for name in PARTS:
        if name != "transverse_spectrum":
            got, want = getattr(changed, name), getattr(split, name)
            if isinstance(want, np.ndarray):
                assert got.tobytes() == want.tobytes()
            else:
                assert got == want


def test_fields_are_the_transverse_part_and_the_inputs_of_the_rest():
    names = [f.name for f in dataclasses.fields(InvariantSplitting)]
    assert names == [
        "transverse_residual",
        "transverse_spectrum",
        "_blocks",
        "_norm",
        "_omega",
    ]


@pytest.mark.parametrize("scale", [1e-11, 1e11])
def test_mass_scale_gives_a_full_splitting(scale):
    # the eager splitting's rank threshold of 1e-10 lost the rotation modes
    # at these scales; the closed forms hold every scale
    _, _, ring, blocks = ring_pipeline((0.2, 0.5, 0.3))
    masses = MassVector(tuple(scale * m for m in (0.2, 0.5, 0.3)))
    scaled = LinearizationBlocks(masses, ring, blocks.vertical, blocks.tangential)
    m = scaled.mass_diagonal
    radial, transverse, uniform = null_vectors(ring)
    modes = np.zeros((12, 6))
    rows = (0, 6, 0, 6, 3, 9)
    vectors = (radial, m * radial, transverse, m * transverse, uniform, m)
    for k, (row, vector) in enumerate(zip(rows, vectors)):
        modes[row : row + 3, k] = vector / np.linalg.norm(vector)
    split = invariant_subspaces(scaled, 0.7)
    for name, dim, pairs_with in (
        ("symmetry_basis", 6, None),
        ("transverse_basis", 6, modes),
        ("reduced_basis", 10, modes[:, 4:6]),
    ):
        basis = getattr(split, name)
        assert np.allclose(basis.T @ basis, np.eye(dim), rtol=0.0, atol=4 * EPS)
        if pairs_with is not None:
            assert np.max(np.abs(basis.T @ SKEW @ pairs_with)) <= SLACK * EPS
    gap = projector(split.symmetry_basis) - projector(np.linalg.qr(modes)[0])
    assert np.linalg.norm(gap, 2) <= SLACK * EPS * np.linalg.cond(modes)
    rep = spectral_analysis(scaled, 0.7)
    assert_spectrum_near_analytic(split.transverse_spectrum, rep)
    assert len(split.reduced_spectrum) == 10
