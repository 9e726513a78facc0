"""The invariant splitting, built in parts, against the eager splitting.

``stability.invariant_subspaces`` builds the transverse part at the call and
the symmetry and reduced parts on their first read, and ``LinearizationBlocks``
caches each basis on its own.  Every part must equal what ``eager_splitting``,
the splitting as it was computed whole at the call, gives: bases byte for byte,
residuals and spectra by ``float.hex``, in either order of reading, on drawn
triples, on triples near the admissibility boundary on the four rays of the
``atlas`` benchmark's edge triples, and at rates from zero to 1e100.  The work
tests count the factorizations a read makes.
"""

import dataclasses
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvednbody import stability
from curvednbody.errors import DegenerateBasis, DegenerateSpectrum, InvalidConfiguration
from curvednbody.geometry import MassVector
from curvednbody.stability import (
    SKEW,
    InvariantSplitting,
    LinearizationBlocks,
    assemble_L_from_blocks,
    invariant_subspaces,
    null_vectors,
    ring_pipeline,
)

from conftest import CENTRE, EDGE_RAYS, boundary_reach

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=200)

PARTS = (
    "symmetry_basis",
    "rotation_basis",
    "transverse_basis",
    "reduced_basis",
    "symmetry_residual",
    "transverse_residual",
    "reduced_residual",
    "transverse_spectrum",
    "reduced_spectrum",
    "nilpotent_residual",
)
# two orders of first reads: the reduced part before the symmetry part and after
REDUCED_FIRST = (
    "reduced_spectrum",
    "reduced_residual",
    "reduced_basis",
    "nilpotent_residual",
    "symmetry_residual",
    "rotation_basis",
    "symmetry_basis",
    "transverse_spectrum",
    "transverse_residual",
    "transverse_basis",
)
SYMMETRY_FIRST = (
    "nilpotent_residual",
    "symmetry_basis",
    "symmetry_residual",
    "rotation_basis",
    "reduced_basis",
    "reduced_residual",
    "reduced_spectrum",
    "transverse_basis",
    "transverse_residual",
    "transverse_spectrum",
)
# rates as (value, relative): a multiple of omega_crit, or the rate itself
RATES = tuple((f, True) for f in (0.0, 0.5, -0.5, 1.0, 1.5)) + tuple(
    (w, False) for w in (-0.0, -0.7, 1e100)
)


def oracle_skew_complement(basis, expected_dim):
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


def oracle_restriction(L, q, denom):
    lq = L @ q
    coeffs = q.T @ lq
    leak = lq - q @ coeffs
    return coeffs, float(np.linalg.norm(leak)) / denom


def eager_splitting(blocks, omega=0.0):
    """Every part of ``invariant_subspaces(blocks, omega)`` as an attribute,
    computed whole at the call as it was before the parts were built on first
    read."""
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
    transverse = oracle_skew_complement(symmetry, dim - 6)
    reduced = oracle_skew_complement(rotation, dim - 2)

    L = assemble_L_from_blocks(blocks, omega)
    norm = float(np.linalg.norm(L))
    sym_restriction, sym_residual = oracle_restriction(L, q_sym, norm)
    nilpotent = None
    if omega == 0.0:
        nilpotent = float(
            np.linalg.norm(sym_restriction @ sym_restriction)
        ) / max(norm, 1.0)
    trans_restriction, trans_residual = oracle_restriction(L, transverse, norm)
    red_restriction, red_residual = oracle_restriction(L, reduced, norm)
    return SimpleNamespace(
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


def bits(value):
    """A part as bytes and shape, float.hex strings, or None."""
    if value is None:
        return None
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple((complex(z).real.hex(), complex(z).imag.hex()) for z in value)
    assert type(value) is float
    return value.hex()


def outcome(call, order):
    """The parts, read in ``order``, as ``bits``, or the type and message raised."""
    got = {}
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            parts = call()
            for name in order:
                got[name] = bits(getattr(parts, name))
        except Exception as exc:  # every exception type must match
            return type(exc), str(exc)
    return got


def lazy_matches_eager(masses, rate):
    """Each read order on fresh blocks gives the eager parts at ``rate``.

    The blocks skip the residual gate, which the edge triples fail; a ring
    whose block spectra are degenerate takes omega_crit as 1."""
    value, relative = rate
    for order in (REDUCED_FIRST, SYMMETRY_FIRST):
        blocks = ring_pipeline(masses, math.inf)[3]
        try:
            crit = stability.spectral_analysis(blocks, 0.0).omega_critical
        except DegenerateSpectrum:
            crit = 1.0
        omega = value * crit if relative else value
        oracle_blocks = ring_pipeline(masses, math.inf)[3]
        want = outcome(lambda: eager_splitting(oracle_blocks, omega), PARTS)
        assert outcome(lambda: invariant_subspaces(blocks, omega), order) == want


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
def test_every_part_matches_the_eager_splitting(masses, rate):
    lazy_matches_eager(masses, rate)


@pytest.mark.parametrize("rate", RATES, ids=repr)
def test_every_part_matches_at_the_edge_triples(rate):
    # the atlas benchmark's edge triples, whose rings fail the residual gate
    for d, reach in EDGE_RAYS:
        lazy_matches_eager(tuple(CENTRE + (1.0 - 1e-6) * reach * dk for dk in d), rate)


def test_nilpotent_residual_only_at_rate_zero(triples_1000):
    for masses in triples_1000[:20]:
        blocks = ring_pipeline(masses)[3]
        assert invariant_subspaces(blocks, 0.0).nilpotent_residual < 1e-12
        assert invariant_subspaces(blocks, -0.0).nilpotent_residual is not None
        assert invariant_subspaces(blocks, 5e-324).nilpotent_residual is None


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the numpy factorizations the stability module calls."""
    calls = Counter()
    for name in ("qr", "svd", "eigvals"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_transverse_read_makes_one_svd_per_blocks_and_no_qr(linalg_calls):
    blocks = ring_pipeline((0.2, 0.5, 0.3))[3]
    for omega in (0.0, 0.7, 2.3):
        invariant_subspaces(blocks, omega).transverse_spectrum
    assert linalg_calls == Counter(svd=1, eigvals=3)


def test_full_read_makes_each_factorization_once_per_blocks(linalg_calls):
    blocks = ring_pipeline((0.2, 0.5, 0.3))[3]
    for omega in (0.0, 0.7, 2.3):
        split = invariant_subspaces(blocks, omega)
        for name in PARTS:
            getattr(split, name)
    assert linalg_calls == Counter(qr=1, svd=2, eigvals=6)


def test_second_read_does_not_compute_again(linalg_calls, monkeypatch):
    restrictions = Counter()
    real = stability._restriction

    def counted(L, q, denom):
        restrictions[q.shape[1]] += 1
        return real(L, q, denom)

    monkeypatch.setattr(stability, "_restriction", counted)
    split = invariant_subspaces(ring_pipeline((0.2, 0.5, 0.3))[3], 0.0)
    first = {name: getattr(split, name) for name in PARTS}
    for name in SYMMETRY_FIRST + REDUCED_FIRST:
        assert getattr(split, name) is first[name]
    assert restrictions == Counter({6: 2, 10: 1})
    assert linalg_calls == Counter(qr=1, svd=2, eigvals=2)


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e200])
def test_rejected_rate_raises_at_the_call(omega):
    blocks = ring_pipeline((0.2, 0.5, 0.3))[3]
    with pytest.raises(InvalidConfiguration):
        invariant_subspaces(blocks, omega)
    split = invariant_subspaces(blocks, 0.7)
    assert outcome(lambda: split, PARTS) == outcome(
        lambda: eager_splitting(ring_pipeline((0.2, 0.5, 0.3))[3], 0.7), PARTS
    )


def test_parts_are_read_only():
    split = invariant_subspaces(ring_pipeline((0.2, 0.5, 0.3))[3], 0.0)
    for name in ("symmetry_basis", "rotation_basis", "transverse_basis", "reduced_basis"):
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
    rest = [name for name in PARTS if name != "transverse_spectrum"]
    assert outcome(lambda: changed, rest) == outcome(lambda: split, rest)


def test_fields_are_the_transverse_part_and_the_inputs_of_the_rest():
    names = [f.name for f in dataclasses.fields(InvariantSplitting)]
    assert names == [
        "transverse_basis",
        "transverse_residual",
        "transverse_spectrum",
        "_blocks",
        "_flow",
        "_norm",
        "_omega",
    ]


@pytest.mark.parametrize("scale", [1e-11, 1e11])
def test_degenerate_basis_raises_at_the_call(scale):
    # the rotation columns sit in disjoint coordinates, so the reduced
    # complement loses rank only when the masses' scale leaves 1e-10 to 1e10
    # of the uniform column's, and then the symmetry basis, which holds both
    # columns, loses rank too: the transverse basis raises at the call
    _, _, ring, blocks = ring_pipeline((0.2, 0.5, 0.3))
    masses = MassVector(tuple(scale * m for m in (0.2, 0.5, 0.3)))
    scaled = LinearizationBlocks(masses, ring, blocks.vertical, blocks.tangential)
    with pytest.raises(DegenerateBasis, match="dimension 9, expected 6"):
        invariant_subspaces(scaled, 0.7)
    with pytest.raises(DegenerateBasis, match="dimension 11, expected 10"):
        scaled._reduced_complement
