"""The one pass over a ring's pairs against the loops it replaced.

``fixedpoints._ring_pass`` gives the fixed-point residual and both coupling
blocks from one walk over the three pairs, written out as straight-line
code.  It must give the output of ``ring_pass_loop``, the loop over the pair
table that it was written from, bit for bit and raise what the loop raises,
with the same message, on every input: rings with gaps inside the
``SINE_RECHECK`` band, rings of triples near the admissibility boundary on
the four rays of the ``atlas`` benchmark's edge triples, and arbitrary
floats.  The residual loop's and the block loop's outputs hold the same way,
and every caller raises their ``SingularConfiguration`` with the same
message.  Newton's Jacobian, once a loop of its own, is now the tangential
block: the two agree to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from curvednbody import fixedpoints, stability
from curvednbody.errors import (
    InputError,
    InvalidConfiguration,
    NoConvergence,
    SingularConfiguration,
)
from curvednbody.fixedpoints import (
    NEWTON_MAX_ITERATIONS,
    NEWTON_TOL,
    _ring_pass,
    as_mass_triple,
    fixed_point_residual,
    ring_from_shape,
    shape_from_masses,
    solve_fixed_point_numeric,
)
from curvednbody.geometry import MassVector, RingConfiguration
from curvednbody.stability import assemble_blocks

from conftest import CENTRE, EDGE_RAYS, pair_table_loop, unchecked

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

masses = st.floats(1e-3, 10.0)
# a gap inside the recheck band lies within 0.1 of 0 or of pi
near_zero = st.floats(1e-9, 0.1)
gaps = st.one_of(
    st.floats(0.1, math.pi - 0.1),
    near_zero,
    near_zero.map(lambda x: math.pi - x),
)


def ring_pass_loop(m, phis):
    """``_ring_pass`` as the loop over the pair table that it was written from."""
    n = len(phis)
    res = [0.0] * n
    vertical = [[0.0] * n for _ in range(n)]
    tangential = [[0.0] * n for _ in range(n)]
    for i, j, cosd, sind in pair_table_loop(phis=phis):
        mm = m[i] * m[j]
        s3 = sind * sind * sind
        t = mm * math.sin(phis[i] - phis[j]) / s3
        res[i] += t
        res[j] -= t
        f3 = mm / s3
        vertical[i][j] = vertical[j][i] = f3
        vertical[i][i] -= f3 * cosd
        vertical[j][j] -= f3 * cosd
        g = -2.0 * f3 * cosd
        tangential[i][j] = tangential[j][i] = g
        tangential[i][i] -= g
        tangential[j][j] -= g
    return np.array(res), np.array(vertical), np.array(tangential)


def loop_residual(m, phis):
    """The residual loop as it stood before the one pass."""
    out = [0.0] * len(phis)
    for i, j, _, sind in pair_table_loop(phis=phis):
        t = m[i] * m[j] * math.sin(phis[i] - phis[j]) / (sind * sind * sind)
        out[i] += t
        out[j] -= t
    return np.array(out)


def loop_blocks(m, phis):
    """The vertical and tangential loop of ``assemble_blocks`` before the one pass."""
    n = len(phis)
    vertical = np.zeros((n, n))
    tangential = np.zeros((n, n))
    for i, j, cosd, sind in pair_table_loop(phis=phis):
        f3 = m[i] * m[j] / (sind * sind * sind)
        vertical[i, j] = f3
        vertical[j, i] = f3
        vertical[i, i] -= f3 * cosd
        vertical[j, j] -= f3 * cosd
        g = -2.0 * f3 * cosd
        tangential[i, j] = g
        tangential[j, i] = g
        tangential[i, i] -= g
        tangential[j, j] -= g
    return vertical, tangential


def loop_hessian(m, phis):
    """Newton's Jacobian loop before the one pass: the tangential block by
    another rounding of the same formula."""
    n = len(phis)
    out = np.zeros((n, n))
    for i, j, cosd, sind in pair_table_loop(phis=phis):
        g = -2.0 * m[i] * m[j] * cosd / (sind * sind * sind)
        out[i, j] = g
        out[j, i] = g
        out[i, i] -= g
        out[j, j] -= g
    return out


@st.composite
def rings(draw):
    """Masses and longitudes of a ring built from gaps."""
    m = tuple(draw(masses) for _ in range(3))
    phis = [0.0]
    for _ in range(2):
        phis.append(phis[-1] + draw(gaps))
    return m, phis


@st.composite
def near_singular_rings(draw):
    """A ring of ``rings()`` with body k moved onto body j or opposite it, to
    within an offset that keeps the pair singular or puts it in the band."""
    m, phis = draw(rings())
    j, k = draw(st.lists(st.integers(0, 2), min_size=2, max_size=2, unique=True))
    offset = draw(st.sampled_from((0.0, 1e-12, -1e-11, 1e-9, -1e-6)))
    phis[k] = phis[j] + draw(st.sampled_from((0.0, math.pi))) + offset
    return m, phis


@st.composite
def edge_rings(draw):
    """Masses and canonical longitudes of a triple on an edge ray, from 99 %
    of the way to the boundary on."""
    d, reach = draw(st.sampled_from(EDGE_RAYS))
    fraction = draw(st.one_of(st.floats(0.99, 1.0 - 1e-9), st.just(0.999999)))
    try:
        triple = as_mass_triple(tuple(CENTRE + fraction * reach * dk for dk in d))
        ring = ring_from_shape(shape_from_masses(triple))
    except InputError:
        assume(False)
    return triple.as_tuple(), list(ring.longitudes)


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


def pass_outcome(call):
    """The residual's and both blocks' entries as float.hex strings, or the
    type and message raised."""
    try:
        parts = call()
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)
    return [[x.hex() for x in np.asarray(p, dtype=float).ravel().tolist()] for p in parts]


def assert_pass_matches_loop(m, phis):
    got = pass_outcome(lambda: _ring_pass(m, phis))
    assert got == pass_outcome(lambda: ring_pass_loop(m, phis))


@PROPERTY
@given(st.one_of(rings(), near_singular_rings()))
def test_written_out_pass_matches_the_loop(ring):
    assert_pass_matches_loop(*ring)


@PROPERTY
@given(edge_rings(), st.floats(-1e-3, 1e-3), st.floats(-1e-3, 1e-3))
@example(((1 / 3, 1 / 3, 1 / 3), [0.0, 2 * math.pi / 3, 4 * math.pi / 3]), 0.0, 0.0)
def test_written_out_pass_matches_the_loop_at_the_edge_rays(ring, d1, d2):
    # at the ring and at Newton's starts around it
    m, phis = ring
    assert_pass_matches_loop(m, phis)
    assert_pass_matches_loop(m, [phis[0], phis[1] + d1, phis[2] + d2])


# masses whose products underflow give signed zeros, where a sum's start shows
any_masses = st.one_of(masses, st.floats(1e-300, 1e-150))


@PROPERTY
@given(st.tuples(any_masses, any_masses, any_masses),
       st.lists(st.floats(), min_size=3, max_size=3))
@example((1.0, 2.0, 3.0), [0.0, 0.0, math.inf])  # a singular pair before a bad cosine
@example((1e-200, 1e-200, 1.0), [0.0, 2.0, 4.0])
def test_written_out_pass_matches_the_loop_on_any_floats(m, phis):
    assert_pass_matches_loop(m, phis)


def newton_on_arrays(masses, initial, tol=NEWTON_TOL):
    """``solve_fixed_point_numeric`` with its iterates, steps and norms on
    numpy arrays, as it was before they became floats, and its 2-by-2 step by
    Cramer's rule on the arrays."""
    m = masses.masses
    phis = np.array(initial.longitudes)
    res, _, tangential = ring_pass_loop(m, phis.tolist())
    norm = float(np.max(np.abs(res)))
    for _ in range(NEWTON_MAX_ITERATIONS):
        if norm < tol:
            break
        jac, rhs = -tangential[1:, 1:], -res[1:]
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if not (det != 0.0 and np.isfinite(det)):
            raise NoConvergence("singular Newton system: determinant %r" % float(det))
        step = np.array([rhs[0] * jac[1, 1] - jac[0, 1] * rhs[1],
                         jac[0, 0] * rhs[1] - jac[1, 0] * rhs[0]]) / det
        scale = 1.0
        for _halving in range(40):
            trial = phis.copy()
            trial[1:] += scale * step
            try:
                trial_res, _, trial_tangential = ring_pass_loop(m, trial.tolist())
            except SingularConfiguration:
                if scale <= 2.0 ** -39:
                    raise
                scale *= 0.5
                continue
            trial_norm = float(np.max(np.abs(trial_res)))
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
        return RingConfiguration(tuple(phis))
    except InvalidConfiguration as exc:
        raise NoConvergence("converged to a non-canonical ring: %s" % exc) from None


def newton_outcome(call):
    """The solved longitudes as float.hex strings, or the type and message raised."""
    try:
        return [p.hex() for p in call().longitudes]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


offsets = st.one_of(st.floats(-1e-3, 1e-3), st.floats(-0.1, 0.1))


@settings(PROPERTY, max_examples=150)
@given(st.one_of(rings(), edge_rings()), offsets, offsets, st.sampled_from((NEWTON_TOL, 1e-14)))
@example(((0.0742, 0.8812, 0.0446), None), 1e-3, -1e-3, NEWTON_TOL)
def test_newton_on_floats_matches_newton_on_arrays(ring, d1, d2, tol):
    m, phis = ring
    if phis is None:  # the canonical ring of the triple
        triple = as_mass_triple(m)
        m, phis = triple.as_tuple(), list(ring_from_shape(shape_from_masses(triple)).longitudes)
    try:
        start = RingConfiguration((phis[0], phis[1] + d1, phis[2] + d2))
    except InputError:
        assume(False)
    mv = MassVector(m)
    assert newton_outcome(lambda: solve_fixed_point_numeric(mv, start, tol)) == newton_outcome(
        lambda: newton_on_arrays(mv, start, tol)
    )


@PROPERTY
@given(st.lists(st.floats(), min_size=3, max_size=3))
@example([math.nan, 1.0, 2.0])
@example([1.0, math.nan, 2.0])
@example([1.0, 2.0, math.nan])
@example([-0.0, 0.0, -0.0])
def test_residual_norm_is_numpys_max_of_abs(res):
    got = fixedpoints._residual_norm(res)
    want = float(np.max(np.abs(np.array(res))))
    assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)


def test_ring_strategies_reach_every_branch():
    # the properties above are only as good as the rings they draw
    seen = set()

    @PROPERTY
    @given(st.one_of(rings(), near_singular_rings(), edge_rings()))
    def probe(ring):
        m, phis = ring
        got = pass_outcome(lambda: ring_pass_loop(m, phis))
        if isinstance(got, tuple):
            seen.add(got[1].split(" (")[0])
            return
        for i, j, _, sind in pair_table_loop(phis=phis):
            if sind < 0.1:
                seen.add("recheck band")
        if max(abs(float.fromhex(r)) for r in got[0]) < 1e-10 * max(
            abs(float.fromhex(v)) for v in got[1]
        ):
            seen.add("fixed point")

    probe()
    for pair in ("1 and 2", "1 and 3", "2 and 3"):
        for kind in ("collision", "antipodal alignment"):
            assert "bodies %s at %s" % (pair, kind) in seen
    assert {"recheck band", "fixed point"} <= seen


def raised(call):
    """The message of the SingularConfiguration that ``call`` raises, or None."""
    try:
        call()
    except SingularConfiguration as exc:
        return str(exc)
    return None


@PROPERTY
@given(rings())
def test_pass_matches_the_loops_bit_for_bit(ring):
    m, phis = ring
    message = raised(lambda: loop_residual(m, phis))
    if message is not None:
        with pytest.raises(SingularConfiguration) as info:
            _ring_pass(m, phis)
        assert str(info.value) == message
        return
    res, vertical, tangential = _ring_pass(m, phis)
    assert same_bits(res, loop_residual(m, phis))
    want_vertical, want_tangential = loop_blocks(m, phis)
    assert same_bits(vertical, want_vertical)
    assert same_bits(tangential, want_tangential)
    # the old Jacobian rounded the same entries another way: each pair entry
    # by at most four roundings a side, a diagonal sum by n - 1 more
    scale = np.sum(np.abs(tangential), axis=1, keepdims=True)
    bound = 16 * np.finfo(float).eps * scale
    assert np.all(np.abs(loop_hessian(m, phis) - tangential) <= bound)


@PROPERTY
@given(rings())
def test_public_callers_keep_the_loop_bits(ring):
    m, phis = ring
    mv = MassVector(m)
    config = unchecked(RingConfiguration, longitudes=tuple(phis))
    if raised(lambda: loop_residual(m, phis)) is not None:
        return
    assert same_bits(fixed_point_residual(mv, config), loop_residual(m, phis))
    blocks = assemble_blocks(mv, config, residual_tol=math.inf)
    want_vertical, want_tangential = loop_blocks(m, phis)
    assert same_bits(blocks.vertical, want_vertical)
    assert same_bits(blocks.tangential, want_tangential)


@PROPERTY
@given(rings(), st.data())
def test_singular_pair_raises_one_message_everywhere(ring, data):
    m, phis = ring
    n = len(phis)
    # move body k onto body j, or opposite it
    j, k = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    phis[k] = phis[j] + data.draw(st.sampled_from((0.0, math.pi)))
    message = raised(lambda: loop_residual(m, phis))
    assert message is not None
    mv = MassVector(m)
    config = unchecked(RingConfiguration, longitudes=tuple(phis))
    assert raised(lambda: fixed_point_residual(mv, config)) == message
    assert raised(lambda: assemble_blocks(mv, config)) == message
    assert raised(lambda: solve_fixed_point_numeric(mv, config)) == message


@pytest.fixture
def passes(monkeypatch):
    """The longitudes of every pass over a ring's pairs, from either module
    that calls ``_ring_pass``."""
    seen = []

    def counted(m, phis):
        seen.append(tuple(phis))
        return _ring_pass(m, phis)

    for module in (fixedpoints, stability):
        monkeypatch.setattr(module, "_ring_pass", counted)
    return seen


EQUAL_RING = RingConfiguration((0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0))


def test_assemble_blocks_makes_one_pass(passes):
    assemble_blocks(MassVector((1.0, 1.0, 1.0)), EQUAL_RING)
    assert passes == [EQUAL_RING.longitudes]


def test_each_newton_trial_makes_one_pass(passes, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Newton step called np.linalg.solve")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    start = RingConfiguration(
        tuple(p + d for p, d in zip(EQUAL_RING.longitudes, (0.0, 1e-3, -5e-4)))
    )
    solved = solve_fixed_point_numeric(MassVector((1.0, 1.0, 1.0)), start)
    # near the ring every full step is accepted: the start and one trial per
    # step, each with a smaller residual than the last, no iterate passed twice
    norms = [float(np.max(np.abs(ring_pass_loop((1.0, 1.0, 1.0), p)[0]))) for p in passes]
    assert len(passes) >= 2
    assert all(b < a for a, b in zip(norms, norms[1:]))
    assert len(set(passes)) == len(passes)
    assert passes[-1] == solved.longitudes
