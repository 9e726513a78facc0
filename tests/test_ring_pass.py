"""The one pass over a ring's pairs against the three loops it replaced.

``fixedpoints._ring_pass`` gives the fixed-point residual and both coupling
blocks from one walk of the pair table.  It must give the residual loop's and
the block loop's outputs bit for bit, on rings with gaps inside the
``SINE_RECHECK`` band, and raise their ``SingularConfiguration``
with the same message from every caller.  Newton's Jacobian, once a loop of
its own, is now the tangential block: the two agree to rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvednbody import fixedpoints, stability
from curvednbody.errors import SingularConfiguration
from curvednbody.fixedpoints import (
    _ring_pass,
    fixed_point_residual,
    solve_fixed_point_numeric,
)
from curvednbody.geometry import MassVector, RingConfiguration, _pair_table
from curvednbody.stability import assemble_blocks

from conftest import unchecked

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

masses = st.floats(1e-3, 10.0)
# a gap inside the recheck band lies within 0.1 of 0 or of pi
near_zero = st.floats(1e-9, 0.1)
gaps = st.one_of(
    st.floats(0.1, math.pi - 0.1),
    near_zero,
    near_zero.map(lambda x: math.pi - x),
)


def loop_residual(m, phis):
    """The residual loop as it stood before the one pass."""
    out = [0.0] * len(phis)
    for i, j, _, sind in _pair_table(phis=phis):
        t = m[i] * m[j] * math.sin(phis[i] - phis[j]) / (sind * sind * sind)
        out[i] += t
        out[j] -= t
    return np.array(out)


def loop_blocks(m, phis):
    """The vertical and tangential loop of ``assemble_blocks`` before the one pass."""
    n = len(phis)
    vertical = np.zeros((n, n))
    tangential = np.zeros((n, n))
    for i, j, cosd, sind in _pair_table(phis=phis):
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
    for i, j, cosd, sind in _pair_table(phis=phis):
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


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


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
    that has read the pair table for a ring."""
    seen = []

    def counted(*args, **kwargs):
        seen.append(tuple(kwargs["phis"]))
        return _pair_table(*args, **kwargs)

    for module in (fixedpoints, stability):
        if hasattr(module, "_pair_table"):
            monkeypatch.setattr(module, "_pair_table", counted)
    return seen


EQUAL_RING = RingConfiguration((0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0))


def test_assemble_blocks_makes_one_pass(passes):
    assemble_blocks(MassVector((1.0, 1.0, 1.0)), EQUAL_RING)
    assert passes == [EQUAL_RING.longitudes]


def test_each_newton_trial_makes_one_pass(passes, monkeypatch):
    solves = []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    start = RingConfiguration(
        tuple(p + d for p, d in zip(EQUAL_RING.longitudes, (0.0, 1e-3, -5e-4)))
    )
    solved = solve_fixed_point_numeric(MassVector((1.0, 1.0, 1.0)), start)
    assert solves
    # near the ring every full step is accepted: the start and one trial per
    # step, no iterate passed twice
    assert len(passes) == len(solves) + 1
    assert len(set(passes)) == len(passes)
    assert passes[-1] == solved.longitudes
