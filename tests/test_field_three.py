"""The straight-line three-body code against the loops it writes out.

``dynamics._field_kernel`` must give the output of ``_field_loop``, the
loop over ``geometry._angle_gradient`` that it was written from, bit for bit
and raise what the loop raises, with the same message, on every input:
ordinary states, states at the polar guard, states near a collision or an
antipodal alignment of each pair, and arbitrary floats.  The frame energy
``dynamics.hamiltonian``, the pair guard ``geometry._pair_guard`` and the
pair table ``geometry._pair_table`` are held the same way to
``hamiltonian_loop``, ``pair_guard_loop`` and ``pair_table_loop``, the loops
over the bodies and the pairs that they were written from, and the monitor
of a recorded sample, ``dynamics._sample_monitor``, to the guard and the
energy it reads from one set of sines.
"""

import importlib
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from curvednbody import dynamics, geometry
from curvednbody.geometry import (
    POLAR_TOL,
    SINE_RECHECK,
    SINGULAR_TOL,
    MassVector,
    _angle_gradient,
    _polar_error,
    _sphere_tables,
)
from curvednbody.integrators import SEPARATION_FLOOR

from conftest import pair_table_loop

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=400)

MASSES = (
    MassVector((1 / 3, 1 / 3, 1 / 3)),
    MassVector((0.25, 0.45, 0.30)),
    MassVector((1e-3, 7.0, 0.02)),
)
OMEGAS = st.sampled_from((0.0, 1.3, -0.4))
PAIRS = ((0, 1), (0, 2), (1, 2))

colatitudes = st.floats(1e-3, math.pi - 1e-3)
# sin(theta) around POLAR_TOL = 1e-8
near_pole = st.one_of(st.floats(0.0, 3e-8), st.floats(math.pi - 3e-8, math.pi))
# bodies all at longitude +-0 give phi partials that are signed zeros
longitudes = st.one_of(st.floats(-10.0, 10.0), st.sampled_from((0.0, -0.0)))
momenta = st.floats(-5.0, 5.0)
offsets = st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6), st.floats(-1e-12, 1e-12))


@st.composite
def states(draw):
    """A phase state; one body may sit near a pole, one pair near collision
    or antipodal alignment."""
    th = [draw(colatitudes) for _ in range(3)]
    ph = [draw(longitudes) for _ in range(3)]
    mom = [draw(momenta) for _ in range(6)]
    polar = draw(st.sampled_from((None, None, None, 0, 1, 2)))
    if polar is not None:
        th[polar] = draw(near_pole)
    near = draw(st.sampled_from((None, "collision", "antipodal")))
    if near is not None:
        i, j = draw(st.sampled_from(PAIRS))
        turns = 2.0 * math.pi * draw(st.integers(-2, 2))
        if near == "collision":
            th[j] = th[i] + draw(offsets)
            ph[j] = ph[i] + turns + draw(offsets)
        else:
            th[j] = math.pi - th[i] + draw(offsets)
            ph[j] = ph[i] + math.pi + turns + draw(offsets)
    return th + ph + mom


def _field_loop(masses: MassVector, omega: float):
    """The vector field of ``make_field`` on lists of floats, as a loop over the bodies.

    It is the reference that ``dynamics._field_kernel`` matches bit for bit.
    """
    m = masses.masses
    n = len(masses.masses)
    om = float(omega)

    def field(vals):
        st, ct, sp, cp, xs, ys = _sphere_tables(vals[0:n], vals[n : 2 * n])
        if min(st) <= POLAR_TOL:
            raise _polar_error(st)
        dth, dph = _angle_gradient(m, st, ct, sp, cp, xs, ys)
        out = [0.0] * (4 * n)
        for i in range(n):
            s = st[i]
            p = vals[3 * n + i]
            ms2 = m[i] * (s * s)
            out[i] = vals[2 * n + i] / m[i]
            out[n + i] = p / ms2 - om
            out[2 * n + i] = p * p * ct[i] / (ms2 * s) + dth[i]
            out[3 * n + i] = dph[i]
        return out

    return field


def outcome(field, x):
    """The output as float.hex strings, or the type and message raised."""
    try:
        return [v.hex() for v in field(list(x))]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


def assert_same(mv, omega, x):
    fast = dynamics._field_kernel(mv, omega)
    assert outcome(fast, x) == outcome(_field_loop(mv, omega), x)


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, states())
def test_three_body_field_matches_loop(mv, omega, x):
    assert_same(mv, omega, x)


@PROPERTY
@given(st.lists(st.floats(), min_size=12, max_size=12))
def test_three_body_field_matches_loop_on_any_floats(x):
    assert_same(MASSES[1], 0.7, x)


def probe_draws():
    """(masses, rate, state, outcome) of each example that the property
    tests' strategies draw under PROPERTY, the outcome "ok" or the message
    raised without its numbers."""
    drawn = []

    @PROPERTY
    @given(st.sampled_from(MASSES), OMEGAS, states())
    def probe(mv, omega, x):
        got = outcome(_field_loop(mv, omega), x)
        drawn.append((mv.masses, omega, repr(x),
                      "ok" if isinstance(got, list) else got[1].split(" (")[0]))

    probe()
    return drawn


def test_strategy_reaches_every_branch(no_local_constants):
    # the property tests above are only as good as the inputs they draw
    drawn = probe_draws()
    seen = {d[-1] for d in drawn}
    for pair in ("1 and 2", "1 and 3", "2 and 3"):
        for kind in ("collision", "antipodal alignment"):
            assert "bodies %s at %s" % (pair, kind) in seen
    assert {"body 1 at the polar guard", "body 3 at the polar guard"} <= seen
    oks = [d[-1] == "ok" for d in drawn]
    assert sum(oks) >= len(oks) // 3


def test_probe_draws_the_same_with_new_literals(no_local_constants, tmp_path, monkeypatch):
    # a local module of new float literals, in the ranges the strategies
    # draw from, loaded between two probes leaves the draws as they were
    first = probe_draws()
    (tmp_path / "probe_literals.py").write_text(
        "LITERALS = (0.5, 0.25, -0.75, 1.125, 2.5e-8, 3.0625, -4.5, 7.75, 1e-7)\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.delitem(sys.modules, "probe_literals", raising=False)
    importlib.import_module("probe_literals")
    assert probe_draws() == first


@pytest.mark.parametrize(
    "mv",
    [MassVector((1.0, 1.25, 1.5)), MASSES[2]],
    ids=["graded", "disparate"],
)
def test_field_is_the_symplectic_gradient_of_the_frame_energy(mv, rng):
    field = dynamics._field_kernel(mv, 0.3)
    for _ in range(5):
        x = np.concatenate(
            [
                rng.uniform(1.0, 2.1, 3),
                np.arange(3) * (math.pi / 2.0) + rng.uniform(-0.2, 0.2, 3),
                rng.normal(0.0, 0.3, 6),
            ]
        )
        rhs = field(x.tolist())
        eps = 1e-6
        for k in range(12):
            d = np.zeros(12)
            d[k] = eps
            fd = (
                dynamics.hamiltonian(mv, x + d, 0.3) - dynamics.hamiltonian(mv, x - d, 0.3)
            ) / (2 * eps)
            expected = fd if k >= 6 else -fd
            partner = (k + 6) % 12
            assert rhs[partner] == pytest.approx(
                expected, abs=1e-6 * max(1.0, abs(expected))
            )


@pytest.mark.parametrize("polar", [None, 0, 1, 2])
@pytest.mark.parametrize("slot", [0, 1, 2])
def test_polar_guard_reads_a_nan_sine_as_min_does(slot, polar):
    # min(s1, s2, s3) keeps a nan in the first slot and passes over it in
    # the others, so a body at the pole behind it is caught or not
    x = [1.0, 1.5, 2.0, 0.0, 2.0, 4.0, 0.1, -0.2, 0.3, 0.4, -0.5, 0.6]
    if polar is not None:
        x[polar] = 0.0
    x[slot] = math.nan
    assert_same(MASSES[1], 0.7, x)


def hamiltonian_loop(masses: MassVector, state, omega: float = 0.0) -> float:
    """The frame energy as the loop over the bodies and the pair table that
    ``dynamics.hamiltonian`` was written from."""
    n = len(masses.masses)
    vals = dynamics._state_values(state)
    m = masses.masses
    th, ph = vals[0:n], vals[n : 2 * n]
    pt, pf = vals[2 * n : 3 * n], vals[3 * n : 4 * n]
    st_, ct, _, _, xs, ys = _sphere_tables(th, ph)
    if any(s <= POLAR_TOL for s in st_):
        raise _polar_error(st_)
    total = 0.0
    for i in range(n):
        s2 = st_[i] * st_[i]
        total += pt[i] * pt[i] / (2.0 * m[i]) + pf[i] * pf[i] / (2.0 * m[i] * s2)
    for i, j, cosd, sind in pair_table_loop(xs, ys, ct):
        total -= m[i] * m[j] * cosd / sind
    if omega != 0.0:
        total -= omega * sum(pf)
    return total


def pair_guard_loop(thetas, phis, floor=SINGULAR_TOL):
    """The smallest sine of the pair table, as ``geometry._pair_guard`` was."""
    _, ct, _, _, xs, ys = _sphere_tables(thetas, phis)
    return min(sind for _, _, _, sind in pair_table_loop(xs, ys, ct, floor=floor))


def result(call):
    """A float result as a float.hex string, or the type and message raised."""
    try:
        return call().hex()
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


# pair offsets that put a separation sine in the recheck band below
# SINE_RECHECK, between SINGULAR_TOL and SEPARATION_FLOOR, or at zero
band_offsets = st.one_of(st.floats(1e-3, 0.09), st.floats(1e-9, 1e-7), st.just(0.0))
FLOORS = st.sampled_from((SINGULAR_TOL, SEPARATION_FLOOR, 0.5))


@st.composite
def monitor_states(draw):
    """A state of ``states()``, or one with a pair moved by a band offset from
    collision or antipodal alignment; an offset of zero at a collision puts
    the two bodies on the same floats."""
    x = draw(states())
    near = draw(st.sampled_from((None, "collision", "antipodal")))
    if near is not None:
        i, j = draw(st.sampled_from(PAIRS))
        off = draw(band_offsets)
        if near == "collision":
            x[j], x[3 + j] = x[i], x[3 + i] + off
        else:
            x[j], x[3 + j] = math.pi - x[i], x[3 + i] + math.pi + off
    return x


# two bodies on the same floats whose dot product rounds above 1 (so
# 1 - cos^2 d is negative) or to exactly 1 (so it is +0.0: 1.0 - x is never
# -0.0), and a pair whose dot product rounds below -1
SAME_ABOVE_ONE = [0.6017214645792477, 0.6017214645792477, 2.0,
                  0.29279256832891765, 0.29279256832891765, 4.0]
SAME_AT_ONE = [math.pi / 2, math.pi / 2, 2.0, 0.0, 0.0, 4.0]
BELOW_MINUS_ONE = [1.856381056098648, math.pi - 1.856381056098648, 0.5,
                   1.9022380102673218, 1.9022380102673218 + math.pi, 4.0]
EDGE_STATES = [a + [0.1, -0.2, 0.3, 0.4, -0.5, 0.6]
               for a in (SAME_ABOVE_ONE, SAME_AT_ONE, BELOW_MINUS_ONE)]


def test_edge_states_hit_the_sine_rule_edges():
    for x, want in zip(EDGE_STATES, (1.0000000000000002, 1.0, -1.0000000000000002)):
        _, zs, _, _, xs, ys = _sphere_tables(x[0:3], x[3:6])
        assert xs[0] * xs[1] + ys[0] * ys[1] + zs[0] * zs[1] == want


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, monitor_states())
@example(MASSES[0], 0.0, EDGE_STATES[0])
@example(MASSES[1], 1.3, EDGE_STATES[1])
@example(MASSES[2], -0.4, EDGE_STATES[2])
def test_hamiltonian_matches_loop(mv, omega, x):
    assert result(lambda: dynamics.hamiltonian(mv, x, omega)) == result(
        lambda: hamiltonian_loop(mv, x, omega)
    )


@PROPERTY
@given(st.lists(st.floats(), min_size=12, max_size=12))
def test_hamiltonian_matches_loop_on_any_floats(x):
    assert result(lambda: dynamics.hamiltonian(MASSES[1], x, 0.7)) == result(
        lambda: hamiltonian_loop(MASSES[1], x, 0.7)
    )


@PROPERTY
@given(monitor_states(), FLOORS)
@example(EDGE_STATES[0], SINGULAR_TOL)
@example(EDGE_STATES[1], SEPARATION_FLOOR)
@example(EDGE_STATES[2], SINGULAR_TOL)
def test_pair_guard_matches_loop(x, floor):
    th, ph = x[0:3], x[3:6]
    assert result(lambda: geometry._pair_guard(th, ph, floor)) == result(
        lambda: pair_guard_loop(th, ph, floor)
    )


def table_outcome(call):
    try:
        return [(i, j, c.hex(), s.hex()) for i, j, c, s in call()]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


@PROPERTY
@given(monitor_states(), FLOORS)
@example(EDGE_STATES[0], SINGULAR_TOL)
@example(EDGE_STATES[2], SINGULAR_TOL)
def test_pair_table_matches_loop(x, floor):
    # the ring form of the loop is the ring pass's oracle in test_ring_pass.py
    _, ct, _, _, xs, ys = _sphere_tables(x[0:3], x[3:6])
    got = table_outcome(lambda: geometry._pair_table(xs, ys, ct, floor=floor))
    assert got == table_outcome(lambda: pair_table_loop(xs, ys, ct, floor=floor))


def monitor_outcome(call):
    """``result`` of each float of a tuple, or the type and message raised."""
    try:
        return tuple(v.hex() for v in call())
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


def guard_then_energy(mv, x, omega):
    """What the monitor loop of ``integrate`` read before it was one pass:
    the guard at the hard floor, then the frame energy and J."""
    sep = geometry._pair_guard(x[0:3], x[3:6], SEPARATION_FLOOR)
    return sep, dynamics.hamiltonian(mv, x, omega), float(sum(x[9:]))


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, monitor_states())
@example(MASSES[0], 0.0, EDGE_STATES[0])
@example(MASSES[1], 1.3, EDGE_STATES[1])
@example(MASSES[2], -0.4, EDGE_STATES[2])
@example(MASSES[1], 1.3, [1.0, 1.5, 2.0, 0.0, 2.0, 4.0, 0.1, 0.2, 0.3, -0.0, -0.0, -0.0])
def test_sample_monitor_matches_guard_and_energy(mv, omega, x):
    got = monitor_outcome(lambda: dynamics._sample_monitor(mv.masses, x, omega))
    assert got == monitor_outcome(lambda: guard_then_energy(mv, x, omega))


@PROPERTY
@given(st.lists(st.floats(), min_size=12, max_size=12))
def test_sample_monitor_matches_guard_and_energy_on_any_floats(x):
    got = monitor_outcome(lambda: dynamics._sample_monitor(MASSES[1].masses, x, 0.7))
    assert got == monitor_outcome(lambda: guard_then_energy(MASSES[1], x, 0.7))


def test_monitor_strategies_reach_every_branch():
    # the property tests above are only as good as the inputs they draw
    seen = set()

    @PROPERTY
    @given(monitor_states(), FLOORS)
    def probe(x, floor):
        th, ph = x[0:3], x[3:6]
        got = result(lambda: pair_guard_loop(th, ph, floor))
        if isinstance(got, str):
            sine = float.fromhex(got)
            seen.add("recheck band" if sine < SINE_RECHECK else "ok")
            if SINGULAR_TOL < sine <= SEPARATION_FLOOR:
                seen.add("between the floors")
        else:
            seen.add(got[1].split(" (")[0])
        energy = result(lambda: hamiltonian_loop(MASSES[1], x, 0.7))
        if not isinstance(energy, str):
            seen.add("energy: " + energy[1].split(" (")[0])

    probe()
    for pair in ("1 and 2", "1 and 3", "2 and 3"):
        for kind in ("collision", "antipodal alignment"):
            assert "bodies %s at %s" % (pair, kind) in seen
    assert {"ok", "recheck band", "between the floors"} <= seen
    assert {"energy: body 1 at the polar guard", "energy: body 3 at the polar guard",
            "energy: bodies 1 and 2 at collision"} <= seen
