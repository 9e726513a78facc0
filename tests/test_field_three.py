"""The straight-line three-body vector field against the general loop.

``dynamics._field_three`` must give the loop's output bit for bit and raise
what the loop raises, with the same message, on every input: ordinary
states, states at the polar guard, states near a collision or an antipodal
alignment of each pair, and arbitrary floats.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvednbody import dynamics
from curvednbody.geometry import MassVector

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


def outcome(field, x):
    """The output as float.hex strings, or the type and message raised."""
    try:
        return [v.hex() for v in field(list(x))]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


def assert_same(mv, omega, x):
    fast = dynamics._field_kernel(mv, omega)
    assert fast.__qualname__.startswith("_field_three.")
    assert outcome(fast, x) == outcome(dynamics._field_loop(mv, omega), x)


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, states())
def test_three_body_field_matches_loop(mv, omega, x):
    assert_same(mv, omega, x)


@PROPERTY
@given(st.lists(st.floats(), min_size=12, max_size=12))
def test_three_body_field_matches_loop_on_any_floats(x):
    assert_same(MASSES[1], 0.7, x)


def test_strategy_reaches_every_branch():
    # the property tests above are only as good as the inputs they draw
    seen = set()
    oks = []

    @PROPERTY
    @given(st.sampled_from(MASSES), OMEGAS, states())
    def probe(mv, omega, x):
        got = outcome(dynamics._field_loop(mv, omega), x)
        seen.add("ok" if isinstance(got, list) else got[1].split(" (")[0])
        oks.append(isinstance(got, list))

    probe()
    for pair in ("1 and 2", "1 and 3", "2 and 3"):
        for kind in ("collision", "antipodal alignment"):
            assert "bodies %s at %s" % (pair, kind) in seen
    assert {"body 1 at the polar guard", "body 3 at the polar guard"} <= seen
    assert sum(oks) >= len(oks) // 3


@pytest.mark.parametrize("n", [2, 4])
def test_other_sizes_take_the_loop(n, rng):
    mv = MassVector(tuple(1.0 + 0.25 * k for k in range(n)))
    field = dynamics._field_kernel(mv, 0.3)
    assert field.__qualname__.startswith("_field_loop.")
    x = np.concatenate(
        [
            rng.uniform(1.0, 2.1, n),
            np.arange(n) * (2.0 * math.pi / (n + 1)) + rng.uniform(-0.2, 0.2, n),
            rng.normal(0.0, 0.3, 2 * n),
        ]
    )
    rhs = field(x.tolist())
    # the loop is the symplectic gradient of the frame energy
    eps = 1e-6
    for k in range(4 * n):
        d = np.zeros(4 * n)
        d[k] = eps
        fd = (
            dynamics.hamiltonian(mv, x + d, 0.3) - dynamics.hamiltonian(mv, x - d, 0.3)
        ) / (2 * eps)
        expected = fd if k >= 2 * n else -fd
        partner = (k + 2 * n) % (4 * n)
        assert rhs[partner] == pytest.approx(expected, abs=1e-6 * max(1.0, abs(expected)))
