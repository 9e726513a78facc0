"""The straight-line steppers against the loops they replace.

``integrators._midpoint_twelve`` must give ``integrators._midpoint_loop``'s
result bit for bit and raise what the loop raises, with the same message:
on ordinary and near-polar three-body states, on fields whose iteration
diverges, on stalls, on non-finite iterates, on updates with a nan in one entry and
for ``max_inner`` at or below zero, from the Euler predictor and from a
given first iterate.
The reduced flow's Yoshida-4 step must do the same against the loop form of
the composition kept here as the reference.  The quintic seed of 12 floats,
``integrators._quintic_twelve``, must give ``integrators._quintic``'s bits,
and the reduced separation check must accept and reject what its loop form,
kept here, accepts and rejects.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvednbody import dynamics, integrators, reduction
from curvednbody.errors import SingularConfiguration, StepFailure
from curvednbody.fixedpoints import as_mass_triple, ring_from_shape, shape_from_masses

from test_field_three import MASSES, OMEGAS, states

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

steps = st.sampled_from((1e-3, 1e-2, 0.1, 1.0))
tols = st.sampled_from((integrators.MIDPOINT_TOL, 0.0, 1e-6))
inner = st.sampled_from((-1, 0, 1, 2, 3, integrators.MIDPOINT_MAX_INNER))


def outcome(call):
    """The result as float.hex strings, or the type and message raised."""
    try:
        return [v.hex() for v in call()]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


def assert_same_step(field, x, h, tol=integrators.MIDPOINT_TOL, max_inner=50, guess=None):
    def run(step):
        first = None if guess is None else list(guess)
        return outcome(lambda: step(field, list(x), h, tol, max_inner, first))

    got = run(integrators._midpoint_twelve)
    assert got == run(integrators._midpoint_loop)
    return got


@st.composite
def rest_states(draw):
    """A rotating ring of an admissible triple of MASSES, perturbed."""
    mv = draw(st.sampled_from(MASSES[:2]))
    triple = as_mass_triple(mv.masses)
    omega = draw(OMEGAS)
    x = dynamics.relative_equilibrium(
        mv, ring_from_shape(shape_from_masses(triple)), omega
    ).as_vector()
    x += draw(st.sampled_from((0.3, 1e-2, 1e-6, 0.0))) * np.array(
        draw(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
    )
    return dynamics._field_kernel(mv, omega), x.tolist()


def stiff_field(k, bad):
    """A nonlinear field whose fixed-point iteration diverges for large k h,
    so the step stalls; ``bad`` puts a nan or inf into one entry of the
    output, which the field itself takes without raising."""

    def field(v):
        out = [-k * a - 0.1 * math.atan(b) for a, b in zip(v, v[1:] + v[:1])]
        if bad is not None:
            out[bad[0]] = bad[1]
        return out

    return field


@st.composite
def stiff_cases(draw):
    field = stiff_field(
        draw(st.sampled_from((0.0, 0.5, 5.0, 40.0, 1e7))),
        draw(st.sampled_from((None, (0, math.nan), (5, math.inf), (11, -math.inf)))),
    )
    start = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((-2.5, 0.3, 1.7)))
    return field, draw(st.lists(start, min_size=12, max_size=12))


# a field and a start: perturbed rings (stepped with h up to 1, these reach
# diverging iterations and the polar guard), stiff fields with nan and inf
# outputs, and the three-body field on arbitrary floats
cases = st.one_of(
    rest_states(),
    stiff_cases(),
    st.builds(
        lambda x: (dynamics._field_kernel(MASSES[1], 0.7), x),
        st.lists(st.floats(), min_size=12, max_size=12),
    ),
)


@PROPERTY
@given(cases, steps, tols, inner)
def test_midpoint_matches_loop(case, h, tol, max_inner):
    field, x = case
    assert_same_step(field, x, h, tol, max_inner)


@PROPERTY
@given(rest_states())
def test_midpoint_matches_loop_on_long_steps_near_rings(case):
    # with h = 1 the iteration from a perturbed ring often diverges, and
    # the step stalls or meets the polar guard
    field, x = case
    assert_same_step(field, x, 1.0)


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, states(), steps)
def test_midpoint_matches_loop_on_random_and_polar_states(mv, omega, x, h):
    assert_same_step(dynamics._field_kernel(mv, omega), x, h)


@st.composite
def guesses(draw, x):
    """A first iterate for a step from ``x``: ``x`` moved by up to 1, or ``x``
    with a nan or an infinity in one entry."""
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12))
    scale = draw(st.sampled_from((0.0, 1e-12, 1e-6, 1e-3, 1.0)))
    return [a + scale * d for a, d in zip(x, offsets)]


@st.composite
def non_finite(draw, x):
    guess = list(x)
    guess[draw(st.integers(0, 11))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return guess


@PROPERTY
@given(cases, steps, tols, inner, st.data())
def test_midpoint_matches_loop_from_a_guess(case, h, tol, max_inner, data):
    field, x = case
    guess = data.draw(st.one_of(guesses(x), non_finite(x)))
    assert_same_step(field, x, h, tol, max_inner, guess)


@PROPERTY
@given(st.one_of(rest_states(), stiff_cases()), st.sampled_from((1e-3, 1e-2)), st.data())
def test_non_finite_guess_is_a_step_failure(case, h, data):
    # the fields here carry a nan or an infinity in any entry of their input
    # into their output, so no iterate from such a guess becomes finite
    field, x = case
    got = assert_same_step(field, x, h, guess=data.draw(non_finite(x)))
    assert got[0] is StepFailure


def test_seeded_advance_extrapolates_from_the_sixth_step():
    guesses_seen = []

    def step(x, guess):
        guesses_seen.append(guess)
        t = x[0] + 1.0
        return [t, t**5 - 3.0 * t**2 + 1.0, t**6]

    advance = integrators.seeded_advance(step)
    x = [0.0, 1.0, 0.0]
    for _ in range(8):
        x = advance(x)
    # the first five solves start from the Euler predictor; from the sixth
    # each guess is the quintic through the last six states one step on,
    # exact for a polynomial of degree five and 6! short for t^6
    assert guesses_seen[:5] == [None] * 5
    assert guesses_seen[5:] == [
        [t, t**5 - 3.0 * t**2 + 1.0, t**6 - 720.0] for t in (6.0, 7.0, 8.0)
    ]


def test_seeded_advance_extrapolates_twelve_floats_from_the_sixth_step():
    # the written-out seed held to the formula itself, not only to the list
    # form: integer values keep every sum exact
    guesses_seen = []

    def polynomials(t):
        return [t, 1.0, t, t**2, t**3, t**4, t**5, -2.0 * t**5 + t**3 - 7.0,
                t**5 - 3.0 * t**2 + 1.0, 1e3 + 0.5 * t**4, t**6, 3.0 * t**6]

    def step(x, guess):
        guesses_seen.append(guess)
        return polynomials(x[0] + 1.0)

    advance = integrators.seeded_advance(step)
    x = polynomials(0.0)
    for _ in range(8):
        x = advance(x)
    assert guesses_seen[:5] == [None] * 5
    short = [0.0] * 10 + [720.0, 2160.0]
    assert guesses_seen[5:] == [
        [v - d for v, d in zip(polynomials(t), short)] for t in (6.0, 7.0, 8.0)
    ]


def shifted(state, turns):
    """``state`` with its longitudes moved by ``turns``."""
    return state[:3] + [v + turns for v in state[3:6]] + state[6:]


@st.composite
def windows(draw):
    """Six states of 12 floats: field-test states, longitudes shifted by
    +-1e3, and entries set to signed zeros, nan or infinities."""
    past = []
    for _ in range(6):
        state = shifted(draw(states()), draw(st.sampled_from((0.0, 1e3, -1e3))))
        for _ in range(draw(st.integers(0, 3))):
            special = (0.0, -0.0, math.nan, math.inf, -math.inf)
            state[draw(st.integers(0, 11))] = draw(st.sampled_from(special))
        past.append(state)
    return past


@PROPERTY
@given(windows())
def test_quintic_twelve_matches_the_list_form(past):
    got = integrators._quintic_twelve(past)
    assert [v.hex() for v in got] == [v.hex() for v in integrators._quintic(past)]


def test_twelve_float_runs_take_the_straight_line_seed(monkeypatch):
    taken = []
    for name in ("_quintic_twelve", "_quintic"):
        real = getattr(integrators, name)
        monkeypatch.setattr(
            integrators,
            name,
            lambda past, name=name, real=real: taken.append(name) or real(past),
        )
    mv = MASSES[1]
    ring = ring_from_shape(shape_from_masses(as_mass_triple(mv.masses)))
    start = dynamics.relative_equilibrium(mv, ring, 1.3)
    dynamics.integrate(mv, start, horizon=8e-3, step=1e-3, omega=1.3)
    assert taken == ["_quintic_twelve"] * 3
    taken.clear()
    start = reduction.ReducedState(2.0, 3.0, 0.1, -0.2)
    reduction.integrate_reduced(mv.masses, start, 8e-3, method="midpoint")
    assert taken == ["_quintic"] * 3


def test_strategies_reach_every_branch():
    # the property tests above are only as good as the inputs they draw
    seen = set()

    def record(case, h, tol, max_inner):
        field, x = case
        got = outcome(lambda: integrators._midpoint_loop(field, x, h, tol, max_inner))
        kind = "ok" if isinstance(got, list) else got[1].split(" (")[0]
        seen.add(kind)
        if max_inner <= 0:
            seen.add("no iterations: " + kind)

    PROPERTY(given(cases, steps, tols, inner)(record))()
    assert {
        "ok",
        "implicit midpoint solve stalled",
        "implicit midpoint iterate is not finite",
        "no iterations: implicit midpoint solve stalled",
    } <= seen


def test_twelve_floats_take_the_straight_line_step(monkeypatch):
    taken = []
    monkeypatch.setattr(
        integrators, "_midpoint_twelve", lambda *args: taken.append(args) or [0.0]
    )
    integrators.midpoint_step(lambda v: v, [0.0] * 12, 1e-3)
    integrators.midpoint_step(lambda v: v, [0.0] * 4, 1e-3)
    integrators.midpoint_step(lambda v: v, np.zeros(12), 1e-3)
    assert len(taken) == 1


@pytest.mark.parametrize("slot", range(12))
def test_a_nan_update_is_read_as_max_reads_it(slot):
    # a first iterate with a nan in one entry and a field that ignores it:
    # builtin max keeps a nan first entry and passes over a later one, so
    # one iteration stalls on the first slot and ends the step on the others
    x = [0.5] * 12
    guess = list(x)
    guess[slot] = math.nan
    got = assert_same_step(lambda v: [0.0] * 12, x, 1e-3, max_inner=1, guess=guess)
    if slot == 0:
        message = "implicit midpoint solve stalled (last update nan, tol 1e-13)"
        assert got == (StepFailure, message)
    else:
        assert got == [v.hex() for v in x]


@pytest.mark.parametrize("k, h", [(40.0, 1.0), (1e7, 1e-3), (5.0, 1.0)])
def test_a_stall_gives_the_loop_message(k, h):
    # a diverging iteration ends with the last update the loop reports
    got = assert_same_step(stiff_field(k, None), [0.3, -1.2, 2.5] * 4, h)
    assert got[0] is StepFailure
    assert got[1].startswith("implicit midpoint solve stalled (last update ")


def test_value_error_on_a_finite_iterate_propagates():
    def field(v):
        raise ValueError("not a midpoint failure")

    for x in ([0.5] * 12, [0.5] * 4):
        with pytest.raises(ValueError, match="not a midpoint failure"):
            integrators.midpoint_step(field, x, 1e-3)


def yoshida4_reference(force, inv_mass, x, h):
    """Yoshida's composition as the loop it was first written as: drift,
    kick, ..., drift over the halves q, p of ``x``."""
    n = len(inv_mass)
    q = x[:n]
    p = x[n:]
    for c, d in zip(integrators._YOSHIDA_DRIFTS, integrators._YOSHIDA_KICKS):
        ch = c * h
        for i in range(n):
            q[i] += ch * (p[i] * inv_mass[i])
        f = force(q)
        dh = d * h
        for i in range(n):
            p[i] += dh * f[i]
    ch = integrators._YOSHIDA_DRIFTS[-1] * h
    for i in range(n):
        q[i] += ch * (p[i] * inv_mass[i])
    return q + p


def reduced_steps(masses, h):
    """The reduced Yoshida-4 step and its loop-form reference."""
    m1, m2, m3 = masses
    jc = reduction.JacobiConstants.from_masses(masses)
    inv = (1.0 / jc.nu3, 1.0 / jc.nu4)
    fast = reduction._yoshida4_advance(m1, m2, m3, jc.nu1, jc.nu2, *inv, h)

    def force(q):
        return reduction._gap_gradient(m1, m2, m3, jc.nu1, jc.nu2, q[0], q[1])

    return fast, lambda x: yoshida4_reference(force, inv, x, h)


gap_offsets = st.one_of(
    st.just(0.0), st.floats(-1e-9, 1e-9), st.floats(-1e-3, 1e-3), st.floats(-3.0, 3.0)
)


@st.composite
def reduced_states(draw, masses=None):
    """(phi1, phi2, p1, p2) with any one of the three gaps near 0 or pi."""
    if masses is None:
        masses = draw(st.sampled_from([mv.masses for mv in MASSES]))
    jc = reduction.JacobiConstants.from_masses(masses)
    gap = draw(st.sampled_from((0, 1, 2)))
    near = draw(st.sampled_from((0.0, math.pi, -math.pi, 2.0 * math.pi)))
    d = near + draw(gap_offsets)
    other = draw(st.floats(-7.0, 7.0))
    if gap == 0:
        phi1, phi2 = d, other
    elif gap == 1:  # phi2 - nu1 phi1 = d
        phi1, phi2 = other, d + jc.nu1 * other
    else:  # phi2 + nu2 phi1 = d
        phi1, phi2 = other, d - jc.nu2 * other
    momenta = st.one_of(st.floats(-1.0, 1.0), st.floats(-1e3, 1e3))
    return masses, [phi1, phi2, draw(momenta), draw(momenta)]


@PROPERTY
@given(reduced_states(), steps)
def test_reduced_step_matches_loop_reference(case, h):
    masses, x = case
    fast, loop = reduced_steps(masses, h)
    assert outcome(lambda: fast(list(x))) == outcome(lambda: loop(list(x)))


@PROPERTY
@given(st.lists(st.floats(), min_size=4, max_size=4), steps)
def test_reduced_step_matches_loop_reference_on_any_floats(x, h):
    fast, loop = reduced_steps(MASSES[1].masses, h)
    assert outcome(lambda: fast(list(x))) == outcome(lambda: loop(list(x)))


@pytest.mark.parametrize("which", [0, 1, 2])
def test_reduced_step_raises_the_singular_gap_error(which):
    masses = MASSES[1].masses
    jc = reduction.JacobiConstants.from_masses(masses)
    # the first drift is what puts the chosen gap at exactly zero
    x = [[0.0, 1.0], [1.0, jc.nu1], [1.0, -jc.nu2]][which] + [0.0, 0.0]
    fast, loop = reduced_steps(masses, 1e-3)
    got = outcome(lambda: fast(list(x)))
    assert got == outcome(lambda: loop(list(x)))
    assert got[0] is SingularConfiguration
    assert got[1].startswith("reduced separation ") and got[1].endswith(" is singular")


def separation_loop(nu1, nu2, x0):
    """The reduced separation check as the loop it was first written as."""

    def sines(x):
        return list(map(math.sin, reduction._gaps(nu1, nu2, x[0], x[1])))

    start = sines(x0)
    signs = [math.copysign(1.0, s) for s in start]

    def check(x):
        for k, s in enumerate(sines(x)):
            if not s * signs[k] > integrators.SEPARATION_FLOOR:
                raise SingularConfiguration(
                    "reduced separation %d is at or past a singular configuration "
                    "(sine %.3g, %.3g at the start, floor %.3g)"
                    % (k + 1, s, start[k], integrators.SEPARATION_FLOOR)
                )

    return check


def check_outcome(check, x):
    """None when ``check`` accepts ``x``, else the type and message raised."""
    try:
        return check(list(x))
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


@st.composite
def check_cases(draw):
    """A start and a later reduced state, each with one gap near a multiple
    of pi on either side, and either angle possibly nan."""
    masses, x0 = draw(reduced_states())
    later = draw(reduced_states(masses))[1]
    for x in (x0, later):
        if draw(st.integers(0, 9)) == 0:
            x[draw(st.integers(0, 1))] = math.nan
    return masses, x0, later


def check_pair(masses, x0):
    jc = reduction.JacobiConstants.from_masses(masses)
    return (
        reduction._separation_check(jc.nu1, jc.nu2, list(x0)),
        separation_loop(jc.nu1, jc.nu2, list(x0)),
    )


@PROPERTY
@given(check_cases())
def test_separation_check_matches_loop_reference(case):
    masses, x0, x = case
    fast, loop = check_pair(masses, x0)
    assert check_outcome(fast, x) == check_outcome(loop, x)


def test_check_cases_reach_every_outcome():
    seen = set()

    def record(case):
        masses, x0, x = case
        got = check_outcome(check_pair(masses, x0)[1], x)
        seen.add("accepted" if got is None else got[1].split(" is ")[0])

    PROPERTY(given(check_cases())(record))()
    assert seen == {"accepted"} | {"reduced separation %d" % k for k in (1, 2, 3)}
