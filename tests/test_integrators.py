"""The full system's one-loop midpoint run, and the straight-line steppers,
against the loops they replace.

``integrators.midpoint_run`` must yield the samples of its oracle bit for
bit: ``fixed_steps`` over ``seeded_advance`` (kept in ``conftest``) and
``midpoint_step``, whose solve is the list loop ``_midpoint_loop``.  Where
the oracle raises, the run must raise the same type with the same message,
and a StepFailure with the same ``time`` and ``step``.  The starts are perturbed rings, random and
near-polar states and arbitrary floats; the fields include the three-body
field and stiff ones whose iteration diverges at long steps, some with a
nan or an infinity in one output entry; runs are long enough for the
quintic seed to start solves, and a caller may stop early, as the growth
experiment does.
The reduced flow's Yoshida-4 step must do the same against the loop form of
the composition kept here as the reference, and the reduced separation
check must accept and reject what its loop form, kept here, accepts and
rejects.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvednbody import dynamics, integrators, reduction
from curvednbody.errors import SingularConfiguration, StepFailure
from curvednbody.fixedpoints import as_mass_triple, ring_from_shape, shape_from_masses

from conftest import gap_gradient, seeded_advance
from test_field_three import MASSES, OMEGAS, states

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)

steps = st.sampled_from((1e-3, 1e-2, 0.1, 1.0))
# runs of up to 12 steps: from the sixth step on each solve starts from the
# quintic seed
lengths = st.integers(1, 12)
strides = st.integers(1, 4)
# the number of samples after which the caller stops, or None
stops = st.one_of(st.none(), st.integers(1, 4))


def oracle(field, x, h, nsteps, record_stride=1):
    """The run that ``midpoint_run`` replaces: ``fixed_steps`` over
    ``seeded_advance`` and ``midpoint_step``."""
    advance = seeded_advance(lambda y, guess: integrators.midpoint_step(field, y, h, guess))
    return integrators.fixed_steps(advance, x, h, nsteps, record_stride)


def run_outcome(samples, stop=None):
    """The samples as float.hex strings, up to the ``stop``-th when the caller
    stops there, and what the run raised: None, or the type, message, time
    and step."""
    seen = []
    try:
        for t, x in samples:
            seen.append((t.hex(), [v.hex() for v in x]))
            if len(seen) == stop:
                break
    except Exception as exc:  # every exception type must match
        raised = type(exc), str(exc), getattr(exc, "time", None), getattr(exc, "step", None)
        return seen, raised
    return seen, None


def assert_same_run(field, x, h, nsteps, record_stride=1, stop=None):
    got = run_outcome(
        integrators.midpoint_run(field, list(x), h, nsteps, record_stride), stop
    )
    assert got == run_outcome(oracle(field, list(x), h, nsteps, record_stride), stop)
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
@given(cases, steps, lengths, strides, stops)
def test_midpoint_matches_loop(case, h, nsteps, stride, stop):
    field, x = case
    assert_same_run(field, x, h, nsteps, stride, stop)


@PROPERTY
@given(rest_states(), lengths)
def test_midpoint_matches_loop_on_long_steps_near_rings(case, nsteps):
    # with h = 1 the iteration from a perturbed ring often diverges, and
    # the run stalls or meets the polar guard
    field, x = case
    assert_same_run(field, x, 1.0, nsteps)


@PROPERTY
@given(st.sampled_from(MASSES), OMEGAS, states(), steps, lengths)
def test_midpoint_matches_loop_on_random_and_polar_states(mv, omega, x, h, nsteps):
    assert_same_run(dynamics._field_kernel(mv, omega), x, h, nsteps)


@PROPERTY
@given(cases, st.sampled_from((1e-3, 1e-2, 0.1)), st.integers(6, 40), strides, stops)
def test_midpoint_matches_loop_from_a_guess(case, h, nsteps, stride, stop):
    # every solve after the fifth starts from the quintic seed
    field, x = case
    assert_same_run(field, x, h, nsteps, stride, stop)


@st.composite
def non_finite(draw, x):
    guess = list(x)
    guess[draw(st.integers(0, 11))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))
    return guess


@PROPERTY
@given(st.one_of(rest_states(), stiff_cases()), st.sampled_from((1e-3, 1e-2)), st.data())
def test_non_finite_guess_is_a_step_failure(case, h, data):
    # the fields here carry a nan or an infinity in any entry of their input
    # into their output, so no iterate from such a guess becomes finite
    field, x = case
    with pytest.raises(StepFailure, match="^implicit midpoint "):
        integrators.midpoint_step(field, x, h, data.draw(non_finite(x)))


def test_seeded_advance_extrapolates_from_the_sixth_step():
    guesses_seen = []

    def step(x, guess):
        guesses_seen.append(guess)
        t = x[0] + 1.0
        return [t, t**5 - 3.0 * t**2 + 1.0, t**6]

    advance = seeded_advance(step)
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


def polynomials(t):
    """Twelve polynomials in t, of degrees zero to six."""
    return [t, 1.0, t, t**2, t**3, t**4, t**5, -2.0 * t**5 + t**3 - 7.0,
            t**5 - 3.0 * t**2 + 1.0, 1e3 + 0.5 * t**4, t**6, 3.0 * t**6]


# the quintic seed one step on is 6! short for t^6
SHORT = [0.0] * 10 + [720.0, 2160.0]


def test_seeded_advance_extrapolates_twelve_floats_from_the_sixth_step():
    # the oracle's seed on 12 floats held to the formula itself: integer
    # values keep every sum exact
    guesses_seen = []

    def step(x, guess):
        guesses_seen.append(guess)
        return polynomials(x[0] + 1.0)

    advance = seeded_advance(step)
    x = polynomials(0.0)
    for _ in range(8):
        x = advance(x)
    assert guesses_seen[:5] == [None] * 5
    assert guesses_seen[5:] == [
        [v - d for v, d in zip(polynomials(t), SHORT)] for t in (6.0, 7.0, 8.0)
    ]


def test_midpoint_run_extrapolates_from_the_sixth_step():
    # the run's written-out seed held to the formula itself.  With h = 1 the
    # field below steps t to t + 1 exactly: it reads t off the first entry,
    # which is t at the predictor's call and t + 1/2 at every midpoint, and
    # integer values keep every sum exact, so each solve's first midpoint
    # gives its first iterate back as 2 mid - x
    calls = []

    def field(v):
        calls.append(v)
        t = math.floor(v[0])
        return [b - a for a, b in zip(polynomials(t), polynomials(t + 1.0))]

    samples = list(integrators.midpoint_run(field, polynomials(0.0), 1.0, 8))
    assert samples == [(float(t), polynomials(float(t))) for t in range(9)]
    # five solves from the predictor, a call at the state and one at the
    # midpoint each, then three from the seed, which misses t^6 and takes
    # one more update
    assert len(calls) == 10 + 3 * 2
    assert calls[0:10:2] == [polynomials(float(t)) for t in range(5)]
    guesses = [
        [2.0 * m - a for m, a in zip(calls[10 + 2 * i], polynomials(float(t)))]
        for i, t in enumerate(range(5, 8))
    ]
    assert guesses == [
        [v - d for v, d in zip(polynomials(float(t)), SHORT)] for t in (6, 7, 8)
    ]


def test_strategies_reach_every_branch():
    # the property tests above are only as good as the inputs they draw
    seen = set()

    def record(case, h, nsteps, stride, stop):
        field, x = case
        samples, raised = run_outcome(
            integrators.midpoint_run(field, list(x), h, nsteps, stride), stop
        )
        last = round(float.fromhex(samples[-1][0]) / h)
        if raised is None:
            seen.add("completed" if last == nsteps else "stopped early")
        else:
            seen.add(raised[1].split(" (")[0])
            last = raised[3]
        if last >= 6:
            seen.add("seeded")

    PROPERTY(given(cases, steps, lengths, strides, stops)(record))()
    assert {
        "completed",
        "stopped early",
        "seeded",
        "implicit midpoint solve stalled",
        "implicit midpoint iterate is not finite",
    } <= seen


def test_twelve_floats_take_the_straight_line_step(monkeypatch):
    # every full-system run is the one loop; ``midpoint_step`` takes the
    # list loop for 12 floats as for 4 and for numpy vectors
    runs = []
    real = integrators.midpoint_run
    monkeypatch.setattr(
        dynamics, "midpoint_run", lambda *args: runs.append(args[3]) or real(*args)
    )
    mv = MASSES[1]
    ring = ring_from_shape(shape_from_masses(as_mass_triple(mv.masses)))
    start = dynamics.relative_equilibrium(mv, ring, 1.3)
    dynamics.integrate(mv, start, horizon=8e-3, step=1e-3, omega=1.3)
    assert runs == [8]
    loops = []
    monkeypatch.setattr(
        integrators, "_midpoint_loop", lambda field, x, *args: loops.append(len(x)) or x
    )
    integrators.midpoint_step(lambda v: v, [0.0] * 12, 1e-3)
    integrators.midpoint_step(lambda v: v, [0.0] * 4, 1e-3)
    integrators.midpoint_step(lambda v: v, np.zeros(12), 1e-3)
    assert loops == [12, 4, 12]


def nan_then_ones(slot):
    """A field whose first output, the predictor's, has a nan in ``slot`` and
    zeros elsewhere, whose second is all zeros and whose later ones are all
    ones; it ignores its input."""
    calls = []

    def field(v):
        calls.append(v)
        if len(calls) == 1:
            out = [0.0] * 12
            out[slot] = math.nan
            return out
        return [0.0] * 12 if len(calls) == 2 else [1.0] * 12

    return field


@pytest.mark.parametrize("slot", range(12))
def test_a_nan_update_is_read_as_max_reads_it(slot):
    # the first update is nan in one entry and zero elsewhere: builtin max
    # keeps a nan first entry and passes over a later one, so the first
    # solve goes on to the field's ones on the first slot and ends at the
    # start on the others
    x, h = [0.5] * 12, 1e-3
    got = run_outcome(integrators.midpoint_run(nan_then_ones(slot), x, h, 2))
    assert got == run_outcome(oracle(nan_then_ones(slot), x, h, 2))
    first = [v + h * 1.0 for v in x] if slot == 0 else x
    assert got == ([(t.hex(), [v.hex() for v in y]) for t, y in (
        (0.0, x), (h, first), (2 * h, [v + h * 1.0 for v in first]))], None)


@pytest.mark.parametrize("k, h", [(40.0, 1.0), (1e7, 1e-3), (5.0, 1.0)])
def test_a_stall_gives_the_loop_message(k, h):
    # a diverging iteration ends the run at its first step with the last
    # update the loop reports
    samples, raised = assert_same_run(stiff_field(k, None), [0.3, -1.2, 2.5] * 4, h, 3)
    assert len(samples) == 1 and raised[0] is StepFailure
    assert raised[1].startswith("implicit midpoint solve stalled (last update ")
    assert raised[2:] == (h, 1)


@pytest.mark.parametrize("slot, last", [(0, "nan"), (5, "0")])
def test_a_stall_reads_a_nan_update_as_max_reads_it(slot, last):
    # a field with a nan in one output entry never converges: the stall
    # reports the last update as builtin max reads it, nan when the nan
    # entry comes first and the largest of the others when it comes later
    def field(v):
        out = [0.0] * 12
        out[slot] = math.nan
        return out

    samples, raised = assert_same_run(field, [0.5] * 12, 1e-3, 2)
    assert raised == (
        StepFailure,
        "implicit midpoint solve stalled (last update %s, tol 1e-13)" % last,
        1e-3,
        1,
    )


def test_value_error_on_a_finite_iterate_propagates():
    def field(v):
        raise ValueError("not a midpoint failure")

    for x in ([0.5] * 12, [0.5] * 4):
        with pytest.raises(ValueError, match="not a midpoint failure"):
            integrators.midpoint_step(field, x, 1e-3)
    for run in (integrators.midpoint_run, oracle):
        samples = run(field, [0.5] * 12, 1e-3, 3)
        assert next(samples) == (0.0, [0.5] * 12)
        with pytest.raises(ValueError, match="not a midpoint failure"):
            next(samples)


def outcome(call):
    """The result as float.hex strings, or the type and message raised."""
    try:
        return [v.hex() for v in call()]
    except Exception as exc:  # every exception type must match
        return type(exc), str(exc)


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
        return gap_gradient(m1, m2, m3, jc.nu1, jc.nu2, q[0], q[1])

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
