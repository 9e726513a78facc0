"""Time steppers shared by the full and reduced dynamics.

The full Hamiltonian is not separable, so its reference step is the
implicit midpoint rule, ``midpoint_step``, which iterates on a list of
floats (or a numpy vector).  A run seeds each solve from its sixth step on
with the quintic extrapolation of its last six states, which costs no
field evaluation and lands O(h^6) from the solution: at the steps this
library takes that is inside the solve's tolerance, so one field evaluation
usually ends the solve.  ``fixed_steps``, which advances a state and yields
the recorded samples, over ``seeded_advance`` and ``midpoint_step`` is that
run for a state of any length, and serves the reduced chart's midpoint
cross-check.  The three-body run, 12 floats, is ``midpoint_run``: one loop
with the step, the seed and the convergence test written out, whose only
call is the vector field, giving the same samples and errors bit for bit.
The reduced Hamiltonian is separable, and its flow defaults to an explicit
fourth-order composition of leapfrog (Yoshida 1990), whose coefficients are
kept here and whose step ``reduction`` writes out.
An adaptive embedded Runge-Kutta 5(4) pair wraps scipy and serves as an
independent cross-check route for the full system; a run whose pace needs
more than ``RK45_MAX_EVALS`` field evaluations ends early.
"""

from __future__ import annotations

import math
from operator import sub

import numpy as np

from .errors import (
    InvalidConfiguration,
    PolarSingularity,
    SingularConfiguration,
    StepFailure,
)

MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_INNER = 50
RK45_RTOL = 1e-10
RK45_ATOL = 1e-12
# Field evaluations an adaptive run may need over its horizon, judged from
# its pace every RK45_PACE_EVALS evaluations.
RK45_MAX_EVALS = 10**7
RK45_PACE_EVALS = 10**4

# Integration aborts when a pair separation sine falls below this.
SEPARATION_FLOOR = 1e-6

# The failures of one step that end a run as a StepFailure.
_STEP_ERRORS = (StepFailure, SingularConfiguration, PolarSingularity)


def step_count(horizon, step, record_stride=1) -> int:
    """Number of fixed steps of size ``step`` that cover ``horizon``.

    The step must be finite and positive, the horizon must come to a finite
    number of at least one step, and every ``record_stride``-th step is
    recorded, so the stride must be at least one.  Anything else raises
    InvalidConfiguration.
    """
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidConfiguration("step must be finite and positive, got %r" % (step,))
    count = horizon / step
    if not math.isfinite(count):
        raise InvalidConfiguration(
            "horizon %r is not a finite number of steps" % (horizon,)
        )
    nsteps = int(round(count))
    if nsteps <= 0:
        raise InvalidConfiguration("horizon must cover at least one step")
    if record_stride < 1:
        raise InvalidConfiguration("record stride must be positive")
    return nsteps


def fixed_steps(advance, x0, h, nsteps, record_stride=1, check=None):
    """Take ``nsteps`` steps of size ``h`` from ``x0`` and yield the samples.

    ``advance`` maps a state, a list of floats, to the state one step later.
    The generator yields ``(t, x)`` at t = 0, after every
    ``record_stride``-th step and after the last step, so a caller that has
    seen enough can stop early.  ``check``, if given, is called on the
    initial state and on the state after every step, and raises to end the
    run.  A StepFailure, SingularConfiguration or PolarSingularity raised by
    a step or by the check becomes a StepFailure that carries the time and
    the index of the step (0 for the initial state).
    """
    x = x0
    for k in range(nsteps + 1):
        try:
            if k:
                x = advance(x)
            if check is not None:
                check(x)
        except _STEP_ERRORS as exc:
            raise StepFailure(str(exc), time=k * h, step=k) from None
        if k % record_stride == 0 or k == nsteps:
            yield k * h, x


def seeded_advance(step):
    """An ``advance`` for one run of ``fixed_steps`` from ``step(x, guess)``.

    The guess is None (the Euler predictor) on the first five steps, then the
    quintic through the last six states one step on,
    6x - 15x[-1] + 20x[-2] - 15x[-3] + 6x[-4] - x[-5], which costs no field
    evaluation and lies O(h^6) from the next state.  It is summed as offsets
    from x, so its rounding scales with the motion over the last five steps
    and not with |x| (longitudes wind).  A solve that fails from its guess
    ends the run.  The function keeps the last five states it was handed, so
    it serves one run.
    """
    past = []

    def advance(x):
        past.append(x)
        if len(past) < 6:
            return step(x, None)
        guess = _quintic(past)
        del past[0]
        return step(x, guess)

    return advance


def _quintic(past):
    """The quintic guess from six states of any length, oldest first."""
    return [
        c + (20.0 * (b2 - c) + 6.0 * (b4 - c) - 15.0 * ((b1 - c) + (b3 - c)) - (b5 - c))
        for b5, b4, b3, b2, b1, c in zip(*past)
    ]


def midpoint_step(field, x, h, guess=None):
    """Advance one implicit midpoint step of size h.

    The implicit equation y = x + h f((x + y)/2) is solved by plain
    fixed-point iteration, y <- x + h f((x + y)/2), until an update is at
    most MIDPOINT_TOL.  The first iterate is ``guess``, a list of floats as
    long as ``x`` (another length raises InvalidConfiguration), or when it
    is None the explicit Euler predictor x + h f(x), which costs one field
    evaluation.  For the step sizes this library uses the iteration
    contracts rapidly.  The solve has one stall rule: it raises StepFailure
    when MIDPOINT_MAX_INNER updates bring no finite iterate within
    MIDPOINT_TOL of the one before, or when an iterate is not finite.

    The iteration runs on lists of floats: ``field`` maps a list to a list.
    A numpy vector ``x`` is served by the same loop, with a ``field`` on
    numpy vectors, and the step then returns a numpy vector; the arithmetic
    is the same.
    """
    if guess is not None and len(guess) != len(x):
        raise InvalidConfiguration(
            "guess has %d entries, the state %d" % (len(guess), len(x))
        )
    if isinstance(x, np.ndarray):

        def list_field(v):
            return np.asarray(field(np.array(v)), dtype=float).tolist()

        y = _midpoint_loop(
            list_field, x.tolist(), h, MIDPOINT_TOL, MIDPOINT_MAX_INNER, guess
        )
        return np.array(y)
    return _midpoint_loop(field, x, h, MIDPOINT_TOL, MIDPOINT_MAX_INNER, guess)


def _stall(delta, tol):
    return StepFailure(
        "implicit midpoint solve stalled (last update %.3g, tol %.3g)" % (delta, tol)
    )


def _midpoint_loop(field, x, h, tol, max_inner, guess=None):
    """``midpoint_step`` on a list of any length."""
    mid = x
    try:
        y = [a + h * b for a, b in zip(x, field(x))] if guess is None else guess
        delta = math.inf
        for _ in range(max_inner):
            mid = [0.5 * (a + b) for a, b in zip(x, y)]
            y_next = [a + h * b for a, b in zip(x, field(mid))]
            delta = max(map(abs, map(sub, y_next, y)))
            if delta <= tol and math.isfinite(sum(y_next)):
                return y_next
            y = y_next
    except ValueError:
        # a field meets a non-finite iterate with, say, math.sin(inf)
        if all(map(math.isfinite, mid)):
            raise
        raise StepFailure("implicit midpoint iterate is not finite") from None
    raise _stall(delta, tol)


def midpoint_run(field, start, h, nsteps, record_stride=1):
    """``fixed_steps`` over ``seeded_advance`` and ``midpoint_step`` from the
    list of 12 floats ``start`` as one loop: the same samples bit for bit and
    the same errors, a StepFailure with the failing step's time and index or
    a ValueError that ``field`` raises at a finite iterate.  The step, the
    quintic seed and the convergence test, which reads the updates as builtin
    ``max`` does, are written out over the 12 floats, so ``field`` is the
    loop's only call; the last five states are the lists already yielded or
    passed over, under five names that rotate each step.
    """
    tol = MIDPOINT_TOL
    lo = -tol
    inf, isfinite, inner = math.inf, math.isfinite, range(MIDPOINT_MAX_INNER)
    x = start
    yield 0 * h, x
    # the states one to five steps back; until five are held, the predictor
    back1 = back2 = back3 = back4 = back5 = None
    for k in range(1, nsteps + 1):
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11 = x
        mid = x
        try:
            if back5 is None:
                f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11 = field(x)
                y0, y1, y2, y3 = x0 + h * f0, x1 + h * f1, x2 + h * f2, x3 + h * f3
                y4, y5, y6, y7 = x4 + h * f4, x5 + h * f5, x6 + h * f6, x7 + h * f7
                y8, y9, y10, y11 = x8 + h * f8, x9 + h * f9, x10 + h * f10, x11 + h * f11
            else:
                e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 = back5
                d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = back4
                c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = back3
                b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = back2
                a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = back1
                y0 = x0 + (20.0 * (b0 - x0) + 6.0 * (d0 - x0)
                           - 15.0 * ((a0 - x0) + (c0 - x0)) - (e0 - x0))
                y1 = x1 + (20.0 * (b1 - x1) + 6.0 * (d1 - x1)
                           - 15.0 * ((a1 - x1) + (c1 - x1)) - (e1 - x1))
                y2 = x2 + (20.0 * (b2 - x2) + 6.0 * (d2 - x2)
                           - 15.0 * ((a2 - x2) + (c2 - x2)) - (e2 - x2))
                y3 = x3 + (20.0 * (b3 - x3) + 6.0 * (d3 - x3)
                           - 15.0 * ((a3 - x3) + (c3 - x3)) - (e3 - x3))
                y4 = x4 + (20.0 * (b4 - x4) + 6.0 * (d4 - x4)
                           - 15.0 * ((a4 - x4) + (c4 - x4)) - (e4 - x4))
                y5 = x5 + (20.0 * (b5 - x5) + 6.0 * (d5 - x5)
                           - 15.0 * ((a5 - x5) + (c5 - x5)) - (e5 - x5))
                y6 = x6 + (20.0 * (b6 - x6) + 6.0 * (d6 - x6)
                           - 15.0 * ((a6 - x6) + (c6 - x6)) - (e6 - x6))
                y7 = x7 + (20.0 * (b7 - x7) + 6.0 * (d7 - x7)
                           - 15.0 * ((a7 - x7) + (c7 - x7)) - (e7 - x7))
                y8 = x8 + (20.0 * (b8 - x8) + 6.0 * (d8 - x8)
                           - 15.0 * ((a8 - x8) + (c8 - x8)) - (e8 - x8))
                y9 = x9 + (20.0 * (b9 - x9) + 6.0 * (d9 - x9)
                           - 15.0 * ((a9 - x9) + (c9 - x9)) - (e9 - x9))
                y10 = x10 + (20.0 * (b10 - x10) + 6.0 * (d10 - x10)
                             - 15.0 * ((a10 - x10) + (c10 - x10)) - (e10 - x10))
                y11 = x11 + (20.0 * (b11 - x11) + 6.0 * (d11 - x11)
                             - 15.0 * ((a11 - x11) + (c11 - x11)) - (e11 - x11))
            delta = inf
            for _ in inner:
                mid = [
                    0.5 * (x0 + y0), 0.5 * (x1 + y1), 0.5 * (x2 + y2),
                    0.5 * (x3 + y3), 0.5 * (x4 + y4), 0.5 * (x5 + y5),
                    0.5 * (x6 + y6), 0.5 * (x7 + y7), 0.5 * (x8 + y8),
                    0.5 * (x9 + y9), 0.5 * (x10 + y10), 0.5 * (x11 + y11),
                ]
                f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11 = field(mid)
                n0, n1, n2, n3 = x0 + h * f0, x1 + h * f1, x2 + h * f2, x3 + h * f3
                n4, n5, n6, n7 = x4 + h * f4, x5 + h * f5, x6 + h * f6, x7 + h * f7
                n8, n9, n10, n11 = x8 + h * f8, x9 + h * f9, x10 + h * f10, x11 + h * f11
                u0, u1, u2, u3 = n0 - y0, n1 - y1, n2 - y2, n3 - y3
                u4, u5, u6, u7 = n4 - y4, n5 - y5, n6 - y6, n7 - y7
                u8, u9, u10, u11 = n8 - y8, n9 - y9, n10 - y10, n11 - y11
                # max(|u|) <= tol as builtin max reads it (a nan first entry
                # fails, a later nan is passed over), then sum(n) is finite
                if (
                    lo <= u0 <= tol and not (lo > u1 or u1 > tol)
                    and not (lo > u2 or u2 > tol) and not (lo > u3 or u3 > tol)
                    and not (lo > u4 or u4 > tol) and not (lo > u5 or u5 > tol)
                    and not (lo > u6 or u6 > tol) and not (lo > u7 or u7 > tol)
                    and not (lo > u8 or u8 > tol) and not (lo > u9 or u9 > tol)
                    and not (lo > u10 or u10 > tol) and not (lo > u11 or u11 > tol)
                    and isfinite(n0 + n1 + n2 + n3 + n4 + n5 + n6 + n7
                                 + n8 + n9 + n10 + n11)
                ):
                    break
                delta = max(map(abs, (u0, u1, u2, u3, u4, u5, u6, u7, u8, u9, u10, u11)))
                y0, y1, y2, y3, y4, y5 = n0, n1, n2, n3, n4, n5
                y6, y7, y8, y9, y10, y11 = n6, n7, n8, n9, n10, n11
            else:
                raise _stall(delta, tol)
        except ValueError:
            # a field meets a non-finite iterate with, say, math.sin(inf)
            if all(map(isfinite, mid)):
                raise
            raise StepFailure(
                "implicit midpoint iterate is not finite", time=k * h, step=k
            ) from None
        except _STEP_ERRORS as exc:
            raise StepFailure(str(exc), time=k * h, step=k) from None
        back5, back4, back3, back2, back1 = back4, back3, back2, back1, x
        x = [n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11]
        if k % record_stride == 0 or k == nsteps:
            yield k * h, x


# Yoshida's fourth-order composition of three leapfrog steps of relative
# sizes w1, w0, w1 (Yoshida 1990); the drift-kick-drift form merges the
# inner half-drifts of neighbouring leapfrogs, so a step takes three kicks.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_YOSHIDA_KICKS = (_W1, _W0, _W1)
_YOSHIDA_DRIFTS = (_W1 / 2, (_W0 + _W1) / 2, (_W0 + _W1) / 2, _W1 / 2)


def rk45_solve(field, x0, t_final, t_eval=None):
    """Adaptive Dormand-Prince 5(4) integration via scipy, as a cross-check.

    Returns (times, states) with states stacked row-wise.  A state that is
    not finite ends the run with StepFailure, carrying the time, and so does
    a run whose pace says it needs more than ``RK45_MAX_EVALS`` field
    evaluations: every ``RK45_PACE_EVALS`` evaluations, those taken so far
    are scaled from the time reached to ``t_final``.
    """
    from scipy.integrate import solve_ivp

    evals = 0

    def rhs(t, y):
        nonlocal evals
        evals += 1
        if evals % RK45_PACE_EVALS == 0 and evals * t_final > RK45_MAX_EVALS * t:
            raise StepFailure(
                "adaptive integration reached t = %.3g of %.3g in %d field"
                " evaluations, a pace that needs more than %d"
                % (t, t_final, evals, RK45_MAX_EVALS),
                time=float(t),
            )
        if not np.isfinite(y).all():
            raise StepFailure("adaptive integration state is not finite", time=float(t))
        return field(y)

    # scipy's first-step estimate overflows on a state of huge velocities; the
    # checks in rhs, not numpy's warnings, decide how such a run ends
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve_ivp(
            rhs,
            (0.0, t_final),
            np.asarray(x0, dtype=float),
            method="RK45",
            rtol=RK45_RTOL,
            atol=RK45_ATOL,
            t_eval=t_eval,
            dense_output=False,
        )
    if not sol.success:
        raise StepFailure("adaptive integration failed: %s" % sol.message)
    return sol.t, sol.y.T
