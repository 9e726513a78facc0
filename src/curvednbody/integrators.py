"""Time steppers shared by the full and reduced dynamics.

Every fixed-step trajectory runs through ``fixed_steps``, which advances a
state held as a list of floats and yields the recorded samples.  The full
Hamiltonian is not separable, so its reference step is the implicit
midpoint rule, ``midpoint_step``; for the 12 floats of a three-body state
its iteration is straight-line code, bit-identical to the list loop that
serves other lengths.  The reduced Hamiltonian is separable, and its flow
defaults to an explicit fourth-order composition of leapfrog (Yoshida
1990), whose coefficients are kept here and whose step ``reduction``
writes out; the midpoint rule stays available there as the cross-check.
An adaptive embedded Runge-Kutta 5(4) pair wraps scipy and serves as an
independent cross-check route for the full system.
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

# Integration aborts when a pair separation sine falls below this.
SEPARATION_FLOOR = 1e-6


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
        except (StepFailure, SingularConfiguration, PolarSingularity) as exc:
            raise StepFailure(str(exc), time=k * h, step=k) from None
        if k % record_stride == 0 or k == nsteps:
            yield k * h, x


def midpoint_step(field, x, h):
    """Advance one implicit midpoint step of size h.

    The implicit equation y = x + h f((x + y)/2) is solved by damped
    fixed-point iteration seeded with an explicit Euler predictor, to an
    update of at most MIDPOINT_TOL within MIDPOINT_MAX_INNER iterations.
    For the step sizes this library uses the iteration contracts rapidly; a
    stall or a non-finite iterate raises StepFailure.

    The iteration runs on lists of floats: ``field`` maps a list to a list.
    A list of 12 floats, the three-body state, takes ``_midpoint_twelve``,
    the same iteration written out entry by entry; other lengths take the
    loop.  A numpy vector ``x`` is served too, with a ``field`` on numpy
    vectors, and the step then returns a numpy vector; the arithmetic is
    the same.
    """
    if isinstance(x, np.ndarray):

        def list_field(v):
            return np.asarray(field(np.array(v)), dtype=float).tolist()

        y = _midpoint_loop(list_field, x.tolist(), h, MIDPOINT_TOL, MIDPOINT_MAX_INNER)
        return np.array(y)
    if len(x) == 12:
        return _midpoint_twelve(field, x, h, MIDPOINT_TOL, MIDPOINT_MAX_INNER)
    return _midpoint_loop(field, x, h, MIDPOINT_TOL, MIDPOINT_MAX_INNER)


def _stall(delta, tol):
    return StepFailure(
        "implicit midpoint solve stalled (last update %.3g, tol %.3g)" % (delta, tol)
    )


def _midpoint_loop(field, x, h, tol, max_inner):
    """``midpoint_step`` on a list of any length; the reference for
    ``_midpoint_twelve``."""
    mid = x
    try:
        y = [a + h * b for a, b in zip(x, field(x))]
        damping = 1.0
        delta = prev_delta = math.inf
        for _ in range(max_inner):
            mid = [0.5 * (a + b) for a, b in zip(x, y)]
            y_next = [a + h * b for a, b in zip(x, field(mid))]
            delta = max(map(abs, map(sub, y_next, y)))
            if delta <= tol and math.isfinite(sum(y_next)):
                return y_next
            if delta >= prev_delta:
                # diverging; fall back to averaging with the previous iterate
                damping *= 0.5
                if damping < 2.0 ** -20:
                    break
                y = [a + damping * (b - a) for a, b in zip(y, y_next)]
            else:
                y = y_next
            prev_delta = delta
    except ValueError:
        # a field meets a non-finite iterate with, say, math.sin(inf)
        if all(map(math.isfinite, mid)):
            raise
        raise StepFailure("implicit midpoint iterate is not finite") from None
    raise _stall(delta, tol)


def _midpoint_twelve(field, x, h, tol, max_inner):
    """``_midpoint_loop`` for 12 entries as straight-line code over floats.

    Every floating-point expression is the loop's and the update norm is
    builtin ``max`` over the entries in order, which keeps the loop's first
    of equal (or nan) values, so the result and the errors are the same bits.
    """
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11 = x
    mid = x
    try:
        f0, f1, f2, f3, f4, f5, f6, f7, f8, f9, f10, f11 = field(x)
        y0, y1, y2, y3 = x0 + h * f0, x1 + h * f1, x2 + h * f2, x3 + h * f3
        y4, y5, y6, y7 = x4 + h * f4, x5 + h * f5, x6 + h * f6, x7 + h * f7
        y8, y9, y10, y11 = x8 + h * f8, x9 + h * f9, x10 + h * f10, x11 + h * f11
        damping = 1.0
        delta = prev_delta = math.inf
        for _ in range(max_inner):
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
            delta = max(
                abs(n0 - y0), abs(n1 - y1), abs(n2 - y2), abs(n3 - y3),
                abs(n4 - y4), abs(n5 - y5), abs(n6 - y6), abs(n7 - y7),
                abs(n8 - y8), abs(n9 - y9), abs(n10 - y10), abs(n11 - y11),
            )
            if delta <= tol:
                y_next = [n0, n1, n2, n3, n4, n5, n6, n7, n8, n9, n10, n11]
                if math.isfinite(sum(y_next)):
                    return y_next
            if delta >= prev_delta:
                # diverging; fall back to averaging with the previous iterate
                damping *= 0.5
                if damping < 2.0 ** -20:
                    break
                y0, y1 = y0 + damping * (n0 - y0), y1 + damping * (n1 - y1)
                y2, y3 = y2 + damping * (n2 - y2), y3 + damping * (n3 - y3)
                y4, y5 = y4 + damping * (n4 - y4), y5 + damping * (n5 - y5)
                y6, y7 = y6 + damping * (n6 - y6), y7 + damping * (n7 - y7)
                y8, y9 = y8 + damping * (n8 - y8), y9 + damping * (n9 - y9)
                y10, y11 = y10 + damping * (n10 - y10), y11 + damping * (n11 - y11)
            else:
                y0, y1, y2, y3, y4, y5 = n0, n1, n2, n3, n4, n5
                y6, y7, y8, y9, y10, y11 = n6, n7, n8, n9, n10, n11
            prev_delta = delta
    except ValueError:
        # a field meets a non-finite iterate with, say, math.sin(inf)
        if all(map(math.isfinite, mid)):
            raise
        raise StepFailure("implicit midpoint iterate is not finite") from None
    raise _stall(delta, tol)


# Yoshida's fourth-order composition of three leapfrog steps of relative
# sizes w1, w0, w1 (Yoshida 1990); the drift-kick-drift form merges the
# inner half-drifts of neighbouring leapfrogs, so a step takes three kicks.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_YOSHIDA_KICKS = (_W1, _W0, _W1)
_YOSHIDA_DRIFTS = (_W1 / 2, (_W0 + _W1) / 2, (_W0 + _W1) / 2, _W1 / 2)


def rk45_solve(field, x0, t_final, t_eval=None):
    """Adaptive Dormand-Prince 5(4) integration via scipy, as a cross-check.

    Returns (times, states) with states stacked row-wise.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _t, y: field(y),
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
