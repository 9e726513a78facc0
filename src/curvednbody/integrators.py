"""Time steppers shared by the full and reduced dynamics.

The reference integrator is the implicit midpoint rule with a fixed step;
the Hamiltonian here is not separable, so an implicit symmetric method is
the natural structure-preserving choice.  An adaptive embedded Runge-Kutta
5(4) pair wraps scipy and serves as an independent cross-check route.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidConfiguration, StepFailure

MIDPOINT_TOL = 1e-13
MIDPOINT_MAX_INNER = 50


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


def midpoint_step(field, x, h, tol=MIDPOINT_TOL, max_inner=MIDPOINT_MAX_INNER):
    """Advance one implicit midpoint step of size h.

    The implicit equation y = x + h f((x + y)/2) is solved by damped
    fixed-point iteration seeded with an explicit Euler predictor.  For the
    step sizes this library uses the iteration contracts rapidly; a stall
    raises StepFailure, as does a max_inner below 1.
    """
    y = x + h * field(x)
    damping = 1.0
    delta = prev_delta = np.inf
    for _ in range(max_inner):
        y_next = x + h * field(0.5 * (x + y))
        delta = float(np.max(np.abs(y_next - y)))
        if delta <= tol:
            return y_next
        if delta >= prev_delta:
            # diverging; fall back to averaging with the previous iterate
            damping *= 0.5
            if damping < 2.0 ** -20:
                break
            y = y + damping * (y_next - y)
        else:
            y = y_next
        prev_delta = delta
    raise StepFailure(
        "implicit midpoint solve stalled (last update %.3g, tol %.3g)" % (delta, tol)
    )


def rk45_solve(field, x0, t_final, rtol=1e-10, atol=1e-12, t_eval=None):
    """Adaptive Dormand-Prince 5(4) integration via scipy, as a cross-check.

    Returns (times, states) with states stacked row-wise.
    """
    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        lambda _t, y: field(y),
        (0.0, t_final),
        np.asarray(x0, dtype=float),
        method="RK45",
        rtol=rtol,
        atol=atol,
        t_eval=t_eval,
        dense_output=False,
    )
    if not sol.success:
        raise StepFailure("adaptive integration failed: %s" % sol.message)
    return sol.t, sol.y.T
