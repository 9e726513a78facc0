"""Time steppers shared by the full and reduced dynamics.

Every fixed-step trajectory runs through ``fixed_steps``, which advances a
state held as a list of floats and yields the recorded samples.  The full
Hamiltonian is not separable, so its reference step is the implicit
midpoint rule.  The reduced Hamiltonian is separable, and its flow defaults
to ``yoshida4_step``, an explicit fourth-order composition of leapfrog
(Yoshida 1990); the midpoint rule stays available there as the cross-check.
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


def midpoint_step(field, x, h, tol=MIDPOINT_TOL, max_inner=MIDPOINT_MAX_INNER):
    """Advance one implicit midpoint step of size h.

    The implicit equation y = x + h f((x + y)/2) is solved by damped
    fixed-point iteration seeded with an explicit Euler predictor.  For the
    step sizes this library uses the iteration contracts rapidly; a stall,
    a non-finite iterate or a max_inner below 1 raises StepFailure.

    The iteration runs on lists of floats: ``field`` maps a list to a list.
    A numpy vector ``x`` is served too, with a ``field`` on numpy vectors,
    and the step then returns a numpy vector; the arithmetic is the same.
    """
    array_in = isinstance(x, np.ndarray)
    if array_in:
        array_field = field

        def field(v):
            return np.asarray(array_field(np.array(v)), dtype=float).tolist()

        x = x.tolist()
    y = [a + h * b for a, b in zip(x, field(x))]
    damping = 1.0
    delta = prev_delta = math.inf
    for _ in range(max_inner):
        mid = [0.5 * (a + b) for a, b in zip(x, y)]
        y_next = [a + h * b for a, b in zip(x, field(mid))]
        delta = max(map(abs, map(sub, y_next, y)))
        if delta <= tol and math.isfinite(sum(y_next)):
            return np.array(y_next) if array_in else y_next
        if delta >= prev_delta:
            # diverging; fall back to averaging with the previous iterate
            damping *= 0.5
            if damping < 2.0 ** -20:
                break
            y = [a + damping * (b - a) for a, b in zip(y, y_next)]
        else:
            y = y_next
        prev_delta = delta
    raise StepFailure(
        "implicit midpoint solve stalled (last update %.3g, tol %.3g)" % (delta, tol)
    )


# Yoshida's fourth-order composition of three leapfrog steps of relative
# sizes w1, w0, w1 (Yoshida 1990); the drift-kick-drift form merges the
# inner half-drifts of neighbouring leapfrogs, so a step takes three kicks.
_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_W0 = 1.0 - 2.0 * _W1
_YOSHIDA_KICKS = (_W1, _W0, _W1)
_YOSHIDA_DRIFTS = (_W1 / 2, (_W0 + _W1) / 2, (_W0 + _W1) / 2, _W1 / 2)


def yoshida4_step(force, inv_mass, x, h):
    """Advance one explicit fourth-order symplectic step of size h.

    The Hamiltonian is separable, sum(p_i^2 inv_mass_i) / 2 + V(q), on the
    list ``x = q + p`` whose halves have the length of ``inv_mass``;
    ``force(q)`` returns -dV/dq as a sequence.  Each step evaluates the
    force three times.
    """
    n = len(inv_mass)
    q = x[:n]
    p = x[n:]
    for c, d in zip(_YOSHIDA_DRIFTS, _YOSHIDA_KICKS):
        ch = c * h
        for i in range(n):
            q[i] += ch * (p[i] * inv_mass[i])
        f = force(q)
        dh = d * h
        for i in range(n):
            p[i] += dh * f[i]
    ch = _YOSHIDA_DRIFTS[-1] * h
    for i in range(n):
        q[i] += ch * (p[i] * inv_mass[i])
    return q + p


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
