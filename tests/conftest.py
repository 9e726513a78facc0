import math

import numpy as np
import pytest
from hypothesis.internal.cache import LRUCache
from hypothesis.internal.conjecture import providers

from curvednbody import reduction, stability
from curvednbody.fixedpoints import admissibility_value
from curvednbody.geometry import SINE_RECHECK, SINGULAR_TOL, _recheck_sine, _singular_pair
from curvednbody.integrators import fixed_steps, midpoint_step, step_count

SAMPLE_SEED = 20240817


def draw_admissible_triples(rng, count):
    """Rejection-sample unit-sum mass triples inside the admissible region."""
    out = []
    while len(out) < count:
        m1, m2 = rng.uniform(0.0, 1.0, 2)
        m3 = 1.0 - m1 - m2
        if m3 <= 0.0:
            continue
        if admissibility_value(m1, m2, m3) < 0.0:
            out.append((m1, m2, m3))
    return out


@pytest.fixture(scope="session")
def triples_1000():
    rng = np.random.default_rng(SAMPLE_SEED)
    return draw_admissible_triples(rng, 1000)


@pytest.fixture
def rng():
    return np.random.default_rng(999)


@pytest.fixture
def no_local_constants(monkeypatch):
    """An empty pool of local constants for hypothesis while the test runs.

    Hypothesis 6.155 mixes into every draw, derandomized ones too, the
    literals it collects from the source of each loaded local module
    (``hypothesis.internal.constants_ast``).  With the pool empty, and the
    cache of the constants each draw may take fresh, a derandomized test
    draws the same examples whatever literals the package and the tests
    hold; the real pool and cache come back afterwards.
    """
    empty = providers.Constants()
    monkeypatch.setattr(providers, "CONSTANTS_CACHE", LRUCache(1024))
    monkeypatch.setattr(providers, "_get_local_constants", lambda: empty)


def singular_pair(i, j, kind):
    """Pattern of the one singular-pair message, bodies numbered from 1."""
    return r"^bodies %d and %d at %s \(separation sine [^)]+\)$" % (i, j, kind)


def unchecked(cls, **fields):
    """An instance of a frozen dataclass built without running its checks."""
    obj = cls.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def pair_table_loop(xs=None, ys=None, zs=None, phis=None, floor=SINGULAR_TOL):
    """``geometry._pair_table`` as first written, with the sine rule inline:
    the pairs of Cartesian unit vectors (xs, ys, zs), or of a ring's
    longitudes ``phis`` with cos d = cos(phi_i - phi_j)."""
    n = len(xs) if phis is None else len(phis)
    table = []
    for i in range(n):
        for j in range(i + 1, n):
            if phis is None:
                cosd = xs[i] * xs[j] + ys[i] * ys[j] + zs[i] * zs[j]
            else:
                cosd = math.cos(phis[i] - phis[j])
            sind = math.sqrt(max(1.0 - cosd * cosd, 0.0))
            if sind < SINE_RECHECK:
                sind = _recheck_sine(i, j, cosd, xs, ys, zs, phis, floor)
            elif sind <= floor:
                raise _singular_pair(i, j, cosd, sind)
            table.append((i, j, cosd, sind))
    return table


def null_vectors(ring):
    """(radial, transverse, uniform): the ring's x and y coordinates, killed by
    the vertical block, and the all-ones vector, killed by the tangential one."""
    phis = np.array(ring.longitudes)
    return np.cos(phis), np.sin(phis), np.ones(len(ring.longitudes))


CENTRE = 1.0 / 3.0


def boundary_reach(angle):
    """The direction of the ray at ``angle`` in the plane of the simplex from
    the equal-mass point, and its distance to the region's boundary, found by
    bisecting the sign of the admissibility value."""
    u = (1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0), 0.0)
    v = (1.0 / math.sqrt(6.0), 1.0 / math.sqrt(6.0), -2.0 / math.sqrt(6.0))
    d = tuple(math.cos(angle) * a + math.sin(angle) * b for a, b in zip(u, v))
    lo, hi = 0.0, min(-CENTRE / dk for dk in d if dk < 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if admissibility_value(*(CENTRE + mid * dk for dk in d)) < 0.0:
            lo = mid
        else:
            hi = mid
    return d, lo


def _canonical_skew():
    J = np.zeros((12, 12))
    J[:6, 6:] = -np.eye(6)
    J[6:, :6] = np.eye(6)
    J.setflags(write=False)
    return J


# the skew form J = [[0, -I], [I, 0]] that pairs each position with its
# momentum, in the flow matrix's coordinate order (theta, phi, p_theta, p_phi)
SKEW = _canonical_skew()

# the rays of the atlas benchmark's four edge triples
EDGE_RAYS = tuple(boundary_reach(0.1 + (k + 0.5) * math.pi / 2.0) for k in range(4))


def assemble_L_from_blocks(blocks, omega):
    """Full 12-by-12 linearized flow matrix at the rotating ring, a new array.

    Coordinate order is (theta, phi, p_theta, p_phi).  The rotation enters
    only through the centrifugal shift of the vertical block's diagonal.  A
    rate that ``rate_square`` rejects raises InvalidConfiguration.
    """
    w2 = stability.rate_square(omega)
    L = np.zeros((12, 12))
    L[0:3, 6:9] = L[3:6, 9:12] = np.diag(1.0 / blocks.mass_diagonal)
    L[6:9, 0:3] = stability._shifted(blocks, w2)
    L[9:12, 3:6] = blocks.tangential
    return L


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


def gap_gradient(m1, m2, m3, nu1, nu2, phi1, phi2):
    """Partials of the reduced force function with respect to (phi1, phi2); the
    cotangent of a gap d has derivative -sign(sin d) / sin^2 d."""
    sines = map(reduction._gap_sine, reduction._gaps(nu1, nu2, phi1, phi2))
    ga, gb, gc = (-math.copysign(1.0, s) / (s * s) for s in sines)
    dv_dphi1 = m1 * m2 * ga - nu1 * m2 * m3 * gb + nu2 * m1 * m3 * gc
    dv_dphi2 = m2 * m3 * gb + m1 * m3 * gc
    return dv_dphi1, dv_dphi2


def reduced_midpoint(masses, initial, horizon, step=1e-3, record_stride=10,
                     solve=midpoint_step):
    """``reduction.integrate_reduced`` with the implicit midpoint rule of the
    full system in place of Yoshida-4: ``fixed_steps`` over ``seeded_advance``
    over ``solve`` (``midpoint_step`` by default) on the reduced field, with
    the same checks, samples and energy drift.  It is the reduced chart's
    cross-check against the full flow and against Yoshida-4."""
    jc = reduction.JacobiConstants.from_masses(masses)
    m1, m2, m3 = jc.masses
    nu1, nu2 = jc.nu1, jc.nu2
    inv_nu3, inv_nu4 = 1.0 / jc.nu3, 1.0 / jc.nu4

    def field(x):
        g1, g2 = gap_gradient(m1, m2, m3, nu1, nu2, x[0], x[1])
        return [x[2] * inv_nu3, x[3] * inv_nu4, g1, g2]

    advance = seeded_advance(lambda x, guess: solve(field, x, step, guess))
    nsteps = step_count(horizon, step, record_stride)
    x0 = initial.as_vector().tolist()
    check = reduction._separation_check(nu1, nu2, x0)
    times = []
    states = []
    drift = 0.0
    for t, x in fixed_steps(advance, x0, step, nsteps, record_stride, check):
        energy = reduction._reduced_energy(jc, *x)
        if not states:
            e0 = energy
        drift = max(drift, abs(energy - e0))
        times.append(t)
        states.append(x)
    return reduction.ReducedTrajectory(
        times=np.array(times),
        states=np.array(states),
        energy_drift=drift,
        momentum_level=initial.momentum_level,
    )
