import math

import numpy as np
import pytest
from hypothesis.internal.cache import LRUCache
from hypothesis.internal.conjecture import providers

from curvednbody.fixedpoints import admissibility_value
from curvednbody.geometry import SINE_RECHECK, SINGULAR_TOL, _recheck_sine, _singular_pair

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
    return np.cos(phis), np.sin(phis), np.ones(ring.n)


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
