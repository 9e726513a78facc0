"""Quantities the benchmark computes without the package, to check its outputs.

Everything here is written from the formulas of the model (plain numpy, no
import of ``curvednbody``), so a check that compares a package output with a
value from this module compares two independent computations.
"""

from __future__ import annotations

import math

import numpy as np

EQUAL_MASS_VALUE = -1.0 / 27.0


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def check(condition, message, *args):
    if not condition:
        raise CheckFailed(message % args if args else message)


def admissibility(m1, m2, m3):
    """The admissibility quartic of a unit-sum triple; negative inside the region.

    Written as (sum of squared pair products) minus twice the triple product;
    works elementwise on arrays.
    """
    p12 = m1 * m2
    p13 = m1 * m3
    p23 = m2 * m3
    return p12 * p12 + p13 * p13 + p23 * p23 - 2.0 * p12 * m3


def draw_triples(rng, count, depth):
    """Rejection-sample unit-sum triples whose quartic is at most ``depth`` times
    its equal-mass value (``depth`` = 0 admits the whole region)."""
    out = []
    limit = depth * EQUAL_MASS_VALUE
    while len(out) < count:
        m1, m2 = rng.uniform(0.0, 1.0, 2)
        m3 = 1.0 - m1 - m2
        if m3 <= 0.0:
            continue
        value = admissibility(m1, m2, m3)
        if value < 0.0 and value <= limit:
            out.append((float(m1), float(m2), float(m3)))
    return out


def edge_triple(angle, fraction):
    """The triple at ``fraction`` of the way from the equal-mass point to the
    region boundary, along the ray at ``angle`` in the plane of the simplex.

    The boundary is found by bisecting the sign of the quartic to the last bit.
    """
    centre = np.full(3, 1.0 / 3.0)
    u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    v = np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)
    d = math.cos(angle) * u + math.sin(angle) * v
    # the ray leaves the simplex where its first mass reaches zero
    lo, hi = 0.0, min(-centre[i] / d[i] for i in range(3) if d[i] < 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if admissibility(*(centre + mid * d)) < 0.0:
            lo = mid
        else:
            hi = mid
    return tuple(float(x) for x in centre + fraction * lo * d)


def reference_ring(masses):
    """Canonical ring longitudes of a unit-sum triple, by the law of cosines.

    The fixed-point relations make sin(alpha) : sin(beta) : sin(gamma) equal
    1/sqrt(m3) : 1/sqrt(m1) : 1/sqrt(m2), with gamma the wrap gap and
    alpha + beta + gamma = 2 pi; so pi - alpha, pi - beta, pi - gamma are the
    angles of a plane triangle with those sides.
    """
    m1, m2, m3 = masses
    a, b, c = 1.0 / math.sqrt(m3), 1.0 / math.sqrt(m1), 1.0 / math.sqrt(m2)
    alpha = math.pi - math.acos((b * b + c * c - a * a) / (2.0 * b * c))
    beta = math.pi - math.acos((a * a + c * c - b * b) / (2.0 * a * c))
    return (0.0, alpha, alpha + beta)


class RingModel:
    """Pair quantities of an equatorial ring, computed directly with numpy.

    For longitudes phi and masses m the pair terms are m_i m_j / |sin d_ij|^3
    with d_ij = phi_i - phi_j; from them follow the fixed-point residual, the
    vertical and tangential coupling blocks and the pair-force scale.
    """

    def __init__(self, masses, longitudes):
        m = np.asarray(masses, dtype=float)
        phi = np.asarray(longitudes, dtype=float)
        d = phi[:, None] - phi[None, :]
        s = np.sin(d)
        c = np.cos(d)
        off = ~np.eye(m.size, dtype=bool)
        f3 = np.zeros_like(d)
        f3[off] = (np.outer(m, m)[off]) / np.abs(s[off]) ** 3
        self.m = m
        self.phi = phi
        self.residual = (f3 * s).sum(axis=1)
        self.scale = float(np.triu(f3, 1).sum())
        self.vertical = f3 - np.diag((f3 * c).sum(axis=1))
        tang = -2.0 * f3 * c
        self.tangential = tang - np.diag(tang.sum(axis=1))

    def lambda1(self):
        """Trace of the mass-weighted vertical block; its other two modes are zero."""
        return float(np.sum(np.diag(self.vertical) / self.m))

    def block_spectra(self):
        """Eigenvalues of the mass-weighted vertical and tangential blocks."""
        root = np.sqrt(self.m)
        weight = np.outer(root, root)
        return (
            np.linalg.eigvalsh(self.vertical / weight),
            np.linalg.eigvalsh(self.tangential / weight),
        )

    def transverse_spectrum(self, omega):
        """The 4n - 6 eigenvalues +-sqrt(lambda - omega^2) of the vertical modes
        and +-sqrt(mu) of the tangential modes, symmetry zero modes left out."""
        vlams, tlams = self.block_spectra()
        n = self.m.size
        vrest = np.sort(vlams)[2:]
        trest = np.sort(tlams)[: n - 1]
        out = []
        for lam in vrest:
            z = np.sqrt(complex(lam - omega * omega))
            out.extend([z, -z])
        for mu in trest:
            z = np.sqrt(complex(mu))
            out.extend([z, -z])
        return np.array(out)

    def flow_matrix(self, omega):
        """Linearized flow at the ring rotating at ``omega``, order (theta, phi,
        p_theta, p_phi): the rotation only shifts the vertical block by
        -omega^2 times the mass diagonal."""
        n = self.m.size
        minv = np.diag(1.0 / self.m)
        L = np.zeros((4 * n, 4 * n))
        L[0:n, 2 * n : 3 * n] = minv
        L[n : 2 * n, 3 * n : 4 * n] = minv
        L[2 * n : 3 * n, 0:n] = self.vertical - omega * omega * np.diag(self.m)
        L[3 * n : 4 * n, n : 2 * n] = self.tangential
        return L


def match_spectra(got, expected, tol):
    """Largest distance in a one-to-one nearest matching of two eigenvalue lists."""
    got = list(np.asarray(got, dtype=complex))
    worst = 0.0
    check(len(got) == len(expected), "spectrum has %d values, expected %d",
          len(got), len(expected))
    for z in expected:
        k = int(np.argmin([abs(g - z) for g in got]))
        worst = max(worst, abs(got.pop(k) - z))
    check(worst <= tol, "spectrum misses the expected values by %.3g", worst)
    return worst


def verdict(omega, lam1, boundary_tol):
    """Classification of a rotation rate from omega^2 against lambda1."""
    if omega == 0.0:
        return "fixed-point-unstable"
    gap = omega * omega - lam1
    if abs(gap) < boundary_tol:
        return "re-degenerate-boundary"
    return "re-unstable" if gap < 0.0 else "re-linearly-stable"


def region_counts(resolution):
    """Simplex and admissible cell counts of the region scan grid."""
    centres = (np.arange(resolution) + 0.5) / resolution
    m1 = centres[:, None]
    m2 = centres[None, :]
    valid = (m1 + m2) < 1.0
    inside = valid & (admissibility(m1, m2, 1.0 - m1 - m2) < 0.0)
    return int(valid.sum()), int(inside.sum())
