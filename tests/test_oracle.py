"""The closed forms of the ring path against 50-digit values of the same floats.

From the float ring and blocks that ``ring_pipeline`` builds (past its
residual gate, as near the boundary the gate would stop them), mpmath at 50
digits computes what the package computes in closed form on floats:

- lambda1 and the tangential pair, as eigenvalues of the mass-weighted
  blocks S = M^-1/2 B M^-1/2;
- ``vertical_mode``'s vector, as S's top eigenvector;
- the certificate's eigenvalues, trace, half determinant and reduced minimum
  eigenvalue, from the float gap Hessian it holds;
- Newton's landing, as the 50-digit root of the fixed-point equations that
  Newton continued in mpmath from the float landing reaches;
- the invariant splitting's transverse spectrum at 0.5 and 1.5 omega_crit,
  as +-sqrt(mu) for the eigenvalues mu of M^-1 (V - omega^2 M) and M^-1 T
  that are not symmetry modes.

Every tolerance is the distance, from the float input, of the problem that
the closed form solves exactly, plus its rounding:

- The closed forms take the vertical block as the rank-one part
  S0 = tr(S) y y^T along y = w / sqrt(m) and the tangential block as
  A^T H A, with H the gap Hessian read off T.  The float blocks lie
  delta = ||S - S0||_2 from those, computed here at 50 digits; an eigenvalue
  moves by at most delta (Weyl), the top eigenvector by at most
  delta / (lambda1 - 2 delta) in sin-theta (Davis-Kahan).
- A closed form of a few terms rounds ROUND times at most, each by eps
  times the magnitude it works on: |mu| for a root from a trace, and
  kappa |mu| for the smaller root det / big, where kappa =
  (|h11 h22| + h12^2) / |det H| is the condition of the 2-by-2 determinant.
- Newton stops once its computed residual is below NEWTON_TOL; the exact
  residual is within ROUND eps S of it, S the sum of the pair forces, and
  the landing is within ||J^-1||_inf times that of the root.
- The splitting's vertical pair is x y, x = a^T M^-1 b and
  y = b^T (V - omega^2 M) a for the unit vectors a of w / m and b of w.  In
  exact arithmetic x y = w^T V M^-1 w / |w|^2 - omega^2, which for S0 is
  tr(S) - omega^2; so it lies within delta (1 + kappa_w) of lambda1 -
  omega^2, kappa_w = |sqrt(m) w| |w / sqrt(m)| / |w|^2 (Cauchy-Schwarz).
  Its tangential pairs are the eigenvalues of P = C^T M^-1 D D^T T C, C and
  D orthonormal bases of the planes normal to m and to (1, 1, 1).  With
  T0 = A^T H A in place of T, P is the matrix of M^-1 T0 on the plane
  normal to m, self-adjoint in the mass metric, so its eigenvalues are
  S_T0's and move by at most sqrt(rho) times a change of P (Bauer-Fike),
  rho = max m / min m; T - T0 moves P by at most rho delta_t.  The square
  root of mu moves by at most |d mu| / |sqrt(mu)|.
"""

import math

import mpmath
import pytest

from curvednbody.fixedpoints import NEWTON_TOL, solve_fixed_point_numeric
from curvednbody.geometry import RingConfiguration
from curvednbody.reduction import JacobiConstants, lyapunov_certificate
from curvednbody.stability import (
    invariant_subspaces,
    ring_pipeline,
    spectral_analysis,
    vertical_mode,
)

from conftest import CENTRE, EDGE_RAYS

mpmath.mp.dps = 50
EPS = 2.0 ** -52
ROUND = 16

# (masses, Newton's offset): the atlas benchmark's Newton start moves
# longitudes 2 and 3 by +-1e-3; at 99.99 % two rays put that start beyond
# Newton's basin near the fold, so there it is 1e-4
CASES = [((1.0, 1.0, 1.0), 1e-3), ((0.2, 0.5, 0.3), 1e-3), ((0.25, 0.45, 0.3), 1e-3)] + [
    (tuple(CENTRE + fraction * reach * dk for dk in d), offset)
    for fraction, offset in ((0.99, 1e-3), (0.9999, 1e-4))
    for d, reach in EDGE_RAYS
]
IDS = ["equal", "0.2-0.5-0.3", "0.25-0.45-0.3"] + [
    "edge%d-%s" % (k, f) for f in ("99", "99.99") for k in range(4)
]
# what 50 digits leave of an exact zero, relative to the matrix's norm
DIGITS = mpmath.mpf(10) ** -45


def mp_matrix(rows):
    return mpmath.matrix([[mpmath.mpf(x) for x in row] for row in rows])


def weighted(block, masses):
    r = [mpmath.sqrt(mpmath.mpf(m)) for m in masses]
    return mpmath.matrix([[mpmath.mpf(x) / (r[i] * r[j]) for j, x in enumerate(row)]
                          for i, row in enumerate(block)])


def norm2(sym):
    """2-norm of a symmetric matrix: its largest eigenvalue magnitude."""
    return max(abs(x) for x in mpmath.eigsy(sym, eigvals_only=True))


def ring_normal(phis):
    p1, p2, p3 = (mpmath.mpf(p) for p in phis)
    return [mpmath.sin(p3 - p2), mpmath.sin(p1 - p3), mpmath.sin(p2 - p1)]


def kappa(h11, h12, h22):
    return (abs(h11 * h22) + h12 * h12) / abs(h11 * h22 - h12 * h12)


@pytest.fixture(params=CASES, ids=IDS)
def case(request):
    masses, offset = request.param
    return ring_pipeline(masses, math.inf) + (offset,)


def test_block_spectra_match_50_digits(case):
    triple, _, ring, blocks, _ = case
    m = blocks.masses.masses
    rep = spectral_analysis(blocks)
    sv = weighted(blocks.vertical.tolist(), m)
    w = ring_normal(ring.longitudes)
    y = mpmath.matrix([wi / mpmath.sqrt(mpmath.mpf(mi)) for wi, mi in zip(w, m)])
    y /= mpmath.norm(y)
    trace = sum(sv[i, i] for i in range(3))
    delta = norm2(sv - trace * (y * y.T))
    values, vectors = mpmath.eigsy(sv)
    order = sorted(range(3), key=lambda k: values[k])
    top = order[-1]
    assert abs(rep.lambda1 - values[top]) <= delta + ROUND * EPS * rep.lambda1
    assert rep.vertical_eigenvalues[:2] == (0.0, 0.0)
    for k in order[:2]:
        assert abs(values[k]) <= delta + DIGITS * rep.lambda1

    # vertical_mode's vector against the top eigenvector, sign of its sum
    lam, u = vertical_mode(blocks)
    want = vectors[:, top] * (1 if sum(vectors[:, top]) > 0 else -1)
    got = [ui / mpmath.sqrt(mpmath.mpf(mi)) for ui, mi in zip(u.tolist(), m)]
    gap = lam - 2 * delta
    assert max(abs(g - x) for g, x in zip(got, want)) <= 2 * delta / gap + ROUND * EPS

    # the tangential pair against S_T's two negative eigenvalues
    t = blocks.tangential.tolist()
    st_ = weighted(t, m)
    gaps = mp_matrix([[-1, 1, 0], [0, -1, 1]])
    hess = mp_matrix([[t[0][0], -t[0][2]], [-t[0][2], t[2][2]]])
    delta_t = norm2(st_ - weighted((gaps.T * hess * gaps).tolist(), m))
    want = sorted(mpmath.eigsy(st_, eigvals_only=True))
    big, small, zero = rep.tangential_eigenvalues
    assert zero == 0.0 and abs(want[2]) <= delta_t + DIGITS * abs(big)
    cond = kappa(t[0][0], -t[0][2], t[2][2])
    assert abs(big - want[0]) <= delta_t + ROUND * EPS * abs(big)
    assert abs(small - want[1]) <= delta_t + ROUND * EPS * cond * abs(small)


def test_certificate_matches_50_digits(case):
    triple = case[0]
    cert = lyapunov_certificate(triple)
    (a, c), (_, d) = cert.hessian.tolist()
    hess = mp_matrix([[a, c], [c, d]])
    want = sorted(mpmath.eigsy(hess, eigvals_only=True))
    det = a * d - c * c
    cond = kappa(a, c, d)
    assert abs(cert.eigenvalues[0] - want[0]) <= ROUND * EPS * abs(want[0])
    assert abs(cert.eigenvalues[1] - want[1]) <= ROUND * EPS * cond * abs(want[1])
    assert abs(cert.trace - (hess[0, 0] + hess[1, 1])) <= EPS * abs(cert.trace)
    exact_det = mpmath.det(hess / 2)
    assert abs(cert.determinant_half - exact_det) <= ROUND * EPS * cond * abs(exact_det)
    assert det > 0.0

    # the second variation: -(B^T H B) with B = [[1, 0], [-nu1, 1]], and the
    # kinetic diagonal (1/nu3, 1/nu4), with nu from the float masses
    m1, m2, m3 = (mpmath.mpf(x) for x in JacobiConstants.from_masses(triple).masses)
    nu1, nu3, nu4 = m1 / (m1 + m2), m1 * m2 / (m1 + m2), (m1 + m2) * m3 / (m1 + m2 + m3)
    b = mpmath.matrix([[1, 0], [-nu1, 1]])
    potential = -(b.T * hess * b)
    entries = ROUND * EPS * (abs(a) + 2 * nu1 * abs(c) + nu1 * nu1 * abs(d))
    low = min(mpmath.eigsy(potential, eigvals_only=True))
    p_cond = kappa(potential[0, 0], potential[0, 1], potential[1, 1])
    want = min(low, 1 / nu3, 1 / nu4)
    tol = 2 * entries + ROUND * EPS * p_cond * abs(low)
    assert abs(cert.reduced_min_eigenvalue - want) <= max(tol, ROUND * EPS * want)
    assert cert.certified


def mp_residual(m, phis):
    """The fixed-point residual and its Jacobian in (phi2, phi3), and S."""
    res, jac, force = [mpmath.mpf(0)] * 3, mpmath.zeros(3, 3), mpmath.mpf(0)
    for i in range(3):
        for j in range(3):
            if i != j:
                d = phis[i] - phis[j]
                s3 = abs(mpmath.sin(d)) ** 3
                res[i] += m[i] * m[j] * mpmath.sin(d) / s3
                g = -2 * m[i] * m[j] * mpmath.cos(d) / s3
                jac[i, j] = g
                jac[i, i] -= g
                force += m[i] * m[j] / s3 / 2
    return res, -jac[1:3, 1:3], force


def test_newton_landing_matches_50_digits(case):
    triple, _, ring, _, offset = case
    mv = triple.mass_vector()
    p1, p2, p3 = ring.longitudes
    start = RingConfiguration((p1, p2 + offset, p3 - offset))
    landed = solve_fixed_point_numeric(mv, start).longitudes

    m = [mpmath.mpf(x) for x in mv.masses]
    phis = [mpmath.mpf(p) for p in landed]
    for _ in range(12):
        res, jac, force = mp_residual(m, phis)
        step = mpmath.lu_solve(jac, mpmath.matrix(res[1:]))
        phis = [phis[0], phis[1] - step[0], phis[2] - step[1]]
    res, jac, force = mp_residual(m, phis)
    assert max(abs(r) for r in res) < mpmath.mpf(10) ** -40
    inverse = mpmath.inverse(jac)
    reach = max(abs(inverse[i, 0]) + abs(inverse[i, 1]) for i in range(2))
    tol = reach * (NEWTON_TOL + ROUND * EPS * force)
    assert landed[0] == 0.0
    assert max(abs(x - y) for x, y in zip(landed, phis)) <= tol


def frobenius(rows):
    return mpmath.sqrt(sum(mpmath.mpf(x) ** 2 for row in rows for x in row))


@pytest.mark.parametrize("factor", [0.5, 1.5])
def test_transverse_spectrum_matches_50_digits(case, factor):
    _, _, ring, blocks, _ = case
    m = blocks.masses.masses
    rho = mpmath.mpf(max(m)) / min(m)
    omega = factor * spectral_analysis(blocks).omega_critical
    w2 = mpmath.mpf(omega) ** 2
    got = invariant_subspaces(blocks, omega).transverse_spectrum
    v, t = blocks.vertical.tolist(), blocks.tangential.tolist()

    # the vertical pair: lambda1 - omega^2, lambda1 S's top eigenvalue; x and
    # y round by ROUND eps over unit vectors, y = mu / x
    sv = weighted(v, m)
    w = ring_normal(ring.longitudes)
    y = mpmath.matrix([wi / mpmath.sqrt(mpmath.mpf(mi)) for wi, mi in zip(w, m)])
    y /= mpmath.norm(y)
    delta = norm2(sv - sum(sv[i, i] for i in range(3)) * (y * y.T))
    mu = max(mpmath.eigsy(sv, eigvals_only=True)) - w2
    ww = sum(wi ** 2 for wi in w)
    kappa_w = mpmath.sqrt(sum(mpmath.mpf(mi) * wi ** 2 for mi, wi in zip(m, w)) * sum(
        wi ** 2 / mpmath.mpf(mi) for mi, wi in zip(m, w))) / ww
    x = mpmath.sqrt(sum((wi / mpmath.mpf(mi)) ** 2 for mi, wi in zip(m, w)) / ww)
    rounding = x * (frobenius(v) + w2 * max(m)) + abs(mu) / (x * min(m)) + abs(mu)
    tol_mu = [delta * (1 + kappa_w) + ROUND * EPS * rounding]

    # the tangential pairs: S_T's two negative eigenvalues; P rounds by
    # ROUND eps ||T||_F / min m over unit frames, and its 2-norm is at most
    # sqrt(rho) |big|, so the root rule rounds the larger root by ROUND eps
    # sqrt(rho) |big| and the smaller, the determinant over the larger, by
    # 2 ROUND eps rho |big|
    st_ = weighted(t, m)
    gaps = mp_matrix([[-1, 1, 0], [0, -1, 1]])
    hess = mp_matrix([[t[0][0], -t[0][2]], [-t[0][2], t[2][2]]])
    delta_t = norm2(st_ - weighted((gaps.T * hess * gaps).tolist(), m))
    big, small = sorted(mpmath.eigsy(st_, eigvals_only=True))[:2]
    moved = delta_t + mpmath.sqrt(rho) * (rho * delta_t + ROUND * EPS * frobenius(t) / min(m))
    tol_mu += [moved + ROUND * EPS * mpmath.sqrt(rho) * abs(big),
               moved + 2 * ROUND * EPS * rho * abs(big)]

    for k, value in enumerate((mu, big, small)):
        root = mpmath.sqrt(mpmath.mpc(value))
        for z, exact in zip(got[2 * k : 2 * k + 2], (root, -root)):
            assert abs(mpmath.mpc(z) - exact) <= tol_mu[k] / abs(root), (k, z, exact)
