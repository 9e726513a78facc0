"""The general linearization on float lists, against the array code it was
written from.

``oracle_force_hessian_blocks`` and ``oracle_assemble_L_general`` are the
numpy versions of ``geometry.force_hessian_blocks`` and
``stability.assemble_L_general``: blocks and flow matrix filled entry by
entry into zero arrays, the dot products by a helper.  The package writes
the same sums out on Python floats and makes each array once.  Every block
and matrix must match its oracle byte for byte (``tobytes``, so a signed
zero counts) on the rings of drawn triples, on their relative equilibria at
0, 0.5 and 1.5 omega_crit, on perturbed off-equator phase states and on
states whose longitudes and momenta hold exact and signed zeros.  A state
that is not finite, or whose blocks do not hold three entries, is rejected
before any pair is read.
"""

import math
import types

import numpy as np
import pytest

from curvednbody.dynamics import PhaseState, relative_equilibrium
from curvednbody.errors import InvalidConfiguration
from curvednbody.geometry import (
    EQUATOR,
    POLAR_TOL,
    MassVector,
    SphereConfiguration,
    _check_bodies,
    _pair_table,
    _polar_error,
    _sphere_tables,
    force_hessian_blocks,
)
from curvednbody.stability import assemble_L_general, ring_pipeline

from conftest import draw_admissible_triples


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def oracle_force_hessian_blocks(masses, config):
    """(V_tt, V_tp, V_pp) filled entry by entry into zero arrays."""
    _check_bodies(len(config.thetas))
    m = masses.masses
    n = len(config.thetas)
    st, ct, sp, cp, xs, ys = _sphere_tables(config.thetas, config.phis)
    zs = ct
    vtt = np.zeros((n, n))
    vtp = np.zeros((n, n))
    vpp = np.zeros((n, n))
    tth = [(ct[i] * cp[i], ct[i] * sp[i], -st[i]) for i in range(n)]
    tph = [(-ys[i], xs[i], 0.0) for i in range(n)]
    for i, j, cosd, sind in _pair_table(xs, ys, zs):
        s3 = sind * sind * sind
        f3 = 1.0 / s3
        f5 = 3.0 * cosd / (s3 * sind * sind)
        mm = m[i] * m[j]
        qi = (xs[i], ys[i], zs[i])
        qj = (xs[j], ys[j], zs[j])

        at_i = _dot(qj, tth[i])
        at_j = _dot(qi, tth[j])
        ap_i = _dot(qj, tph[i])
        ap_j = _dot(qi, tph[j])

        vtt[i, j] = mm * (f5 * at_i * at_j + f3 * _dot(tth[j], tth[i]))
        vtt[j, i] = vtt[i, j]
        vpp[i, j] = mm * (f5 * ap_i * ap_j + f3 * _dot(tph[j], tph[i]))
        vpp[j, i] = vpp[i, j]
        vtp[i, j] = mm * (f5 * at_i * ap_j + f3 * _dot(tph[j], tth[i]))
        vtp[j, i] = mm * (f5 * at_j * ap_i + f3 * _dot(tph[i], tth[j]))

        qi2_tt = (-xs[i], -ys[i], -zs[i])
        qj2_tt = (-xs[j], -ys[j], -zs[j])
        qi2_pp = (-xs[i], -ys[i], 0.0)
        qj2_pp = (-xs[j], -ys[j], 0.0)
        qi2_tp = (-ct[i] * sp[i], ct[i] * cp[i], 0.0)
        qj2_tp = (-ct[j] * sp[j], ct[j] * cp[j], 0.0)
        vtt[i, i] += mm * (f5 * at_i * at_i + f3 * _dot(qj, qi2_tt))
        vtt[j, j] += mm * (f5 * at_j * at_j + f3 * _dot(qi, qj2_tt))
        vpp[i, i] += mm * (f5 * ap_i * ap_i + f3 * _dot(qj, qi2_pp))
        vpp[j, j] += mm * (f5 * ap_j * ap_j + f3 * _dot(qi, qj2_pp))
        vtp[i, i] += mm * (f5 * at_i * ap_i + f3 * _dot(qj, qi2_tp))
        vtp[j, j] += mm * (f5 * at_j * ap_j + f3 * _dot(qi, qj2_tp))
    return vtt, vtp, vpp


def oracle_assemble_L_general(masses, state):
    """The 12-by-12 flow matrix filled into a zero array, V_tt added onto it."""
    m = masses.masses
    n = len(m)
    thetas = [float(t) for t in state.thetas]
    pphis = [float(p) for p in state.pphis]
    vtt, vtp, vpp = oracle_force_hessian_blocks(masses, state)
    sines = [math.sin(t) for t in thetas]
    if any(s <= POLAR_TOL for s in sines):
        raise _polar_error(sines)
    L = np.zeros((4 * n, 4 * n))
    for i in range(n):
        st = sines[i]
        ct = math.cos(thetas[i])
        s2 = st * st
        k = -2.0 * pphis[i] * ct / (m[i] * s2 * st)
        ncent = -pphis[i] * pphis[i] * (1.0 + 2.0 * ct * ct) / (m[i] * s2 * s2)
        L[i, 2 * n + i] = 1.0 / m[i]
        L[n + i, i] = k
        L[n + i, 3 * n + i] = 1.0 / (m[i] * s2)
        L[2 * n + i, 3 * n + i] = -k
        L[2 * n + i, i] = ncent
    L[2 * n : 3 * n, 0:n] += vtt
    L[2 * n : 3 * n, n : 2 * n] = vtp
    L[3 * n : 4 * n, 0:n] = vtp.T
    L[3 * n : 4 * n, n : 2 * n] = vpp
    return L


def states_of(rng, count):
    """(masses, ring, state) of drawn triples: the ring at rest and rotating
    at 0, 0.5 and 1.5 omega_crit, and perturbed off the equator."""
    for triple in draw_admissible_triples(rng, count):
        masses, _, ring, blocks = ring_pipeline(triple)
        mv = masses.mass_vector()
        wc = blocks._spectra.omega_critical
        yield mv, ring
        for f in (0.0, 0.5, 1.5):
            yield mv, relative_equilibrium(mv, ring, f * wc)
        x = rng.normal(0.0, 0.05, 12)
        yield mv, PhaseState(
            tuple(EQUATOR + x[0:3]),
            tuple(np.array(ring.phis) + x[3:6]),
            tuple(x[6:9]),
            tuple(wc * np.array(mv.masses) + x[9:12]),
        )


def signed_zero_states():
    """Masses and states whose longitudes and momenta hold exact and signed
    zeros, on the equator and off it, two bodies on one meridian at +0 and
    -0 among them; with masses of 1e-200 every pair's product underflows, so
    the blocks hold signed zeros too."""
    thetas_phis = [
        (thetas, phis)
        for thetas in ((EQUATOR,) * 3, (EQUATOR, 1.0, 2.0), (math.pi / 3, EQUATOR, 2.5))
        for phis in ((0.0, 2.0, 4.0), (1.0, -0.0, 3.5), (-0.0, 2.5, 4.4))
    ]
    thetas_phis += [((2.0, 1.0, EQUATOR), (0.0, -0.0, 3.0)), ((1.0, 2.0, 0.5), (-0.0, 0.0, 3.0))]
    for masses in ((0.25, 0.45, 0.3), (1e-200, 2e-200, 3e-200)):
        for thetas, phis in thetas_phis:
            for pphis in ((0.0, -0.0, 0.0), (-0.0, 0.3, -0.2), (0.1, -0.0, 0.2)):
                yield MassVector(masses), PhaseState(thetas, phis, (0.0, -0.0, 0.0), pphis)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_hessian_blocks_match_the_array_oracle(rng):
    cases = list(states_of(rng, 40)) + list(signed_zero_states())
    for mv, config in cases:
        got = force_hessian_blocks(mv, config)
        assert isinstance(got, tuple) and len(got) == 3
        for block, want in zip(got, oracle_force_hessian_blocks(mv, config)):
            assert isinstance(block, np.ndarray) and block.shape == (3, 3)
            assert_same_bytes(block, want)


def test_sphere_hessian_blocks_match_the_array_oracle(rng):
    mv = MassVector((0.8, 1.4, 0.7))
    for _ in range(200):
        config = SphereConfiguration(
            tuple(rng.uniform(0.2, math.pi - 0.2, 3)), tuple(rng.uniform(-7.0, 7.0, 3))
        )
        for block, want in zip(
            force_hessian_blocks(mv, config), oracle_force_hessian_blocks(mv, config)
        ):
            assert_same_bytes(block, want)


def test_general_linearization_matches_the_array_oracle(rng):
    cases = [(mv, state) for mv, state in states_of(rng, 40) if hasattr(state, "pphis")]
    cases += list(signed_zero_states())
    off_diagonal = ~np.eye(3, dtype=bool)
    negative_zeros = 0
    for mv, state in cases:
        assert_same_bytes(assemble_L_general(mv, state), oracle_assemble_L_general(mv, state))
        vtt = oracle_force_hessian_blocks(mv, state)[0]
        negative_zeros += int(np.count_nonzero(off_diagonal & (vtt == 0.0) & np.signbit(vtt)))
    # the cases add -0.0 entries of V_tt onto the zeros of the matrix
    assert negative_zeros > 0


@pytest.mark.parametrize("block", ["thetas", "phis", "pthetas", "pphis"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_general_linearization_rejects_a_non_finite_state(block, value, monkeypatch):
    # a PhaseState cannot hold the entry, so the state is duck-typed
    blocks = dict(
        thetas=(1.4, 1.6, 1.5), phis=(0.0, 2.1, 4.2), pthetas=(0.0, 0.1, -0.1),
        pphis=(0.2, 0.3, 0.1),
    )
    blocks[block] = blocks[block][:1] + (value,) + blocks[block][2:]
    state = types.SimpleNamespace(**blocks)

    def no_pairs(*args, **kwargs):
        raise AssertionError("a pair was read")

    monkeypatch.setattr("curvednbody.geometry._pair_table", no_pairs)
    with pytest.raises(InvalidConfiguration) as info:
        assemble_L_general(MassVector((1.0, 2.0, 3.0)), state)
    assert str(info.value) == "%s contains a non-finite entry" % block


@pytest.mark.parametrize("count", [2, 4])
def test_general_linearization_counts_each_block(count):
    # each block holds a count other than three
    values = (1.4, 1.6, 1.5, 1.3)[:count], (0.0, 2.1, 4.2, 5.0)[:count], (0.0,) * count
    state = types.SimpleNamespace(
        thetas=values[0], phis=values[1], pthetas=values[2], pphis=values[2]
    )
    with pytest.raises(InvalidConfiguration) as info:
        assemble_L_general(MassVector((1.0, 2.0, 3.0)), state)
    assert str(info.value) == "need exactly three bodies, got %d" % count
