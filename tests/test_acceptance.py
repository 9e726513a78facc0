"""Acceptance suite: one test per advertised capability, at its tolerance.

Each test prints an ``ACCEPTANCE n: PASS`` line when its assertions hold, so
``pytest -v`` yields one verdict line per capability.
"""

import math
import time

import numpy as np
import pytest
from scipy import ndimage

from curvednbody import dynamics, fixedpoints, geometry, reduction, stability
from curvednbody.errors import NoGrowthWindow

EQUAL = fixedpoints.as_mass_triple((1.0, 1.0, 1.0))
LAMBDA1_EQUAL = 8.0 * math.sqrt(3.0) / 9.0


def ring_pipeline(triple):
    shape = fixedpoints.shape_from_masses(triple)
    ring = fixedpoints.ring_from_shape(shape)
    return shape, ring


def test_criterion_01_admissible_region_map(triples_1000):
    start = time.perf_counter()
    res = 512
    centers = (np.arange(res) + 0.5) / res
    m1 = centers[:, None]
    m2 = centers[None, :]
    values = fixedpoints.admissibility_value(m1, m2, 1.0 - m1 - m2)
    valid = (m1 + m2) < 1.0
    inside = valid & (values < 0.0)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "scan took %.2fs" % elapsed

    center = fixedpoints.admissibility_value(1 / 3, 1 / 3, 1 / 3)
    assert abs(center - (-1.0 / 27.0)) < 1e-14
    assert fixedpoints.is_admissible(1 / 3, 1 / 3, 1 / 3).admissible
    assert not fixedpoints.is_admissible(0.5, 0.49, 0.01).admissible

    # the region's thin cusps run along the grid diagonal, so the discrete
    # connectivity check must allow diagonal adjacency
    _, components = ndimage.label(inside, structure=np.ones((3, 3)))
    assert components == 1
    print("ACCEPTANCE 1: PASS")


def test_criterion_02_mass_shape_roundtrip(triples_1000):
    worst = 0.0
    for raw in triples_1000:
        triple = fixedpoints.as_mass_triple(raw)
        shape = fixedpoints.shape_from_masses(triple)
        back = fixedpoints.masses_from_shape(shape)
        worst = max(
            worst,
            max(abs(a - b) for a, b in zip(back.as_tuple(), triple.as_tuple())),
        )
    assert worst < 1e-10, "worst roundtrip error %g" % worst
    print("ACCEPTANCE 2: PASS")


def test_criterion_03_fixed_point_residuals(triples_1000):
    worst = 0.0
    for raw in triples_1000[:200]:
        triple = fixedpoints.as_mass_triple(raw)
        _, ring = ring_pipeline(triple)
        residual = fixedpoints.fixed_point_residual(triple.mass_vector(), ring)
        worst = max(worst, float(np.max(np.abs(residual))))
    assert worst < 1e-11, "worst constructed residual %g" % worst

    # a perturbed ring must not pass as a fixed point
    _, ring = ring_pipeline(EQUAL)
    phis = list(ring.longitudes)
    phis[1] += 1e-3
    perturbed = fixedpoints.fixed_point_residual(
        EQUAL.mass_vector(), geometry.RingConfiguration(tuple(phis))
    )
    assert float(np.max(np.abs(perturbed))) > 1e-6
    print("ACCEPTANCE 3: PASS")


def test_criterion_04_energy_certificate_and_nonlinear_confinement(triples_1000):
    for raw in triples_1000:
        triple = fixedpoints.as_mass_triple(raw)
        shape = fixedpoints.shape_from_masses(triple)
        hess = reduction.hessian_alpha_beta(shape, triple)
        assert float(np.trace(hess)) < 0.0
        eigs = np.linalg.eigvalsh(hess)
        assert eigs[1] < 0.0
        det = float(np.linalg.det(0.5 * hess))
        closed = reduction.hessian_determinant_closed_form(shape, triple)
        assert abs(det - closed) < 1e-10 * abs(closed)

    rng = np.random.default_rng(4)
    for raw in ((1.0, 1.0, 1.0), (0.25, 0.45, 0.30)):
        triple = fixedpoints.as_mass_triple(raw)
        shape = fixedpoints.shape_from_masses(triple)
        rest = reduction.rest_point_from_shape(shape, triple)
        start = reduction.ReducedState.from_vector(
            rest.as_vector() + 1e-3 * rng.uniform(-1.0, 1.0, 4)
        )
        t0 = time.perf_counter()
        traj = reduction.integrate_reduced(triple, start, horizon=200.0, step=1e-3)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, "reduced run took %.1fs" % elapsed
        deviation = float(np.max(np.abs(traj.states - rest.as_vector())))
        assert deviation < 1e-2, "trajectory wandered to %g" % deviation
    print("ACCEPTANCE 4: PASS")


def test_criterion_05_null_structure(triples_1000):
    worst = 0.0
    for raw in triples_1000:
        triple = fixedpoints.as_mass_triple(raw)
        _, ring = ring_pipeline(triple)
        blocks = stability.assemble_blocks(triple.mass_vector(), ring)
        checks = stability.null_structure_check(blocks)
        worst = max(worst, max(checks.values()))
    assert worst < 1e-11, "worst null-vector residual %g" % worst
    print("ACCEPTANCE 5: PASS")


def test_criterion_06_spectral_patterns(triples_1000):
    _, ring = ring_pipeline(EQUAL)
    blocks = stability.assemble_blocks(EQUAL.mass_vector(), ring)
    rep = stability.spectral_analysis(blocks)
    assert abs(rep.lambda1 - LAMBDA1_EQUAL) < 1e-10
    vert = sorted(rep.vertical_eigenvalues)
    assert abs(vert[0]) < 1e-10 and abs(vert[1]) < 1e-10
    tang = sorted(rep.tangential_eigenvalues)
    assert abs(tang[2]) < 1e-10
    assert abs(tang[0] + LAMBDA1_EQUAL) < 1e-10
    assert abs(tang[1] + LAMBDA1_EQUAL) < 1e-10

    for raw in triples_1000:
        triple = fixedpoints.as_mass_triple(raw)
        shape, ring = ring_pipeline(triple)
        blocks = stability.assemble_blocks(triple.mass_vector(), ring)
        rep = stability.spectral_analysis(blocks)
        assert rep.lambda1 > 0.0
        closed = stability.lambda1_closed_form(shape, triple)
        m = np.array(triple.as_tuple())
        trace_route = float(np.trace(blocks.vertical @ np.diag(1.0 / m)))
        assert abs(closed - rep.lambda1) < 1e-10 * abs(closed)
        assert abs(closed - trace_route) < 1e-10 * abs(closed)
    print("ACCEPTANCE 6: PASS")


def test_criterion_07_verdict_thresholds():
    shape, ring = ring_pipeline(EQUAL)
    blocks = stability.assemble_blocks(EQUAL.mass_vector(), ring)
    crit = stability.omega_critical(EQUAL)
    closed = math.sqrt(stability.lambda1_closed_form(shape, EQUAL))
    assert abs(crit - closed) < 1e-10

    assert stability.spectral_analysis(blocks, 1.2).verdict == stability.VERDICT_UNSTABLE
    assert stability.spectral_analysis(blocks, 1.3).verdict == stability.VERDICT_STABLE
    assert stability.spectral_analysis(blocks, crit).verdict == stability.VERDICT_BOUNDARY
    assert stability.spectral_analysis(blocks, 0.0).verdict == stability.VERDICT_FIXED_POINT

    split = stability.invariant_subspaces(blocks, 1.3)
    max_real = max(abs(z.real) for z in split.reduced_spectrum)
    assert max_real < 1e-9, "reduced spectrum leaks to the real axis: %g" % max_real
    print("ACCEPTANCE 7: PASS")


def test_criterion_08_growth_rates():
    t0 = time.perf_counter()
    fit = dynamics.growth_rate_experiment(EQUAL, 0.0, horizon=200.0)
    expected = math.sqrt(LAMBDA1_EQUAL)
    assert abs(fit.rate - expected) / expected < 0.05
    assert time.perf_counter() - t0 < 120.0

    t0 = time.perf_counter()
    fit = dynamics.growth_rate_experiment(EQUAL, 1.2, horizon=200.0)
    expected = math.sqrt(LAMBDA1_EQUAL - 1.44)
    assert abs(fit.rate - expected) / expected < 0.10
    assert time.perf_counter() - t0 < 120.0

    t0 = time.perf_counter()
    with pytest.raises(NoGrowthWindow):
        dynamics.growth_rate_experiment(EQUAL, 1.3, amplitude=1e-6, horizon=200.0)
    assert time.perf_counter() - t0 < 120.0
    print("ACCEPTANCE 8: PASS")


def test_criterion_09_conservation_and_linearization():
    mv = EQUAL.mass_vector()
    _, ring = ring_pipeline(EQUAL)
    rng = np.random.default_rng(9)
    rest = dynamics.relative_equilibrium(mv, ring, 1.3).as_vector()

    record = dynamics.integrate(
        mv,
        rest + 1e-2 * rng.uniform(-1.0, 1.0, 12),
        horizon=100.0,
        step=1e-3,
        omega=1.3,
    )
    assert record.energy_drift < 1e-9, "energy drift %g" % record.energy_drift
    assert record.momentum_drift < 1e-12, "momentum drift %g" % record.momentum_drift

    equatorial = rest.copy()
    equatorial[3:6] += 1e-2 * rng.uniform(-1.0, 1.0, 3)
    equatorial[9:12] += 1e-2 * rng.uniform(-1.0, 1.0, 3)
    record = dynamics.integrate(mv, equatorial, horizon=100.0, step=1e-3, omega=1.3)
    assert record.max_equator_deviation < 1e-9

    field = dynamics.make_field(mv, 0.0)
    eps = 1e-6
    for _ in range(100):
        while True:
            try:
                state = dynamics.PhaseState.from_vector(
                    np.concatenate(
                        [
                            math.pi / 2 + rng.uniform(-0.3, 0.3, 3),
                            np.array([0.0, 2.1, 4.2]) + rng.uniform(-0.3, 0.3, 3),
                            rng.normal(0.0, 0.3, 6),
                        ]
                    )
                )
                break
            except Exception:
                continue
        exact = stability.assemble_L_general(mv, state)
        x = state.as_vector()
        fd = np.empty((12, 12))
        for k in range(12):
            d = np.zeros(12)
            d[k] = eps
            fd[:, k] = (field(x + d) - field(x - d)) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(exact))))
        assert float(np.max(np.abs(fd - exact))) / scale < 1e-5
    print("ACCEPTANCE 9: PASS")


def test_criterion_10_hemisphere_exclusion():
    rng = np.random.default_rng(10)
    checked = 0
    min_cos = math.cos(0.05)
    while checked < 200:
        thetas = rng.uniform(0.1, math.pi / 2 - 0.1, 3)
        phis = rng.uniform(0.0, 2 * math.pi, 3)
        points = np.column_stack(
            [
                np.sin(thetas) * np.cos(phis),
                np.sin(thetas) * np.sin(phis),
                np.cos(thetas),
            ]
        )
        dots = points @ points.T
        if max(dots[0, 1], dots[0, 2], dots[1, 2]) > min_cos:
            continue
        config = geometry.SphereConfiguration(tuple(thetas), tuple(phis))
        masses = geometry.MassVector(tuple(rng.uniform(0.2, 1.0, 3)))
        gradient = geometry.force_gradient(masses, config)
        assert float(np.max(np.abs(gradient))) > 1e-8
        checked += 1
    print("ACCEPTANCE 10: PASS")
