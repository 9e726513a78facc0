import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvednbody import dynamics
from curvednbody.errors import (
    InconsistentPair,
    InvalidConfiguration,
    NonpositiveMass,
    SingularConfiguration,
    StepFailure,
)
from curvednbody.fixedpoints import admissibility_value, as_mass_triple, shape_from_masses
from curvednbody.geometry import SphereConfiguration, force_function
from curvednbody.integrators import MIDPOINT_TOL
from curvednbody.reduction import (
    JacobiConstants,
    ReducedState,
    _gap_gradient,
    _yoshida4_advance,
    angle_transform_matrix,
    hessian_alpha_beta,
    hessian_determinant_closed_form,
    integrate_reduced,
    lyapunov_certificate,
    momentum_transform_matrix,
    reduced_force_function,
    reduced_hamiltonian,
    rest_point_from_shape,
    to_jacobi,
)
from curvednbody.stability import ring_pipeline, vertical_mode

from conftest import draw_admissible_triples

TRIPLE = as_mass_triple((0.3, 0.4, 0.3))
MV = TRIPLE.mass_vector()


def gap_gradient(state, masses):
    """The partials of the reduced force function in (phi1, phi2)."""
    jc = JacobiConstants.from_masses(masses)
    return _gap_gradient(*masses.masses, jc.nu1, jc.nu2, state.phi1, state.phi2)


class TestTransforms:
    def test_pairing_identity(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            a = angle_transform_matrix(triple)
            b = momentum_transform_matrix(triple)
            assert np.max(np.abs(a.T @ b - np.eye(3))) < 1e-13

    def test_kinetic_diagonalization(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            jc = JacobiConstants.from_masses(triple)
            a = angle_transform_matrix(triple)
            target = np.diag([1.0 / jc.mbar, 1.0 / jc.nu3, 1.0 / jc.nu4])
            minv = np.diag([1.0 / m for m in triple])
            assert np.max(np.abs(a @ minv @ a.T - target)) < 1e-12

    def test_roundtrip(self, rng):
        for _ in range(50):
            phis = rng.uniform(0.0, 2 * math.pi, 3)
            ps = rng.normal(size=3)
            mean, state, ptot = to_jacobi(phis, ps, MV)
            a = angle_transform_matrix(MV)
            back_phis = np.linalg.solve(a, [mean, state.phi1, state.phi2])
            back_ps = a.T @ [state.momentum_level, state.p1, state.p2]
            assert np.max(np.abs(back_phis - phis)) < 1e-12
            assert np.max(np.abs(back_ps - ps)) < 1e-12

    def test_momentum_level_is_plain_sum(self, rng):
        phis = rng.uniform(0.0, 2 * math.pi, 3)
        ps = rng.normal(size=3)
        _, state, ptot = to_jacobi(phis, ps, MV)
        assert ptot == float(ps[0]) + float(ps[1]) + float(ps[2])
        assert state.momentum_level == ptot

    def test_separations_recover_gaps(self):
        shape = shape_from_masses(TRIPLE)
        phis = np.array([0.7, 0.7 + shape.alpha, 0.7 + shape.alpha + shape.beta])
        _, state, _ = to_jacobi(phis, np.zeros(3), MV)
        da, db, dc = state.separations(MV)
        assert da == pytest.approx(shape.alpha, abs=1e-14)
        assert db == pytest.approx(shape.beta, abs=1e-14)
        assert dc == pytest.approx(shape.alpha + shape.beta, abs=1e-14)

    def test_input_validation(self):
        with pytest.raises(InvalidConfiguration):
            to_jacobi((0.0, 1.0), (0.0, 0.0), MV)


BAD_MASSES = [(1.0, -1.0, 1.0), (1.0, -0.5, 1.0), (0.0, 1.0, 1.0), (1.0, math.nan, 1.0),
              (1.0, 1.0, math.inf)]
REDUCED_SITES = {
    "JacobiConstants.from_masses": JacobiConstants.from_masses,
    "to_jacobi": lambda m: to_jacobi((0.0, 2.0, 4.0), (0.0, 0.0, 0.0), m),
    "integrate_reduced": lambda m: integrate_reduced(
        m, ReducedState(2.0, 3.0, 0.0, 0.0), horizon=0.01
    ),
}


@pytest.mark.parametrize("site", REDUCED_SITES)
@pytest.mark.parametrize("masses", BAD_MASSES)
def test_reduced_chart_checks_masses_as_mass_vector(site, masses):
    with pytest.raises(NonpositiveMass, match="masses must be positive"):
        REDUCED_SITES[site](masses)


def test_singular_gap_has_one_message():
    jc = JacobiConstants.from_masses(MV)
    inv = (1.0 / jc.nu3, 1.0 / jc.nu4)
    state = ReducedState(math.pi, 2.0, 0.0, 0.0)
    calls = {
        "reduced_force_function": lambda: reduced_force_function(state, MV),
        "reduced_hamiltonian": lambda: reduced_hamiltonian(state, MV),
        "_gap_gradient": lambda: gap_gradient(state, MV),
        # a zero step leaves the first gap at pi for the first kick
        "_yoshida4_advance": lambda: _yoshida4_advance(*MV.masses, jc.nu1, jc.nu2, *inv, 0.0)(
            [math.pi, 2.0, 0.0, 0.0]
        ),
    }
    for call in calls.values():
        with pytest.raises(SingularConfiguration) as info:
            call()
        assert str(info.value) == "reduced separation 3.1415926535897931 is singular"


def spy_from_masses(monkeypatch):
    """The list that records the masses of every JacobiConstants.from_masses call."""
    calls = []
    from_masses = JacobiConstants.from_masses.__func__

    def spy(cls, masses):
        calls.append(masses)
        return from_masses(cls, masses)

    monkeypatch.setattr(JacobiConstants, "from_masses", classmethod(spy))
    return calls


def test_integrate_reduced_reads_the_masses_once(monkeypatch):
    start = flow_start(TRIPLE)
    calls = spy_from_masses(monkeypatch)
    for method in ("yoshida4", "midpoint"):
        calls.clear()
        run = integrate_reduced(MV, start, horizon=1.0, method=method)
        assert len(run.times) == 101
        assert len(calls) == 1


def test_to_jacobi_reads_the_masses_once(monkeypatch):
    calls = spy_from_masses(monkeypatch)
    to_jacobi((0.0, 2.0, 4.0), (0.1, -0.2, 0.3), MV)
    assert len(calls) == 1


OVERFLOWING = ReducedState(2.0, 3.0, 1e200, 0.0)
OVERFLOW_SITES = {
    "reduced_hamiltonian": lambda: reduced_hamiltonian(OVERFLOWING, (1, 1, 1)),
    "integrate_reduced": lambda: integrate_reduced((1, 1, 1), OVERFLOWING, 0.01),
    "integrate_reduced midpoint": lambda: integrate_reduced(
        (1, 1, 1), OVERFLOWING, 0.01, method="midpoint"
    ),
}


@pytest.mark.parametrize("site", OVERFLOW_SITES)
def test_overflowing_reduced_energy_is_typed(site):
    # the square of a momentum above about 1.3e154 overflows a float
    with pytest.raises(InvalidConfiguration) as info:
        OVERFLOW_SITES[site]()
    assert str(info.value) == "reduced kinetic energy overflows at momenta (1e+200, 0.0)"


@pytest.mark.parametrize(
    "entries",
    [(2.0, 3.0, math.inf, 0.0), (2.0, 3.0, math.nan, 0.0), (2.0, 3.0, 0.0, 0.0, math.nan)],
)
def test_non_finite_reduced_state_is_typed(entries):
    with pytest.raises(InvalidConfiguration, match="non-finite"):
        reduced_hamiltonian(ReducedState(*entries), (1, 1, 1))


class TestReducedPotential:
    def test_matches_full_force_function(self, rng):
        # dual route: the same configuration through the full equatorial
        # chart and through the reduced angles
        for _ in range(30):
            phis = rng.uniform(0.0, 2 * math.pi, 3)
            try:
                config = SphereConfiguration((math.pi / 2,) * 3, tuple(phis))
            except SingularConfiguration:
                continue
            full = force_function(MV, config)
            _, state, _ = to_jacobi(phis, np.zeros(3), MV)
            assert reduced_force_function(state, MV) == pytest.approx(full, abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(20):
            state = ReducedState(
                rng.uniform(0.5, 2.8), rng.uniform(0.5, 5.0), 0.0, 0.0
            )
            if min(abs(math.sin(d)) for d in state.separations(MV)) <= 1e-2:
                continue
            grad = gap_gradient(state, MV)
            for k in range(2):
                d = [0.0, 0.0]
                d[k] = eps
                plus = ReducedState(state.phi1 + d[0], state.phi2 + d[1], 0.0, 0.0)
                minus = ReducedState(state.phi1 - d[0], state.phi2 - d[1], 0.0, 0.0)
                fd = (
                    reduced_force_function(plus, MV)
                    - reduced_force_function(minus, MV)
                ) / (2 * eps)
                assert grad[k] == pytest.approx(fd, abs=1e-5 * max(1.0, abs(fd)))

    def test_singular_separation_raises(self):
        state = ReducedState(math.pi, 2.0, 0.0, 0.0)
        with pytest.raises(SingularConfiguration):
            reduced_force_function(state, MV)
        with pytest.raises(SingularConfiguration):
            gap_gradient(state, MV)


class TestRestPoint:
    def test_eom_vanishes(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            mv = as_mass_triple(triple).mass_vector()
            shape = shape_from_masses(triple)
            rest = rest_point_from_shape(shape, mv)
            assert (rest.p1, rest.p2) == (0.0, 0.0)
            assert np.max(np.abs(gap_gradient(rest, mv))) < 1e-11

    def test_momentum_level(self):
        shape = shape_from_masses(TRIPLE)
        rest = rest_point_from_shape(shape, MV, omega=1.4)
        assert rest.momentum_level == pytest.approx(1.4 * sum(MV.masses), rel=1e-15)

    def test_rest_energy_of_equal_masses(self):
        triple = as_mass_triple((1.0, 1.0, 1.0))
        shape = shape_from_masses(triple)
        rest = rest_point_from_shape(shape, triple.mass_vector())
        # at rest the reduced energy is minus the force function value
        assert reduced_hamiltonian(rest, triple.mass_vector()) == pytest.approx(
            math.sqrt(3.0) / 9.0, abs=1e-14
        )


class TestHessian:
    def test_matches_finite_differences(self):
        shape = shape_from_masses(TRIPLE)
        jc = JacobiConstants.from_masses(MV)
        hess = hessian_alpha_beta(shape, MV)

        def value(a, b):
            state = ReducedState(a, b + jc.nu1 * a, 0.0, 0.0)
            return reduced_force_function(state, MV)

        eps = 1e-5
        a0, b0 = shape.alpha, shape.beta
        fd = np.empty((2, 2))
        fd[0, 0] = (value(a0 + eps, b0) - 2 * value(a0, b0) + value(a0 - eps, b0)) / eps ** 2
        fd[1, 1] = (value(a0, b0 + eps) - 2 * value(a0, b0) + value(a0, b0 - eps)) / eps ** 2
        fd[0, 1] = (
            value(a0 + eps, b0 + eps)
            - value(a0 + eps, b0 - eps)
            - value(a0 - eps, b0 + eps)
            + value(a0 - eps, b0 - eps)
        ) / (4 * eps ** 2)
        fd[1, 0] = fd[0, 1]
        assert np.max(np.abs(hess - fd)) < 1e-5

    def test_equal_masses_frozen_values(self):
        triple = as_mass_triple((1.0, 1.0, 1.0))
        shape = shape_from_masses(triple)
        hess = hessian_alpha_beta(shape, triple)
        diag = -16.0 * math.sqrt(3.0) / 81.0
        off = -8.0 * math.sqrt(3.0) / 81.0
        assert hess[0, 0] == pytest.approx(diag, abs=1e-14)
        assert hess[1, 1] == pytest.approx(diag, abs=1e-14)
        assert hess[0, 1] == pytest.approx(off, abs=1e-14)
        eigs = np.linalg.eigvalsh(hess)
        assert eigs[0] == pytest.approx(-8.0 * math.sqrt(3.0) / 27.0, abs=1e-14)
        assert eigs[1] == pytest.approx(-8.0 * math.sqrt(3.0) / 81.0, abs=1e-14)
        assert np.linalg.det(0.5 * hess) == pytest.approx(16.0 / 729.0, abs=1e-14)

    def test_negative_definite_on_samples(self, rng):
        for triple in draw_admissible_triples(rng, 100):
            shape = shape_from_masses(triple)
            hess = hessian_alpha_beta(shape, triple)
            eigs = np.linalg.eigvalsh(hess)
            assert eigs[1] < 0.0
            det = float(np.linalg.det(0.5 * hess))
            closed = hessian_determinant_closed_form(shape, triple)
            assert det == pytest.approx(closed, rel=1e-9)

    def test_inconsistent_pair_rejected(self):
        shape = shape_from_masses(as_mass_triple((1.0, 1.0, 1.0)))
        with pytest.raises(InconsistentPair):
            hessian_alpha_beta(shape, TRIPLE)


class TestCertificate:
    def test_certified_on_samples(self, rng):
        for triple in draw_admissible_triples(rng, 50):
            cert = lyapunov_certificate(triple)
            assert cert.certified
            assert cert.trace < 0.0
            assert cert.eigenvalues[1] < 0.0
            assert cert.reduced_min_eigenvalue > 0.0

    def test_determinant_cross_check(self):
        cert = lyapunov_certificate((1.0, 1.0, 1.0))
        assert cert.determinant_half == pytest.approx(
            cert.determinant_closed_form, rel=1e-12
        )


def energy_drift_over_twenty(**kw):
    rest = rest_point_from_shape(shape_from_masses(TRIPLE), MV)
    start = ReducedState(
        rest.phi1 + 1e-2, rest.phi2 - 5e-3, 1e-3, -2e-3, rest.momentum_level
    )
    return integrate_reduced(MV, start, horizon=20.0, step=1e-3, **kw).energy_drift


class TestReducedIntegration:
    def test_energy_conserved(self):
        assert energy_drift_over_twenty() < 1e-12

    def test_energy_conserved_by_midpoint(self):
        assert energy_drift_over_twenty(method="midpoint") < 1e-12

    def test_small_perturbations_stay_near_rest(self):
        shape = shape_from_masses(TRIPLE)
        rest = rest_point_from_shape(shape, MV)
        start = ReducedState(
            rest.phi1 + 1e-3, rest.phi2 + 1e-3, -1e-3, 1e-3, rest.momentum_level
        )
        record = integrate_reduced(MV, start, horizon=20.0, step=1e-3)
        dev = np.max(np.abs(record.states - rest.as_vector()))
        assert dev < 1e-2

    def test_invalid_horizon(self):
        shape = shape_from_masses(TRIPLE)
        rest = rest_point_from_shape(shape, MV)
        with pytest.raises(InvalidConfiguration):
            integrate_reduced(MV, rest, horizon=0.0)


def flow_start(triple):
    """The rest point of the triple's ring with its first gap opened by 1e-2."""
    rest = rest_point_from_shape(shape_from_masses(triple), triple)
    return ReducedState(
        rest.phi1 + 1e-2, rest.phi2, rest.p1, rest.p2, rest.momentum_level
    )


class TestYoshida4:
    def test_default_is_yoshida4(self):
        start = flow_start(TRIPLE)
        default = integrate_reduced(MV, start, horizon=0.1)
        explicit = integrate_reduced(MV, start, horizon=0.1, method="yoshida4")
        assert np.array_equal(default.states, explicit.states)

    @pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (0.25, 0.45, 0.30)])
    def test_fourth_order(self, masses):
        triple = as_mass_triple(masses)
        start = flow_start(triple)

        def final(h):
            run = integrate_reduced(
                triple, start, horizon=4.0, step=h, record_stride=10**6
            )
            return run.states[-1]

        h = 0.04
        reference = final(h / 64)
        ratio = np.max(np.abs(final(h) - reference)) / np.max(
            np.abs(final(h / 2) - reference)
        )
        assert 12.0 < ratio < 20.0

    @pytest.mark.parametrize(
        "masses", [(1.0, 1.0, 1.0), (0.25, 0.45, 0.30), (0.2, 0.5, 0.3)]
    )
    def test_agrees_with_midpoint(self, masses):
        triple = as_mass_triple(masses)
        start = flow_start(triple)
        explicit = integrate_reduced(triple, start, horizon=1.0)
        implicit = integrate_reduced(triple, start, horizon=1.0, method="midpoint")
        assert np.array_equal(explicit.times, implicit.times)
        assert np.max(np.abs(explicit.states - implicit.states)) < 1e-7
        assert explicit.energy_drift < 1e-14

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidConfiguration):
            integrate_reduced(MV, flow_start(TRIPLE), horizon=1.0, method="euler")

    @pytest.mark.parametrize("method", ["yoshida4", "midpoint"])
    @pytest.mark.parametrize("gap", [0.0, 1e-7], ids=["singular", "below-floor"])
    def test_singular_state_is_a_step_failure(self, method, gap):
        rest = rest_point_from_shape(shape_from_masses(TRIPLE), MV)
        start = ReducedState(gap, rest.phi2, 0.0, 0.0, rest.momentum_level)
        with pytest.raises(StepFailure, match="singular") as info:
            integrate_reduced(MV, start, horizon=0.1, method=method)
        assert (info.value.time, info.value.step) == (0.0, 0)

    @pytest.mark.parametrize("method", ["yoshida4", "midpoint"])
    def test_step_across_a_collision_is_a_step_failure(self, method):
        # one step carries the first gap from 0.01 across zero; the explicit
        # step takes it, so only the separation check can stop the run
        equal = as_mass_triple((1.0, 1.0, 1.0))
        rest = rest_point_from_shape(shape_from_masses(equal), equal)
        start = ReducedState(0.01, rest.phi2, -0.5, 0.0, rest.momentum_level)
        with pytest.raises(StepFailure) as info:
            integrate_reduced(equal, start, horizon=0.1, step=1e-3, method=method)
        assert info.value.step >= 1
        assert info.value.time == info.value.step * 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_start_rejected(self, bad):
        rest = rest_point_from_shape(shape_from_masses(TRIPLE), MV)
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            start = ReducedState(rest.phi1, rest.phi2, bad, 0.0, rest.momentum_level)
            integrate_reduced(MV, start, horizon=0.1)

    def test_failed_step_names_its_time_and_index(self):
        # headlong into a collision: the implicit solve cannot follow
        rest = rest_point_from_shape(shape_from_masses(TRIPLE), MV)
        start = ReducedState(0.01, rest.phi2, -2.0, 0.0, rest.momentum_level)
        with pytest.raises(StepFailure) as info:
            integrate_reduced(MV, start, horizon=0.1, method="midpoint")
        assert info.value.step >= 1
        assert info.value.time == info.value.step * 1e-3


@st.composite
def interior_triples(draw):
    """Unit-sum triples whose admissibility value is at most -0.01; equal
    masses give -0.037, and the region's edge 0."""
    m1 = draw(st.floats(0.05, 0.9))
    m2 = draw(st.floats(0.05, 0.95)) * (1.0 - m1)
    m3 = 1.0 - m1 - m2
    assume(m3 > 0.0 and admissibility_value(m1, m2, m3) <= -0.01)
    return m1, m2, m3


class TestOneFlowInTwoCharts:
    """The implicit midpoint rule commutes with linear changes of
    coordinates, and the mean angle is cyclic.  So the full 12-float midpoint
    run, started on the equator and mapped through ``to_jacobi``, is the
    reduced midpoint run up to the solver tolerance.  It is run above the
    critical rate, where the equator is stable and the run stays on it."""

    def check(self, masses):
        triple, _, ring, blocks = ring_pipeline(masses)
        omega = 1.5 * math.sqrt(vertical_mode(blocks)[0])
        x0 = dynamics.relative_equilibrium(blocks.masses, ring, omega).as_vector()
        x0[3:6] += (0.0, 1e-3, -5e-4)
        x0[9:12] += (2e-4, -1e-4, 5e-5)
        h, nsteps = 1e-3, 2000
        full = dynamics.integrate(
            blocks.masses, x0, horizon=nsteps * h, step=h, omega=omega, record_stride=100
        )
        start = to_jacobi(x0[3:6], x0[9:12], triple)[1]
        reduced = integrate_reduced(triple, start, nsteps * h, h, 100, method="midpoint")
        mapped = [to_jacobi(x[3:6], x[9:12], triple)[1].as_vector() for x in full.states]

        # The linearized reduced flow, and its midpoint step, keep the
        # quadratic reduced energy E = blockdiag(K, M^-1) at the rest point,
        # so an error grows by at most kappa = sqrt(cond E).  A solve stops
        # at an update of at most MIDPOINT_TOL and contracts by
        # L = h max(omega, omega_max) / 2, omega_max the fastest reduced
        # frequency, so each step leaves e = kappa MIDPOINT_TOL L / (1 - L)
        # in an entry, plus the rounding u |x|.  The full run's entries reach
        # the reduced chart through rows of max-norm at most 2, so each of
        # the N + 1 steps and maps adds at most 3 e per entry, 6 e in the
        # 2-norm, and the charts agree to 6 kappa (N + 1) e.
        jc = JacobiConstants.from_masses(triple)
        gaps = np.array([[1.0, 0.0], [-jc.nu1, 1.0]])
        k = -(gaps.T @ lyapunov_certificate(triple).hessian @ gaps)
        energy = [*np.linalg.eigvalsh(k), 1.0 / jc.nu3, 1.0 / jc.nu4]
        kappa = math.sqrt(max(energy) / min(energy))
        scale = np.diag([jc.nu3 ** -0.5, jc.nu4 ** -0.5])
        omega_max = math.sqrt(np.linalg.eigvalsh(scale @ k @ scale)[-1])
        contraction = h * max(omega, omega_max) / 2.0
        assert contraction < 0.5
        rounding = 2.0 ** -53 * np.max(np.abs(full.states[:, 3:]))
        e = kappa * MIDPOINT_TOL * contraction / (1.0 - contraction) + rounding
        assert np.max(np.abs(np.array(mapped) - reduced.states)) <= 6.0 * kappa * (nsteps + 1) * e

    @pytest.mark.parametrize(
        "masses", [(1.0 / 3, 1.0 / 3, 1.0 / 3), (0.25, 0.45, 0.3), (0.0742, 0.8812, 0.0446)]
    )
    def test_named_triples(self, masses):
        self.check(masses)

    @settings(derandomize=True, database=None, deadline=None, max_examples=20)
    @given(interior_triples())
    def test_interior_triples(self, masses):
        self.check(masses)
