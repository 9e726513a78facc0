import math
from fractions import Fraction

import numpy as np
import pytest

from curvednbody.dynamics import (
    GrowthFit,
    PhaseState,
    growth_rate_experiment,
    hamiltonian,
    integrate,
    make_field,
    relative_equilibrium,
)
from curvednbody.errors import (
    DegenerateSpectrum,
    InvalidConfiguration,
    NoGrowthWindow,
    PolarSingularity,
    SingularConfiguration,
    StepFailure,
)
from curvednbody.fixedpoints import as_mass_triple, ring_from_shape, shape_from_masses
from curvednbody.geometry import (
    MassVector,
    SphereConfiguration,
    force_function,
    force_gradient,
)
from curvednbody import dynamics, integrators, reduction
from curvednbody.integrators import midpoint_step
from curvednbody.reduction import ReducedState, integrate_reduced, rest_point_from_shape
from curvednbody.stability import (
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    LinearizationBlocks,
    assemble_blocks,
    rate_square,
    rate_verdict,
    ring_pipeline,
    spectral_analysis,
    vertical_mode,
)

from conftest import (
    draw_admissible_triples,
    reduced_midpoint,
    seeded_advance,
    singular_pair,
    unchecked,
)

EQUAL = as_mass_triple((1.0, 1.0, 1.0))
MV = EQUAL.mass_vector()
RING = ring_from_shape(shape_from_masses(EQUAL))
LAMBDA1_EQUAL = 8.0 * math.sqrt(3.0) / 9.0

# equatorial bodies 1 and 2 close in on each other; body 3 rests off the equator
CLOSING_PAIR = PhaseState(
    (math.pi / 2, math.pi / 2, 0.6), (0.0, 0.5, 2.0), (0.0,) * 3, (0.4, -0.4, 0.0)
)


def random_state(rng, spread=0.3):
    while True:
        try:
            return PhaseState.from_vector(
                np.concatenate(
                    [
                        math.pi / 2 + rng.uniform(-spread, spread, 3),
                        np.array([0.0, 2.1, 4.2]) + rng.uniform(-spread, spread, 3),
                        rng.normal(0.0, 0.3, 6),
                    ]
                )
            )
        except SingularConfiguration:
            continue


class TestPhaseState:
    def test_vector_roundtrip(self):
        state = PhaseState((1.0, 1.5, 2.0), (0.2, 7.0, 4.0), (0.1, -0.1, 0.2),
                           (0.3, 0.4, -0.5))
        back = PhaseState.from_vector(state.as_vector())
        assert back == state
        # longitudes are not reduced, so winding survives
        assert back.phis[1] == 7.0

    def test_polar_guard(self):
        with pytest.raises(PolarSingularity):
            PhaseState((1e-10, 1.0, 2.0), (0.0, 1.0, 2.0), (0.0,) * 3, (0.0,) * 3)

    def test_singular_pair_rejected(self):
        with pytest.raises(SingularConfiguration, match=singular_pair(1, 2, "collision")):
            PhaseState((1.0, 1.0, 2.0), (2.0, 2.0, 4.0), (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(
            SingularConfiguration, match=singular_pair(1, 2, "antipodal alignment")
        ):
            PhaseState(
                (math.pi / 2, math.pi / 2, 1.0), (0.0, math.pi, 2.0), (0.0,) * 3, (0.0,) * 3
            )

    def test_size_checks(self):
        with pytest.raises(InvalidConfiguration):
            PhaseState((1.0,), (1.0,), (0.0,), (0.0,))
        with pytest.raises(InvalidConfiguration):
            PhaseState((1.0, 1.0, 2.0), (1.0, 2.0), (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(InvalidConfiguration):
            PhaseState((1.0, math.inf, 2.0), (0.0, 1.0, 2.0), (0.0,) * 3, (0.0,) * 3)
        with pytest.raises(InvalidConfiguration):
            PhaseState.from_vector(np.zeros(10))


def drawn_rings():
    """(masses, ring, omega_crit) of 16 drawn triples."""
    out = []
    for raw in draw_admissible_triples(np.random.default_rng(36), 16):
        triple, _, ring, blocks = ring_pipeline(raw)
        out.append((triple.mass_vector(), ring, spectral_analysis(blocks).omega_critical))
    return out


class TestRelativeEquilibrium:
    """A RingConfiguration's angles are taken as its construction checked
    them; only the momenta m * omega are checked again."""

    @pytest.mark.parametrize("rate", [0.0, 0.5, 1.5, np.float64(0.7), -0.8], ids=repr)
    def test_bits_of_the_full_check(self, rate):
        for mv, ring, wc in drawn_rings():
            omega = rate * wc
            state = relative_equilibrium(mv, ring, omega)
            full = PhaseState(ring.thetas, ring.phis, (0.0,) * 3,
                              tuple(m * omega for m in mv.masses))
            assert type(state) is PhaseState
            assert list(vars(state)) == list(vars(full))
            for name, want in vars(full).items():
                got = getattr(state, name)
                assert [type(v) for v in got] == [float] * 3
                assert [v.hex() for v in got] == [v.hex() for v in want]
            assert state == full and hash(state) == hash(full)
            assert repr(state) == repr(full)

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf, 1e308], ids=repr)
    def test_non_finite_momenta_still_raise(self, omega):
        heavy = MassVector((2.0, 3.0, 4.0))  # 1e308 overflows on its masses
        with pytest.raises(InvalidConfiguration) as info:
            relative_equilibrium(heavy, RING, omega)
        assert str(info.value) == "pphis contains a non-finite entry"

    def test_any_other_configuration_gets_the_full_check(self):
        sphere = SphereConfiguration(RING.thetas, RING.phis)
        assert relative_equilibrium(MV, sphere, 0.4) == relative_equilibrium(MV, RING, 0.4)
        polar = SphereConfiguration((1e-12, 1.0, 2.0), (0.0, 1.0, 2.0))
        with pytest.raises(PolarSingularity):
            relative_equilibrium(MV, polar, 0.4)


# equatorial bodies 1 and 2 at one point, and at opposite points
SINGULAR_STATES = [
    ("collision", [math.pi / 2, math.pi / 2, 1.0, 0.0, 0.0, 2.0] + [0.0] * 6),
    ("antipodal alignment", [math.pi / 2, math.pi / 2, 1.0, 0.0, math.pi, 2.0] + [0.0] * 6),
]


class TestField:
    @pytest.mark.parametrize("kind, x", SINGULAR_STATES)
    def test_singular_pair_raises(self, kind, x):
        with pytest.raises(SingularConfiguration, match=singular_pair(1, 2, kind)):
            make_field(MV, 0.3)(np.array(x))

    def test_momentum_rows_at_rest_are_the_force_gradient(self, rng):
        # the field and force_gradient share one definition of the gradient
        for _ in range(5):
            state = random_state(rng)
            phis = tuple(p % (2 * math.pi) for p in state.phis)
            x = np.array(state.thetas + phis + (0.0,) * 6)
            config = SphereConfiguration(state.thetas, phis)
            assert np.array_equal(make_field(MV, 0.0)(x)[6:], force_gradient(MV, config))

    def test_matches_hamiltonian_gradient(self, rng):
        # the field must be the symplectic gradient of the energy
        field = make_field(MV, 0.0)
        eps = 1e-6
        for _ in range(5):
            x = random_state(rng).as_vector()
            rhs = field(x)
            for k in range(12):
                d = np.zeros(12)
                d[k] = eps
                fd = (hamiltonian(MV, x + d) - hamiltonian(MV, x - d)) / (2 * eps)
                partner = (k + 6) % 12
                expected = fd if k >= 6 else -fd
                assert rhs[partner] == pytest.approx(
                    expected, abs=1e-6 * max(1.0, abs(expected))
                )

    def test_rotating_frame_shifts_longitude_rate(self, rng):
        x = random_state(rng).as_vector()
        inertial = make_field(MV, 0.0)(x)
        rotating = make_field(MV, 0.9)(x)
        diff = inertial - rotating
        assert np.max(np.abs(diff[3:6] - 0.9)) < 1e-15
        diff[3:6] = 0.0
        assert np.max(np.abs(diff)) == 0.0

    def test_vanishes_at_relative_equilibrium(self):
        state = relative_equilibrium(MV, RING, 1.1)
        rhs = make_field(MV, 1.1)(state.as_vector())
        assert np.max(np.abs(rhs)) < 1e-14

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("shape", ["4n-1", "4n+1", "2x2n"])
    def test_wrong_state_shape_rejected(self, n, shape):
        # sized from the state of n bodies; a four-body field once gave 16
        # derivatives of a 17-vector
        field = make_field(MV, 0.3)
        dims = {"4n-1": (4 * n - 1,), "4n+1": (4 * n + 1,), "2x2n": (2, 2 * n)}
        with pytest.raises(InvalidConfiguration, match="state length"):
            field(np.full(dims[shape], 0.5))


class TestHamiltonian:
    @pytest.mark.parametrize("kind, x", SINGULAR_STATES)
    def test_singular_pair_raises(self, kind, x):
        with pytest.raises(SingularConfiguration, match=singular_pair(1, 2, kind)):
            hamiltonian(MV, np.array(x))

    def test_list_state_read_as_is(self, rng):
        x = random_state(rng).as_vector()
        value = hamiltonian(MV, x.tolist(), 0.4)
        assert value.hex() == hamiltonian(MV, x, 0.4).hex()
        assert value.hex() == hamiltonian(MV, PhaseState.from_vector(x), 0.4).hex()
        for bad in (x.tolist()[:-1], x.tolist() + [0.0], x.reshape(3, 4)):
            with pytest.raises(InvalidConfiguration):
                hamiltonian(MV, bad)

    def test_at_rest_is_minus_the_force_function(self, rng):
        for _ in range(5):
            state = random_state(rng)
            phis = tuple(p % (2 * math.pi) for p in state.phis)
            rest = PhaseState(state.thetas, phis, (0.0,) * 3, (0.0,) * 3)
            config = SphereConfiguration(rest.thetas, rest.phis)
            assert hamiltonian(MV, rest) == -force_function(MV, config)

    def test_matches_energy_pieces(self, rng):
        # kinetic energy p_theta^2 / 2m + p_phi^2 / (2m sin^2 theta), summed
        state = random_state(rng)
        m, th, pt, pf = MV.masses, state.thetas, state.pthetas, state.pphis
        kinetic = sum(
            pt[i] ** 2 / (2.0 * m[i]) + pf[i] ** 2 / (2.0 * m[i] * math.sin(th[i]) ** 2)
            for i in range(3)
        )
        config = SphereConfiguration(state.thetas, state.phis)
        assert hamiltonian(MV, state) + force_function(MV, config) == pytest.approx(
            kinetic, rel=1e-13
        )

    def test_polar_guard(self):
        with pytest.raises(PolarSingularity, match="body 1 at the polar guard"):
            hamiltonian(MV, [1e-12, 1.0, 2.0, 0.0, 2.0, 4.0] + [0.0] * 6)

    def test_rate_is_checked_and_taken_as_its_float(self):
        # the energy once returned nan for a nan rate, -inf for +inf and
        # -5e199 for 1e200, and an np.float64 for an np.float64 rate
        triple = as_mass_triple((0.25, 0.45, 0.3))
        mv = triple.mass_vector()
        state = relative_equilibrium(mv, ring_from_shape(shape_from_masses(triple)), 0.5)
        for omega in (math.nan, math.inf, -math.inf, 1e200):
            with pytest.raises(InvalidConfiguration, match="rotation rate"):
                hamiltonian(mv, state, omega)
        value = hamiltonian(mv, state, np.float64(0.5))
        assert type(value) is float
        assert value.hex() == hamiltonian(mv, state, 0.5).hex()

    def test_rotating_frame_subtracts_momentum(self, rng):
        state = random_state(rng)
        inertial = hamiltonian(MV, state)
        rotating = hamiltonian(MV, state, omega=0.7)
        assert rotating == pytest.approx(
            inertial - 0.7 * sum(state.pphis), rel=1e-13
        )


class TestIntegrate:
    def test_tracks_relative_equilibrium(self):
        state = relative_equilibrium(MV, RING, 1.3)
        record = integrate(MV, state, horizon=5.0, step=1e-3, omega=1.3)
        assert np.max(np.abs(record.states[-1] - state.as_vector())) < 1e-12
        assert record.max_equator_deviation < 1e-12

    def test_conservation_on_perturbed_run(self, rng):
        rest = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 = rest + 1e-2 * rng.uniform(-1.0, 1.0, 12)
        record = integrate(MV, x0, horizon=10.0, step=1e-3, omega=1.3)
        assert record.energy_drift < 5e-11
        assert record.momentum_drift < 1e-13

    @pytest.mark.parametrize("method", ["midpoint", "rk45"])
    def test_record_keeps_each_sample_monitor(self, rng, method):
        rest = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 = rest + 1e-2 * rng.uniform(-1.0, 1.0, 12)
        record = integrate(MV, x0, horizon=0.5, step=1e-3, omega=1.3, method=method)
        energies = [hamiltonian(MV, x, 1.3) for x in record.states]
        momenta = [float(np.sum(x[9:])) for x in record.states]
        assert record.energies.tolist() == energies
        assert record.momenta.tolist() == momenta
        assert record.energy_drift == max(abs(e - energies[0]) for e in energies)
        assert record.momentum_drift == max(abs(j - momenta[0]) for j in momenta)

    def test_midpoint_and_rk45_agree(self, rng):
        rest = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 = rest + 1e-2 * rng.uniform(-1.0, 1.0, 12)
        mid = integrate(MV, x0, horizon=5.0, step=1e-3, omega=1.3)
        rk = integrate(MV, x0, horizon=5.0, step=1e-3, omega=1.3, method="rk45")
        assert np.array_equal(mid.times, rk.times)
        assert np.max(np.abs(mid.states - rk.states)) < 1e-6

    def test_frame_consistency(self, rng):
        # integrating in the rotating frame then unwinding the rotation
        # reproduces the inertial trajectory
        om = 1.3
        rest = relative_equilibrium(MV, RING, om).as_vector()
        x0 = rest + 1e-3 * rng.uniform(-1.0, 1.0, 12)
        rot = integrate(MV, x0, horizon=5.0, step=1e-3, omega=om)
        inert = integrate(MV, x0, horizon=5.0, step=1e-3, omega=0.0)
        unwound = rot.states.copy()
        unwound[:, 3:6] += om * rot.times[:, None]
        assert np.max(np.abs(unwound - inert.states)) < 1e-6

    def test_rotational_equivariance(self, rng):
        shift = 0.8
        rest = relative_equilibrium(MV, RING, 0.0).as_vector()
        x0 = rest + 1e-3 * rng.uniform(-1.0, 1.0, 12)
        x0_shifted = x0.copy()
        x0_shifted[3:6] += shift
        base = integrate(MV, x0, horizon=5.0, step=1e-3)
        moved = integrate(MV, x0_shifted, horizon=5.0, step=1e-3)
        expected = base.states.copy()
        expected[:, 3:6] += shift
        assert np.max(np.abs(moved.states - expected)) < 1e-6

    def test_equator_is_invariant(self, rng):
        rest = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 = rest.copy()
        x0[3:6] += 1e-2 * rng.uniform(-1.0, 1.0, 3)
        x0[9:12] += 1e-2 * rng.uniform(-1.0, 1.0, 3)
        record = integrate(MV, x0, horizon=10.0, step=1e-3, omega=1.3)
        assert record.max_equator_deviation < 1e-11

    def test_collision_aborts_with_step_failure(self):
        with pytest.raises(StepFailure) as info:
            integrate(MassVector((1.0,) * 3), CLOSING_PAIR, horizon=5.0, step=1e-3)
        assert info.value.time is not None

    def test_separation_floor_aborts_with_step_failure(self):
        # a pair 1e-7 apart is a valid state but sits below the integration floor
        state = PhaseState(
            (math.pi / 2, math.pi / 2, 1.0), (0.0, 1e-7, 2.0), (0.0,) * 3, (0.0,) * 3
        )
        with pytest.raises(StepFailure, match=singular_pair(1, 2, "collision")) as info:
            integrate(MV, state, horizon=1e-2, step=1e-3)
        assert info.value.time == 0.0

    def test_midpoint_step_serves_numpy_callers(self):
        field = make_field(MV, 1.3)
        x = relative_equilibrium(MV, RING, 1.3).as_vector()
        x[0:3] += 1e-3
        y = midpoint_step(field, x, 1e-3)
        assert isinstance(y, np.ndarray) and y.shape == x.shape
        kernel = dynamics._field_kernel(MV, 1.3)
        assert y.tolist() == midpoint_step(kernel, x.tolist(), 1e-3)
        guess = x + 1e-6
        y = midpoint_step(field, x, 1e-3, guess)
        assert y.tolist() == midpoint_step(kernel, x.tolist(), 1e-3, guess.tolist())

    @pytest.mark.parametrize("n", [4, 12])
    def test_midpoint_step_rejects_a_guess_of_another_length(self, n):
        # the list loop would zip the state with a short guess and drop entries
        message = "guess has 3 entries, the state %d" % n
        with pytest.raises(InvalidConfiguration, match=message):
            midpoint_step(lambda v: v, [0.5] * n, 1e-3, [0.5] * 3)

    def test_midpoint_step_rejects_a_non_finite_iterate(self):
        # the update of the finite entry converges, the other entry is nan
        with pytest.raises(StepFailure):
            midpoint_step(lambda v: [0.0, math.nan], [0.0, 1.0], 1e-3)

    def test_one_midpoint_step_for_every_flow(self):
        # the full system runs the one loop, which gives the samples of the
        # reduced chart's cross-check route, fixed_steps over seeded_advance
        # and midpoint_step, on the same field
        assert dynamics.midpoint_run is integrators.midpoint_run
        assert reduction.midpoint_step is integrators.midpoint_step
        x0 = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 += 1e-3 * np.linspace(-1.0, 1.0, 12)
        record = integrate(MV, x0, horizon=0.2, step=1e-3, omega=1.3)
        samples = list(seeded_run(MV, 1.3, x0.tolist(), 1e-3, 200, 10))
        assert record.times.tolist() == [t for t, _ in samples]
        assert record.states.tolist() == [x for _, x in samples]

    def test_overflowing_iterate_is_a_step_failure(self):
        # the momenta overflow inside the first step; sin(inf) is not a traceback
        state = PhaseState(
            (math.pi / 2 + 1e-3, math.pi / 2, math.pi / 2),
            RING.longitudes,
            (1e200, 0.0, 0.0),
            (1e160, 0.0, 0.0),
        )
        with pytest.raises(StepFailure, match="iterate is not finite") as info:
            integrate(MV, state, horizon=0.01, step=1e-3)
        assert info.value.step == 1

    def test_overflowing_rk45_state_is_a_step_failure(self):
        # the same start: scipy's first-step estimate overflows (numpy warns
        # first) and hands the field a state that is not finite
        state = PhaseState(
            (math.pi / 2 + 1e-3, math.pi / 2, math.pi / 2),
            RING.longitudes,
            (1e200, 0.0, 0.0),
            (1e160, 0.0, 0.0),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure) as info:
                integrate(MV, state, horizon=0.01, step=1e-3, method="rk45")
        assert str(info.value) == "adaptive integration state is not finite"
        assert 0.0 <= info.value.time <= 0.01

    def test_rk45_run_whose_pace_is_too_slow_ends_early(self):
        # at this rate the run needs about 1e150 periods of 1e-150: unbounded
        # it never returned; scipy's first-step estimate overflows first
        # (numpy warns), as in the test above
        omega = 1e150
        start = relative_equilibrium(MV, RING, omega)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(StepFailure) as info:
                integrate(MV, start, horizon=0.01, step=1e-3, omega=omega, method="rk45")
        assert str(info.value) == (
            "adaptive integration reached t = %.3g of 0.01 in %d field evaluations,"
            " a pace that needs more than %d"
            % (info.value.time, integrators.RK45_PACE_EVALS, integrators.RK45_MAX_EVALS)
        )
        assert 0.0 <= info.value.time < 0.01

    def test_rk45_pace_is_not_tied_to_the_step(self):
        # a fast rate over few fixed steps: past RK45_PACE_EVALS evaluations,
        # at a pace far inside RK45_MAX_EVALS, so the run returns
        calls = []
        field = make_field(MV, 1000.0)

        def counted(y):
            calls.append(None)
            return field(y)

        start = relative_equilibrium(MV, RING, 1000.0).as_vector()
        start[0] += 1e-3
        ts, xs = integrators.rk45_solve(counted, start, 0.1, np.array([0.05, 0.1]))
        assert ts.tolist() == [0.05, 0.1]
        assert integrators.RK45_PACE_EVALS < len(calls) < integrators.RK45_MAX_EVALS

    def test_list_start_is_read_as_floats(self):
        x0 = relative_equilibrium(MV, RING, 0.0).as_vector()
        x0[0] += 1e-3
        # the zero longitude and momenta as ints
        start = [int(v) if v == 0.0 else v for v in x0.tolist()]
        assert any(type(v) is int for v in start)
        for method in ("midpoint", "rk45"):
            got = integrate(MV, start, horizon=0.1, method=method)
            want = integrate(MV, x0, horizon=0.1, method=method)
            assert got.states.tobytes() == want.states.tobytes()
            assert got.energies.tobytes() == want.energies.tobytes()

    def test_step_failure_names_the_failing_step(self):
        with pytest.raises(StepFailure) as info:
            integrate(MassVector((1.0,) * 3), CLOSING_PAIR, horizon=5.0, step=1e-3)
        assert info.value.step >= 1
        assert info.value.time == info.value.step * 1e-3

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_state_rejected(self, bad):
        x0 = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0[7] = bad
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            integrate(MV, x0, horizon=1.0)

    def test_invalid_inputs(self):
        state = relative_equilibrium(MV, RING, 0.0)
        with pytest.raises(InvalidConfiguration):
            integrate(MV, state, horizon=0.0)
        with pytest.raises(InvalidConfiguration):
            integrate(MV, state, horizon=1.0, record_stride=0)
        with pytest.raises(InvalidConfiguration):
            integrate(MV, state, horizon=1.0, method="euler")
        with pytest.raises(InvalidConfiguration):
            integrate(MV, np.zeros(8), horizon=1.0)


STEPPED_RUNS = {
    "integrate": lambda **kw: integrate(
        MV, relative_equilibrium(MV, RING, 1.3), **{"horizon": 1.0, **kw}
    ),
    "growth": lambda **kw: growth_rate_experiment(EQUAL, 0.5, **{"horizon": 1.0, **kw}),
    "reduced": lambda **kw: integrate_reduced(
        EQUAL,
        rest_point_from_shape(shape_from_masses(EQUAL), EQUAL),
        **{"horizon": 1.0, **kw},
    ),
}

BAD_STEPPING = [
    {"step": 0.0},
    {"step": -1e-3},
    {"step": math.nan},
    {"step": math.inf},
    {"horizon": math.nan},
    {"horizon": math.inf},
    {"horizon": -1.0},
    {"horizon": 1e-4, "step": 1e-2},
    {"record_stride": 0},
    # a fractional stride would record off the step grid, a nan one only
    # the endpoints
    {"record_stride": 2.5},
    {"record_stride": math.nan},
    {"record_stride": "2"},
]


@pytest.mark.parametrize("run", sorted(STEPPED_RUNS))
@pytest.mark.parametrize("bad", BAD_STEPPING, ids=repr)
def test_bad_step_parameters_rejected(run, bad):
    with pytest.raises(InvalidConfiguration):
        STEPPED_RUNS[run](**bad)


@pytest.mark.parametrize("run", ["integrate", "reduced"])
def test_record_stride_may_be_a_numpy_integer(run):
    want = STEPPED_RUNS[run](horizon=0.05, record_stride=2)
    got = STEPPED_RUNS[run](horizon=0.05, record_stride=np.int64(2))
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.states, want.states)


UNEQUAL = as_mass_triple((0.2, 0.5, 0.3))
UNEQUAL_MV = UNEQUAL.mass_vector()
UNEQUAL_START = relative_equilibrium(
    UNEQUAL_MV, ring_from_shape(shape_from_masses(UNEQUAL)), 1.3
)
RATE_RUNS = {
    "integrate midpoint": lambda omega: integrate(
        UNEQUAL_MV, UNEQUAL_START, horizon=0.01, omega=omega
    ),
    "integrate rk45": lambda omega: integrate(
        UNEQUAL_MV, UNEQUAL_START, horizon=0.01, omega=omega, method="rk45"
    ),
    "growth": lambda omega: growth_rate_experiment(UNEQUAL, omega, horizon=1.0),
    "make_field": lambda omega: make_field(UNEQUAL_MV, omega),
    "hamiltonian": lambda omega: hamiltonian(UNEQUAL_MV, UNEQUAL_START, omega),
}


STATE_SIZE_RUNS = {
    "make_field": lambda x: make_field(MV, 0.3)(x),
    "hamiltonian": lambda x: hamiltonian(MV, x, 0.3),
    "integrate midpoint": lambda x: integrate(MV, x, horizon=0.01),
    "integrate rk45": lambda x: integrate(MV, x, horizon=0.01, method="rk45"),
}
RING_STATE = relative_equilibrium(MV, RING, 0.3).as_vector()
BAD_SIZES = {
    "4n-1": RING_STATE[:-1],
    "4n+1": np.append(RING_STATE, 0.0),
    "2x2n": RING_STATE.reshape(2, 6),
    "list 4n-1": RING_STATE.tolist()[:-1],
    # a PhaseState holds three bodies, so this one skips its checks
    "four-body PhaseState": unchecked(
        PhaseState, thetas=(1.5,) * 4, phis=(0.0, 1.0, 2.0, 3.0), pthetas=(0.0,) * 4,
        pphis=(0.0,) * 4,
    ),
}


@pytest.mark.parametrize("run", STATE_SIZE_RUNS)
@pytest.mark.parametrize("size", BAD_SIZES)
def test_state_size_has_one_message(run, size):
    with pytest.raises(InvalidConfiguration) as info:
        STATE_SIZE_RUNS[run](BAD_SIZES[size])
    assert str(info.value) == "state length does not match mass count"


@pytest.mark.parametrize("run", STATE_SIZE_RUNS)
@pytest.mark.parametrize("entry", [0, 9], ids=["theta1", "pphi1"])
@pytest.mark.parametrize("bad", [math.inf, math.nan], ids=repr)
def test_non_finite_state_has_one_message(run, entry, bad):
    # the field and the energy once let math.sin(inf)'s bare ValueError out
    # and returned nan for a nan angle
    x = RING_STATE.copy()
    x[entry] = bad
    for state in (x, x.tolist()):
        with pytest.raises(InvalidConfiguration) as info:
            STATE_SIZE_RUNS[run](state)
        assert str(info.value) == "state contains a non-finite entry"


@pytest.mark.parametrize("run", RATE_RUNS)
@pytest.mark.parametrize("omega", [math.nan, math.inf, 1e200, -1e155], ids=repr)
def test_rate_is_checked_as_rate_square_checks_it(run, omega):
    with pytest.raises(InvalidConfiguration) as want:
        rate_square(omega)
    with pytest.raises(InvalidConfiguration) as got:
        RATE_RUNS[run](omega)
    assert str(got.value) == str(want.value)


# a triple whose masses its mass vector normalizes
SCALED = as_mass_triple((1.0, 2.0, 1.0))
MASS_RUNS = {
    "relative_equilibrium": lambda masses: relative_equilibrium(masses, RING, 1.3),
    "hamiltonian": lambda masses: hamiltonian(masses, UNEQUAL_START, 1.3),
    "make_field": lambda masses: make_field(masses, 1.3)(UNEQUAL_START),
    "integrate": lambda masses: integrate(masses, UNEQUAL_START, horizon=0.02, omega=1.3),
}


def bits(value):
    """A float, array, tuple or value type as comparable bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return [bits(v) for v in value]
    return {name: bits(v) for name, v in vars(value).items()}


@pytest.mark.parametrize("run", MASS_RUNS)
def test_masses_are_a_mass_vector_or_a_triple(run):
    # a raw tuple once ended in AttributeError: 'tuple' object has no
    # attribute 'masses'
    message = "masses must be a MassVector or an AdmissibleMassTriple, got tuple"
    with pytest.raises(InvalidConfiguration, match="^%s$" % message):
        MASS_RUNS[run]((0.25, 0.5, 0.25))
    assert bits(MASS_RUNS[run](SCALED)) == bits(MASS_RUNS[run](SCALED.mass_vector()))


class TestGrowthExperiment:
    def test_unstable_rate_at_rest(self):
        fit = growth_rate_experiment(EQUAL, 0.0, horizon=30.0)
        expected = math.sqrt(LAMBDA1_EQUAL)
        assert isinstance(fit, GrowthFit)
        assert abs(fit.rate - expected) / expected < 0.05
        assert fit.expected_rate == pytest.approx(expected, abs=1e-12)
        assert fit.n_points >= 8

    def test_no_growth_when_stable(self):
        with pytest.raises(NoGrowthWindow) as info:
            growth_rate_experiment(EQUAL, 1.3, horizon=30.0)
        assert info.value.max_deviation < 1e-5

    def test_no_growth_window_carries_the_verdict(self):
        # a stable rate, and a subcritical one over a horizon too short to grow
        with pytest.raises(NoGrowthWindow) as info:
            growth_rate_experiment(EQUAL, 1.3, horizon=2.0)
        assert info.value.verdict == VERDICT_STABLE
        assert info.value.expected_rate is None
        with pytest.raises(NoGrowthWindow) as info:
            growth_rate_experiment(EQUAL, 0.5, horizon=2.0)
        lam1 = vertical_mode(ring_pipeline(EQUAL)[3])[0]
        assert info.value.verdict == VERDICT_UNSTABLE
        assert info.value.expected_rate == math.sqrt(lam1 - 0.25)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(InvalidConfiguration, match="amplitude"):
            growth_rate_experiment(EQUAL, 0.5, amplitude=amplitude, horizon=1.0)

    @pytest.mark.parametrize("amplitude", [0.0, -0.0, -1e-6])
    def test_nonpositive_amplitude_rejected(self, amplitude):
        # the fit's floor, a multiple of the amplitude, would admit every sample
        with pytest.raises(InvalidConfiguration) as info:
            growth_rate_experiment(EQUAL, 0.5, amplitude=amplitude, horizon=1.0)
        assert str(info.value) == "amplitude %r is not positive" % amplitude

    @pytest.mark.parametrize("fraction", [0.0, 0.5, 0.9, 1.002])
    def test_expected_rate_is_the_verdicts_exponent(self, fraction):
        # just above the critical rate the neutral probe swings past ten times
        # its amplitude, so the window fills without growth
        blocks = ring_pipeline(UNEQUAL)[3]
        lam1 = vertical_mode(blocks)[0]
        omega = fraction * math.sqrt(lam1)
        fit = growth_rate_experiment(blocks, omega, amplitude=1e-5, horizon=30.0)
        exponent = rate_verdict(omega, lam1)[1]
        if fraction < 1.0:
            assert fit.expected_rate == exponent > 0.0
        else:
            assert exponent == 0.0
            assert fit.expected_rate is None

    def test_blocks_the_spectra_reject_raise_their_error(self):
        blocks = LinearizationBlocks(UNEQUAL_MV, RING, np.eye(3), np.eye(3))
        with pytest.raises(DegenerateSpectrum) as want:
            spectral_analysis(blocks)
        with pytest.raises(DegenerateSpectrum) as got:
            growth_rate_experiment(blocks, 0.5, horizon=1.0)
        assert str(got.value) == str(want.value)

    def test_deviation_series_recorded(self):
        fit = growth_rate_experiment(EQUAL, 0.0, horizon=30.0)
        assert fit.times.shape == fit.deviations.shape
        assert fit.deviations[0] == pytest.approx(fit.amplitude, rel=1e-9)


# interior triples of the seeded-midpoint checks
INTERIOR = [
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    (0.2, 0.5, 0.3),
    (0.25, 0.45, 0.30),
    (0.3, 0.4, 0.3),
    (0.4, 0.35, 0.25),
    (0.15, 0.45, 0.4),
    (0.45, 0.3, 0.25),
    (0.35, 0.25, 0.4),
]


def flow_run(masses):
    """The masses, rate and start of a 1000-step run at h = 1e-3 above the
    critical rate, colatitudes displaced by up to 1e-3."""
    triple = as_mass_triple(masses)
    blocks = ring_pipeline(triple)[3]
    omega = 1.5 * math.sqrt(vertical_mode(blocks)[0])
    x0 = relative_equilibrium(blocks.masses, blocks.ring, omega).as_vector()
    x0[0:3] += 1e-3 * np.array([1.0, -0.5, 0.25])
    return blocks.masses, omega, x0


def counting_kernel(counts):
    """``dynamics._field_kernel`` whose fields count their evaluations."""
    real = dynamics._field_kernel

    def kernel(masses, omega):
        field = real(masses, omega)

        def counted(v):
            counts["evals"] += 1
            return field(v)

        return counted

    return kernel


def counting_step(counts):
    """``midpoint_step`` that counts its steps and field evaluations."""

    def step(field, x, h, guess=None):
        def counted(v):
            counts["evals"] += 1
            return field(v)

        counts["steps"] += 1
        return midpoint_step(counted, x, h, guess)

    return step


def seeded_run(masses, omega, x0, step, nsteps, record_stride, solve=midpoint_step):
    """``dynamics._midpoint_run`` as the loop it replaces: ``fixed_steps`` over
    ``seeded_advance`` and ``solve``, which ``midpoint_step`` is by default."""
    field = dynamics._field_kernel(masses, omega)
    advance = seeded_advance(lambda x, guess: solve(field, x, step, guess))
    return integrators.fixed_steps(advance, x0, step, nsteps, record_stride)


def euler_run(masses, omega, x0, step, nsteps, record_stride):
    """``seeded_run`` with every solve from the Euler predictor."""
    return seeded_run(
        masses, omega, x0, step, nsteps, record_stride,
        lambda field, x, h, guess: midpoint_step(field, x, h),
    )


def failing_step(masses, omega, h):
    """The index of the step at which a 200-step ``integrate`` of size h
    fails, from the ring at rest in the frame rotating at omega displaced
    by up to 1e-3, or None when it completes."""
    triple = as_mass_triple(masses)
    blocks = ring_pipeline(triple)[3]
    x0 = relative_equilibrium(blocks.masses, blocks.ring, omega).as_vector()
    x0 += 1e-3 * np.linspace(-1.0, 1.0, 12)
    try:
        integrate(blocks.masses, x0, horizon=200 * h, step=h, omega=omega)
    except StepFailure as exc:
        return exc.step
    return None


class TestSeededMidpoint:
    """From its sixth step a run seeds each midpoint solve with the quintic
    extrapolation of its last six states."""

    def test_one_field_evaluation_per_step(self, monkeypatch):
        # measured on these triples: 1.015-1.020 evaluations per step at
        # h = 1e-3 and 1.016-1.304 on the growth runs, where the quadratic
        # seed took 2.004 and 2.9-3.6
        counts = {"steps": 0, "evals": 0}
        monkeypatch.setattr(dynamics, "_field_kernel", counting_kernel(counts))
        for masses in INTERIOR:
            counts.update(steps=0, evals=0)
            mv, omega, x0 = flow_run(masses)
            integrate(mv, x0, horizon=1.0, step=1e-3, omega=omega)
            assert counts["evals"] <= 1.1 * 1000
            counts.update(steps=0, evals=0)
            triple = as_mass_triple(masses)
            rest = rest_point_from_shape(shape_from_masses(triple), triple)
            start = ReducedState(rest.phi1 + 1e-2, rest.phi2, 0.0, 0.0)
            reduced_midpoint(triple, start, 1.0, 1e-3, solve=counting_step(counts))
            assert counts["steps"] == 1000
            assert counts["evals"] <= 1.1 * 1000
            # the flow benchmark's growth run: h = 0.01 at half the critical
            # rate, up to the last sample it records
            counts.update(steps=0, evals=0)
            blocks = ring_pipeline(triple)[3]
            fit = growth_rate_experiment(blocks, 0.5 * math.sqrt(vertical_mode(blocks)[0]))
            assert counts["evals"] <= 1.4 * round(fit.times[-1] / 0.01)

    def test_winding_longitudes_keep_the_seed(self, monkeypatch):
        # the extrapolation sums offsets from the state, so its rounding
        # follows the motion, not |phi| ~ 100; summed as
        # 6x - 15x[-1] + ... it read 1.90 evaluations per step, here 1.26
        counts = {"evals": 0}
        monkeypatch.setattr(dynamics, "_field_kernel", counting_kernel(counts))
        triple = as_mass_triple((0.2, 0.5, 0.3))
        blocks = ring_pipeline(triple)[3]
        x0 = relative_equilibrium(blocks.masses, blocks.ring, 0.0).as_vector()
        x0[0:3] += 1e-3 * np.array([1.0, -0.5, 0.25])
        x0[3:6] += 100.0
        integrate(blocks.masses, x0, horizon=1.0, step=1e-3, omega=0.0)
        assert counts["evals"] <= 1.5 * 1000

    @pytest.mark.parametrize("omega", [0.0, 1.3, 3.0])
    @pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (0.2, 0.5, 0.3), (0.25, 0.45, 0.3)])
    def test_large_steps_fail_where_the_predictor_fails(self, monkeypatch, masses, omega):
        # a seeded solve that fails ends the run; where the step outruns the
        # extrapolation, the seeded run fails at the very step where a run
        # that starts every solve from the predictor fails, or completes
        # with it; the loop that the one-loop run replaces fails there too
        for h in (0.01, 0.03, 0.05, 0.1, 0.2, 0.3):
            seeded = failing_step(masses, omega, h)
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_midpoint_run", euler_run)
                euler = failing_step(masses, omega, h)
                m.setattr(dynamics, "_midpoint_run", seeded_run)
                assert failing_step(masses, omega, h) == seeded
            assert seeded == euler

    def test_solve_whose_updates_fall_in_pairs_converges(self):
        # from its quintic guess the solve at step 73 of this run updates by
        # 4.4e-3, 4.7e-3, 7.7e-4, 7.2e-4, ...: not smaller at every update,
        # but about six times smaller over every two.  A damping that halved
        # whenever an update did not shrink stalled it at 2.56e-13.
        solves = []

        def recording_step(field, x, h, guess=None):
            solves.append((field, x, guess))
            return midpoint_step(field, x, h, guess)

        triple = as_mass_triple((0.25, 0.45, 0.3))
        blocks = ring_pipeline(triple)[3]
        x0 = relative_equilibrium(blocks.masses, blocks.ring, 0.0).as_vector()
        x0 += 1e-3 * np.linspace(-1.0, 1.0, 12)
        record = integrate(blocks.masses, x0, horizon=7.3, step=0.1, omega=0.0)
        # the solves of the run, from the loop it replaces
        samples = list(
            seeded_run(blocks.masses, 0.0, x0.tolist(), 0.1, 73, 10, recording_step)
        )
        assert record.states.tolist() == [x for _, x in samples]
        field, x, guess = solves[72]
        assert len(solves) == 73 and guess is not None
        # each solve stops at an update of at most MIDPOINT_TOL.  With no
        # update more than twice the one before and every update at most a
        # quarter of the one two before, the updates still to come sum to at
        # most (2 + 1/4) MIDPOINT_TOL / (1 - 1/4) = 3 MIDPOINT_TOL: each
        # result lies that close to the solution, and the two within 6
        tol = integrators.MIDPOINT_TOL
        solve = integrators._midpoint_loop
        seeded = solve(field, x, 0.1, tol, integrators.MIDPOINT_MAX_INNER, guess)
        euler = solve(field, x, 0.1, tol, integrators.MIDPOINT_MAX_INNER)
        assert max(abs(a - b) for a, b in zip(seeded, euler)) <= 6.0 * tol

    @pytest.mark.parametrize("masses", INTERIOR)
    def test_stays_at_the_tight_tolerance_reference(self, masses):
        # the reference solves every step from the Euler predictor to 1e-15;
        # 1000 steps at MIDPOINT_TOL allow 1e-10, and on these triples the
        # seeded runs stay within 1.3e-13 of it (the Euler-seeded 3.1e-14)
        mv, omega, x0 = flow_run(masses)
        record = integrate(mv, x0, horizon=1.0, step=1e-3, omega=omega)
        field = dynamics._field_kernel(mv, omega)
        reference = [
            x
            for _, x in integrators.fixed_steps(
                lambda x: integrators._midpoint_loop(field, x, 1e-3, 1e-15, 50),
                x0.tolist(),
                1e-3,
                1000,
                10,
            )
        ]
        assert np.max(np.abs(record.states - np.array(reference))) < 1e-12


class TestPinnedBits:
    """Full-system results pinned bit for bit: stepping on float lists must
    reproduce the numpy iteration it replaced."""

    def test_integrate(self):
        x0 = relative_equilibrium(MV, RING, 1.3).as_vector()
        x0 += 1e-3 * np.linspace(-1.0, 1.0, 12)
        record = integrate(MV, x0, horizon=0.2, step=1e-3, omega=1.3)
        assert record.states.shape == (21, 12)
        assert record.states[-1].tolist() == [
            1.5698606074128842,
            1.5701441630181325,
            1.5704277418254866,
            -6.580598348983215e-05,
            2.094613437487296,
            4.189292674643427,
            0.00012499347416005372,
            0.00028037562590412017,
            0.0004358369596072791,
            0.43399370144917737,
            0.43415155568473124,
            0.4343092883206368,
        ]
        assert record.energy_drift == 2.220446049250313e-16
        assert record.momentum_drift == 4.440892098500626e-16
        assert record.max_equator_deviation == 0.0009999999999998899
        assert record.min_separation_sine == 0.8658835214110875

    def test_growth_fit(self):
        triple = as_mass_triple((0.25, 0.45, 0.30))
        fit = growth_rate_experiment(triple, 1.0, amplitude=1e-5, horizon=40.0)
        # the blocks a caller already assembled give the same run
        ring = ring_from_shape(shape_from_masses(triple))
        blocks = assemble_blocks(triple.mass_vector(), ring)
        again = growth_rate_experiment(blocks, 1.0, amplitude=1e-5, horizon=40.0)
        assert again.rate == fit.rate
        assert again.times.tolist() == fit.times.tolist()
        assert again.deviations.tolist() == fit.deviations.tolist()
        # the least-squares line on floats: 9.5e-18 from the exact fit of
        # the same points (np.polyfit's 0.8980074309245821: 1.0e-16)
        assert fit.rate == 0.8980074309245822
        assert fit.expected_rate == 0.8980113781961803
        assert fit.n_points == 51
        assert fit.window == (2.6, 7.6000000000000005)
        assert fit.log_residual == 5.521604041813788e-05
        assert fit.max_deviation == 0.02064595940249747
        assert fit.deviations[-1] == fit.max_deviation
        assert fit.times.size == 86


class TestReducedPinnedBits:
    """Reduced-flow results pinned bit for bit: the straight-line Yoshida-4
    step and the midpoint cross-check must reproduce their loop forms."""

    def run(self, integrator):
        triple = as_mass_triple((0.25, 0.45, 0.30))
        rest = rest_point_from_shape(shape_from_masses(triple), triple, 0.7)
        start = ReducedState(
            rest.phi1 + 1e-2, rest.phi2 - 5e-3, 2e-3, -1e-3, rest.momentum_level
        )
        run = integrator(triple, start, horizon=2.0, step=1e-3)
        assert run.states.shape == (201, 4)
        return run

    def test_yoshida4(self):
        run = self.run(integrate_reduced)
        assert run.states[-1].tolist() == [
            2.079157641028234,
            2.595359432578949,
            -0.0021769246319853306,
            0.0013985169075490852,
        ]
        assert run.energy_drift == 1.1102230246251565e-16

    def test_midpoint(self):
        run = self.run(reduced_midpoint)
        assert run.states[-1].tolist() == [
            2.0791576441578434,
            2.595359432275246,
            -0.0021769250000862857,
            0.00139851620290117,
        ]
        assert run.energy_drift == 1.6930901125533637e-14


@pytest.mark.parametrize("seed", range(5))
def test_line_fit_is_the_exact_fit_within_rounding(seed):
    # times on the growth run's grid, log deviations on a noisy line
    rng = np.random.default_rng(seed)
    xs = [0.1 * k for k in range(8 + 10 * seed, 60 + 10 * seed)]
    ys = [1.3 * x - 13.0 + 1e-4 * e for x, e in zip(xs, rng.standard_normal(len(xs)))]
    slope, intercept = dynamics._line_fit(xs, ys)
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    xbar, ybar = sum(fx) / len(fx), sum(fy) / len(fy)
    sxx = sum((x - xbar) ** 2 for x in fx)
    exact = sum((x - xbar) * (y - ybar) for x, y in zip(fx, fy)) / sxx
    # each centred product and difference rounds once, each sum once
    spread = sum(abs(x - xbar) * abs(y - ybar) for x, y in zip(fx, fy))
    eps = Fraction(2.0 ** -52)
    assert abs(Fraction(slope) - exact) <= 4 * eps * (spread / sxx + abs(exact))
    assert abs(Fraction(intercept) - (ybar - exact * xbar)) <= 4 * eps * (
        abs(ybar) + abs(exact * xbar) + abs(xbar) * spread / sxx)
