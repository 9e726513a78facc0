import math
import re
import types

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from curvednbody.errors import (
    InvalidConfiguration,
    NonpositiveMass,
    PolarSingularity,
    SingularConfiguration,
)
from curvednbody import geometry
from curvednbody.geometry import (
    EQUATOR,
    MassVector,
    RingConfiguration,
    SphereConfiguration,
    _pair_guard,
    _pair_sine,
    _pair_table,
    force_function,
    force_gradient,
    force_hessian_blocks,
)
from curvednbody.dynamics import (
    PhaseState,
    hamiltonian,
    integrate,
    make_field,
    relative_equilibrium,
)
from curvednbody.fixedpoints import (
    as_mass_triple,
    fixed_point_residual,
    solve_fixed_point_numeric,
)
from curvednbody.reduction import JacobiConstants
from curvednbody.stability import assemble_L_general, assemble_blocks

from conftest import singular_pair, unchecked

EQUILATERAL = RingConfiguration((0.0, 2 * math.pi / 3, 4 * math.pi / 3))


def unit_vectors(config):
    """The bodies of a configuration as rows of Cartesian unit vectors."""
    t, p = np.array(config.thetas), np.array(config.phis)
    return np.column_stack((np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)))


def random_config(rng, min_sep=0.2):
    """A sphere configuration with all separations bounded away from 0 and pi."""
    while True:
        thetas = rng.uniform(0.4, math.pi - 0.4, 3)
        phis = rng.uniform(0.0, 2 * math.pi, 3)
        try:
            config = SphereConfiguration(tuple(thetas), tuple(phis))
        except SingularConfiguration:
            continue
        q = unit_vectors(config)
        seps = [
            math.sqrt(max(1.0 - float(q[i] @ q[j]) ** 2, 0.0))
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        if min(seps) > min_sep:
            return config


class TestMassVector:
    def test_rejects_single_body(self):
        with pytest.raises(InvalidConfiguration):
            MassVector((1.0,))

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveMass):
            MassVector((1.0, 0.0, 1.0))
        with pytest.raises(NonpositiveMass):
            MassVector((1.0, -2.0, 1.0))
        with pytest.raises(NonpositiveMass):
            MassVector((1.0, math.nan, 1.0))

    def test_array_and_n(self):
        mv = MassVector((1.0, 2.0, 3.0))
        assert len(mv.masses) == geometry.BODIES
        assert np.array_equal(mv.array(), [1.0, 2.0, 3.0])


class TestSphereConfiguration:
    def test_polar_rejection(self):
        with pytest.raises(PolarSingularity):
            SphereConfiguration((0.0, 1.0, 2.0), (0.0, 1.0, 2.0))
        with pytest.raises(PolarSingularity):
            SphereConfiguration((1.0, math.pi, 2.0), (0.0, 1.0, 2.0))

    def test_longitude_reduction(self):
        c = SphereConfiguration((1.0, 1.5, 2.0), (2 * math.pi + 0.25, -0.5, 1.0))
        assert c.phis[0] == pytest.approx(0.25, abs=1e-15)
        assert c.phis[1] == pytest.approx(2 * math.pi - 0.5, abs=1e-15)
        assert c.phis[2] == 1.0

    def test_collision_rejected(self):
        with pytest.raises(SingularConfiguration, match=singular_pair(1, 2, "collision")):
            SphereConfiguration((1.0, 1.0, 2.0), (0.3, 0.3, 1.0))

    def test_every_exact_collision_rejected(self):
        # sqrt(1 - cos^2 d) reads 1.49e-8 for about a fifth of these, above
        # the guard; the recomputed sine |q_i x q_j| is exactly zero
        rng = np.random.default_rng(20261018)
        accepted = []
        for t, p in rng.uniform((0.0, 0.0), (math.pi, 2 * math.pi), (10000, 2)):
            try:
                SphereConfiguration((t, t, 2.0), (p, p, 1.0))
                accepted.append((t, p))
            except SingularConfiguration as exc:
                assert re.match(singular_pair(1, 2, "collision"), str(exc))
        assert accepted == []

    def test_small_separation_sine_is_recomputed(self):
        # the cheap form reads a 1e-9 separation as 0 or 1.49e-8
        sine = _pair_guard((1.0, 1.0 + 1e-9, 2.0), (0.5, 0.5, 1.0))
        assert sine == pytest.approx(1e-9, rel=1e-6)
        # a ring's pairs, cos d = cos(phi_i - phi_j), take the same rule
        phis = (0.3, 0.3 + 1e-9, 2.0)
        table = [
            (i, j, math.cos(phis[i] - phis[j]))
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        sines = [_pair_sine(i, j, cosd, None, None, None, phis) for i, j, cosd in table]
        assert sines[0] == pytest.approx(1e-9, rel=1e-6)
        # pairs above the recheck threshold keep the cheap form's bits
        for (i, j, cosd), sind in zip(table[1:], sines[1:]):
            assert sind == math.sqrt(1.0 - cosd * cosd)

    def test_antipodal_rejected(self):
        with pytest.raises(
            SingularConfiguration, match=singular_pair(1, 2, "antipodal alignment")
        ):
            SphereConfiguration((math.pi / 2, math.pi / 2, 1.0), (0.0, math.pi, 2.0))

    def test_count_mismatch(self):
        with pytest.raises(InvalidConfiguration):
            SphereConfiguration((1.0, 1.0, 1.0), (0.0, 2.0))

    @pytest.mark.parametrize(
        "thetas, phis, name",
        [
            ((1.0, 1.0, 1.0), (0.0, math.inf, 2.0), "phis"),
            ((1.0, 1.0, 1.0), (0.0, math.nan, 2.0), "phis"),
            ((1.0, math.nan, 1.0), (0.0, 1.0, 2.0), "thetas"),
            ((1.0, -math.inf, 1.0), (0.0, 1.0, 2.0), "thetas"),
        ],
    )
    def test_non_finite_angle_rejected(self, thetas, phis, name):
        with pytest.raises(InvalidConfiguration) as info:
            SphereConfiguration(thetas, phis)
        assert str(info.value) == "%s contains a non-finite entry" % name


class TestRingConfiguration:
    def test_first_longitude_zeroed(self):
        ring = RingConfiguration((0.4, 0.4 + 2.0, 0.4 + 4.0))
        assert ring.longitudes[0] == 0.0
        assert ring.longitudes[1] == pytest.approx(2.0, abs=1e-15)

    def test_gap_must_stay_under_pi(self):
        with pytest.raises(InvalidConfiguration):
            RingConfiguration((0.0, 1.0, 1.0 + math.pi))

    def test_spread_must_exceed_pi(self):
        with pytest.raises(InvalidConfiguration):
            RingConfiguration((0.0, 1.0, 2.0))

    def test_two_bodies_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RingConfiguration((0.0, 2.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_longitude_rejected(self, bad):
        with pytest.raises(InvalidConfiguration) as info:
            RingConfiguration((0.0, bad, 4.0))
        assert str(info.value) == "longitudes contains a non-finite entry"

    def test_gaps(self):
        ring = RingConfiguration((1.0, 2.5, 4.5))
        phis = ring.longitudes
        assert (phis[1] - phis[0], phis[2] - phis[1]) == pytest.approx((1.5, 2.0))

    def test_singular_pairs_rejected(self):
        with pytest.raises(SingularConfiguration, match=singular_pair(1, 2, "collision")):
            RingConfiguration((0.0, 1e-12, math.pi + 5e-13))
        with pytest.raises(
            SingularConfiguration, match=singular_pair(1, 3, "antipodal alignment")
        ):
            RingConfiguration((0.0, 1.0, math.pi + 1e-13))

    def test_ring_reads_as_the_equator(self):
        ring = RingConfiguration((1.0, 2.5, 4.5))
        assert ring.thetas == (EQUATOR,) * 3
        assert EQUATOR == math.pi / 2
        assert ring.phis is ring.longitudes
        assert ring.phis == (0.0, 1.5, 3.5)
        with pytest.raises(AttributeError):
            ring.thetas = (1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            ring.phis = (0.0, 1.0, 2.0)


class TestForceFunction:
    def test_equilateral_value(self):
        mv = MassVector((1 / 3, 1 / 3, 1 / 3))
        assert force_function(mv, EQUILATERAL) == pytest.approx(
            -math.sqrt(3.0) / 9.0, abs=1e-15
        )

    def test_matches_cotangent_sum(self, rng):
        # independent route: distances through arccos, potential through tan
        mv = MassVector((0.7, 1.3, 0.5))
        for _ in range(20):
            config = random_config(rng)
            q = unit_vectors(config)
            expected = 0.0
            for i in range(3):
                for j in range(i + 1, 3):
                    d = math.acos(min(1.0, max(-1.0, float(q[i] @ q[j]))))
                    expected += mv.masses[i] * mv.masses[j] / math.tan(d)
            assert force_function(mv, config) == pytest.approx(expected, abs=1e-12)

    def test_singular_pair_raises(self):
        mv = MassVector((1.0, 1.0, 1.0))
        config = SphereConfiguration((1.0, 1.2, 2.0), (0.0, 2.0, 4.0))
        near = unchecked(
            SphereConfiguration, thetas=(1.0, 1.0, 2.0), phis=(0.0, 1e-13, 1.0)
        )
        opposite = unchecked(
            SphereConfiguration,
            thetas=(math.pi / 2, math.pi / 2, 1.0),
            phis=(0.0, math.pi, 2.0),
        )
        for function in (force_function, force_gradient, force_hessian_blocks):
            with pytest.raises(
                SingularConfiguration, match=singular_pair(1, 2, "collision")
            ):
                function(mv, near)
            with pytest.raises(
                SingularConfiguration, match=singular_pair(1, 2, "antipodal alignment")
            ):
                function(mv, opposite)
        assert math.isfinite(force_function(mv, config))


class TestForceGradient:
    def test_matches_finite_differences(self, rng):
        mv = MassVector((0.9, 1.1, 0.6))
        eps = 1e-6
        for _ in range(10):
            config = random_config(rng)
            grad = force_gradient(mv, config)
            for k in range(6):
                dth = [0.0] * 3
                dph = [0.0] * 3
                (dth if k < 3 else dph)[k % 3] = eps
                plus = SphereConfiguration(
                    tuple(t + d for t, d in zip(config.thetas, dth)),
                    tuple(p + d for p, d in zip(config.phis, dph)),
                )
                minus = SphereConfiguration(
                    tuple(t - d for t, d in zip(config.thetas, dth)),
                    tuple(p - d for p, d in zip(config.phis, dph)),
                )
                fd = (force_function(mv, plus) - force_function(mv, minus)) / (2 * eps)
                assert grad[k] == pytest.approx(fd, abs=2e-8 * max(1.0, abs(fd)))

    def test_longitude_block_sums_to_rounding(self, rng):
        mv = MassVector((1.0, 2.0, 0.5))
        for _ in range(20):
            config = random_config(rng)
            grad = force_gradient(mv, config)
            scale = max(1.0, float(np.max(np.abs(grad))))
            assert abs(float(np.sum(grad[3:]))) <= 1e-14 * scale

    def test_vanishes_at_equilateral_ring(self):
        mv = MassVector((1 / 3, 1 / 3, 1 / 3))
        grad = force_gradient(mv, EQUILATERAL)
        # longitude block is the fixed-point residual, colatitude block is
        # zero by the equatorial reflection symmetry
        assert np.max(np.abs(grad)) < 1e-15


class TestForceHessian:
    def test_blocks_match_gradient_differences(self, rng):
        mv = MassVector((0.8, 1.4, 0.7))
        eps = 1e-6
        config = random_config(rng)
        vtt, vtp, vpp = force_hessian_blocks(mv, config)
        full = np.block([[vtt, vtp], [vtp.T, vpp]])
        for k in range(6):
            dth = [0.0] * 3
            dph = [0.0] * 3
            (dth if k < 3 else dph)[k % 3] = eps
            plus = SphereConfiguration(
                tuple(t + d for t, d in zip(config.thetas, dth)),
                tuple(p + d for p, d in zip(config.phis, dph)),
            )
            minus = SphereConfiguration(
                tuple(t - d for t, d in zip(config.thetas, dth)),
                tuple(p - d for p, d in zip(config.phis, dph)),
            )
            fd = (force_gradient(mv, plus) - force_gradient(mv, minus)) / (2 * eps)
            assert np.max(np.abs(full[:, k] - fd)) < 2e-7 * max(
                1.0, float(np.max(np.abs(fd)))
            )

    def test_symmetric_blocks(self, rng):
        mv = MassVector((1.0, 1.0, 2.0))
        vtt, vtp, vpp = force_hessian_blocks(mv, random_config(rng))
        assert np.max(np.abs(vtt - vtt.T)) == 0.0
        assert np.max(np.abs(vpp - vpp.T)) == 0.0


class TestKineticEnergy:
    def test_formula(self):
        # H + U is the kinetic energy p_theta^2 / 2m + p_phi^2 / (2m sin^2 theta)
        mv = MassVector((2.0, 0.5, 1.0))
        x = [math.pi / 2, math.pi / 3, 2.0, 0.0, 2.0, 4.0,
             0.3, -0.2, 0.5, 0.1, 0.4, -0.3]
        s2 = math.sin(math.pi / 3)
        s3 = math.sin(2.0)
        expected = (
            0.3 ** 2 / 4.0
            + 0.1 ** 2 / 4.0
            + 0.2 ** 2 / 1.0
            + 0.4 ** 2 / (1.0 * s2 * s2)
            + 0.5 ** 2 / 2.0
            + 0.3 ** 2 / (2.0 * s3 * s3)
        )
        config = SphereConfiguration(x[0:3], x[3:6])
        assert hamiltonian(mv, x) + force_function(mv, config) == pytest.approx(
            expected, rel=1e-14
        )


def guard_state():
    """A state whose body 2 sits at the polar guard, duck-typed as a PhaseState
    (which cannot hold it), and its flat vector."""
    blocks = [(1.0, 1e-9, 1.2), (0.0, 2.0, 4.0), (0.1, 0.2, 0.3), (0.3, -0.1, 0.2)]
    state = types.SimpleNamespace(thetas=blocks[0], phis=blocks[1],
                                  pthetas=blocks[2], pphis=blocks[3])
    return state, [v for b in blocks for v in b]


POLAR_SITES = {
    "PhaseState": lambda mv, st, x: PhaseState(st.thetas, st.phis, st.pthetas, st.pphis),
    "make_field n=3": lambda mv, st, x: make_field(mv)(np.array(x)),
    "make_field list": lambda mv, st, x: make_field(mv)(x),
    "hamiltonian": lambda mv, st, x: hamiltonian(mv, x),
    "assemble_L_general": lambda mv, st, x: assemble_L_general(mv, st),
}


@pytest.mark.parametrize("site", POLAR_SITES)
def test_polar_guard_has_one_message(site):
    state, x = guard_state()
    with pytest.raises(PolarSingularity) as info:
        POLAR_SITES[site](MassVector((1.0, 2.0, 3.0)), state, x)
    assert str(info.value) == "body 2 at the polar guard"


def masses_of(n):
    return tuple(1.0 + 0.25 * k for k in range(n))


def state_of(n):
    """The four blocks of an n-body phase state on the equator, at rest."""
    return (EQUATOR,) * n, tuple(1.2 * k for k in range(n)), (0.0,) * n, (0.0,) * n


def vector_of(n):
    return [v for block in state_of(n) for v in block]


MV3 = MassVector(masses_of(3))

# every way in which a count of bodies enters the package, each called with
# that many bodies: masses, a configuration or a state
COUNT_SITES = {
    "MassVector": lambda n: MassVector(masses_of(n)),
    "SphereConfiguration": lambda n: SphereConfiguration(*state_of(n)[:2]),
    "RingConfiguration": lambda n: RingConfiguration(state_of(n)[1]),
    "PhaseState": lambda n: PhaseState(*state_of(n)),
    "PhaseState.from_vector": lambda n: PhaseState.from_vector(vector_of(n)),
    "make_field": lambda n: make_field(MassVector(masses_of(n)))(vector_of(n)),
    "hamiltonian": lambda n: hamiltonian(MassVector(masses_of(n)), vector_of(n)),
    "integrate": lambda n: integrate(MassVector(masses_of(n)), vector_of(n), 0.01),
    "as_mass_triple": lambda n: as_mass_triple(masses_of(n)),
    "JacobiConstants.from_masses": lambda n: JacobiConstants.from_masses(masses_of(n)),
    # a duck-typed state reaches force_hessian_blocks with its own count
    "assemble_L_general": lambda n: assemble_L_general(
        MV3, types.SimpleNamespace(**dict(zip(
            ("thetas", "phis", "pthetas", "pphis"), state_of(n))))
    ),
    "force_function": lambda n: force_function(MassVector(masses_of(n)), EQUILATERAL),
    "relative_equilibrium": lambda n: relative_equilibrium(
        MassVector(masses_of(n)), EQUILATERAL, 1.0
    ),
    "fixed_point_residual": lambda n: fixed_point_residual(
        MassVector(masses_of(n)), EQUILATERAL
    ),
    "solve_fixed_point_numeric": lambda n: solve_fixed_point_numeric(
        MassVector(masses_of(n)), EQUILATERAL
    ),
    "assemble_blocks": lambda n: assemble_blocks(MassVector(masses_of(n)), EQUILATERAL),
}


@pytest.mark.parametrize("site", COUNT_SITES)
def test_body_count_has_one_message(site):
    for n in (1, 2, 4, 5):
        with pytest.raises(InvalidConfiguration) as info:
            COUNT_SITES[site](n)
        assert str(info.value) == "need exactly three bodies, got %d" % n


# a gap inside the SINE_RECHECK band lies within 0.1 of 0 or of pi
NEAR_ZERO = st.floats(1e-9, 0.1)
GAPS = st.one_of(
    st.floats(0.1, math.pi - 0.1), NEAR_ZERO, NEAR_ZERO.map(lambda x: math.pi - x)
)
RING_CALLS = {
    "force_function": lambda mv, config: np.float64(force_function(mv, config)),
    "force_gradient": force_gradient,
    "force_hessian_blocks": lambda mv, config: np.array(force_hessian_blocks(mv, config)),
}


@st.composite
def drawn_rings(draw):
    """Masses and a valid ring, built from gaps."""
    masses = MassVector(tuple(draw(st.floats(1e-3, 10.0)) for _ in range(3)))
    phis = [draw(st.floats(-10.0, 10.0))]
    for _ in range(2):
        phis.append(phis[-1] + draw(GAPS))
    try:
        return masses, RingConfiguration(tuple(phis))
    except (InvalidConfiguration, SingularConfiguration):
        assume(False)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(drawn_rings())
def test_ring_calls_match_the_sphere_calls_bit_for_bit(drawn):
    masses, ring = drawn
    sphere = SphereConfiguration(ring.thetas, ring.phis)
    assert sphere.thetas == ring.thetas and sphere.phis == ring.phis
    for call in RING_CALLS.values():
        assert call(masses, ring).tobytes() == call(masses, sphere).tobytes()


@pytest.mark.parametrize("name", RING_CALLS)
def test_ring_calls_walk_the_pairs_at_most_once(name, monkeypatch):
    passes = []

    def counted(*args, **kwargs):
        passes.append(1)
        return _pair_table(*args, **kwargs)

    monkeypatch.setattr(geometry, "_pair_table", counted)
    RING_CALLS[name](MassVector((0.2, 0.5, 0.3)), EQUILATERAL)
    assert len(passes) == 1
