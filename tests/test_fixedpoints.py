import math

import numpy as np
import pytest

from curvednbody.errors import (
    DegenerateShape,
    InconsistentPair,
    InvalidConfiguration,
    NoConvergence,
    NonpositiveMass,
    NotAdmissible,
    SingularConfiguration,
)
from curvednbody.fixedpoints import (
    AdmissibleMassTriple,
    TriangleShape,
    admissibility_value,
    as_mass_triple,
    check_shape_mass_pair,
    fixed_point_residual,
    is_admissible,
    isosceles_bound_check,
    masses_from_shape,
    ring_from_shape,
    shape_from_masses,
    shape_mass_defect,
    solve_fixed_point_numeric,
)
from curvednbody.geometry import MassVector, RingConfiguration
from curvednbody import fixedpoints

from conftest import draw_admissible_triples, singular_pair, unchecked

# rings the constructor would reject: bodies 1 and 2 together, 1 and 3 opposite
SINGULAR_RINGS = [
    (2, "collision", (0.0, 1e-12, 4.0)),
    (3, "antipodal alignment", (0.0, 1.0, math.pi)),
]


class TestAdmissibility:
    def test_equal_masses_value(self):
        check = is_admissible(1.0, 1.0, 1.0)
        assert check.admissible
        assert check.value == pytest.approx(-1.0 / 27.0, abs=1e-15)

    def test_isosceles_sample_value(self):
        check = is_admissible(0.3, 0.4, 0.3)
        assert check.admissible
        assert check.value == pytest.approx(-0.0351, abs=1e-15)

    def test_lopsided_triple_excluded(self):
        check = is_admissible(0.5, 0.49, 0.01)
        assert not check.admissible
        assert check.value == pytest.approx(0.05517401, abs=1e-12)

    def test_boundary_triple_excluded(self):
        # (0.4, 0.1, 0.4) normalizes onto the boundary exactly
        check = is_admissible(0.4, 0.1, 0.4)
        assert check.value == 0.0
        assert not check.admissible
        with pytest.raises(NotAdmissible):
            AdmissibleMassTriple(0.4, 0.1, 0.4)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveMass):
            is_admissible(1.0, -1.0, 1.0)

    def test_overflowing_sum_divides_by_the_largest_mass_first(self):
        # the float sum of each triple is inf
        assert isosceles_bound_check(1e308, 1e308, 1e308) == isosceles_bound_check(1, 1, 1)
        assert AdmissibleMassTriple(1e308, 1e308, 1e308).as_tuple() == (1 / 3,) * 3
        v = isosceles_bound_check(1e308, 1e308, 2e307)
        assert v.masses == pytest.approx((5 / 11, 5 / 11, 1 / 11), rel=1e-15)
        assert not v.admissible
        assert is_admissible(1e308, 1e308, 2e307) == (False, v.value)
        with pytest.raises(NotAdmissible):
            AdmissibleMassTriple(1e308, 1e308, 2e307)

    def test_vectorized_matches_scalar(self, rng):
        m1 = rng.uniform(0.05, 0.9, 50)
        m2 = rng.uniform(0.05, 0.9, 50)
        keep = m1 + m2 < 0.98
        m1, m2 = m1[keep], m2[keep]
        grid = admissibility_value(m1, m2, 1.0 - m1 - m2)
        for a, b, v in zip(m1, m2, grid):
            assert v == pytest.approx(admissibility_value(a, b, 1.0 - a - b), abs=1e-16)


class TestTriangleShape:
    def test_wedge_enforced(self):
        with pytest.raises(DegenerateShape):
            TriangleShape(1.0, 1.0)  # sum not above pi
        with pytest.raises(DegenerateShape):
            TriangleShape(math.pi, 2.0)
        with pytest.raises(DegenerateShape):
            TriangleShape(3.5, 3.5)  # sum above 2*pi

    def test_separations(self):
        shape = TriangleShape(2.0, 1.8)
        assert (shape.alpha, shape.beta) == (2.0, 1.8)
        assert shape.d13 == pytest.approx(2 * math.pi - 3.8, abs=1e-15)


class TestMassShapeMaps:
    def test_equal_masses_give_equilateral(self):
        shape = shape_from_masses((1.0, 1.0, 1.0))
        assert shape.alpha == pytest.approx(2 * math.pi / 3, abs=1e-14)
        assert shape.beta == pytest.approx(2 * math.pi / 3, abs=1e-14)

    def test_roundtrip_masses_shape_masses(self, rng):
        for triple in draw_admissible_triples(rng, 100):
            shape = shape_from_masses(triple)
            back = masses_from_shape(shape)
            assert max(
                abs(a - b) for a, b in zip(triple, back.as_tuple())
            ) < 1e-11

    def test_roundtrip_shape_masses_shape(self, rng):
        count = 0
        while count < 50:
            alpha = rng.uniform(0.3, math.pi - 0.3)
            beta = rng.uniform(0.3, math.pi - 0.3)
            if not (math.pi + 0.2 < alpha + beta < 2 * math.pi - 0.2):
                continue
            count += 1
            shape = TriangleShape(alpha, beta)
            masses = masses_from_shape(shape)
            back = shape_from_masses(masses)
            assert back.alpha == pytest.approx(alpha, abs=1e-12)
            assert back.beta == pytest.approx(beta, abs=1e-12)

    def test_masses_from_shape_normalized(self):
        masses = masses_from_shape(TriangleShape(2.0, 1.9))
        assert sum(masses.as_tuple()) == pytest.approx(1.0, abs=1e-14)

    def test_relation_defect_small_on_constructed(self, rng):
        for triple in draw_admissible_triples(rng, 50):
            shape = shape_from_masses(triple)
            assert shape_mass_defect(shape, triple) < 1e-12

    def test_inconsistent_pair_detected(self):
        shape = shape_from_masses((1.0, 1.0, 1.0))
        check_shape_mass_pair(shape, (1.0, 1.0, 1.0))
        with pytest.raises(InconsistentPair):
            check_shape_mass_pair(shape, (0.3, 0.4, 0.3))

    def test_as_mass_triple_coercion(self):
        triple = as_mass_triple(MassVector((1.0, 1.0, 1.0)))
        assert triple.as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        with pytest.raises(InvalidConfiguration):
            as_mass_triple((1.0, 1.0))
        with pytest.raises(NotAdmissible):
            as_mass_triple((0.5, 0.49, 0.01))


class TestIsoscelesBound:
    def test_equal_masses(self):
        v = isosceles_bound_check(1.0, 1.0, 1.0)
        assert v.isosceles and v.bound_holds and v.admissible
        assert v.alpha_beta_gap == pytest.approx(0.0, abs=1e-14)

    def test_bound_boundary(self):
        # outer masses exactly four times the middle one sit on the boundary
        v = isosceles_bound_check(0.4, 0.1, 0.4)
        assert v.isosceles
        assert v.bound_margin == pytest.approx(0.0, abs=1e-16)
        assert not v.admissible

    def test_bound_violated(self):
        v = isosceles_bound_check(0.45, 0.08, 0.45)
        assert v.isosceles and not v.bound_holds and not v.admissible

    def test_isosceles_iff_equal_gaps(self, rng):
        for triple in draw_admissible_triples(rng, 50):
            v = isosceles_bound_check(*triple)
            gap_zero = v.alpha_beta_gap < 1e-10
            assert gap_zero == v.isosceles


class TestResidual:
    def test_constructed_rings_are_fixed_points(self, rng):
        for triple in draw_admissible_triples(rng, 50):
            mv = as_mass_triple(triple).mass_vector()
            ring = ring_from_shape(shape_from_masses(triple))
            res = fixed_point_residual(mv, ring)
            # near the admissibility boundary the 1/sin^2 factors amplify
            # the rounding of the recovered shape angles
            assert np.max(np.abs(res)) < 1e-11

    def test_residual_sum_cancels(self, rng):
        mv = MassVector((1.0, 2.0, 0.7))
        ring = RingConfiguration((0.0, 1.9, 4.1))
        res = fixed_point_residual(mv, ring)
        assert abs(float(np.sum(res))) <= 1e-15 * max(1.0, float(np.max(np.abs(res))))

    def test_perturbed_ring_has_residual(self):
        triple = as_mass_triple((1.0, 1.0, 1.0))
        shape = shape_from_masses(triple)
        ring = RingConfiguration((0.0, shape.alpha + 1e-3, shape.alpha + shape.beta))
        res = fixed_point_residual(triple.mass_vector(), ring)
        assert np.max(np.abs(res)) > 1e-6

    def test_regular_pentagon(self):
        mv = MassVector(tuple(1.0 for _ in range(5)))
        ring = RingConfiguration(tuple(2 * math.pi * k / 5 for k in range(5)))
        res = fixed_point_residual(mv, ring)
        assert np.max(np.abs(res)) < 1e-13

    def test_type_checks(self):
        mv = MassVector((1.0, 1.0, 1.0))
        with pytest.raises(InvalidConfiguration):
            fixed_point_residual(mv, (0.0, 2.0, 4.0))
        with pytest.raises(InvalidConfiguration):
            fixed_point_residual(MassVector((1.0, 1.0)), ring_from_shape(TriangleShape(2.0, 2.0)))


    @pytest.mark.parametrize("j, kind, longitudes", SINGULAR_RINGS)
    def test_singular_pair_raises(self, j, kind, longitudes):
        ring = unchecked(RingConfiguration, longitudes=longitudes)
        with pytest.raises(SingularConfiguration, match=singular_pair(1, j, kind)) as info:
            fixed_point_residual(MassVector((1.0, 1.0, 1.0)), ring)
        assert type(info.value) is SingularConfiguration


class TestNewtonSolver:
    @pytest.mark.parametrize("j, kind, longitudes", SINGULAR_RINGS)
    def test_singular_start_raises(self, j, kind, longitudes):
        start = unchecked(RingConfiguration, longitudes=longitudes)
        with pytest.raises(SingularConfiguration, match=singular_pair(1, j, kind)) as info:
            solve_fixed_point_numeric(MassVector((1.0, 1.0, 1.0)), start)
        assert type(info.value) is SingularConfiguration

    def test_recovers_constructed_ring(self, rng):
        for triple in draw_admissible_triples(rng, 10):
            mv = as_mass_triple(triple).mass_vector()
            shape = shape_from_masses(triple)
            target = ring_from_shape(shape)
            # pull the start 5% toward the equilateral shape: additive
            # offsets can leave the ring wedge for near-boundary triples
            third = 2.0 * math.pi / 3.0
            a = shape.alpha + 0.05 * (third - shape.alpha)
            b = shape.beta + 0.05 * (third - shape.beta)
            start = RingConfiguration((0.0, a, a + b))
            solved = solve_fixed_point_numeric(mv, start)
            res = fixed_point_residual(mv, solved)
            assert np.max(np.abs(res)) < 1e-11
            assert max(
                abs(a - b) for a, b in zip(solved.longitudes, target.longitudes)
            ) < 1e-8

    def test_pentagon_recovered(self):
        mv = MassVector(tuple(1.0 for _ in range(5)))
        regular = tuple(2 * math.pi * k / 5 for k in range(5))
        start = RingConfiguration(
            tuple(p + d for p, d in zip(regular, (0.0, 0.03, -0.02, 0.04, -0.03)))
        )
        solved = solve_fixed_point_numeric(mv, start)
        assert max(abs(a - b) for a, b in zip(solved.longitudes, regular)) < 1e-9

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(fixedpoints, "NEWTON_MAX_ITERATIONS", 0)
        mv = MassVector((1.0, 1.0, 1.0))
        start = RingConfiguration((0.0, 1.8, 4.2))
        with pytest.raises(NoConvergence, match="after 0 iterations"):
            solve_fixed_point_numeric(mv, start)
