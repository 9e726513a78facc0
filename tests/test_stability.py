import dataclasses
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from curvednbody.dynamics import (
    PhaseState,
    growth_rate_experiment,
    integrate,
    make_field,
    relative_equilibrium,
)
from curvednbody.errors import (
    DegenerateSpectrum,
    InvalidConfiguration,
    NotAFixedPoint,
    PolarSingularity,
)
from curvednbody.fixedpoints import (
    as_mass_triple,
    is_admissible,
    ring_from_shape,
    shape_from_masses,
    solve_fixed_point_numeric,
)
from curvednbody.geometry import MassVector, RingConfiguration
from curvednbody.reduction import lyapunov_certificate
from curvednbody.stability import (
    VERDICT_BOUNDARY,
    VERDICT_FIXED_POINT,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    LinearizationBlocks,
    StabilityReport,
    _block_spectra,
    assemble_L_from_blocks,
    assemble_L_general,
    assemble_blocks,
    classify,
    invariant_subspaces,
    lambda1_closed_form,
    null_structure_check,
    omega_critical,
    rate_square,
    rate_verdict,
    ring_pipeline,
    spectral_analysis,
    vertical_mode,
)

from conftest import CENTRE, EDGE_RAYS, SKEW, draw_admissible_triples

LAMBDA1_EQUAL = 8.0 * math.sqrt(3.0) / 9.0

EQUAL = as_mass_triple((1.0, 1.0, 1.0))


RING_EQUAL = ring_from_shape(shape_from_masses(EQUAL))


def equal_mass_blocks():
    return assemble_blocks(EQUAL.mass_vector(), RING_EQUAL)


def assert_spectra_match(got, want, tol):
    """Multiset comparison: sorting complex spectra elementwise is brittle
    when rounding noise scrambles the order of nearly equal entries."""
    remaining = [complex(w) for w in want]
    assert len(got) == len(remaining)
    for g in got:
        best = min(range(len(remaining)), key=lambda i: abs(g - remaining[i]))
        assert abs(g - remaining[best]) < tol, (g, remaining)
        del remaining[best]


class TestAssembleBlocks:
    def test_rejects_non_fixed_point(self):
        mv = EQUAL.mass_vector()
        ring = RingConfiguration((0.0, 2.1, 4.2))
        with pytest.raises(NotAFixedPoint):
            assemble_blocks(mv, ring)
        blocks = assemble_blocks(mv, ring, residual_tol=math.inf)
        assert blocks.vertical.shape == (3, 3)

    def test_non_finite_residual_is_not_a_fixed_point(self):
        # m_i m_j overflows, so every residual entry is inf - inf = nan
        ring = ring_from_shape(shape_from_masses(EQUAL))
        with pytest.raises(NotAFixedPoint) as info:
            assemble_blocks(MassVector((1e200, 1e200, 1e200)), ring)
        assert str(info.value) == "ring misses the fixed-point equations by nan"
        with pytest.raises(NotAFixedPoint):
            assemble_blocks(MassVector((1e200, 1e200, 1e200)), ring, math.inf)

    def test_equal_mass_frozen_entries(self):
        # unit-sum equal masses: every pair coupling is 8/(27 sqrt(3))
        blocks = equal_mass_blocks()
        h = 8.0 / (27.0 * math.sqrt(3.0))
        expected_vertical = h * np.ones((3, 3))
        assert np.max(np.abs(blocks.vertical - expected_vertical)) < 1e-15
        expected_tangential = h * (np.ones((3, 3)) - 3.0 * np.eye(3))
        assert np.max(np.abs(blocks.tangential - expected_tangential)) < 1e-15

    def test_null_structure(self, rng):
        for triple in draw_admissible_triples(rng, 50):
            mv = as_mass_triple(triple).mass_vector()
            ring = ring_from_shape(shape_from_masses(triple))
            checks = null_structure_check(assemble_blocks(mv, ring))
            assert max(checks.values()) < 1e-12

    def test_null_vectors_are_coordinates(self):
        # the check applies V to the ring's x and y coordinates and T to the
        # all-ones vector: blocks w w^T, w = x cross y, and the uniform
        # vector's complement pass it, and adding a coordinate to them fails it
        ring = ring_from_shape(shape_from_masses((0.2, 0.5, 0.3)))
        x, y = np.cos(ring.longitudes), np.sin(ring.longitudes)
        w = np.cross(x, y)
        flat = np.eye(3) - np.ones((3, 3)) / 3.0
        for bump, worst in ((0.0, 8 * np.finfo(float).eps), (1.0, 0.1)):
            checks = null_structure_check(LinearizationBlocks(
                RING.masses, ring, np.outer(w, w) + bump * np.outer(x, x),
                flat + bump * np.outer(y, y)))
            assert (max(checks.values()) <= worst) == (bump == 0.0)


class TestSpectralAnalysis:
    def test_equal_mass_eigenvalues(self):
        rep = spectral_analysis(equal_mass_blocks(), 0.0)
        assert rep.lambda1 == pytest.approx(LAMBDA1_EQUAL, abs=1e-13)
        assert rep.vertical_eigenvalues[0] == pytest.approx(0.0, abs=1e-13)
        assert rep.vertical_eigenvalues[1] == pytest.approx(0.0, abs=1e-13)
        assert rep.tangential_eigenvalues[0] == pytest.approx(-LAMBDA1_EQUAL, abs=1e-13)
        assert rep.tangential_eigenvalues[1] == pytest.approx(-LAMBDA1_EQUAL, abs=1e-13)
        assert rep.tangential_eigenvalues[2] == pytest.approx(0.0, abs=1e-13)
        assert rep.omega_critical == pytest.approx(math.sqrt(LAMBDA1_EQUAL), abs=1e-13)

    def test_patterns_on_samples(self, rng):
        for triple in draw_admissible_triples(rng, 100):
            mv = as_mass_triple(triple).mass_vector()
            ring = ring_from_shape(shape_from_masses(triple))
            rep = spectral_analysis(assemble_blocks(mv, ring), 0.7)
            assert rep.lambda1 > 0.0
            assert rep.verdict in (VERDICT_UNSTABLE, VERDICT_BOUNDARY, VERDICT_STABLE)

    def test_degenerate_pattern_rejected(self):
        ring = ring_from_shape(shape_from_masses(EQUAL))
        broken = LinearizationBlocks(
            masses=EQUAL.mass_vector(),
            ring=ring,
            vertical=np.eye(3),
            tangential=np.eye(3),
        )
        with pytest.raises(DegenerateSpectrum):
            spectral_analysis(broken, 0.0)
        # a failed check is not cached: the next call raises again
        with pytest.raises(DegenerateSpectrum):
            spectral_analysis(broken, 1.0)

    def test_verdict_thresholds(self):
        blocks = equal_mass_blocks()
        crit = spectral_analysis(blocks, 0.0).omega_critical
        assert spectral_analysis(blocks, 0.0).verdict == VERDICT_FIXED_POINT
        assert spectral_analysis(blocks, crit).verdict == VERDICT_BOUNDARY
        assert spectral_analysis(blocks, crit - 1e-4).verdict == VERDICT_UNSTABLE
        assert spectral_analysis(blocks, crit + 1e-4).verdict == VERDICT_STABLE
        assert spectral_analysis(blocks, 1.2).verdict == VERDICT_UNSTABLE
        assert spectral_analysis(blocks, 1.3).verdict == VERDICT_STABLE

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_has_no_verdict(self, omega):
        with pytest.raises(InvalidConfiguration):
            rate_verdict(omega, LAMBDA1_EQUAL)
        with pytest.raises(InvalidConfiguration):
            spectral_analysis(equal_mass_blocks(), omega)
        with pytest.raises(InvalidConfiguration):
            assemble_L_from_blocks(equal_mass_blocks(), omega)
        with pytest.raises(InvalidConfiguration):
            invariant_subspaces(equal_mass_blocks(), omega)

    @pytest.mark.parametrize("omega", [1e200, -1e155])
    def test_rate_whose_square_overflows_has_no_verdict(self, omega):
        with pytest.raises(InvalidConfiguration, match="square"):
            rate_verdict(omega, LAMBDA1_EQUAL)
        with pytest.raises(InvalidConfiguration):
            spectral_analysis(equal_mass_blocks(), omega)
        with pytest.raises(InvalidConfiguration):
            assemble_L_from_blocks(equal_mass_blocks(), omega)
        with pytest.raises(InvalidConfiguration):
            invariant_subspaces(equal_mass_blocks(), omega)

    def test_unstable_exponent(self):
        blocks = equal_mass_blocks()
        rep = spectral_analysis(blocks, 1.2)
        assert rep.unstable_exponent == pytest.approx(
            math.sqrt(LAMBDA1_EQUAL - 1.44), abs=1e-12
        )
        assert spectral_analysis(blocks, 1.3).unstable_exponent == 0.0

    @pytest.mark.parametrize("omega", [1, np.float64(0.7), -0.0])
    def test_report_takes_the_rate_as_a_float(self, omega):
        rep = spectral_analysis(equal_mass_blocks(), omega)
        assert type(rep.omega) is float
        assert rep.omega.hex() == float(omega).hex()
        assert len(dataclasses.fields(rep)) == 9
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.verdict = VERDICT_STABLE

    def test_analytic_spectrum_structure(self):
        rep = spectral_analysis(equal_mass_blocks(), 1.3)
        assert len(rep.spectrum) == 6
        assert max(abs(z.real) for z in rep.spectrum) < 1e-12
        rep0 = spectral_analysis(equal_mass_blocks(), 0.0)
        reals = sorted(z.real for z in rep0.spectrum)
        assert reals[-1] == pytest.approx(math.sqrt(LAMBDA1_EQUAL), abs=1e-12)

    def test_closed_form_matches_trace(self, rng):
        for triple in draw_admissible_triples(rng, 100):
            mv = as_mass_triple(triple).mass_vector()
            shape = shape_from_masses(triple)
            blocks = assemble_blocks(mv, ring_from_shape(shape))
            trace = float(
                np.sum(np.diag(blocks.vertical) / blocks.mass_diagonal)
            )
            closed = lambda1_closed_form(shape, triple)
            assert closed == pytest.approx(trace, rel=1e-11)

    def test_vertical_mode_shares_the_spectra_error(self):
        broken = LinearizationBlocks(EQUAL.mass_vector(), RING_EQUAL, np.eye(3), np.eye(3))
        with pytest.raises(DegenerateSpectrum) as want:
            spectral_analysis(broken)
        with pytest.raises(DegenerateSpectrum) as got:
            vertical_mode(broken)
        assert str(got.value) == str(want.value)

    def test_vertical_mode_is_eigenvector(self):
        blocks = equal_mass_blocks()
        lam, u = vertical_mode(blocks)
        resid = blocks.vertical @ (u / blocks.mass_diagonal) - lam * u
        assert np.max(np.abs(resid)) < 1e-12 * lam

    def test_classify_and_omega_critical(self):
        rep = classify((1.0, 1.0, 1.0), 1.2)
        assert rep.verdict == VERDICT_UNSTABLE
        assert omega_critical((1.0, 1.0, 1.0)) == pytest.approx(
            math.sqrt(LAMBDA1_EQUAL), abs=1e-12
        )


class TestFlowMatrix:
    def test_spectrum_matches_analytic(self):
        blocks = equal_mass_blocks()
        for om in (0.0, 0.8, 1.3):
            L = assemble_L_from_blocks(blocks, om)
            rep = spectral_analysis(blocks, om)
            eigs = np.linalg.eigvals(L)
            # the analytic transverse spectrum plus the symmetry modes
            expected = list(rep.spectrum)
            if om == 0.0:
                expected += [0.0] * 6
            else:
                expected += [1j * om, -1j * om] * 2 + [0.0, 0.0]
            # the rank-deficient symmetry part perturbs like sqrt(eps), so
            # the matching tolerance stays well above 1e-8
            assert_spectra_match(eigs, expected, 1e-6)

    def test_hamiltonian_antisymmetry(self, rng):
        blocks = equal_mass_blocks()
        L = assemble_L_from_blocks(blocks, 1.1)
        J = SKEW
        for _ in range(10):
            v = rng.normal(size=12)
            w = rng.normal(size=12)
            assert v @ J @ (L @ w) == pytest.approx(-(L @ v) @ J @ w, abs=1e-12)

    def test_general_matches_blocks_at_rest(self, rng):
        for triple in draw_admissible_triples(rng, 10):
            mv = as_mass_triple(triple).mass_vector()
            ring = ring_from_shape(shape_from_masses(triple))
            blocks = assemble_blocks(mv, ring)
            for om in (0.0, 1.2):
                state = relative_equilibrium(mv, ring, om)
                Lg = assemble_L_general(mv, state)
                Lb = assemble_L_from_blocks(blocks, om)
                scale = max(1.0, float(np.max(np.abs(Lb))))
                assert np.max(np.abs(Lg - Lb)) < 1e-12 * scale

    def test_general_matches_field_jacobian(self, rng):
        mv = MassVector((0.8, 1.2, 0.6))
        field = make_field(mv, 0.0)
        eps = 1e-6
        for _ in range(5):
            x = np.concatenate(
                [
                    rng.uniform(0.7, 2.4, 3),
                    [0.0, 2.2, 4.3] + rng.uniform(-0.2, 0.2, 3),
                    rng.normal(0.0, 0.3, 6),
                ]
            )
            state = PhaseState.from_vector(x)
            L = assemble_L_general(mv, state)
            fd = np.empty((12, 12))
            for k in range(12):
                d = np.zeros(12)
                d[k] = eps
                fd[:, k] = (field(x + d) - field(x - d)) / (2 * eps)
            assert np.max(np.abs(fd - L)) / np.max(np.abs(L)) < 1e-6

    def test_general_polar_guard(self):
        # a PhaseState cannot hold this colatitude, so the state is duck-typed
        state = types.SimpleNamespace(
            n=3,
            thetas=(1e-12, 1.5, 1.6),
            phis=(0.0, 2.1, 4.2),
            pthetas=(0.0, 0.0, 0.0),
            pphis=(0.1, 0.2, 0.3),
        )
        with pytest.raises(PolarSingularity, match="body 1 at the polar guard"):
            assemble_L_general(MassVector((1.0, 1.0, 1.0)), state)


class TestSkewProduct:
    def test_canonical_pairing(self):
        # v @ J @ w pairs each position with its momentum: positions first
        J = SKEW
        assert not J.flags.writeable
        e = np.eye(12)
        assert e[0] @ J @ e[6] == -1.0
        assert e[6] @ J @ e[0] == 1.0
        assert e[0] @ J @ e[1] == 0.0
        assert np.array_equal(J.T, -J) and np.array_equal(J @ J, -np.eye(12))


class TestInvariantSubspaces:
    def test_dimensions(self):
        split = invariant_subspaces(equal_mass_blocks(), 0.9)
        assert split.symmetry_basis.shape == (12, 6)
        assert split.rotation_basis.shape == (12, 2)
        assert split.transverse_basis.shape == (12, 6)
        assert split.reduced_basis.shape == (12, 10)

    def test_invariance_residuals(self, rng):
        for triple in draw_admissible_triples(rng, 10):
            mv = as_mass_triple(triple).mass_vector()
            ring = ring_from_shape(shape_from_masses(triple))
            blocks = assemble_blocks(mv, ring)
            for om in (0.0, 1.25):
                split = invariant_subspaces(blocks, om)
                assert split.symmetry_residual < 1e-12
                assert split.transverse_residual < 1e-12
                assert split.reduced_residual < 1e-12

    def test_nilpotent_only_at_zero(self):
        blocks = equal_mass_blocks()
        at_zero = invariant_subspaces(blocks, 0.0)
        assert at_zero.nilpotent_residual is not None
        assert at_zero.nilpotent_residual < 1e-12
        rotating = invariant_subspaces(blocks, 1.0)
        assert rotating.nilpotent_residual is None

    def test_transverse_spectrum_matches_analytic(self):
        blocks = equal_mass_blocks()
        for om in (0.0, 1.2, 1.3):
            split = invariant_subspaces(blocks, om)
            rep = spectral_analysis(blocks, om)
            assert_spectra_match(split.transverse_spectrum, rep.spectrum, 1e-8)

    def test_reduced_spectrum_imaginary_when_stable(self):
        split = invariant_subspaces(equal_mass_blocks(), 1.3)
        assert max(abs(z.real) for z in split.reduced_spectrum) < 1e-9

    def test_reduced_spectrum_sees_instability(self):
        split = invariant_subspaces(equal_mass_blocks(), 0.5)
        top = max(z.real for z in split.reduced_spectrum)
        rep = spectral_analysis(equal_mass_blocks(), 0.5)
        assert top == pytest.approx(rep.unstable_exponent, abs=1e-8)


def fresh_blocks(triple):
    mv = as_mass_triple(triple).mass_vector()
    return assemble_blocks(mv, ring_from_shape(shape_from_masses(triple)))


def split_fields(split):
    bases = (
        split.symmetry_basis,
        split.rotation_basis,
        split.transverse_basis,
        split.reduced_basis,
    )
    return tuple(b.tobytes() for b in bases) + (
        split.symmetry_residual,
        split.transverse_residual,
        split.reduced_residual,
        split.transverse_spectrum,
        split.reduced_spectrum,
        split.nilpotent_residual,
    )


class TestRateIndependentCache:
    """Reusing one LinearizationBlocks across rates gives the results of fresh ones."""

    def test_spectral_analysis_reuse_matches_fresh(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            shared = fresh_blocks(triple)
            crit = spectral_analysis(shared, 0.0).omega_critical
            rates = [0.0, crit, crit - 1e-4, crit + 1e-4, -0.7, 0.5 * crit, 2.0 * crit]
            for om in rates:
                got = spectral_analysis(shared, om)
                want = spectral_analysis(fresh_blocks(triple), om)
                for field in dataclasses.fields(want):
                    name = field.name
                    assert getattr(got, name) == getattr(want, name), name

    def test_invariant_subspaces_reuse_matches_fresh(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            shared = fresh_blocks(triple)
            crit = spectral_analysis(shared, 0.0).omega_critical
            for om in (0.0, 0.5 * crit, 1.5 * crit):
                got = split_fields(invariant_subspaces(shared, om))
                want = split_fields(invariant_subspaces(fresh_blocks(triple), om))
                assert got == want

    def test_arrays_are_read_only(self):
        blocks = equal_mass_blocks()
        for arr in (blocks.vertical, blocks.tangential, blocks.mass_diagonal):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
        split = invariant_subspaces(blocks, 0.9)
        for basis in (
            split.symmetry_basis,
            split.rotation_basis,
            split.transverse_basis,
            split.reduced_basis,
        ):
            assert not basis.flags.writeable

    def test_constructor_copies_the_callers_arrays(self):
        ring = ring_from_shape(shape_from_masses(EQUAL))
        mine = np.eye(3)
        blocks = LinearizationBlocks(
            masses=EQUAL.mass_vector(),
            ring=ring,
            vertical=mine,
            tangential=mine,
        )
        assert blocks.vertical is not mine
        assert not blocks.vertical.flags.writeable
        assert mine.flags.writeable
        assert np.array_equal(mine, np.eye(3))

    def test_mass_diagonal_is_read_from_the_masses(self):
        mv = MassVector((0.2, 0.5, 0.3))
        ring = ring_from_shape(shape_from_masses(mv))
        blocks = LinearizationBlocks(mv, ring, np.eye(3), np.eye(3))
        assert blocks.mass_diagonal.tobytes() == mv.array().tobytes()
        assert blocks.mass_diagonal is blocks.mass_diagonal
        assert not blocks.mass_diagonal.flags.writeable
        with pytest.raises(dataclasses.FrozenInstanceError):
            blocks.mass_diagonal = np.ones(3)
        with pytest.raises(TypeError):
            LinearizationBlocks(mv, ring, np.eye(3), np.eye(3), mass_diagonal=np.ones(3))

    def test_vertical_mode_after_analysis_matches_fresh(self, rng):
        for triple in draw_admissible_triples(rng, 5):
            shared = fresh_blocks(triple)
            spectral_analysis(shared, 0.3)
            lam, u = vertical_mode(shared)
            lam_fresh, u_fresh = vertical_mode(fresh_blocks(triple))
            assert lam == lam_fresh
            assert u.tobytes() == u_fresh.tobytes()
            assert u.flags.writeable
            u[0] = 0.0
            assert vertical_mode(shared)[1].tobytes() == u_fresh.tobytes()


EPS = np.finfo(float).eps
# the roundings of a closed form of a few terms, or the backward error of
# numpy's eigh on a 3-by-3 symmetric matrix, in units of eps times its norm
SLACK = 12.0
GAPS = np.array([[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])


def exact_parts(blocks):
    """The mass-weighted blocks S_V and S_T, and the parts that the closed
    forms of ``_block_spectra`` diagonalize exactly: tr(S_V) y y^T along
    y = w / sqrt(m) / |w / sqrt(m)|, and the weighted A^T H A with the gap
    Hessian H = [[T11, -T13], [-T13, T33]] read off T.  Each eigenvalue of a
    block lies within the 2-norm of its difference from its part (Weyl)."""
    root = np.sqrt(blocks.mass_diagonal)

    def weighted(block):
        return block / root[:, None] / root[None, :]

    sv, t = weighted(blocks.vertical), blocks.tangential
    y = vertical_mode(blocks)[1] / root
    hess = np.array([[t[0, 0], -t[0, 2]], [-t[0, 2], t[2, 2]]])
    return sv, np.trace(sv) * np.outer(y, y), weighted(t), weighted(GAPS.T @ hess @ GAPS)


def assert_spectra_near_eigh(blocks):
    """The closed-form block spectra against numpy's eigh of the
    mass-weighted blocks, within the Weyl bound of ``exact_parts`` plus
    SLACK eps times the block's norm."""
    rep = spectral_analysis(blocks)
    sv, sv0, st_, st0 = exact_parts(blocks)
    for got, block, part in (
        (rep.vertical_eigenvalues, sv, sv0),
        (sorted(rep.tangential_eigenvalues), st_, st0),
    ):
        bound = np.linalg.norm(block - part, 2) + SLACK * EPS * np.linalg.norm(block, 2)
        assert np.max(np.abs(np.linalg.eigvalsh(block) - got)) <= bound, (got, bound)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.tuples(*[st.floats(0.01, 1.0)] * 3))
def test_vertical_mode_is_the_top_eigenpair_of_a_fresh_solve(masses):
    # the closed-form pair against eigh's top pair: the eigenvalue within
    # the Weyl bound, y = u / sqrt(m) within the Davis-Kahan bound of its
    # distance delta over the gap lambda1 - delta, eigh's sign, a unit y
    assume(is_admissible(*masses).admissible)
    try:
        blocks = ring_pipeline(masses)[3]
    except NotAFixedPoint:
        reject()
    lam, u = vertical_mode(blocks)
    sv, sv0, _, _ = exact_parts(blocks)
    lams, vecs = np.linalg.eigh(sv)
    rounding = SLACK * EPS * np.linalg.norm(sv, 2)
    delta = np.linalg.norm(sv - sv0, 2) + rounding
    assert abs(lam - lams[-1]) <= delta
    y = u / np.sqrt(blocks.mass_diagonal)
    assert abs(np.linalg.norm(y) - 1.0) <= SLACK * EPS
    assert np.linalg.norm(y - vecs[:, -1]) <= 2.0 * delta / (lam - delta)
    assert np.all(u > 0.0)
    assert lam == spectral_analysis(blocks).lambda1


RING = ring_pipeline((0.2, 0.5, 0.3))[3]
# a tangential block with the null structure whose gap Hessian is indefinite
INDEFINITE = GAPS.T @ np.diag([1.0, -1.0]) @ GAPS


class TestBlockSpectraBookkeeping:
    """The checks of the closed-form block spectra: the null structure,
    lambda1's sign and the tangential roots' signs, each with its message."""

    @pytest.mark.parametrize(
        "vertical, tangential, message",
        [
            (RING.vertical + np.eye(3), RING.tangential,
             "vertical block misses a symmetry null vector by "),
            (RING.vertical, RING.tangential + np.eye(3),
             "tangential block misses a symmetry null vector by "),
            (-RING.vertical, RING.tangential,
             "vertical block has a nonpositive transverse mode"),
            (0.0 * RING.vertical, RING.tangential,
             "vertical block has a nonpositive transverse mode"),
            (RING.vertical, -RING.tangential,
             "tangential block has a nonnegative transverse mode"),
            (RING.vertical, INDEFINITE,
             "tangential block has a nonnegative transverse mode"),
        ],
    )
    def test_each_pattern_keeps_its_message(self, vertical, tangential, message):
        blocks = LinearizationBlocks(RING.masses, RING.ring, vertical, tangential)
        for call in (_block_spectra, spectral_analysis, vertical_mode):
            with pytest.raises(DegenerateSpectrum) as info:
                call(blocks)
            assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "vertical, message",
        [
            # an infinite entry gives an infinite image over an infinite norm
            (np.diag([math.inf, 1.0, 2.0]),
             "vertical block misses a symmetry null vector by nan"),
            # a nan entry gives nan images
            (np.diag([math.nan, 0.0, 0.0]),
             "vertical block misses a symmetry null vector by nan"),
        ],
    )
    def test_non_finite_blocks_are_degenerate(self, vertical, message):
        blocks = LinearizationBlocks(RING.masses, RING.ring, vertical, RING.tangential)
        with pytest.raises(DegenerateSpectrum) as info:
            _block_spectra(blocks)
        assert str(info.value).startswith(message)

    def test_lambda1_index_on_ring_blocks(self, rng):
        # lambda1 is the last vertical eigenvalue, the trace of V / m summed
        # in order; the zero modes are exact zeros; the pairs are +-i sqrt(-mu)
        for triple in draw_admissible_triples(rng, 20):
            blocks = fresh_blocks(triple)
            rep = spectral_analysis(blocks)
            v, m = blocks.vertical.tolist(), blocks.masses.masses
            trace = v[0][0] / m[0] + v[1][1] / m[1] + v[2][2] / m[2]
            assert rep.vertical_eigenvalues == (0.0, 0.0, trace) == (0.0, 0.0, rep.lambda1)
            big, small, zero = rep.tangential_eigenvalues
            assert big <= small < 0.0 and zero == 0.0
            pairs = [complex(0.0, math.sqrt(-mu)) for mu in (big, small)]
            assert rep.spectrum[2:] == (pairs[0], -pairs[0], pairs[1], -pairs[1])
            assert_spectra_near_eigh(blocks)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.tuples(*[st.floats(0.01, 10.0)] * 3), st.sampled_from(EDGE_RAYS + (None,)),
           st.floats(0.9, 1.0 - 1e-6))
    def test_float_bookkeeping_matches_numpy(self, masses, ray, fraction):
        # drawn triples, and triples near the boundary on the atlas edge rays,
        # with blocks built past the residual gate
        if ray is not None:
            d, reach = ray
            masses = tuple(CENTRE + fraction * reach * dk for dk in d)
        assume(is_admissible(*masses).admissible)
        assert_spectra_near_eigh(ring_pipeline(masses, math.inf)[3])


def numpy_flow_matrix(blocks, omega):
    """The flow matrix built whole with numpy, the centrifugal shift as
    V - omega^2 diag(m)."""
    n = 3
    m = blocks.mass_diagonal
    w2 = omega * omega
    L = np.zeros((4 * n, 4 * n))
    minv = np.diag(1.0 / m)
    L[0:n, 2 * n : 3 * n] = minv
    L[n : 2 * n, 3 * n : 4 * n] = minv
    L[2 * n : 3 * n, 0:n] = blocks.vertical - w2 * np.diag(m)
    L[3 * n : 4 * n, n : 2 * n] = blocks.tangential
    return L


class TestFlowMatrixCache:
    def test_matches_the_whole_construction_bit_for_bit(self, rng):
        for triple in draw_admissible_triples(rng, 20):
            blocks = fresh_blocks(triple)
            crit = spectral_analysis(blocks).omega_critical
            for om in (0.0, 1.5 * crit, -0.7, 0.5 * crit, 1e100):
                got = assemble_L_from_blocks(blocks, om)
                assert got.tobytes() == numpy_flow_matrix(blocks, om).tobytes()
                assert got.dtype == np.float64 and got.shape == (12, 12)

    def test_each_call_gets_its_own_writeable_copy(self):
        blocks = equal_mass_blocks()
        first = assemble_L_from_blocks(blocks, 0.3)
        assert first.flags.writeable
        assert not np.shares_memory(first, blocks.vertical)
        assert not np.shares_memory(first, blocks.tangential)
        first[:] = 7.0
        again = assemble_L_from_blocks(blocks, 0.3)
        assert again.tobytes() == numpy_flow_matrix(blocks, 0.3).tobytes()

    @pytest.mark.parametrize("omega", [math.nan, math.inf, 1e200])
    def test_rejected_rate_raises_before_anything_is_built(self, omega):
        blocks = equal_mass_blocks()
        with pytest.raises(InvalidConfiguration):
            assemble_L_from_blocks(blocks, omega)
        assert "_rows" not in vars(blocks)


LAPACK = ("eigh", "eigvalsh", "eig", "eigvals", "solve", "det", "inv", "svd", "qr")


def test_the_ring_path_makes_no_lapack_call(monkeypatch):
    calls = []
    for name in LAPACK:
        def spy(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    triple, _, ring, blocks = ring_pipeline((0.25, 0.45, 0.3))
    crit = spectral_analysis(blocks, 0.0).omega_critical
    for omega in (crit, 2.0 * crit):
        spectral_analysis(blocks, omega)
    vertical_mode(blocks)
    lyapunov_certificate(triple)
    p1, p2, p3 = ring.longitudes
    start = RingConfiguration((p1, p2 + 1e-3, p3 - 1e-3))
    solve_fixed_point_numeric(triple.mass_vector(), start)
    invariant_subspaces(blocks, 0.5 * crit).transverse_spectrum
    assert calls == []


@pytest.mark.parametrize("tol", [math.nan, 0.0, -0.0, -1.0, -math.inf])
def test_residual_tolerance_must_be_positive(tol):
    # -1 raised NotAFixedPoint for an exact ring, nan for every ring
    triple = as_mass_triple((0.2, 0.5, 0.3))
    ring = ring_from_shape(shape_from_masses(triple))
    message = "tolerance residual_tol must be positive"
    with pytest.raises(InvalidConfiguration, match=message):
        assemble_blocks(triple.mass_vector(), ring, tol)
    with pytest.raises(InvalidConfiguration, match=message):
        ring_pipeline((0.2, 0.5, 0.3), tol)


def test_infinite_residual_tolerance_builds_blocks_past_the_gate():
    mv = MassVector((0.2, 0.5, 0.3))
    off = RingConfiguration((0.0, 2.0, 4.0))
    with pytest.raises(NotAFixedPoint):
        assemble_blocks(mv, off)
    blocks = assemble_blocks(mv, off, math.inf)
    assert blocks.ring is off
    gated = ring_pipeline((0.2, 0.5, 0.3))[3]
    ungated = ring_pipeline((0.2, 0.5, 0.3), math.inf)[3]
    assert ungated.vertical.tobytes() == gated.vertical.tobytes()


def report_fields(report):
    return {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}


class TestReportConstruction:
    """Every StabilityReport holds what the package's one construction rule
    builds from its fields: ``spectral_analysis`` fills the five fields its
    blocks share and its rate's four in one step."""

    def test_spectral_report_is_the_report_of_its_fields(self):
        drawn = draw_admissible_triples(np.random.default_rng(36), 12)
        cases = [(equal_mass_blocks(), omega) for omega in (0.0, 0.7, 1.5)]
        for blocks in map(fresh_blocks, drawn):
            wc = spectral_analysis(blocks).omega_critical
            cases += [(blocks, f * wc) for f in (0.0, 0.5, 1.5, -0.8)]
            cases.append((blocks, np.float64(0.7 * wc)))
        for blocks, omega in cases:
            report = spectral_analysis(blocks, omega)
            rebuilt = StabilityReport(**report_fields(report))
            assert rebuilt == report
            assert hash(rebuilt) == hash(report)
            assert repr(rebuilt) == repr(report)
            assert list(report_fields(rebuilt)) == [
                "masses", "omega", "vertical_eigenvalues", "tangential_eigenvalues",
                "lambda1", "omega_critical", "verdict", "spectrum", "unstable_exponent",
            ]
            assert vars(rebuilt) == report_fields(report)
            assert list(vars(report)) == list(vars(rebuilt))
            assert type(report.omega) is float

    def test_replace_returns_a_report_with_the_change(self):
        report = spectral_analysis(equal_mass_blocks(), 0.7)
        changed = dataclasses.replace(report, verdict="changed", omega=2.0)
        assert type(changed) is StabilityReport
        assert (changed.verdict, changed.omega) == ("changed", 2.0)
        assert report_fields(changed) == dict(report_fields(report), verdict="changed", omega=2.0)
        assert changed != report

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(StabilityReport)])
    def test_fields_are_frozen(self, name):
        report = spectral_analysis(equal_mass_blocks(), 0.7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(report, name)
        assert report == spectral_analysis(equal_mass_blocks(), 0.7)


RATE_SITES = {
    "rate_square": rate_square,
    "spectral_analysis": lambda omega: spectral_analysis(equal_mass_blocks(), omega),
    "invariant_subspaces": lambda omega: invariant_subspaces(equal_mass_blocks(), omega),
    "make_field": lambda omega: make_field(EQUAL.mass_vector(), omega),
    "integrate": lambda omega: integrate(
        EQUAL.mass_vector(), relative_equilibrium(EQUAL.mass_vector(), RING_EQUAL, 1.0),
        horizon=0.01, omega=omega,
    ),
    "growth_rate_experiment": lambda omega: growth_rate_experiment(EQUAL, omega, horizon=1.0),
}


@pytest.mark.parametrize("site", RATE_SITES)
@pytest.mark.parametrize("kind", [float, np.float64, np.float32], ids=lambda k: k.__name__)
@pytest.mark.parametrize("value", [1e200, -1e200, math.nan, math.inf, -math.inf], ids=repr)
def test_rate_of_any_float_type_is_rejected_without_a_warning(site, kind, value):
    with np.errstate(over="ignore"):
        omega = kind(value)  # a float32 of 1e200 is inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidConfiguration) as want:
            rate_square(omega)
        with pytest.raises(InvalidConfiguration) as got:
            RATE_SITES[site](omega)
    assert str(got.value) == str(want.value)


def test_float32_rate_is_the_float_it_converts_to():
    # the square of np.float32(1e20) overflows as a float32, not as a float
    omega = np.float32(1e20)
    wide = float(omega)
    blocks = equal_mass_blocks()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert rate_square(omega) == wide * wide
        report = spectral_analysis(blocks, omega)
        split = invariant_subspaces(blocks, omega)
        reduced = split.reduced_spectrum
    assert type(report.omega) is float and report.omega == wide
    assert report == spectral_analysis(blocks, wide)
    assert split.transverse_spectrum == invariant_subspaces(blocks, wide).transverse_spectrum
    assert type(split._omega) is float
    assert reduced == invariant_subspaces(blocks, wide).reduced_spectrum


@pytest.mark.parametrize("site", ["rate_square", "spectral_analysis", "invariant_subspaces"])
def test_rate_that_is_not_a_number_is_a_type_error(site):
    # a rate is converted to float only after math.isfinite accepted it
    with pytest.raises(TypeError):
        RATE_SITES[site]("0.5")
