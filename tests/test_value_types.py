"""Every frozen value type of the package is built by one construction rule,
``geometry.frozen_value``: the fields positionally or by keyword, the
instance dict filled in one step, then ``__post_init__``."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from curvednbody import dynamics, fixedpoints, geometry, reduction, stability
from curvednbody.dynamics import GrowthFit, PhaseState, TrajectoryRecord
from curvednbody.fixedpoints import (
    AdmissibleMassTriple,
    IsoscelesVerdict,
    TriangleShape,
    isosceles_bound_check,
)
from curvednbody.geometry import TWO_PI, MassVector, RingConfiguration, SphereConfiguration
from curvednbody.reduction import (
    JacobiConstants,
    LyapunovCertificate,
    ReducedState,
    ReducedTrajectory,
    lyapunov_certificate,
)
from curvednbody.stability import (
    InvariantSplitting,
    LinearizationBlocks,
    StabilityReport,
    _BlockSpectra,
    invariant_subspaces,
    ring_pipeline,
    spectral_analysis,
)

VALUE_TYPES = sorted(
    (obj for module in (geometry, fixedpoints, dynamics, reduction, stability)
     for obj in vars(module).values()
     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
     and obj.__module__ == module.__name__),
    key=lambda cls: cls.__qualname__,
)

TRIPLE, SHAPE, RING, BLOCKS = ring_pipeline((0.25, 0.45, 0.3))
MV = TRIPLE.mass_vector()


def field_dict(value):
    return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}


# Field values of each type, in field order; the raw ones are normalized by
# the type's __post_init__.
SAMPLES = {
    MassVector: dict(masses=(1, 2, 3)),
    SphereConfiguration: dict(thetas=(1.0, 1.5, 2.0), phis=(0.0, 2.0, -2.0)),
    RingConfiguration: dict(longitudes=(1.0, 3.0, 5.0 + TWO_PI)),
    TriangleShape: dict(alpha=2, beta=2.5),
    AdmissibleMassTriple: dict(m1=1, m2=2, m3=1),
    IsoscelesVerdict: field_dict(isosceles_bound_check(1.0, 2.0, 1.0)),
    PhaseState: dict(thetas=[1.0, 1.5, 2.0], phis=(0.0, 2.0, 4.0),
                     pthetas=(0.1, 0.2, 0.3), pphis=np.array([0.4, 0.5, 0.6])),
    TrajectoryRecord: dict(times=np.arange(2.0), states=np.zeros((2, 12)),
                           energies=np.ones(2), momenta=np.ones(2), omega=0.5,
                           energy_drift=0.0, momentum_drift=0.0,
                           max_equator_deviation=0.0, min_separation_sine=0.5),
    GrowthFit: dict(omega=0.5, amplitude=1e-6, rate=0.3, expected_rate=None,
                    n_points=9, window=(1.0, 2.0), log_residual=0.0,
                    max_deviation=0.01, times=np.arange(3.0), deviations=np.ones(3)),
    JacobiConstants: field_dict(JacobiConstants.from_masses(TRIPLE)),
    ReducedState: dict(phi1=2.0, phi2=3.0, p1=0.1, p2=-0.2, momentum_level=0.5),
    LyapunovCertificate: field_dict(lyapunov_certificate(TRIPLE)),
    ReducedTrajectory: dict(times=np.arange(2.0), states=np.zeros((2, 4)),
                            energy_drift=0.0, momentum_level=0.5),
    LinearizationBlocks: dict(masses=MV, ring=RING, vertical=BLOCKS.vertical.tolist(),
                              tangential=BLOCKS.tangential.tolist()),
    StabilityReport: field_dict(spectral_analysis(BLOCKS, 0.7)),
    _BlockSpectra: field_dict(BLOCKS._spectra),
    InvariantSplitting: field_dict(invariant_subspaces(BLOCKS, 0.7)),
}


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for (name, x), y in zip(field_dict(a).items(), field_dict(b).values()):
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes() and x.shape == y.shape, name
        elif dataclasses.is_dataclass(x):
            assert_same_fields(x, y)
        else:
            assert x == y, name


def has_array(value):
    return any(isinstance(v, np.ndarray) for v in field_dict(value).values())


def test_every_value_type_has_a_sample():
    assert set(VALUE_TYPES) == set(SAMPLES)
    assert len(VALUE_TYPES) == 17


@pytest.mark.parametrize("cls", VALUE_TYPES, ids=lambda cls: cls.__qualname__)
class TestConstructionRule:
    def test_is_a_frozen_dataclass_without_a_generated_init(self, cls):
        params = cls.__dataclass_params__
        assert params.frozen and not params.init

    def test_positional_and_keyword_construction_agree(self, cls):
        kw = SAMPLES[cls]
        by_position, by_keyword = cls(*kw.values()), cls(**kw)
        names = [f.name for f in dataclasses.fields(cls)]
        assert list(vars(by_position)) == list(vars(by_keyword)) == names
        assert_same_fields(by_position, by_keyword)
        assert repr(by_position) == repr(by_keyword)
        assert_same_fields(cls(**field_dict(by_keyword)), by_keyword)

    def test_equality_and_hash_follow_the_fields(self, cls):
        kw = SAMPLES[cls]
        a, b = cls(*kw.values()), cls(**kw)
        if cls is LinearizationBlocks:
            return  # its read-only array copies compare elementwise
        assert a == b
        try:
            hashes = hash(a), hash(b)
        except TypeError:  # an array field, or the splitting's blocks
            assert has_array(a) or cls is InvariantSplitting
        else:
            assert hashes[0] == hashes[1]

    def test_replace_builds_through_the_rule(self, cls):
        kw = SAMPLES[cls]
        value = cls(**kw)
        assert_same_fields(dataclasses.replace(value), value)
        assert_same_fields(dataclasses.replace(value, **kw), cls(**kw))

    def test_fields_are_frozen(self, cls):
        value = cls(**SAMPLES[cls])
        for name in SAMPLES[cls]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, 1.0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        assert_same_fields(value, cls(**SAMPLES[cls]))

    def test_missing_or_extra_argument_is_a_type_error(self, cls):
        kw = SAMPLES[cls]
        first = next(iter(kw))
        with pytest.raises(TypeError):
            cls(**{k: v for k, v in kw.items() if k != first})
        with pytest.raises(TypeError):
            cls(*kw.values(), 0.0)
        with pytest.raises(TypeError):
            cls(**kw, extra=0.0)

    def test_pickle_round_trip(self, cls):
        value = cls(**SAMPLES[cls])
        back = pickle.loads(pickle.dumps(value))
        assert_same_fields(back, value)
        assert repr(back) == repr(value)


def test_post_init_still_normalizes():
    masses = MassVector((1, 2, 3)).masses
    assert masses == (1.0, 2.0, 3.0) and all(type(m) is float for m in masses)
    ring = RingConfiguration((1.0, 3.0, 5.0 + TWO_PI))
    assert ring.longitudes == (0.0, 2.0, math.fmod(5.0 + TWO_PI - 1.0, TWO_PI))
    assert all(type(p) is float for p in ring.longitudes)
    assert SphereConfiguration((1.0, 1.5, 2.0), (0.0, 2.0, -2.0)).phis == (
        0.0, 2.0, TWO_PI - 2.0)
    assert AdmissibleMassTriple(1, 2, 1).as_tuple() == (0.25, 0.5, 0.25)
    assert PhaseState(**SAMPLES[PhaseState]).pphis == (0.4, 0.5, 0.6)
    blocks = LinearizationBlocks(**SAMPLES[LinearizationBlocks])
    assert blocks.vertical.tobytes() == BLOCKS.vertical.tobytes()
    assert not blocks.vertical.flags.writeable
    assert ReducedState(2.0, 3.0, 0.1, -0.2).momentum_level == 0.0
