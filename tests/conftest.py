import numpy as np
import pytest

from curvednbody.fixedpoints import admissibility_value

SAMPLE_SEED = 20240817


def draw_admissible_triples(rng, count):
    """Rejection-sample unit-sum mass triples inside the admissible region."""
    out = []
    while len(out) < count:
        m1, m2 = rng.uniform(0.0, 1.0, 2)
        m3 = 1.0 - m1 - m2
        if m3 <= 0.0:
            continue
        if admissibility_value(m1, m2, m3) < 0.0:
            out.append((m1, m2, m3))
    return out


@pytest.fixture(scope="session")
def triples_1000():
    rng = np.random.default_rng(SAMPLE_SEED)
    return draw_admissible_triples(rng, 1000)


@pytest.fixture
def rng():
    return np.random.default_rng(999)


def singular_pair(i, j, kind):
    """Pattern of the one singular-pair message, bodies numbered from 1."""
    return r"^bodies %d and %d at %s \(separation sine [^)]+\)$" % (i, j, kind)


def unchecked(cls, **fields):
    """An instance of a frozen dataclass built without running its checks."""
    obj = cls.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
