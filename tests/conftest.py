import numpy as np
import pytest

from levislice import catalog
from levislice.catalog import CATALOG


@pytest.fixture(autouse=True)
def cold_domains():
    """Each test starts with no domain built, so a test of the cold path
    means the same whatever ran before it."""
    catalog._built_domain.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def catalog_expressions():
    return [(spec.name, spec.rho) for spec in CATALOG.values()]


def random_point_in_box(rng, box):
    reals = box[:, 0] + rng.random(box.shape[0]) * (box[:, 1] - box[:, 0])
    return reals[0::2] + 1j * reals[1::2]
