import numpy as np
import pytest

import psde


@pytest.fixture
def unit_model():
    return psde.named_model("unit")


@pytest.fixture
def generic_model():
    return psde.named_model("smooth-generic")


@pytest.fixture
def additive_model():
    return psde.named_model("additive-sine")


def random_driving_path(rng, n=100, scale=1.0, a0=0.0):
    return np.concatenate(([a0], a0 + np.cumsum(rng.standard_normal(n) * scale)))
