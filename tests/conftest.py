"""Shared fixtures: the default network geometry and its channel state."""

import pytest

from ehcoop import NetworkConfig
from ehcoop.network import derive_channels


@pytest.fixture(scope="session")
def default_cfg():
    # d1 = du = 1, d2 = 2, X1 = X2 = 100 mW, eta = 0.75, unit weights
    return NetworkConfig()


@pytest.fixture(scope="session")
def default_ch(default_cfg):
    return derive_channels(default_cfg)
