"""Shared fixtures: the default network geometry and its channel state.

Also registers the hypothesis profile `ci` (400 examples per property
test; select it with `--hypothesis-profile=ci`).
"""

import pytest

from ehcoop import NetworkConfig
from ehcoop.network import derive_channels

try:
    from hypothesis import settings
except ImportError:     # the property tests then fail to import on their own
    pass
else:
    settings.register_profile("ci", max_examples=400)


@pytest.fixture(scope="session")
def default_cfg():
    # d1 = du = 1, d2 = 2, X1 = X2 = 100 mW, eta = 0.75, unit weights
    return NetworkConfig()


@pytest.fixture(scope="session")
def default_ch(default_cfg):
    return derive_channels(default_cfg)
