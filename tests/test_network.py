"""Channel derivation, harvest arithmetic and configuration validation."""

import math

import pytest

from ehcoop import NetworkConfig, SweepSpec
from ehcoop.network import (
    ChannelState,
    RelayNotBeneficialError,
    derive_channels,
    path_gain,
    relay_feasible,
    rho_max,
)


def test_default_channel_coefficients(default_ch):
    # unit distances at lam=1, alpha=2 give unit gains; d2=2 gives 2^-2
    assert default_ch.h1 == pytest.approx(1.0)
    assert default_ch.h2 == pytest.approx(0.25)
    assert default_ch.hu == pytest.approx(1.0)
    assert default_ch.gamma1 == pytest.approx(1e4)
    assert default_ch.gamma2 == pytest.approx(2500.0)
    assert default_ch.gamma_u == pytest.approx(1e4)


def test_path_gain_distance_law():
    assert path_gain(2.0, lam=3.0, alpha=2.0) == pytest.approx(0.75)
    assert path_gain(0.5, lam=1.0, alpha=2.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        path_gain(0.0, 1.0, 2.0)


def test_path_gain_overflow_is_infinite():
    assert path_gain(1e-200, lam=1.0, alpha=2.0) == math.inf
    assert path_gain(1e200, lam=1.0, alpha=2.0) == 0.0


def test_rho_max_default_geometry(default_ch):
    # 1 - gamma2/gamma_u = 1 - 2500/10000
    assert rho_max(default_ch) == pytest.approx(0.75)


def test_rho_max_requires_strong_interuser_link():
    cfg = NetworkConfig(du=3.0)  # inter-user link weaker than U2's direct link
    ch = derive_channels(cfg)
    assert not relay_feasible(ch)
    with pytest.raises(RelayNotBeneficialError):
        rho_max(ch)


def test_rho_max_approaches_one_when_direct_link_vanishes():
    ch = ChannelState(h1=1.0, h2=1e-12, hu=1.0,
                      gamma1=1e4, gamma2=1e-8, gamma_u=1e4)
    assert rho_max(ch) == pytest.approx(1.0)


def test_config_unit_conversion():
    cfg = NetworkConfig(X1=250.0, X2=40.0)
    assert cfg.x1_watt == pytest.approx(0.25)
    assert cfg.x2_watt == pytest.approx(0.04)


@pytest.mark.parametrize("kwargs", [
    {"d1": 0.0},
    {"d1": 3.0},            # near user must stay nearer than the far user
    {"du": -1.0},
    {"alpha": 0.0},
    {"lam": 0.0},
    {"sigma2_D": 0.0},
    {"eta": 1.5},
    {"X1": -1.0},
    {"w1": -0.5},
    {"w1": 0.0, "w2": 0.0},
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        NetworkConfig(**kwargs)


@pytest.mark.parametrize("name", ["d1", "d2", "du", "alpha", "lam", "sigma2_D", "sigma2_U1",
                                  "eta", "X1", "X2", "w1", "w2"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        NetworkConfig(**{name: value})


@pytest.mark.parametrize("field", ["start", "stop", "step"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_sweep_spec_rejects_non_finite_ranges(field, value):
    bounds = {"start": 0.2, "stop": 0.4, "step": 0.2, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SweepSpec("d1", **bounds)


# gains and SNR coefficients out of a float's range, each named with its link
@pytest.mark.parametrize("kwargs, message", [
    ({"d1": 1e-200}, "channel gain h1 of the U1 -> D link is inf"),
    ({"d2": 1e200}, "channel gain h2 of the U2 -> D link is 0"),
    ({"du": 1e-300}, "channel gain hu of the U1 <-> U2 link is inf"),
    ({"lam": 1e308, "d1": 0.5}, "channel gain h1 of the U1 -> D link is inf"),
    ({"lam": 1e-300, "alpha": 100.0}, "channel gain h2 of the U2 -> D link is 0"),
    ({"sigma2_D": 1e-320}, "SNR coefficient gamma1 of the U1 -> D link is inf"),
    ({"sigma2_U1": 1e-320}, "SNR coefficient gamma_u of the U2 -> U1 link is inf"),
])
def test_config_rejects_gains_out_of_range(kwargs, message):
    with pytest.raises(ValueError, match=message + "; it must be finite and positive"):
        NetworkConfig(**kwargs)


def test_config_allows_one_zero_weight():
    cfg = NetworkConfig(w1=0.0, w2=2.0)
    assert cfg.w1 == 0.0 and cfg.w2 == 2.0


def test_relay_feasible_boundary():
    # equal gains mean no decode advantage, so relaying is out
    ch = ChannelState(h1=1.0, h2=1.0, hu=1.0,
                      gamma1=1e4, gamma2=1e4, gamma_u=1e4)
    assert not relay_feasible(ch)
