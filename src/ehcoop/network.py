"""Physical layer of the two-user cooperative uplink.

Two energy-harvesting users U1 (near) and U2 (far) share a channel to a
destination D over a unit-length block.  U2 may route its data through U1
(decode-and-forward) and U1 may power-split its received RF signal to
harvest energy from U2's transmission; users can also beam energy to each
other directly.  This module holds the static geometry/radio parameters,
derives the channel gains and receiver SNR coefficients, and provides the
power-splitting harvest arithmetic used by the program builders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Energy arrival rates are configured in mW (equivalently mJ per block since
# the block length is 1).  The optimizer works in W and J so that gamma * P
# is a plain SNR with the noise powers expressed in W.
MILLIWATT = 1e-3


class RelayNotBeneficialError(ValueError):
    """The inter-user link cannot beat the far user's direct link.

    Relaying only pays off when the U2 -> U1 link stays stronger than the
    U2 -> D link after power splitting, which needs gamma_u > gamma_2.
    """


@dataclass(frozen=True)
class NetworkConfig:
    """Static parameters of the three-node network.

    Distances are in arbitrary but consistent units, noise powers in W,
    energy arrival rates in mW.  U1 is the user closer to the destination,
    so d1 <= d2 is required.
    """

    d1: float = 1.0          # U1 -> D distance
    d2: float = 2.0          # U2 -> D distance
    du: float = 1.0          # U1 <-> U2 distance
    alpha: float = 2.0       # path-loss exponent
    lam: float = 1.0         # channel gain at unit distance ("lambda" in config files)
    sigma2_D: float = 1e-4   # noise power at D, W
    sigma2_U1: float = 1e-4  # noise power at U1, W
    eta: float = 0.75        # RF energy harvesting efficiency, 0..1
    X1: float = 100.0        # ambient energy arrival rate at U1, mW
    X2: float = 100.0        # ambient energy arrival rate at U2, mW
    w1: float = 1.0          # throughput weight of U1
    w2: float = 1.0          # throughput weight of U2

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("d1", "d2", "du"):
            if getattr(self, name) <= 0:
                raise ValueError(f"distance {name} must be positive")
        if self.d1 > self.d2:
            raise ValueError("U1 must be the near user (d1 <= d2)")
        if self.alpha <= 0:
            raise ValueError("path-loss exponent must be positive")
        if self.lam <= 0:
            raise ValueError("unit-distance gain must be positive")
        for name in ("sigma2_D", "sigma2_U1"):
            if getattr(self, name) <= 0:
                raise ValueError(f"noise power {name} must be positive")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError("harvesting efficiency must lie in [0, 1]")
        if self.X1 < 0 or self.X2 < 0:
            raise ValueError("energy arrival rates must be nonnegative")
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError("throughput weights must be nonnegative")
        if self.w1 == 0 and self.w2 == 0:
            raise ValueError("at least one throughput weight must be positive")
        # a distance law or noise power out of a float's range would leave a
        # gain of 0 or inf, which no program can be built on
        ch = derive_channels(self)
        for kind, name, link in _CHANNEL_LINKS:
            value = getattr(ch, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{kind} {name} of the {link} link is {value:g}; "
                                 "it must be finite and positive")

    @property
    def x1_watt(self) -> float:
        """Arrival rate at U1 in W."""
        return self.X1 * MILLIWATT

    @property
    def x2_watt(self) -> float:
        """Arrival rate at U2 in W."""
        return self.X2 * MILLIWATT


@dataclass(frozen=True)
class ChannelState:
    """Channel gains and the SNR-per-watt coefficients derived from them."""

    h1: float       # U1 -> D power gain
    h2: float       # U2 -> D power gain
    hu: float       # U1 <-> U2 power gain (reciprocal)
    gamma1: float   # h1 / sigma2_D
    gamma2: float   # h2 / sigma2_D
    gamma_u: float  # hu / sigma2_U1, SNR coefficient of the inter-user link at U1


# every field of `ChannelState`, with the link it describes
_CHANNEL_LINKS = (
    ("channel gain", "h1", "U1 -> D"),
    ("channel gain", "h2", "U2 -> D"),
    ("channel gain", "hu", "U1 <-> U2"),
    ("SNR coefficient", "gamma1", "U1 -> D"),
    ("SNR coefficient", "gamma2", "U2 -> D"),
    ("SNR coefficient", "gamma_u", "U2 -> U1"),
)


def path_gain(distance: float, lam: float, alpha: float) -> float:
    """Distance-law power gain lam * d^-alpha (inf where d^-alpha overflows)."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    try:
        return lam * distance ** (-alpha)
    except OverflowError:
        return math.inf


def derive_channels(cfg: NetworkConfig) -> ChannelState:
    """Compute gains and SNR coefficients for a configuration."""
    h1 = path_gain(cfg.d1, cfg.lam, cfg.alpha)
    h2 = path_gain(cfg.d2, cfg.lam, cfg.alpha)
    hu = path_gain(cfg.du, cfg.lam, cfg.alpha)
    return ChannelState(
        h1=h1,
        h2=h2,
        hu=hu,
        gamma1=h1 / cfg.sigma2_D,
        gamma2=h2 / cfg.sigma2_D,
        gamma_u=hu / cfg.sigma2_U1,
    )


def rho_max(ch: ChannelState) -> float:
    """Largest power-splitting ratio that keeps the relay link useful.

    Splitting off a fraction rho for harvesting scales the inter-user SNR by
    (1 - rho); decode-and-forward needs the scaled link to stay above the
    direct link, so rho must stay strictly below 1 - gamma2/gamma_u.
    """
    if ch.gamma_u <= ch.gamma2:
        raise RelayNotBeneficialError(
            "inter-user link is no stronger than the direct link "
            f"(gamma_u={ch.gamma_u:.6g} <= gamma2={ch.gamma2:.6g})"
        )
    return 1.0 - ch.gamma2 / ch.gamma_u


def relay_feasible(ch: ChannelState) -> bool:
    """True when decode-and-forward relaying can outperform the direct link."""
    return ch.gamma_u > ch.gamma2
