"""Transfer-rate, capacity, and loss accounting for energy paths.

Carrying energy over a path costs one wireless charge-discharge cycle per
segment. Each cycle retains the round-trip fraction z of the energy, so a
path of k segments delivers z**k of what was injected: delivering x units
requires injecting x / z**k at the source and loses x * (1/z**k - 1) on the
way. Within a transfer window, the deliverable amount is further limited by
the time left once carrier vehicles have propagated down the path, and by
the packet rate the slowest segment's vehicle flow can sustain.

All quantities use kWh, hours, and vehicles per hour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .paths import EnergyPath


@dataclass(frozen=True)
class EnergyParams:
    """Physical parameters of a transfer: packet size, efficiencies, window."""

    packet_size: float  # kWh moved on/off one vehicle per cycle
    charge_efficiency: float  # fraction retained when charging, in (0, 1]
    discharge_efficiency: float  # fraction retained when discharging, in (0, 1]
    window: float  # hours available to complete the transfer

    def __post_init__(self) -> None:
        if not 0 < self.packet_size < math.inf:
            raise ValidationError("packet_size must be positive and finite")
        for name in ("charge_efficiency", "discharge_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValidationError(f"{name} must be within (0, 1]")
        if not 0 <= self.window < math.inf:
            raise ValidationError("window must be finite and nonnegative")

    @property
    def round_trip_efficiency(self) -> float:
        """Fraction of energy surviving one full charge-discharge cycle."""
        return self.charge_efficiency * self.discharge_efficiency

    @classmethod
    def with_round_trip(
        cls, packet_size: float, efficiency: float, window: float
    ) -> "EnergyParams":
        """Build params from the round-trip efficiency alone.

        Only the product of the two stage efficiencies enters any formula,
        so the split is arbitrary; attributing everything to the charging
        stage keeps the requested value exact.
        """
        return cls(
            packet_size=packet_size,
            charge_efficiency=efficiency,
            discharge_efficiency=1.0,
            window=window,
        )


def max_rate(path: EnergyPath, params: EnergyParams, penetration: float = 1.0) -> float:
    """Largest sustainable transfer rate in kWh per hour.

    Every segment caps the rate at one packet per participating vehicle, so
    the slowest segment's flow (scaled by the participation fraction) binds.
    """
    return params.packet_size * penetration * path.bottleneck_flow


def max_transferable(path: EnergyPath, params: EnergyParams, rate: float) -> float:
    """Upper bound in kWh on energy deliverable within the window at ``rate``.

    Whatever window time is left after propagation is spent transmitting at
    ``rate``; only the fraction z**hops of the injected energy arrives. A
    window shorter than the propagation delay leaves no capacity at all.
    """
    if rate < 0:
        raise ValueError("rate must be nonnegative")
    slack = params.window - path.delay
    if slack <= 0:
        return 0.0
    return slack * params.round_trip_efficiency**path.hops * rate


def loss_factor(params: EnergyParams, hops: int) -> float:
    """Energy lost per unit delivered over a path with ``hops`` cycles."""
    return 1.0 / params.round_trip_efficiency**hops - 1.0


def path_loss(path: EnergyPath, params: EnergyParams, energy: float) -> float:
    """kWh lost to charge-discharge cycles while delivering ``energy`` kWh."""
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return loss_factor(params, path.hops) * energy


def source_injection(path: EnergyPath, params: EnergyParams, energy: float) -> float:
    """kWh that must be injected at the source to deliver ``energy`` kWh.

    Equals the delivered energy plus the path loss.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return energy / params.round_trip_efficiency**path.hops


@dataclass(frozen=True)
class PathEconomics:
    """Per-path planning coefficients derived from one parameter set."""

    path: EnergyPath
    max_rate: float  # kWh per hour
    capacity: float  # kWh deliverable within the window at max rate
    loss_factor: float  # kWh lost per kWh delivered


def path_economics(
    path: EnergyPath, params: EnergyParams, penetration: float = 1.0
) -> PathEconomics:
    """Evaluate the rate limit, capacity, and loss factor of a path."""
    rate = max_rate(path, params, penetration)
    return PathEconomics(
        path=path,
        max_rate=rate,
        capacity=max_transferable(path, params, rate),
        loss_factor=loss_factor(params, path.hops),
    )


def economics_arrays(
    paths: Sequence[EnergyPath], params: EnergyParams, penetration: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rate, capacity and loss-factor arrays of ``paths``, in path order.

    The vector form of :func:`path_economics`, equal to it value for value:
    the arithmetic runs in the same order, and z**k and the loss factor come
    from the scalar formulas once per distinct hop count k, because numpy's
    SIMD power may round differently. Overflow leaves inf or nan in the
    arrays without a warning; the planner rejects non-finite capacities.
    """
    n = len(paths)
    hops = np.fromiter((p.hops for p in paths), dtype=np.int64, count=n)
    distinct, inverse = np.unique(hops, return_inverse=True)
    z = params.round_trip_efficiency
    retained = np.array([z**k for k in distinct.tolist()])[inverse]
    lams = np.array([loss_factor(params, k) for k in distinct.tolist()])[inverse]
    delays = np.fromiter((p.delay for p in paths), dtype=float, count=n)
    flows = np.fromiter((p.bottleneck_flow for p in paths), dtype=float, count=n)
    with np.errstate(all="ignore"):
        rates = (params.packet_size * penetration) * flows
        slack = params.window - delays
        caps = np.where(slack <= 0, 0.0, slack * retained * rates)
    return rates, caps, lams
