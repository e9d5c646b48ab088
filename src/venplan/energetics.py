"""Transfer-rate, capacity, and loss accounting for energy paths.

Carrying energy over a path costs one wireless charge-discharge cycle per
segment. Each cycle retains the round-trip fraction z of the energy, so a
path of k segments delivers z**k of what was injected: delivering x units
requires injecting x / z**k at the source and loses x * (1/z**k - 1) on the
way. Within a transfer window, the deliverable amount is further limited by
the time left once carrier vehicles have propagated down the path, and by
the packet rate the slowest segment's vehicle flow can sustain.

:func:`path_economics`, the one pricing function, prices the whole
:class:`~venplan.paths.PathTable` that path enumeration returns for a pair
into rate, capacity and loss-factor arrays, from one z**k per distinct hop
count, which only :func:`_retained` computes, exactly and without libm.

All quantities use kWh, hours, and vehicles per hour.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FLOAT_MAX, ValidationError
from .paths import PathTable


@dataclass(frozen=True)
class EnergyParams:
    """Physical parameters of a transfer: packet size, efficiencies, window."""

    packet_size: float  # kWh moved on/off one vehicle per cycle
    charge_efficiency: float  # fraction retained when charging, in (0, 1]
    discharge_efficiency: float  # fraction retained when discharging, in (0, 1]
    window: float  # hours available to complete the transfer

    def __post_init__(self) -> None:
        if not 0.0 < self.packet_size <= FLOAT_MAX:
            raise ValidationError("packet_size must be positive and finite")
        for name in ("charge_efficiency", "discharge_efficiency"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValidationError(f"{name} must be within (0, 1]")
        if not 0.0 <= self.window <= FLOAT_MAX:
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


def _retained(params: EnergyParams, hops: int) -> float:
    """z**hops, the fraction of injected energy that arrives.

    Integer true division rounds the exact power once, as
    ``float(Fraction(z) ** hops)`` does and libm's ``pow`` need not, so z**k
    never rises with k. Raises ValidationError when it underflows to zero:
    nothing would arrive, and the energy to inject per unit would be unbounded.
    """
    numerator, denominator = params.round_trip_efficiency.as_integer_ratio()
    retained = numerator**hops / denominator**hops
    if retained == 0.0:
        raise ValidationError(
            f"round-trip efficiency {params.round_trip_efficiency!r} leaves no "
            f"energy after {hops} cycles"
        )
    return retained


def _check_penetration(penetration: float) -> None:
    if not 0 <= penetration <= 1:
        raise ValidationError("penetration must be within [0, 1]")


def path_economics(
    table: PathTable, params: EnergyParams, penetration: float = 1.0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rate, capacity and loss-factor arrays of the table's paths, in path order.

    A path's rate (kWh per hour) is one packet per participating vehicle of
    its slowest segment: packet size x penetration x bottleneck flow. Its
    capacity (kWh) is the window time left after propagation, spent at that
    rate, of which the fraction z**hops arrives; a window no longer than the
    path's delay leaves no capacity at all. Its loss factor, the energy lost
    per unit delivered, is ``1 / z**hops - 1``.

    z**k is evaluated once per distinct hop count k, correctly rounded, by
    :func:`_retained`; both the capacities and the loss factors take it
    from there. Overflow leaves inf or nan in the arrays without a warning;
    the planner rejects non-finite capacities. A penetration outside [0, 1]
    raises ValidationError.
    """
    _check_penetration(penetration)
    retained_k = [_retained(params, k) for k in table.distinct_hops]
    retained = np.array(retained_k)[table.hop_index]
    lams = np.array([1.0 / r - 1.0 for r in retained_k])[table.hop_index]
    with np.errstate(all="ignore"):
        rates = (params.packet_size * penetration) * table.flows
        slack = params.window - table.delays
        caps = np.where(slack <= 0, 0.0, slack * retained * rates)
    return rates, caps, lams
