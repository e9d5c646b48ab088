"""Parameter sweeps over scenario solves, emitting plot-ready CSV.

One parameter varies per sweep (round-trip efficiency, window, packet size,
or penetration) while the others sit at fixed nominal values. Paths are
enumerated once per pair, over the scenario's own route index and within
the sweep's largest window, into the pair's :class:`PathTable`, which every
sweep value prices and fills with no path objects built.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Optional

from ._version import __version__
from .energetics import EnergyParams, _check_penetration
from .errors import ValidationError
from .paths import enumerate_paths
from .planner import GREEDY, MAX_ENERGY, _check_bound, solve
from .scenario import Scenario, scenario_hash

SWEEP_PARAMETERS = ("z", "T", "w", "penetration")

CSV_COLUMNS = ("value", "transferred_kwh", "loss_kwh")


@dataclass(frozen=True)
class SweepSpec:
    """Which parameter to sweep, over which values, around which nominals."""

    parameter: str  # one of SWEEP_PARAMETERS
    values: tuple[float, ...]
    nominal_efficiency: float = 0.9
    nominal_window: float = 5.0  # hours
    nominal_packet_size: float = 0.1  # kWh
    nominal_penetration: float = 0.001

    def __post_init__(self) -> None:
        if self.parameter not in SWEEP_PARAMETERS:
            raise ValidationError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"expected one of {SWEEP_PARAMETERS}"
            )
        try:
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        except OverflowError:  # an integer beyond the float range
            raise ValidationError("sweep values must be finite") from None
        if not self.values:
            raise ValidationError("sweep values must be non-empty")
        if not all(math.isfinite(v) for v in self.values):
            raise ValidationError("sweep values must be finite")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValidationError("sweep values must be strictly increasing")


@dataclass(frozen=True)
class SweepPoint:
    """Totals and per-pair breakdown at one swept value."""

    value: float
    transferred: float  # kWh
    loss: float  # kWh
    pair_breakdown: tuple[tuple[int, int, float, float], ...]
    # entries are (source, target, transferred_kwh, loss_kwh)


@dataclass(frozen=True)
class SweepResult:
    """All sweep points plus provenance for reproducibility."""

    spec: SweepSpec
    objective: str
    points: tuple[SweepPoint, ...]
    scenario_digest: str
    seed: Optional[int]
    tool_version: str


def _nominals(spec: SweepSpec) -> dict[str, float]:
    """The nominal value of each sweep parameter, by name."""
    return {"z": spec.nominal_efficiency, "T": spec.nominal_window,
            "w": spec.nominal_packet_size, "penetration": spec.nominal_penetration}


def _point_params(spec: SweepSpec, value: float) -> tuple[EnergyParams, float]:
    point = {**_nominals(spec), spec.parameter: value}
    params = EnergyParams.with_round_trip(point["w"], point["z"], point["T"])
    _check_penetration(point["penetration"])
    return params, point["penetration"]


def run_sweep(
    scenario: Scenario,
    spec: SweepSpec,
    objective: str = MAX_ENERGY,
    method: str = GREEDY,
    loss_cap: float = math.inf,
    delivery_floor: float = 0.0,
) -> SweepResult:
    """Re-solve every scenario pair at each swept value.

    Point totals are the exact sums of the per-pair breakdown entries, in
    pair order. ``method`` accepts only ``GREEDY``, the one solver; the
    keyword stays only because the benchmark's sweep workload passes it.

    Each pair's paths are enumerated once, with the sweep's largest window
    as their delay bound: the last value when it sweeps ``T``, whose values
    increase, else the nominal window. A path past that window has no
    capacity at any point, so leaving it out changes no total.
    """
    if method != GREEDY:
        raise ValidationError(f"unknown method {method!r}; the solver is {GREEDY!r}")
    _check_bound(objective, loss_cap if objective == MAX_ENERGY else delivery_floor)
    window = spec.values[-1] if spec.parameter == "T" else spec.nominal_window
    pair_tables = [
        (s, t, enumerate_paths(scenario.index, s, t, scenario.enumeration, max_delay=window))
        for s, t in scenario.pairs
    ]

    points = []
    for value in spec.values:
        params, penetration = _point_params(spec, value)
        breakdown = []
        transferred = 0.0
        loss = 0.0
        for source, target, table in pair_tables:
            plan = solve(table, params, objective, loss_cap, delivery_floor, penetration)
            breakdown.append((source, target, plan.transferred, plan.loss))
            transferred += plan.transferred
            loss += plan.loss
        points.append(SweepPoint(value, transferred, loss, pair_breakdown=tuple(breakdown)))
    return SweepResult(spec, objective, tuple(points), scenario_digest=scenario_hash(scenario),
                       seed=scenario.seed, tool_version=__version__)


def sweep_to_csv(result: SweepResult) -> str:
    """RFC-4180 CSV: header row, one row per swept value, '.' decimals.

    Floats are written in shortest round-trip form, so re-reading the file
    recovers the exact totals.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_COLUMNS)
    for point in result.points:
        writer.writerow([repr(point.value), repr(point.transferred), repr(point.loss)])
    return buffer.getvalue()


def sweep_metadata(result: SweepResult) -> dict:
    """Provenance sidecar content for a sweep run."""
    return {
        "parameter": result.spec.parameter,
        "values": list(result.spec.values),
        "objective": result.objective,
        "solver": GREEDY,
        "scenario_sha256": result.scenario_digest,
        "seed": result.seed,
        "tool_version": result.tool_version,
        "nominals": _nominals(result.spec),
        "pair_breakdown": {
            repr(p.value): [list(entry) for entry in p.pair_breakdown]
            for p in result.points
        },
    }


def find_crossover(result: SweepResult) -> Optional[float]:
    """Swept value where total loss stops exceeding transferred energy.

    Scans consecutive points for a sign change of (loss - transferred) from
    positive to zero or below, and interpolates linearly within the first
    bracketing interval. Without one, a first point where loss equals the
    transferred energy is the crossover; otherwise it returns None, as when
    loss never exceeds the transferred energy anywhere in the sweep or
    exceeds it at every point.
    """
    for a, b in zip(result.points, result.points[1:]):
        da = a.loss - a.transferred
        db = b.loss - b.transferred
        if da > 0 >= db:
            return a.value + da * (b.value - a.value) / (da - db)
    if result.points and result.points[0].loss - result.points[0].transferred == 0:
        return result.points[0].value
    return None
