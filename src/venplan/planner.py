"""Energy-transfer planning over enumerated paths.

Fixing every path's rate at its flow-limited maximum can only enlarge the
feasible energies, so both planning problems reduce to one-constraint
fractional knapsacks over the per-path delivered energies: maximize total
delivered energy subject to a loss budget, or meet a delivery floor at
minimum total loss. A greedy fill in ascending per-unit-loss order solves
either exactly, so it is the only solver; the tests check it against a
general LP solver and a vertex-enumeration oracle.

A plan is plain data: the energy each path delivers, in the request's path
order, plus the two totals and a status. :func:`solve` prices a request's
paths as arrays in one pass (``economics_arrays``) and creates no per-path
objects, which keeps sweeps cheap; :func:`solve_scenario` pairs each energy
with its path's economics in ``PairPlan.assignments`` for reports.

Modelling assumption: each path is priced as if it had its routes' packet
rate to itself. Paths that share a route (even within one pair) are not
coupled, so a plan may send more over a route than its vehicles carry;
pinning rates at their maxima is optimal only under that assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .energetics import EnergyParams, PathEconomics, economics_arrays, path_economics
from .errors import ValidationError
from .paths import EnergyPath, enumerate_paths
from .scenario import Scenario

MAX_ENERGY = "max-energy"
MIN_LOSS = "min-loss"
GREEDY = "greedy"  # the solver that output provenance records
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class PlanRequest:
    """One (source, target) planning instance.

    ``loss_cap`` applies to the max-energy objective and may be infinite;
    ``delivery_floor`` applies to min-loss and must be finite.
    """

    paths: tuple[EnergyPath, ...]
    params: EnergyParams
    objective: str
    loss_cap: float = math.inf  # kWh
    delivery_floor: float = 0.0  # kWh
    penetration: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "paths", tuple(self.paths))
        if self.objective not in (MAX_ENERGY, MIN_LOSS):
            raise ValidationError(f"unknown objective {self.objective!r}")
        if self.objective == MAX_ENERGY and not self.loss_cap >= 0:
            raise ValidationError("loss_cap must be nonnegative")
        if self.objective == MIN_LOSS and not (
            self.delivery_floor >= 0 and math.isfinite(self.delivery_floor)
        ):
            raise ValidationError("delivery_floor must be finite and nonnegative")
        if not 0 <= self.penetration <= 1:
            raise ValidationError("penetration must be within [0, 1]")
        endpoints = {(p.source, p.target) for p in self.paths}
        if len(endpoints) > 1:
            raise ValidationError("paths of one request must share one (s, t) pair")


@dataclass(frozen=True)
class PathAssignment:
    """Energy assigned to one path, sent at the path's maximum rate."""

    economics: PathEconomics
    energy: float  # kWh delivered over this path

    @property
    def path(self) -> EnergyPath:
        return self.economics.path

    @property
    def rate(self) -> float:  # kWh per hour
        return self.economics.max_rate

    @property
    def loss(self) -> float:
        return self.economics.loss_factor * self.energy


@dataclass(frozen=True)
class TransferPlan:
    """Per-path delivered energies, in request path order, and their totals.

    ``transferred`` and ``loss`` are summed left to right in path order, each
    path's loss as its loss factor times its energy.
    """

    energies: tuple[float, ...]  # kWh
    transferred: float  # kWh
    loss: float  # kWh
    status: str  # "optimal" | "infeasible"


def _check_instance(capacities, loss_factors, hops=None) -> tuple[np.ndarray, ...]:
    caps = np.asarray(capacities, dtype=float)
    lams = np.asarray(loss_factors, dtype=float)
    if caps.shape != lams.shape or caps.ndim != 1:
        raise ValidationError("capacities and loss factors must be equal-length vectors")
    tie_hops = np.zeros(caps.size, dtype=np.int64) if hops is None else np.asarray(hops)
    if tie_hops.shape != caps.shape:
        raise ValidationError("hops must have one entry per capacity")
    if not (np.all(np.isfinite(caps)) and np.all(np.isfinite(lams))):
        raise ValidationError("capacities and loss factors must be finite")
    if np.any(caps < 0) or np.any(lams < 0):
        raise ValidationError("capacities and loss factors must be nonnegative")
    return caps, lams, tie_hops


def knapsack_assign(
    capacities,
    loss_factors,
    objective: str,
    bound: float,
    hops: Optional[Sequence[int]] = None,
) -> tuple[np.ndarray, str]:
    """Greedy fill in ascending loss-factor order; exact for both objectives.

    Paths tie-break on fewer hops, then input order. ``bound`` is the loss
    cap (max-energy, may be inf) or the delivery floor (min-loss, finite).
    Returns the energy vector and a plan status; an unreachable floor yields
    the fully saturated vector with status "infeasible".
    """
    caps, lams, tie_hops = _check_instance(capacities, loss_factors, hops)
    n = caps.size
    order = np.lexsort((np.arange(n), tie_hops, lams)).tolist()
    cap = caps.tolist()
    lam = lams.tolist()
    x = [0.0] * n
    if objective == MAX_ENERGY:
        if not bound >= 0:
            raise ValidationError("loss cap must be nonnegative")
        budget = bound
        for j in order:
            if lam[j] <= 0.0:
                x[j] = cap[j]
                continue
            if budget <= 0.0:
                break
            cost = lam[j] * cap[j]
            if cost <= budget:
                x[j] = cap[j]
                budget -= cost
            else:
                x[j] = budget / lam[j]
                break
        return np.array(x), OPTIMAL
    if objective == MIN_LOSS:
        if not (bound >= 0 and math.isfinite(bound)):
            raise ValidationError("delivery floor must be finite and nonnegative")
        if bound <= 0.0:
            return np.array(x), OPTIMAL
        with np.errstate(over="ignore"):  # an infinite total meets any floor
            total = float(caps.sum())
        if total < bound:
            return caps.copy(), INFEASIBLE
        need = bound
        for j in order:
            take = cap[j] if cap[j] < need else need
            x[j] = take
            need -= take
            if need <= 0.0:
                break
        return np.array(x), OPTIMAL
    raise ValidationError(f"unknown objective {objective!r}")


def solve(request: PlanRequest) -> TransferPlan:
    """Plan one request for its objective with the greedy fill.

    Max-energy maximizes delivered energy subject to the loss cap; min-loss
    minimizes total loss while meeting the delivery floor. When the floor
    exceeds the total path capacity the plan saturates every path and
    reports status "infeasible", which keeps sweeps informative.

    The paths are priced together as arrays, exactly as :func:`path_economics`
    prices each one, and the plan's totals are exact in-order sums.
    """
    if request.objective == MAX_ENERGY:
        bound = request.loss_cap
    else:
        bound = request.delivery_floor
    _, caps, lams = economics_arrays(request.paths, request.params, request.penetration)
    hops = [p.hops for p in request.paths]
    x, status = knapsack_assign(caps, lams, request.objective, bound, hops)
    energies = tuple(x.tolist())
    transferred = 0.0
    loss = 0.0
    for energy, lam in zip(energies, lams.tolist()):
        transferred += energy
        loss += lam * energy
    return TransferPlan(energies, transferred, loss, status)


@dataclass(frozen=True)
class PairPlan:
    """Plan and per-path assignments of one pair.

    ``assignments`` pairs each enumerated path, in order, with its economics
    and its energy in ``plan``.
    """

    source: int
    target: int
    plan: TransferPlan
    assignments: tuple[PathAssignment, ...]

    @property
    def paths(self) -> tuple[EnergyPath, ...]:
        return tuple(a.path for a in self.assignments)


@dataclass(frozen=True)
class ScenarioSolution:
    """Per-pair plans for a scenario plus aggregate totals."""

    pairs: tuple[PairPlan, ...]
    transferred: float  # kWh
    loss: float  # kWh
    objective: str


def solve_scenario(
    scenario: Scenario,
    objective: str = MAX_ENERGY,
    loss_cap: Optional[float] = None,
    delivery_floor: Optional[float] = None,
) -> ScenarioSolution:
    """Enumerate and plan every (source, target) pair of a scenario.

    Paths are enumerated over the declared routes; the scenario's
    penetration scales flows when rates and capacities are computed. Caps
    default to the scenario's own; explicit arguments override them. Each
    pair's assignments price its paths one by one with :func:`path_economics`.
    """
    cap = scenario.loss_cap if loss_cap is None else loss_cap
    floor = scenario.delivery_floor if delivery_floor is None else delivery_floor
    pair_plans = []
    transferred = 0.0
    loss = 0.0
    for source, target in scenario.pairs:
        paths = enumerate_paths(
            scenario.network, scenario.routes, source, target, scenario.enumeration
        )
        request = PlanRequest(
            paths=tuple(paths),
            params=scenario.params,
            objective=objective,
            loss_cap=cap,
            delivery_floor=floor,
            penetration=scenario.penetration,
        )
        plan = solve(request)
        economics = [path_economics(p, scenario.params, scenario.penetration) for p in paths]
        assignments = tuple(map(PathAssignment, economics, plan.energies))
        pair_plans.append(PairPlan(source, target, plan, assignments))
        transferred += plan.transferred
        loss += plan.loss
    return ScenarioSolution(
        pairs=tuple(pair_plans),
        transferred=transferred,
        loss=loss,
        objective=objective,
    )
