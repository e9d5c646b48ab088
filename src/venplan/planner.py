"""Energy-transfer planning over enumerated paths.

Fixing every path's rate at its flow-limited maximum can only enlarge the
feasible energies, so both planning problems reduce to one-constraint
fractional knapsacks over the per-path delivered energies: maximize total
delivered energy subject to a loss budget, or meet a delivery floor at
minimum total loss. A greedy fill in ascending per-unit-loss order solves
either exactly; an LP route through the bounded simplex provides an
independent cross-check on the same instances.

A request's paths are priced as arrays in one pass (``economics_arrays``),
and a plan builds its per-path ``assignments`` only when they are first
read, so callers that need only the totals, such as sweeps, never create
per-path objects.

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
from .errors import SolverError, ValidationError
from .paths import EnergyPath, enumerate_paths
from .scenario import Scenario
from .simplex import INFEASIBLE, OPTIMAL, solve_lp

MAX_ENERGY = "max-energy"
MIN_LOSS = "min-loss"
GREEDY = "greedy"
SIMPLEX = "simplex"


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
    """Energy and rate assigned to one path."""

    economics: PathEconomics
    energy: float  # kWh delivered over this path
    rate: float  # kWh per hour

    @property
    def path(self) -> EnergyPath:
        return self.economics.path

    @property
    def loss(self) -> float:
        return self.economics.loss_factor * self.energy


@dataclass(frozen=True)
class TransferPlan:
    """Per-path assignments plus their exact aggregates.

    A plan returned by :func:`solve` builds ``assignments`` on first access;
    equality, hashing and ``repr`` read it like any other field.
    """

    assignments: tuple[PathAssignment, ...]
    transferred: float  # kWh
    loss: float  # kWh
    status: str  # "optimal" | "infeasible"

    def __getattr__(self, name: str):
        # Reached only for attributes the instance lacks: ``assignments`` of
        # a plan from ``_deferred_plan`` that has not been read yet.
        pending = self.__dict__.get("_pending")
        if name != "assignments" or pending is None:
            raise AttributeError(name)
        request, energies = pending
        assignments = []
        for path, energy in zip(request.paths, energies):
            e = path_economics(path, request.params, request.penetration)
            assignments.append(
                PathAssignment(economics=e, energy=energy, rate=e.max_rate)
            )
        self.__dict__["assignments"] = tuple(assignments)
        return self.assignments


def _deferred_plan(
    request: PlanRequest, energies: list[float], lams: list[float], status: str
) -> TransferPlan:
    """Plan with totals summed now and assignments built on first read.

    Totals are summed left to right in path order, each path's loss as its
    loss factor times its energy, exactly as a sum over the assignments.
    """
    transferred = 0.0
    loss = 0.0
    for energy, lam in zip(energies, lams):
        transferred += energy
        loss += lam * energy
    plan = object.__new__(TransferPlan)
    plan.__dict__.update(
        transferred=transferred, loss=loss, status=status, _pending=(request, energies)
    )
    return plan


def _check_instance(capacities, loss_factors) -> tuple[np.ndarray, np.ndarray]:
    caps = np.asarray(capacities, dtype=float)
    lams = np.asarray(loss_factors, dtype=float)
    if caps.shape != lams.shape or caps.ndim != 1:
        raise ValidationError("capacities and loss factors must be equal-length vectors")
    if not (np.all(np.isfinite(caps)) and np.all(np.isfinite(lams))):
        raise ValidationError("capacities and loss factors must be finite")
    if np.any(caps < 0) or np.any(lams < 0):
        raise ValidationError("capacities and loss factors must be nonnegative")
    return caps, lams


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
    caps, lams = _check_instance(capacities, loss_factors)
    n = caps.size
    tie_hops = np.zeros(n, dtype=np.int64) if hops is None else np.asarray(hops)
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
        if float(caps.sum()) < bound:
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


def lp_assign(
    capacities, loss_factors, objective: str, bound: float
) -> tuple[np.ndarray, str]:
    """Solve the same instance through the bounded-variable simplex."""
    caps, lams = _check_instance(capacities, loss_factors)
    n = caps.size
    if objective == MAX_ENERGY:
        if not bound >= 0:
            raise ValidationError("loss cap must be nonnegative")
        rows = None
        rhs = None
        if math.isfinite(bound):
            rows = lams.reshape(1, -1)
            rhs = [bound]
        result = solve_lp(np.ones(n), rows, rhs, lower=0.0, upper=caps, maximize=True)
        if result.status != OPTIMAL:
            raise SolverError(f"max-energy LP unexpectedly {result.status}")
        return result.x, OPTIMAL
    if objective == MIN_LOSS:
        if not (bound >= 0 and math.isfinite(bound)):
            raise ValidationError("delivery floor must be finite and nonnegative")
        rows = None
        rhs = None
        if bound > 0:
            rows = -np.ones((1, n))
            rhs = [-bound]
        result = solve_lp(lams, rows, rhs, lower=0.0, upper=caps, maximize=False)
        if result.status == INFEASIBLE:
            return caps.copy(), INFEASIBLE
        if result.status != OPTIMAL:
            raise SolverError(f"min-loss LP unexpectedly {result.status}")
        return result.x, OPTIMAL
    raise ValidationError(f"unknown objective {objective!r}")


def _assign(caps, lams, hops, objective, bound, method):
    if method == GREEDY:
        return knapsack_assign(caps, lams, objective, bound, hops)
    if method == SIMPLEX:
        return lp_assign(caps, lams, objective, bound)
    raise ValidationError(f"unknown method {method!r}")


def solve(request: PlanRequest, method: str = GREEDY) -> TransferPlan:
    """Plan one request for its objective with the given method.

    Max-energy maximizes delivered energy subject to the loss cap; min-loss
    minimizes total loss while meeting the delivery floor. When the floor
    exceeds the total path capacity the plan saturates every path and
    reports status "infeasible", which keeps sweeps informative.

    The paths are priced together as arrays, exactly as :func:`path_economics`
    prices each one. The plan's totals are exact in-order sums; its
    ``assignments`` are built on first access.
    """
    if request.objective == MAX_ENERGY:
        bound = request.loss_cap
    else:
        bound = request.delivery_floor
    if not request.paths:
        status = INFEASIBLE if request.objective == MIN_LOSS and bound > 0 else OPTIMAL
        return TransferPlan((), 0.0, 0.0, status)
    _, caps, lams = economics_arrays(
        request.paths, request.params, request.penetration
    )
    hops = [p.hops for p in request.paths]
    x, status = _assign(caps, lams, hops, request.objective, bound, method)
    return _deferred_plan(request, x.tolist(), lams.tolist(), status)


@dataclass(frozen=True)
class PairPlan:
    """Plan and enumerated paths for one (source, target) pair."""

    source: int
    target: int
    paths: tuple[EnergyPath, ...]
    plan: TransferPlan


@dataclass(frozen=True)
class ScenarioSolution:
    """Per-pair plans for a scenario plus aggregate totals."""

    pairs: tuple[PairPlan, ...]
    transferred: float  # kWh
    loss: float  # kWh
    objective: str
    method: str


def solve_scenario(
    scenario: Scenario,
    objective: str = MAX_ENERGY,
    method: str = GREEDY,
    loss_cap: Optional[float] = None,
    delivery_floor: Optional[float] = None,
) -> ScenarioSolution:
    """Enumerate and plan every (source, target) pair of a scenario.

    Paths are enumerated over the declared routes; the scenario's
    penetration scales flows when rates and capacities are computed. Caps
    default to the scenario's own; explicit arguments override them.
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
        plan = solve(request, method)
        pair_plans.append(
            PairPlan(source=source, target=target, paths=tuple(paths), plan=plan)
        )
        transferred += plan.transferred
        loss += plan.loss
    return ScenarioSolution(
        pairs=tuple(pair_plans),
        transferred=transferred,
        loss=loss,
        objective=objective,
        method=method,
    )
