"""Energy-transfer planning over enumerated paths.

Fixing every path's rate at its flow-limited maximum can only enlarge the
feasible energies, so both planning problems reduce to one-constraint
fractional knapsacks over the per-path delivered energies: maximize total
delivered energy subject to a loss budget, or meet a delivery floor at
minimum total loss. A greedy fill in ascending per-unit-loss order, ties in
path order, solves either exactly, so it is the only solver; the tests check
it against a general LP solver and a vertex-enumeration oracle.

A plan is plain data: the energy each path delivers, in the order the paths
were given, plus the two totals and a status. :func:`solve` plans one pair
from the :class:`PathTable` that path enumeration returns, which a sweep
prices at every point, and creates no per-path objects; :func:`solve_scenario`
prices each table once more and keeps each pair's paths, built by the table,
with their rates and losses as columns in path order beside the plan's
energies in :class:`PairPlan`.

Modelling assumption: each path is priced as if it had its routes' packet
rate to itself. Paths that share a route (even within one pair) are not
coupled, so a plan may send more over a route than its vehicles carry;
pinning rates at their maxima is optimal only under that assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energetics import EnergyParams, path_economics
from .errors import FLOAT_MAX, ValidationError
from .paths import EnergyPath, PathTable, enumerate_paths
from .scenario import Scenario

MAX_ENERGY = "max-energy"
MIN_LOSS = "min-loss"
GREEDY = "greedy"  # the solver that output provenance records
OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class TransferPlan:
    """Per-path delivered energies, in the given path order, and their totals.

    ``transferred`` and ``loss`` are summed left to right in path order, each
    path's loss as its loss factor times its energy.
    """

    energies: tuple[float, ...]  # kWh
    transferred: float  # kWh
    loss: float  # kWh
    status: str  # "optimal" | "infeasible"


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


def _check_bound(objective: str, bound: float) -> None:
    """Reject an unknown objective, or a bound that :func:`knapsack_assign` cannot fill under."""
    if objective == MAX_ENERGY:
        if not bound >= 0:
            raise ValidationError("loss cap must be nonnegative")
        if not (bound <= FLOAT_MAX or bound == math.inf):
            raise ValidationError("loss cap must be finite or inf")
    elif objective == MIN_LOSS:
        if not 0.0 <= bound <= FLOAT_MAX:
            raise ValidationError("delivery floor must be finite and nonnegative")
    else:
        raise ValidationError(f"unknown objective {objective!r}")


def knapsack_assign(
    capacities, loss_factors, objective: str, bound: float
) -> tuple[np.ndarray, str]:
    """Greedy fill in ascending loss-factor order; exact for both objectives.

    Ties keep the given order, the sort being stable. ``bound`` is the loss
    cap (max-energy, may be inf) or the delivery floor (min-loss, finite).
    One fill serves both: each path spends ``cost x capacity`` of what is
    left of ``bound``, or all of it at ``left / cost``, where ``cost`` is its
    loss factor under the cap and 1.0 under the floor; an infinite cap fills
    every path. Returns the energy vector and a plan status; a floor above
    the capacities' exact sum, correctly rounded, is unreachable and yields
    the fully saturated vector with status "infeasible".
    """
    caps, lams = _check_instance(capacities, loss_factors)
    _check_bound(objective, bound)
    n = caps.size
    if objective == MAX_ENERGY and bound == math.inf:  # every path fills, whatever it costs
        return caps.copy(), OPTIMAL
    if objective == MIN_LOSS:
        try:  # correctly rounded, so no 0.0 term and no order changes it
            total = math.fsum(caps.tolist())
        except OverflowError:  # an infinite total meets any floor
            total = math.inf
        if total < bound:
            return caps.copy(), INFEASIBLE
    costs = lams if objective == MAX_ENERGY else np.ones(n)
    order = np.argsort(lams, kind="stable")
    cost, cap = costs[order], caps[order]
    with np.errstate(over="ignore"):
        spend = cost * cap
        # what is left before each path, subtracted in sequence; + 0.0 makes -0.0 0.0
        left = np.subtract.accumulate(np.append(bound + 0.0, spend))[:-1]
    fits = (cost <= 0.0) | ((left > 0.0) & (spend <= left))
    stop = n if fits.all() else int(fits.argmin())  # the first path that does not fit
    x = np.zeros(n)
    x[order[:stop]] = cap[:stop]
    if stop < n:
        x[order[stop]] = left[stop] / cost[stop]
    return x, OPTIMAL


def solve(
    table: PathTable,
    params: EnergyParams,
    objective: str,
    loss_cap: float = math.inf,
    delivery_floor: float = 0.0,
    penetration: float = 1.0,
) -> TransferPlan:
    """Plan one pair's paths, given as their table, with the greedy fill.

    Max-energy maximizes delivered energy subject to ``loss_cap`` (kWh, may
    be infinite); min-loss minimizes total loss while meeting
    ``delivery_floor`` (kWh, finite). When the floor exceeds the total path
    capacity the plan saturates every path and reports status "infeasible",
    which keeps sweeps informative. :func:`knapsack_assign` checks the
    objective and the bound it uses.

    The paths are priced together by one :func:`path_economics` call, which
    checks ``penetration`` first, and the plan's totals are exact in-order sums.
    """
    bound = loss_cap if objective == MAX_ENERGY else delivery_floor
    _, caps, lams = path_economics(table, params, penetration)
    x, status = knapsack_assign(caps, lams, objective, bound)
    with np.errstate(over="ignore"):  # summed in sequence from 0.0, unlike np.sum
        sums = [np.add.accumulate(np.append(0.0, v))[-1] for v in (x, lams * x)]
    transferred, loss = map(float, sums)
    return TransferPlan(tuple(x.tolist()), transferred, loss, status)


@dataclass(frozen=True)
class PairPlan:
    """Plan of one pair with its paths, their rates and their losses.

    ``paths``, ``rates`` and ``losses`` are columns in path order, like
    ``plan.energies``: each path is sent at its maximum rate, and its loss is
    its loss factor times its energy.
    """

    source: int
    target: int
    plan: TransferPlan
    paths: tuple[EnergyPath, ...]
    rates: tuple[float, ...]  # kWh per hour
    losses: tuple[float, ...]  # kWh


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

    Paths are enumerated over the declared routes, with the scenario's
    window as their delay bound: a path whose delay is at least the window
    has no capacity, so it is neither listed nor planned, and leaving it out
    changes no total. The scenario's penetration scales flows when rates
    and capacities are computed. Caps default to the scenario's own;
    explicit arguments override them. Each pair's :class:`PathTable` builds
    its paths and is priced once more for their rates and loss factors, each
    loss as loss factor x energy.
    """
    cap = scenario.loss_cap if loss_cap is None else loss_cap
    floor = scenario.delivery_floor if delivery_floor is None else delivery_floor
    _check_bound(objective, cap if objective == MAX_ENERGY else floor)
    pair_plans = []
    transferred = 0.0
    loss = 0.0
    for source, target in scenario.pairs:
        table = enumerate_paths(scenario.index, source, target, scenario.enumeration,
                                max_delay=scenario.params.window)
        plan = solve(table, scenario.params, objective, cap, floor, scenario.penetration)
        rates, _, lams = path_economics(table, scenario.params, scenario.penetration)
        losses = tuple(lam * x for lam, x in zip(lams.tolist(), plan.energies))
        pair = PairPlan(source, target, plan, tuple(table), tuple(rates.tolist()), losses)
        pair_plans.append(pair)
        transferred += plan.transferred
        loss += plan.loss
    return ScenarioSolution(tuple(pair_plans), transferred, loss, objective)
