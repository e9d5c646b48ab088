"""Independent reference implementations used only to cross-check the library.

``arc`` reads one arc of a network by id, raising ValidationError for an
unknown one. The route oracle ``validate_route`` checks one route at a time,
arc by arc, where the library's ``RouteIndex`` constructor checks all routes
at once. The slice oracle ``sub_route`` builds one route slice by reading
each member arc from the network, independently of ``RouteIndex.slice``. The path
builder ``energy_path`` folds a segment chain's delay and bottleneck flow,
which the search stores as it computes them. The table oracle ``PathTable``
reads the columns the planner prices (hop counts, delays, bottleneck flows)
from a list of paths, one attribute at a time, where the library's search
writes them as it emits its rows; it also prices hand-built paths. The path
oracle materializes every sub-route up front and recursively tries all
concatenations; the LP oracle enumerates candidate vertices from all
n-subsets of the active constraint set. Both are deliberately brute force
and share no code with the implementations they check. ``lp_assign`` solves
the planner's knapsack instances as general LPs through the bounded simplex
in ``_simplex``, independently of the greedy fill.

The bound-table oracle is the pure-Python table the search's array table
must reproduce bit for bit: one scalar backward pass per route and layer.
The least-delay oracle finds the same table's last layer by brute force
over the path oracle's paths.

The pricing oracle is the scalar form of the paper's path formulas:
``max_rate``, ``max_transferable``, ``loss_factor`` and ``path_economics``
price one path at a time into a ``PathEconomics`` record. The library's array
``venplan.path_economics`` must equal it value for value. The plan oracle is
the per-path planner: it prices each path with the scalar
``path_economics``, fills in ``sorted((loss factor, hops, index))`` order,
with one fill loop per objective where the library fills both with array
operations, and sums the totals path by path. It finds a floor out of reach
by the capacities' exact rational sum, rounded once. The library's array
planner must reproduce its energies, totals and status bit for bit.

The scenario oracles are the dict-based writer and the per-field parser:
``reference_serialize`` runs ``json.dumps`` over a document dict, and
``reference_parse`` checks every field with ``_expect`` in document order
and every route with ``validate_route``, in the scenario invariants' order.
The library's fixed-layout writer and bulk-checked parser must match them
byte for byte and message for message.

``IdView`` reads a route index by ids: the index names junctions and
routes by their rows, and the view maps the ids a test holds to rows and
the rows the index returns back to ids, so tests can compare the index
with oracles that know only ids.

The remaining helpers check or re-read library output: ``validate_path``
names the first construction rule a path breaks, then checks its stored
numbers against ``energy_path``'s fold, ``path_loss`` and
``source_injection`` account one path's energy, ``read_sweep_csv``
parses a sweep CSV back into floats, and ``find_crossover`` estimates the
swept value where a sweep's loss stops exceeding its delivery, by linear
interpolation between the two points that bracket it.
"""

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from venplan import (
    FULL_ROUTE,
    INFEASIBLE,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    Arc,
    EnergyParams,
    EnergyPath,
    EnumerationConfig,
    PER_HOP,
    Scenario,
    ScenarioFormatError,
    SubRoute,
    SweepResult,
    TransferPlan,
    ValidationError,
    VehicularRoute,
    build_network,
)
from venplan.energetics import _retained
from venplan.planner import _check_instance
from venplan.scenario import SCHEMA_VERSION, UNITS
from venplan.sweep import CSV_COLUMNS

from _simplex import SolverError, solve_lp


def loss_factor(params, hops):
    """Energy lost per unit delivered over a path with ``hops`` cycles."""
    return 1.0 / _retained(params, hops) - 1.0


def max_rate(path, params, penetration=1.0):
    """Largest sustainable transfer rate in kWh per hour.

    Every segment caps the rate at one packet per participating vehicle, so
    the slowest segment's flow (scaled by the participation fraction) binds.
    """
    return params.packet_size * penetration * path.bottleneck_flow


def max_transferable(path, params, rate):
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


@dataclass(frozen=True)
class PathEconomics:
    """Per-path planning coefficients derived from one parameter set."""

    path: EnergyPath
    max_rate: float  # kWh per hour
    capacity: float  # kWh deliverable within the window at max rate
    loss_factor: float  # kWh lost per kWh delivered


def path_economics(path, params, penetration=1.0):
    """Evaluate the rate limit, capacity, and loss factor of one path."""
    rate = max_rate(path, params, penetration)
    return PathEconomics(
        path=path,
        max_rate=rate,
        capacity=max_transferable(path, params, rate),
        loss_factor=loss_factor(params, path.hops),
    )


def arc(network, arc_id):
    """The network's arc ``arc_id``; ValidationError if there is none."""
    try:
        return network.arcs[arc_id]
    except KeyError:
        raise ValidationError(f"unknown arc id {arc_id}") from None


def route_junctions(network, route):
    """Junction sequence a route visits: tail of the first arc, then every head."""
    if not route.arcs:
        raise ValidationError(f"route {route.id} has no arcs")
    first = arc(network, route.arcs[0])
    seq = [first.tail]
    for arc_id in route.arcs:
        seq.append(arc(network, arc_id).head)
    return tuple(seq)


def validate_route(network, route):
    """Check connectivity, loop-freedom, and flow of one route.

    Consecutive arcs must chain head-to-tail and no junction may be visited
    twice. Raises ValidationError naming the failed invariant.
    """
    if not (route.flow >= 0 and math.isfinite(route.flow)):
        raise ValidationError(f"route {route.id} flow must be finite and nonnegative")
    seq = route_junctions(network, route)
    for k in range(len(route.arcs) - 1):
        here = arc(network, route.arcs[k])
        nxt = arc(network, route.arcs[k + 1])
        if here.head != nxt.tail:
            raise ValidationError(
                f"route {route.id}: arc {nxt.id} does not start where arc {here.id} ends"
            )
    if len(set(seq)) != len(seq):
        raise ValidationError(f"route {route.id} visits a junction twice")


def sub_route(network, route, n, m):
    """Slice a route from its n-th to its m-th arc (1-based, inclusive),
    reading every member arc from the network."""
    if not 1 <= n <= m <= len(route.arcs):
        raise ValidationError(
            f"sub-route indices ({n}, {m}) out of range for route {route.id} "
            f"of length {len(route.arcs)}"
        )
    members = [arc(network, a) for a in route.arcs[n - 1 : m]]
    delay = 0.0
    for member in members:
        delay += member.delay
    return SubRoute(
        route_id=route.id,
        start=n,
        end=m,
        entry=members[0].tail,
        exit=members[-1].head,
        delay=delay,
        flow=route.flow,
    )


class IdView:
    """``entries``, ``bound_table`` and ``slice`` of a route index, taking
    and returning junction and route ids where the index takes rows."""

    def __init__(self, index):
        self.index = index
        self.route_rows = {route_id: row for row, route_id in enumerate(index.route_ids)}

    def entries(self, junction):
        route_ids = self.index.route_ids
        found = self.index.entries(self.index.rows[junction])
        return tuple((route_ids[route], n, slot) for route, n, slot in found)

    def bound_table(self, target, max_hops):
        """``({id: (k, d)} over the rows in reach, reach, {id: least})``."""
        bounds, reach = self.index.bound_table(self.index.rows[target], max_hops)
        ids = self.index.junction_ids
        table = {ids[row]: (k, d) for row, (k, d, _) in enumerate(bounds) if k < len(ids)}
        return table, reach, {ids[row]: least for row, (*_, least) in enumerate(bounds)}

    def slice(self, route_id, span):
        return self.index.slice(self.route_rows[route_id], span)


def energy_path(source, target, segments):
    """The path of ``segments``, with its delay summed left to right from 0.0
    and its bottleneck flow the first least segment flow."""
    delay = 0.0
    for seg in segments:
        delay += seg.delay
    return EnergyPath(source, target, tuple(segments), delay, min(s.flow for s in segments))


class PathTable:
    """The columns of ``paths`` that pricing reads, read path by path: int64
    ``hops``, ``distinct_hops`` (ints) with each path's ``hop_index``, and
    the ``delays`` and bottleneck ``flows`` each path stores."""

    def __init__(self, paths):
        n = len(paths)
        hops = np.fromiter((p.hops for p in paths), dtype=np.int64, count=n)
        distinct, self.hop_index = np.unique(hops, return_inverse=True)
        self.hops, self.distinct_hops = hops, distinct.tolist()
        self.delays = np.fromiter((p.delay for p in paths), dtype=float, count=n)
        self.flows = np.fromiter((p.bottleneck_flow for p in paths), dtype=float, count=n)


def materialized_sub_routes(network, routes, mode):
    segments = []
    for route in routes:
        for n in range(1, len(route.arcs) + 1):
            ends = (n,) if mode == PER_HOP else range(n, len(route.arcs) + 1)
            for m in ends:
                segments.append(sub_route(network, route, n, m))
    return segments


def brute_force_paths(network, routes, source, target, max_hops, mode="full-route"):
    """All valid loop-free segment concatenations, sorted like the library."""
    segments = materialized_sub_routes(network, routes, mode)
    route_map = {r.id: r for r in routes}
    results = []

    def body_junctions(seg):
        arcs = route_map[seg.route_id].arcs[seg.start - 1 : seg.end]
        return [arc(network, a).head for a in arcs]

    def extend(chain, visited):
        here = chain[-1].exit if chain else source
        if chain and here == target:
            results.append(energy_path(source, target, chain))
            return
        if len(chain) >= max_hops:
            return
        for seg in segments:
            if seg.entry != here:
                continue
            if (
                mode != PER_HOP
                and chain
                and chain[-1].route_id == seg.route_id
                and chain[-1].end == seg.start - 1
            ):
                continue
            body = body_junctions(seg)
            if len(set(body)) != len(body) or any(j in visited for j in body):
                continue
            extend(chain + [seg], visited | set(body))

    extend([], {source})
    results.sort(
        key=lambda p: (
            p.hops,
            p.delay,
            tuple(s.route_id for s in p.segments),
            tuple((s.start, s.end) for s in p.segments),
        )
    )
    return results


def reference_bound_table(network, routes, target, mode, max_hops):
    """Junction -> (fewest slices, least delay) to ``target``, route by route.

    Layer k is the least delay in at most k slices (one arc each in per-hop
    mode); each layer comes from the previous one by a backward pass over
    every route, and a junction keeps its first layer and that layer's delay.
    """
    per_hop = mode == PER_HOP
    geometry = []
    for route in routes:
        members = [arc(network, a) for a in route.arcs]
        geometry.append(
            ([a.tail for a in members], [a.head for a in members], [a.delay for a in members])
        )
    table = {target: (0, 0.0)}
    layer = {target: 0.0}
    for k in range(1, max_hops + 1):
        nxt = dict(layer)
        for tails, heads, delays in geometry:
            best = math.inf
            for pos in range(len(tails) - 1, -1, -1):
                rest = layer.get(heads[pos], math.inf)
                if not per_hop and best < rest:
                    rest = best
                best = delays[pos] + rest
                if best < nxt.get(tails[pos], math.inf):
                    nxt[tails[pos]] = best
        if nxt == layer:
            break
        for junction, delay in nxt.items():
            table.setdefault(junction, (k, delay))
        layer = nxt
    return table


def reference_least_delays(network, routes, target, mode, max_hops):
    """Junction -> least delays to ``target`` in at most 1, 2, ...,
    ``max_hops`` slices, inf where there is no such path, by brute force.

    Each path's arc delays are summed right to left from 0.0, as the table's
    backward passes sum them. Float addition is monotone, so a walk that
    repeats a junction is never faster than the path that cuts its loop,
    which takes no more slices; the least over loop-free paths is the
    least over every walk, bit for bit.
    """
    least = {}
    for junction in network.junctions:
        found = [math.inf] * max_hops
        if junction == target:
            found = [0.0] * max_hops
        else:
            for path in brute_force_paths(network, routes, junction, target, max_hops, mode):
                delay = 0.0
                for seg in reversed(path.segments):
                    route = next(r for r in routes if r.id == seg.route_id)
                    for arc_id in reversed(route.arcs[seg.start - 1 : seg.end]):
                        delay = arc(network, arc_id).delay + delay
                for k in range(path.hops, max_hops + 1):
                    found[k - 1] = min(found[k - 1], delay)
        least[junction] = tuple(found)
    return least


def reference_reach(network, routes, table):
    """Route id -> reach of each position: the least table ``k`` over the
    heads at that position and every later one, a head absent from the
    table counting as the junction count."""
    out = len(network.junctions)
    reach = {}
    for route in routes:
        least = out
        values = []
        for arc_id in reversed(route.arcs):
            k = table.get(arc(network, arc_id).head, (out,))[0]
            if k < least:
                least = k
            values.append(least)
        reach[route.id] = tuple(reversed(values))
    return reach


def vertex_enumeration_lp(c, a_ub, b_ub, lower, upper, maximize=True, tol=1e-9):
    """Optimum over the vertices of {a_ub x <= b_ub, lower <= x <= upper}.

    Every vertex is the intersection of n linearly independent active
    constraints, so trying all n-subsets of rows finds them all. Returns
    (status, best_x, best_objective).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    rows = []
    rhs = []
    if a_ub is not None:
        for row, b in zip(np.atleast_2d(a_ub), np.asarray(b_ub).ravel()):
            rows.append(np.asarray(row, dtype=float))
            rhs.append(float(b))
    lower = np.broadcast_to(np.asarray(lower, dtype=float), (n,))
    upper = np.broadcast_to(np.asarray(upper, dtype=float), (n,))
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        if np.isfinite(upper[j]):
            rows.append(unit.copy())
            rhs.append(float(upper[j]))
        if np.isfinite(lower[j]):
            rows.append(-unit)
            rhs.append(float(-lower[j]))
    rows = np.array(rows)
    rhs = np.array(rhs)

    scale = 1.0 + np.abs(rhs).max(initial=0.0)
    best_x = None
    best_val = None
    for combo in combinations(range(len(rows)), n):
        square = rows[list(combo)]
        if abs(np.linalg.det(square)) < 1e-12:
            continue
        x = np.linalg.solve(square, rhs[list(combo)])
        if np.any(rows @ x > rhs + tol * scale):
            continue
        val = float(c @ x)
        if best_val is None or (val > best_val if maximize else val < best_val):
            best_val = val
            best_x = x
    if best_x is None:
        return "infeasible", None, None
    return "optimal", best_x, best_val


def reference_fill(capacities, loss_factors, objective, bound):
    """Greedy knapsack fill over paths sorted by loss factor, ties in index order."""
    caps = np.asarray(capacities, dtype=float)
    lams = np.asarray(loss_factors, dtype=float)
    n = caps.size
    order = sorted(range(n), key=lambda j: (lams[j], j))
    x = np.zeros(n)
    if objective == MAX_ENERGY:
        budget = bound
        for j in order:
            if lams[j] <= 0.0 or budget == math.inf:
                x[j] = caps[j]  # free, or an unlimited budget: nothing is spent
                continue
            if budget <= 0.0:
                break
            with np.errstate(over="ignore"):
                cost = lams[j] * caps[j]
            if cost <= budget:
                x[j] = caps[j]
                budget -= cost
            else:
                x[j] = budget / lams[j]
                break
        return x, OPTIMAL
    if bound <= 0.0:
        return x, OPTIMAL
    try:  # the exact sum, rounded once
        total = float(sum(map(Fraction, caps.tolist()), Fraction(0)))
    except OverflowError:  # an infinite total meets any floor
        total = math.inf
    if total < bound:
        return caps.copy(), INFEASIBLE
    need = bound
    for j in order:
        take = caps[j] if caps[j] < need else need
        x[j] = take
        need -= take
        if need <= 0.0:
            break
    return x, OPTIMAL


def lp_assign(capacities, loss_factors, objective, bound):
    """Solve a knapsack instance of :func:`venplan.knapsack_assign` as an LP."""
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


def reference_plan(
    paths, params, objective, loss_cap=math.inf, delivery_floor=0.0, penetration=1.0,
    lp=False,
):
    """Plan ``paths`` one path object at a time, as the scalar planner did;
    the arguments are :func:`venplan.solve`'s.

    ``lp=True`` fills with :func:`lp_assign` instead of the greedy fill.
    """
    econ = [path_economics(p, params, penetration) for p in paths]
    bound = loss_cap if objective == MAX_ENERGY else delivery_floor
    if not econ:
        status = INFEASIBLE if objective == MIN_LOSS and bound > 0 else OPTIMAL
        return TransferPlan((), 0.0, 0.0, status)
    caps = [e.capacity for e in econ]
    lams = [e.loss_factor for e in econ]
    fill = lp_assign if lp else reference_fill
    x, status = fill(caps, lams, objective, bound)
    energies = tuple(float(v) for v in x)
    transferred = 0.0
    loss = 0.0
    for e, energy in zip(econ, energies):
        transferred += energy
        loss += e.loss_factor * energy
    return TransferPlan(energies, transferred, loss, status)


def scenario_to_dict(scenario):
    """Canonical JSON-ready form of a scenario; float fields as floats."""
    params = scenario.params
    return {
        "schema_version": SCHEMA_VERSION,
        "units": dict(UNITS),
        "network": {
            "junctions": sorted(scenario.network.junctions),
            "arcs": [
                {
                    "id": arc.id,
                    "tail": arc.tail,
                    "head": arc.head,
                    "delay": float(arc.delay),
                    "flow": float(arc.flow),
                    "length": float(arc.length),
                }
                for arc_id, arc in sorted(scenario.network.arcs.items())
            ],
        },
        "routes": [
            {"id": r.id, "arcs": list(r.arcs), "flow": float(r.flow)}
            for r in sorted(scenario.routes, key=lambda r: r.id)
        ],
        "pairs": [[s, t] for s, t in scenario.pairs],
        "params": {
            "packet_size": float(params.packet_size),
            "charge_efficiency": float(params.charge_efficiency),
            "discharge_efficiency": float(params.discharge_efficiency),
            "window": float(params.window),
        },
        "penetration": float(scenario.penetration),
        "enumeration": {
            "max_hops": scenario.enumeration.max_hops,
            "max_paths": scenario.enumeration.max_paths,
            "mode": scenario.enumeration.mode,
        },
        "caps": {
            "loss_cap": (
                None if math.isinf(scenario.loss_cap) else float(scenario.loss_cap)
            ),
            "delivery_floor": float(scenario.delivery_floor),
        },
        "seed": scenario.seed,
    }


def reference_serialize(scenario):
    return json.dumps(
        scenario_to_dict(scenario), indent=2, sort_keys=True, allow_nan=False
    ) + "\n"


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    if key not in obj:
        raise ScenarioFormatError(f"{where}.{key} is missing")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioFormatError(f"{where}.{key} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ScenarioFormatError(f"{where}.{key} must be finite")
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioFormatError(f"{where}.{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ScenarioFormatError(f"{where}.{key} must be a {kind.__name__}")
    return value


def _reference_invariants(network, routes, pairs, penetration, loss_cap, delivery_floor):
    """The scenario invariants, one route at a time, in the library's order."""
    if not 0 <= penetration <= 1:
        raise ValidationError("penetration must be within [0, 1]")
    if not loss_cap >= 0:
        raise ValidationError("loss_cap must be nonnegative")
    if not (delivery_floor >= 0 and math.isfinite(delivery_floor)):
        raise ValidationError("delivery_floor must be finite and nonnegative")
    for route in routes:
        validate_route(network, route)
    route_ids = [r.id for r in routes]
    if len(set(route_ids)) != len(route_ids):
        raise ValidationError("duplicate route ids")
    for s, t in pairs:
        if s not in network.junctions:
            raise ValidationError(f"pair source {s} is not a junction")
        if t not in network.junctions:
            raise ValidationError(f"pair target {t} is not a junction")
        if s == t:
            raise ValidationError("pair source and target must differ")


def reference_parse(text):
    """Parse a scenario document one field at a time."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")

    version = _expect(doc, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version}; expected {SCHEMA_VERSION}"
        )
    units = _expect(doc, "units", dict, "scenario")
    for key, expected in UNITS.items():
        if units.get(key) != expected:
            raise ScenarioFormatError(f"units.{key} must be {expected!r}")

    network_obj = _expect(doc, "network", dict, "scenario")
    junctions = _expect(network_obj, "junctions", list, "network")
    for j in junctions:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ScenarioFormatError("network.junctions must be integers")
    arcs = []
    for i, arc_obj in enumerate(_expect(network_obj, "arcs", list, "network")):
        where = f"network.arcs[{i}]"
        arcs.append(
            Arc(
                id=_expect(arc_obj, "id", int, where),
                tail=_expect(arc_obj, "tail", int, where),
                head=_expect(arc_obj, "head", int, where),
                delay=_expect(arc_obj, "delay", float, where),
                flow=_expect(arc_obj, "flow", float, where),
                length=_expect(arc_obj, "length", float, where),
            )
        )
    network = build_network(junctions, arcs)

    routes = []
    for i, route_obj in enumerate(_expect(doc, "routes", list, "scenario")):
        where = f"routes[{i}]"
        arc_ids = _expect(route_obj, "arcs", list, where)
        for a in arc_ids:
            if isinstance(a, bool) or not isinstance(a, int):
                raise ScenarioFormatError(f"{where}.arcs must be integers")
        routes.append(
            VehicularRoute(
                id=_expect(route_obj, "id", int, where),
                arcs=tuple(arc_ids),
                flow=_expect(route_obj, "flow", float, where),
            )
        )

    pairs = []
    for i, pair in enumerate(_expect(doc, "pairs", list, "scenario")):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
        ):
            raise ScenarioFormatError(f"pairs[{i}] must be a [source, target] pair")
        pairs.append((pair[0], pair[1]))

    params_obj = _expect(doc, "params", dict, "scenario")
    params = EnergyParams(
        packet_size=_expect(params_obj, "packet_size", float, "params"),
        charge_efficiency=_expect(params_obj, "charge_efficiency", float, "params"),
        discharge_efficiency=_expect(
            params_obj, "discharge_efficiency", float, "params"
        ),
        window=_expect(params_obj, "window", float, "params"),
    )

    enum_obj = _expect(doc, "enumeration", dict, "scenario")
    raw_max_paths = enum_obj.get("max_paths")
    if raw_max_paths is not None:
        raw_max_paths = _expect(enum_obj, "max_paths", int, "enumeration")
    mode = _expect(enum_obj, "mode", str, "enumeration")
    if mode not in (FULL_ROUTE, PER_HOP):
        raise ScenarioFormatError(f"enumeration.mode must be one of {FULL_ROUTE!r}, {PER_HOP!r}")
    enumeration = EnumerationConfig(
        max_hops=_expect(enum_obj, "max_hops", int, "enumeration"),
        max_paths=raw_max_paths,
        mode=mode,
    )

    caps = doc.get("caps", {})
    if not isinstance(caps, dict):
        raise ScenarioFormatError("caps must be an object")
    raw_cap = caps.get("loss_cap")
    loss_cap = math.inf if raw_cap is None else _expect(caps, "loss_cap", float, "caps")
    raw_floor = caps.get("delivery_floor")
    delivery_floor = (
        0.0 if raw_floor is None else _expect(caps, "delivery_floor", float, "caps")
    )

    seed = doc.get("seed")
    if seed is not None:
        seed = _expect(doc, "seed", int, "scenario")

    penetration = _expect(doc, "penetration", float, "scenario")
    _reference_invariants(network, routes, pairs, penetration, loss_cap, delivery_floor)
    return Scenario(
        network=network,
        routes=tuple(routes),
        pairs=tuple(pairs),
        params=params,
        penetration=penetration,
        enumeration=enumeration,
        loss_cap=loss_cap,
        delivery_floor=delivery_floor,
        seed=seed,
    )


@dataclass(frozen=True)
class PathViolation:
    """Names the first condition an invalid path breaks."""

    condition: str  # "segment" | "source" | "target" | "chaining" | "loop" | "numbers"
    detail: str


def junction_sequence(path, network, route_map):
    """All junctions a path visits, shared segment boundaries counted once;
    ``route_map`` maps each segment's route id to its route."""
    if not path.segments:
        return (path.source,)
    seq = [path.segments[0].entry]
    for seg in path.segments:
        for arc_id in route_map[seg.route_id].arcs[seg.start - 1 : seg.end]:
            seq.append(arc(network, arc_id).head)
    return tuple(seq)


def validate_path(path, network, routes) -> Optional[PathViolation]:
    """Check a path's construction conditions; None means the path is valid.

    Conditions, in the order they are reported: every segment is a genuine
    slice of a declared route; the first segment starts at the path source;
    the last segment ends at the target; each segment starts where the
    previous one ended; no junction is visited twice; the stored delay and
    bottleneck flow equal ``energy_path``'s fold bit for bit.
    """
    route_map = {r.id: r for r in routes}
    for seg in path.segments:
        route = route_map.get(seg.route_id)
        if route is None:
            return PathViolation("segment", f"unknown route id {seg.route_id}")
        if not 1 <= seg.start <= seg.end <= len(route.arcs):
            return PathViolation(
                "segment",
                f"indices ({seg.start}, {seg.end}) out of range for route {seg.route_id}",
            )
        expected = sub_route(network, route, seg.start, seg.end)
        if seg != expected:
            return PathViolation(
                "segment",
                f"segment ({seg.route_id}, {seg.start}, {seg.end}) does not match its route",
            )
    if not path.segments or path.segments[0].entry != path.source:
        return PathViolation("source", f"first segment does not start at {path.source}")
    if path.segments[-1].exit != path.target:
        return PathViolation("target", f"last segment does not end at {path.target}")
    for i in range(len(path.segments) - 1):
        if path.segments[i].exit != path.segments[i + 1].entry:
            return PathViolation(
                "chaining",
                f"segment {i + 2} does not start where segment {i + 1} ends",
            )
    seq = junction_sequence(path, network, route_map)
    if len(set(seq)) != len(seq):
        return PathViolation("loop", "path visits a junction twice")
    fold = energy_path(path.source, path.target, path.segments)
    if (path.delay.hex(), path.bottleneck_flow.hex()) != (
        fold.delay.hex(), fold.bottleneck_flow.hex()
    ):
        return PathViolation("numbers", "stored delay or bottleneck flow is not the fold")
    return None


def path_loss(path, params, energy):
    """kWh lost to charge-discharge cycles while delivering ``energy`` kWh."""
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return loss_factor(params, path.hops) * energy


def source_injection(path, params, energy):
    """kWh that must be injected at the source to deliver ``energy`` kWh.

    Equals the delivered energy plus the path loss.
    """
    if energy < 0:
        raise ValueError("energy must be nonnegative")
    return energy / _retained(params, path.hops)


def read_sweep_csv(text):
    """Parse rows written by :func:`venplan.sweep_to_csv` back into floats."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        raise ValidationError(f"unexpected CSV header {rows[0] if rows else None!r}")
    return [(float(v), float(x), float(l)) for v, x, l in rows[1:]]


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
