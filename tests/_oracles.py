"""Independent reference implementations used only to cross-check the library.

The path oracle materializes every sub-route up front and recursively tries
all concatenations; the LP oracle enumerates candidate vertices from all
n-subsets of the active constraint set. Both are deliberately brute force
and share no code with the implementations they check.

The plan oracle is the per-path planner: it prices each path with the
scalar ``path_economics``, fills in ``sorted((loss factor, hops, index))``
order and sums the totals over eagerly built assignments. The library's
array planner must reproduce it bit for bit.
"""

from itertools import combinations

import numpy as np

from venplan import (
    GREEDY,
    INFEASIBLE,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    EnergyPath,
    PathAssignment,
    PER_HOP,
    TransferPlan,
    lp_assign,
    path_economics,
    sub_route,
)


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
    results = []

    def body_junctions(seg):
        return [network.arc(a).head for a in seg.arcs]

    def extend(chain, visited):
        here = chain[-1].exit if chain else source
        if chain and here == target:
            results.append(
                EnergyPath(source=source, target=target, segments=tuple(chain))
            )
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


def reference_fill(capacities, loss_factors, objective, bound, hops=None):
    """Greedy knapsack fill over paths sorted by (loss factor, hops, index)."""
    caps = np.asarray(capacities, dtype=float)
    lams = np.asarray(loss_factors, dtype=float)
    n = caps.size
    tie_hops = [0] * n if hops is None else list(hops)
    order = sorted(range(n), key=lambda j: (lams[j], tie_hops[j], j))
    x = np.zeros(n)
    if objective == MAX_ENERGY:
        budget = bound
        for j in order:
            if lams[j] <= 0.0:
                x[j] = caps[j]
                continue
            if budget <= 0.0:
                break
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
    if float(caps.sum()) < bound:
        return caps.copy(), INFEASIBLE
    need = bound
    for j in order:
        take = caps[j] if caps[j] < need else need
        x[j] = take
        need -= take
        if need <= 0.0:
            break
    return x, OPTIMAL


def reference_plan(request, method=GREEDY):
    """Plan ``request`` one path object at a time, as the scalar planner did."""
    econ = [
        path_economics(p, request.params, request.penetration) for p in request.paths
    ]
    if request.objective == MAX_ENERGY:
        bound = request.loss_cap
    else:
        bound = request.delivery_floor
    if not econ:
        status = INFEASIBLE if request.objective == MIN_LOSS and bound > 0 else OPTIMAL
        return TransferPlan((), 0.0, 0.0, status)
    caps = [e.capacity for e in econ]
    lams = [e.loss_factor for e in econ]
    hops = [e.path.hops for e in econ]
    if method == GREEDY:
        x, status = reference_fill(caps, lams, request.objective, bound, hops)
    else:
        x, status = lp_assign(caps, lams, request.objective, bound)
    assignments = tuple(
        PathAssignment(economics=e, energy=float(v), rate=e.max_rate)
        for e, v in zip(econ, x)
    )
    transferred = 0.0
    loss = 0.0
    for a in assignments:
        transferred += a.energy
        loss += a.loss
    return TransferPlan(assignments, transferred, loss, status)
