"""Walk through the full planning pipeline on a five-junction example.

Three vehicular routes cross a small road network. Route 1 runs 1->3,
route 2 runs 2->3->4, and route 3 runs 1->2->5->4. Moving energy from
junction 1 to junction 4 can ride three distinct chains of route segments,
each with its own delay, rate limit, and conversion loss.

Run from the repository root:  python3 demos/worked_example.py
"""

from venplan import (
    MAX_ENERGY,
    MIN_LOSS,
    PlanRequest,
    enumerate_paths,
    parse_scenario,
    path_economics,
    solve,
)

scenario = parse_scenario(open("scenarios/three_routes.json").read())
network, routes, params = scenario.network, scenario.routes, scenario.params
source, target = scenario.pairs[0]

print(f"network: {len(network.junctions)} junctions, {len(network.arcs)} arcs")
print(f"routes:  {[(r.id, r.arcs, r.flow) for r in routes]}")
print(f"moving energy {source} -> {target}, window {params.window} h, "
      f"round-trip efficiency {params.round_trip_efficiency}")

# --- enumerate the energy paths -------------------------------------------
paths = enumerate_paths(network, routes, source, target, scenario.enumeration)
print(f"\n{len(paths)} energy paths, cheapest cycle count first:")
for path in paths:
    chain = " + ".join(
        f"route {seg.route_id} arcs {seg.start}..{seg.end} "
        f"({seg.entry}->{seg.exit})"
        for seg in path.segments
    )
    print(f"  {path.hops} hop(s), delay {path.delay} h: {chain}")

# --- price each path --------------------------------------------------------
print("\nper-path economics (rate = packet size x slowest segment flow):")
for path in paths:
    econ = path_economics(path, params, scenario.penetration)
    print(
        f"  hops={path.hops}  rate<={econ.max_rate:g} kWh/h  "
        f"capacity={econ.capacity:g} kWh  "
        f"loss/delivered={econ.loss_factor:.4f}"
    )

# --- maximize delivery under a loss budget ----------------------------------
for loss_cap in (float("inf"), 2.0, 0.0):
    request = PlanRequest(
        paths=tuple(paths), params=params, objective=MAX_ENERGY,
        loss_cap=loss_cap, penetration=scenario.penetration,
    )
    plan = solve(request)
    print(
        f"\nmax-energy with loss cap {loss_cap:g} kWh -> "
        f"delivered {plan.transferred:g} kWh, lost {plan.loss:g} kWh"
    )
    for path, energy in zip(request.paths, plan.energies):
        if energy:
            econ = path_economics(path, params, scenario.penetration)
            print(f"  {energy:g} kWh over the {path.hops}-hop path "
                  f"(loss {econ.loss_factor * energy:g} kWh)")

# --- meet a delivery floor at minimum loss ----------------------------------
request = PlanRequest(
    paths=tuple(paths), params=params, objective=MIN_LOSS,
    delivery_floor=10.0, penetration=scenario.penetration,
)
plan = solve(request)
print(f"\nmin-loss delivering at least 10 kWh -> lost {plan.loss:g} kWh "
      f"({plan.status})")
for path, energy in zip(request.paths, plan.energies):
    if energy:
        print(f"  {energy:g} kWh over the {path.hops}-hop path")
