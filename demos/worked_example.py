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
index = scenario.index  # built with the scenario; one index serves every pair
table = enumerate_paths(index, source, target, scenario.enumeration)
paths = list(table)  # the table builds its path objects on demand, for reports
print(f"\n{len(paths)} energy paths, cheapest cycle count first:")
for path in paths:
    chain = " + ".join(
        f"route {seg.route_id} arcs {seg.start}..{seg.end} "
        f"({seg.entry}->{seg.exit})"
        for seg in path.segments
    )
    print(f"  {path.hops} hop(s), delay {path.delay} h: {chain}")

# --- price each path --------------------------------------------------------
# pricing and planning read the table's hops, delays and bottleneck flows
# as arrays, however often the parameters change
print("\nper-path economics (rate = packet size x slowest segment flow):")
rates, capacities, loss_factors = path_economics(table, params, scenario.penetration)
for path, rate, capacity, lam in zip(paths, rates, capacities, loss_factors):
    print(
        f"  hops={path.hops}  rate<={rate:g} kWh/h  "
        f"capacity={capacity:g} kWh  "
        f"loss/delivered={lam:.4f}"
    )

# --- maximize delivery under a loss budget ----------------------------------
for loss_cap in (float("inf"), 2.0, 0.0):
    plan = solve(
        table, params, MAX_ENERGY, loss_cap=loss_cap, penetration=scenario.penetration
    )
    print(
        f"\nmax-energy with loss cap {loss_cap:g} kWh -> "
        f"delivered {plan.transferred:g} kWh, lost {plan.loss:g} kWh"
    )
    for path, energy, lam in zip(paths, plan.energies, loss_factors):
        if energy:
            print(f"  {energy:g} kWh over the {path.hops}-hop path "
                  f"(loss {lam * energy:g} kWh)")

# --- meet a delivery floor at minimum loss ----------------------------------
plan = solve(
    table, params, MIN_LOSS, delivery_floor=10.0, penetration=scenario.penetration
)
print(f"\nmin-loss delivering at least 10 kWh -> lost {plan.loss:g} kWh "
      f"({plan.status})")
for path, energy in zip(paths, plan.energies):
    if energy:
        print(f"  {energy:g} kWh over the {path.hops}-hop path")
