"""Print one SHA-256 over every path of a fixed workload, and one over their fills.

Run it before and after a change to the path search or the planner: equal
lines mean byte-identical paths and plans. It is not a pytest module and
takes no options:

    PYTHONPATH=src python tests/path_digest.py

The workload is 40 generated cities (14 junctions, 28 arcs, 24 routes and
4 pairs each; seeds 1 to 40), each pair and its reverse, in both modes, with
``max_hops`` 1, 2, 4 and 6 and result caps None, 1, 3 and 17. The first
line counts the paths and digests each path's hops, delay and bottleneck
flow, and each segment's route, span, entry, exit, delay and flow. The
second digests the plans ``solve`` makes of every non-empty path table at
the 19 sweep-grid efficiencies 0.05 to 0.95 and at 1.0: max-energy under
half the uncapped loss and min-loss under half the total capacity, both of
which bind. Every float is hashed as ``float.hex``. The paths are read
through the ones each table builds on demand. It takes 10 to 15 minutes.
"""

import hashlib
import itertools
import math

from venplan import (
    FULL_ROUTE,
    MAX_ENERGY,
    MIN_LOSS,
    PER_HOP,
    EnergyParams,
    EnumerationConfig,
    GeneratorConfig,
    enumerate_paths,
    generate_scenario,
    solve,
)

Z_VALUES = tuple(v / 20 for v in range(1, 20)) + (1.0,)


def path_record(path) -> bytes:
    segments = tuple(
        (s.route_id, s.start, s.end, s.entry, s.exit, s.delay.hex(), s.flow.hex())
        for s in path.segments
    )
    fields = (path.hops, path.delay.hex(), path.bottleneck_flow.hex(), segments)
    return repr(fields).encode() + b"\n"


def fill_records(city, table):
    """The plans of one path table, one record per (z, objective)."""
    for z in Z_VALUES:
        params = EnergyParams.with_round_trip(city.params.packet_size, z, city.params.window)
        uncapped = solve(table, params, MAX_ENERGY, math.inf, 0.0, city.penetration)
        for objective, cap, floor in (
            (MAX_ENERGY, 0.5 * uncapped.loss, 0.0),
            (MIN_LOSS, math.inf, 0.5 * uncapped.transferred),
        ):
            plan = solve(table, params, objective, cap, floor, city.penetration)
            fields = (
                z.hex(), objective, plan.status, plan.transferred.hex(), plan.loss.hex(),
                tuple(x.hex() for x in plan.energies),
            )
            yield repr(fields).encode() + b"\n"


def main() -> None:
    digest, count = hashlib.sha256(), 0
    fills = hashlib.sha256()
    for seed in range(1, 41):
        city = generate_scenario(GeneratorConfig(
            seed=seed, junction_count=14, arc_count=28, route_count=24, pair_count=4,
        ))
        pairs = [pair for s, t in city.pairs for pair in ((s, t), (t, s))]
        for mode, max_hops, cap in itertools.product(
            (FULL_ROUTE, PER_HOP), (1, 2, 4, 6), (None, 1, 3, 17)
        ):
            config = EnumerationConfig(max_hops=max_hops, max_paths=cap, mode=mode)
            for source, target in pairs:
                table = enumerate_paths(city.index, source, target, config)
                for path in table:
                    digest.update(path_record(path))
                    count += 1
                if table:
                    for record in fill_records(city, table):
                        fills.update(record)
    print(f"{count} paths sha256 {digest.hexdigest()}")
    print(f"fills sha256 {fills.hexdigest()}")


if __name__ == "__main__":
    main()
