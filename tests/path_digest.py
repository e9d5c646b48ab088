"""Print the path count and one SHA-256 over every path of a fixed workload.

Run it before and after a change to the path search: equal lines mean
byte-identical paths. It is not a pytest module and takes no options:

    PYTHONPATH=src python tests/path_digest.py

The workload is 40 generated cities (14 junctions, 28 arcs, 24 routes and
4 pairs each; seeds 1 to 40), each pair and its reverse, in both modes, with
``max_hops`` 1, 2, 4 and 6 and result caps None, 1, 3 and 17. The digest
covers each path's hops, delay and bottleneck flow, and each segment's
route, span, entry, exit, delay and flow, with every float as ``float.hex``.
It takes a few minutes.
"""

import hashlib
import itertools

from venplan import (
    FULL_ROUTE,
    PER_HOP,
    EnumerationConfig,
    GeneratorConfig,
    RouteIndex,
    enumerate_paths,
    generate_scenario,
)


def path_record(path) -> bytes:
    segments = tuple(
        (s.route_id, s.start, s.end, s.entry, s.exit, s.delay.hex(), s.flow.hex())
        for s in path.segments
    )
    fields = (path.hops, path.delay.hex(), path.bottleneck_flow.hex(), segments)
    return repr(fields).encode() + b"\n"


def main() -> None:
    digest, count = hashlib.sha256(), 0
    for seed in range(1, 41):
        city = generate_scenario(GeneratorConfig(
            seed=seed, junction_count=14, arc_count=28, route_count=24, pair_count=4,
        ))
        index = RouteIndex(city.network, city.routes)
        pairs = [pair for s, t in city.pairs for pair in ((s, t), (t, s))]
        for mode, max_hops, cap in itertools.product(
            (FULL_ROUTE, PER_HOP), (1, 2, 4, 6), (None, 1, 3, 17)
        ):
            config = EnumerationConfig(max_hops=max_hops, max_paths=cap, mode=mode)
            for source, target in pairs:
                for path in enumerate_paths(index, source, target, config):
                    digest.update(path_record(path))
                    count += 1
    print(f"{count} paths sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
