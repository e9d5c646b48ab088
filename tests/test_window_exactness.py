"""Bit-for-bit exactness of the window-bounded path search, as a tier-1 test.

``test_exactness.py`` digests the unbounded search. This test runs the same
seeds, modes, hop limits, caps and pairs with ``max_delay`` set to each
city's transfer window and to half of it, which prunes more paths, and
digests each table's columns and the plans of every non-empty table with
``test_exactness.py``'s records. A change to the window prune, the bound
table or the fill that moves any bit fails here.
"""

import hashlib
import itertools

from venplan import (
    FULL_ROUTE,
    PER_HOP,
    EnumerationConfig,
    GeneratorConfig,
    enumerate_paths,
    generate_scenario,
)

from test_exactness import SEEDS, column_record, plan_records


def window_digests(seeds, fraction) -> tuple[int, str, str]:
    """Path count and the column and plan digests of ``seeds`` with
    ``max_delay`` at ``fraction`` of each city's window."""
    columns, plans = hashlib.sha256(), hashlib.sha256()
    count = 0
    for seed in seeds:
        city = generate_scenario(GeneratorConfig(
            seed=seed, junction_count=14, arc_count=28, route_count=24, pair_count=4,
        ))
        max_delay = fraction * city.params.window
        pairs = [pair for s, t in city.pairs for pair in ((s, t), (t, s))]
        for mode, max_hops, cap in itertools.product(
            (FULL_ROUTE, PER_HOP), (1, 2, 4, 6), (None, 1, 3, 17)
        ):
            config = EnumerationConfig(max_hops=max_hops, max_paths=cap, mode=mode)
            for source, target in pairs:
                table = enumerate_paths(city.index, source, target, config, max_delay)
                columns.update(column_record(city.index, table))
                count += len(table)
                if table:
                    for record in plan_records(city, table):
                        plans.update(record)
    return count, columns.hexdigest(), plans.hexdigest()


def test_window_bounded_paths_and_plans_are_unchanged():
    assert window_digests(SEEDS, 1.0) == (
        158342,
        "23d38ab867d7333cae762bf33e4ce7b13b9739d5465edfead07b95f39c96321e",
        "632b9adb318b9ecdc5019ecd9f4f2592e0514294ee3b752f3afaa12c888b0f36",
    )
    assert window_digests(SEEDS, 0.5) == (
        14417,
        "fe569108a777dd188630fbb7aacc263bc04eba4cc71620899974ffd030ec9e7e",
        "2a2a613bc82d8ef057d9c63817fe4b9f9ffb4f766ac5d8a98bcebef57e8738d1",
    )
