"""Deep searches on the paper-scale cities: pinned outputs and a memory bound.

"City 81" and "city 80" are the benchmark's ``city-plan`` generator config
(998 junctions, 2,470 arcs, 4,788 routes, 4 pairs) with seeds 81 and 80.
Searched deeper than that config's own ``max_hops=4``, most paths of a pair
are labellings of a few arc sequences by the many routes that share them.
Each digest is the SHA-256 of the paths' signature: hop count, delay and
every segment's route id, span and delay, with floats in hex. They were
computed by the earlier search that kept one state per labelling.
"""

import hashlib
from dataclasses import replace

import pytest

from venplan import (
    FULL_ROUTE,
    PER_HOP,
    EnumerationConfig,
    GeneratorConfig,
    RouteIndex,
    enumerate_paths,
    generate_scenario,
)

from conftest import needs_proc, run_capped

CITY = GeneratorConfig(
    seed=81,
    junction_count=998,
    arc_count=2470,
    route_count=4788,
    pair_count=4,
    delay_range=(0.05, 0.5),
    enumeration=EnumerationConfig(max_hops=4, max_paths=20),
)
FULL_ROUTE_DEEP = EnumerationConfig(max_hops=6, max_paths=200, mode=FULL_ROUTE)
PER_HOP_DEEP = EnumerationConfig(max_hops=12, max_paths=20, mode=PER_HOP)


def signature(paths) -> str:
    rows = [
        (
            p.hops,
            p.delay.hex(),
            tuple((s.route_id, s.start, s.end, s.delay.hex()) for s in p.segments),
        )
        for p in paths
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def indexes():
    found = {}
    for seed in (80, 81):
        city = generate_scenario(replace(CITY, seed=seed))
        found[seed] = RouteIndex(city.network, city.routes)
    return found


DEEP_CASES = [
    (80, FULL_ROUTE_DEEP, (139, 619),
     "3f6c1129a1286bd5b4e6c5a158dff8063fb339fdfaf399a61dc8f24e69e8a209"),
    (80, FULL_ROUTE_DEEP, (836, 182),
     "1f7d58b4be604ad83db51935b219fe6366e8919215ca430c0845d9b74205fdfe"),
    (80, FULL_ROUTE_DEEP, (155, 804),
     "03ac8cf678add5fd7c6a9990bf2a6df76b8b5481697460021484439104f04721"),
    (80, FULL_ROUTE_DEEP, (23, 192),
     "bce09865059c66201988afa3721193c09800615ff029f7856865b5356b6e5d20"),
    (81, PER_HOP_DEEP, (960, 122),
     "129d08b3fbe1acc95d6c11cfc13c8ad3026914099b056dc6b56caa058dddcb17"),
    (81, PER_HOP_DEEP, (260, 963),
     "6db61a2487d3b96eb8fa08b9c5c740d9b144306a88223217dfbe769ad0611a62"),
    (81, PER_HOP_DEEP, (299, 786),
     "c9256a8bb1b66af997cc9cb59add240fd0ebfe49c65d287774c843a8dbd368db"),
    (81, PER_HOP_DEEP, (333, 860),
     "9e83f2375c2313c524c9288c1836f650af153fa4be98fd3274b96c87aac478c0"),
]


@pytest.mark.parametrize(
    "seed, config, pair, digest",
    DEEP_CASES,
    ids=[f"{config.mode}-city{seed}-{s}-{t}" for seed, config, (s, t), _ in DEEP_CASES],
)
def test_deep_paths(indexes, seed, config, pair, digest):
    paths = enumerate_paths(indexes[seed], *pair, config)
    assert len(paths) == config.max_paths
    assert signature(paths) == digest


@needs_proc
def test_deep_searches_fit_in_memory():
    # Every pair of both cities, in a child that caps its address space
    # 512 MiB above its size after import. Each must return its full cap.
    code = f"""
from dataclasses import replace
from venplan import *
for seed, config in ((81, {PER_HOP_DEEP!r}), (80, {FULL_ROUTE_DEEP!r})):
    city = generate_scenario(replace({CITY!r}, seed=seed))
    index = RouteIndex(city.network, city.routes)
    for source, target in city.pairs:
        print(len(enumerate_paths(index, source, target, config)))
"""
    done = run_capped(code, headroom_mib=512, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["20"] * 4 + ["200"] * 4
