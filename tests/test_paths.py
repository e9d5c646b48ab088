import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import sys
import threading
import unittest.mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import venplan.cli
import venplan.energetics
import venplan.paths
import venplan.planner
import venplan.scenario
import venplan.sweep
from venplan import (
    Arc,
    EnergyParams,
    EnergyPath,
    EnumerationConfig,
    FULL_ROUTE,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    PER_HOP,
    SWEEP_PARAMETERS,
    GeneratorConfig,
    RouteIndex,
    SweepSpec,
    ValidationError,
    VehicularRoute,
    build_network,
    enumerate_paths,
    generate_scenario,
    parse_scenario,
    run_sweep,
    solve,
    sweep_metadata,
    sweep_to_csv,
)

from _oracles import (
    IdView,
    PathTable,
    brute_force_paths,
    energy_path,
    reference_bound_table,
    reference_least_delays,
    reference_reach,
    sub_route,
    validate_path,
)
from conftest import chain_network, shift_ids


def segment_shape(path):
    return tuple((s.route_id, s.start, s.end) for s in path.segments)


def exact_ties_network():
    """Routes 1 and 2 ride the same arcs 1 -> 2 -> 3 -> 4 of 0.5 h each, so
    every path from 1 to 4 takes exactly 1.5 h."""
    arcs = [Arc(i, i, i + 1, 0.5, 5.0) for i in (1, 2, 3)]
    net = build_network([1, 2, 3, 4], arcs)
    return net, [VehicularRoute(1, (1, 2, 3), 5.0), VehicularRoute(2, (1, 2, 3), 5.0)]


def fewest_segments_slower_network():
    """1 -> 4 directly takes 20 h, two segments via 2 take 2 h and three
    segments via 3 take 0.4 h: each hop budget cuts off a faster completion.
    """
    arcs = [
        Arc(1, 1, 4, 20.0, 5.0),
        Arc(2, 1, 2, 1.0, 5.0),
        Arc(3, 2, 4, 1.0, 5.0),
        Arc(4, 1, 3, 0.1, 5.0),
        Arc(5, 3, 2, 0.1, 5.0),
        Arc(6, 2, 5, 0.1, 5.0),
        Arc(7, 5, 4, 0.1, 5.0),
    ]
    net = build_network([1, 2, 3, 4, 5], arcs)
    routes = [
        VehicularRoute(1, (1,), 5.0),
        VehicularRoute(2, (2,), 5.0),
        VehicularRoute(3, (3,), 5.0),
        VehicularRoute(4, (4,), 5.0),
        VehicularRoute(5, (5, 6), 5.0),
        VehicularRoute(6, (7,), 5.0),
    ]
    return net, routes


def stop_point_network():
    """Routes whose walks stop short of their ends, from source 1 to 9.

    * Route 1 runs 1 -> 2 -> 3 -> 4 -> 5: its last head within one more
      segment of 9 is 3 (route 2 runs 3 -> 9); no route leads on from 4 or
      5, whose arc 5 -> 2 is on no route.
    * Route 3 runs 1 -> 6 -> 7 -> 8 -> 9: in one segment only its last head
      reaches 9.
    * Route 4 runs 1 -> 11 -> 12 -> 9; at 11 the only other entry, route 5,
      leads to the dead end 13, so the only continuation that can still
      reach 9 continues route 4 and is skipped.
    """
    arcs = [
        Arc(1, 1, 2, 0.3, 5.0),
        Arc(2, 2, 3, 0.2, 5.0),
        Arc(3, 3, 4, 0.1, 5.0),
        Arc(4, 4, 5, 0.1, 5.0),
        Arc(5, 5, 2, 0.1, 5.0),
        Arc(6, 3, 9, 0.4, 5.0),
        Arc(7, 1, 6, 0.5, 5.0),
        Arc(8, 6, 7, 0.5, 5.0),
        Arc(9, 7, 8, 0.5, 5.0),
        Arc(10, 8, 9, 0.5, 5.0),
        Arc(11, 1, 11, 0.2, 5.0),
        Arc(12, 11, 12, 0.2, 5.0),
        Arc(13, 12, 9, 0.2, 5.0),
        Arc(14, 11, 13, 0.1, 5.0),
    ]
    net = build_network([1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13], arcs)
    routes = [
        VehicularRoute(1, (1, 2, 3, 4), 5.0),
        VehicularRoute(2, (6,), 5.0),
        VehicularRoute(3, (7, 8, 9, 10), 5.0),
        VehicularRoute(4, (11, 12, 13), 5.0),
        VehicularRoute(5, (14,), 5.0),
    ]
    return net, routes


def small_config(seed):
    rng = random.Random(seed)
    junctions = rng.randint(4, 8)
    max_arcs = junctions * (junctions - 1)
    return GeneratorConfig(
        seed=seed,
        junction_count=junctions,
        arc_count=min(max_arcs, junctions + rng.randint(1, 6)),
        route_count=rng.randint(2, 6),
        pair_count=1,
        enumeration=EnumerationConfig(max_hops=rng.randint(2, 4), max_paths=None),
    )


class TestThreeRouteExample:
    """The worked example: three routes over five junctions, s=1, t=4."""

    def paths(self, scenario, **overrides):
        config = EnumerationConfig(
            max_hops=overrides.get("max_hops", 4),
            max_paths=overrides.get("max_paths", None),
            mode=overrides.get("mode", FULL_ROUTE),
        )
        return enumerate_paths(RouteIndex(scenario.network, scenario.routes), 1, 4, config)

    def test_exactly_three_paths(self, three_routes_scenario):
        found = self.paths(three_routes_scenario)
        assert [segment_shape(p) for p in found] == [
            ((3, 1, 3),),
            ((1, 1, 1), (2, 2, 2)),
            ((3, 1, 1), (2, 1, 2)),
        ]

    def test_caps_do_not_change_the_set(self, three_routes_scenario):
        for max_hops in (3, 4, 6):
            for max_paths in (3, 5, None):
                found = self.paths(
                    three_routes_scenario, max_hops=max_hops, max_paths=max_paths
                )
                assert len(found) == 3

    def test_matches_brute_force(self, three_routes_scenario):
        s = three_routes_scenario
        expected = brute_force_paths(s.network, s.routes, 1, 4, 4)
        assert list(self.paths(s)) == expected

    def test_all_paths_validate(self, three_routes_scenario):
        s = three_routes_scenario
        for path in self.paths(s):
            assert validate_path(path, s.network, s.routes) is None

    def test_per_hop_paths(self, three_routes_scenario):
        found = self.paths(three_routes_scenario, mode=PER_HOP)
        routes = {r.id: r for r in three_routes_scenario.routes}

        def arc_count(seg):
            return len(routes[seg.route_id].arcs[seg.start - 1 : seg.end])

        assert [segment_shape(p) for p in found] == [
            ((1, 1, 1), (2, 2, 2)),
            ((3, 1, 1), (2, 1, 1), (2, 2, 2)),
            ((3, 1, 1), (3, 2, 2), (3, 3, 3)),
        ]
        for path in found:
            assert all(arc_count(seg) == 1 for seg in path.segments)
            assert path.hops == sum(map(arc_count, path.segments))


class TestEnumerationProperties:
    def test_unreachable_target_gives_empty_list(self):
        net = build_network([1, 2, 3], [Arc(1, 1, 2, 1.0, 5.0)])
        routes = [VehicularRoute(1, (1,), 5.0)]
        assert list(enumerate_paths(RouteIndex(net, routes), 1, 3, EnumerationConfig())) == []

    def test_junction_without_route_coverage_unreachable(self):
        net = build_network([1, 2, 3], [Arc(1, 1, 2, 1.0, 5.0), Arc(2, 2, 3, 1.0, 5.0)])
        routes = [VehicularRoute(1, (1,), 5.0)]  # arc 2 carries no route
        assert list(enumerate_paths(RouteIndex(net, routes), 1, 3, EnumerationConfig())) == []

    def test_unknown_junctions_rejected(self, three_routes_scenario):
        s = three_routes_scenario
        with pytest.raises(ValidationError, match="unknown source"):
            enumerate_paths(RouteIndex(s.network, s.routes), 99, 4, EnumerationConfig())
        with pytest.raises(ValidationError, match="unknown target"):
            enumerate_paths(RouteIndex(s.network, s.routes), 1, 99, EnumerationConfig())
        with pytest.raises(ValidationError, match="must differ"):
            enumerate_paths(RouteIndex(s.network, s.routes), 1, 1, EnumerationConfig())

    def test_deterministic_repetition(self, three_routes_scenario):
        s = three_routes_scenario
        index = RouteIndex(s.network, s.routes)
        first = enumerate_paths(index, 1, 4, s.enumeration)
        second = enumerate_paths(index, 1, 4, s.enumeration)
        assert list(first) == list(second)
        fresh = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)
        assert list(fresh) == list(first)

    def test_result_cap_is_a_prefix_of_the_full_list(self, three_routes_scenario):
        s = three_routes_scenario
        index = RouteIndex(s.network, s.routes)
        full = enumerate_paths(index, 1, 4, EnumerationConfig(max_hops=4, max_paths=None))
        for k in (1, 2, 3):
            capped = enumerate_paths(index, 1, 4, EnumerationConfig(max_hops=4, max_paths=k))
            assert list(capped) == list(full)[:k]

    def test_hop_cap_respected(self, three_routes_scenario):
        s = three_routes_scenario
        only_direct = enumerate_paths(
            RouteIndex(s.network, s.routes), 1, 4, EnumerationConfig(max_hops=1, max_paths=None)
        )
        assert [segment_shape(p) for p in only_direct] == [((3, 1, 3),)]

    def test_path_longer_than_the_recursion_limit(self):
        # one single-arc route per arc of a 1,499-arc chain: the only path has
        # more segments than Python's default limit of 1,000 nested calls
        net = chain_network([0.1] * 1499)
        index = RouteIndex(net, [VehicularRoute(i, (i,), 5.0) for i in range(1, 1500)])
        for mode in (FULL_ROUTE, PER_HOP):
            for cap in (None, 1):
                config = EnumerationConfig(max_hops=1499, max_paths=cap, mode=mode)
                found = enumerate_paths(index, 1, 1500, config)
                assert [p.hops for p in found] == [1499], (mode, cap)

    def test_matches_brute_force_on_random_scenarios(self):
        for seed in range(1, 13):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            index = RouteIndex(net, routes)
            for hops in range(1, scenario.enumeration.max_hops + 1):
                for mode in (FULL_ROUTE, PER_HOP):
                    config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                    for s in sorted(net.junctions):
                        for t in sorted(net.junctions):
                            if s == t:
                                continue
                            found = enumerate_paths(index, s, t, config)
                            expected = brute_force_paths(net, routes, s, t, hops, mode)
                            assert list(found) == expected, (seed, hops, mode, s, t)
                            for cap in {1, max(1, len(expected) // 2)}:
                                capped = enumerate_paths(
                                    index, s, t, dataclasses.replace(config, max_paths=cap)
                                )
                                where = (seed, hops, mode, s, t, cap)
                                assert list(capped) == expected[:cap], where

    def test_delay_is_a_left_to_right_fold(self):
        # the stored delay is the search's key, summed left to right from 0.0
        # (sum() rounds differently from Python 3.12 on), and the stored flow
        # its labelling walk's running minimum; both must equal the fold
        for seed in range(1, 13):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            index = RouteIndex(net, routes)
            for mode in (FULL_ROUTE, PER_HOP):
                config = dataclasses.replace(scenario.enumeration, mode=mode)
                for s in sorted(net.junctions):
                    for t in sorted(net.junctions - {s}):
                        for path in enumerate_paths(index, s, t, config):
                            assert validate_path(path, net, routes) is None, (seed, s, t)

    def test_fewest_segments_slower_than_more_segments(self):
        # the search bound must account for the faster completions that each
        # hop budget cuts off
        net, routes = fewest_segments_slower_network()
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            for hops in (1, 2, 3):
                config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                found = enumerate_paths(index, 1, 4, config)
                assert list(found) == brute_force_paths(net, routes, 1, 4, hops, mode)
                assert found[0].delay == 20.0, (mode, hops)
            assert min(found, key=lambda p: p.delay).hops == 3, mode

    def test_walks_stop_where_the_target_is_out_of_reach(self):
        net, routes = stop_point_network()
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            for hops in (1, 2, 3, 4):
                config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                for source in (1, 2, 3, 11):
                    found = enumerate_paths(index, source, 9, config)
                    expected = brute_force_paths(net, routes, source, 9, hops, mode)
                    assert list(found) == expected, (mode, hops, source)
        config = EnumerationConfig(max_hops=4, max_paths=None)
        assert [segment_shape(p) for p in enumerate_paths(index, 1, 9, config)] == [
            ((4, 1, 3),),
            ((3, 1, 4),),
            ((1, 1, 2), (2, 1, 1)),
        ]

    def test_exact_ties_ordered_by_route_ids_then_spans(self):
        net, routes = exact_ties_network()
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            for hops in (1, 2, 3):
                config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                found = enumerate_paths(index, 1, 4, config)
                expected = brute_force_paths(net, routes, 1, 4, hops, mode)
                assert list(found) == expected
                assert all(p.delay == 1.5 for p in found), (mode, hops)
                for cap in range(1, len(expected) + 1):
                    capped = enumerate_paths(
                        index, 1, 4, dataclasses.replace(config, max_paths=cap)
                    )
                    assert list(capped) == expected[:cap], (mode, hops, cap)
            assert len(found) == 8, mode  # 2 + 4 + 2 and 2**3 paths
        config = EnumerationConfig(max_hops=3, max_paths=None)
        assert [segment_shape(p) for p in enumerate_paths(index, 1, 4, config)] == [
            ((1, 1, 3),),
            ((2, 1, 3),),
            ((1, 1, 1), (2, 2, 3)),
            ((1, 1, 2), (2, 3, 3)),
            ((2, 1, 1), (1, 2, 3)),
            ((2, 1, 2), (1, 3, 3)),
            ((1, 1, 1), (2, 2, 2), (1, 3, 3)),
            ((2, 1, 1), (1, 2, 2), (2, 3, 3)),
        ]

    def test_pops_a_complete_path_only_to_return_it(self, heap_pops, monkeypatch):
        # every path ties with all others on (hops, delay) at its hop count,
        # so a capped search must stop without emitting the tied rest or
        # expanding a partial state keyed past its last path; it builds no
        # path, and the table builds each of its rows once when iterated
        built = []

        def counting(*fields):
            built.append(EnergyPath(*fields))
            return built[-1]

        monkeypatch.setattr(venplan.paths, "EnergyPath", counting)
        net, routes = exact_ties_network()
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            for cap in range(1, 9):
                heap_pops.clear()
                built.clear()
                config = EnumerationConfig(max_hops=3, max_paths=cap, mode=mode)
                table = enumerate_paths(index, 1, 4, config)
                assert len(table) == cap and built == [], (mode, cap)
                found = list(table)
                assert built == found, (mode, cap)
                last = (found[-1].hops, found[-1].delay)
                assert all(entry[:2] <= last for entry in heap_pops), (mode, cap)
                # complete entries carry flag 0, and each popped one's group
                # returns paths
                assert {entry[:2] for entry in heap_pops if not entry[2]} == {
                    (p.hops, p.delay) for p in found
                }, (mode, cap)

    def test_soundness_on_random_scenarios(self):
        for seed in (21, 22, 23):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            index = RouteIndex(net, routes)
            for s in sorted(net.junctions):
                for t in sorted(net.junctions):
                    if s == t:
                        continue
                    for path in enumerate_paths(index, s, t, scenario.enumeration):
                        assert validate_path(path, net, routes) is None

    def test_per_hop_subset_of_full_route(self):
        # Per-hop paths that never chain two slices of the same route are
        # exactly the single-arc-segment paths full-route mode also finds.
        for seed in (31, 32, 33):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            index = RouteIndex(net, routes)
            hops = scenario.enumeration.max_hops
            for s in sorted(net.junctions):
                for t in sorted(net.junctions):
                    if s == t:
                        continue
                    full = set(
                        enumerate_paths(
                            index, s, t, EnumerationConfig(max_hops=hops, max_paths=None)
                        )
                    )
                    per_hop = enumerate_paths(
                        index, s, t,
                        EnumerationConfig(max_hops=hops, max_paths=None, mode=PER_HOP),
                    )
                    for path in per_hop:
                        chained = any(
                            a.route_id == b.route_id and b.start == a.end + 1
                            for a, b in zip(path.segments, path.segments[1:])
                        )
                        if not chained:
                            assert path in full


def chain_routes_network(delays, routes, extra_arcs=()):
    """Junctions 1..n+1 with arc i running i -> i+1, plus ``extra_arcs``;
    ``routes`` maps route ids to arc tuples."""
    arcs = [Arc(i + 1, i + 1, i + 2, delay, 5.0) for i, delay in enumerate(delays)]
    arcs += list(extra_arcs)
    net = build_network(range(1, len(delays) + 2), arcs)
    return net, [VehicularRoute(r, tuple(ids), 5.0) for r, ids in routes.items()]


def looping_city(seed):
    """Seven junctions, dyadic delays that tie often, and routes grown by
    loop-free random walks over 18 arcs, so that routes often share arcs."""
    rng = random.Random(seed)
    pairs = {(a, b) for a in range(1, 8) for b in range(1, 8) if a != b}
    arcs = [
        Arc(i + 1, a, b, rng.choice((0.25, 0.5)), 5.0)
        for i, (a, b) in enumerate(rng.sample(sorted(pairs), 18))
    ]
    net = build_network(range(1, 8), arcs)
    routes = []
    for route_id in range(1, rng.randint(4, 9)):
        arc = rng.choice(arcs)
        walk, visited = [arc], {arc.tail, arc.head}
        for _ in range(rng.randint(0, 6)):
            onward = [a for a in arcs if a.tail == walk[-1].head and a.head not in visited]
            if not onward:
                break
            walk.append(rng.choice(onward))
            visited.add(walk[-1].head)
        routes.append(VehicularRoute(route_id, tuple(a.id for a in walk), 5.0))
    return net, routes


class TestStretchLabels:
    """Routes that share stretches: the search over stretch sequences and the
    labellings it expands give exactly the brute-force paths, in order."""

    def check(self, net, routes, pairs):
        index = RouteIndex(net, routes)
        found = {}
        for mode in (FULL_ROUTE, PER_HOP):
            for hops in range(1, 6):
                for source, target in pairs:
                    expected = brute_force_paths(net, routes, source, target, hops, mode)
                    for cap in (None, 1, 3):
                        config = EnumerationConfig(max_hops=hops, max_paths=cap, mode=mode)
                        result = enumerate_paths(index, source, target, config)
                        assert list(result) == expected[:cap], (mode, hops, source, target, cap)
                    found[mode, hops, source, target] = [segment_shape(p) for p in expected]
        return found

    def test_two_routes_overlap_on_a_stretch(self):
        # routes 1 and 2 both cover 2 -> 3 -> 4; route 3 leaves 1 for 3
        net, routes = chain_routes_network(
            [0.5, 0.25, 0.5, 0.25],
            {1: (1, 2, 3), 2: (2, 3, 4), 3: (5,), 4: (4,)},
            [Arc(5, 1, 3, 1.0, 5.0)],
        )
        found = self.check(net, routes, [(1, 5), (1, 4), (2, 5), (3, 5), (2, 4)])
        assert found[FULL_ROUTE, 2, 2, 4] == [
            ((1, 2, 3),),
            ((2, 1, 2),),
            ((1, 2, 2), (2, 2, 2)),
            ((2, 1, 1), (1, 3, 3)),
        ]
        assert found[FULL_ROUTE, 2, 1, 5] == [
            ((1, 1, 1), (2, 1, 3)),
            ((1, 1, 2), (2, 2, 3)),
            ((1, 1, 3), (2, 3, 3)),
            ((1, 1, 3), (4, 1, 1)),
            ((3, 1, 1), (2, 2, 3)),
        ]

    def test_stretch_covered_only_by_a_continuation(self, heap_pops):
        # 2 -> 3 is covered only by route 1, which also brings the path to 2
        net, routes = chain_routes_network([0.5, 0.5, 0.5], {1: (1, 2), 2: (3,)})
        found = self.check(net, routes, [(1, 4), (2, 4), (1, 3)])
        for hops in (3, 4, 5):
            assert found[FULL_ROUTE, hops, 1, 4] == [((1, 1, 2), (2, 1, 1))]
            assert found[FULL_ROUTE, hops, 1, 3] == [((1, 1, 2),)]
        # 1 -> 2, 2 -> 3 is never pushed, so the states popped are the
        # source, 1 -> 2 -> 3, the one path and 1 -> 2, in key order
        heap_pops.clear()
        config = EnumerationConfig(max_hops=3, max_paths=None)
        assert len(enumerate_paths(RouteIndex(net, routes), 1, 4, config)) == 1
        assert [len(entry[3]) for entry in heap_pops] == [0, 1, 2, 1]
        # a second cover of 1 -> 2 makes the three-stretch sequence valid
        net, routes = chain_routes_network([0.5, 0.5, 0.5], {1: (1, 2), 2: (3,), 3: (1,)})
        found = self.check(net, routes, [(1, 4), (2, 4), (1, 3)])
        assert found[FULL_ROUTE, 3, 1, 4] == [
            ((1, 1, 2), (2, 1, 1)),
            ((3, 1, 1), (1, 2, 2), (2, 1, 1)),
        ]

    def test_tied_splits_interleave_by_route_ids_then_spans(self):
        # routes 1 and 2 run 1 -> 2 -> 3 -> 4 and route 3 runs 2 -> 3 -> 4;
        # splitting at 2 or at 3 gives the same arcs and, with dyadic delays,
        # the same delay bit for bit
        net, routes = chain_routes_network(
            [0.5, 0.25, 0.5], {1: (1, 2, 3), 2: (1, 2, 3), 3: (2, 3)}
        )
        found = self.check(net, routes, [(1, 4), (2, 4), (1, 3)])
        two_hops = [shape for shape in found[FULL_ROUTE, 2, 1, 4] if len(shape) == 2]
        assert two_hops == [
            ((1, 1, 1), (2, 2, 3)),
            ((1, 1, 2), (2, 3, 3)),
            ((1, 1, 1), (3, 1, 2)),
            ((1, 1, 2), (3, 2, 2)),
            ((2, 1, 1), (1, 2, 3)),
            ((2, 1, 2), (1, 3, 3)),
            ((2, 1, 1), (3, 1, 2)),
            ((2, 1, 2), (3, 2, 2)),
        ]

    def test_per_hop_rides_consecutive_arcs_of_one_route(self):
        net, routes = chain_routes_network([0.5, 0.25], {1: (1, 2)})
        found = self.check(net, routes, [(1, 3)])
        assert found[PER_HOP, 2, 1, 3] == [((1, 1, 1), (1, 2, 2))]
        assert found[FULL_ROUTE, 2, 1, 3] == [((1, 1, 2),)]

    def test_route_passing_a_junction_twice(self):
        # route 1 would run 1 -> 2 -> 3 -> 1 -> 2 -> 4, covering arc 1 twice;
        # no index holds it, so the search never meets a looping route
        net, routes = chain_routes_network(
            [0.5, 0.5, 0.5],
            {1: (1, 2, 4, 1, 5), 2: (1,), 3: (5,)},
            [Arc(4, 3, 1, 0.5, 5.0), Arc(5, 2, 4, 0.5, 5.0)],
        )
        with pytest.raises(ValidationError, match="^route 1 visits a junction twice$"):
            RouteIndex(net, routes)
        with pytest.raises(ValidationError, match="^route 1 visits a junction twice$"):
            RouteIndex(net, [*routes[1:], VehicularRoute(1, (1, 2, 4), 5.0)])  # 1 -> 2 -> 3 -> 1

    @pytest.mark.parametrize("seed", range(8))
    def test_looping_routes_and_ties_match_brute_force(self, seed):
        net, routes = looping_city(seed)
        pairs = [(s, t) for s in range(1, 8) for t in range(1, 8) if s != t]
        self.check(net, routes, random.Random(seed).sample(pairs, 4))


def table_bits(table):
    """A bound table with each delay as its exact bit pattern."""
    return {j: (type(k), k, d.hex()) for j, (k, d) in table.items()}


class TestBoundTable:
    """Both layouts' tables equal the scalar reference exactly, float bits too."""

    def check(self, net, routes, least=True):
        """``least=False`` leaves out the brute-force least-delay check,
        too slow for cities of more than a few junctions."""
        built = RouteIndex(net, routes)
        index, per_hop = IdView(built), IdView(built._per_hop_layout())
        route_map = {r.id: r for r in routes}
        members = sum(len(r.arcs) for r in routes)
        out = len(net.junctions)
        least_delays = {
            (mode, target): reference_least_delays(net, routes, target, mode, 6)
            for mode in (FULL_ROUTE, PER_HOP) for target in net.junctions if least
        }
        for max_hops in range(1, 7):
            for target in sorted(net.junctions):
                found, reach, found_least = index.bound_table(target, max_hops)
                expected = reference_bound_table(net, routes, target, FULL_ROUTE, max_hops)
                where = (FULL_ROUTE, max_hops, target)
                assert table_bits(found) == table_bits(expected), where
                if least:
                    expected_least = least_delays[FULL_ROUTE, target]
                    assert {j: d.hex() for j, d in found_least.items()} == {
                        j: ds[max_hops - 1].hex() for j, ds in expected_least.items()
                    }, where
                # every member arc is an entry at its tail
                found_reach = {}
                for junction in net.junctions:
                    for route_id, n, slot in index.entries(junction):
                        found_reach[route_id, n] = reach[slot]
                        sentinel = reach[slot + len(route_map[route_id].arcs) - n + 1]
                        assert sentinel == out, where
                expected_reach = {
                    (route_id, n): k
                    for route_id, ks in reference_reach(net, routes, expected).items()
                    for n, k in enumerate(ks, 1)
                }
                assert found_reach == expected_reach, where
                assert len(reach) == len(found_reach) + len(routes), where

                # per-hop: every member arc is a run of its own, so its reach
                # is its own head's k and a sentinel follows it
                found, reach, found_least = per_hop.bound_table(target, max_hops)
                expected = reference_bound_table(net, routes, target, PER_HOP, max_hops)
                where = (PER_HOP, max_hops, target)
                assert table_bits(found) == table_bits(expected), where
                if least:
                    expected_least = least_delays[PER_HOP, target]
                    assert {j: d.hex() for j, d in found_least.items()} == {
                        j: ds[max_hops - 1].hex() for j, ds in expected_least.items()
                    }, where
                found_reach = {}
                for junction in net.junctions:
                    for route_id, n, slot in per_hop.entries(junction):
                        head = net.arcs[route_map[route_id].arcs[n - 1]].head
                        assert reach[slot] == expected.get(head, (out,))[0], where
                        assert reach[slot + 1] == out, where
                        found_reach[route_id, n] = slot
                assert len(found_reach) == members, where
                assert len(reach) == 2 * members, where

    def test_random_scenarios(self):
        for seed in range(1, 13):
            scenario = generate_scenario(small_config(seed))
            self.check(scenario.network, scenario.routes)

    def test_fewest_segments_slower_network(self):
        self.check(*fewest_segments_slower_network())

    def test_stop_point_network(self):
        self.check(*stop_point_network())

    def test_generated_city_with_long_routes(self):
        config = GeneratorConfig(
            seed=5, junction_count=40, arc_count=110, route_count=60, pair_count=1
        )
        scenario = generate_scenario(config)
        assert max(len(r.arcs) for r in scenario.routes) >= 4
        self.check(scenario.network, scenario.routes, least=False)


def unshift_path(path, shift):
    segments = tuple(
        dataclasses.replace(
            s,
            route_id=s.route_id - shift,
            entry=s.entry - shift,
            exit=s.exit - shift,
        )
        for s in path.segments
    )
    return dataclasses.replace(
        path, source=path.source - shift, target=path.target - shift, segments=segments
    )


class TestRouteIndexEdges:
    def test_no_routes_gives_empty_list(self, three_routes_scenario):
        s = three_routes_scenario
        assert list(enumerate_paths(RouteIndex(s.network, []), 1, 4, EnumerationConfig())) == []
        per_hop = EnumerationConfig(mode=PER_HOP)
        assert list(enumerate_paths(RouteIndex(s.network, ()), 1, 4, per_hop)) == []

    def test_unknown_arc_id_rejected(self, three_routes_scenario):
        s = three_routes_scenario
        routes = [*s.routes, VehicularRoute(7, (2, 99), 5.0), VehicularRoute(8, (98,), 5.0)]
        with pytest.raises(ValidationError, match="^unknown arc id 99$"):
            RouteIndex(s.network, routes)

    def test_disconnected_route_rejected(self):
        # arcs 1 -> 2 and 3 -> 4 do not meet, so no path may cross from 2 to 3
        net = build_network([1, 2, 3, 4], [Arc(1, 1, 2, 1.0, 5.0), Arc(2, 3, 4, 1.0, 5.0)])
        with pytest.raises(
            ValidationError, match="^route 7: arc 2 does not start where arc 1 ends$"
        ):
            RouteIndex(net, [VehicularRoute(7, (1, 2), 10.0)])

    def test_duplicate_route_ids_rejected(self, three_routes_scenario):
        s = three_routes_scenario
        routes = [*s.routes, VehicularRoute(2, (1,), 5.0)]
        with pytest.raises(ValidationError, match="duplicate route ids"):
            RouteIndex(s.network, routes)

    def test_target_on_no_route_gives_empty_list(self):
        # junction 4 is reachable by road, but no route uses arc 3
        arcs = [Arc(1, 1, 2, 1.0, 5.0), Arc(2, 2, 3, 1.0, 5.0), Arc(3, 3, 4, 1.0, 5.0)]
        net = build_network([1, 2, 3, 4], arcs)
        routes = [VehicularRoute(1, (1, 2), 5.0)]
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            config = EnumerationConfig(mode=mode)
            assert list(enumerate_paths(index, 1, 4, config)) == []
            assert list(enumerate_paths(index, 1, 3, config)) != []

    @pytest.mark.parametrize("shift", [2**70, -(2**70)])
    def test_ids_beyond_int64(self, three_routes_scenario, shift):
        s = three_routes_scenario
        net, routes = shift_ids(s.network, s.routes, shift)
        index, shifted = RouteIndex(s.network, s.routes), RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            config = EnumerationConfig(max_hops=4, max_paths=None, mode=mode)
            expected = list(enumerate_paths(index, 1, 4, config))
            found = enumerate_paths(shifted, 1 + shift, 4 + shift, config)
            assert expected
            assert [unshift_path(p, shift) for p in found] == expected, mode

    def test_hop_cap_beyond_int64(self, three_routes_scenario):
        s = three_routes_scenario
        index = RouteIndex(s.network, s.routes)
        for mode in (FULL_ROUTE, PER_HOP):
            found = enumerate_paths(
                index, 1, 4, EnumerationConfig(max_hops=2**63, max_paths=None, mode=mode)
            )
            expected = enumerate_paths(
                index, 1, 4,
                EnumerationConfig(
                    max_hops=len(s.network.junctions), max_paths=None, mode=mode
                ),
            )
            assert list(found) == list(expected) and found, mode

    def test_path_cap_beyond_int64(self, three_routes_scenario):
        s = three_routes_scenario
        index = RouteIndex(s.network, s.routes)
        for mode in (FULL_ROUTE, PER_HOP):
            found = enumerate_paths(index, 1, 4, EnumerationConfig(max_paths=2**63, mode=mode))
            expected = enumerate_paths(index, 1, 4, EnumerationConfig(max_paths=None, mode=mode))
            assert list(found) == list(expected) and found, mode

    def test_entries_sorted_by_route_then_position(self, three_routes_scenario):
        s = three_routes_scenario
        index = IdView(RouteIndex(s.network, s.routes[::-1]))
        entries = [index.entries(j) for j in (1, 2, 3, 4, 5)]
        assert [[e[:2] for e in found] for found in entries] == [
            [(1, 1), (3, 1)],
            [(2, 1), (3, 2)],
            [(2, 2)],
            [],
            [(3, 3)],
        ]
        # reach slots run route by route with one sentinel after each route
        assert [[e[2] for e in found] for found in entries] == [[0, 5], [2, 6], [3], [], [7]]

    def test_paths_of_one_call_share_each_slice(self, three_routes_scenario):
        s = three_routes_scenario
        config = EnumerationConfig(max_hops=4, max_paths=None, mode=PER_HOP)
        found = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, config)
        first = {}
        for path in found:
            for seg in path.segments:
                assert first.setdefault((seg.route_id, seg.start, seg.end), seg) is seg
        assert sum(len(p.segments) for p in found) > len(first)  # some are shared


def shared_index_city(seed, mode=FULL_ROUTE):
    return generate_scenario(
        GeneratorConfig(
            seed=seed, junction_count=40, arc_count=110, route_count=60, pair_count=4,
            enumeration=EnumerationConfig(max_hops=4, max_paths=30, mode=mode),
        )
    )


class TestRouteSlices:
    """``RouteIndex.slice`` builds every slice as the network-reading oracle
    does, down to the types of the ids and flows it was given."""

    def check(self, net, routes):
        index = IdView(RouteIndex(net, routes))
        for route in routes:
            for n in range(1, len(route.arcs) + 1):
                for m in range(n, len(route.arcs) + 1):
                    found = index.slice(route.id, (n, m))
                    expected = sub_route(net, route, n, m)
                    assert found == expected
                    assert repr(found) == repr(expected)
                    assert found.delay.hex() == expected.delay.hex()
                    assert index.slice(route.id, (n, m)) is found

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_every_slice_matches_the_oracle(self, three_routes_scenario, seed):
        if seed is None:
            net, routes = three_routes_scenario.network, three_routes_scenario.routes
        else:
            city = generate_scenario(GeneratorConfig(
                seed=seed, junction_count=40, arc_count=110, route_count=60, pair_count=2,
            ))
            net, routes = city.network, city.routes
        self.check(net, routes)

    def test_int_flow_and_int_delay(self):
        # a flow of 5 stays the int 5; the delay is a sum from 0.0 either way
        net = build_network([1, 2, 3], [Arc(1, 1, 2, 2, 5.0), Arc(2, 2, 3, 0.5, 5.0)])
        self.check(net, [VehicularRoute(7, (1, 2), 5), VehicularRoute(3, (2,), 0.5)])
        assert repr(IdView(RouteIndex(net, [VehicularRoute(7, (1,), 5)])).slice(7, (1, 1))) == (
            "SubRoute(route_id=7, start=1, end=1, entry=1, exit=2, delay=2.0, flow=5)"
        )


class TestRowsFollowIdOrder:
    """Route rows are places in id order, so the order in which the routes
    are given changes no row, entry, bound table or path table column."""

    @pytest.mark.parametrize("mode", [FULL_ROUTE, PER_HOP])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_routes_give_the_same_index(self, seed, mode):
        city = shared_index_city(seed, mode)  # its pairs have paths in this mode
        routes = list(city.routes)
        random.Random(seed).shuffle(routes)
        assert routes != sorted(routes, key=lambda r: r.id)
        given, shuffled = RouteIndex(city.network, city.routes), RouteIndex(city.network, routes)
        assert given.route_ids == shuffled.route_ids == sorted(r.id for r in routes)
        assert given.junction_ids == shuffled.junction_ids
        a, b = given, shuffled
        if mode == PER_HOP:
            a, b = a._per_hop_layout(), b._per_hop_layout()
        for junction in range(len(given.junction_ids)):
            assert a.entries(junction) == b.entries(junction), junction
            for max_hops in (1, 4):
                table, reach, _ = a.bound_table(junction, max_hops)
                other, other_reach, _ = b.bound_table(junction, max_hops)
                assert table_bits(table) == table_bits(other), junction
                assert bytes(reach) == bytes(other_reach), junction
        config = EnumerationConfig(max_hops=4, max_paths=None, mode=mode)
        for source, target in city.pairs:
            found = enumerate_paths(given, source, target, config)
            expected = enumerate_paths(shuffled, source, target, config)
            assert found, (source, target)
            for column in ("hops", "delays", "flows", "routes", "starts", "ends", "offsets"):
                assert np.array_equal(getattr(found, column), getattr(expected, column))


class TestDelayOverflow:
    """Path delays that overflow to inf are rejected, not dropped or returned."""

    def test_overflow_in_the_bound_table(self):
        net = build_network(
            [1, 2, 3], [Arc(1, 1, 2, 1e308, 10.0), Arc(2, 2, 3, 1e308, 10.0)]
        )
        routes = [
            VehicularRoute(1, (1,), 10.0),
            VehicularRoute(2, (2,), 10.0),
            VehicularRoute(3, (1, 2), 10.0),
        ]
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            # the paths exist, with delay inf; the table would read 1 as unreachable
            assert brute_force_paths(net, routes, 1, 3, 6, mode)
            with pytest.raises(ValidationError, match="^path delays to junction 3 overflow"):
                enumerate_paths(index, 1, 3, EnumerationConfig(mode=mode))

    def test_overflow_only_along_a_longer_path(self, heap_pops):
        # the table's least delays stay finite; only 1 -> 2 -> 3 -> 4 overflows
        arcs = [
            Arc(1, 1, 2, 1e308, 10.0),
            Arc(2, 2, 4, 1.0, 10.0),
            Arc(3, 2, 3, 1e308, 10.0),
            Arc(4, 3, 4, 1.0, 10.0),
        ]
        net = build_network([1, 2, 3, 4], arcs)
        routes = [
            VehicularRoute(1, (1,), 10.0),
            VehicularRoute(2, (2,), 10.0),
            VehicularRoute(3, (3, 4), 10.0),
        ]
        index = RouteIndex(net, routes)
        first = enumerate_paths(index, 1, 4, EnumerationConfig(max_paths=1))
        assert [segment_shape(p) for p in first] == [((1, 1, 1), (2, 1, 1))]
        for mode in (FULL_ROUTE, PER_HOP):
            heap_pops.clear()
            with pytest.raises(ValidationError, match="^path delays to junction 4 overflow"):
                enumerate_paths(index, 1, 4, EnumerationConfig(max_paths=None, mode=mode))
        # per-hop mode pops the partial path 1 -> 2 -> 3 before the path
        # through it overflows; its key stays infinite, never NaN
        partial_delays = [entry[1] for entry in heap_pops if entry[2]]
        assert math.inf in partial_delays
        assert not any(map(math.isnan, partial_delays))


def window_city(seed, mode, max_hops, cap=None):
    """A generated city of 5 to 10 junctions, its pairs and their reverses,
    with the given enumeration."""
    rng = random.Random(seed)
    junctions = rng.randint(5, 10)
    city = generate_scenario(GeneratorConfig(
        seed=seed, junction_count=junctions,
        arc_count=min(junctions * (junctions - 1), junctions + rng.randint(2, 12)),
        route_count=rng.randint(3, 10), pair_count=2,
    ))
    config = EnumerationConfig(max_hops=max_hops, max_paths=cap, mode=mode)
    return dataclasses.replace(city, enumeration=config), [
        *city.pairs, *((t, s) for s, t in city.pairs)
    ]


def window_values(delays, pick):
    """Windows around the path delays: 0, the ``pick`` share of the way up
    the sorted delays exactly and one float either side, and past them all."""
    if not delays:
        return [0.0, 1.0]
    delay = delays[int(pick * (len(delays) - 1))]
    return sorted({0.0, math.nextafter(delay, 0.0), delay, math.nextafter(delay, math.inf),
                   delays[-1] + 1.0})


def same_column(found, expected):
    return found.dtype == expected.dtype and found.tobytes() == expected.tobytes()


def plan_bits(plan):
    return [x.hex() for x in plan.energies], plan.transferred.hex(), plan.loss.hex(), plan.status


class TestWindowBound:
    """A delay bound drops exactly the paths whose delay is at least the
    bound: they carry nothing within that window, so every uncapped plan and
    sweep is bit for bit the same, and under a result cap the kept paths
    only gain."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([FULL_ROUTE, PER_HOP]),
        max_hops=st.integers(1, 6),
        pick=st.floats(0.0, 1.0),
    )
    # a path whose state's fewest-slice completion is past the window
    @example(seed=5, mode=FULL_ROUTE, max_hops=3, pick=0.25)
    def test_bounded_table_is_the_filtered_table(self, seed, mode, max_hops, pick):
        city, pairs = window_city(seed, mode, max_hops)
        full = [enumerate_paths(city.index, s, t, city.enumeration) for s, t in pairs]
        delays = sorted(itertools.chain.from_iterable(table.delays.tolist() for table in full))
        for window in window_values(delays, pick):
            for (source, target), table in zip(pairs, full):
                bounded = enumerate_paths(city.index, source, target, city.enumeration,
                                          max_delay=window)
                rows = table.delays < window
                labels = np.repeat(rows, table.hops)
                for name in ("hops", "delays", "flows"):
                    assert same_column(getattr(bounded, name), getattr(table, name)[rows])
                for name in ("routes", "starts", "ends"):
                    assert same_column(getattr(bounded, name), getattr(table, name)[labels])
                for z in (0.5, 0.9, 1.0):
                    params = EnergyParams.with_round_trip(0.1, z, window)
                    self.check_plans(table, bounded, rows, params, city.penetration)

    def check_plans(self, table, bounded, rows, params, penetration):
        """Plans of ``bounded`` equal those of ``table``, whose paths outside
        ``rows`` get 0.0, bit for bit: binding, zero and infinite caps, and
        floors that bind, equal the total or exceed it."""
        uncapped = solve(table, params, MAX_ENERGY, math.inf, 0.0, penetration)
        total, loss = uncapped.transferred, uncapped.loss
        requests = [(MAX_ENERGY, cap, 0.0) for cap in (math.inf, 0.5 * loss, 0.0)] + [
            (MIN_LOSS, math.inf, floor)
            for floor in (0.0, 0.5 * total, total, math.nextafter(total, math.inf))
        ]
        for objective, cap, floor in requests:
            found = solve(bounded, params, objective, cap, floor, penetration)
            expected = solve(table, params, objective, cap, floor, penetration)
            energies = np.array(expected.energies)
            assert not energies[~rows].any()
            kept = dataclasses.replace(expected, energies=tuple(energies[rows].tolist()))
            assert plan_bits(found) == plan_bits(kept), (objective, cap, floor)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([FULL_ROUTE, PER_HOP]),
        max_hops=st.integers(1, 6),
        pick=st.floats(0.0, 1.0),
        data=st.data(),
    )
    def test_sweeps_are_unchanged(self, seed, mode, max_hops, pick, data):
        city, _ = window_city(seed, mode, max_hops)
        full = [enumerate_paths(city.index, s, t, city.enumeration) for s, t in city.pairs]
        delays = sorted(itertools.chain.from_iterable(table.delays.tolist() for table in full))
        windows = window_values(delays, pick)
        window = data.draw(st.sampled_from(windows))
        values = {
            "z": (0.3, 0.9, 1.0),
            "T": tuple(sorted(set(data.draw(st.lists(st.sampled_from(windows), min_size=1))))),
            "w": (0.05, 0.2),
            "penetration": (0.0, 0.01, 1.0),
        }

        def unbounded(index, source, target, config, max_delay=math.inf):
            return enumerate_paths(index, source, target, config)

        for parameter in SWEEP_PARAMETERS:
            spec = SweepSpec(parameter, values[parameter], nominal_window=window)
            for objective, bound in ((MAX_ENERGY, data.draw(st.floats(0.0, 0.1))),
                                     (MAX_ENERGY, math.inf),
                                     (MIN_LOSS, data.draw(st.floats(0.0, 0.5)))):
                request = dict(objective=objective)
                request["loss_cap" if objective == MAX_ENERGY else "delivery_floor"] = bound
                found = run_sweep(city, spec, **request)
                with unittest.mock.patch.object(venplan.sweep, "enumerate_paths", unbounded):
                    expected = run_sweep(city, spec, **request)
                assert sweep_to_csv(found) == sweep_to_csv(expected)
                assert json.dumps(sweep_metadata(found)) == json.dumps(sweep_metadata(expected))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([FULL_ROUTE, PER_HOP]),
        max_hops=st.integers(1, 6),
        cap=st.integers(1, 20),
        pick=st.floats(0.0, 1.0),
    )
    def test_a_result_cap_counts_paths_within_the_bound(self, seed, mode, max_hops, cap, pick):
        city, pairs = window_city(seed, mode, max_hops, cap)
        uncapped = dataclasses.replace(city.enumeration, max_paths=None)
        capped = [enumerate_paths(city.index, s, t, city.enumeration) for s, t in pairs]
        delays = sorted(itertools.chain.from_iterable(table.delays.tolist() for table in capped))
        for window in window_values(delays, pick):
            for (source, target), table in zip(pairs, capped):
                bounded = enumerate_paths(city.index, source, target, city.enumeration,
                                          max_delay=window)
                # the first ``cap`` paths of the whole filtered table, which
                # begin with the capped table's paths within the window
                whole = enumerate_paths(city.index, source, target, uncapped)
                rows = np.flatnonzero(whole.delays < window)[:cap]
                assert list(bounded) == [whole[i] for i in rows]
                within = [path for path in table if path.delay < window]
                assert list(bounded)[: len(within)] == within
                # more paths to choose from: in exact arithmetic delivered
                # energy cannot fall nor loss rise, and the in-order sums of
                # different terms round apart by far less than 1e-12
                for z in (0.5, 0.9):
                    params = EnergyParams.with_round_trip(0.1, z, window)
                    before = solve(table, params, MAX_ENERGY, math.inf, 0.0, city.penetration)
                    for share in (0.0, 0.5, 1.0):
                        loss_cap, floor = share * before.loss, share * before.transferred
                        found = solve(bounded, params, MAX_ENERGY, loss_cap, 0.0,
                                      city.penetration)
                        expected = solve(table, params, MAX_ENERGY, loss_cap, 0.0,
                                         city.penetration)
                        assert found.transferred >= expected.transferred * (1 - 1e-12)
                        found = solve(bounded, params, MIN_LOSS, math.inf, floor,
                                      city.penetration)
                        expected = solve(table, params, MIN_LOSS, math.inf, floor,
                                         city.penetration)
                        if expected.status == OPTIMAL:
                            assert found.status == OPTIMAL, (window, share)
                            assert found.loss <= expected.loss * (1 + 1e-12), (window, share)
                        else:
                            assert found.transferred >= expected.transferred * (1 - 1e-12)

    @pytest.mark.parametrize("mode", [FULL_ROUTE, PER_HOP])
    def test_bound_is_the_least_delay_in_any_slice_count(self, mode):
        # from 1 the one-slice completion takes 20 h, the three-slice one 0.4 h
        net, routes = fewest_segments_slower_network()
        index = RouteIndex(net, routes)
        found = enumerate_paths(index, 1, 4, EnumerationConfig(mode=mode), max_delay=1.0)
        expected = [p for p in brute_force_paths(net, routes, 1, 4, 6, mode) if p.delay < 1.0]
        assert list(found) == expected and expected

    def test_boundary_delays(self):
        # 1 -> 2 directly takes the float just below 2 h; via 3 exactly 2 h
        arcs = [Arc(1, 1, 2, math.nextafter(2.0, 0.0), 5.0), Arc(2, 1, 3, 1.0, 5.0),
                Arc(3, 3, 2, 1.0, 5.0)]
        net = build_network([1, 2, 3], arcs)
        index = RouteIndex(net, [VehicularRoute(1, (1,), 5.0), VehicularRoute(2, (2, 3), 5.0)])
        config = EnumerationConfig()
        every = [p.delay for p in enumerate_paths(index, 1, 2, config)]
        assert every == [math.nextafter(2.0, 0.0), 2.0]
        assert [p.delay for p in enumerate_paths(index, 1, 2, config, max_delay=math.inf)] == every
        assert [p.delay for p in enumerate_paths(index, 1, 2, config, max_delay=2.0)] == every[:1]
        bounded = enumerate_paths(index, 1, 2, config, max_delay=math.nextafter(2.0, 0.0))
        assert not bounded

    def test_start_dropped_only_above_its_lowered_least_delay(self, heap_pops):
        net = build_network([1, 2], [Arc(1, 1, 2, 2.0, 5.0)])
        index = RouteIndex(net, [VehicularRoute(1, (1,), 5.0)])
        lowered = 2.0 * (1.0 - 1e-9) - 1e-9
        # at the lowered least delay the start is searched, and its one path dropped
        assert not enumerate_paths(index, 1, 2, EnumerationConfig(), max_delay=lowered)
        assert [entry[:2] for entry in heap_pops] == [(1, lowered)]
        heap_pops.clear()
        below = math.nextafter(lowered, 0.0)
        assert not enumerate_paths(index, 1, 2, EnumerationConfig(), max_delay=below)
        assert heap_pops == []

    def test_max_delay_inf_changes_no_table(self):
        for seed in (1, 2, 3):
            city, pairs = window_city(seed, FULL_ROUTE, 6)
            for mode in (FULL_ROUTE, PER_HOP):
                config = dataclasses.replace(city.enumeration, mode=mode)
                for source, target in pairs:
                    found = enumerate_paths(city.index, source, target, config,
                                            max_delay=math.inf)
                    expected = enumerate_paths(city.index, source, target, config)
                    for name in ("hops", "delays", "flows", "routes", "starts", "ends"):
                        assert same_column(getattr(found, name), getattr(expected, name))

    def test_overflow_past_a_finite_bound_is_dropped(self):
        # TestDelayOverflow's network: 1 -> 2 -> 4 takes 1e308 h, and
        # 1 -> 2 -> 3 -> 4 overflows
        arcs = [Arc(1, 1, 2, 1e308, 10.0), Arc(2, 2, 4, 1.0, 10.0), Arc(3, 2, 3, 1e308, 10.0),
                Arc(4, 3, 4, 1.0, 10.0)]
        net = build_network([1, 2, 3, 4], arcs)
        routes = [VehicularRoute(1, (1,), 10.0), VehicularRoute(2, (2,), 10.0),
                  VehicularRoute(3, (3, 4), 10.0)]
        index = RouteIndex(net, routes)
        for mode in (FULL_ROUTE, PER_HOP):
            config = EnumerationConfig(max_paths=None, mode=mode)
            with pytest.raises(ValidationError, match="^path delays to junction 4 overflow"):
                enumerate_paths(index, 1, 4, config)
            found = enumerate_paths(index, 1, 4, config, max_delay=sys.float_info.max)
            assert [segment_shape(p) for p in found] == [((1, 1, 1), (2, 1, 1))]
            assert not enumerate_paths(index, 1, 4, config, max_delay=5.0)

    def test_callers_pass_their_windows(self, three_routes_scenario, monkeypatch):
        bounds = []

        def recording(index, source, target, config, max_delay=math.inf):
            bounds.append(max_delay)
            return enumerate_paths(index, source, target, config, max_delay=max_delay)

        s = dataclasses.replace(three_routes_scenario,
                                params=dataclasses.replace(three_routes_scenario.params, window=3.0))
        monkeypatch.setattr(venplan.planner, "enumerate_paths", recording)
        monkeypatch.setattr(venplan.sweep, "enumerate_paths", recording)
        venplan.solve_scenario(s)
        run_sweep(s, SweepSpec("T", (1.0, 4.0), nominal_window=2.0))
        run_sweep(s, SweepSpec("z", (0.5,), nominal_window=2.0))
        assert bounds == [3.0, 4.0, 2.0]


def signed_zero_document(three_routes_text):
    """The three-route scenario's document with routes of flow 0.0 and -0.0
    and arcs of delay -0.0 in place of its network, routes and pairs."""
    doc = json.loads(three_routes_text)
    arcs = [(1, 2, -0.0), (2, 3, -0.0), (3, 4, 0.5), (1, 3, 0.25), (2, 4, -0.0),
            (4, 5, -0.0), (3, 5, 0.75)]
    doc["network"] = {"junctions": [1, 2, 3, 4, 5], "arcs": [
        {"id": i, "tail": tail, "head": head, "delay": delay, "flow": 1.0, "length": 1.0}
        for i, (tail, head, delay) in enumerate(arcs, 1)
    ]}
    routes = [((1, 2), 0.0), ((3, 6), -0.0), ((4, 3), -0.0), ((1, 5, 6), 0.0),
              ((2, 7), 2.0), ((5,), -0.0), ((4, 7), 0.0)]
    doc["routes"] = [{"id": i, "arcs": list(arcs), "flow": flow}
                     for i, (arcs, flow) in enumerate(routes, 1)]
    doc["pairs"] = [[1, 4], [1, 5], [2, 5]]
    doc["enumeration"] = {"max_hops": 4, "max_paths": None, "mode": FULL_ROUTE}
    return doc


class TestPathTableColumns:
    """The table's columns are the fold of the paths it builds, row for row."""

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from([FULL_ROUTE, PER_HOP]),
        max_hops=st.sampled_from([2, 6]),
        cap=st.sampled_from([None, 1, 3, 17]),
    )
    def test_columns_are_the_fold_of_the_rows(self, seed, mode, max_hops, cap):
        scenario = generate_scenario(GeneratorConfig(
            seed=seed, junction_count=8, arc_count=20, route_count=8, pair_count=2
        ))
        net, routes, index = scenario.network, scenario.routes, scenario.index
        config = EnumerationConfig(max_hops=max_hops, max_paths=cap, mode=mode)
        for source, target in [*scenario.pairs, *((t, s) for s, t in scenario.pairs)]:
            table = enumerate_paths(index, source, target, config)
            paths = list(table)
            assert paths == brute_force_paths(net, routes, source, target, max_hops, mode)[:cap]
            assert len(table) == len(paths) and bool(table) == bool(paths)
            for i, path in enumerate(paths):
                fold = energy_path(source, target, path.segments)
                row = (int(table.hops[i]), float(table.delays[i]).hex(),
                       float(table.flows[i]).hex())
                assert row == (len(fold.segments), fold.delay.hex(),
                               fold.bottleneck_flow.hex()), (i, path)
                assert table[i] == path == table[i - len(paths)]
            oracle = PathTable(paths)
            for name in ("hops", "delays", "flows", "hop_index"):
                assert getattr(table, name).tobytes() == getattr(oracle, name).tobytes(), name
            assert table.distinct_hops == oracle.distinct_hops
            labels = zip(table.routes.tolist(), table.starts.tolist(), table.ends.tolist())
            assert [(index.route_ids[r], n, m) for r, n, m in labels] == [
                (g.route_id, g.start, g.end) for p in paths for g in p.segments
            ]
            hops = [len(p.segments) for p in paths]
            assert table.offsets.tolist() == [0, *itertools.accumulate(hops)]
            with pytest.raises(IndexError):
                table[len(paths)]


class TestSignedZeros:
    """Zero flows of either sign and -0.0 arc delays pass the route check; the
    stored numbers keep the fold's bits, and min's first-minimum rule picks
    the sign of a zero bottleneck."""

    def test_stored_numbers_are_the_fold(self, three_routes_text):
        s = parse_scenario(json.dumps(signed_zero_document(three_routes_text)))
        index = RouteIndex(s.network, s.routes)
        signs = set()
        for mode in (FULL_ROUTE, PER_HOP):
            config = dataclasses.replace(s.enumeration, mode=mode)
            for source, target in s.pairs:
                found = enumerate_paths(index, source, target, config)
                expected = brute_force_paths(s.network, s.routes, source, target, 4, mode)
                assert list(found) == expected
                for path in found:
                    assert validate_path(path, s.network, s.routes) is None, path
                    zeros = [math.copysign(1.0, g.flow) for g in path.segments if g.flow == 0]
                    if len(set(zeros)) == 2:
                        signs.add((zeros[0], math.copysign(1.0, path.bottleneck_flow)))
        # paths over zeros of both signs, in both orders, each taking its
        # first zero's sign
        assert signs == {(1.0, 1.0), (-1.0, -1.0)}

    @pytest.mark.parametrize("mode, digest", [
        (FULL_ROUTE, "b8e7db3921d77afdc886f5d6b89798aa19088d70bc970e6d69c5a74fba41c9c6"),
        (PER_HOP, "5b66c5bf446a4e429e4c0bb1799c03d7ff28c5f2372433625a7c1031618ced5e"),
    ])
    def test_enumerate_json(self, three_routes_text, tmp_path, mode, digest):
        # digests computed when paths folded their numbers on every read
        scenario = tmp_path / "zeros.json"
        scenario.write_text(json.dumps(signed_zero_document(three_routes_text)))
        out = tmp_path / "paths.json"
        with contextlib.redirect_stdout(io.StringIO()):
            argv = ["enumerate", str(scenario), "--mode", mode, "-o", str(out)]
            assert venplan.cli.main(argv) == 0
        text = out.read_text()
        assert '"bottleneck_flow": -0.0' in text and '"bottleneck_flow": 0.0' in text
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSharedRouteIndex:
    """One index serves every search over its routes, in both modes."""

    @pytest.fixture()
    def builds(self, monkeypatch):
        count = []
        init = RouteIndex.__init__

        def counting(self, network, routes):
            count.append(None)
            init(self, network, routes)

        monkeypatch.setattr(RouteIndex, "__init__", counting)
        return count

    def test_one_build_per_scenario(self, builds, tmp_path, capsys):
        # every scenario builds its index once; searches over it build none
        scenario = shared_index_city(5)
        assert len(builds) == 2  # the generator's pair probes, then its scenario
        assert len(scenario.pairs) == 4
        scenario = dataclasses.replace(scenario, pairs=scenario.pairs[::-1])
        assert len(builds) == 3
        venplan.planner.solve_scenario(scenario)
        spec = venplan.sweep.SweepSpec(parameter="z", values=(0.5, 0.9))
        venplan.sweep.run_sweep(scenario, spec)
        assert len(builds) == 3
        text = venplan.scenario.serialize_scenario(scenario)
        parse_scenario(text)
        assert len(builds) == 4
        path = tmp_path / "city.json"
        path.write_text(text)
        assert venplan.cli.main(["enumerate", str(path)]) == 0
        assert len(builds) == 5  # the one its parse built
        assert capsys.readouterr().out.count(" paths\n") == 4

    def test_a_held_index_answers_as_a_fresh_parse(self):
        # one parsed scenario serves a full-route solve, per-hop searches, a
        # sweep and the solve again; whatever each leaves in the index's
        # caches, the next answers as it would on a scenario parsed afresh
        text = venplan.scenario.serialize_scenario(shared_index_city(5))
        held = parse_scenario(text)
        per_hop = dataclasses.replace(held.enumeration, mode=PER_HOP)
        spec = venplan.sweep.SweepSpec(parameter="z", values=(0.5, 0.9))
        calls = [
            venplan.planner.solve_scenario,
            lambda s: [list(enumerate_paths(s.index, *pair, per_hop)) for pair in s.pairs],
            lambda s: venplan.sweep.run_sweep(s, spec),
            venplan.planner.solve_scenario,
        ]
        assert any(calls[1](held))
        for call in calls:
            assert repr(call(held)) == repr(call(parse_scenario(text)))

    @pytest.mark.parametrize("laid_out", [False, True])
    def test_per_hop_layout_is_stored_whole(self, three_routes_text, monkeypatch, laid_out):
        # a per-hop search that runs while another search builds the per-hop
        # layout, before or after the copy's slots are laid out, finds no
        # half-built layout: it returns per-hop paths and leaves no per-hop
        # entries in the full-route cache
        held = parse_scenario(three_routes_text)
        full = held.enumeration
        per_hop = dataclasses.replace(full, mode=PER_HOP)
        (source, target), fresh = held.pairs[0], parse_scenario(three_routes_text).index
        expected = {
            c.mode: list(enumerate_paths(fresh, source, target, c)) for c in (full, per_hop)
        }
        assert expected[FULL_ROUTE] != expected[PER_HOP]
        lay_out, layouts, nested = RouteIndex._lay_out, [], []

        def interleaved(layout, slots, blocks):
            layouts.append(layout)
            if len(layouts) > 1:  # the nested search's own layout
                return lay_out(layout, slots, blocks)
            if laid_out:
                lay_out(layout, slots, blocks)
            nested.append(list(enumerate_paths(held.index, source, target, per_hop)))
            if not laid_out:
                lay_out(layout, slots, blocks)

        monkeypatch.setattr(RouteIndex, "_lay_out", interleaved)
        assert list(enumerate_paths(held.index, source, target, per_hop)) == expected[PER_HOP]
        assert nested == [expected[PER_HOP]]
        assert list(enumerate_paths(held.index, source, target, full)) == expected[FULL_ROUTE]

    def test_threads_share_one_index(self):
        # more threads than cores search one fresh scenario's index at once,
        # in both modes and in different orders, with the interpreter
        # switching threads often: each gets the answers of its own index,
        # and each slice is still one object
        text = venplan.scenario.serialize_scenario(shared_index_city(5))
        fresh = parse_scenario(text)
        pairs = fresh.pairs
        configs = [dataclasses.replace(fresh.enumeration, mode=m) for m in (PER_HOP, FULL_ROUTE)]
        expected = {
            (c.mode, pair): list(enumerate_paths(fresh.index, *pair, c))
            for c in configs
            for pair in pairs
        }
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                held = parse_scenario(text)
                found, errors = {}, []

                def search(i):
                    try:
                        for c in configs[:: 1 if i % 2 else -1]:
                            for pair in pairs[:: 1 if i < 2 else -1]:
                                table = enumerate_paths(held.index, *pair, c)
                                found[i, c.mode, pair] = list(table)
                    except Exception as exc:  # reported by the main thread
                        errors.append(exc)

                threads = [threading.Thread(target=search, args=(i,)) for i in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert errors == []
                assert found == {
                    (i, *key): paths for i in range(4) for key, paths in expected.items()
                }
                segments = [seg for paths in found.values() for p in paths for seg in p.segments]
                slices = {(seg.route_id, seg.start, seg.end): seg for seg in segments}
                assert all(slices[seg.route_id, seg.start, seg.end] is seg for seg in segments)
        finally:
            sys.setswitchinterval(interval)

    @pytest.fixture()
    def layouts(self, monkeypatch):
        count = []
        lay_out = RouteIndex._lay_out

        def counting(self, slots, blocks):
            count.append(None)
            lay_out(self, slots, blocks)

        monkeypatch.setattr(RouteIndex, "_lay_out", counting)
        return count

    @pytest.mark.parametrize("mode", [FULL_ROUTE, PER_HOP])
    def test_shared_index_equals_a_fresh_index_per_pair(self, mode, layouts):
        # probe-style one-path searches first, then full ones, in two pair
        # orders and with the scenario's mode first or second: no entry,
        # geometry, slice or layout cached by one search changes another's
        # output
        other = PER_HOP if mode == FULL_ROUTE else FULL_ROUTE
        for seed in (5, 17):
            scenario = shared_index_city(seed, mode)
            net, routes = scenario.network, scenario.routes
            configs = {
                m: dataclasses.replace(scenario.enumeration, mode=m) for m in (mode, other)
            }
            pairs = [*scenario.pairs, *((t, s) for s, t in scenario.pairs)]
            fresh = {
                (m, pair): list(enumerate_paths(RouteIndex(net, routes), *pair, config))
                for m, config in configs.items()
                for pair in pairs
            }
            assert all(fresh[mode, pair] for pair in scenario.pairs)
            for modes in ((mode, other), (other, mode)):
                for order in (pairs, pairs[::-1]):
                    index = RouteIndex(net, routes)
                    layouts.clear()
                    for pair in order:
                        for m in modes:
                            probe = dataclasses.replace(configs[m], max_paths=1)
                            probed = enumerate_paths(index, *pair, probe)
                            assert list(probed) == fresh[m, pair][:1]
                            found = enumerate_paths(index, *pair, configs[m])
                            assert list(found) == fresh[m, pair], (m, pair)
                    assert len(layouts) == 1  # the per-hop layout, built once

    def test_modes_share_one_arc_slices(self, layouts):
        scenario = shared_index_city(5)
        layouts.clear()  # the generator's pair probes built an index too
        index = RouteIndex(scenario.network, scenario.routes)
        assert len(layouts) == 1  # the full-route layout, in the constructor
        slices, modes = {}, {}
        for mode in (FULL_ROUTE, PER_HOP, FULL_ROUTE, PER_HOP):
            config = dataclasses.replace(scenario.enumeration, mode=mode)
            for pair in scenario.pairs:
                for path in enumerate_paths(index, *pair, config):
                    for seg in path.segments:
                        key = (seg.route_id, seg.start, seg.end)
                        assert slices.setdefault(key, seg) is seg
                        modes.setdefault(key, set()).add(mode)
        assert len(layouts) == 2
        assert index._per_hop_layout()._per_hop_layout() is index._per_hop_layout()
        assert len(layouts) == 2
        assert any(len(m) == 2 for m in modes.values())  # some slice serves both


class TestEnumerateCallSites:
    def test_callers_use_the_paths_function(self):
        # the benchmark's traced run wraps these module globals by name
        for module in (venplan.planner, venplan.sweep, venplan.scenario):
            assert module.enumerate_paths is venplan.paths.enumerate_paths, module

    def test_planning_globals_are_the_defining_functions(self):
        # the same traced run wraps these planner and sweep globals
        planner = venplan.planner
        assert venplan.sweep.solve is planner.solve
        assert planner.path_economics is venplan.energetics.path_economics
        assert planner.path_economics.__module__ == "venplan.energetics"
        assert planner.knapsack_assign.__module__ == "venplan.planner"


class TestValidatePath:
    def test_source_violation_reported_first(self, three_routes_scenario):
        s = three_routes_scenario
        p1 = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)[1]
        swapped = energy_path(1, 4, p1.segments[::-1])
        violation = validate_path(swapped, s.network, s.routes)
        assert violation is not None and violation.condition == "source"

    def test_chaining_violation(self, three_routes_scenario):
        s = three_routes_scenario
        routes = {r.id: r for r in s.routes}
        segments = (
            sub_route(s.network, routes[3], 1, 1),  # 1 -> 2
            sub_route(s.network, routes[2], 2, 2),  # 3 -> 4: gap at 2 vs 3
        )
        violation = validate_path(energy_path(1, 4, segments), s.network, s.routes)
        assert violation is not None and violation.condition == "chaining"

    def test_target_violation(self, three_routes_scenario):
        s = three_routes_scenario
        routes = {r.id: r for r in s.routes}
        segments = (sub_route(s.network, routes[3], 1, 2),)  # ends at 5, not 4
        violation = validate_path(energy_path(1, 4, segments), s.network, s.routes)
        assert violation is not None and violation.condition == "target"

    def test_loop_violation(self):
        # 1 -> 2 -> 3 -> 2 is connected but revisits junction 2.
        arcs = [
            Arc(1, 1, 2, 1.0, 5.0),
            Arc(2, 2, 3, 1.0, 5.0),
            Arc(3, 3, 2, 1.0, 5.0),
            Arc(4, 2, 4, 1.0, 5.0),
        ]
        net = build_network([1, 2, 3, 4], arcs)
        routes = [
            VehicularRoute(1, (1, 2), 5.0),
            VehicularRoute(2, (3, 4), 5.0),
        ]
        segments = (
            sub_route(net, routes[0], 1, 2),  # 1 -> 3 via 2
            sub_route(net, routes[1], 1, 2),  # 3 -> 4 via 2 again
        )
        violation = validate_path(energy_path(1, 4, segments), net, routes)
        assert violation is not None and violation.condition == "loop"

    def test_segment_integrity_checked(self, three_routes_scenario):
        s = three_routes_scenario
        genuine = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)[0]
        seg = genuine.segments[0]
        forged = energy_path(
            1,
            4,
            (type(seg)(
                route_id=seg.route_id,
                start=seg.start,
                end=seg.end,
                entry=seg.entry,
                exit=seg.exit,
                delay=seg.delay + 1.0,
                flow=seg.flow,
            ),),
        )
        violation = validate_path(forged, s.network, s.routes)
        assert violation is not None and violation.condition == "segment"

    def test_empty_path_is_invalid(self, three_routes_scenario):
        s = three_routes_scenario
        violation = validate_path(EnergyPath(1, 4, (), 0.0, 0.0), s.network, s.routes)
        assert violation is not None and violation.condition == "source"

    def test_stored_numbers_checked_bit_for_bit(self, three_routes_scenario):
        s = three_routes_scenario
        genuine = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)[0]
        assert validate_path(genuine, s.network, s.routes) is None
        for forged in (
            dataclasses.replace(genuine, delay=math.nextafter(genuine.delay, 0.0)),
            dataclasses.replace(genuine, bottleneck_flow=genuine.bottleneck_flow + 1.0),
        ):
            violation = validate_path(forged, s.network, s.routes)
            assert violation is not None and violation.condition == "numbers"


class TestEnumerationConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            EnumerationConfig(max_hops=0)
        with pytest.raises(ValidationError):
            EnumerationConfig(max_paths=0)
        with pytest.raises(ValidationError):
            EnumerationConfig(mode="telepathy")
        for bad in (True, False, np.True_, 1.5, 2.5, 3.0, math.inf, "3"):
            with pytest.raises(ValidationError):
                EnumerationConfig(max_hops=bad)
            with pytest.raises(ValidationError):
                EnumerationConfig(max_paths=bad)

    def test_numpy_integer_bounds(self, three_routes_scenario):
        s = three_routes_scenario
        index = RouteIndex(s.network, s.routes)
        config = EnumerationConfig(max_hops=np.int64(2), max_paths=np.int32(2))
        assert list(enumerate_paths(index, 1, 4, config)) == list(enumerate_paths(
            index, 1, 4, EnumerationConfig(max_hops=2, max_paths=2)
        ))
