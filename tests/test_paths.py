import random

import pytest

from venplan import (
    Arc,
    EnergyPath,
    EnumerationConfig,
    FULL_ROUTE,
    PER_HOP,
    GeneratorConfig,
    ValidationError,
    VehicularRoute,
    build_network,
    enumerate_paths,
    generate_scenario,
    sub_route,
    validate_path,
)

from _oracles import brute_force_paths


def segment_shape(path):
    return tuple((s.route_id, s.start, s.end) for s in path.segments)


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
        return enumerate_paths(scenario.network, scenario.routes, 1, 4, config)

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
        assert self.paths(s) == expected

    def test_all_paths_validate(self, three_routes_scenario):
        s = three_routes_scenario
        for path in self.paths(s):
            assert validate_path(path, s.network, s.routes) is None

    def test_per_hop_paths(self, three_routes_scenario):
        found = self.paths(three_routes_scenario, mode=PER_HOP)
        assert [segment_shape(p) for p in found] == [
            ((1, 1, 1), (2, 2, 2)),
            ((3, 1, 1), (2, 1, 1), (2, 2, 2)),
            ((3, 1, 1), (3, 2, 2), (3, 3, 3)),
        ]
        for path in found:
            assert all(len(seg.arcs) == 1 for seg in path.segments)
            assert path.hops == sum(len(seg.arcs) for seg in path.segments)


class TestEnumerationProperties:
    def test_unreachable_target_gives_empty_list(self):
        net = build_network([1, 2, 3], [Arc(1, 1, 2, 1.0, 5.0)])
        routes = [VehicularRoute(1, (1,), 5.0)]
        assert enumerate_paths(net, routes, 1, 3, EnumerationConfig()) == []

    def test_junction_without_route_coverage_unreachable(self):
        net = build_network([1, 2, 3], [Arc(1, 1, 2, 1.0, 5.0), Arc(2, 2, 3, 1.0, 5.0)])
        routes = [VehicularRoute(1, (1,), 5.0)]  # arc 2 carries no route
        assert enumerate_paths(net, routes, 1, 3, EnumerationConfig()) == []

    def test_unknown_junctions_rejected(self, three_routes_scenario):
        s = three_routes_scenario
        with pytest.raises(ValidationError, match="unknown source"):
            enumerate_paths(s.network, s.routes, 99, 4)
        with pytest.raises(ValidationError, match="unknown target"):
            enumerate_paths(s.network, s.routes, 1, 99)
        with pytest.raises(ValidationError, match="must differ"):
            enumerate_paths(s.network, s.routes, 1, 1)

    def test_deterministic_repetition(self, three_routes_scenario):
        s = three_routes_scenario
        first = enumerate_paths(s.network, s.routes, 1, 4, s.enumeration)
        second = enumerate_paths(s.network, s.routes, 1, 4, s.enumeration)
        assert first == second

    def test_result_cap_is_a_prefix_of_the_full_list(self, three_routes_scenario):
        s = three_routes_scenario
        full = enumerate_paths(
            s.network, s.routes, 1, 4, EnumerationConfig(max_hops=4, max_paths=None)
        )
        for k in (1, 2, 3):
            capped = enumerate_paths(
                s.network, s.routes, 1, 4, EnumerationConfig(max_hops=4, max_paths=k)
            )
            assert capped == full[:k]

    def test_hop_cap_respected(self, three_routes_scenario):
        s = three_routes_scenario
        only_direct = enumerate_paths(
            s.network, s.routes, 1, 4, EnumerationConfig(max_hops=1, max_paths=None)
        )
        assert [segment_shape(p) for p in only_direct] == [((3, 1, 3),)]

    def test_matches_brute_force_on_random_scenarios(self):
        for seed in range(1, 13):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            for hops in range(1, scenario.enumeration.max_hops + 1):
                for mode in (FULL_ROUTE, PER_HOP):
                    config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                    for s in sorted(net.junctions):
                        for t in sorted(net.junctions):
                            if s == t:
                                continue
                            found = enumerate_paths(net, routes, s, t, config)
                            expected = brute_force_paths(net, routes, s, t, hops, mode)
                            assert found == expected, (seed, hops, mode, s, t)

    def test_delay_is_a_left_to_right_fold(self):
        # sum() rounds differently from Python 3.12 on; the path delay must
        # not depend on the interpreter
        for seed in range(1, 13):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            max_hops = scenario.enumeration.max_hops
            for s in sorted(net.junctions):
                for t in sorted(net.junctions - {s}):
                    for path in brute_force_paths(net, routes, s, t, max_hops):
                        fold = 0.0
                        for seg in path.segments:
                            fold += seg.delay
                        assert path.delay == fold, (seed, s, t)

    def test_fewest_segments_slower_than_more_segments(self):
        # 1 -> 4 directly takes 20 h, two segments via 2 take 2 h and three
        # segments via 3 take 0.4 h: each hop budget cuts off a faster
        # completion, which the search bound must account for.
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
        for mode in (FULL_ROUTE, PER_HOP):
            for hops in (1, 2, 3):
                config = EnumerationConfig(max_hops=hops, max_paths=None, mode=mode)
                found = enumerate_paths(net, routes, 1, 4, config)
                assert found == brute_force_paths(net, routes, 1, 4, hops, mode)
                assert found[0].delay == 20.0, (mode, hops)
            assert min(found, key=lambda p: p.delay).hops == 3, mode

    def test_soundness_on_random_scenarios(self):
        for seed in (21, 22, 23):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            for s in sorted(net.junctions):
                for t in sorted(net.junctions):
                    if s == t:
                        continue
                    for path in enumerate_paths(net, routes, s, t, scenario.enumeration):
                        assert validate_path(path, net, routes) is None

    def test_per_hop_subset_of_full_route(self):
        # Per-hop paths that never chain two slices of the same route are
        # exactly the single-arc-segment paths full-route mode also finds.
        for seed in (31, 32, 33):
            scenario = generate_scenario(small_config(seed))
            net, routes = scenario.network, scenario.routes
            hops = scenario.enumeration.max_hops
            for s in sorted(net.junctions):
                for t in sorted(net.junctions):
                    if s == t:
                        continue
                    full = set(
                        enumerate_paths(
                            net, routes, s, t,
                            EnumerationConfig(max_hops=hops, max_paths=None),
                        )
                    )
                    per_hop = enumerate_paths(
                        net, routes, s, t,
                        EnumerationConfig(max_hops=hops, max_paths=None, mode=PER_HOP),
                    )
                    for path in per_hop:
                        chained = any(
                            a.route_id == b.route_id and b.start == a.end + 1
                            for a, b in zip(path.segments, path.segments[1:])
                        )
                        if not chained:
                            assert path in full


class TestValidatePath:
    def test_source_violation_reported_first(self, three_routes_scenario):
        s = three_routes_scenario
        p1 = enumerate_paths(s.network, s.routes, 1, 4, s.enumeration)[1]
        swapped = EnergyPath(source=1, target=4, segments=p1.segments[::-1])
        violation = validate_path(swapped, s.network, s.routes)
        assert violation is not None and violation.condition == "source"

    def test_chaining_violation(self, three_routes_scenario):
        s = three_routes_scenario
        routes = {r.id: r for r in s.routes}
        segments = (
            sub_route(s.network, routes[3], 1, 1),  # 1 -> 2
            sub_route(s.network, routes[2], 2, 2),  # 3 -> 4: gap at 2 vs 3
        )
        violation = validate_path(
            EnergyPath(source=1, target=4, segments=segments), s.network, s.routes
        )
        assert violation is not None and violation.condition == "chaining"

    def test_target_violation(self, three_routes_scenario):
        s = three_routes_scenario
        routes = {r.id: r for r in s.routes}
        segments = (sub_route(s.network, routes[3], 1, 2),)  # ends at 5, not 4
        violation = validate_path(
            EnergyPath(source=1, target=4, segments=segments), s.network, s.routes
        )
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
        violation = validate_path(
            EnergyPath(source=1, target=4, segments=segments), net, routes
        )
        assert violation is not None and violation.condition == "loop"

    def test_segment_integrity_checked(self, three_routes_scenario):
        s = three_routes_scenario
        genuine = enumerate_paths(s.network, s.routes, 1, 4, s.enumeration)[0]
        seg = genuine.segments[0]
        forged = EnergyPath(
            source=1,
            target=4,
            segments=(type(seg)(
                route_id=seg.route_id,
                start=seg.start,
                end=seg.end,
                arcs=seg.arcs,
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
        violation = validate_path(EnergyPath(1, 4, ()), s.network, s.routes)
        assert violation is not None and violation.condition == "source"


class TestEnumerationConfig:
    def test_invalid_configs(self):
        with pytest.raises(ValidationError):
            EnumerationConfig(max_hops=0)
        with pytest.raises(ValidationError):
            EnumerationConfig(max_paths=0)
        with pytest.raises(ValidationError):
            EnumerationConfig(mode="telepathy")
