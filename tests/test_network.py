import dataclasses
import math
import random

import pytest

from venplan import (
    Arc,
    RoadNetwork,
    RouteIndex,
    ValidationError,
    VehicularRoute,
    build_network,
)

from _oracles import IdView, arc, route_junctions, sub_route
from _oracles import validate_route as oracle_validate_route
from conftest import chain_network


def validate_route(network, route):
    """Check one route with the per-route oracle and with the route index,
    which must raise the same message or none."""
    try:
        oracle_validate_route(network, route)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as raised:
            RouteIndex(network, [route])
        assert str(raised.value) == str(exc)
        raise
    RouteIndex(network, [route])


def slice_of(network, route, n, m):
    """The route index's slice of ``route`` from its n-th to its m-th arc."""
    return IdView(RouteIndex(network, [route])).slice(route.id, (n, m))


def fig_arcs():
    return [
        Arc(1, 1, 3, 1.0, 60.0, 80.0),
        Arc(2, 2, 3, 0.5, 100.0, 40.0),
        Arc(3, 3, 4, 0.75, 80.0, 60.0),
        Arc(4, 1, 2, 0.5, 50.0, 35.0),
        Arc(5, 2, 5, 0.75, 40.0, 55.0),
        Arc(6, 5, 4, 0.5, 30.0, 45.0),
    ]


UNIT_ARC = Arc(1, 1, 2, 1.0, 1.0, 1.0)


class TestBuildNetwork:
    def test_minimal_network(self):
        net = build_network([1, 2], [Arc(1, 1, 2, 3.0, 10.0)])
        assert net.arcs[1].delay == 3.0
        assert arc(net, 1) is net.arcs[1]
        with pytest.raises(ValidationError, match="^unknown arc id 7$"):
            arc(net, 7)

    def test_three_route_topology(self):
        net = build_network([1, 2, 3, 4, 5], fig_arcs())
        assert net.junctions == frozenset({1, 2, 3, 4, 5})

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            build_network([1, 2], [Arc(1, 1, 1, 1.0, 1.0)])

    def test_duplicate_junction(self):
        with pytest.raises(ValidationError, match="duplicate junction"):
            build_network([1, 1, 2], [Arc(1, 1, 2, 1.0, 1.0)])

    def test_duplicate_arc_id(self):
        with pytest.raises(ValidationError, match="duplicate arc"):
            build_network([1, 2, 3], [Arc(1, 1, 2, 1.0, 1.0), Arc(1, 2, 3, 1.0, 1.0)])

    def test_dangling_endpoint(self):
        with pytest.raises(ValidationError, match="undeclared junction"):
            build_network([1, 2], [Arc(1, 1, 9, 1.0, 1.0)])

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param(field, value, id=field + suffix)
            for suffix, value in (("", -0.1), ("-nan", math.nan), ("-inf", math.inf))
            for field in ("delay", "flow", "length")
        ],
    )
    def test_negative_attribute(self, field, value):
        kwargs = {"delay": 1.0, "flow": 1.0, "length": 1.0, field: value}
        with pytest.raises(ValidationError, match=f"{field} must be finite and nonnegative"):
            build_network([1, 2], [Arc(1, 1, 2, **kwargs)])

    def test_empty_inputs(self):
        with pytest.raises(ValidationError):
            build_network([], [Arc(1, 1, 2, 1.0, 1.0)])
        with pytest.raises(ValidationError):
            build_network([1, 2], [])

    def test_duplicate_ids_reported_first(self):
        # build_network checks ids before the network checks its arcs
        with pytest.raises(ValidationError, match="^duplicate arc id 1$"):
            build_network([1, 2], [Arc(1, 1, 1, 1.0, 1.0), Arc(1, 1, 2, 1.0, 1.0)])
        with pytest.raises(ValidationError, match="^duplicate junction ids$"):
            build_network([1, 1], [])

    @pytest.mark.parametrize("way", ["RoadNetwork", "replace"])
    @pytest.mark.parametrize("junctions, arcs, message", [
        pytest.param([1, 2], {1: Arc(1, 1, 1, 1.0, 1.0)},
                     "arc 1 is a self-loop at junction 1", id="self-loop"),
        pytest.param([1, 2], {1: Arc(1, 1, 9, 1.0, 1.0)},
                     "arc 1 references an undeclared junction", id="dangling-endpoint"),
        *(
            pytest.param([1, 2], {1: dataclasses.replace(UNIT_ARC, **{field: value})},
                         f"arc 1 {field} must be finite and nonnegative", id=field + suffix)
            for suffix, value in (("", -0.1), ("-nan", math.nan), ("-inf", math.inf))
            for field in ("delay", "flow", "length")
        ),
        pytest.param([], {1: UNIT_ARC},
                     "network needs at least one junction", id="no-junctions"),
        pytest.param([1, 2], {}, "network needs at least one arc", id="no-arcs"),
        pytest.param([1, 2], {1: Arc(7, 1, 2, 1.0, 1.0)},
                     "arc 7 is stored under id 1", id="mis-keyed"),
    ])
    def test_hand_built_network_checks_itself(self, way, junctions, arcs, message):
        # a network built without build_network meets the same rules
        with pytest.raises(ValidationError, match=f"^{message}$"):
            if way == "RoadNetwork":
                RoadNetwork(frozenset(junctions), arcs)
            else:
                valid = build_network([1, 2], [UNIT_ARC])
                dataclasses.replace(valid, junctions=frozenset(junctions), arcs=arcs)


class TestSubRoute:
    def setup_method(self):
        self.net = chain_network([2.0, 3.0, 4.0])
        self.route = VehicularRoute(1, (1, 2, 3), 25.0)

    def test_identity_slice(self):
        whole = slice_of(self.net, self.route, 1, 3)
        assert self.route.arcs[whole.start - 1 : whole.end] == self.route.arcs
        assert whole.flow == self.route.flow
        assert whole.entry == 1 and whole.exit == 4
        assert whole.delay == 2.0 + 3.0 + 4.0

    def test_singleton_slice(self):
        seg = slice_of(self.net, self.route, 2, 2)
        assert self.route.arcs[seg.start - 1 : seg.end] == (2,)
        assert seg.entry == 2 and seg.exit == 3
        assert seg.delay == 3.0

    def test_mid_route_slice_spanning_junctions(self):
        net = build_network([1, 2, 3, 4, 5], fig_arcs())
        r2 = VehicularRoute(2, (2, 3), 80.0)
        seg = slice_of(net, r2, 1, 2)
        assert (seg.entry, seg.exit) == (2, 4)
        assert r2.arcs[seg.start - 1 : seg.end] == (2, 3)

    @pytest.mark.parametrize("n,m", [(0, 1), (2, 1), (1, 4), (4, 4)])
    def test_bad_indices(self, n, m):
        # the oracle checks ranges; the index slices only spans its search found
        with pytest.raises(ValidationError, match="out of range"):
            sub_route(self.net, self.route, n, m)

    def test_delay_is_exact_sum(self):
        rng = random.Random(7)
        for _ in range(50):
            delays = [rng.uniform(0.0, 3.0) for _ in range(8)]
            net = chain_network(delays)
            route = VehicularRoute(1, tuple(range(1, 9)), 10.0)
            n = rng.randint(1, 8)
            m = rng.randint(n, 8)
            seg = slice_of(net, route, n, m)
            expected = 0.0
            for k in range(n, m + 1):
                expected += delays[k - 1]
            assert seg.delay == expected


class TestRouteDelay:
    """A whole route's delay is the delay of its full-length slice."""

    def test_single_arc(self):
        net = chain_network([5.0])
        assert slice_of(net, VehicularRoute(1, (1,), 1.0), 1, 1).delay == 5.0

    def test_additivity(self):
        net = chain_network([2.0, 3.0, 4.0])
        route = VehicularRoute(1, (1, 2, 3), 1.0)
        assert slice_of(net, route, 1, 3).delay == 9.0

    def test_matches_independent_resummation(self):
        rng = random.Random(11)
        delays = [rng.uniform(0.1, 2.5) for _ in range(10)]
        net = chain_network(delays)
        route = VehicularRoute(1, tuple(range(1, 11)), 4.0)
        resummed = 0.0
        for arc_id in route.arcs:
            resummed += net.arcs[arc_id].delay
        assert slice_of(net, route, 1, 10).delay == resummed

    def test_subroute_delay_accessor(self):
        net = chain_network([1.0, 2.0])
        route = VehicularRoute(1, (1, 2), 1.0)
        assert slice_of(net, route, 2, 2).delay == 2.0


class TestRouteValidation:
    def test_valid_route(self):
        net = chain_network([1.0, 1.0, 1.0])
        validate_route(net, VehicularRoute(1, (1, 2, 3), 5.0))

    def test_disconnected_route(self):
        net = chain_network([1.0, 1.0, 1.0])
        with pytest.raises(ValidationError, match="does not start where"):
            validate_route(net, VehicularRoute(1, (1, 3), 5.0))

    def test_negative_flow(self):
        net = chain_network([1.0])
        for flow in (-1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="flow must be finite and nonnegative"):
                validate_route(net, VehicularRoute(1, (1,), flow))

    def test_injected_revisit_always_rejected(self):
        # Close a chain into a ring; any route using all ring arcs revisits
        # its starting junction.
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 7)
            arcs = [
                Arc(i + 1, i + 1, i + 2, 1.0, 1.0) for i in range(n)
            ] + [Arc(n + 1, n + 1, 1, 1.0, 1.0)]
            net = build_network(range(1, n + 2), arcs)
            looping = VehicularRoute(1, tuple(range(1, n + 2)), 1.0)
            with pytest.raises(ValidationError, match="visits a junction twice"):
                validate_route(net, looping)

    def test_route_junctions_sequence(self):
        net = chain_network([1.0, 1.0])
        assert route_junctions(net, VehicularRoute(1, (1, 2), 1.0)) == (1, 2, 3)
