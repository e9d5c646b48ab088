import copy
import dataclasses
import json
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import venplan.cli
import venplan.energetics
import venplan.planner
import venplan.scenario
import venplan.sweep
from venplan import (
    MAX_ENERGY,
    MIN_LOSS,
    PER_HOP,
    Arc,
    EnergyParams,
    EnumerationConfig,
    GeneratorConfig,
    RouteIndex,
    ScenarioFormatError,
    SweepSpec,
    ValidationError,
    VehicularRoute,
    build_network,
    enumerate_paths,
    generate_scenario,
    knapsack_assign,
    parse_scenario,
    path_economics,
    scenario_hash,
    serialize_scenario,
)
from venplan.cli import main

from _oracles import _reference_invariants, reference_parse, reference_serialize, validate_route
from conftest import THREE_ROUTES, shift_ids

HUGE = 10**400  # an integer beyond the float range

MINIMAL = """
{
  "schema_version": 1,
  "units": {"time": "hours", "energy": "kWh",
            "flow": "vehicles_per_hour", "length": "km"},
  "network": {
    "junctions": [1, 2],
    "arcs": [{"id": 1, "tail": 1, "head": 2,
              "delay": 0.5, "flow": 10.0, "length": 5.0}]
  },
  "routes": [{"id": 1, "arcs": [1], "flow": 10.0}],
  "pairs": [[1, 2]],
  "params": {"packet_size": 0.1, "charge_efficiency": 0.9,
             "discharge_efficiency": 1.0, "window": 5.0},
  "penetration": 1.0,
  "enumeration": {"max_hops": 2, "max_paths": 5, "mode": "full-route"}
}
"""


class TestParsing:
    def test_minimal_file(self):
        scenario = parse_scenario(MINIMAL)
        assert len(scenario.network.junctions) == 2
        assert len(scenario.routes) == 1
        assert scenario.pairs == ((1, 2),)
        assert math.isinf(scenario.loss_cap)
        assert scenario.delivery_floor == 0.0
        assert scenario.seed is None

    def test_fixture_shape(self, three_routes_scenario):
        assert len(three_routes_scenario.network.junctions) == 5
        assert len(three_routes_scenario.routes) == 3
        assert three_routes_scenario.params.packet_size == 0.1

    def test_penetration_out_of_range(self):
        text = MINIMAL.replace('"penetration": 1.0', '"penetration": 1.5')
        with pytest.raises(ValidationError, match=r"penetration must be within \[0, 1\]"):
            parse_scenario(text)

    def test_invalid_json_names_location(self):
        with pytest.raises(ScenarioFormatError, match="line"):
            parse_scenario("{this is not json")

    def test_empty_file_is_a_syntax_error(self):
        with pytest.raises(ScenarioFormatError, match="invalid JSON"):
            parse_scenario("")

    def test_missing_field_named(self):
        doc = json.loads(MINIMAL)
        del doc["routes"]
        with pytest.raises(ScenarioFormatError, match="scenario.routes"):
            parse_scenario(json.dumps(doc))

    def test_wrong_units_rejected(self):
        doc = json.loads(MINIMAL)
        doc["units"]["time"] = "minutes"
        with pytest.raises(ScenarioFormatError, match="units.time"):
            parse_scenario(json.dumps(doc))

    def test_wrong_schema_version(self):
        doc = json.loads(MINIMAL)
        doc["schema_version"] = 2
        with pytest.raises(ScenarioFormatError, match="schema_version"):
            parse_scenario(json.dumps(doc))

    def test_boolean_is_not_a_number(self):
        doc = json.loads(MINIMAL)
        doc["penetration"] = True
        with pytest.raises(ScenarioFormatError, match="penetration"):
            parse_scenario(json.dumps(doc))

    def test_bad_pair_shape(self):
        doc = json.loads(MINIMAL)
        doc["pairs"] = [[1]]
        with pytest.raises(ScenarioFormatError, match=r"pairs\[0\]"):
            parse_scenario(json.dumps(doc))

    def test_semantic_errors_from_network(self):
        doc = json.loads(MINIMAL)
        doc["network"]["arcs"][0]["head"] = 1  # self-loop
        with pytest.raises(ValidationError, match="self-loop"):
            parse_scenario(json.dumps(doc))

    def test_route_over_unknown_arc(self):
        doc = json.loads(MINIMAL)
        doc["routes"][0]["arcs"] = [9]
        with pytest.raises(ValidationError, match="unknown arc"):
            parse_scenario(json.dumps(doc))

    def test_pair_with_unknown_junction(self):
        doc = json.loads(MINIMAL)
        doc["pairs"] = [[1, 9]]
        with pytest.raises(ValidationError, match="not a junction"):
            parse_scenario(json.dumps(doc))


class TestSerialization:
    def test_round_trip_identity_fixture(self, three_routes_scenario):
        text = serialize_scenario(three_routes_scenario)
        assert parse_scenario(text) == three_routes_scenario

    def test_serialization_is_canonical(self, three_routes_scenario):
        a = serialize_scenario(three_routes_scenario)
        b = serialize_scenario(parse_scenario(a))
        assert a == b

    def test_infinite_loss_cap_round_trips_via_null(self):
        scenario = parse_scenario(MINIMAL)
        assert '"loss_cap": null' in serialize_scenario(scenario)
        assert math.isinf(parse_scenario(serialize_scenario(scenario)).loss_cap)

    def test_numpy_enumeration_counts_serialize(self, three_routes_scenario):
        # json.dumps takes no numpy integer; the config stores Python ints
        config = EnumerationConfig(max_hops=np.int64(3), max_paths=np.int64(5))
        assert (type(config.max_hops), type(config.max_paths)) == (int, int)
        found = serialize_scenario(dataclasses.replace(three_routes_scenario, enumeration=config))
        expected = serialize_scenario(dataclasses.replace(
            three_routes_scenario, enumeration=EnumerationConfig(max_hops=3, max_paths=5)
        ))
        assert found == expected

    def test_hash_is_stable_and_sensitive(self, three_routes_scenario):
        h1 = scenario_hash(three_routes_scenario)
        h2 = scenario_hash(parse_scenario(serialize_scenario(three_routes_scenario)))
        assert h1 == h2
        bumped = dataclasses.replace(three_routes_scenario, penetration=0.5)
        assert scenario_hash(bumped) != h1


class TestGenerator:
    CONFIG = GeneratorConfig(
        seed=42,
        junction_count=20,
        arc_count=45,
        route_count=25,
        pair_count=3,
        enumeration=EnumerationConfig(max_hops=3, max_paths=10),
    )

    def test_same_seed_is_byte_identical(self):
        a = serialize_scenario(generate_scenario(self.CONFIG))
        b = serialize_scenario(generate_scenario(self.CONFIG))
        assert a == b

    def test_different_seeds_differ(self):
        other = dataclasses.replace(self.CONFIG, seed=43)
        assert serialize_scenario(generate_scenario(self.CONFIG)) != serialize_scenario(
            generate_scenario(other)
        )

    def test_requested_counts(self):
        scenario = generate_scenario(self.CONFIG)
        assert len(scenario.network.junctions) == 20
        assert len(scenario.network.arcs) == 45
        assert len(scenario.routes) == 25
        assert len(scenario.pairs) == 3
        assert scenario.seed == 42

    def test_route_flow_is_min_of_member_arc_flows(self):
        scenario = generate_scenario(self.CONFIG)
        for route in scenario.routes:
            flows = [scenario.network.arcs[a].flow for a in route.arcs]
            assert route.flow == min(flows)

    def test_route_length_cap(self):
        config = dataclasses.replace(self.CONFIG, max_route_length=120.0)
        scenario = generate_scenario(config)
        for route in scenario.routes:
            total = sum(scenario.network.arcs[a].length for a in route.arcs)
            assert total <= 120.0 + 1e-9

    def test_generated_routes_validate(self):
        scenario = generate_scenario(self.CONFIG)
        for route in scenario.routes:
            validate_route(scenario.network, route)

    def test_pairs_admit_at_least_one_path(self):
        scenario = generate_scenario(self.CONFIG)
        index = RouteIndex(scenario.network, scenario.routes)
        for s, t in scenario.pairs:
            paths = enumerate_paths(index, s, t, scenario.enumeration)
            assert paths, (s, t)

    def test_round_trip_of_generated_scenarios(self):
        for seed in range(5):
            config = dataclasses.replace(self.CONFIG, seed=seed)
            scenario = generate_scenario(config)
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_effective_flow_scaling_is_exact(self):
        # penetration scales each path's flow-limited rate, not the routes
        scenario = generate_scenario(self.CONFIG)
        index = RouteIndex(scenario.network, scenario.routes)
        for s, t in scenario.pairs:
            table = enumerate_paths(index, s, t, scenario.enumeration)
            half = path_economics(table, scenario.params, 0.5)[0]
            full = path_economics(table, scenario.params, 1.0)[0]
            assert (2.0 * half).tolist() == full.tolist()

    def test_unsatisfiable_configs_reported(self):
        with pytest.raises(ValidationError, match="connect the network"):
            GeneratorConfig(seed=1, junction_count=10, arc_count=5)
        with pytest.raises(ValidationError, match="distinct arcs"):
            GeneratorConfig(seed=1, junction_count=3, arc_count=7)
        with pytest.raises(ValidationError, match="route cap"):
            GeneratorConfig(seed=1, max_route_length=4.0)  # arcs are 5 to 60 km
        with pytest.raises(ValidationError, match="distinct pairs"):
            GeneratorConfig(seed=1, junction_count=3, arc_count=4, pair_count=7)
        with pytest.raises(ValidationError, match="sys.maxsize"):
            GeneratorConfig(seed=1, route_count=sys.maxsize + 1)
        with pytest.raises(TypeError):  # the seed has no default
            GeneratorConfig()  # type: ignore[call-arg]

    @pytest.mark.parametrize("field, value", [
        ("seed", None), ("seed", 1.5), ("seed", True), ("junction_count", 12.0),
        ("arc_count", 30.0), ("route_count", 10.0), ("pair_count", True),
    ])
    def test_non_integer_seed_and_counts_rejected(self, field, value):
        counts = dict(seed=3, junction_count=12, arc_count=30, route_count=10, pair_count=2)
        with pytest.raises(ValidationError, match=f"^{field} must be an integer$"):
            GeneratorConfig(**{**counts, field: value})

    def test_numpy_counts_accepted(self):
        counts = dict(junction_count=12, arc_count=30, route_count=10, pair_count=2)
        as_numpy = {name: np.int64(count) for name, count in counts.items()}
        assert generate_scenario(GeneratorConfig(seed=3, **as_numpy)) == generate_scenario(
            GeneratorConfig(seed=3, **counts)
        )

    def test_numpy_seed_accepted(self):
        # random.Random takes no numpy integer; the config stores a Python int
        config = GeneratorConfig(seed=3, junction_count=12, arc_count=30, route_count=10,
                                 pair_count=2)
        numpy_seeded = dataclasses.replace(config, seed=np.int64(3))
        assert type(numpy_seeded.seed) is int
        assert generate_scenario(numpy_seeded) == generate_scenario(config)


class TestScenarioInvariants:
    def test_caps_validated(self, three_routes_scenario):
        with pytest.raises(ValidationError, match="loss_cap"):
            dataclasses.replace(three_routes_scenario, loss_cap=-1.0)
        with pytest.raises(ValidationError, match="delivery_floor"):
            dataclasses.replace(three_routes_scenario, delivery_floor=math.inf)

    def test_pair_validation(self, three_routes_scenario):
        with pytest.raises(ValidationError, match="must differ"):
            dataclasses.replace(three_routes_scenario, pairs=((1, 1),))

    @pytest.mark.parametrize("build, message", [
        (lambda s: build_network([1, 2], [Arc(1, 1, 2, HUGE, 1.0)]),
         "arc 1 delay must be finite and nonnegative"),
        (lambda s: build_network([1, 2], [Arc(1, 1, 2, 1.0, HUGE)]),
         "arc 1 flow must be finite and nonnegative"),
        (lambda s: build_network([1, 2], [Arc(1, 1, 2, 1.0, 1.0, HUGE)]),
         "arc 1 length must be finite and nonnegative"),
        (lambda s: RouteIndex(s.network, [VehicularRoute(1, (1,), HUGE)]),
         "route 1 flow must be finite and nonnegative"),
        (lambda s: EnergyParams(HUGE, 0.9, 1.0, 5.0), "packet_size must be positive and finite"),
        (lambda s: EnergyParams(0.1, 0.9, 1.0, HUGE), "window must be finite and nonnegative"),
        (lambda s: dataclasses.replace(s, loss_cap=HUGE), "loss_cap must be finite or inf"),
        (lambda s: dataclasses.replace(s, delivery_floor=HUGE),
         "delivery_floor must be finite and nonnegative"),
        (lambda s: knapsack_assign([1.0], [0.5], MAX_ENERGY, HUGE),
         "loss cap must be finite or inf"),
        (lambda s: knapsack_assign([1.0], [0.5], MIN_LOSS, HUGE),
         "delivery floor must be finite and nonnegative"),
        (lambda s: SweepSpec("z", (0.5, HUGE)), "sweep values must be finite"),
        (lambda s: path_economics(
            enumerate_paths(s.index, *s.pairs[0], s.enumeration), s.params, HUGE
        ), r"penetration must be within \[0, 1\]"),
        (lambda s: generate_scenario(GeneratorConfig(
            seed=3, junction_count=20, arc_count=40, route_count=20, pair_count=2,
            delay_range=(0.05, HUGE),
        )), "delay_range must be finite"),
    ], ids=["arc-delay", "arc-flow", "arc-length", "route-flow", "packet-size", "window",
            "loss-cap", "delivery-floor", "knapsack-cap", "knapsack-floor", "sweep-value",
            "path-economics-penetration", "generator-delay-range"])
    def test_integers_beyond_the_float_range_rejected(self, three_routes_scenario, build, message):
        # an integer too large for a float is no OverflowError anywhere
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(three_routes_scenario)


class TestFloatFields:
    def test_equal_scenarios_hash_identically(self):
        # integer-valued floats given to the library are written as floats
        params = EnergyParams(
            packet_size=1, charge_efficiency=0.9, discharge_efficiency=1, window=5
        )
        config = GeneratorConfig(
            seed=3, junction_count=20, arc_count=40, route_count=20, pair_count=2
        )
        scenario = dataclasses.replace(generate_scenario(config), params=params)
        text = serialize_scenario(scenario)
        again = parse_scenario(text)
        assert again == scenario
        assert scenario_hash(again) == scenario_hash(scenario)
        assert '"packet_size": 1.0' in text
        assert serialize_scenario(again) == text


class TestWriterOracle:
    """The fixed-layout writer against ``json.dumps`` of the document dict."""

    def assert_canonical(self, scenario):
        text = serialize_scenario(scenario)
        assert text == reference_serialize(scenario)
        assert serialize_scenario(parse_scenario(text)) == text
        return text

    def test_fixture(self, three_routes_scenario, three_routes_text):
        assert self.assert_canonical(three_routes_scenario) == three_routes_text

    @pytest.mark.parametrize("mode", ["full-route", PER_HOP])
    def test_generated_cities(self, mode):
        config = GeneratorConfig(
            seed=17, junction_count=60, arc_count=160, route_count=120, pair_count=3,
            enumeration=EnumerationConfig(max_hops=4, max_paths=10, mode=mode),
        )
        scenario = generate_scenario(config)
        assert parse_scenario(self.assert_canonical(scenario)) == scenario

    @pytest.mark.parametrize("shift", [2**70, -(2**70)])
    def test_ids_beyond_int64(self, three_routes_scenario, shift):
        s = three_routes_scenario
        network, routes = shift_ids(s.network, s.routes, shift)
        pairs = tuple((a + shift, b + shift) for a, b in s.pairs)
        text = self.assert_canonical(
            dataclasses.replace(s, network=network, routes=tuple(routes), pairs=pairs)
        )
        assert f'"id": {1 + shift},' in text

    def test_single_arc_routes_and_no_routes(self, three_routes_scenario):
        s = three_routes_scenario
        single = tuple(
            VehicularRoute(id=10 * a, arcs=(a,), flow=5.0) for a in sorted(s.network.arcs)
        )
        self.assert_canonical(dataclasses.replace(s, routes=single[::-1]))
        text = self.assert_canonical(dataclasses.replace(s, routes=()))
        assert '"routes": [],' in text

    def test_unset_limits_and_seed_written_as_null(self, three_routes_scenario):
        unset = dataclasses.replace(
            three_routes_scenario,
            enumeration=EnumerationConfig(max_hops=3, max_paths=None),
            loss_cap=math.inf,
            seed=None,
        )
        text = self.assert_canonical(unset)
        for key in ("max_paths", "loss_cap", "seed"):
            assert f'"{key}": null' in text
        self.assert_canonical(dataclasses.replace(unset, loss_cap=2, seed=-7))

    def test_extreme_finite_floats(self, three_routes_scenario):
        s = three_routes_scenario
        edits = {1: {"delay": -0.0, "length": 5e-324}, 2: {"flow": 1e308, "delay": 1}}
        arcs = [dataclasses.replace(a, **edits.get(a.id, {})) for a in s.network.arcs.values()]
        extreme = dataclasses.replace(s, network=build_network(s.network.junctions, arcs))
        text = self.assert_canonical(extreme)
        assert '"delay": -0.0,' in text and '"length": 5e-324,' in text
        assert '"flow": 1e+308,' in text and '"delay": 1.0,' in text
        again = parse_scenario(text).network.arcs[1].delay
        assert math.copysign(1.0, again) == -1.0

    def test_id_written_as_json_writes_it(self, three_routes_scenario):
        # a library-built id that is not an integer is written, not rounded
        s = three_routes_scenario
        arcs = [dataclasses.replace(a, id=1.5) if a.id == 1 else a
                for a in s.network.arcs.values()]
        odd = dataclasses.replace(
            s,
            network=build_network(s.network.junctions, arcs),
            routes=tuple(r for r in s.routes if 1 not in r.arcs),
        )
        text = serialize_scenario(odd)
        assert text == reference_serialize(odd)
        with pytest.raises(ScenarioFormatError, match=r"arcs\[0\]\.id must be an integer"):
            parse_scenario(text)

    def test_non_finite_number_rejected_like_json(self, three_routes_scenario):
        # no scenario holds a non-finite float for the writer to meet: a
        # network with one is refused when it is built
        s = three_routes_scenario
        arcs = dict(s.network.arcs)
        arcs[1] = dataclasses.replace(arcs[1], flow=math.nan)
        with pytest.raises(ValidationError, match="^arc 1 flow must be finite and nonnegative$"):
            dataclasses.replace(s.network, arcs=arcs)


BAD_ROUTES = {
    "no-arcs": ((), 5.0),
    "unknown-arc": ((2, 99), 5.0),
    "broken-chain": ((4, 3), 5.0),  # 1 -> 2, then 3 -> 4
    "repeated-junction": ((1, 3, 7), 5.0),  # 1 -> 3 -> 4 -> 1
    "negative-flow": ((1,), -1.0),
    "nan-flow": ((1,), math.nan),
    "infinite-flow": ((1,), math.inf),
}


class TestRouteChecks:
    """The scenario's and the route index's all-routes check fail exactly
    where the per-route oracle does."""

    @pytest.mark.parametrize("first", [True, False], ids=["first", "last"])
    @pytest.mark.parametrize("kind", BAD_ROUTES)
    def test_first_invalid_route_named(self, three_routes_scenario, kind, first):
        s = three_routes_scenario
        network = build_network(
            s.network.junctions, [*s.network.arcs.values(), Arc(7, 4, 1, 1.0)]
        )
        bad = VehicularRoute(9, *BAD_ROUTES[kind])
        with pytest.raises(ValidationError) as expected:
            validate_route(network, bad)
        later = VehicularRoute(8, (), 1.0)
        routes = (bad, *s.routes, later) if first else (*s.routes, bad)
        with pytest.raises(ValidationError) as raised:
            dataclasses.replace(s, network=network, routes=routes)
        assert str(raised.value) == str(expected.value)
        with pytest.raises(ValidationError) as raised:
            RouteIndex(network, routes)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("shift", [0, 2**70, -(2**70)])
    def test_injected_faults_match_the_oracle(self, three_routes_scenario, shift):
        failing, outranked = 0, 0
        for seed in range(120):
            network, routes, faults = faulty_routes(seed)
            network, routes = shift_ids(network, routes, shift)
            try:
                _reference_invariants(network, routes, (), 1.0, math.inf, 0.0)
                expected = None
            except ValidationError as exc:
                expected = str(exc)
            for build in (
                lambda: dataclasses.replace(
                    three_routes_scenario, network=network, routes=tuple(routes), pairs=()
                ),
                lambda: RouteIndex(network, routes),
            ):
                if expected is None:
                    build()
                    continue
                with pytest.raises(ValidationError) as raised:
                    build()
                assert str(raised.value) == expected, (seed, faults)
            failing += expected is not None
            outranked += "duplicate-id" in faults and expected != "duplicate route ids"
        assert failing >= 100 and outranked >= 10, (failing, outranked)


ROUTE_FAULTS = (
    "drop-middle", "swap", "ring", "unknown-arc", "no-arcs",
    "nan-flow", "negative-flow", "infinite-flow", "duplicate-id",
)
FAULT_FLOWS = {"nan-flow": math.nan, "negative-flow": -1.0, "infinite-flow": math.inf}


def faulty_routes(seed):
    """A generated city's network and its routes, shuffled so that input
    order is not id order, with 1 to 3 faults injected into three of them,
    and the faults' kinds. Faults often share a route, so the order of the
    rules counts. A ring closure adds the arc from the route's last head
    back to its first tail to the network."""
    rng = random.Random(seed)
    city = generate_scenario(GeneratorConfig(
        seed=seed, junction_count=12, arc_count=30, route_count=10, pair_count=1,
    ))
    arcs = dict(city.network.arcs)
    routes = list(city.routes)
    rng.shuffle(routes)
    faults = rng.sample(ROUTE_FAULTS, rng.randint(1, 3))
    targets = rng.sample(range(len(routes)), 3)
    for fault in faults:
        i = rng.choice(targets)
        route = routes[i]
        members = list(route.arcs)
        if fault == "drop-middle" and len(members) >= 3:
            del members[rng.randrange(1, len(members) - 1)]
        elif fault == "swap" and len(members) >= 2:
            a, b = rng.sample(range(len(members)), 2)
            members[a], members[b] = members[b], members[a]
        elif fault == "ring" and members and all(m in arcs for m in members):
            closing = Arc(max(arcs) + 1, arcs[members[-1]].head, arcs[members[0]].tail, 0.5)
            if closing.tail != closing.head:
                arcs[closing.id] = closing
                members.append(closing.id)
        elif fault == "unknown-arc" and members:
            members[rng.randrange(len(members))] = max(arcs) + 100
        elif fault == "no-arcs":
            members = []
        route_id = routes[(i + 1) % len(routes)].id if fault == "duplicate-id" else route.id
        routes[i] = VehicularRoute(route_id, tuple(members), FAULT_FLOWS.get(fault, route.flow))
    network = build_network(city.network.junctions, arcs.values())
    return network, routes, faults


# Mutations of the fixture document, for the parser's differential test.
FIXTURE_DOC = json.loads(THREE_ROUTES.read_text())
BIG = "<1e400>"  # a marker that the document text writes as the literal 1e400


def _key_paths(obj, prefix=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _key_paths(value, prefix + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, prefix + (i,))


ARC_COUNT = len(FIXTURE_DOC["network"]["arcs"])
ROUTE_COUNT = len(FIXTURE_DOC["routes"])
NUMBER_PATHS = (
    [("network", "arcs", i, k) for i in range(ARC_COUNT)
     for k in ("delay", "flow", "length")]
    + [("routes", i, "flow") for i in range(ROUTE_COUNT)]
    + [("params", k) for k in FIXTURE_DOC["params"]]
    + [("penetration",), ("caps", "loss_cap"), ("caps", "delivery_floor")]
)
INT_PATHS = (
    [("network", "arcs", i, k) for i in range(ARC_COUNT) for k in ("id", "tail", "head")]
    + [("routes", i, "id") for i in range(ROUTE_COUNT)]
    + [("routes", i, "arcs", j) for i in range(ROUTE_COUNT)
       for j in range(len(FIXTURE_DOC["routes"][i]["arcs"]))]
    + [("network", "junctions", 0), ("pairs", 0, 1), ("enumeration", "max_hops"),
       ("enumeration", "max_paths"), ("schema_version",), ("seed",)]
)
CONTAINER_PATHS = (
    [("network", "arcs", i) for i in range(ARC_COUNT)]
    + [("routes", i) for i in range(ROUTE_COUNT)]
    + [("network", "arcs"), ("routes",), ("routes", 0, "arcs"), ("routes", 2, "arcs"),
       ("network", "junctions"), ("pairs",)]
)
NOT_NUMBERS = [True, False, None, "1", math.nan, math.inf, -math.inf, BIG,
               10**400, -(10**400)]


def _break_chain(doc):
    doc["routes"][2]["arcs"].reverse()


def _repeat_junction(doc):
    # arc 7 closes the cycle 1 -> 3 -> 4 -> 1
    doc["network"]["arcs"].append(
        {"id": 7, "tail": 4, "head": 1, "delay": 1.0, "flow": 1.0, "length": 1.0}
    )
    doc["routes"][1]["arcs"] = [1, 3, 7]


def _unknown_arc(doc):
    doc["routes"][0]["arcs"] = [99]


MUTATIONS = st.one_of(
    st.tuples(st.just("delete"), st.sampled_from(list(_key_paths(FIXTURE_DOC)))),
    st.tuples(
        st.just("set"),
        st.sampled_from(NUMBER_PATHS),
        st.sampled_from(NOT_NUMBERS) | st.integers(-2, 10**6),
    ),
    st.tuples(
        st.just("set"),
        st.sampled_from(INT_PATHS),
        st.sampled_from(NOT_NUMBERS + [1.5, 2.0, -0.0]) | st.integers(-1, 8),
    ),
    st.tuples(
        st.just("set"),
        st.sampled_from(CONTAINER_PATHS),
        st.sampled_from([[], {}, 3, "x", None, [True]]),
    ),
    st.tuples(st.sampled_from([_break_chain, _repeat_junction, _unknown_arc])),
)


def mutate(doc, mutation):
    """Apply one mutation in place; one whose target is gone is skipped."""
    kind, *rest = mutation
    try:
        if callable(kind):
            kind(doc)
            return
        path = rest[0]
        parent = doc
        for step in path[:-1]:
            parent = parent[step]
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(rest[1])
    except (AttributeError, KeyError, IndexError, TypeError):
        pass


def document(mutations):
    doc = json.loads(THREE_ROUTES.read_text())
    for mutation in mutations:
        mutate(doc, mutation)
    return json.dumps(doc, indent=1).replace(f'"{BIG}"', "1e400")


def outcome(parse, text):
    try:
        return repr(parse(text))
    except (ScenarioFormatError, ValidationError) as exc:
        return type(exc), str(exc)


class TestParserOracle:
    """The bulk-checked parser against the per-field reference parser."""

    @given(st.lists(MUTATIONS, min_size=1, max_size=2))
    def test_mutated_documents(self, mutations):
        text = document(mutations)
        assert outcome(parse_scenario, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("path, later, message", [
        (("network", "arcs", 4, "flow"), ("network", "arcs", 5, "tail"),
         "network.arcs[4].flow must be a number"),
        (("routes", 1, "id"), ("routes", 2, "flow"), "routes[1].id must be an integer"),
        (("routes", 2, "arcs"), ("routes", 2, "flow"), "routes[2].arcs must be a list"),
    ])
    def test_first_bad_field_named(self, path, later, message):
        text = document([("set", later, "x"), ("set", path, True)])
        expected = (ScenarioFormatError, message)
        assert outcome(parse_scenario, text) == outcome(reference_parse, text) == expected

    @pytest.mark.parametrize("mode", ["full-route", PER_HOP])
    def test_generated_cities(self, mode):
        config = GeneratorConfig(
            seed=23, junction_count=60, arc_count=160, route_count=120, pair_count=3,
            enumeration=EnumerationConfig(max_hops=4, max_paths=10, mode=mode),
        )
        text = serialize_scenario(generate_scenario(config))
        assert outcome(parse_scenario, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("mutations", [
        [],
        [("delete", ("network", "arcs", 3, "flow"))],
        [("set", ("network", "arcs", 2, "delay"), "1")],
        [("set", ("routes", 1, "arcs", 1), True)],
        [("set", ("routes", 1, "flow"), BIG)],
        [(_break_chain,)],
        [(_repeat_junction,)],
        [(_unknown_arc,), ("set", ("penetration",), 2)],
    ], ids=["valid", "missing-key", "string-delay", "bool-member", "huge-flow",
            "broken-chain", "repeated-junction", "penetration-first"])
    def test_cli_validate_exit_code(self, tmp_path, capsys, mutations):
        text = document(mutations)
        path = tmp_path / "mutant.json"
        path.write_text(text)
        try:
            reference_parse(text)
            code, errors = 0, []
        except ScenarioFormatError as exc:
            code, errors = 3, [f"error: {exc}"]
        except ValidationError as exc:
            code, errors = 4, [f"error: {exc}"]
        assert main(["validate", str(path)]) == code
        assert capsys.readouterr().err.splitlines() == errors


class TestTracedCallSites:
    """The benchmark's traced run wraps these module globals by name."""

    def test_io_globals_are_the_scenario_functions(self):
        assert venplan.cli.parse_scenario is venplan.scenario.parse_scenario
        assert venplan.cli.scenario_hash is venplan.scenario.scenario_hash
        assert venplan.sweep.scenario_hash is venplan.scenario.scenario_hash

    def test_calls_go_through_the_globals(self, monkeypatch, tmp_path, three_routes_text):
        calls = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(f"{module.__name__}.{name}")
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counting(venplan.scenario, "build_network")
        parse_scenario(three_routes_text)
        assert calls == ["venplan.scenario.build_network"]

        calls.clear()
        counting(venplan.cli, "parse_scenario")
        counting(venplan.cli, "scenario_hash")
        assert main(["solve", str(THREE_ROUTES), "-o", str(tmp_path / "plan.json")]) == 0
        assert calls == [
            "venplan.cli.parse_scenario",
            "venplan.scenario.build_network",
            "venplan.cli.scenario_hash",
        ]

    def test_planner_globals_are_the_defining_functions(self):
        planner = venplan.planner
        for name in ("solve", "knapsack_assign", "solve_scenario"):
            assert getattr(planner, name).__module__ == "venplan.planner", name
        assert venplan.sweep.solve is planner.solve
        assert venplan.cli.solve_scenario is planner.solve_scenario
        assert planner.path_economics is venplan.energetics.path_economics

    def test_solve_assigns_through_the_planner_global(
        self, monkeypatch, tmp_path, three_routes_scenario
    ):
        calls = []
        real = venplan.planner.knapsack_assign

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(venplan.planner, "knapsack_assign", counting)
        venplan.planner.solve_scenario(three_routes_scenario)
        assert len(calls) == len(three_routes_scenario.pairs)
        spec = venplan.sweep.SweepSpec(parameter="z", values=(0.5, 0.9))
        venplan.sweep.run_sweep(three_routes_scenario, spec)
        assert len(calls) == 3 * len(three_routes_scenario.pairs)
        assert main(["solve", str(THREE_ROUTES), "-o", str(tmp_path / "plan.json")]) == 0
        assert len(calls) == 4 * len(three_routes_scenario.pairs)

    def test_pricing_goes_through_the_planner_global(self, monkeypatch):
        scenario = generate_scenario(GeneratorConfig(
            seed=3, junction_count=12, arc_count=30, route_count=12, pair_count=3
        ))
        calls = []
        real = venplan.planner.path_economics

        def counting(table, *args, **kwargs):
            calls.append(table)
            return real(table, *args, **kwargs)

        monkeypatch.setattr(venplan.planner, "path_economics", counting)
        solution = venplan.planner.solve_scenario(scenario)
        # each pair's table, once inside solve and once for its rates and losses
        tables = calls[::2]
        assert calls == [table for table in tables for _ in range(2)]
        assert [table.delays.tolist() for table in tables] == [
            [path.delay for path in pair.paths] for pair in solution.pairs
        ]
        assert all(pair.paths for pair in solution.pairs) and len(tables) == 3
        calls.clear()
        spec = venplan.sweep.SweepSpec(parameter="z", values=(0.5, 0.7, 0.9))
        venplan.sweep.run_sweep(scenario, spec)
        # the same three tables at every point
        assert calls == calls[:3] * 3 and len(set(map(id, calls))) == 3

    def test_every_benchmark_trace_site_is_called(self, tmp_path):
        # perfbench wraps each site with getattr(module, name), so a renamed
        # or bypassed global breaks its traced run; env.prepare() caps the
        # address space, hence the child process
        done = subprocess.run(
            [sys.executable, "-c", TRACE_SITES_CHILD, str(PERFBENCH), str(tmp_path)],
            cwd=tmp_path, capture_output=True, text=True,
            env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert done.returncode == 0, done.stderr
        counts = json.loads(done.stdout)
        assert counts and [site for site, n in counts.items() if n < 1] == []


PERFBENCH = THREE_ROUTES.parent.parent / "perfbench"
# Runs both workloads' timed part once on their tiny cities, every trace site
# renamed "module.attr" so that each site is counted on its own.
TRACE_SITES_CHILD = """
import sys
from pathlib import Path

sys.path.insert(0, sys.argv[1])
import env

env.prepare()
import json
import venplan
import workloads
from spans import Tracer, patched

work = Path(sys.argv[2])
files = workloads.Files(work / "scenario.json", work / "plan.json")
counts = {}
for workload in (workloads.CITY_PLAN, workloads.SWEEP_WIDE):
    scenario = workloads.build_scenario(workload, 3, 1, True)
    files.scenario.write_text(venplan.serialize_scenario(scenario), encoding="utf-8")
    sites = [
        site._replace(name=f"{site.module.__name__}.{site.attr}")
        for site in workloads.trace_sites(workloads.OutputCounters())
    ]
    tracer = Tracer()
    with patched(tracer, sites):
        workloads.timed_part(workload, files, scenario)
    for site in sites:
        counts[site.name] = counts.get(site.name, 0) + tracer.count.get(site.name, 0)
print(json.dumps(counts))
"""
