import dataclasses
import json
import math

import pytest

from venplan import (
    EnumerationConfig,
    GeneratorConfig,
    ScenarioFormatError,
    ValidationError,
    enumerate_paths,
    generate_scenario,
    max_rate,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
    validate_route,
)

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
            flows = [scenario.network.arc(a).flow for a in route.arcs]
            assert route.flow == min(flows)

    def test_route_length_cap(self):
        config = dataclasses.replace(self.CONFIG, max_route_length=120.0)
        scenario = generate_scenario(config)
        for route in scenario.routes:
            total = sum(scenario.network.arc(a).length for a in route.arcs)
            assert total <= 120.0 + 1e-9

    def test_generated_routes_validate(self):
        scenario = generate_scenario(self.CONFIG)
        for route in scenario.routes:
            validate_route(scenario.network, route)

    def test_pairs_admit_at_least_one_path(self):
        scenario = generate_scenario(self.CONFIG)
        for s, t in scenario.pairs:
            paths = enumerate_paths(
                scenario.network, scenario.routes, s, t, scenario.enumeration
            )
            assert paths, (s, t)

    def test_round_trip_of_generated_scenarios(self):
        for seed in range(5):
            config = dataclasses.replace(self.CONFIG, seed=seed)
            scenario = generate_scenario(config)
            assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_effective_flow_scaling_is_exact(self):
        # penetration scales each path's flow-limited rate, not the routes
        scenario = generate_scenario(self.CONFIG)
        for s, t in scenario.pairs:
            paths = enumerate_paths(
                scenario.network, scenario.routes, s, t, scenario.enumeration
            )
            for path in paths:
                half = max_rate(path, scenario.params, 0.5)
                assert 2.0 * half == max_rate(path, scenario.params, 1.0)

    def test_unsatisfiable_configs_reported(self):
        with pytest.raises(ValidationError, match="connect the network"):
            GeneratorConfig(seed=1, junction_count=10, arc_count=5)
        with pytest.raises(ValidationError, match="distinct arcs"):
            GeneratorConfig(seed=1, junction_count=3, arc_count=7)
        with pytest.raises(ValidationError, match="route cap"):
            GeneratorConfig(seed=1, length_range=(250.0, 300.0))
        with pytest.raises(TypeError):  # the seed has no default
            GeneratorConfig()  # type: ignore[call-arg]


class TestScenarioInvariants:
    def test_caps_validated(self, three_routes_scenario):
        with pytest.raises(ValidationError, match="loss_cap"):
            dataclasses.replace(three_routes_scenario, loss_cap=-1.0)
        with pytest.raises(ValidationError, match="delivery_floor"):
            dataclasses.replace(three_routes_scenario, delivery_floor=math.inf)

    def test_pair_validation(self, three_routes_scenario):
        with pytest.raises(ValidationError, match="must differ"):
            dataclasses.replace(three_routes_scenario, pairs=((1, 1),))
