"""Input checks that no other deterministic test reaches, each with its message.

Every case builds one bad input from a valid one and expects the exact
error: the planner's vector checks, a pair source outside the network,
four ``GeneratorConfig`` range rules, two configs the generator cannot
build, a non-finite float in a ``SweepSpec``, four of the parser's shape
checks and two integer literals past the float range.
"""

import dataclasses
import json
import math

import pytest

from venplan import (
    MAX_ENERGY,
    GeneratorConfig,
    ScenarioFormatError,
    SweepSpec,
    ValidationError,
    generate_scenario,
    knapsack_assign,
    parse_scenario,
)

from conftest import THREE_ROUTES


def edited(value, *keys):
    """The text of ``three_routes.json`` with ``value`` at ``keys``."""
    doc = section = json.loads(THREE_ROUTES.read_text())
    *path, last = keys
    for key in path:
        section = section[key]
    section[last] = value
    return json.dumps(doc)


def generator(**change):
    """A valid small generator config with ``change`` applied."""
    counts = dict(seed=1, junction_count=10, arc_count=20, route_count=5, pair_count=2)
    return GeneratorConfig(**{**counts, **change})

CASES = {
    "planner-unequal-lengths": (
        lambda s: knapsack_assign([1.0, 2.0], [0.5], MAX_ENERGY, math.inf),
        ValidationError, "capacities and loss factors must be equal-length vectors",
    ),
    "planner-not-vectors": (
        lambda s: knapsack_assign([[1.0]], [[0.5]], MAX_ENERGY, math.inf),
        ValidationError, "capacities and loss factors must be equal-length vectors",
    ),
    "planner-negative-capacity": (
        lambda s: knapsack_assign([1.0, -1.0], [0.5, 0.5], MAX_ENERGY, math.inf),
        ValidationError, "capacities and loss factors must be nonnegative",
    ),
    "planner-negative-loss-factor": (
        lambda s: knapsack_assign([1.0], [-0.5], MAX_ENERGY, math.inf),
        ValidationError, "capacities and loss factors must be nonnegative",
    ),
    "pair-source": (
        lambda s: dataclasses.replace(s, pairs=((99, 4),)),
        ValidationError, "pair source 99 is not a junction",
    ),
    "generator-junction-count": (
        lambda s: generator(junction_count=1),
        ValidationError, "junction_count must be at least 2",
    ),
    "generator-route-count": (
        lambda s: generator(route_count=0),
        ValidationError, "route_count and pair_count must be positive",
    ),
    "generator-pair-count": (
        lambda s: generator(pair_count=0),
        ValidationError, "route_count and pair_count must be positive",
    ),
    "generator-route-length": (
        lambda s: generator(max_route_length=math.nan),
        ValidationError, "max_route_length must be positive",
    ),
    "generator-delay-range-order": (
        lambda s: generator(delay_range=(2.0, 1.0)),
        ValidationError, r"delay_range must satisfy 0 <= low <= high",
    ),
    "generator-delay-range-negative": (
        lambda s: generator(delay_range=(-0.5, 1.0)),
        ValidationError, r"delay_range must satisfy 0 <= low <= high",
    ),
    "sweep-inf": (
        lambda s: SweepSpec("z", (0.5, math.inf)), ValidationError, "sweep values must be finite",
    ),
    "sweep-nan": (
        lambda s: SweepSpec("T", (math.nan,)), ValidationError, "sweep values must be finite",
    ),
    "parse-top-level": (
        lambda s: parse_scenario("[]"), ScenarioFormatError, "top level must be an object",
    ),
    "parse-junction-ids": (
        lambda s: parse_scenario(edited([1, 2, 3.0, 4, 5], "network", "junctions")),
        ScenarioFormatError, "network.junctions must be integers",
    ),
    "parse-junction-bool": (
        lambda s: parse_scenario(edited([1, 2, 3, 4, True], "network", "junctions")),
        ScenarioFormatError, "network.junctions must be integers",
    ),
    "parse-mode": (
        lambda s: parse_scenario(edited("sideways", "enumeration", "mode")),
        ScenarioFormatError, "enumeration.mode must be one of 'full-route', 'per-hop'",
    ),
    "parse-caps": (
        lambda s: parse_scenario(edited([], "caps")),
        ScenarioFormatError, "caps must be an object",
    ),
    "parse-window-overflow": (
        lambda s: parse_scenario(edited(10**400, "params", "window")),
        ScenarioFormatError, "params.window must be finite",
    ),
    "parse-arc-delay-overflow": (
        lambda s: parse_scenario(edited(10**400, "network", "arcs", 0, "delay")),
        ScenarioFormatError, r"network.arcs\[0\].delay must be finite",
    ),
    "generate-route-length-cap": (
        lambda s: generate_scenario(generator(junction_count=12, pair_count=1,
                                              max_route_length=5.0001)),
        ValidationError, "could not grow a route within the length cap; arcs are 5 to 60 km long",
    ),
    "generate-connected-pairs": (
        lambda s: generate_scenario(generator(seed=2, junction_count=4, arc_count=3,
                                              route_count=1, pair_count=12)),
        ValidationError, "could not find enough source-target pairs joined by a path",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_is_refused_with_its_message(case, three_routes_scenario):
    build, error, message = CASES[case]
    with pytest.raises(error, match=f"^{message}$") as caught:
        build(three_routes_scenario)
    assert type(caught.value) is error
