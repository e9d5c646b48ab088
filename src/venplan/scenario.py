"""Scenario files and synthetic scenario generation.

A scenario bundles everything one planning run needs: the road network, the
vehicular routes, the (source, target) pairs, physical parameters, the EV
participation fraction, enumeration bounds, and optional caps. Scenarios
are stored as JSON with an explicit schema version and unit declarations;
serialization is canonical (sorted keys, fixed layout), so equal scenarios
produce byte-identical files.

The generator builds synthetic scenarios from a seeded RNG: a weakly
connected random arc set, routes grown by loop-free random walks under a
length cap whose flow is the minimum of their member arcs' flows, and
source-target pairs screened so at least one energy path exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import random
import sys
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import attrgetter, itemgetter
from typing import Any, NoReturn, Optional

from .energetics import EnergyParams, _check_penetration
from .errors import FLOAT_MAX, ScenarioFormatError, ValidationError
from .network import Arc, RoadNetwork, VehicularRoute, build_network
from .paths import FULL_ROUTE, PER_HOP, EnumerationConfig, RouteIndex, _is_count, enumerate_paths

SCHEMA_VERSION = 1
UNITS = {
    "time": "hours",
    "energy": "kWh",
    "flow": "vehicles_per_hour",
    "length": "km",
}


@dataclass(frozen=True)
class Scenario:
    """A complete, validated planning instance. Its route ``index``, built
    with it and so checking its routes, is left out of equality and repr."""

    network: RoadNetwork
    routes: tuple[VehicularRoute, ...]
    pairs: tuple[tuple[int, int], ...]
    params: EnergyParams
    penetration: float
    enumeration: EnumerationConfig
    loss_cap: float = math.inf  # kWh
    delivery_floor: float = 0.0  # kWh
    seed: Optional[int] = None
    index: RouteIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_penetration(self.penetration)
        if not self.loss_cap >= 0:
            raise ValidationError("loss_cap must be nonnegative")
        if not (self.loss_cap <= FLOAT_MAX or self.loss_cap == math.inf):
            raise ValidationError("loss_cap must be finite or inf")
        if not 0.0 <= self.delivery_floor <= FLOAT_MAX:
            raise ValidationError("delivery_floor must be finite and nonnegative")
        object.__setattr__(self, "index", RouteIndex(self.network, self.routes))
        for s, t in self.pairs:
            if s not in self.network.junctions:
                raise ValidationError(f"pair source {s} is not a junction")
            if t not in self.network.junctions:
                raise ValidationError(f"pair target {t} is not a junction")
            if s == t:
                raise ValidationError("pair source and target must differ")


def _expect(obj: Any, key: str, kind: type, where: str) -> Any:
    if not isinstance(obj, dict):
        raise ScenarioFormatError(f"{where} must be an object")
    if key not in obj:
        raise ScenarioFormatError(f"{where}.{key} is missing")
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ScenarioFormatError(f"{where}.{key} must be a number")
        try:
            number = float(value)
        except OverflowError:  # an integer literal beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ScenarioFormatError(f"{where}.{key} must be finite")
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioFormatError(f"{where}.{key} must be an integer")
        return value
    if not isinstance(value, kind):
        raise ScenarioFormatError(f"{where}.{key} must be a {kind.__name__}")
    return value


# Fields of the two bulk sections, in the order the error walk checks them.
_ARC_FIELDS = (
    ("id", int), ("tail", int), ("head", int),
    ("delay", float), ("flow", float), ("length", float),
)
_ROUTE_FIELDS = (("arcs", list), ("id", int), ("flow", float))


def _column(objs: list, key: str, kind: type) -> Optional[list]:
    """Field ``key`` of every object, checked like ``_expect``; None if any fails.

    JSON only yields exact ``int``/``float``/``list`` values, so comparing
    types is the same test as ``_expect``'s (``bool`` is not ``int``).
    """
    try:
        values = list(map(itemgetter(key), objs))
    except (KeyError, TypeError):  # a missing key, or an object that is not one
        return None
    types = set(map(type, values))
    if kind is not float:
        return values if types <= {kind} else None
    if not types <= {int, float}:
        return None
    if int in types:
        try:
            values = list(map(float, values))
        except OverflowError:
            return None
    return values if all(map(math.isfinite, values)) else None


def _raise_first_error(objs: list, where: str, fields: tuple) -> NoReturn:
    """Raise the error a per-field walk of ``objs`` meets first."""
    for i, obj in enumerate(objs):
        for key, kind in fields:
            value = _expect(obj, key, kind, f"{where}[{i}]")
            if kind is list and any(type(v) is not int for v in value):
                raise ScenarioFormatError(f"{where}[{i}].{key} must be integers")
    raise AssertionError(f"{where}: the bulk check failed on valid fields")


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    The arc and route sections are checked column by column; only when a
    check fails does a per-field walk run, in document order, to name the
    first bad field. Integer literals in number fields become floats.

    Raises ScenarioFormatError for malformed documents (with the JSON
    location or field path) and ValidationError when a well-formed document
    breaks a semantic invariant.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(doc, dict):
        raise ScenarioFormatError("top level must be an object")

    version = _expect(doc, "schema_version", int, "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioFormatError(
            f"unsupported schema_version {version}; expected {SCHEMA_VERSION}"
        )
    units = _expect(doc, "units", dict, "scenario")
    for key, expected in UNITS.items():
        if units.get(key) != expected:
            raise ScenarioFormatError(f"units.{key} must be {expected!r}")

    network_obj = _expect(doc, "network", dict, "scenario")
    junctions = _expect(network_obj, "junctions", list, "network")
    for j in junctions:
        if isinstance(j, bool) or not isinstance(j, int):
            raise ScenarioFormatError("network.junctions must be integers")
    arc_objs = _expect(network_obj, "arcs", list, "network")
    arc_columns = [_column(arc_objs, key, kind) for key, kind in _ARC_FIELDS]
    if None in arc_columns:
        _raise_first_error(arc_objs, "network.arcs", _ARC_FIELDS)
    network = build_network(junctions, map(Arc, *arc_columns))

    route_objs = _expect(doc, "routes", list, "scenario")
    route_columns = [_column(route_objs, key, kind) for key, kind in _ROUTE_FIELDS]
    members, ids, flows = route_columns
    if None in route_columns or not set(map(type, chain.from_iterable(members))) <= {int}:
        _raise_first_error(route_objs, "routes", _ROUTE_FIELDS)
    routes = tuple(map(VehicularRoute, ids, map(tuple, members), flows))

    pairs = []
    for i, pair in enumerate(_expect(doc, "pairs", list, "scenario")):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in pair)
        ):
            raise ScenarioFormatError(f"pairs[{i}] must be a [source, target] pair")
        pairs.append((pair[0], pair[1]))

    params_obj = _expect(doc, "params", dict, "scenario")
    params = EnergyParams(
        packet_size=_expect(params_obj, "packet_size", float, "params"),
        charge_efficiency=_expect(params_obj, "charge_efficiency", float, "params"),
        discharge_efficiency=_expect(
            params_obj, "discharge_efficiency", float, "params"
        ),
        window=_expect(params_obj, "window", float, "params"),
    )

    enum_obj = _expect(doc, "enumeration", dict, "scenario")
    raw_max_paths = enum_obj.get("max_paths")
    if raw_max_paths is not None:
        raw_max_paths = _expect(enum_obj, "max_paths", int, "enumeration")
    mode = _expect(enum_obj, "mode", str, "enumeration")
    if mode not in (FULL_ROUTE, PER_HOP):
        raise ScenarioFormatError(f"enumeration.mode must be one of {FULL_ROUTE!r}, {PER_HOP!r}")
    enumeration = EnumerationConfig(
        max_hops=_expect(enum_obj, "max_hops", int, "enumeration"),
        max_paths=raw_max_paths,
        mode=mode,
    )

    caps = doc.get("caps", {})
    if not isinstance(caps, dict):
        raise ScenarioFormatError("caps must be an object")
    raw_cap = caps.get("loss_cap")
    loss_cap = math.inf if raw_cap is None else _expect(caps, "loss_cap", float, "caps")
    raw_floor = caps.get("delivery_floor")
    delivery_floor = (
        0.0 if raw_floor is None else _expect(caps, "delivery_floor", float, "caps")
    )

    seed = doc.get("seed")
    if seed is not None:
        seed = _expect(doc, "seed", int, "scenario")

    return Scenario(
        network=network,
        routes=routes,
        pairs=tuple(pairs),
        params=params,
        penetration=_expect(doc, "penetration", float, "scenario"),
        enumeration=enumeration,
        loss_cap=loss_cap,
        delivery_floor=delivery_floor,
        seed=seed,
    )


# One record of each bulk section, laid out as ``json.dumps(indent=2,
# sort_keys=True)`` lays it out: floats through ``%r``, the ``float.__repr__``
# that ``json`` writes, and ids through ``str``. No route is empty.
_ARC_RECORD = """\
      {
        "delay": %r,
        "flow": %r,
        "head": %s,
        "id": %s,
        "length": %r,
        "tail": %s
      }"""
_ROUTE_RECORD = """\
    {
      "arcs": [
        %s
      ],
      "flow": %r,
      "id": %s
    }"""
_MEMBER_SEPARATOR = ",\n        "


def _section(records: list[str], indent: str) -> str:
    return "[\n" + ",\n".join(records) + "\n" + indent + "]" if records else "[]"


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical text: ``json.dumps(indent=2, sort_keys=True)`` of the document.

    Equal scenarios serialize byte-identically, so they hash identically:
    every float field is written as a float (``1.0``, never ``1``), and an
    unlimited loss cap as ``null``. The arc and route sections are written
    record by record from fixed templates and spliced into the ``json``
    text of the rest.
    """
    network = scenario.network
    arcs = list(map(network.arcs.__getitem__, sorted(network.arcs)))
    routes = sorted(scenario.routes, key=attrgetter("id"))
    delays, flows, lengths = (
        map(float, map(attrgetter(name), arcs)) for name in ("delay", "flow", "length")
    )
    route_flows = map(float, map(attrgetter("flow"), routes))
    heads, ids, tails = (map(attrgetter(name), arcs) for name in ("head", "id", "tail"))
    arc_records = list(
        map(_ARC_RECORD.__mod__, zip(delays, flows, heads, ids, lengths, tails))
    )
    members = [_MEMBER_SEPARATOR.join(map(str, route.arcs)) for route in routes]
    route_ids = map(attrgetter("id"), routes)
    route_records = list(map(_ROUTE_RECORD.__mod__, zip(members, route_flows, route_ids)))

    params = scenario.params
    text = json.dumps(
        {
            "schema_version": SCHEMA_VERSION,
            "units": UNITS,
            "network": {"arcs": [], "junctions": sorted(network.junctions)},
            "routes": [],
            "pairs": [[s, t] for s, t in scenario.pairs],
            "params": {
                "packet_size": float(params.packet_size),
                "charge_efficiency": float(params.charge_efficiency),
                "discharge_efficiency": float(params.discharge_efficiency),
                "window": float(params.window),
            },
            "penetration": float(scenario.penetration),
            "enumeration": {
                "max_hops": scenario.enumeration.max_hops,
                "max_paths": scenario.enumeration.max_paths,
                "mode": scenario.enumeration.mode,
            },
            "caps": {
                "loss_cap": (
                    None if math.isinf(scenario.loss_cap) else float(scenario.loss_cap)
                ),
                "delivery_floor": float(scenario.delivery_floor),
            },
            "seed": scenario.seed,
        },
        indent=2,
        sort_keys=True,
        allow_nan=False,
    )
    # "arcs" and "routes" are each the only key of that name in the rest.
    text = text.replace('"arcs": []', '"arcs": ' + _section(arc_records, "    "), 1)
    text = text.replace('"routes": []', '"routes": ' + _section(route_records, "  "), 1)
    return text + "\n"


def scenario_hash(scenario: Scenario) -> str:
    """SHA-256 of the canonical serialization, for provenance records."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


# Fixed for generated scenarios; ``dataclasses.replace`` changes a generated
# scenario's params, loss cap or delivery floor.
FLOW_RANGE = (50.0, 1000.0)  # vehicles per hour
LENGTH_RANGE = (5.0, 60.0)  # km
NOMINAL_PARAMS = EnergyParams(
    packet_size=0.1, charge_efficiency=0.9, discharge_efficiency=1.0, window=5.0
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for synthetic scenario generation; the seed is mandatory and,
    like the four counts, an integer, numpy's included, stored as a Python int."""

    seed: int
    junction_count: int = 100
    arc_count: int = 250
    route_count: int = 480
    pair_count: int = 5
    max_route_length: float = 200.0  # km
    delay_range: tuple[float, float] = (0.1, 2.0)  # hours
    penetration: float = 0.001
    enumeration: EnumerationConfig = EnumerationConfig(max_hops=4, max_paths=20)

    def __post_init__(self) -> None:
        for name in ("seed", "junction_count", "arc_count", "route_count", "pair_count"):
            if not _is_count(getattr(self, name)):
                raise ValidationError(f"{name} must be an integer")
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.junction_count < 2:
            raise ValidationError("junction_count must be at least 2")
        if self.arc_count < self.junction_count - 1:
            raise ValidationError(
                "arc_count below junction_count - 1 cannot connect the network"
            )
        if self.arc_count > self.junction_count * (self.junction_count - 1):
            raise ValidationError("arc_count exceeds the number of distinct arcs")
        if self.route_count < 1 or self.pair_count < 1:
            raise ValidationError("route_count and pair_count must be positive")
        if max(self.junction_count, self.arc_count, self.route_count) > sys.maxsize:
            # no list holds more items
            raise ValidationError(
                "junction_count, arc_count and route_count must not exceed sys.maxsize"
            )
        if self.pair_count > self.junction_count * (self.junction_count - 1):
            raise ValidationError("pair_count exceeds the number of distinct pairs")
        if not self.max_route_length > 0:
            raise ValidationError("max_route_length must be positive")
        lo, hi = self.delay_range
        if not 0 <= lo <= hi:
            raise ValidationError("delay_range must satisfy 0 <= low <= high")
        if not hi <= FLOAT_MAX:
            raise ValidationError("delay_range must be finite")
        if LENGTH_RANGE[0] > self.max_route_length:
            raise ValidationError("shortest possible arc already exceeds the route cap")


def _grow_route(
    rng: random.Random, out_arcs: dict[int, list[Arc]], start: int, cap: float
) -> list[Arc]:
    """Random loop-free walk from ``start`` over ``out_arcs``, under the length cap."""
    visited = {start}
    arcs: list[Arc] = []
    length = 0.0
    here = start
    while True:
        options = [
            arc
            for arc in out_arcs[here]
            if arc.head not in visited and length + arc.length <= cap
        ]
        if not options:
            return arcs
        arc = rng.choice(options)
        arcs.append(arc)
        visited.add(arc.head)
        length += arc.length
        here = arc.head


def generate_scenario(config: GeneratorConfig) -> Scenario:
    """Generate a scenario deterministically from the config's seed.

    Arc placement starts from a random spanning backbone so every junction
    is reachable from the arc set; each route's flow is the minimum of its
    member arcs' flows and its total length respects the cap. Every emitted
    (source, target) pair admits at least one energy path under the
    config's enumeration settings.
    """
    rng = random.Random(config.seed)
    n = config.junction_count
    junctions = list(range(1, n + 1))

    endpoints: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for j in range(2, n + 1):
        tail = rng.randrange(1, j)
        endpoints.append((tail, j))
        seen.add((tail, j))
    attempts = 0
    while len(endpoints) < config.arc_count:
        attempts += 1
        if attempts > 100 * config.arc_count:
            raise ValidationError("could not place the requested number of arcs")
        tail = rng.randrange(1, n + 1)
        head = rng.randrange(1, n + 1)
        if tail == head or (tail, head) in seen:
            continue
        endpoints.append((tail, head))
        seen.add((tail, head))

    arcs = [
        Arc(
            id=i,
            tail=tail,
            head=head,
            delay=rng.uniform(*config.delay_range),
            flow=rng.uniform(*FLOW_RANGE),
            length=rng.uniform(*LENGTH_RANGE),
        )
        for i, (tail, head) in enumerate(endpoints, start=1)
    ]
    network = build_network(junctions, arcs)

    out_arcs: dict[int, list[Arc]] = {j: [] for j in junctions}
    for arc in arcs:  # in ascending id order
        out_arcs[arc.tail].append(arc)
    starts = [j for j in junctions if out_arcs[j]]  # ascending
    routes: list[VehicularRoute] = []
    members: list[Arc] = []  # every route's arcs, for the pair candidates
    for route_id in range(1, config.route_count + 1):
        walk: list[Arc] = []
        for _ in range(100):
            walk = _grow_route(rng, out_arcs, rng.choice(starts), config.max_route_length)
            if walk:
                break
        if not walk:
            raise ValidationError(
                "could not grow a route within the length cap; "
                f"arcs are {LENGTH_RANGE[0]:g} to {LENGTH_RANGE[1]:g} km long"
            )
        flow = min([a.flow for a in walk])
        routes.append(VehicularRoute(route_id, tuple([a.id for a in walk]), flow))
        members += walk

    index = RouteIndex(network, routes)
    probe = replace(config.enumeration, max_paths=1)
    sources = sorted({a.tail for a in members})
    targets = sorted({a.head for a in members})
    pairs: list[tuple[int, int]] = []
    chosen: set[tuple[int, int]] = set()
    attempts = 0
    while len(pairs) < config.pair_count:
        attempts += 1
        if attempts > 300 * config.pair_count:
            raise ValidationError(
                "could not find enough source-target pairs joined by a path"
            )
        s = rng.choice(sources)
        t = rng.choice(targets)
        if s == t or (s, t) in chosen:
            continue
        if enumerate_paths(index, s, t, probe):
            pairs.append((s, t))
            chosen.add((s, t))

    return Scenario(
        network=network,
        routes=tuple(routes),
        pairs=tuple(pairs),
        params=NOMINAL_PARAMS,
        penetration=config.penetration,
        enumeration=config.enumeration,
        seed=config.seed,
    )
