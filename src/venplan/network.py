"""Road network primitives: junctions, arcs, routes, and sub-routes.

A road network is a directed graph whose nodes are integer junction ids and
whose arcs carry a constant traversal delay and a vehicle flow. Vehicular
routes are loop-free sequences of connected arcs; contiguous slices of a
route (sub-routes) are the building blocks of energy paths.

A network holds only its junction ids and its arcs by id. Code that walks
it builds its own index, as the generator does, or a scenario's route index,
which works on rows; the ``RouteIndex`` constructor checks the routes.

Networks and routes are immutable once built, and a scenario's route index
stores each cache value it fills on first use only once it is complete, so
all three can be shared freely between concurrent consumers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import FLOAT_MAX, ValidationError


@dataclass(frozen=True)
class Arc:
    """Directed road segment between two junctions.

    ``delay`` is the traversal time in hours, ``flow`` the number of vehicles
    per hour, and ``length`` the physical length in km. Length is used only
    by the scenario generator's route-length cap; it plays no role in energy
    accounting.
    """

    id: int
    tail: int
    head: int
    delay: float  # hours
    flow: float = 0.0  # vehicles per hour
    length: float = 0.0  # km


@dataclass(frozen=True)
class VehicularRoute:
    """Loop-free sequence of connected arcs carrying a scalar vehicle flow."""

    id: int
    arcs: tuple[int, ...]  # arc ids, in travel order
    flow: float  # vehicles per hour


@dataclass(frozen=True)
class SubRoute:
    """Contiguous slice of a route, from its n-th to its m-th arc.

    Indices are 1-based and inclusive. The slice keeps the route's id and
    flow as given; its delay is the sum of the member arcs' delays. Slices
    are built by :meth:`venplan.RouteIndex.slice` from a route row.
    """

    route_id: int
    start: int
    end: int
    entry: int  # junction where the slice begins
    exit: int  # junction where the slice ends
    delay: float  # hours
    flow: float  # vehicles per hour


@dataclass(frozen=True)
class RoadNetwork:
    """Validated directed road graph: its junction ids and its arcs by id."""

    junctions: frozenset[int]
    arcs: Mapping[int, Arc]


def build_network(junctions: Iterable[int], arcs: Iterable[Arc]) -> RoadNetwork:
    """Validate junctions and arcs and assemble a road network.

    Raises ValidationError on duplicate ids, dangling arc endpoints,
    self-loops, or negative or non-finite delay/flow/length.
    """
    junction_list = list(junctions)
    arc_list = list(arcs)
    if not junction_list:
        raise ValidationError("network needs at least one junction")
    if not arc_list:
        raise ValidationError("network needs at least one arc")

    junction_set = frozenset(junction_list)
    if len(junction_set) != len(junction_list):
        raise ValidationError("duplicate junction ids")

    arc_map: dict[int, Arc] = {}
    for arc in arc_list:
        if arc.id in arc_map:
            raise ValidationError(f"duplicate arc id {arc.id}")
        if arc.tail == arc.head:
            raise ValidationError(f"arc {arc.id} is a self-loop at junction {arc.tail}")
        if arc.tail not in junction_set or arc.head not in junction_set:
            raise ValidationError(f"arc {arc.id} references an undeclared junction")
        for field in ("delay", "flow", "length"):
            value = getattr(arc, field)
            if not 0.0 <= value <= FLOAT_MAX:
                raise ValidationError(f"arc {arc.id} {field} must be finite and nonnegative")
        arc_map[arc.id] = arc

    return RoadNetwork(junctions=junction_set, arcs=arc_map)
