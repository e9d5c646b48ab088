"""Road network primitives: junctions, arcs, routes, and sub-routes.

A road network is a directed graph whose nodes are integer junction ids and
whose arcs carry a constant traversal delay and a vehicle flow. Vehicular
routes are loop-free sequences of connected arcs; contiguous slices of a
route (sub-routes) are the building blocks of energy paths.

A network holds only its junction ids and its arcs by id, checked when it
is built. Code that walks it builds its own index, as the generator does, or
a scenario's route index, which works on rows and checks the routes.

Networks and routes are frozen once built, and a network's ``arcs`` must not
be changed after construction. A scenario's route index stores each cache
value it fills on first use only once it is complete, so all three can be
shared freely between concurrent consumers.
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
    """Validated directed road graph: its junction ids and its arcs by id, at
    least one of each. Each arc is stored under its own id, joins two declared
    junctions that differ, and has a finite, nonnegative delay, flow and length."""

    junctions: frozenset[int]
    arcs: Mapping[int, Arc]

    def __post_init__(self) -> None:
        if not self.junctions:
            raise ValidationError("network needs at least one junction")
        if not self.arcs:
            raise ValidationError("network needs at least one arc")
        for key, arc in self.arcs.items():
            if arc.id != key:
                raise ValidationError(f"arc {arc.id} is stored under id {key}")
            if arc.tail == arc.head:
                raise ValidationError(f"arc {arc.id} is a self-loop at junction {arc.tail}")
            if arc.tail not in self.junctions or arc.head not in self.junctions:
                raise ValidationError(f"arc {arc.id} references an undeclared junction")
            for field in ("delay", "flow", "length"):
                if not 0.0 <= getattr(arc, field) <= FLOAT_MAX:
                    raise ValidationError(f"arc {arc.id} {field} must be finite and nonnegative")


def build_network(junctions: Iterable[int], arcs: Iterable[Arc]) -> RoadNetwork:
    """Assemble a road network, which checks its arcs. Raises ValidationError
    first on duplicate junction or arc ids, which a frozenset and a dict hide."""
    junction_list = list(junctions)
    junction_set = frozenset(junction_list)
    if len(junction_set) != len(junction_list):
        raise ValidationError("duplicate junction ids")
    arc_map: dict[int, Arc] = {}
    for arc in arcs:
        if arc.id in arc_map:
            raise ValidationError(f"duplicate arc id {arc.id}")
        arc_map[arc.id] = arc
    return RoadNetwork(junctions=junction_set, arcs=arc_map)
