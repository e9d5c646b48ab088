"""Energy-path enumeration over vehicular route sub-segments.

An energy path from junction s to junction t is an ordered chain of route
sub-segments: the first segment starts at s, the last ends at t, each
segment starts where the previous one ended, and the junction sequence
visited along the way is loop-free. Every segment boundary costs one
charge-discharge cycle, so paths with fewer segments ("hops") retain more
energy. Enumeration therefore emits paths in ascending lexicographic order
of (hop count, total delay, route-id sequence), which keeps the most
valuable paths ahead of any result cap.

Two routing-information modes are supported:

* ``full-route``: the intended route of every carrier vehicle is known, so a
  segment may span any contiguous stretch of one route. Consecutive segments
  never continue the same route, because splitting a stretch only inserts an
  extra lossy cycle without reaching anything new.
* ``per-hop``: no route knowledge, so energy must be dropped and picked up
  at every junction; every segment is a single arc.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .network import RoadNetwork, SubRoute, VehicularRoute, sub_route

FULL_ROUTE = "full-route"
PER_HOP = "per-hop"


@dataclass(frozen=True)
class EnergyPath:
    """Chain of route sub-segments carrying energy from source to target."""

    source: int
    target: int
    segments: tuple[SubRoute, ...]

    @property
    def hops(self) -> int:
        """Number of segments, i.e. charge-discharge cycles along the path."""
        return len(self.segments)

    @property
    def delay(self) -> float:
        """Propagation time in hours: the sum of all member arc delays."""
        return sum(seg.delay for seg in self.segments)

    @property
    def bottleneck_flow(self) -> float:
        """Smallest vehicle flow among the segments, in vehicles per hour."""
        return min(seg.flow for seg in self.segments)

    def junction_sequence(self, network: RoadNetwork) -> tuple[int, ...]:
        """All junctions visited, shared segment boundaries counted once."""
        if not self.segments:
            return (self.source,)
        seq = [self.segments[0].entry]
        for seg in self.segments:
            for arc_id in seg.arcs:
                seq.append(network.arc(arc_id).head)
        return tuple(seq)


@dataclass(frozen=True)
class EnumerationConfig:
    """Bounds and routing-information mode for path enumeration.

    ``max_paths=None`` removes the result cap.
    """

    max_hops: int = 6
    max_paths: Optional[int] = 100
    mode: str = FULL_ROUTE

    def __post_init__(self) -> None:
        if self.max_hops < 1:
            raise ValidationError("max_hops must be at least 1")
        if self.max_paths is not None and self.max_paths < 1:
            raise ValidationError("max_paths must be at least 1")
        if self.mode not in (FULL_ROUTE, PER_HOP):
            raise ValidationError(f"unknown enumeration mode {self.mode!r}")


@dataclass(frozen=True)
class PathViolation:
    """Names the first condition an invalid path breaks."""

    condition: str  # "segment" | "source" | "target" | "chaining" | "loop"
    detail: str


class _RouteIndex:
    """Per-call index: route geometry tables and entry points per junction,
    from which ``bound_table`` builds the search's one lower-bound table.
    """

    def __init__(self, network: RoadNetwork, routes: Sequence[VehicularRoute]):
        self.routes = {r.id: r for r in routes}
        if len(self.routes) != len(routes):
            raise ValidationError("duplicate route ids")
        # per route: parallel tuples of member arc tails, heads, and delays
        self.tails: dict[int, tuple[int, ...]] = {}
        self.heads: dict[int, tuple[int, ...]] = {}
        self.delays: dict[int, tuple[float, ...]] = {}
        # junction -> ((route_id, 1-based position), ...) sorted for determinism
        entries: dict[int, list[tuple[int, int]]] = {}
        for route in routes:
            members = [network.arc(a) for a in route.arcs]
            self.tails[route.id] = tuple(a.tail for a in members)
            self.heads[route.id] = tuple(a.head for a in members)
            self.delays[route.id] = tuple(a.delay for a in members)
            for pos, arc in enumerate(members, start=1):
                entries.setdefault(arc.tail, []).append((route.id, pos))
        self.entries = {j: tuple(sorted(v)) for j, v in entries.items()}

    def bound_table(
        self, target: int, mode: str, max_hops: int
    ) -> dict[int, tuple[int, float]]:
        """Map each junction to (fewest slices, least delay) left to ``target``.

        Layer ``k`` holds the least delay from each junction to ``target`` in
        at most ``k`` route slices: any contiguous stretch of one route in
        full-route mode, one arc in per-hop mode. Each layer comes from the
        previous one by one backward pass over each route. A junction's entry
        is its first layer ``k`` and that layer's delay; the target's is
        ``(0, 0.0)``. Loop-freedom is ignored, so the entries are lower
        bounds, and junctions absent from the result cannot reach the target
        in ``max_hops`` slices at all.
        """
        per_hop = mode == PER_HOP
        table = {target: (0, 0.0)}
        layer = {target: 0.0}
        for k in range(1, max_hops + 1):
            nxt = dict(layer)
            for route_id in self.routes:
                tails = self.tails[route_id]
                heads = self.heads[route_id]
                delays = self.delays[route_id]
                best = math.inf  # least delay to the target from this arc's tail
                for pos in range(len(tails) - 1, -1, -1):
                    rest = layer.get(heads[pos], math.inf)
                    if not per_hop and best < rest:
                        rest = best  # the slice runs on past this arc's head
                    best = delays[pos] + rest
                    if best < nxt.get(tails[pos], math.inf):
                        nxt[tails[pos]] = best
            if nxt == layer:
                break
            for junction, delay in nxt.items():
                table.setdefault(junction, (k, delay))
            layer = nxt
        return table


def enumerate_paths(
    network: RoadNetwork,
    routes: Sequence[VehicularRoute],
    source: int,
    target: int,
    config: Optional[EnumerationConfig] = None,
) -> list[EnergyPath]:
    """Enumerate energy paths from ``source`` to ``target``.

    Returns up to ``config.max_paths`` distinct valid paths of at most
    ``config.max_hops`` segments, in ascending (hop count, total delay,
    route-id sequence) order; ties beyond that are broken by the segments'
    (start, end) index pairs, so the output is fully deterministic.

    The search is best-first over partial paths, ordered by the same key
    with the hop count and delay replaced by lower bounds on their final
    values. One table gives both: for each junction, the fewest segments
    ``k`` still needed to reach the target and the least delay ``d`` of a
    completion in ``k`` segments, both ignoring loop constraints. Any
    completion with more segments sorts later whatever its delay, so the key
    is admissible and consistent in lexicographic order (the A* argument).
    Segment transitions are generated lazily from the route index; the full
    set of sub-routes is never materialized.
    """
    if source not in network.junctions:
        raise ValidationError(f"unknown source junction {source}")
    if target not in network.junctions:
        raise ValidationError(f"unknown target junction {target}")
    if source == target:
        raise ValidationError("source and target must differ")
    if config is None:
        config = EnumerationConfig()

    index = _RouteIndex(network, routes)
    bound = index.bound_table(target, config.mode, config.max_hops)
    if source not in bound:
        return []

    max_hops = config.max_hops
    max_paths = config.max_paths
    per_hop = config.mode == PER_HOP
    entries = index.entries

    # Heap entries: (key, tiebreak, junction, delay so far, visited, chain)
    # where chain is a tuple of (route_id, n, m) triples. The key is
    # (hops + k, delay + d, route ids, (n, m) pairs) with (k, d) the bound
    # table's entry; it grows along any extension, up to float rounding in d.
    # The counter never decides the order (keys are unique per state), it
    # only keeps heap entries totally comparable.
    #
    # Keys of complete paths carry no bound terms and are exact, so exact
    # output order is restored by holding each finished path until the best
    # optimistic key left in the heap is past it by a margin that dominates
    # the bound's rounding noise, then releasing in exact key order.
    start_key = (*bound[source], (), ())
    counter = 0
    heap: list[tuple] = [(start_key, 0, source, 0.0, frozenset((source,)), ())]
    finished: list[tuple] = []  # exact keys, via heapq
    results: list[EnergyPath] = []

    def release_safe() -> None:
        while finished:
            if max_paths is not None and len(results) >= max_paths:
                finished.clear()
                return
            f_hops, f_delay = finished[0][0][0], finished[0][0][1]
            if heap:
                top_hops, top_delay = heap[0][0][0], heap[0][0][1]
                margin = 1e-9 * (1.0 + abs(f_delay))
                if top_hops < f_hops or (
                    top_hops == f_hops and top_delay <= f_delay + margin
                ):
                    return  # the heap may still produce something smaller
            key, _, chain = heapq.heappop(finished)
            segments = tuple(
                sub_route(network, index.routes[route_id], n, m)
                for route_id, n, m in chain
            )
            results.append(EnergyPath(source=source, target=target, segments=segments))

    while heap or finished:
        release_safe()
        if max_paths is not None and len(results) >= max_paths:
            break
        if not heap:
            continue
        key, _, junction, delay_so_far, visited, chain = heapq.heappop(heap)
        if junction == target:
            counter += 1
            heapq.heappush(finished, (key, counter, chain))
            continue
        # below max_hops: the prune kept hops + k <= max_hops, and k >= 1 off
        # the target
        hops = len(chain)
        _, _, ids, spans = key
        last_route, _, last_end = chain[-1] if chain else (None, 0, 0)
        for route_id, n in entries.get(junction, ()):
            if not per_hop and route_id == last_route and n == last_end + 1:
                # Continuing the same route is strictly dominated by the
                # merged segment, which was already generated.
                continue
            heads = index.heads[route_id]
            delays = index.delays[route_id]
            seg_delay = 0.0
            new_junctions: list[int] = []
            for m in range(n, len(heads) + 1):
                head = heads[m - 1]
                if head in visited or head in new_junctions:
                    break  # extending further would revisit it anyway
                new_junctions.append(head)
                seg_delay += delays[m - 1]
                # a head absent from the table is out of reach in max_hops
                k, d = bound.get(head, (max_hops, 0.0))
                if hops + 1 + k > max_hops:
                    if per_hop:
                        break
                    continue  # a longer slice may still work
                child_key = (
                    hops + 1 + k,
                    delay_so_far + seg_delay + d,
                    ids + (route_id,),
                    spans + ((n, m),),
                )
                counter += 1
                heapq.heappush(
                    heap,
                    (
                        child_key,
                        counter,
                        head,
                        delay_so_far + seg_delay,
                        visited | set(new_junctions),
                        chain + ((route_id, n, m),),
                    ),
                )
                if head == target or per_hop:
                    break  # past the target every slice revisits it
    return results


def validate_path(
    path: EnergyPath, network: RoadNetwork, routes: Sequence[VehicularRoute]
) -> Optional[PathViolation]:
    """Check a path's construction conditions; None means the path is valid.

    Conditions, in the order they are reported: every segment is a genuine
    slice of a declared route; the first segment starts at the path source;
    the last segment ends at the target; each segment starts where the
    previous one ended; no junction is visited twice.
    """
    route_map = {r.id: r for r in routes}
    for seg in path.segments:
        route = route_map.get(seg.route_id)
        if route is None:
            return PathViolation("segment", f"unknown route id {seg.route_id}")
        if not 1 <= seg.start <= seg.end <= len(route.arcs):
            return PathViolation(
                "segment",
                f"indices ({seg.start}, {seg.end}) out of range for route {seg.route_id}",
            )
        expected = sub_route(network, route, seg.start, seg.end)
        if seg != expected:
            return PathViolation(
                "segment",
                f"segment ({seg.route_id}, {seg.start}, {seg.end}) does not match its route",
            )
    if not path.segments or path.segments[0].entry != path.source:
        return PathViolation("source", f"first segment does not start at {path.source}")
    if path.segments[-1].exit != path.target:
        return PathViolation("target", f"last segment does not end at {path.target}")
    for i in range(len(path.segments) - 1):
        if path.segments[i].exit != path.segments[i + 1].entry:
            return PathViolation(
                "chaining",
                f"segment {i + 2} does not start where segment {i + 1} ends",
            )
    seq = path.junction_sequence(network)
    if len(set(seq)) != len(seq):
        return PathViolation("loop", "path visits a junction twice")
    return None
