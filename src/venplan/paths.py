"""Energy-path enumeration over vehicular route sub-segments.

An energy path from junction s to junction t is an ordered chain of route
sub-segments: the first segment starts at s, the last ends at t, each
segment starts where the previous one ended, and the junction sequence
visited along the way is loop-free. Every segment boundary costs one
charge-discharge cycle, so paths with fewer segments ("hops") retain more
energy. Enumeration therefore emits paths in ascending lexicographic order
of (hop count, total delay, route-id sequence), which keeps the most
valuable paths ahead of any result cap.

Many routes often share a stretch of road, and which of them carries each
segment changes neither a path's hop count, nor its delay, nor the junctions
it visits. So the search runs over stretch sequences and expands their route
labellings only for the paths it returns, into one :class:`PathTable` of
columns per pair, from which a report builds each :class:`EnergyPath` on
demand. A scenario's route index serves all its searches; the
:class:`RouteIndex` constructor checks the routes, so no route the search
walks passes a junction twice. Inside the index and the search, junctions,
routes and arcs are rows: ids are read by the constructor and at the
search's arguments, and written only into the slices a report builds.

Two routing-information modes are supported:

* ``full-route``: the intended route of every carrier vehicle is known, so a
  segment may span any contiguous stretch of one route. Consecutive segments
  never continue the same route, because splitting a stretch only inserts an
  extra lossy cycle without reaching anything new.
* ``per-hop``: no route knowledge, so energy must be dropped and picked up
  at every junction; every segment is a single arc. The same search runs
  over a layout of the route index that makes every arc a run of its own.
"""

from __future__ import annotations

import copy
import heapq
import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FLOAT_MAX, ValidationError
from .network import RoadNetwork, SubRoute, VehicularRoute

FULL_ROUTE = "full-route"
PER_HOP = "per-hop"


@dataclass(frozen=True, slots=True)
class EnergyPath:
    """Chain of route sub-segments carrying energy from source to target.

    ``delay`` is the propagation time in hours, every member arc delay summed
    left to right from 0.0, and ``bottleneck_flow`` the smallest segment flow
    in vehicles per hour, the first of equal ones, both as the search
    computed them; a :class:`PathTable` builds paths for reports.
    """

    source: int
    target: int
    segments: tuple[SubRoute, ...]
    delay: float
    bottleneck_flow: float

    @property
    def hops(self) -> int:
        """Number of segments, i.e. charge-discharge cycles along the path."""
        return len(self.segments)


def _is_count(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class EnumerationConfig:
    """Bounds and routing-information mode for path enumeration.

    ``max_hops`` and ``max_paths`` are integers, numpy's included, and not
    bools, stored as Python ints; ``max_paths=None`` removes the result cap.
    """

    max_hops: int = 6
    max_paths: Optional[int] = 100
    mode: str = FULL_ROUTE

    def __post_init__(self) -> None:
        if not _is_count(self.max_hops) or self.max_hops < 1:
            raise ValidationError("max_hops must be an integer of at least 1")
        if self.max_paths is not None and (not _is_count(self.max_paths) or self.max_paths < 1):
            raise ValidationError("max_paths must be an integer of at least 1")
        if self.mode not in (FULL_ROUTE, PER_HOP):
            raise ValidationError(f"unknown enumeration mode {self.mode!r}")
        object.__setattr__(self, "max_hops", operator.index(self.max_hops))
        if self.max_paths is not None:
            object.__setattr__(self, "max_paths", operator.index(self.max_paths))


class RouteIndex:
    """Index of a route set over flat numpy arrays of member arcs.

    It depends on the network and the routes only, not on a source or a
    target, so one index serves every pair searched over the same routes.
    A scenario builds one as its ``index``, and building it is the
    scenario's route check. A route's flow is finite and nonnegative, it has
    arcs, all of them known, each starting where the previous one ends, and
    the junctions it visits (its first arc's tail, then every head) are
    distinct. The rules are checked for all routes at once: the first route
    in input order to break one raises ValidationError naming the first rule
    it breaks, in that order; then route ids must be unique.

    A junction's row is ``rows[id]`` and a route's its place in
    ``route_ids``, which is in id order, so rows sort as ids do and ids of
    any int size work; ``flows`` follow the same order. Every member arc of
    every route has one slot in three arrays: tail row, head row and delay.
    The slots are laid out by position counted from the route's end: block
    ``q`` holds the ``q``-th last arc of each route longer than ``q``,
    longest routes first, so each block's routes are a prefix of the
    previous block's. ``bound_table`` runs its backward passes over these
    blocks, all routes at once, and the running minimum that gives each
    position its reach.

    The search reads Python tuples that are built on first use and then
    kept for the index's lifetime, since none depends on the target: a
    junction row's sorted ``(route row, 1-based position, reach slot)``
    entries, a route row's geometry (read from its span of member arcs) and
    each ``(route row, n, m)`` slice, which is built from that geometry.
    Reach slots come in runs, each its members' positions in order and then
    an out-of-budget sentinel, and a slice is a stretch of one run. Here each
    route is a run, in id order; the per-hop layout makes each member arc a
    run of its own, keeping its ``(route row, position)``.
    """

    def __init__(self, network: RoadNetwork, routes: Sequence[VehicularRoute]):
        rows = self.rows = {j: row for row, j in enumerate(network.junctions)}
        self.junction_ids = list(rows)
        arc_rows = {a: row for row, a in enumerate(network.arcs)}
        # an unknown arc reads as row -1, the last, whose ends are a junction
        # row of their own, so that no rule matches it with a known arc
        arcs, outside = network.arcs.values(), (len(rows),)
        arc_tails = np.fromiter(itertools.chain((rows[a.tail] for a in arcs), outside), np.intp)
        arc_heads = np.fromiter(itertools.chain((rows[a.head] for a in arcs), outside), np.intp)
        arc_delays = np.fromiter((a.delay for a in arcs), float, len(arcs))
        self._arc_tails, self._arc_heads, self._arc_delays = arc_tails, arc_heads, arc_delays

        # members in (route id, position) order, so that a stable sort by tail
        # lists each junction's entries sorted
        ids = [r.id for r in routes]
        order = sorted(range(len(routes)), key=ids.__getitem__)
        ordered = [routes[i] for i in order]
        lengths = np.fromiter((len(r.arcs) for r in ordered), np.intp, len(ordered))
        members = np.fromiter(
            map(arc_rows.get, itertools.chain.from_iterable(r.arcs for r in ordered),
                itertools.repeat(-1)),
            np.intp,
            int(lengths.sum()),
        )
        tails, heads = arc_tails[members], arc_heads[members]
        route_of = np.repeat(np.arange(len(ordered)), lengths)
        ends = np.cumsum(lengths)
        firsts = ends - lengths  # member index of each route's first arc
        starts = firsts[lengths > 0]
        broken = np.zeros(members.size, bool)
        broken[1:] = tails[1:] != heads[:-1]
        broken[starts] = False
        # a junction visited twice is a (route, junction) key met twice
        width = len(rows) + 1
        keys = route_of * width
        visits = np.concatenate((keys + heads, keys[starts] + tails[starts]))
        visits.sort()
        self.flows = [r.flow for r in ordered]
        bad_flow = np.fromiter((not 0.0 <= f <= FLOAT_MAX for f in self.flows), bool, len(ordered))
        bad = bad_flow | (lengths == 0)
        bad[route_of[(members < 0) | broken]] = True
        bad[visits[1:][visits[1:] == visits[:-1]] // width] = True
        if bad.any():
            k = min(np.flatnonzero(bad).tolist(), key=order.__getitem__)
            route, at = ordered[k], firsts[k]
            unknown = np.flatnonzero(members[at : at + len(route.arcs)] < 0)
            link = np.flatnonzero(broken[at : at + len(route.arcs)])
            if bad_flow[k]:
                raise ValidationError(f"route {route.id} flow must be finite and nonnegative")
            if not route.arcs:
                raise ValidationError(f"route {route.id} has no arcs")
            if unknown.size:
                raise ValidationError(f"unknown arc id {route.arcs[unknown[0]]}")
            if link.size:
                here, nxt = route.arcs[link[0] - 1], route.arcs[link[0]]
                raise ValidationError(
                    f"route {route.id}: arc {nxt} does not start where arc {here} ends"
                )
            raise ValidationError(f"route {route.id} visits a junction twice")
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate route ids")
        self.route_ids = [ids[i] for i in order]

        self._ends = np.concatenate(([0], ends))
        self._members = members.astype(np.min_scalar_type(arc_delays.size))

        # a narrow key sorts by radix
        positions = np.arange(1, members.size + 1) - firsts[route_of]
        narrow = tails.astype(np.min_scalar_type(len(rows)))
        self._entry_members = np.argsort(narrow, kind="stable")
        self._entry_routes = route_of[self._entry_members]
        self._entry_positions = positions[self._entry_members]
        counts = np.bincount(tails, minlength=len(rows))
        self._entry_starts = [0, *np.cumsum(counts).tolist()]

        longest_first = np.argsort(-lengths, kind="stable")
        last = ends[longest_first] - 1  # member index of each route's last arc
        blocks = [
            last[: np.count_nonzero(lengths > q)] - q
            for q in range(int(lengths.max(initial=0)))
        ]
        self._width = 1 << len(blocks).bit_length()  # a power of two above every position
        self._table_members = np.concatenate(blocks) if blocks else members
        self._tails = tails[self._table_members]
        self._heads = heads[self._table_members]
        self._delays = arc_delays[members[self._table_members]]
        bounds = [0, *np.cumsum([b.size for b in blocks]).tolist()]
        # one run of reach slots per route: member i of route r has slot i + r
        self._lay_out(np.arange(members.size) + route_of, list(zip(bounds, bounds[1:])))

        self._entries: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self._geometry: dict[int, tuple[tuple[int, ...], tuple[float, ...], tuple[int, ...]]] = {}
        self._slices: dict[tuple[int, tuple[int, int]], SubRoute] = {}
        self._per_hop: Optional[RouteIndex] = None

    def _lay_out(self, slots: np.ndarray, blocks: list[tuple[int, int]]) -> None:
        """Give member ``i`` reach slot ``slots[i]``, a sentinel after each
        run's last member, and run the bound table's passes over ``blocks``."""
        self._entry_slots = slots[self._entry_members]
        self._reach_slots = slots[self._table_members]
        self._reach_size = int(slots.max(initial=-2)) + 2
        self._blocks = blocks

    def _per_hop_layout(self) -> RouteIndex:
        """This index with member ``i`` a run of its own, at slot ``2 i`` before
        a sentinel, in one table block. Built once and stored whole; it shares all but entries."""
        if self._per_hop is None:
            layout = copy.copy(self)
            layout._lay_out(2 * np.arange(self._tails.size), [(0, self._tails.size)])
            layout._entries = {}
            layout._per_hop = self._per_hop = layout  # left to right: stored last
        return self._per_hop

    def entries(self, junction: int) -> tuple[tuple[int, int, int], ...]:
        """``(route row, 1-based position, reach slot)`` of every member arc
        leaving junction row ``junction``, sorted."""
        found = self._entries.get(junction)
        if found is None:
            lo, hi = self._entry_starts[junction], self._entry_starts[junction + 1]
            found = self._entries[junction] = tuple(zip(
                self._entry_routes[lo:hi].tolist(),
                self._entry_positions[lo:hi].tolist(),
                self._entry_slots[lo:hi].tolist(),
            ))
        return found

    def geometry(self, route: int) -> tuple[tuple[int, ...], tuple[float, ...], tuple[int, ...]]:
        """Junction rows route row ``route`` visits (its first arc's tail, then
        every head), its member arcs' delays and their arc rows, in travel order."""
        found = self._geometry.get(route)
        if found is None:
            lo, hi = self._ends[route : route + 2].tolist()
            arcs = self._members[lo:hi]
            found = self._geometry[route] = (
                (self._arc_tails[arcs[0]].item(), *self._arc_heads[arcs].tolist()),
                tuple(self._arc_delays[arcs].tolist()),
                tuple(arcs.tolist()),
            )
        return found

    def slice(self, route: int, span: tuple[int, int]) -> SubRoute:
        """The ``(n, m) = span`` slice of route row ``route``, named by ids: one object
        per index even when searches race, its delays summed left to right from 0.0."""
        key = (route, span)
        found = self._slices.get(key)
        if found is None:
            junctions, delays, _ = self.geometry(route)
            n, m = span
            delay = 0.0
            for arc_delay in delays[n - 1 : m]:
                delay += arc_delay
            found = self._slices.setdefault(key, SubRoute(
                self.route_ids[route], n, m, self.junction_ids[junctions[n - 1]],
                self.junction_ids[junctions[m]], delay, self.flows[route],
            ))
        return found

    def bound_table(
        self, target: int, max_hops: int
    ) -> tuple[dict[int, tuple[int, float]], memoryview, list[float]]:
        """Map each junction row to (fewest slices, least delay) left to
        junction row ``target``, give each member position its reach, and
        list each junction row's least delay to ``target`` in any number of
        slices up to ``max_hops``.

        Layer ``k`` holds the least delay from each junction to ``target`` in
        at most ``k`` slices. Each layer comes from the previous one by one
        backward pass over every run, taken block by block from the runs'
        ends: an arc's best is ``delay + min(layer[head], best of the next arc
        in its run)``, the same arithmetic as a scalar pass along each run,
        and the layer keeps the least best at each tail, so the table equals
        the scalar one bit for bit. A junction's entry is its first layer
        ``k`` and that layer's delay; the target's is ``(0, 0.0)``.
        Loop-freedom is ignored, so the entries are lower bounds, and
        junctions absent from the result cannot reach the target in
        ``max_hops`` slices at all. A delay that overflows in the table raises
        ValidationError, since an infinite entry would read as unreachable.
        The list of least delays is the last layer, inf where the target is
        out of reach; unlike an entry's delay, which is least among
        completions in its fewest slices only, it bounds every completion.

        A position's reach is the least table ``k`` over the heads at that
        position and every later one in its run, with absent heads counting
        as the junction count, more than any table entry. It comes from one
        pass over the same blocks, a running minimum from the runs' ends. The
        reach view holds it at each entry's reach slot and the junction count
        at each run's sentinel, so a search with a budget below the junction
        count can walk a run until the reach exceeds the budget without
        checking the run's length.
        """
        layer = np.full(len(self.junction_ids), math.inf)
        layer[target] = 0.0
        first_hops = np.full(len(self.junction_ids), -1)
        first_hops[target] = 0
        first_delays = layer.copy()
        best = np.empty(self._tails.size)  # least delay to the target per slot
        try:
            with np.errstate(over="raise"):  # an inf delay would read as unreachable
                for k in range(1, max_hops + 1):
                    previous = 0
                    for lo, hi in self._blocks:
                        rest = layer[self._heads[lo:hi]]
                        if lo:
                            # the slice runs on past this arc's head; block q's runs
                            # are the first hi - lo runs of block q - 1
                            np.minimum(rest, best[previous : previous + hi - lo], out=rest)
                        np.add(self._delays[lo:hi], rest, out=best[lo:hi])
                        previous = lo
                    nxt = layer.copy()
                    np.minimum.at(nxt, self._tails, best)
                    if np.array_equal(nxt, layer):
                        break
                    new = (first_hops < 0) & (nxt < math.inf)
                    first_hops[new] = k
                    first_delays[new] = nxt[new]
                    layer = nxt
        except FloatingPointError:
            raise ValidationError(f"path delays to junction {self.junction_ids[target]} "
                                  "overflow; the arc delays are too large") from None
        rows = np.flatnonzero(first_hops >= 0)
        table = dict(zip(rows.tolist(), zip(first_hops[rows].tolist(),
                                            first_delays[rows].tolist())))
        out = len(self.junction_ids)
        hops = np.where(first_hops >= 0, first_hops, out).astype(np.min_scalar_type(out))
        slot_reach = hops[self._heads]
        previous = 0
        for lo, hi in self._blocks[1:]:
            later = slot_reach[previous : previous + hi - lo]
            np.minimum(slot_reach[lo:hi], later, out=slot_reach[lo:hi])
            previous = lo
        reach = np.full(self._reach_size, out, slot_reach.dtype)
        reach[self._reach_slots] = slot_reach
        # the search reads only the slots of the entries it lists; a view
        # reads each as a Python int without converting the whole array
        return table, reach.data, layer.tolist()


class PathTable:
    """One pair's paths as :func:`enumerate_paths` returns them: ``hops``,
    ``delays`` and bottleneck ``flows`` in path order, each path's
    ``hop_index`` into ``distinct_hops`` (ints), none depending on the energy
    parameters, and the labels flat over all segments, path ``i``'s from
    ``offsets[i]`` to ``offsets[i + 1]``: each segment's route as its row in
    ``index.route_ids`` (``routes``) and its 1-based first and last arc
    (``starts``, ``ends``). Length and truth value are the path count; an
    index or an iteration builds each :class:`EnergyPath` on demand."""

    def __init__(self, index, source, target, hops, delays, flows, routes, starts, ends):
        self.index, self.source, self.target = index, source, target
        self.hops, self.delays, self.flows = hops, delays, flows
        distinct, self.hop_index = np.unique(hops, return_inverse=True)
        self.distinct_hops = distinct.tolist()
        self.routes, self.starts, self.ends = routes, starts, ends
        self.offsets = np.concatenate(([0], np.cumsum(hops)))

    def __len__(self) -> int:
        return len(self.hops)

    def __getitem__(self, i: int) -> EnergyPath:
        i = range(len(self))[i]  # IndexError past either end, which ends iteration
        lo, hi = self.offsets[i : i + 2].tolist()
        spans = zip(self.starts[lo:hi].tolist(), self.ends[lo:hi].tolist())
        segments = tuple(map(self.index.slice, self.routes[lo:hi].tolist(), spans))
        return EnergyPath(self.source, self.target, segments, self.delays[i].item(),
                          self.flows[i].item())


def enumerate_paths(
    index: RouteIndex,
    source: int,
    target: int,
    config: EnumerationConfig,
    max_delay: float = math.inf,
) -> PathTable:
    """Enumerate energy paths from ``source`` to ``target`` over the index's routes.

    Returns the :class:`PathTable` of up to ``config.max_paths`` distinct
    valid paths of at most ``config.max_hops`` segments and delay below
    ``max_delay``, in ascending (hop count, total delay, route-id sequence)
    order; ties beyond that are broken by the segments' (start, end) index
    pairs, so the output is fully deterministic. Per-hop mode searches the
    index's per-hop layout, whose slices are single arcs.

    A path whose delay is at least the transfer window delivers nothing, so
    a planner passes its window as ``max_delay``. The search then drops a
    complete sequence whose delay is at least a finite ``max_delay``, and a
    state, the start included, whose delay plus its junction's least delay
    to the target in up to ``max_hops`` slices, lowered by the margin below,
    exceeds ``max_delay``. That sum bounds the delay of every completion
    from below, whatever its hop count, so the prune is admissible, as a
    resource limit is in a resource-constrained shortest-path search (Irnich
    and Desaulniers 2005): the table is the unbounded one without its paths
    of delay ``max_delay`` or more, whose overflow it no longer raises, and
    a result cap counts the paths kept. The default, inf, drops nothing, and
    neither does NaN.

    The search runs over *stretch sequences*, not over labelled paths. A
    stretch is an arc tuple that at least one route slice covers, and it
    carries the ``(route row, (n, m))`` labels of every slice that covers it.
    A path is a stretch sequence plus one label per stretch, and the labels
    change neither its hop count, nor its delay, nor the junctions it
    visits. The only rule that couples them is the one against continuing
    the previous segment's route, so each state also keeps the one label
    its prefix must end with, if only one can.

    The search is best-first over partial sequences, ordered by (hop count,
    delay) with both replaced by lower bounds on their final values. One
    table gives both: for each junction, the fewest segments ``k`` still
    needed to reach the target and the least delay ``d`` of a completion in
    ``k`` segments, both ignoring loop constraints. Any completion with more
    segments sorts later whatever its delay, so the key is admissible and
    consistent in lexicographic order (the A* argument).

    The same table bounds the successors. A state with ``hops`` segments
    leaves a child a budget of ``max_hops - hops - 1`` further segments, and
    a position's reach is the least ``k`` over the heads at and after it in
    its run. A popped state examines only its junction's entries whose
    reach is within the budget, and walks each run only up to the last
    position whose reach is within the budget: every head past it would
    fail the hop prune, so the pruning drops only work whose result the
    search would discard. The walks' slices are grouped into stretches, one
    record each, once per (junction, budget) in a call.

    When a complete sequence pops, every sequence tied with it bit for bit on
    (hops, delay) is already on the heap and pops next. One depth-first walk
    per sequence yields its labellings lazily in route-id order, leaving a
    prefix when no label of the next stretch may follow it, and the group's
    are merged by (route ids, spans) up to the cap; without a cap, all of
    them are returned, so they are sorted at once. This is the implicit path
    representation of Eppstein's k-shortest-paths algorithm (1998), applied
    to parallel route labels. Each path's row takes the group's key as its
    delay, a left-to-right sum from 0.0 like the fold over its segments, and
    the running minimum of its walk as its bottleneck flow.

    The bound table and the reach are computed per call, for all routes at
    once, and the search runs on the rows and Python tuples the index keeps.
    It builds no path and no slice: a path's row holds one label code per
    segment, ``(route row * w + n) * w + m`` for a power of two ``w`` above
    every position, and a chunk of rows at a time moves into a narrow
    unsigned array.
    """
    if source not in index.rows:
        raise ValidationError(f"unknown source junction {source}")
    if target not in index.rows:
        raise ValidationError(f"unknown target junction {target}")
    if source == target:
        raise ValidationError("source and target must differ")
    start, goal = index.rows[source], index.rows[target]

    # a loop-free path has at most one segment per junction after the source,
    # so the cap drops only states that cannot finish; it also keeps every
    # budget below the reach's out-of-budget value
    max_hops = min(config.max_hops, len(index.junction_ids) - 1)
    if config.mode == PER_HOP:
        index = index._per_hop_layout()
    bound, reach, least = index.bound_table(goal, max_hops)
    # no list holds more than sys.maxsize paths, the largest stop islice takes
    max_paths = None if config.max_paths is None else min(config.max_paths, sys.maxsize)

    # Partial entries: (hops + k, (delay + d) lowered, 1, stretch ids,
    # junction row, delay so far, visited rows, only), with (k, d) the table's
    # entry and ``only`` the reach slot that the one possible last label of
    # the prefix would continue at, or None if two or more labels can end it.
    # The table sums delays in another order than a path does, so d may
    # exceed the exact rest of a completion by rounding; lowering by a margin
    # that dominates that noise keeps each partial key below the exact key of
    # every completion, and x * (1 - 1e-9) - 1e-9 keeps an infinite key
    # infinite. Complete entries: (hops, delay, 0, stretch ids), exact, so
    # they pop after every state that could still finish before them and
    # ahead of partial states with the same key. The stretch ids name a
    # sequence uniquely, so no comparison reaches the junction or the visited
    # set, whose frozenset order is not total. The same margin lowers the
    # delay bound's sums, whose least delays are summed like the table's.
    heap: list[tuple] = []
    if start in bound and not least[start] * (1.0 - 1e-9) - 1e-9 > max_delay:
        k, d = bound[start]
        heap.append((k, d * (1.0 - 1e-9) - 1e-9, 1, (), start, 0.0, frozenset((start,)), None))
    # each group's (hops, delay, path count), and the rows that wait for a
    # chunk to fill before their label codes and flows move into arrays
    groups: list[tuple[int, float, int]] = []
    rows: list[tuple] = []
    count = 0
    width = index._width
    code_type = np.min_scalar_type(len(index.route_ids) * width * width)
    codes, flows = [np.empty(0, code_type)], [np.empty(0)]  # array chunks
    leaving: dict[tuple[int, int], list[tuple]] = {}
    stretches: list[tuple] = []  # by stretch id
    segments_of: dict[int, list[tuple]] = {}

    def stretches_from(junction: int, budget: int) -> list[tuple]:
        """``(stretch id, head, delay, entry, junctions, labels, arc count)``
        of each stretch leaving ``junction`` that a path with ``budget``
        further segments may use: ``entry`` is the head's bound table entry
        and its least delay, and ``junctions`` the set the stretch visits
        after ``junction``.

        The labels are the junction's entries ``(route row, n, slot)`` of the
        routes that cover the stretch; with ``c`` arcs, one names the slice
        ``(n, n + c - 1)``, and a slice continuing it starts at ``slot + c``.
        Each route is walked as far as a slice can still be used: up to the
        last position in its run whose reach is within ``budget``, or the
        target. Walks that share arcs share stretches. A walk records each
        stretch in ``stretches`` when it first reaches it, with ``entry``
        None if the head is out of reach.
        """
        first = len(stretches)
        node_of: dict[tuple[int, int], int] = {}  # (previous stretch, arc row) -> stretch
        for label in index.entries(junction):
            route, n, slot = label
            if reach[slot] > budget:
                continue
            junctions, delays, arcs = index.geometry(route)
            node, seen, seg_delay = -1, frozenset(), 0.0  # -1: the walk's start
            for m in itertools.count(n):
                head = junctions[m]
                seg_delay += delays[m - 1]
                key = (node, arcs[m - 1])
                node = node_of.get(key)
                if node is None:
                    node = node_of[key] = len(stretches)
                    entry = bound.get(head)
                    entry = (*entry, least[head]) if entry and entry[0] <= budget else None
                    stretches.append((node, head, seg_delay, entry, seen | {head}, [], m - n + 1))
                stretches[node][5].append(label)
                seen = stretches[node][4]
                # past the target every slice revisits it; the run's
                # sentinel ends the walk at the run's end at the latest
                if head == goal or reach[slot + m - n + 1] > budget:
                    break
        return [stretch for stretch in stretches[first:] if stretch[3] is not None]

    def segments(sid: int) -> list[tuple]:
        """``(route, code, slot, follow, flow)`` per label of a stretch: route row and
        code as 1-tuples, ``follow`` the slot continuing it. Built on first use."""
        found = segments_of.get(sid)
        if found is None:
            *_, labels, arc_count = stretches[sid]
            found = segments_of[sid] = []
            for route, n, slot in labels:
                code = (route * width + n) * width + n + arc_count - 1
                found.append(((route,), (code,), slot, slot + arc_count, index.flows[route]))
        return found

    def labellings(seq: tuple[int, ...]):
        """Every labelling of a stretch sequence that continues no route, as
        ``(route rows, label codes, bottleneck flow)`` rows in route-id
        order, from one depth-first walk on its own stack; a dead-end prefix
        yields nothing. Route rows sort as ids do, and codes under equal
        rows as their ``(n, m)`` spans do. The flow is a running minimum down
        the stack that keeps the first of equal flows, as ``min`` does."""
        lists = [segments(sid) for sid in seq]
        stack = [((), (), None, math.inf, iter(lists[0]))]
        while stack:
            route_rows, label_codes, follow, least, labels = stack[-1]
            deeper = len(stack) < len(lists)
            for route, code, slot, next_follow, flow in labels:
                if slot == follow:
                    continue  # it would continue the previous segment
                flow = flow if flow < least else least
                if deeper:
                    stack.append((route_rows + route, label_codes + code,
                                  next_follow, flow, iter(lists[len(stack)])))
                    break
                yield route_rows + route, label_codes + code, flow
            else:
                stack.pop()

    def flush() -> None:
        if rows:
            _, label_codes, row_flows = zip(*rows)
            codes.append(np.fromiter(itertools.chain.from_iterable(label_codes), code_type))
            flows.append(np.array(row_flows))
            rows.clear()

    while heap:
        entry = heapq.heappop(heap)
        if not entry[2]:  # a complete sequence: its tied group is next on the heap
            hops, delay, _, seq = entry
            if delay == math.inf:
                raise ValidationError(
                    f"path delays to junction {target} overflow; the arc delays are too large"
                )
            group = [seq]
            while heap and not heap[0][2] and heap[0][1] == delay and heap[0][0] == hops:
                group.append(heapq.heappop(heap)[3])
            before = len(rows)
            if max_paths is None:  # every row is returned, and one sort beats a lazy merge
                rows += sorted(itertools.chain(*map(labellings, group)))
            else:
                rows += itertools.islice(heapq.merge(*map(labellings, group)), max_paths - count)
            groups.append((hops, delay, len(rows) - before))
            count += len(rows) - before
            if count == max_paths:
                break
            if len(rows) >= 1 << 10:
                flush()
            continue
        _, _, _, seq, junction, delay_so_far, visited, only = entry
        hops = len(seq)
        # segments a child may still add after its own; at least 0 here,
        # since the prune kept hops + k <= max_hops and k >= 1 off the target
        budget = max_hops - hops - 1
        found = leaving.get((junction, budget))
        if found is None:
            found = leaving[junction, budget] = stretches_from(junction, budget)
        for sid, head, seg_delay, bound_entry, seen, labels, arc_count in found:
            if not visited.isdisjoint(seen):
                continue
            if only is not None:
                # Continuing the same route is strictly dominated by the
                # merged segment, which is a stretch of its own.
                labels = [label for label in labels if label[2] != only]
                if not labels:
                    continue
            child_only = labels[0][2] + arc_count if len(labels) == 1 else None
            delay = delay_so_far + seg_delay
            child = seq + (sid,)
            if head == goal:
                # an overflowed delay raises at its pop unless a finite bound drops it
                if delay < max_delay or not max_delay < math.inf:
                    heapq.heappush(heap, (hops + 1, delay, 0, child))
                continue
            k, d, rest = bound_entry
            if (delay + rest) * (1.0 - 1e-9) - 1e-9 > max_delay:
                continue
            heapq.heappush(heap, (
                hops + 1 + k, (delay + d) * (1.0 - 1e-9) - 1e-9, 1, child,
                head, delay, visited | seen, child_only,
            ))
    flush()
    routes, spans = np.divmod(np.concatenate(codes), width * width)
    hops, delays, sizes = zip(*groups) if groups else ((), (), ())
    return PathTable(index, source, target, np.repeat(np.array(hops, np.int64), sizes),
                     np.repeat(np.array(delays, float), sizes), np.concatenate(flows),
                     routes, *np.divmod(spans, width))
