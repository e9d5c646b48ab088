import dataclasses
import heapq
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import venplan
import venplan.paths
from venplan import (
    Arc,
    VehicularRoute,
    build_network,
    parse_scenario,
)

from _oracles import energy_path, sub_route

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "scenarios"
THREE_ROUTES = FIXTURE_DIR / "three_routes.json"

needs_proc = pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="needs /proc")


def run_python(*argv, timeout=None):
    """Run ``python ARGV`` with the package these tests import on its path."""
    src = str(Path(venplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=timeout,
    )


def run_capped(code, *argv, headroom_mib, timeout=None):
    """Run ``code`` with ``argv`` in a child Python that first imports
    ``venplan.cli`` and then caps its own address space ``headroom_mib`` MiB
    above its size, so that running out of memory raises MemoryError there."""
    prelude = (
        "import resource, sys\n"
        "import venplan.cli\n"
        "with open('/proc/self/status') as f:\n"
        "    size = next(int(l.split()[1]) for l in f if l.startswith('VmSize:'))\n"
        f"limit = size * 1024 + {headroom_mib} * 2**20\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
    )
    return run_python("-c", prelude + code, *argv, timeout=timeout)


@pytest.fixture(scope="session")
def three_routes_text() -> str:
    return THREE_ROUTES.read_text()


@pytest.fixture()
def three_routes_scenario(three_routes_text):
    return parse_scenario(three_routes_text)


@pytest.fixture()
def heap_pops(monkeypatch):
    """Every entry that ``enumerate_paths`` pops off a heap, in pop order."""
    popped = []

    def heappop(heap):
        entry = heapq.heappop(heap)
        popped.append(entry)
        return entry

    monkeypatch.setattr(
        venplan.paths,
        "heapq",
        types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop, merge=heapq.merge),
    )
    return popped


def chain_network(delays, flows=None, lengths=None):
    """Junctions 1..n+1 with arc i running i -> i+1."""
    n = len(delays)
    flows = flows or [100.0] * n
    lengths = lengths or [10.0] * n
    arcs = [
        Arc(id=i + 1, tail=i + 1, head=i + 2, delay=delays[i],
            flow=flows[i], length=lengths[i])
        for i in range(n)
    ]
    return build_network(range(1, n + 2), arcs)


def single_arc_path(seg_delays, seg_flows):
    """Path of single-arc segments, each from its own route.

    Returns (path, network, routes); segment i covers arc i of the chain.
    """
    n = len(seg_delays)
    network = chain_network(seg_delays)
    routes = [
        VehicularRoute(id=i + 1, arcs=(i + 1,), flow=seg_flows[i]) for i in range(n)
    ]
    segments = tuple(
        sub_route(network, routes[i], 1, 1) for i in range(n)
    )
    return energy_path(1, n + 1, segments), network, routes


def shift_ids(net, routes, shift):
    """The same network and routes with every junction, arc and route id
    moved by ``shift``."""
    arcs = [
        dataclasses.replace(a, id=a.id + shift, tail=a.tail + shift, head=a.head + shift)
        for a in net.arcs.values()
    ]
    shifted_net = build_network([j + shift for j in net.junctions], arcs)
    shifted_routes = [
        VehicularRoute(r.id + shift, tuple(a + shift for a in r.arcs), r.flow)
        for r in routes
    ]
    return shifted_net, shifted_routes
