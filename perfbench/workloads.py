"""The benchmark's two workloads: scenario set-up, timed part, output checks.

``city-plan`` plans the paper-scale city of acceptance criterion 8 through
``venplan solve``; its cost is almost all best-first path enumeration, with a
heavy per-pair tail. ``sweep-wide`` re-plans a desk-scale city over a
19-point efficiency grid; its cost is per-path economics and knapsack fills
over thousands of uncapped paths. See README.md for why each was chosen.

Import this module only after ``env.prepare()``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Any, NamedTuple

import venplan.cli
import venplan.planner
import venplan.scenario
import venplan.sweep
from venplan import (
    GREEDY,
    MAX_ENERGY,
    EnumerationConfig,
    GeneratorConfig,
    Scenario,
    SweepSpec,
    generate_scenario,
)

from spans import Site

CITY_PLAN = "city-plan"
SWEEP_WIDE = "sweep-wide"

# The city each workload plans. The run's --seed only permutes pair
# order: per-pair search cost differs by two orders of magnitude between
# generated cities, so a city per seed would swamp every timing bound.
# The default cities keep an iteration at a few seconds, so that a run
# times many of them; see README.md.
DEFAULT_SCENARIO_SEED = {CITY_PLAN: 81, SWEEP_WIDE: 61}
# The heavier cities, fixed before any change is measured; a claimed gain
# must also hold here.
HOLDOUT_SCENARIO_SEED = {CITY_PLAN: 80, SWEEP_WIDE: 60}

Z_GRID = tuple(v / 20 for v in range(1, 20))
SWEEP_LOSS_CAP = 20.0  # kWh per pair; binds at most points of the grid
SWEEP_ENUMERATION = EnumerationConfig(max_hops=3, max_paths=None)


def generator_config(workload: str, scenario_seed: int, tiny: bool) -> GeneratorConfig:
    """Generator settings; ``tiny`` shrinks them for the harness self-check."""
    if workload == CITY_PLAN:
        if tiny:
            return GeneratorConfig(
                seed=scenario_seed,
                junction_count=40,
                arc_count=100,
                route_count=120,
                pair_count=3,
                delay_range=(0.05, 0.5),
                enumeration=EnumerationConfig(max_hops=3, max_paths=5),
            )
        # Criterion 8's config with its first 4 of 10 pairs: on city 80 all
        # 10 take ~80 s to set up and ~55 s to plan, past one run's budget.
        return GeneratorConfig(
            seed=scenario_seed,
            junction_count=998,
            arc_count=2470,
            route_count=4788,
            pair_count=4,
            delay_range=(0.05, 0.5),
            enumeration=EnumerationConfig(max_hops=4, max_paths=20),
        )
    if tiny:
        return GeneratorConfig(
            seed=scenario_seed, junction_count=30, arc_count=75, route_count=60,
            pair_count=3,
        )
    return GeneratorConfig(seed=scenario_seed)


def build_scenario(
    workload: str, scenario_seed: int, order_seed: int, tiny: bool
) -> Scenario:
    """Generate the workload's city and permute its pairs by ``order_seed``."""
    scenario = generate_scenario(generator_config(workload, scenario_seed, tiny))
    if workload == SWEEP_WIDE:
        scenario = replace(scenario, enumeration=SWEEP_ENUMERATION)
    pairs = list(scenario.pairs)
    random.Random(order_seed).shuffle(pairs)
    return replace(scenario, pairs=tuple(pairs))


def parameters(workload: str, scenario_seed: int, tiny: bool) -> dict:
    """Workload parameters for the provenance record."""
    config = asdict(generator_config(workload, scenario_seed, tiny))
    config["loss_cap"] = None  # generator default (inf), not JSON
    record: dict[str, Any] = {"generator": config}
    if workload == CITY_PLAN:
        record["command"] = "venplan solve SCENARIO -o plan.json"
    else:
        record["enumeration"] = asdict(SWEEP_ENUMERATION)
        record["z_grid"] = list(Z_GRID)
        record["loss_cap_kwh"] = SWEEP_LOSS_CAP
        record["objective"] = MAX_ENERGY
        record["method"] = GREEDY
    return record


def ops_per_iteration(workload: str, scenario: Scenario) -> int:
    """Pairs planned (city-plan) or pair x point solves (sweep-wide)."""
    if workload == CITY_PLAN:
        return len(scenario.pairs)
    return len(scenario.pairs) * len(Z_GRID)


@dataclass
class OutputCounters:
    """Counts taken from traced calls' return values."""

    paths_out: int = 0
    empty_calls: int = 0
    infeasible: int = 0

    def paths(self, result) -> None:
        self.paths_out += len(result)
        self.empty_calls += not result

    def plan(self, result) -> None:
        self.infeasible += result.status == "infeasible"


def trace_sites(counters: OutputCounters) -> list[Site]:
    """Globals that venplan's own modules call, one span name per layer."""
    cli, planner, sweep = venplan.cli, venplan.planner, venplan.sweep
    return [
        # The entry points the benchmark itself calls (see ``timed_part``).
        Site(cli, "main", "cli.main"),
        Site(sweep, "run_sweep", "sweep.run"),
        Site(sweep, "sweep_to_csv", "sweep.csv"),
        Site(sweep, "sweep_metadata", "sweep.csv"),
        Site(cli, "parse_scenario", "scenario.parse"),
        Site(cli, "solve_scenario", "planner.solve_scenario"),
        Site(cli, "scenario_hash", "scenario.serialize"),
        Site(venplan.scenario, "build_network", "network.build"),
        Site(planner, "enumerate_paths", "paths.enumerate", on_result=counters.paths),
        Site(planner, "solve", "planner.solve", on_result=counters.plan),
        Site(planner, "path_economics", "energetics.economics", record=False),
        Site(planner, "knapsack_assign", "planner.assign"),
        Site(sweep, "enumerate_paths", "paths.enumerate", on_result=counters.paths),
        Site(sweep, "solve", "planner.solve", on_result=counters.plan),
        Site(sweep, "scenario_hash", "scenario.serialize"),
    ]


class Files(NamedTuple):
    scenario: Path
    plan: Path


def timed_part(workload: str, files: Files, scenario: Scenario):
    """One iteration of the workload's timed part; returns its output.

    Entry points are looked up on their modules at call time, so that a
    traced run calls the wrappers ``trace_sites`` installs.
    """
    if workload == CITY_PLAN:
        with redirect_stdout(io.StringIO()):
            code = venplan.cli.main(["solve", str(files.scenario), "-o", str(files.plan)])
        if code != 0:
            raise RuntimeError(f"venplan solve exited with code {code}")
        return files.plan
    spec = SweepSpec(parameter="z", values=Z_GRID)
    result = venplan.sweep.run_sweep(
        scenario, spec, objective=MAX_ENERGY, method=GREEDY, loss_cap=SWEEP_LOSS_CAP
    )
    return result, venplan.sweep.sweep_to_csv(result), venplan.sweep.sweep_metadata(result)


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def _close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-12)


class Checked(NamedTuple):
    """Outcome of the output checks on one iteration's output."""

    problems: list[str]
    signature: str  # digest of the order-independent outputs
    summary: dict  # what the reference file records


def check_city_plan(plan_file: Path, scenario: Scenario) -> Checked:
    """Every pair has 1 to ``max_paths`` paths in (hops, delay, ids) order.

    A pair may have fewer paths than the cap within ``max_hops``; the
    reference then pins the exact count for the default city (20 per pair).
    The signature digests each pair's (hops, delay, route ids) list, keyed by
    pair, so it does not depend on the order pairs were planned in.
    """
    doc = json.loads(plan_file.read_text(encoding="utf-8"))
    want = scenario.enumeration.max_paths
    problems = []
    planned = [(p["source"], p["target"]) for p in doc["pairs"]]
    if planned != list(scenario.pairs):
        problems.append(f"planned pairs {planned} != scenario pairs")
    summary = {}
    for pair in doc["pairs"]:
        label = f"{pair['source']}-{pair['target']}"
        keys = [
            (
                a["path"]["hops"],
                a["path"]["delay_hours"],
                tuple(seg["route"] for seg in a["path"]["segments"]),
            )
            for a in pair["assignments"]
        ]
        if not 1 <= len(keys) <= want:
            problems.append(f"pair {label}: {len(keys)} paths, expected 1 to {want}")
        for i, (a, b) in enumerate(zip(keys, keys[1:])):
            if not _ordered(a, b):
                problems.append(f"pair {label}: paths {i} and {i + 1} out of order")
        summary[label] = {
            "count": len(keys),
            "paths": _digest(keys),
            "transferred_kwh": pair["transferred_kwh"],
            "loss_kwh": pair["loss_kwh"],
        }
    signature = _digest(sorted((k, v["paths"]) for k, v in summary.items()))
    return Checked(problems, signature, {"signature": signature, "pairs": summary})


def _ordered(a: tuple, b: tuple) -> bool:
    """(hops, delay, route ids) ascending; delays are sums, so allow rounding."""
    if a[0] != b[0]:
        return a[0] < b[0]
    margin = 1e-9 * (1.0 + abs(a[1]))
    if b[1] > a[1] + margin:
        return True
    if b[1] < a[1] - margin:
        return False
    return a[1] != b[1] or a[2] <= b[2]


def check_sweep(output, scenario: Scenario) -> Checked:
    """CSV rows equal the point totals, totals equal their per-pair sums,
    and delivered energy does not decrease as z grows."""
    result, csv_text, meta = output
    problems = []
    rows = list(csv.reader(io.StringIO(csv_text)))
    if not rows or rows[0] != ["value", "transferred_kwh", "loss_kwh"]:
        problems.append("unexpected CSV header")
    values = [[float(x) for x in row] for row in rows[1:]]
    totals = [[p.value, p.transferred, p.loss] for p in result.points]
    if values != totals:
        problems.append("CSV rows differ from the sweep points")
    if [v[0] for v in values] != list(Z_GRID):
        problems.append("CSV values differ from the z grid")
    pairs = list(scenario.pairs)
    for point in result.points:
        if [(s, t) for s, t, _, _ in point.pair_breakdown] != pairs:
            problems.append(f"z={point.value}: breakdown pairs differ from scenario")
        moved = sum(entry[2] for entry in point.pair_breakdown)
        lost = sum(entry[3] for entry in point.pair_breakdown)
        if not (_close(point.transferred, moved, 1e-12) and _close(point.loss, lost, 1e-12)):
            problems.append(f"z={point.value}: totals differ from the per-pair sums")
        if meta["pair_breakdown"].get(repr(point.value)) != [
            list(entry) for entry in point.pair_breakdown
        ]:
            problems.append(f"z={point.value}: metadata breakdown differs")
    for a, b in zip(result.points, result.points[1:]):
        if b.transferred < a.transferred - 1e-12 * max(1.0, a.transferred):
            problems.append(f"delivered energy falls from z={a.value} to z={b.value}")
    per_pair = sorted(
        (point.value, s, t, moved, lost)
        for point in result.points
        for s, t, moved, lost in point.pair_breakdown
    )
    signature = _digest(per_pair)
    return Checked(problems, signature, {"signature": signature, "csv": totals})


def check_output(workload: str, output, scenario: Scenario) -> Checked:
    if workload == CITY_PLAN:
        return check_city_plan(output, scenario)
    return check_sweep(output, scenario)


def compare_reference(workload: str, checked: Checked, reference: dict) -> list[str]:
    """Differences from the outputs recorded for the same scenario seed.

    Paths must match exactly; energies and CSV values within 1e-9 relative.
    """
    problems = []
    got = checked.summary
    if workload == CITY_PLAN:
        if set(got["pairs"]) != set(reference["pairs"]):
            return [f"pairs {sorted(got['pairs'])} != reference {sorted(reference['pairs'])}"]
        for label, want in reference["pairs"].items():
            have = got["pairs"][label]
            if have["count"] != want["count"]:
                problems.append(f"pair {label}: {have['count']} paths, reference has {want['count']}")
            if have["paths"] != want["paths"]:
                problems.append(f"pair {label}: path signature differs from reference")
            for key in ("transferred_kwh", "loss_kwh"):
                if not _close(have[key], want[key], 1e-9):
                    problems.append(f"pair {label}: {key} {have[key]!r} != {want[key]!r}")
        return problems
    if len(got["csv"]) != len(reference["csv"]):
        return ["CSV row count differs from reference"]
    for have, want in zip(got["csv"], reference["csv"]):
        if not all(_close(h, w, 1e-9) for h, w in zip(have, want)):
            problems.append(f"CSV row {have} != reference {want}")
    return problems
