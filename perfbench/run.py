"""venplan benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload city-plan|sweep-wide --seed N
        --seconds S --trace 0|1 [--scenario-seed N] [--tiny]

Load is a closed loop: one caller in one process on one thread repeats the
workload's timed part until ``--seconds`` have passed (at least once), with
a full garbage collection before each iteration. Set-up runs in child
processes, at least SETUP_REPEATS times and until SETUP_MIN_S seconds of
set-up are measured. ``wall_s`` and ``setup_s`` are the medians of the
iterations and the set-ups, scaled to the reference host speed (HostSpeed).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
time untraced and half with every layer's public functions wrapped at their
call sites, and reports the per-layer metrics. The last line of standard
output is the result object; the line before it is the provenance record,
including the output signature. A failed output check exits with code 1.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import env

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
SETUP_MIN_S = 8.0
SETUP_MAX_REPEATS = 10
# The layers' spans must cover the traced wall time: the iterations' own
# self time, the benchmark's glue outside every layer, may be at most this
# share of it.
MAX_UNATTRIBUTED_SHARE = 0.01
ROOT_SPAN = "bench.iteration"
CHILD_TIMEOUT_S = 170
# The host speed is sampled before every set-up and iteration by timing a
# fixed loop this many times (~0.3 s). REFERENCE_LOOP_S is the loop's time
# on the host the benchmark was defined on, while it ran at full speed.
HOST_SAMPLES = 30
REFERENCE_LOOP_S = 0.0085

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "paths.enumerate_s": "s",
    "paths.calls": "count",
    "paths.paths_out": "count",
    "paths.empty_calls": "count",
    "paths.us_per_path": "us",
    "paths.pair_s_p50": "s",
    "paths.pair_s_max": "s",
    "scenario.generate_s": "s",
    "scenario.probe_calls": "count",
    "scenario.probe_hit_ratio": "ratio",
    "energetics.economics_calls": "count",
    "energetics.economics_s": "s",
    "planner.solve_calls": "count",
    "planner.solve_s": "s",
    "planner.assign_s": "s",
    "planner.solve_ms_p50": "ms",
    "planner.solve_ms_p90": "ms",
    "planner.infeasible": "count",
    "sweep.run_s": "s",
    "sweep.points": "count",
    "sweep.csv_s": "s",
    "scenario.parse_s": "s",
    "scenario.serialize_s": "s",
    "network.build_s": "s",
    "cli.main_s": "s",
    "python.gc_s": "s",
    "python.gc_full_collections": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _reference_loop() -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


class HostSpeed:
    """How fast the shared host runs Python during this run.

    The host's speed drifts by 30-40% over tens of minutes, as other
    tenants come and go, and a run cannot outlast that drift. Timing a
    fixed loop next to every set-up and iteration measures the drift;
    scaling the set-ups' or the iterations' times by the reference loop
    time over the mean loop time sampled among them removes most of it.
    The mean, not the median, because the host flips between a fast and a
    slow state within seconds, and the times it scales average over both.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        for _ in range(HOST_SAMPLES):
            start = time.perf_counter()
            _reference_loop()
            self.samples.append(time.perf_counter() - start)

    def loop_s(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        """Factor from this run's seconds to reference-speed seconds."""
        return REFERENCE_LOOP_S / self.loop_s()


def set_up(args, scenario_file: Path, trace: bool, host: HostSpeed) -> list[dict]:
    """Run the set-up child until SETUP_REPEATS runs and SETUP_MIN_S seconds
    of set-up are done, or SETUP_MAX_REPEATS runs; each rewrites the file."""
    command = [
        sys.executable, str(HERE / "make_scenario.py"), args.workload,
        str(args.scenario_seed), str(args.seed), str(scenario_file),
    ]
    if args.tiny:
        command.append("--tiny")
    if trace:
        command.append("--trace")
    reports = []
    while len(reports) < SETUP_REPEATS or (
        sum(r["setup_s"] for r in reports) < SETUP_MIN_S
        and len(reports) < SETUP_MAX_REPEATS
    ):
        host.sample()
        proc = subprocess.run(
            command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up exited with code {proc.returncode}")
        reports.append(json.loads(proc.stdout.splitlines()[-1]))
    return reports


class Loop:
    """Closed-loop measurement of one iteration function.

    Each iteration starts from a collected heap, so that the number of full
    collections inside it does not depend on the garbage the previous one
    left behind, and follows a host speed sample.
    """

    def __init__(self, ops: int, host: HostSpeed) -> None:
        self.ops = ops
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.walls: list[float] = []  # successful iterations only
        self.output = None

    def run(self, seconds: float, iteration) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            self.attempted += self.ops
            self.host.sample()
            gc.collect()
            start = time.perf_counter()
            try:
                output = iteration()
            except Exception:  # noqa: BLE001 - a failed iteration must not end the run
                traceback.print_exc()
                self.failed += self.ops
            else:
                self.walls.append(time.perf_counter() - start)
                self.output = output
            if time.perf_counter() >= deadline:
                return


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(
    tracer, counters, gc_clock, points: int, traced: Loop, untraced: Loop,
    setup: list[dict],
) -> dict:
    """Per-layer metrics, each per traced iteration unless it is a percentile."""
    n = len(traced.walls)
    self_s = tracer.self_s
    count = tracer.count
    durations = tracer.durations

    def per_iter(value: float) -> float:
        return value / n

    enumerate_s = self_s.get("paths.enumerate", 0.0)
    traced_wall = statistics.median(traced.walls)
    untraced_wall = statistics.median(untraced.walls)
    setup_median = sorted(setup, key=lambda r: r["generate_s"])[len(setup) // 2]
    return {
        "paths.enumerate_s": per_iter(enumerate_s),
        "paths.calls": per_iter(count.get("paths.enumerate", 0)),
        "paths.paths_out": per_iter(counters.paths_out),
        "paths.empty_calls": per_iter(counters.empty_calls),
        "paths.us_per_path": 1e6 * enumerate_s / counters.paths_out if counters.paths_out else 0.0,
        "paths.pair_s_p50": percentile(durations.get("paths.enumerate", []), 50),
        "paths.pair_s_max": max(durations.get("paths.enumerate", [0.0])),
        "scenario.generate_s": setup_median["generate_s"],
        "scenario.probe_calls": setup_median["probe_calls"],
        "scenario.probe_hit_ratio": setup_median["probe_hits"] / setup_median["probe_calls"],
        "energetics.economics_calls": per_iter(count.get("energetics.economics", 0)),
        "energetics.economics_s": per_iter(self_s.get("energetics.economics", 0.0)),
        "planner.solve_calls": per_iter(count.get("planner.solve", 0)),
        "planner.solve_s": per_iter(
            self_s.get("planner.solve", 0.0) + self_s.get("planner.solve_scenario", 0.0)
        ),
        "planner.assign_s": per_iter(self_s.get("planner.assign", 0.0)),
        "planner.solve_ms_p50": 1e3 * percentile(durations.get("planner.solve", []), 50),
        "planner.solve_ms_p90": 1e3 * percentile(durations.get("planner.solve", []), 90),
        "planner.infeasible": per_iter(counters.infeasible),
        "sweep.run_s": per_iter(self_s.get("sweep.run", 0.0)),
        "sweep.points": points,
        "sweep.csv_s": per_iter(self_s.get("sweep.csv", 0.0)),
        "scenario.parse_s": per_iter(self_s.get("scenario.parse", 0.0)),
        "scenario.serialize_s": per_iter(self_s.get("scenario.serialize", 0.0)),
        "network.build_s": per_iter(self_s.get("network.build", 0.0)),
        "cli.main_s": per_iter(self_s.get("cli.main", 0.0)),
        "python.gc_s": per_iter(gc_clock.seconds),
        "python.gc_full_collections": per_iter(gc_clock.full_collections),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": per_iter(self_s.get(ROOT_SPAN, 0.0)),
    }


def coverage_problems(tracer) -> list[str]:
    """The layers' self times must add up to the traced wall time to within
    MAX_UNATTRIBUTED_SHARE: time outside every layer means a layer the
    benchmark does not trace."""
    wall = sum(tracer.durations.get(ROOT_SPAN, []))
    unattributed = tracer.self_s.get(ROOT_SPAN, 0.0)
    if unattributed > MAX_UNATTRIBUTED_SHARE * wall:
        return [
            f"{unattributed:.6f} s of {wall:.6f} s traced wall time is outside "
            f"every layer (over {MAX_UNATTRIBUTED_SHARE:.0%})"
        ]
    return []


def recorded_reference(
    workload: str, scenario_seed: int, path: Path = REFERENCE
) -> tuple[dict | None, list[str]]:
    """The recorded outputs a run on the workload's default or holdout city
    must match.

    A missing entry, or one recorded for another city, is a failed check:
    the comparison must not lapse without notice.
    """
    stored = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    entry = stored.get(workload, {}).get(str(scenario_seed))
    if entry is None or entry.get("scenario_seed") != scenario_seed:
        return None, [f"{path.name} has no {workload} entry for scenario seed {scenario_seed}"]
    return entry, []


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((env.SRC / "venplan").glob("*.py")):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    if not (env.ROOT / ".git").exists():
        return None  # benchmark checkouts are plain file trees
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=env.ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return proc.stdout.strip() or None


def provenance(args, workloads, setup: list[dict], checked) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": args.scenario_seed,
        "holdout_scenario_seed": workloads.HOLDOUT_SCENARIO_SEED[args.workload],
        "tiny": args.tiny,
        "trace": args.trace,
        "seconds": args.seconds,
        "parameters": workloads.parameters(args.workload, args.scenario_seed, args.tiny),
        "scenario_sha256": sorted({r["scenario_sha256"] for r in setup}),
        "signature": checked.signature if checked else "",
        # What reference.json records under the workload and scenario seed;
        # copy it there after an intended change of outputs.
        "outputs": {"scenario_seed": args.scenario_seed, **checked.summary} if checked else None,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "address_space_limit_bytes": env.ADDRESS_SPACE_LIMIT,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["city-plan", "sweep-wide"])
    parser.add_argument("--seed", type=int, required=True, help="permutes pair order")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--scenario-seed", type=int,
                        help="generator seed of the city (default: the workload's)")
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken scenarios, for the harness self-check")
    args = parser.parse_args(argv)
    env.prepare()

    import venplan
    import workloads
    from spans import GcClock, Tracer, patched

    if args.scenario_seed is None:
        args.scenario_seed = workloads.DEFAULT_SCENARIO_SEED[args.workload]
    run_dir = env.WORK / args.workload
    run_dir.mkdir(parents=True, exist_ok=True)
    files = workloads.Files(run_dir / "scenario.json", run_dir / "plan.json")

    setup_host = HostSpeed()
    setup = set_up(args, files.scenario, bool(args.trace), setup_host)
    problems = []
    if len({r["scenario_sha256"] for r in setup}) != 1:
        problems.append("set-up produced different scenarios from one seed")
    scenario = venplan.parse_scenario(files.scenario.read_text(encoding="utf-8"))
    ops = workloads.ops_per_iteration(args.workload, scenario)

    def iteration():
        return workloads.timed_part(args.workload, files, scenario)

    host = HostSpeed()
    untraced = Loop(ops, host)
    traced = Loop(ops, host)
    if args.trace:
        untraced.run(args.seconds / 2, iteration)
        tracer = Tracer()
        counters = workloads.OutputCounters()
        sites = workloads.trace_sites(counters)
        gc_clock = GcClock()
        root = tracer.wrap(iteration, ROOT_SPAN)

        def traced_iteration():
            # The clock sees the iteration's collections, not the loop's own.
            gc.callbacks.append(gc_clock)
            try:
                return root()
            finally:
                gc.callbacks.remove(gc_clock)

        with patched(tracer, sites):
            traced.run(args.seconds / 2, traced_iteration)
        runs = [untraced, traced]
    else:
        untraced.run(args.seconds, iteration)
        runs = [untraced]
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # The default and holdout cities' outputs must match the recorded
    # reference; other cities, and the tiny ones, only print their signature.
    reference = None
    recorded = (
        workloads.DEFAULT_SCENARIO_SEED[args.workload],
        workloads.HOLDOUT_SCENARIO_SEED[args.workload],
    )
    if not args.tiny and args.scenario_seed in recorded:
        reference, missing = recorded_reference(args.workload, args.scenario_seed)
        problems += missing
    checked = None
    for loop in runs:
        if loop.output is None:
            problems.append("no iteration completed")
            continue
        checked = workloads.check_output(args.workload, loop.output, scenario)
        problems += checked.problems
        if reference is not None:
            problems += workloads.compare_reference(args.workload, checked, reference)

    if args.trace:
        points = 0
        if args.workload == workloads.SWEEP_WIDE and traced.output is not None:
            points = len(traced.output[0].points)
        problems += coverage_problems(tracer)
        metrics = {}
        if traced.walls and untraced.walls:
            metrics = layer_metrics(
                tracer, counters, gc_clock, points, traced, untraced, setup
            )
        units = PER_LAYER_UNITS
        (run_dir / "spans.json").write_text(json.dumps(tracer.spans))
    else:
        wall = statistics.median(untraced.walls) if untraced.walls else 0.0
        metrics = {
            "setup_s": setup_host.scale() * statistics.median(r["setup_s"] for r in setup),
            "wall_s": host.scale() * wall,
            "peak_rss_mb": peak_rss_mib,
        }
        units = END_TO_END_UNITS

    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted = sum(loop.attempted for loop in runs)
    failed = sum(loop.failed for loop in runs)
    print(json.dumps({
        "provenance": provenance(args, workloads, setup, checked),
        # Unscaled times; setup_s and wall_s are their medians times the
        # scale of the host speed sampled among them.
        "iteration_walls_s": {"untraced": untraced.walls, "traced": traced.walls},
        "setup_s": [r["setup_s"] for r in setup],
        "host": {"reference_loop_s": REFERENCE_LOOP_S, "setup_loop_s": setup_host.loop_s(),
                 "iteration_loop_s": host.loop_s()},
        "problems": problems,
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
