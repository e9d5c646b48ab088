"""Benchmark set-up, run in a child process: generate a scenario, write it.

    python3 perfbench/make_scenario.py WORKLOAD SCENARIO_SEED ORDER_SEED OUT
        [--tiny] [--trace]

Prints one JSON line: ``setup_s`` (generation, serialization and the file
write) and the scenario's SHA-256; with ``--trace`` also the generator's
inclusive time and its pair-screening probe counts. A child process keeps
the generator's memory peak out of the benchmark's own ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import time
from pathlib import Path

import env


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("scenario_seed", type=int)
    parser.add_argument("order_seed", type=int)
    parser.add_argument("out", type=Path)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    env.prepare()

    import venplan.scenario
    import workloads
    from spans import Site, Tracer, patched

    tracer = Tracer()
    hits = []
    sites = []
    if args.trace:
        sites = [
            Site(venplan.scenario, "enumerate_paths", "scenario.probe",
                 on_result=lambda paths: hits.append(bool(paths))),
            Site(workloads, "generate_scenario", "scenario.generate"),
        ]
    with patched(tracer, sites):
        start = time.perf_counter()
        scenario = workloads.build_scenario(
            args.workload, args.scenario_seed, args.order_seed, args.tiny
        )
        text = venplan.scenario.serialize_scenario(scenario)
        args.out.write_text(text, encoding="utf-8")
        setup_s = time.perf_counter() - start

    report = {
        "setup_s": setup_s,
        "scenario_sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
    }
    if args.trace:
        report["generate_s"] = sum(tracer.durations["scenario.generate"])
        report["probe_calls"] = len(hits)
        report["probe_hits"] = sum(hits)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
