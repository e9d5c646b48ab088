"""Run both workloads in both trace modes and print every metric with its unit.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each of the four runs is a separate ``run.py`` process, as in a benchmark
job. Exits with code 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("city-plan", "sweep-wide")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()

    status = 0
    for trace in (0, 1):
        results = {}
        for workload in WORKLOADS:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(command, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{workload} --trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            results[workload] = json.loads(lines[-1])
        if not results:
            continue
        names = next(iter(results.values()))["metrics"]
        print(f"\n{'metric':<30} {'unit':<6} " + " ".join(f"{w:>14}" for w in results))
        for row in ("attempted", "failed", "correct"):
            print(f"{row:<30} {'':<6} " + " ".join(f"{str(r[row]):>14}" for r in results.values()))
        for name, entry in names.items():
            values = " ".join(f"{r['metrics'][name]['value']:>14.6g}" for r in results.values())
            print(f"{name:<30} {entry['unit']:<6} {values}")
    return status


if __name__ == "__main__":
    sys.exit(main())
