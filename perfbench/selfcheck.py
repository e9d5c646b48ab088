"""Self-check of the benchmark harness on tiny scenarios; takes seconds.

    python3 perfbench/selfcheck.py

Checks that every workload and trace mode prints a well-formed result with
exactly the metrics and units BENCHMARK.json declares, that the signature
does not depend on the pair order the seed picks, that the coverage check
rejects time outside every traced layer, that the output checks reject
corrupted outputs and a missing reference, and that the benchmark fails
without a result when the program's sources are absent.
Exits with code 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import env

HERE = env.ROOT / "perfbench"
failures: list[str] = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL: {message}")


def run_bench(workload: str, seed: int, trace: int, cwd=env.ROOT):
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


def check_results(declared: dict) -> None:
    for workload in ("city-plan", "sweep-wide"):
        signatures = set()
        for seed, trace in ((3, 0), (4, 0), (3, 1)):
            proc = run_bench(workload, seed, trace)
            where = f"{workload} seed {seed} trace {trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.splitlines()
            if len(lines) < 2:
                check(False, f"{where}: fewer than two output lines")
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{where}: outputs judged incorrect")
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            want = declared["per_layer" if trace else "end_to_end"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{where}: metrics {got} != declared {want}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{where}: non-numeric metric value")
            if trace == 0:
                signatures.add(json.loads(lines[-2])["provenance"]["signature"])
        check(len(signatures) == 1, f"{workload}: signature depends on pair order")


def check_tracer() -> None:
    from run import ROOT_SPAN, coverage_problems
    from spans import Tracer

    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.01), "leaf", record=False)
    mid = tracer.wrap(lambda: [leaf() for _ in range(3)], "mid")
    root = tracer.wrap(lambda: mid(), ROOT_SPAN)
    root()
    check(tracer.count == {"leaf": 3, "mid": 1, ROOT_SPAN: 1}, f"tracer counts {tracer.count}")
    ids = {name: (span_id, parent) for span_id, name, _, _, parent in tracer.spans}
    check(ids["mid"][1] == ids[ROOT_SPAN][0] and ids[ROOT_SPAN][1] is None,
          f"tracer parents {ids}")
    check(abs(tracer.self_s["leaf"] - 0.03) < 0.02 and tracer.self_s["mid"] < 0.01,
          f"tracer self times {tracer.self_s}")
    check(not coverage_problems(tracer), "layers that cover the iteration rejected")
    # An untraced sleep in the iteration is time no layer claims.
    root = tracer.wrap(lambda: (mid(), time.sleep(0.005)), ROOT_SPAN)
    root()
    check(bool(coverage_problems(tracer)), "untraced time in the iteration accepted")


def check_reference(scratch) -> None:
    import workloads
    from run import recorded_reference

    for seeds in (workloads.DEFAULT_SCENARIO_SEED, workloads.HOLDOUT_SCENARIO_SEED):
        for workload, seed in seeds.items():
            entry, problems = recorded_reference(workload, seed)
            check(entry is not None and not problems, f"{workload}: {problems}")
    for workload in workloads.DEFAULT_SCENARIO_SEED:
        _, problems = recorded_reference(workload, 1000)
        check(bool(problems), f"{workload}: reference for another city accepted")
    path = scratch / "reference.json"
    path.write_text("{}", encoding="utf-8")
    _, problems = recorded_reference(workloads.CITY_PLAN, 81, path)
    check(bool(problems), "missing reference entry accepted")
    path.write_text('{"city-plan": {"81": {"scenario_seed": 80}}}', encoding="utf-8")
    _, problems = recorded_reference(workloads.CITY_PLAN, 81, path)
    check(bool(problems), "reference recorded for another city accepted")
    path.unlink()
    _, problems = recorded_reference(workloads.CITY_PLAN, 81, path)
    check(bool(problems), "missing reference file accepted")


def check_output_checks() -> None:
    import workloads
    from venplan import serialize_scenario

    work = env.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    files = workloads.Files(work / "scenario.json", work / "plan.json")

    scenario = workloads.build_scenario(workloads.CITY_PLAN, 80, 3, tiny=True)
    files.scenario.write_text(serialize_scenario(scenario), encoding="utf-8")
    plan_file = workloads.timed_part(workloads.CITY_PLAN, files, scenario)
    clean = workloads.check_city_plan(plan_file, scenario)
    check(not clean.problems, "city-plan: clean output rejected")
    doc = json.loads(plan_file.read_text(encoding="utf-8"))
    assignments = doc["pairs"][0]["assignments"]
    assignments[0], assignments[-1] = assignments[-1], assignments[0]
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    check(bool(workloads.check_city_plan(plan_file, scenario).problems),
          "city-plan: reordered paths accepted")
    assignments[0], assignments[-1] = assignments[-1], assignments[0]
    del assignments[-1]
    plan_file.write_text(json.dumps(doc), encoding="utf-8")
    short = workloads.check_city_plan(plan_file, scenario)
    check(not short.problems, "city-plan: a pair with fewer paths than the cap rejected")
    check(bool(workloads.compare_reference(workloads.CITY_PLAN, short, clean.summary)),
          "city-plan: missing path accepted against the reference")

    scenario = workloads.build_scenario(workloads.SWEEP_WIDE, 60, 3, tiny=True)
    result, csv_text, meta = workloads.timed_part(workloads.SWEEP_WIDE, files, scenario)
    checked = workloads.check_sweep((result, csv_text, meta), scenario)
    check(not checked.problems, f"sweep-wide: clean output rejected: {checked.problems}")
    rows = csv_text.splitlines()
    rows[3], rows[4] = rows[4], rows[3]
    check(bool(workloads.check_sweep((result, "\n".join(rows), meta), scenario).problems),
          "sweep-wide: reordered CSV accepted")
    drifted = [list(row) for row in checked.summary["csv"]]
    drifted[-1][1] *= 1 + 1e-6
    check(bool(workloads.compare_reference(
        workloads.SWEEP_WIDE, checked, {"csv": drifted})),
          "sweep-wide: drift from the reference accepted")
    check_reference(work)
    shutil.rmtree(work)


def check_bare_checkout() -> None:
    """The benchmark alone, without src/, must fail and print no result."""
    bare = env.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(env.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("city-plan", 1, 0, cwd=bare)
    check(proc.returncode != 0, "bare checkout: benchmark exited 0")
    check('"metrics"' not in proc.stdout, "bare checkout: benchmark printed a result")
    shutil.rmtree(bare)


def main() -> int:
    env.prepare()
    declared = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    declared = {
        key: {m["name"]: m["unit"] for m in declared[key]}
        for key in ("end_to_end", "per_layer")
    }
    check_tracer()
    check_output_checks()
    check_results(declared)
    check_bare_checkout()
    print("selfcheck:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
