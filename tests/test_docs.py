"""README's Quickstart and the demo scripts run as a reader would run them."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import venplan
import venplan.cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_from_copy(tmp_path, argv):
    """Run ``python ARGV`` in a directory holding a copy of ``scenarios/``,
    with the package these tests import on the path."""
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    src = str(Path(venplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_readme_quickstart(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quickstart = readme.split("## Quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", quickstart, re.S).group(1)
    done = run_from_copy(tmp_path, ["-c", code])
    assert done.returncode == 0, done.stderr
    assert "kWh delivered," in done.stdout


def test_readme_lists_the_cli_exit_codes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    line = readme.split("Exit codes:", 1)[1].split("\n\n", 1)[0]
    listed = sorted(int(code) for code in re.findall(r"`(\d+)`", line))
    defined = sorted(
        value for name, value in vars(venplan.cli).items() if name.startswith("EXIT_")
    )
    assert listed == defined


def test_readme_states_the_sweep_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    note = readme.split("`--efficiency/--window/--packet-size/--penetration` (defaults", 1)[1]
    stated = " ".join(note.split(")", 1)[0].split())
    spec = venplan.SweepSpec
    assert stated == (
        f"{spec.nominal_efficiency:g}, {spec.nominal_window:g} h, "
        f"{spec.nominal_packet_size:g} kWh, {spec.nominal_penetration:g}"
    )


PUBLIC_API = [
    "Arc", "EnergyParams", "EnergyPath", "EnumerationConfig", "FULL_ROUTE", "GREEDY",
    "GeneratorConfig", "INFEASIBLE", "MAX_ENERGY", "MIN_LOSS", "OPTIMAL", "PER_HOP",
    "PairPlan", "PathTable", "RoadNetwork", "RouteIndex", "SWEEP_PARAMETERS", "Scenario",
    "ScenarioFormatError", "ScenarioSolution", "SubRoute", "SweepPoint", "SweepResult",
    "SweepSpec", "TransferPlan", "ValidationError", "VehicularRoute", "VenplanError",
    "__version__", "build_network", "enumerate_paths", "find_crossover", "generate_scenario",
    "knapsack_assign", "parse_scenario", "path_economics", "run_sweep", "scenario_hash",
    "serialize_scenario", "solve", "solve_scenario", "sweep_metadata", "sweep_to_csv",
]


def test_public_api_is_pinned():
    # the exported names are the package's size in names: adding one is a decision
    assert len(PUBLIC_API) == 43
    assert sorted(venplan.__all__) == PUBLIC_API
    assert len(set(venplan.__all__)) == len(venplan.__all__)
    for name in PUBLIC_API:
        assert hasattr(venplan, name), name


def test_demos_found():
    assert [p.name for p in DEMOS] == [
        "parameter_sweeps.py", "routing_information_modes.py", "worked_example.py"
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, demo):
    done = run_from_copy(tmp_path, [str(demo)])
    assert done.returncode == 0, done.stderr
    assert done.stdout and not done.stderr
