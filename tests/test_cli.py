import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import venplan
from venplan import parse_scenario, run_sweep, SweepSpec
from venplan.cli import main

from conftest import THREE_ROUTES


FIXTURE = str(THREE_ROUTES)


def run_module(*argv):
    """Run ``python -m venplan.cli`` on the package these tests import."""
    src = str(Path(venplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "venplan.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", FIXTURE]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok:")
        assert "5 junctions" in out and "3 routes" in out

    def test_corrupted_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["validate", str(bad)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["validate", str(empty)]) == 3
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "does-not-exist.json"]) == 3

    def test_semantic_violation(self, tmp_path, capsys):
        doc = json.loads(THREE_ROUTES.read_text())
        doc["penetration"] = 1.5
        bad = tmp_path / "sem.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", str(bad)]) == 4
        assert "penetration" in capsys.readouterr().err

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate"])  # missing scenario argument
        assert exc.value.code == 2


class TestEnumerate:
    def test_stdout_listing(self, capsys):
        assert main(["enumerate", FIXTURE, "--source", "1", "--target", "4"]) == 0
        out = capsys.readouterr().out
        assert "1 -> 4: 3 paths" in out

    def test_json_output(self, tmp_path):
        out = tmp_path / "paths.json"
        assert main(["enumerate", FIXTURE, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["tool_version"]
        assert len(doc["pairs"][0]["paths"]) == 3
        hops = [p["hops"] for p in doc["pairs"][0]["paths"]]
        assert hops == [1, 2, 2]

    def test_per_hop_override(self, capsys):
        assert main(
            ["enumerate", FIXTURE, "--source", "1", "--target", "4",
             "--mode", "per-hop"]
        ) == 0
        out = capsys.readouterr().out
        assert "1 -> 4: 3 paths" in out
        assert "hops=3" in out

    def test_source_without_target_rejected(self, capsys):
        assert main(["enumerate", FIXTURE, "--source", "1"]) == 4


class TestSolve:
    def test_max_energy_summary(self, capsys):
        assert main(["solve", FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "1 -> 4: optimal" in out
        assert "total: transferred 32.4675 kWh" in out

    def test_plan_json_totals_recompute(self, tmp_path):
        out = tmp_path / "plan.json"
        assert main(["solve", FIXTURE, "-o", str(out)]) == 0
        doc = json.loads(out.read_text())
        pair = doc["pairs"][0]
        assert pair["transferred_kwh"] == sum(
            a["energy_kwh"] for a in pair["assignments"]
        )
        assert doc["transferred_kwh"] == pair["transferred_kwh"]
        assert set(doc["provenance"]) == {
            "scenario_sha256", "seed", "tool_version", "solver",
        }

    def test_min_loss_zero_floor(self, capsys):
        assert main(
            ["solve", FIXTURE, "--objective", "min-loss", "--delivery-floor", "0"]
        ) == 0
        out = capsys.readouterr().out
        assert "transferred 0 kWh" in out

    def test_min_loss_infeasible_floor_reported(self, capsys):
        assert main(
            ["solve", FIXTURE, "--objective", "min-loss", "--delivery-floor", "1e9"]
        ) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_simplex_solver_agrees(self, capsys):
        assert main(["solve", FIXTURE, "--solver", "simplex"]) == 0
        assert "32.4675" in capsys.readouterr().out

    def test_loss_cap_flag(self, capsys):
        assert main(["solve", FIXTURE, "--loss-cap", "0"]) == 0
        assert "transferred 0 kWh" in capsys.readouterr().out


class TestSweep:
    def test_csv_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", FIXTURE, "--parameter", "z", "--values", "0.5,0.7,0.9",
             "--penetration", "1.0", "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,transferred_kwh,loss_kwh"
        assert len(lines) == 4
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["parameter"] == "z"
        assert meta["solver"] == "greedy"
        assert meta["scenario_sha256"]

    def test_csv_matches_library_run_bit_for_bit(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(
            ["sweep", FIXTURE, "--parameter", "w", "--values", "0.05,0.1,0.2",
             "--penetration", "1.0", "-o", str(out)]
        )
        scenario = parse_scenario(THREE_ROUTES.read_text())
        spec = SweepSpec(parameter="w", values=(0.05, 0.1, 0.2),
                         nominal_penetration=1.0)
        result = run_sweep(scenario, spec)
        rows = out.read_text().splitlines()[1:]
        for row, point in zip(rows, result.points):
            _, transferred, loss = row.split(",")
            assert float(transferred) == point.transferred
            assert float(loss) == point.loss

    def test_stdout_when_no_output_file(self, capsys):
        assert main(
            ["sweep", FIXTURE, "--parameter", "z", "--values", "0.5,0.9"]
        ) == 0
        assert capsys.readouterr().out.startswith("value,transferred_kwh,loss_kwh")

    def test_bad_values_rejected(self, capsys):
        assert main(
            ["sweep", FIXTURE, "--parameter", "z", "--values", "0.9,0.5"]
        ) == 4
        assert main(
            ["sweep", FIXTURE, "--parameter", "z", "--values", "abc"]
        ) == 4

    def test_deterministic_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        argv = ["sweep", FIXTURE, "--parameter", "T", "--values", "1,2,5"]
        main(argv + ["-o", str(a)])
        main(argv + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestGenerate:
    ARGS = ["generate", "--junctions", "12", "--arcs", "25", "--routes", "8",
            "--pairs", "2"]

    def test_deterministic_given_seed(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(self.ARGS + ["--seed", "7", "-o", str(a)])
        main(self.ARGS + ["--seed", "7", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()
        scenario = parse_scenario(a.read_text())
        assert scenario.seed == 7

    def test_generated_scenario_validates(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        main(self.ARGS + ["--seed", "9", "-o", str(out)])
        assert main(["validate", str(out)]) == 0

    def test_env_var_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VENPLAN_SEED", "11")
        a = tmp_path / "a.json"
        main(self.ARGS + ["-o", str(a)])
        b = tmp_path / "b.json"
        main(self.ARGS + ["--seed", "11", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_missing_seed_is_an_error(self, monkeypatch, capsys):
        monkeypatch.delenv("VENPLAN_SEED", raising=False)
        assert main(self.ARGS) == 4
        assert "seed" in capsys.readouterr().err

    def test_unsatisfiable_config_reported(self, capsys):
        assert main(["generate", "--seed", "1", "--junctions", "10",
                     "--arcs", "3"]) == 4
        assert "connect the network" in capsys.readouterr().err

    def test_max_paths_zero_removes_the_cap(self, tmp_path):
        capped = tmp_path / "capped.json"
        uncapped = tmp_path / "uncapped.json"
        assert main(self.ARGS + ["--seed", "3", "-o", str(capped)]) == 0
        assert main(self.ARGS + ["--seed", "3", "--max-paths", "0",
                                 "-o", str(uncapped)]) == 0
        default = parse_scenario(capped.read_text()).enumeration
        assert (default.max_hops, default.max_paths, default.mode) == (
            4, 20, "full-route"
        )
        assert parse_scenario(uncapped.read_text()).enumeration.max_paths is None


def _nan_arc_delay(doc):
    doc["network"]["arcs"][0]["delay"] = math.nan


def _infinite_route_flow(doc):
    doc["routes"][0]["flow"] = math.inf


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "argv, spoil, code",
        [
            (["validate"], _nan_arc_delay, 3),
            (["validate"], _infinite_route_flow, 3),
            (["solve"], _nan_arc_delay, 3),
            (["sweep", "--parameter", "T", "--values", "1,nan"], None, 4),
            (["sweep", "--parameter", "w", "--values", "1,inf"], None, 4),
            (["sweep", "--parameter", "z", "--values", "0.5", "--window", "inf"],
             None, 4),
            (["sweep", "--parameter", "z", "--values", "0.5",
              "--packet-size", "inf"], None, 4),
            # finite inputs whose path capacity overflows to inf
            (["sweep", "--parameter", "w", "--values", "1e300",
              "--window", "1e300"], None, 4),
        ],
        ids=["validate-nan-delay", "validate-inf-flow", "solve-nan-delay",
             "sweep-nan-value", "sweep-inf-value", "sweep-inf-window",
             "sweep-inf-packet", "sweep-overflow-capacity"],
    )
    def test_rejected_without_traceback(self, tmp_path, argv, spoil, code):
        scenario = FIXTURE
        if spoil is not None:
            doc = json.loads(THREE_ROUTES.read_text())
            spoil(doc)
            scenario = tmp_path / "spoiled.json"
            scenario.write_text(json.dumps(doc))
        proc = run_module(argv[0], str(scenario), *argv[1:])
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        # nothing but the error line: no warning from numpy either
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("venplan ")

    def test_module_validate(self):
        proc = run_module("validate", FIXTURE)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")
