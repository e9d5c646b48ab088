import contextlib
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import venplan
import venplan.cli
import venplan.scenario
from venplan import parse_scenario, run_sweep, scenario_hash, serialize_scenario, SweepSpec
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

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["sweep", "--parameter", "z", "--values", "0.9"]],
        ids=["solve", "sweep"],
    )
    def test_solver_option_removed(self, command):
        with pytest.raises(SystemExit) as exc:
            main([command[0], FIXTURE, *command[1:], "--solver", "simplex"])
        assert exc.value.code == 2

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

    def test_meta_requires_output(self, tmp_path, capsys):
        meta = tmp_path / "sweep.meta.json"
        with pytest.raises(SystemExit) as exc:
            main(["sweep", FIXTURE, "--parameter", "z", "--values", "0.9",
                  "--meta", str(meta)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --meta requires --output\n")
        assert not meta.exists()

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

    def test_printed_hash_is_the_written_files(self, tmp_path, capsys, monkeypatch):
        written = []

        def counting(scenario):
            written.append(scenario)
            return serialize_scenario(scenario)

        # scenario_hash reaches serialize_scenario through venplan.scenario
        monkeypatch.setattr(venplan.cli, "serialize_scenario", counting)
        monkeypatch.setattr(venplan.scenario, "serialize_scenario", counting)
        out = tmp_path / "gen.json"
        assert main(self.ARGS + ["--seed", "5", "-o", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert capsys.readouterr().out == (
            f"wrote scenario (seed 5, sha256 {digest[:12]}) to {out}\n"
        )
        assert len(written) == 1
        assert scenario_hash(written[0]) == digest

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


# One short run of each command that writes an output file.
WRITERS = {
    "enumerate": ["enumerate", FIXTURE],
    "solve": ["solve", FIXTURE],
    "sweep": ["sweep", FIXTURE, "--parameter", "z", "--values", "0.9"],
    "generate": ["generate", "--seed", "1", "--junctions", "12", "--arcs", "25",
                 "--routes", "8", "--pairs", "2"],
}


class TestUnwritableOutput:
    @pytest.mark.parametrize("kind", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_exits_2_naming_the_path(self, tmp_path, capsys, command, kind):
        target = tmp_path / "missing" / "out" if kind == "missing-directory" else tmp_path
        with pytest.raises(SystemExit) as exc:
            main(WRITERS[command] + ["-o", str(target)])
        assert exc.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot write {str(target)!r}: ")

    def test_unwritable_sweep_metadata(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        for meta in (tmp_path / "missing" / "sweep.meta.json", tmp_path):
            for before in (None, b"old,rows\r\n"):
                if before is not None:
                    csv_path.write_bytes(before)
                with pytest.raises(SystemExit) as exc:
                    main(WRITERS["sweep"] + ["-o", str(csv_path), "--meta", str(meta)])
                assert exc.value.code == 2
                lines = capsys.readouterr().err.splitlines()
                assert len(lines) == 1
                assert lines[0].startswith(f"error: cannot write {str(meta)!r}: ")
                # the CSV is written only together with its sidecar
                if before is None:
                    assert not csv_path.exists()
                else:
                    assert csv_path.read_bytes() == before
                    csv_path.unlink()
                assert list(tmp_path.iterdir()) == []

    def test_unwritable_sweep_csv_leaves_the_sidecar(self, tmp_path, capsys):
        csv_path = tmp_path / "missing" / "sweep.csv"
        meta = tmp_path / "sweep.meta.json"
        for before in (None, b'{"old": true}\n'):
            if before is not None:
                meta.write_bytes(before)
            with pytest.raises(SystemExit) as exc:
                main(WRITERS["sweep"] + ["-o", str(csv_path), "--meta", str(meta)])
            assert exc.value.code == 2
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith(f"error: cannot write {str(csv_path)!r}: ")
            if before is None:
                assert list(tmp_path.iterdir()) == []
            else:
                assert meta.read_bytes() == before


class TestOutputTargets:
    """Outputs are written in place, through whatever the path names."""

    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_existing_file_keeps_mode_and_links(self, tmp_path, capsys, command):
        fresh = tmp_path / "fresh"
        assert main(WRITERS[command] + ["-o", str(fresh)]) == 0
        out = tmp_path / "out"
        out.write_bytes(b"x" * 100_000)  # longer than any output
        out.chmod(0o640)
        alias = tmp_path / "alias"
        os.link(out, alias)
        assert main(WRITERS[command] + ["-o", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert alias.read_bytes() == fresh.read_bytes()
        assert out.stat().st_mode & 0o777 == 0o640

    def test_existing_sweep_sidecar_is_overwritten(self, tmp_path, capsys):
        fresh = tmp_path / "fresh.csv"
        assert main(WRITERS["sweep"] + ["-o", str(fresh)]) == 0
        out = tmp_path / "out.csv"
        meta = tmp_path / "out.csv.meta.json"
        meta.write_bytes(b"x" * 100_000)
        meta.chmod(0o640)
        assert main(WRITERS["sweep"] + ["-o", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()
        assert meta.read_bytes() == Path(str(fresh) + ".meta.json").read_bytes()
        assert meta.stat().st_mode & 0o777 == 0o640

    @pytest.mark.parametrize("command", sorted(WRITERS))
    def test_fifo_is_written_through(self, tmp_path, capsys, command):
        fresh = tmp_path / "fresh"
        assert main(WRITERS[command] + ["-o", str(fresh)]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        # the sweep's sidecar goes to a regular file beside the FIFO
        meta = ["--meta", str(tmp_path / "meta.json")] if command == "sweep" else []
        assert main(WRITERS[command] + ["-o", str(fifo)] + meta) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [fresh.read_bytes()]
        assert stat.S_ISFIFO(fifo.lstat().st_mode)


NUMBERS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "0.5", "nan", "inf", "-inf", "1e400", "1e-200", "abc", ""]
)
# Output paths by kind, resolved inside the test's directory.
PATHS = ["file", "missing-directory", "directory"]
MODES = st.sampled_from(["full-route", "per-hop", "bogus"])
OBJECTIVES = st.sampled_from(["max-energy", "min-loss", "bogus"])
FUZZ_FLAGS = {
    "enumerate": {
        "--source": NUMBERS, "--target": NUMBERS, "--max-hops": NUMBERS,
        "--max-paths": NUMBERS, "--mode": MODES,
    },
    "solve": {
        "--objective": OBJECTIVES, "--loss-cap": NUMBERS, "--delivery-floor": NUMBERS,
    },
    "sweep": {
        "--parameter": st.sampled_from(["z", "T", "w", "penetration", "bogus"]),
        "--values": st.sampled_from(
            ["0.5,0.9", "0.9,0.5", "0.1,0.2,inf", "nan", "1e400", "1e-200", "-1",
             "0", "abc", ""]
        ),
        "--objective": OBJECTIVES,
        "--efficiency": NUMBERS, "--window": NUMBERS, "--packet-size": NUMBERS,
        "--penetration": NUMBERS, "--loss-cap": NUMBERS, "--delivery-floor": NUMBERS,
        "--meta": st.sampled_from(PATHS),
    },
    "generate": {
        "--seed": NUMBERS, "--junctions": NUMBERS, "--arcs": NUMBERS,
        "--routes": NUMBERS, "--pairs": NUMBERS, "--max-route-length": NUMBERS,
        "--max-hops": NUMBERS, "--max-paths": NUMBERS, "--mode": MODES,
        "--penetration": NUMBERS,
    },
}


@st.composite
def argument_vectors(draw):
    """``validate`` on the fixture, or a writer with overridden flags."""
    command = draw(st.sampled_from(["validate"] + sorted(WRITERS)))
    if command == "validate":
        return ["validate", FIXTURE]
    argv = list(WRITERS[command])
    flags = FUZZ_FLAGS[command]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=4)):
        argv += [flag, draw(flags[flag])]
    output = draw(st.sampled_from([None] + PATHS))
    if output is not None:
        argv += ["-o", output]
    return argv


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestArgumentVectorFuzz:
    """Every argument vector ends in a documented exit code, never a traceback."""

    @settings(max_examples=150, deadline=None)
    @given(argv=argument_vectors())
    def test_documented_exit_codes_only(self, fuzz_dir, argv):
        paths = {
            "file": str(fuzz_dir / "out"),
            "missing-directory": str(fuzz_dir / "missing" / "out"),
            "directory": str(fuzz_dir),
        }
        argv = [paths.get(a, a) if i and argv[i - 1] in ("-o", "--meta") else a
                for i, a in enumerate(argv)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, argv
                code = exc.code
            else:
                assert code in (0, 3, 4, 5), argv
        if code:
            assert "error: " in err.getvalue(), argv


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
            # a valid efficiency whose z**hops underflows to zero
            (["sweep", "--parameter", "z", "--values", "1e-200"], None, 4),
        ],
        ids=["validate-nan-delay", "validate-inf-flow", "solve-nan-delay",
             "sweep-nan-value", "sweep-inf-value", "sweep-inf-window",
             "sweep-inf-packet", "sweep-overflow-capacity",
             "sweep-underflow-efficiency"],
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


    def test_overflowing_total_capacity_meets_the_floor(self):
        # the capacities are finite, their sum is not: the floor is still met
        proc = run_module(
            "sweep", FIXTURE, "--parameter", "w", "--values", "3e305",
            "--window", "10", "--penetration", "1",
            "--objective", "min-loss", "--delivery-floor", "1",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[1].split(",")[1] == "1.0"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module("--version")
        assert proc.returncode == 0
        assert proc.stdout.startswith("venplan ")

    def test_module_validate(self):
        proc = run_module("validate", FIXTURE)
        assert proc.returncode == 0
        assert proc.stdout.startswith("ok:")
