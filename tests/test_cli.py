import contextlib
import hashlib
import io
import json
import math
import os
import stat
import sys
import threading
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import venplan
import venplan.cli
import venplan.scenario
from venplan import parse_scenario, run_sweep, scenario_hash, serialize_scenario, SweepSpec
from venplan.cli import main

from conftest import THREE_ROUTES, needs_proc, run_capped, run_python


FIXTURE = str(THREE_ROUTES)


def run_module(*argv):
    """Run ``python -m venplan.cli`` on the package these tests import."""
    return run_python("-m", "venplan.cli", *argv)


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

    @pytest.mark.parametrize("mode", ["full-route", "per-hop"])
    def test_hop_cap_beyond_int64(self, tmp_path, mode):
        # no loop-free path has as many segments as the network has junctions
        junctions = len(parse_scenario(THREE_ROUTES.read_text()).network.junctions)
        pairs = {}
        for max_hops in (2**63, junctions):
            out = tmp_path / f"{max_hops}.json"
            argv = ["enumerate", FIXTURE, "--max-hops", str(max_hops), "--mode", mode]
            assert main([*argv, "-o", str(out)]) == 0
            pairs[max_hops] = json.loads(out.read_text())["pairs"]
        assert pairs[2**63] == pairs[junctions]
        assert pairs[junctions][0]["paths"]


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


class TestPlanArgumentsWithoutPairs:
    """A scenario without pairs rejects the plan arguments that one with
    pairs rejects, with the same message."""

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--loss-cap", "-1"], "loss cap must be nonnegative"),
        (["solve", "--objective", "min-loss", "--delivery-floor", "nan"],
         "delivery floor must be finite and nonnegative"),
        (["sweep", "--parameter", "z", "--values", "0.5", "--loss-cap", "nan"],
         "loss cap must be nonnegative"),
        (["sweep", "--parameter", "penetration", "--values", "5"],
         "penetration must be within [0, 1]"),
    ], ids=["solve-loss-cap", "solve-delivery-floor", "sweep-loss-cap", "sweep-penetration"])
    @pytest.mark.parametrize("pairs", ["no-pairs", "pairs"])
    def test_exits_4(self, tmp_path, capsys, argv, message, pairs):
        doc = json.loads(THREE_ROUTES.read_text())
        if pairs == "no-pairs":
            doc["pairs"] = []
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(doc))
        command, *flags = argv
        assert main([command, str(scenario), *flags]) == 4
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

    @pytest.mark.parametrize(
        "flag, message",
        [("--routes", "sys.maxsize"), ("--pairs", "distinct pairs")],
    )
    def test_counts_that_cannot_be_generated_rejected(self, capsys, flag, message):
        assert main(self.ARGS + ["--seed", "1", flag, "9223372036854775808"]) == 4
        assert message in capsys.readouterr().err

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


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "command", ["validate", "enumerate", "solve", "sweep", "generate"]
    )
    def test_memory_error_exits_4_after_freeing_the_traceback(self, monkeypatch, command):
        class Held:
            pass

        held = []

        def exhausted(args):
            partial = Held()  # a half-built result that only the traceback keeps alive
            held.append(weakref.ref(partial))
            raise MemoryError

        alive_at_print = []

        class Stderr(io.StringIO):
            def write(self, text):
                alive_at_print.append(held[0]() is not None)
                return super().write(text)

        stderr = Stderr()
        monkeypatch.setattr(venplan.cli, f"_cmd_{command}", exhausted)
        monkeypatch.setattr(sys, "stderr", stderr)
        assert main(WRITERS.get(command, ["validate", FIXTURE])) == 4
        assert stderr.getvalue().startswith("error: out of memory")
        assert stderr.getvalue().count("\n") == 1
        assert alive_at_print and not any(alive_at_print)

    @needs_proc
    def test_route_count_beyond_memory(self):
        # the child caps its own address space 16 MiB above its size after
        # import, so the routes run out of memory within about two seconds
        argv = ["generate", "--seed", "1", "--junctions", "12", "--arcs", "25",
                "--pairs", "2", "--routes", str(2**62)]
        done = run_capped("sys.exit(venplan.cli.main(sys.argv[1:]))\n", *argv, headroom_mib=16)
        assert (done.returncode, done.stdout) == (4, "")
        assert done.stderr.startswith("error: out of memory")
        assert done.stderr.count("\n") == 1


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

    def test_csv_through_a_dangling_link_is_removed_again(self, tmp_path, capsys):
        # the link stays, and the file that opening it created goes again
        (tmp_path / "link.csv").symlink_to(tmp_path / "target.csv")
        meta = tmp_path / "missing" / "sweep.meta.json"
        with pytest.raises(SystemExit) as exc:
            main(WRITERS["sweep"] + ["-o", str(tmp_path / "link.csv"), "--meta", str(meta)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(meta)!r}: ")
        assert [p.name for p in tmp_path.iterdir()] == ["link.csv"]

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


class TestOutputsNamingOneFile:
    """Two outputs that are one file, by name, alias or link, are a usage
    error that creates and changes no file."""

    @pytest.mark.parametrize("output, meta", [
        ("out.csv", "out.csv"), ("out.csv", "./out.csv"), ("out.csv", "alias"),
        ("alias", "out.csv"),
    ])
    def test_sweep_csv_and_sidecar(self, tmp_path, monkeypatch, capsys, output, meta):
        monkeypatch.chdir(tmp_path)
        os.symlink("out.csv", "alias")
        for before in (None, b"old,rows\r\n"):
            if before is not None:
                Path("out.csv").write_bytes(before)
            with pytest.raises(SystemExit) as exc:
                main(WRITERS["sweep"] + ["-o", output, "--meta", meta])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {output!r} and {meta!r} are the same file\n"
            if before is None:
                assert sorted(os.listdir()) == ["alias"]
            else:
                assert sorted(os.listdir()) == ["alias", "out.csv"]
                assert Path("out.csv").read_bytes() == before


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
    ["-1", "0", "1", "2", "3", "0.5", "nan", "inf", "-inf", "1e400", "1e-200", "abc", "",
     "9223372036854775808"]
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
                assert code in (0, 3, 4), argv
        if code:
            assert "error: " in err.getvalue(), argv


def _nan_arc_delay(doc):
    doc["network"]["arcs"][0]["delay"] = math.nan


def _infinite_route_flow(doc):
    doc["routes"][0]["flow"] = math.inf


def _overflowing_loss(doc):
    # finite capacities, but 99 x 4.95e306 kWh of loss on a 2-hop path is inf
    doc["params"].update(packet_size=1e306, charge_efficiency=0.1, window=10.0)


def _overflowing_delays(doc):
    # every path from 1 to 3 takes 1e308 + 1e308 hours, which is inf
    doc["network"] = {"junctions": [1, 2, 3], "arcs": [
        {"id": i, "tail": i, "head": i + 1, "delay": 1e308, "flow": 10.0, "length": 1.0}
        for i in (1, 2)
    ]}
    doc["routes"] = [{"id": i, "arcs": arcs, "flow": 10.0}
                     for i, arcs in ((1, [1]), (2, [2]), (3, [1, 2]))]
    doc["pairs"] = [[1, 3]]


def _overflowing_second_pair(doc):
    # pair 1 -> 2 has a path; every path from 3 to 5 takes 1e308 + 1e308 hours
    doc["network"] = {"junctions": [1, 2, 3, 4, 5], "arcs": [
        {"id": i, "tail": tail, "head": tail + 1, "delay": delay, "flow": 10.0, "length": 1.0}
        for i, (tail, delay) in enumerate(((1, 1.0), (3, 1e308), (4, 1e308)), 1)
    ]}
    doc["routes"] = [{"id": i, "arcs": [i], "flow": 10.0} for i in (1, 2, 3)]
    doc["pairs"] = [[1, 2], [3, 5]]


def _infinite_rate(doc):
    # route 1's packet rate overflows to inf, but the 1 h window is shorter than
    # every path's delay, so every capacity and total is 0
    doc["params"].update(packet_size=1e307, window=1.0)
    doc["routes"][0]["flow"] = 1000.0


def _infinite_rate_in_window(doc):
    # the same overflowing rate, with path 1 -> 3 -> 4 (1.75 h) inside a 2 h window
    _infinite_rate(doc)
    doc["params"]["window"] = 2.0


def _numbers(value):
    """Every int and float in a parsed JSON document."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


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
            # finite capacities whose plan loss overflows to inf
            (["solve"], _overflowing_loss, 4),
            (["sweep", "--parameter", "w", "--values", "1e306", "--efficiency", "0.1",
              "--penetration", "1", "--window", "10"], None, 4),
            # finite arc delays whose path delays overflow to inf
            (["enumerate"], _overflowing_delays, 4),
            (["solve"], _overflowing_delays, 4),
        ],
        ids=["validate-nan-delay", "validate-inf-flow", "solve-nan-delay",
             "sweep-nan-value", "sweep-inf-value", "sweep-inf-window",
             "sweep-inf-packet", "sweep-overflow-capacity",
             "sweep-underflow-efficiency", "solve-overflow-loss",
             "sweep-overflow-loss", "enumerate-overflow-delay", "solve-overflow-delay"],
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

    @pytest.mark.parametrize("command", ["enumerate", "solve"])
    def test_a_later_failing_pair_prints_nothing(self, tmp_path, command):
        # the first pair's paths are found before the second pair fails
        doc = json.loads(THREE_ROUTES.read_text())
        _overflowing_second_pair(doc)
        scenario = tmp_path / "spoiled.json"
        scenario.write_text(json.dumps(doc))
        proc = run_module(command, str(scenario))
        assert proc.returncode == 4, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: path delays to junction 5 overflow; the arc delays are too large\n"
        )

    def test_non_finite_json_number_writes_no_file(self, tmp_path):
        # an infinite rate inside the window makes an infinite capacity, which
        # the fill rejects before any output is built
        doc = json.loads(THREE_ROUTES.read_text())
        _infinite_rate_in_window(doc)
        scenario = tmp_path / "spoiled.json"
        scenario.write_text(json.dumps(doc))
        plan = tmp_path / "plan.json"
        proc = run_module("solve", str(scenario), "-o", str(plan))
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == "error: capacities and loss factors must be finite\n"
        assert proc.stdout == "" and not plan.exists()

    def test_infinite_rate_past_the_window_plans_nothing(self, tmp_path):
        # every path is past the 1 h window, so the plan lists none, and no
        # infinite rate reaches the output
        doc = json.loads(THREE_ROUTES.read_text())
        _infinite_rate(doc)
        scenario = tmp_path / "spoiled.json"
        scenario.write_text(json.dumps(doc))
        plan = tmp_path / "plan.json"
        proc = run_module("solve", str(scenario), "-o", str(plan))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        written = json.loads(plan.read_text())
        assert [pair["assignments"] for pair in written["pairs"]] == [[]]
        assert written["transferred_kwh"] == written["loss_kwh"] == 0.0
        assert all(map(math.isfinite, _numbers(written)))

    def test_json_text_rejects_non_finite_numbers(self):
        for number in (math.inf, -math.inf, math.nan):
            with pytest.raises(venplan.ValidationError) as caught:
                venplan.cli._json_text({"pairs": [{"rate_kwh_per_hour": number}]})
            assert str(caught.value) == (
                "an output number is not finite; the inputs are too large"
            )

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
