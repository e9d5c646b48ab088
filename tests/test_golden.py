"""Golden digests: the generator, `solve`, `enumerate` and sweep outputs stay
byte-identical across refactors.

Each digest is the SHA-256 of one output. A change that alters one changes
what the tool produces; if that is intended, the new digest belongs in a
change that says why.

"City 81" is the benchmark's ``city-plan`` generator config (998 junctions,
2,470 arcs, 4,788 routes, 4 pairs). The `solve -o` JSON embeds the tool
version in its provenance record, so a version bump changes its two digests.
"""

import contextlib
import hashlib
import io
from dataclasses import replace

import pytest

from venplan import (
    MIN_LOSS,
    EnumerationConfig,
    GeneratorConfig,
    SweepSpec,
    generate_scenario,
    run_sweep,
    scenario_hash,
    serialize_scenario,
    sweep_to_csv,
)
from venplan.cli import main

from conftest import THREE_ROUTES

CITY_81 = GeneratorConfig(
    seed=81,
    junction_count=998,
    arc_count=2470,
    route_count=4788,
    pair_count=4,
    delay_range=(0.05, 0.5),
    enumeration=EnumerationConfig(max_hops=4, max_paths=20),
)


def sha256(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


@pytest.fixture(scope="module")
def city_81():
    return generate_scenario(CITY_81)


@pytest.fixture(scope="module")
def city_61():
    return generate_scenario(GeneratorConfig(seed=61))


@pytest.fixture(scope="module")
def city_81_file(city_81, tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "city81.json"
    path.write_text(serialize_scenario(city_81), encoding="utf-8")
    return str(path)


def cli_output(tmp_path, *argv) -> str:
    out = tmp_path / "out.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "-o", str(out)]) == 0
    return sha256(out.read_bytes())


def test_generated_cities(city_61, city_81):
    assert [
        scenario_hash(generate_scenario(GeneratorConfig(seed=60))),
        scenario_hash(city_61),
        scenario_hash(city_81),
    ] == [
        "12436f2f6bd46a37e4d701f12f3d0130ff6348e762a001c19966880b878e51ce",
        "f4a547a88d5673979c8c6e7c0618a8fe63b47d28aa64a13ff92b9e3b8db9dedf",
        "e599a56a2e2b611b728add361ea0dbf600bf30d9c2dad4e53e3760c5a4a74370",
    ]


@pytest.mark.parametrize(
    "argv, digest",
    [
        ((), "d68d750b794bbb25bd16bd3111fbd8d7448d0b748f1d07fb58c47dca57442bc7"),
        (
            ("--objective", "min-loss", "--delivery-floor", "0.1"),
            "13e5bf0e802b0c79e8f32c65bde11747ca5ac2fba1931dd0120c518d0c91f208",
        ),
    ],
    ids=["max-energy", "min-loss"],
)
def test_solve_city_81(tmp_path, city_81_file, argv, digest):
    assert cli_output(tmp_path, "solve", city_81_file, *argv) == digest


def test_enumerate_per_hop(tmp_path, city_81_file):
    assert cli_output(
        tmp_path, "enumerate", city_81_file,
        "--mode", "per-hop", "--max-hops", "4", "--max-paths", "30",
    ) == "6acbc3716f12fc4ed5a6a2a8159a218c0c3af05ba2346a780242c04426b484c7"
    assert cli_output(
        tmp_path, "enumerate", str(THREE_ROUTES), "--mode", "per-hop"
    ) == "2bacbad1e3a778f5f7a33c71337561f0e5c2c224b7e426bbb173270761237199"


def test_sweeps_city_61(city_61):
    scenario = replace(city_61, enumeration=EnumerationConfig(max_hops=3, max_paths=None))
    by_z = run_sweep(
        scenario, SweepSpec("z", tuple(v / 20 for v in range(1, 20))), loss_cap=20.0
    )
    by_window = run_sweep(
        scenario, SweepSpec("T", (0.5, 1, 2, 5)), objective=MIN_LOSS, delivery_floor=0.5
    )
    assert [sha256(sweep_to_csv(by_z)), sha256(sweep_to_csv(by_window))] == [
        "da246f5c437bea2b086a402241202b92c850f41f626f3444010755abbf380eac",
        "c27aa0b0845ca26fad03e682e8b76709292cb3e15cc161e4aa38745b50c1b706",
    ]
