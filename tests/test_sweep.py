import dataclasses

import pytest

from venplan import (
    GREEDY,
    EnumerationConfig,
    GeneratorConfig,
    PathTable,
    SweepSpec,
    ValidationError,
    find_crossover,
    generate_scenario,
    parse_scenario,
    run_sweep,
    scenario_hash,
    serialize_scenario,
    solve_scenario,
    sweep_metadata,
    sweep_to_csv,
)

from _oracles import read_sweep_csv


class TestSweepSpec:
    def test_unknown_parameter(self):
        with pytest.raises(ValidationError, match="unknown sweep parameter"):
            SweepSpec(parameter="voltage", values=(1.0, 2.0))

    def test_values_must_increase(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            SweepSpec(parameter="z", values=(0.5, 0.5))
        with pytest.raises(ValidationError, match="non-empty"):
            SweepSpec(parameter="z", values=())

    def test_nominal_defaults(self):
        spec = SweepSpec(parameter="z", values=(0.5, 0.9))
        assert spec.nominal_window == 5.0
        assert spec.nominal_packet_size == 0.1
        assert spec.nominal_penetration == 0.001
        assert spec.nominal_efficiency == 0.9


class TestRunSweep:
    def run(self, scenario, parameter, values, **kwargs):
        spec = SweepSpec(
            parameter=parameter, values=values, nominal_penetration=1.0
        )
        return run_sweep(scenario, spec, **kwargs)

    def test_efficiency_trend(self, three_routes_scenario):
        result = self.run(three_routes_scenario, "z", (0.5, 0.7, 0.9, 1.0))
        transferred = [p.transferred for p in result.points]
        assert transferred == sorted(transferred)

    def test_small_windows_transfer_nothing(self, three_routes_scenario):
        # every path of the fixture has a 1.75 h propagation delay
        result = self.run(three_routes_scenario, "T", (0.5, 1.0, 1.5))
        assert all(p.transferred == 0.0 for p in result.points)
        longer = self.run(three_routes_scenario, "T", (1.5, 2.0, 5.0))
        assert longer.points[-1].transferred > 0.0

    def test_penetration_ratio_constant(self, three_routes_scenario):
        values = (0.125, 0.25, 0.5, 1.0)
        result = self.run(three_routes_scenario, "penetration", values)
        ratios = [p.transferred / p.value for p in result.points]
        for ratio in ratios[1:]:
            assert ratio == pytest.approx(ratios[0], rel=1e-9)

    def test_totals_equal_breakdown_sums(self, three_routes_scenario):
        result = self.run(three_routes_scenario, "w", (0.05, 0.1, 0.2))
        for point in result.points:
            assert point.transferred == sum(e[2] for e in point.pair_breakdown)
            assert point.loss == sum(e[3] for e in point.pair_breakdown)

    def test_provenance_recorded(self, three_routes_scenario):
        result = self.run(three_routes_scenario, "z", (0.5, 0.9))
        assert result.scenario_digest == scenario_hash(three_routes_scenario)
        meta = sweep_metadata(result)
        assert meta["scenario_sha256"] == result.scenario_digest
        assert meta["solver"] == "greedy"
        assert meta["tool_version"] == result.tool_version

    def test_greedy_is_the_only_method(self, three_routes_scenario):
        greedy = self.run(three_routes_scenario, "z", (0.5, 0.9), method=GREEDY)
        assert greedy == self.run(three_routes_scenario, "z", (0.5, 0.9))
        with pytest.raises(ValidationError, match="unknown method 'simplex'"):
            self.run(three_routes_scenario, "z", (0.5, 0.9), method="simplex")

    def test_objective_checked_without_pairs(self, three_routes_scenario):
        no_pairs = dataclasses.replace(three_routes_scenario, pairs=())
        for scenario in (three_routes_scenario, no_pairs):
            with pytest.raises(ValidationError, match="^unknown objective 'bogus'$"):
                self.run(scenario, "z", (0.5, 0.9), objective="bogus")


class TestCsv:
    def test_round_trip_is_bit_exact(self, three_routes_scenario):
        spec = SweepSpec(parameter="z", values=(0.5, 0.7, 0.9), nominal_penetration=1.0)
        result = run_sweep(three_routes_scenario, spec)
        text = sweep_to_csv(result)
        rows = read_sweep_csv(text)
        for row, point in zip(rows, result.points):
            assert row == (point.value, point.transferred, point.loss)

    def test_csv_format(self, three_routes_scenario):
        spec = SweepSpec(parameter="z", values=(0.5, 0.9), nominal_penetration=1.0)
        text = sweep_to_csv(run_sweep(three_routes_scenario, spec))
        lines = text.splitlines()
        assert lines[0] == "value,transferred_kwh,loss_kwh"
        assert len(lines) == 3
        assert text.count("\r\n") == 3

    def test_header_enforced_on_read(self):
        with pytest.raises(ValidationError, match="unexpected CSV header"):
            read_sweep_csv("a,b\r\n1,2\r\n")


class TestCrossover:
    def test_single_hop_crossover_at_one_half(self, three_routes_scenario):
        single_hop = dataclasses.replace(
            three_routes_scenario,
            enumeration=EnumerationConfig(max_hops=1, max_paths=None),
        )
        spec = SweepSpec(
            parameter="z",
            values=(0.3, 0.4, 0.45, 0.49, 0.51, 0.6, 0.8),
            nominal_penetration=1.0,
        )
        result = run_sweep(single_hop, spec)
        crossover = find_crossover(result)
        assert crossover is not None
        assert abs(crossover - 0.5) <= 1e-9

    def test_mixed_hop_crossover_exists(self, three_routes_scenario):
        spec = SweepSpec(
            parameter="z",
            values=tuple(v / 100 for v in range(10, 100, 5)),
            nominal_penetration=1.0,
        )
        result = run_sweep(three_routes_scenario, spec)
        crossover = find_crossover(result)
        assert crossover is not None
        deltas = [p.loss - p.transferred for p in result.points]
        assert deltas[0] > 0 and deltas[-1] < 0
        # one sign change only
        signs = [d > 0 for d in deltas]
        assert sum(1 for a, b in zip(signs, signs[1:]) if a != b) == 1

    def test_no_crossover_when_always_efficient(self, three_routes_scenario):
        spec = SweepSpec(
            parameter="z", values=(0.9, 0.95, 1.0), nominal_penetration=1.0
        )
        result = run_sweep(three_routes_scenario, spec)
        assert find_crossover(result) is None

    def test_no_crossover_when_always_lossy(self, three_routes_scenario):
        spec = SweepSpec(
            parameter="z", values=(0.1, 0.15, 0.2), nominal_penetration=1.0
        )
        result = run_sweep(three_routes_scenario, spec)
        deltas = [p.loss - p.transferred for p in result.points]
        assert [round(d, 1) for d in deltas] == [36.5, 34.8, 32.8]
        assert find_crossover(result) is None


class TestPathTables:
    """The search returns one table per pair, however many points a sweep has,
    and a sweep plans from the tables without building a path."""

    CONFIG = GeneratorConfig(seed=3, junction_count=12, arc_count=30, route_count=12,
                             pair_count=3)

    def test_one_table_per_pair(self, monkeypatch):
        scenario = generate_scenario(self.CONFIG)
        built = []
        real_init = PathTable.__init__

        def counting(self, *columns):
            real_init(self, *columns)
            built.append(len(self))

        monkeypatch.setattr(PathTable, "__init__", counting)
        run_sweep(scenario, SweepSpec(parameter="z", values=(0.5, 0.7, 0.9)))
        assert len(built) == len(scenario.pairs) == 3 and sum(built) > 0
        built.clear()
        solve_scenario(scenario)
        assert len(built) == len(scenario.pairs)

    def test_a_sweep_builds_no_paths(self):
        scenario = parse_scenario(serialize_scenario(generate_scenario(self.CONFIG)))
        run_sweep(scenario, SweepSpec(parameter="z", values=(0.5, 0.7, 0.9)))
        assert scenario.index._slices == {}
        solution = solve_scenario(scenario)  # its paths are a report
        assert len(scenario.index._slices) == len(
            {seg for pair in solution.pairs for path in pair.paths for seg in path.segments}
        ) > 0
