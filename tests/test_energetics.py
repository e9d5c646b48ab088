
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from venplan import (
    FULL_ROUTE,
    EnergyParams,
    EnumerationConfig,
    GeneratorConfig,
    PER_HOP,
    RouteIndex,
    ValidationError,
    VehicularRoute,
    enumerate_paths,
    generate_scenario,
    path_economics,
)
from venplan.energetics import _retained

from _oracles import PathTable, loss_factor, max_transferable, path_loss, source_injection
from _oracles import path_economics as oracle_economics
from conftest import chain_network, single_arc_path


def params(z=0.9, w=0.1, window=5.0):
    return EnergyParams.with_round_trip(packet_size=w, efficiency=z, window=window)


def price(path, p, penetration=1.0):
    """The (rate, capacity, loss factor) that ``path_economics`` gives one path."""
    rates, caps, lams = path_economics(PathTable([path]), p, penetration)
    return rates.item(), caps.item(), lams.item()


class TestEnergyParams:
    def test_round_trip_product(self):
        p = EnergyParams(0.1, 0.9, 0.8, 5.0)
        assert p.round_trip_efficiency == pytest.approx(0.72, rel=1e-12)

    def test_with_round_trip_is_exact(self):
        p = params(z=0.9)
        assert p.round_trip_efficiency == 0.9

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(packet_size=0.0),
            dict(packet_size=-1.0),
            dict(charge_efficiency=0.0),
            dict(charge_efficiency=1.2),
            dict(discharge_efficiency=-0.5),
            dict(window=-1.0),
            dict(packet_size=math.inf),
            dict(window=math.inf),
            dict(window=math.nan),
        ],
    )
    def test_invalid_params(self, kwargs):
        base = dict(
            packet_size=0.1, charge_efficiency=0.9, discharge_efficiency=1.0, window=5.0
        )
        base.update(kwargs)
        with pytest.raises(ValidationError):
            EnergyParams(**base)


class TestPathDelay:
    """The delay an enumerated path stores is the sum of its arc delays."""

    def test_single_arc(self):
        index = RouteIndex(chain_network([1.5]), [VehicularRoute(1, (1,), 100.0)])
        (path,) = enumerate_paths(index, 1, 2, EnumerationConfig())
        assert path.delay == 1.5

    def test_additivity(self):
        routes = [VehicularRoute(1, (1,), 100.0), VehicularRoute(2, (2,), 100.0)]
        index = RouteIndex(chain_network([2.0, 3.0]), routes)
        (path,) = enumerate_paths(index, 1, 3, EnumerationConfig())
        assert path.hops == 2 and path.delay == 5.0

    def test_equals_flattened_arc_sum(self, three_routes_scenario):
        # bit for bit: one left-to-right sum from 0.0 over the path's arcs
        s = three_routes_scenario
        routes = {r.id: r for r in s.routes}
        index = RouteIndex(s.network, s.routes)
        for config in (s.enumeration, EnumerationConfig(mode=PER_HOP)):
            found = enumerate_paths(index, 1, 4, config)
            assert found, config
            for path in found:
                flat = 0.0
                for seg in path.segments:
                    for arc_id in routes[seg.route_id].arcs[seg.start - 1 : seg.end]:
                        flat += s.network.arcs[arc_id].delay
                assert path.delay.hex() == flat.hex(), path


class TestMaxRate:
    """A path's rate is one packet per participating vehicle of its slowest segment."""

    def test_single_segment(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert price(path, params(w=0.1))[0] == pytest.approx(10.0, rel=1e-12)

    def test_bottleneck_rule(self):
        path, _, _ = single_arc_path([1.0, 1.0, 1.0], [10.0, 4.0, 7.0])
        assert price(path, params(w=0.1))[0] == pytest.approx(0.4, rel=1e-12)

    def test_zero_flow_segment(self):
        path, _, _ = single_arc_path([1.0, 1.0], [10.0, 0.0])
        rate, capacity, _ = price(path, params())
        assert rate == 0.0 and capacity == 0.0

    def test_penetration_scales_linearly(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        full = price(path, params(), penetration=1.0)[0]
        assert price(path, params(), penetration=0.5)[0] == pytest.approx(full / 2)


class TestMaxTransferable:
    """A path's capacity is the window left after propagation, spent at its
    rate and scaled by z**hops."""

    def test_worked_value(self):
        path, _, _ = single_arc_path([0.5, 0.5], [100.0, 100.0])
        got = price(path, params(z=0.9, w=0.1, window=5.0))[1]
        assert got == pytest.approx(4.0 * 0.81 * 10.0, rel=1e-12)

    def test_window_equal_to_delay(self):
        path, _, _ = single_arc_path([2.5, 2.5], [100.0, 100.0])
        assert price(path, params(window=5.0))[1] == 0.0

    def test_window_below_delay_clamps_to_zero(self):
        path, _, _ = single_arc_path([4.0, 4.0], [100.0, 100.0])
        assert price(path, params(window=5.0))[1] == 0.0

    def test_lossless_case(self):
        path, _, _ = single_arc_path([0.5, 0.25, 0.25], [100.0] * 3)
        assert price(path, params(z=1.0, w=0.05, window=2.0))[1] == 5.0

    def test_negative_rate_rejected(self):
        # the scalar oracle takes the rate as an argument and guards it
        path, _, _ = single_arc_path([1.0], [100.0])
        with pytest.raises(ValueError):
            max_transferable(path, params(), rate=-1.0)

    def test_monotonicity(self):
        flows = [100.0, 100.0]
        path, _, _ = single_arc_path([0.5, 0.5], flows)
        longer, _, _ = single_arc_path([1.0, 1.0], flows)
        three_hops, _, _ = single_arc_path([0.5, 0.25, 0.25], [100.0] * 3)
        paths = [path, longer, three_hops]
        base = path_economics(PathTable(paths), params(z=0.9, window=5.0))[1].tolist()
        assert base[0] > 0.0
        assert base[1] <= base[0] and base[2] <= base[0]
        for better in (params(z=0.9, window=6.0), params(z=0.95, window=5.0),
                       params(z=0.9, w=0.11, window=5.0)):
            caps = path_economics(PathTable(paths), better)[1].tolist()
            assert all(c >= b for c, b in zip(caps, base)), better


class TestLossAndInjection:
    def test_lossless(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert path_loss(path, params(z=1.0), 123.0) == 0.0

    def test_single_hop_value(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert path_loss(path, params(z=0.9), 9.0) == pytest.approx(1.0, rel=1e-12)

    def test_half_retention_loses_what_it_delivers(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert path_loss(path, params(z=0.5), 10.0) == pytest.approx(10.0, rel=1e-12)

    def test_injection_value(self):
        path, _, _ = single_arc_path([1.0, 1.0], [100.0, 100.0])
        assert source_injection(path, params(z=0.9), 8.1) == pytest.approx(10.0, rel=1e-12)

    def test_zero_energy(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert source_injection(path, params(), 0.0) == 0.0
        assert path_loss(path, params(), 0.0) == 0.0

    def test_negative_energy_rejected(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        with pytest.raises(ValueError):
            path_loss(path, params(), -1.0)
        with pytest.raises(ValueError):
            source_injection(path, params(), -1.0)

    @given(
        z=st.floats(min_value=0.05, max_value=1.0),
        hops=st.integers(min_value=1, max_value=8),
        energy=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_conservation_identity(self, z, hops, energy):
        path, _, _ = single_arc_path([1.0] * hops, [100.0] * hops)
        p = params(z=z)
        injected = source_injection(path, p, energy)
        lost = path_loss(path, p, energy)
        assert abs(injected - energy - lost) <= 1e-12 * max(1.0, injected)

    @given(
        z=st.floats(min_value=0.05, max_value=1.0),
        hops=st.integers(min_value=1, max_value=6),
        window=st.floats(min_value=0.0, max_value=24.0),
        rate_frac=st.floats(min_value=0.01, max_value=1.0),
        fill=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_transmission_fits_in_the_window(self, z, hops, window, rate_frac, fill):
        # anything within the capacity also fits the window once injection
        # time at the path's rate is added to the propagation delay; the
        # penetration picks the rate
        path, _, _ = single_arc_path([0.5] * hops, [100.0] * hops)
        p = params(z=z, window=window)
        rate, capacity, _ = price(path, p, penetration=rate_frac)
        energy = fill * capacity
        if energy <= 0.0 or rate <= 0.0:
            return
        retained = p.round_trip_efficiency**path.hops
        duration = path.delay + energy / (retained * rate)
        assert duration <= window * (1 + 1e-12)


class TestPathEconomics:
    def test_fields_against_formulas(self):
        path, _, _ = single_arc_path([0.5, 0.5], [60.0, 30.0])
        p = params(z=0.9, w=0.1, window=5.0)
        rate, capacity, lam = price(path, p)
        assert rate == 0.1 * 30.0
        assert capacity == (5.0 - 1.0) * 0.9**2 * rate
        assert lam == loss_factor(p, 2)
        assert lam == pytest.approx(1 / 0.81 - 1, rel=1e-12)

    def test_loss_factor_zero_only_when_lossless(self):
        assert loss_factor(params(z=1.0), 3) == 0.0
        assert loss_factor(params(z=0.999), 1) > 0.0

    def test_underflowing_retention_rejected(self):
        # 1e-200**2 underflows to 0.0: nothing would arrive
        path, _, _ = single_arc_path([0.5, 0.5], [60.0, 30.0])
        assert loss_factor(params(z=1e-200), 1) == 1e200 - 1.0
        with pytest.raises(ValidationError, match="leaves no energy after 2 cycles"):
            loss_factor(params(z=1e-200), 2)
        with pytest.raises(ValidationError, match="leaves no energy after 2 cycles"):
            source_injection(path, params(z=1e-200), 1.0)
        with pytest.raises(ValidationError, match="leaves no energy after 2 cycles"):
            path_economics(PathTable([path]), params(z=1e-200))

    def test_retention_is_the_correctly_rounded_power(self):
        # glibc 2.36's pow misrounds each of these z**k by one unit in the last place
        for z, k, want in (
            (0.7811811590022962, 4, "0x1.7d55d58453b96p-2"),
            (0.13082790367884622, 3, "0x1.25808377353c5p-9"),
            (0.4923719369027534, 10, "0x1.b709ea829d663p-11"),
        ):
            got = _retained(params(z=z), k)
            assert got == float(Fraction(z) ** k) and got.hex() == want, (z, k)

    def test_penetration_enters_capacity(self):
        path, _, _ = single_arc_path([0.5], [100.0])
        p = params()
        _, full_capacity, full_lam = price(path, p, penetration=1.0)
        _, half_capacity, half_lam = price(path, p, penetration=0.5)
        assert half_capacity == pytest.approx(full_capacity / 2, rel=1e-12)
        assert half_lam == full_lam

    def test_negative_penetration_rejected(self):
        # checked before pricing, which would give negative rates
        path, _, _ = single_arc_path([0.5], [100.0])
        with pytest.raises(ValidationError, match=r"^penetration must be within \[0, 1\]$"):
            price(path, params(), penetration=-0.5)


class TestEconomicsArrays:
    """``path_economics`` equals the scalar oracle value for value."""

    def paths(self):
        s = generate_scenario(
            GeneratorConfig(
                seed=3,
                junction_count=12,
                arc_count=30,
                route_count=12,
                pair_count=2,
                enumeration=EnumerationConfig(max_hops=3, max_paths=None),
            )
        )
        index = RouteIndex(s.network, s.routes)
        found = []
        for source, target in s.pairs:
            found += enumerate_paths(index, source, target, s.enumeration)
        assert len(found) > 500
        return tuple(found)

    def assert_matches_scalar(self, paths, p, penetration):
        rates, caps, lams = path_economics(PathTable(paths), p, penetration)
        econ = [oracle_economics(path, p, penetration) for path in paths]
        assert rates.tolist() == [e.max_rate for e in econ]
        assert caps.tolist() == [e.capacity for e in econ]
        assert lams.tolist() == [e.loss_factor for e in econ]

    def test_equals_path_economics(self):
        paths = self.paths()
        delays = sorted(p.delay for p in paths)
        # below every path's delay, between them, above all of them
        windows = (0.5 * delays[0], delays[len(delays) // 2], 2 * delays[-1])
        for z in (0.05, 0.5, 0.9, 1.0):
            for window in windows:
                for w in (0.1, 3.7):
                    for penetration in (0.0, 0.001, 0.37, 1.0):
                        self.assert_matches_scalar(
                            paths, params(z=z, w=w, window=window), penetration
                        )

    def test_overflow_gives_inf_without_warning(self):
        # pytest turns warnings into errors, so a numpy RuntimeWarning fails
        paths = self.paths()
        p = params(z=0.9, w=1e300, window=1e300)
        _, caps, _ = path_economics(PathTable(paths), p, 1.0)
        assert np.all(np.isinf(caps))
        self.assert_matches_scalar(paths, p, 1.0)


class TestLossFactorOrder:
    """The search's tables come with non-decreasing loss factors, so the
    planner's stable sort by loss factor keeps them in path order."""

    def test_non_decreasing_in_path_order(self):
        zs = [v / 20 for v in range(1, 20)] + [1.0, math.nextafter(1.0, 0.0)]
        tables = 0
        for seed in (1, 2, 3):
            for mode in (FULL_ROUTE, PER_HOP):
                for max_hops in (2, 6):
                    config = EnumerationConfig(max_hops=max_hops, max_paths=None, mode=mode)
                    s = generate_scenario(GeneratorConfig(
                        seed=seed, junction_count=12, arc_count=30, route_count=12,
                        pair_count=3, enumeration=config,
                    ))
                    index = RouteIndex(s.network, s.routes)
                    for source, target in s.pairs:
                        table = enumerate_paths(index, source, target, config)
                        tables += 1
                        for z in zs:
                            _, _, lams = path_economics(table, params(z=z))
                            assert np.all(np.diff(lams) >= 0.0), (seed, mode, max_hops, z)
                            order = np.argsort(lams, kind="stable")
                            assert order.tolist() == list(range(lams.size))
        assert tables == 36
