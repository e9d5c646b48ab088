
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from venplan import (
    EnergyParams,
    EnumerationConfig,
    GeneratorConfig,
    ValidationError,
    enumerate_paths,
    generate_scenario,
    loss_factor,
    max_rate,
    max_transferable,
    path_economics,
    path_loss,
    source_injection,
)

from venplan.energetics import economics_arrays

from conftest import single_arc_path


def params(z=0.9, w=0.1, window=5.0):
    return EnergyParams.with_round_trip(packet_size=w, efficiency=z, window=window)


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
    def test_single_arc(self):
        path, _, _ = single_arc_path([1.5], [100.0])
        assert path.delay == 1.5

    def test_additivity(self):
        path, _, _ = single_arc_path([2.0, 3.0], [100.0, 100.0])
        assert path.delay == 5.0

    def test_equals_flattened_arc_sum(self, three_routes_scenario):
        from venplan import enumerate_paths

        s = three_routes_scenario
        for path in enumerate_paths(s.network, s.routes, 1, 4, s.enumeration):
            flat = 0.0
            for seg in path.segments:
                for arc_id in seg.arcs:
                    flat += s.network.arc(arc_id).delay
            assert path.delay == pytest.approx(flat, rel=1e-12)


class TestMaxRate:
    def test_single_segment(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        assert max_rate(path, params(w=0.1)) == pytest.approx(10.0, rel=1e-12)

    def test_bottleneck_rule(self):
        path, _, _ = single_arc_path([1.0, 1.0, 1.0], [10.0, 4.0, 7.0])
        assert max_rate(path, params(w=0.1)) == pytest.approx(0.4, rel=1e-12)

    def test_zero_flow_segment(self):
        path, _, _ = single_arc_path([1.0, 1.0], [10.0, 0.0])
        assert max_rate(path, params()) == 0.0

    def test_penetration_scales_linearly(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        full = max_rate(path, params(), penetration=1.0)
        assert max_rate(path, params(), penetration=0.5) == pytest.approx(full / 2)


class TestMaxTransferable:
    def test_worked_value(self):
        path, _, _ = single_arc_path([0.5, 0.5], [100.0, 100.0])
        got = max_transferable(path, params(z=0.9, window=5.0), rate=10.0)
        assert got == pytest.approx(4.0 * 0.81 * 10.0, rel=1e-12)

    def test_window_equal_to_delay(self):
        path, _, _ = single_arc_path([2.5, 2.5], [100.0, 100.0])
        assert max_transferable(path, params(window=5.0), rate=10.0) == 0.0

    def test_window_below_delay_clamps_to_zero(self):
        path, _, _ = single_arc_path([4.0, 4.0], [100.0, 100.0])
        assert max_transferable(path, params(window=5.0), rate=10.0) == 0.0

    def test_lossless_case(self):
        path, _, _ = single_arc_path([0.5, 0.25, 0.25], [100.0] * 3)
        got = max_transferable(path, params(z=1.0, window=2.0), rate=5.0)
        assert got == 5.0

    def test_negative_rate_rejected(self):
        path, _, _ = single_arc_path([1.0], [100.0])
        with pytest.raises(ValueError):
            max_transferable(path, params(), rate=-1.0)

    def test_monotonicity(self):
        flows = [100.0, 100.0]
        path, _, _ = single_arc_path([0.5, 0.5], flows)
        longer, _, _ = single_arc_path([1.0, 1.0], flows)
        three_hops, _, _ = single_arc_path([0.5, 0.25, 0.25], [100.0] * 3)
        base = max_transferable(path, params(z=0.9, window=5.0), rate=10.0)
        assert max_transferable(path, params(z=0.9, window=6.0), rate=10.0) >= base
        assert max_transferable(path, params(z=0.95, window=5.0), rate=10.0) >= base
        assert max_transferable(path, params(z=0.9, window=5.0), rate=11.0) >= base
        assert max_transferable(longer, params(z=0.9, window=5.0), rate=10.0) <= base
        assert max_transferable(three_hops, params(z=0.9, window=5.0), rate=10.0) <= base


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
        # anything within the transferable bound also fits the window once
        # injection time at the chosen rate is added to the propagation delay
        path, _, _ = single_arc_path([0.5] * hops, [100.0] * hops)
        p = params(z=z, window=window)
        rate = rate_frac * max_rate(path, p)
        energy = fill * max_transferable(path, p, rate)
        if energy <= 0.0 or rate <= 0.0:
            return
        retained = p.round_trip_efficiency**path.hops
        duration = path.delay + energy / (retained * rate)
        assert duration <= window * (1 + 1e-12)


class TestPathEconomics:
    def test_fields_against_formulas(self):
        path, _, _ = single_arc_path([0.5, 0.5], [60.0, 30.0])
        p = params(z=0.9, w=0.1, window=5.0)
        econ = path_economics(path, p)
        assert econ.path is path
        assert econ.max_rate == max_rate(path, p)
        assert econ.capacity == max_transferable(path, p, econ.max_rate)
        assert econ.loss_factor == loss_factor(p, 2)
        assert econ.loss_factor == pytest.approx(1 / 0.81 - 1, rel=1e-12)

    def test_loss_factor_zero_only_when_lossless(self):
        assert loss_factor(params(z=1.0), 3) == 0.0
        assert loss_factor(params(z=0.999), 1) > 0.0

    def test_penetration_enters_capacity(self):
        path, _, _ = single_arc_path([0.5], [100.0])
        p = params()
        full = path_economics(path, p, penetration=1.0)
        half = path_economics(path, p, penetration=0.5)
        assert half.capacity == pytest.approx(full.capacity / 2, rel=1e-12)
        assert half.loss_factor == full.loss_factor


class TestEconomicsArrays:
    """The vector form equals ``path_economics`` value for value."""

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
        found = []
        for source, target in s.pairs:
            found += enumerate_paths(s.network, s.routes, source, target, s.enumeration)
        assert len(found) > 500
        return tuple(found)

    def assert_matches_scalar(self, paths, p, penetration):
        rates, caps, lams = economics_arrays(paths, p, penetration)
        econ = [path_economics(path, p, penetration) for path in paths]
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
        _, caps, _ = economics_arrays(paths, p, 1.0)
        assert np.all(np.isinf(caps))
        self.assert_matches_scalar(paths, p, 1.0)
