import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from venplan import (
    INFEASIBLE,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    Arc,
    EnergyParams,
    EnumerationConfig,
    GeneratorConfig,
    RouteIndex,
    TransferPlan,
    ValidationError,
    VehicularRoute,
    build_network,
    enumerate_paths,
    generate_scenario,
    knapsack_assign,
    solve,
    solve_scenario,
)

from _oracles import (
    PathTable, energy_path, lp_assign, path_economics, reference_fill, reference_plan, sub_route,
    vertex_enumeration_lp,
)
from _properties import check_tradeoff_properties
from conftest import single_arc_path


def solve_paths(paths, *args, **kwargs):
    """``solve`` on the table of ``paths``, the other arguments as given."""
    return solve(PathTable(paths), *args, **kwargs)


def random_instance(rng, max_paths=100):
    n = int(rng.integers(1, max_paths + 1))
    caps = rng.uniform(0.0, 50.0, n)
    hops = rng.integers(1, 6, n)
    z = np.where(rng.random(n) < 0.15, 1.0, rng.uniform(0.3, 1.0, n))
    lams = 1.0 / z**hops - 1.0
    if n >= 2 and rng.random() < 0.3:
        lams[1] = lams[0]  # exercise tie-breaking
    return caps, lams


class TestKnapsackMaxEnergy:
    def test_capacity_binds_under_loose_cap(self):
        x, status = knapsack_assign([32.4], [0.2346], MAX_ENERGY, 1e6)
        assert status == OPTIMAL
        assert x[0] == pytest.approx(32.4, rel=1e-12)

    def test_zero_cap_blocks_all_lossy_paths(self):
        x, _ = knapsack_assign([10.0, 5.0], [0.11, 0.52], MAX_ENERGY, 0.0)
        assert np.all(x == 0.0)

    def test_cheapest_path_fills_first(self):
        x, _ = knapsack_assign([10.0, 10.0], [0.11, 0.52], MAX_ENERGY, 1.63)
        assert x[0] == pytest.approx(10.0, rel=1e-12)
        assert x[1] == pytest.approx((1.63 - 1.1) / 0.52, rel=1e-9)

    def test_free_paths_ignore_the_budget(self):
        x, _ = knapsack_assign([7.0, 9.0], [0.0, 0.5], MAX_ENERGY, 0.0)
        assert x[0] == 7.0 and x[1] == 0.0

    def test_infinite_cap_saturates(self):
        caps = [3.0, 4.0, 5.0]
        x, _ = knapsack_assign(caps, [0.1, 0.2, 0.3], MAX_ENERGY, math.inf)
        assert list(x) == caps

    def test_infinite_cap_spends_nothing_when_a_loss_overflows(self):
        # 10 x 1e308 overflows to inf: inf - inf would leave nan for the next path
        for fill in (knapsack_assign, reference_fill):
            x, status = fill([1e308, 1.0], [10.0, 20.0], MAX_ENERGY, math.inf)
            assert status == OPTIMAL and x.tolist() == [1e308, 1.0], fill


class TestKnapsackMinLoss:
    def test_zero_floor(self):
        x, status = knapsack_assign([10.0, 10.0], [0.1, 0.2], MIN_LOSS, 0.0)
        assert status == OPTIMAL and np.all(x == 0.0)

    def test_floor_equal_to_total_capacity(self):
        caps = [10.0, 10.0]
        x, status = knapsack_assign(caps, [0.11, 0.52], MIN_LOSS, sum(caps))
        assert status == OPTIMAL
        assert list(x) == caps

    def test_partial_fill(self):
        x, status = knapsack_assign([10.0, 10.0], [0.11, 0.52], MIN_LOSS, 12.0)
        assert status == OPTIMAL
        assert x[0] == pytest.approx(10.0, rel=1e-12)
        assert x[1] == pytest.approx(2.0, rel=1e-12)
        assert float(np.dot([0.11, 0.52], x)) == pytest.approx(2.14, rel=1e-9)

    def test_unreachable_floor_saturates_best_effort(self):
        caps = [10.0, 10.0]
        x, status = knapsack_assign(caps, [0.11, 0.52], MIN_LOSS, 25.0)
        assert status == INFEASIBLE
        assert list(x) == caps

    def test_overflowing_total_capacity_meets_any_floor(self):
        # each capacity is finite but their sum overflows to inf
        x, status = knapsack_assign([1e308, 1e308], [0.11, 0.52], MIN_LOSS, 1.0)
        assert status == OPTIMAL
        assert x.tolist() == [1.0, 0.0]

    def test_ties_keep_the_given_order(self):
        caps = [5.0, 5.0, 5.0]
        x, _ = knapsack_assign(caps, [0.2, 0.2, 0.2], MIN_LOSS, 5.0)
        assert list(x) == [5.0, 0.0, 0.0]
        x, _ = knapsack_assign(caps, [0.2, 0.1, 0.1], MIN_LOSS, 7.0)
        assert list(x) == [0.0, 5.0, 2.0]
        # lossless paths all tie, as every path does at z = 1
        x, _ = knapsack_assign(caps, [0.0, 0.0, 0.0], MIN_LOSS, 7.0)
        assert list(x) == [5.0, 2.0, 0.0]


class TestKnapsackOrder:
    """The fill order is ascending loss factor, ties in index order."""

    def test_matches_reference_fill_with_ties(self):
        rng = np.random.default_rng(9)
        for trial in range(200):
            n = int(rng.integers(1, 12))
            caps = rng.choice([0.0, 1.5, 2.0, 7.25], n)
            lams = rng.choice([0.0, 0.1, 0.1, 0.25], n)  # ties and free paths
            total_loss = float(lams @ caps)
            # a floor that the middle positive capacity in fill order
            # meets exactly; every sum of these capacities is exact
            order = sorted(range(n), key=lambda j: (lams[j], j))
            positive = [k for k, j in enumerate(order) if caps[j] > 0]
            stop = positive[len(positive) // 2] + 1 if positive else 0
            boundary = float(sum(caps[j] for j in order[:stop]))
            for objective, bound in (
                (MAX_ENERGY, 0.0),
                (MAX_ENERGY, 0.5 * total_loss),
                (MAX_ENERGY, math.inf),
                (MIN_LOSS, 0.0),
                (MIN_LOSS, 0.5 * float(caps.sum())),
                (MIN_LOSS, float(caps.sum())),
                (MIN_LOSS, float(caps.sum()) + 1.0),
                (MIN_LOSS, boundary),
            ):
                got = knapsack_assign(caps, lams, objective, bound)
                want = reference_fill(caps, lams, objective, bound)
                assert got[1] == want[1], (trial, objective, bound)
                assert got[0].tolist() == want[0].tolist(), (trial, objective)


# capacities and loss factors with ties, signed zeros, and products that overflow
CAPACITIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, 2.0, 7.25, 1e-300, 1e308]),
    st.floats(0.0, 1e3, allow_subnormal=False),
)
LOSS_FACTORS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.1, 0.1, 0.25, 1.0 / 0.9 - 1.0, 10.0]),
    st.floats(0.0, 100.0, allow_subnormal=False),
)


@st.composite
def knapsack_instances(draw):
    """(capacities, loss factors); the cheapest paths in fill order may all
    have zero capacity, like a pair whose window is too short."""
    n = draw(st.integers(0, 12))
    caps = draw(st.lists(CAPACITIES, min_size=n, max_size=n))
    lams = draw(st.lists(LOSS_FACTORS, min_size=n, max_size=n))
    order = sorted(range(n), key=lambda j: (lams[j], j))
    for j in order[: draw(st.integers(0, n))]:
        caps[j] = 0.0
    return caps, lams


def fill_bounds(caps, lams):
    """(objective, bound) pairs: signed zeros, exact sums, midpoints, an inf cap."""
    with np.errstate(over="ignore"):
        total_cap = float(np.sum(caps))
        total_loss = float(np.dot(lams, caps)) if caps else 0.0
    in_order = sum(caps)  # left to right, as the fill spends it
    caps_bounds = [0.0, -0.0, math.inf, total_loss, 0.5 * total_loss, 1.0]
    floors = [0.0, -0.0, total_cap, in_order, 0.5 * total_cap, 2.0 * total_cap + 1.0, 1.0]
    return [(MAX_ENERGY, b) for b in caps_bounds if b == b] + [
        (MIN_LOSS, b) for b in floors if math.isfinite(b)
    ]


class TestArrayFillMatchesLoopOracle:
    """The array fill and totals equal the per-path loop oracle bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(instance=knapsack_instances(), extra=st.floats(0.0, 1e4))
    def test_knapsack_assign(self, instance, extra):
        caps, lams = instance
        bounds = fill_bounds(caps, lams) + [(MAX_ENERGY, extra), (MIN_LOSS, extra)]
        for objective, bound in bounds:
            got = knapsack_assign(caps, lams, objective, bound)
            want = reference_fill(caps, lams, objective, bound)
            assert repr((got[0].tolist(), got[1])) == repr((want[0].tolist(), want[1])), (
                objective, bound,
            )

    @settings(max_examples=150, deadline=None)
    @given(
        shapes=st.lists(
            st.tuples(
                st.integers(1, 3),  # hops
                st.sampled_from([0.25, 0.5, 1.0, 1.75, 3.0]),  # delay per hop, hours
                st.sampled_from([0.0, 30.0, 60.0, 60.0, 80.0]),  # vehicles per hour
            ),
            max_size=20,  # np.sum adds more than eight values pairwise
        ),
        z=st.sampled_from([1e-100, 0.05, 0.5, 0.9, 1.0]),
        packet=st.sampled_from([0.1, 1e306]),
        window=st.sampled_from([0.5, 2.0, 5.0]),
        penetration=st.sampled_from([0.0, 0.001, 1.0]),
    )
    def test_solve(self, shapes, z, packet, window, penetration):
        paths = [
            single_arc_path([delay] * hops, [flow] * hops)[0]
            for hops, delay, flow in shapes
        ]
        params = EnergyParams.with_round_trip(packet, z, window)
        econ = [path_economics(p, params, penetration) for p in paths]
        caps = [e.capacity for e in econ]
        assume(all(math.isfinite(c) for c in caps))
        table = PathTable(paths)
        for objective, bound in fill_bounds(caps, [e.loss_factor for e in econ]):
            request = dict(params=params, objective=objective, penetration=penetration)
            request["loss_cap" if objective == MAX_ENERGY else "delivery_floor"] = bound
            plan = solve(table, **request)
            assert repr(plan) == repr(reference_plan(paths, **request)), (objective, bound)


class TestSolverEquivalence:
    def test_single_path_instances_match_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            caps, lams = random_instance(rng, max_paths=1)
            cap = float(rng.uniform(0, 2 * caps[0] * max(lams[0], 0.1)))
            g, _ = knapsack_assign(caps, lams, MAX_ENERGY, cap)
            l, _ = lp_assign(caps, lams, MAX_ENERGY, cap)
            assert g[0] == pytest.approx(l[0], abs=1e-9)

    def test_greedy_matches_lp_on_random_instances(self):
        rng = np.random.default_rng(6)
        for trial in range(60):
            caps, lams = random_instance(rng, max_paths=40)
            total_cap = caps.sum()
            max_loss = float(lams @ caps)
            cap = float(rng.uniform(0.0, 1.5 * max(max_loss, 1.0)))
            floor = float(rng.uniform(0.0, total_cap))
            for objective, bound in ((MAX_ENERGY, cap), (MIN_LOSS, floor)):
                g, gs = knapsack_assign(caps, lams, objective, bound)
                l, ls = lp_assign(caps, lams, objective, bound)
                assert gs == ls == OPTIMAL
                g_obj = g.sum() if objective == MAX_ENERGY else float(lams @ g)
                l_obj = l.sum() if objective == MAX_ENERGY else float(lams @ l)
                assert abs(g_obj - l_obj) <= 1e-9 * max(1.0, abs(l_obj)), (
                    trial,
                    objective,
                )

    def test_both_match_vertex_oracle_on_tiny_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            caps, lams = random_instance(rng, max_paths=4)
            n = caps.size
            max_loss = float(lams @ caps)
            cap = float(rng.uniform(0.0, 1.2 * max(max_loss, 1.0)))
            g, _ = knapsack_assign(caps, lams, MAX_ENERGY, cap)
            _, _, best = vertex_enumeration_lp(
                np.ones(n), lams.reshape(1, -1), [cap], 0.0, caps, maximize=True
            )
            assert abs(g.sum() - best) <= 1e-9 * max(1.0, abs(best)), trial

            floor = float(rng.uniform(0.0, caps.sum()))
            g2, _ = knapsack_assign(caps, lams, MIN_LOSS, floor)
            _, _, best2 = vertex_enumeration_lp(
                lams, -np.ones((1, n)), [-floor], 0.0, caps, maximize=False
            )
            got = float(lams @ g2)
            assert abs(got - best2) <= 1e-9 * max(1.0, abs(best2)), trial

    def test_plan_feasibility_with_slack_tolerance(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            caps, lams = random_instance(rng, max_paths=30)
            cap = float(rng.uniform(0.0, 1.2 * max(float(lams @ caps), 1.0)))
            for method_assign in (knapsack_assign, lp_assign):
                x, _ = method_assign(caps, lams, MAX_ENERGY, cap)
                tol = 1e-12 * max(1.0, caps.max())
                assert np.all(x >= -tol)
                assert np.all(x <= caps + tol)
                assert float(lams @ x) <= cap + 1e-12 * max(1.0, cap)


class TestPlanRequests:
    def make_plan(self, objective=MAX_ENERGY, **kwargs):
        path, _, _ = single_arc_path([0.5, 0.5], [60.0, 30.0])
        params = EnergyParams.with_round_trip(0.1, 0.9, 5.0)
        return solve_paths((path,), params, objective, **kwargs)

    def test_empty_request_yields_zero_plan(self):
        params = EnergyParams.with_round_trip(0.1, 0.9, 5.0)
        for objective, bounds in (
            (MAX_ENERGY, {"loss_cap": 0.0}),
            (MAX_ENERGY, {"loss_cap": math.inf}),
            (MAX_ENERGY, {"loss_cap": 2.0}),
            (MIN_LOSS, {"delivery_floor": 0.0}),
        ):
            plan = solve_paths((), params, objective, **bounds)
            assert plan == TransferPlan((), 0.0, 0.0, OPTIMAL), (objective, bounds)

    def test_empty_min_loss_with_floor_is_infeasible(self):
        params = EnergyParams.with_round_trip(0.1, 0.9, 5.0)
        plan = solve_paths((), params, MIN_LOSS, delivery_floor=2.0)
        assert plan.status == INFEASIBLE

    def test_invalid_caps_rejected(self):
        with pytest.raises(ValidationError):
            self.make_plan(MAX_ENERGY, loss_cap=-1.0)
        with pytest.raises(ValidationError):
            self.make_plan(MIN_LOSS, delivery_floor=math.inf)
        with pytest.raises(ValidationError, match="unknown objective"):
            self.make_plan("max-profit")
        with pytest.raises(ValidationError, match="penetration"):
            self.make_plan(MAX_ENERGY, penetration=1.5)

    def test_rates_pinned_at_maximum(self, three_routes_scenario):
        generated = generate_scenario(GeneratorConfig(seed=3, junction_count=12,
                                                      arc_count=30, route_count=12))
        assert generated.penetration != three_routes_scenario.penetration
        for s in (three_routes_scenario, generated):
            for pair in solve_scenario(s).pairs:
                columns = zip(pair.paths, pair.plan.energies, pair.rates, pair.losses)
                for path, energy, rate, loss in columns:
                    # the scalar oracle prices each path alone, to the same bits
                    econ = path_economics(path, s.params, s.penetration)
                    assert rate == econ.max_rate
                    assert loss == econ.loss_factor * energy

    def test_totals_recompute_from_assignments(self, three_routes_scenario):
        plan = self.make_plan(MAX_ENERGY)
        assert plan.transferred == sum(plan.energies)
        solution = solve_scenario(
            three_routes_scenario, objective=MIN_LOSS, delivery_floor=10.0
        )
        for pair in solution.pairs:
            plan = pair.plan
            assert len(pair.paths) == len(pair.rates) == len(pair.losses) == len(plan.energies)
            assert plan.transferred == sum(plan.energies)
            assert plan.loss == sum(pair.losses)


def assert_same_plan(plan, ref):
    """Exact equality of every energy, both totals and the status."""
    assert plan.energies == ref.energies
    assert (plan.transferred, plan.loss, plan.status) == (
        ref.transferred,
        ref.loss,
        ref.status,
    )
    assert plan == ref


class TestArrayPlannerMatchesScalarReference:
    """``solve`` prices paths as arrays; the per-path planner is the reference."""

    def pair_paths(self, seed):
        scenario = generate_scenario(
            GeneratorConfig(
                seed=seed,
                junction_count=20,
                arc_count=50,
                route_count=20,
                pair_count=2,
                enumeration=EnumerationConfig(max_hops=3, max_paths=None),
            )
        )
        index = RouteIndex(scenario.network, scenario.routes)
        for source, target in scenario.pairs:
            yield tuple(enumerate_paths(index, source, target, scenario.enumeration))

    def requests(self, paths, z, window, penetration):
        """Keyword arguments of ``solve_paths`` for a grid of caps and floors."""
        params = EnergyParams.with_round_trip(0.1, z, window)
        ref = reference_plan(paths, params, MAX_ENERGY, penetration=penetration)
        total_cap = float(np.sum(ref.energies))  # an uncapped plan saturates every path
        total_loss = ref.loss
        base = dict(paths=paths, params=params, penetration=penetration)
        for cap in (0.0, 0.5 * total_loss, math.inf):
            yield dict(base, objective=MAX_ENERGY, loss_cap=cap)
        for floor in (0.0, 0.5 * total_cap, total_cap, 2.0 * total_cap + 1.0):
            yield dict(base, objective=MIN_LOSS, delivery_floor=floor)

    def test_grid_on_generated_scenarios(self):
        compared = 0
        statuses = set()
        for seed in (3, 4, 5, 6):
            for paths in self.pair_paths(seed):
                delays = sorted(p.delay for p in paths)
                if not delays:
                    continue
                # below every path's delay, between them, above all of them
                windows = (0.5 * delays[0], delays[len(delays) // 2], 2 * delays[-1])
                for z in (0.05, 0.5, 0.9, 1.0):
                    for window in windows:
                        for penetration in (0.0, 1.0):
                            for request in self.requests(paths, z, window, penetration):
                                plan = solve_paths(**request)
                                assert_same_plan(plan, reference_plan(**request))
                                statuses.add(plan.status)
                                compared += 1
        assert compared > 500
        assert statuses == {OPTIMAL, INFEASIBLE}

    def test_simplex_gets_the_same_instance(self):
        for paths in self.pair_paths(6):
            window = 2 * max(p.delay for p in paths)
            for request in self.requests(paths, 0.9, window, 1.0):
                plan = solve_paths(**request)
                lp = reference_plan(**request, lp=True)
                assert plan.status == lp.status
                assert plan.transferred == pytest.approx(lp.transferred, rel=1e-9)
                assert plan.loss == pytest.approx(lp.loss, rel=1e-9, abs=1e-12)


class TestPlanEquality:
    """Plans compare by their energy vectors, not only their totals."""

    def twin_paths(self):
        # two routes over the same arc: identical economics, different paths
        network = build_network([1, 2], [Arc(id=1, tail=1, head=2, delay=1.0)])
        routes = [VehicularRoute(id=i, arcs=(1,), flow=100.0) for i in (1, 2)]
        return [
            energy_path(1, 2, (sub_route(network, r, 1, 1),)) for r in routes
        ]

    def test_equal_totals_different_energies_compare_unequal(self):
        a, b = self.twin_paths()
        params = EnergyParams.with_round_trip(0.1, 0.9, 5.0)

        def plan(paths):
            # the loss cap fills part of the first path in input order
            return solve_paths(paths, params, MAX_ENERGY, loss_cap=0.5)

        ab, ba = plan((a, b)), plan((b, a))
        assert ab.energies[0] > 0.0 == ab.energies[1]
        swapped = dataclasses.replace(ab, energies=ab.energies[::-1])
        assert (swapped.transferred, swapped.loss, swapped.status) == (
            ab.transferred,
            ab.loss,
            ab.status,
        )
        assert swapped != ab
        assert ab == plan((a, b)) and hash(ab) == hash(plan((a, b)))
        # energies are positional: each order fills its own first path
        assert ab == ba
        assert dict(zip((a, b), ab.energies)) != dict(zip((b, a), ba.energies))


class TestPlainDataPlans:
    """Plans hold only their fields, so copies and pickles are ordinary."""

    def request(self, scenario):
        """Keyword arguments of ``solve_paths`` for the scenario's first pair."""
        source, target = scenario.pairs[0]
        index = RouteIndex(scenario.network, scenario.routes)
        paths = enumerate_paths(index, source, target, scenario.enumeration)
        return dict(paths=paths, params=scenario.params, objective=MAX_ENERGY,
                    loss_cap=2.0, penetration=scenario.penetration)

    def test_instance_dict_is_the_fields(self, three_routes_scenario):
        solution = solve_scenario(three_routes_scenario)
        pair = solution.pairs[0]
        plans = [solve_paths(**self.request(three_routes_scenario)), solution, pair, pair.plan]
        for obj in plans:
            names = [f.name for f in dataclasses.fields(obj)]
            assert list(vars(obj)) == names, type(obj).__name__

    def test_pickled_plan_carries_no_paths(self, three_routes_scenario):
        request = self.request(three_routes_scenario)
        plan = solve_paths(**request)
        assert len(plan.energies) == len(request["paths"]) > 0
        assert b"EnergyPath" not in pickle.dumps(plan)

    def test_round_trips_compare_equal(self, three_routes_scenario):
        solution = solve_scenario(three_routes_scenario, loss_cap=2.0)
        pair = solution.pairs[0]
        for obj in (pair.plan, pair, solution):
            for clone in (
                pickle.loads(pickle.dumps(obj)),
                copy.deepcopy(obj),
                dataclasses.replace(obj),
            ):
                assert clone == obj and vars(clone) == vars(obj)
                try:
                    digest = hash(obj)
                except TypeError:
                    continue
                assert hash(clone) == digest


class TestScenarioPipeline:
    def test_saturated_plan_on_fixture(self, three_routes_scenario):
        solution = solve_scenario(three_routes_scenario, objective=MAX_ENERGY)
        pair = solution.pairs[0]
        by_hops = {path.hops: [] for path in pair.paths}
        for path, energy in zip(pair.paths, pair.plan.energies):
            by_hops[path.hops].append(energy)
        # direct route: (5 - 1.75) * 0.9 * 3.0
        assert by_hops[1][0] == pytest.approx(8.775, rel=1e-9)
        two_hop = sorted(by_hops[2])
        assert two_hop == [
            pytest.approx(7.8975, rel=1e-9),  # (5 - 1.75) * 0.81 * 3.0
            pytest.approx(15.795, rel=1e-9),  # (5 - 1.75) * 0.81 * 6.0
        ]
        assert solution.transferred == pytest.approx(32.4675, rel=1e-9)
        s = three_routes_scenario
        for path, energy in zip(pair.paths, pair.plan.energies):
            capacity = path_economics(path, s.params, s.penetration).capacity
            assert energy == pytest.approx(capacity, rel=1e-12)

    def test_methods_agree_on_fixture(self, three_routes_scenario):
        s = three_routes_scenario
        greedy = solve_scenario(s)
        lp = [
            reference_plan(
                pair.paths, s.params, MAX_ENERGY,
                loss_cap=s.loss_cap, penetration=s.penetration, lp=True,
            )
            for pair in greedy.pairs
        ]
        assert greedy.transferred == pytest.approx(
            sum(p.transferred for p in lp), rel=1e-9
        )
        assert greedy.loss == pytest.approx(sum(p.loss for p in lp), rel=1e-9)

    def test_min_loss_floor_on_fixture(self, three_routes_scenario):
        solution = solve_scenario(
            three_routes_scenario, objective=MIN_LOSS, delivery_floor=10.0
        )
        plan = solution.pairs[0].plan
        assert plan.status == OPTIMAL
        assert plan.transferred == pytest.approx(10.0, rel=1e-9)
        # cheapest loss first: the single-hop path saturates at 8.775 kWh,
        # the remainder rides the cheaper two-hop path
        pair = solution.pairs[0]
        energies = {path.hops: [] for path in pair.paths}
        for path, energy in zip(pair.paths, pair.plan.energies):
            energies[path.hops].append(energy)
        assert max(energies[1]) == pytest.approx(8.775, rel=1e-9)

    def test_infeasible_floor_reported(self, three_routes_scenario):
        solution = solve_scenario(
            three_routes_scenario, objective=MIN_LOSS, delivery_floor=1e6
        )
        assert solution.pairs[0].plan.status == INFEASIBLE

    def test_penetration_scales_optimum_linearly(self, three_routes_scenario):
        base = solve_scenario(three_routes_scenario)
        for alpha in (0.5, 0.25, 0.001):
            scaled = dataclasses.replace(three_routes_scenario, penetration=alpha)
            solution = solve_scenario(scaled)
            assert solution.transferred == pytest.approx(
                alpha * base.transferred, rel=1e-9
            )

    def test_monotone_in_efficiency_window_and_packet(self, three_routes_scenario):
        scenario = three_routes_scenario

        def total(z=0.9, window=5.0, packet=0.1):
            params = EnergyParams.with_round_trip(packet, z, window)
            varied = dataclasses.replace(scenario, params=params)
            return solve_scenario(varied).transferred

        zs = [total(z=v) for v in (0.5, 0.7, 0.9, 1.0)]
        assert zs == sorted(zs)
        windows = [total(window=v) for v in (1.0, 2.0, 5.0, 8.0)]
        assert windows == sorted(windows)
        packets = [total(packet=v) for v in (0.05, 0.1, 0.2)]
        assert packets == sorted(packets)

    def test_objective_checked_without_pairs(self, three_routes_scenario):
        no_pairs = dataclasses.replace(three_routes_scenario, pairs=())
        for scenario in (three_routes_scenario, no_pairs):
            with pytest.raises(ValidationError, match="^unknown objective 'bogus'$"):
                solve_scenario(scenario, objective="bogus")


class TestMultiSource:
    """Scenario totals are the in-order sums of independent per-pair plans."""

    def plan_for(self, scenario, source, target):
        index = RouteIndex(scenario.network, scenario.routes)
        paths = enumerate_paths(index, source, target, scenario.enumeration)
        return solve_paths(paths, scenario.params, MAX_ENERGY, penetration=scenario.penetration)

    def test_single_request_matches_plain_solve(self, three_routes_scenario):
        solution = solve_scenario(three_routes_scenario)
        alone = self.plan_for(three_routes_scenario, 1, 4)
        assert solution.pairs[0].plan == alone
        assert solution.transferred == alone.transferred
        assert solution.loss == alone.loss

    def test_aggregate_is_resummation(self, three_routes_scenario):
        pairs = ((1, 4), (2, 4), (1, 5), (2, 5), (3, 4))
        scenario = dataclasses.replace(three_routes_scenario, pairs=pairs)
        solution = solve_scenario(scenario)
        transferred = 0.0
        loss = 0.0
        for (source, target), pair in zip(pairs, solution.pairs):
            plan = self.plan_for(scenario, source, target)
            assert (pair.source, pair.target) == (source, target)
            assert pair.plan == plan
            transferred += plan.transferred
            loss += plan.loss
        assert transferred > 0
        assert solution.transferred == transferred
        assert solution.loss == loss


class TestTradeoffProperties:
    def test_premise_detection(self):
        # retained fraction 0.49 per path: loss factor just above 1
        report = check_tradeoff_properties([10.0], [1.0 / 0.49 - 1.0])
        assert report.premise_holds
        assert report.dominance_violations == 0

    def test_premise_violation_reported_not_raised(self):
        report = check_tradeoff_properties([10.0, 5.0], [0.0, 2.0])
        assert not report.premise_holds
        assert report.offending_paths == (0,)

    def test_monotone_curves_and_saturation(self):
        rng = np.random.default_rng(9)
        caps = rng.uniform(1.0, 20.0, 12)
        hops = rng.integers(1, 4, 12)
        z = rng.uniform(0.2, 0.5, 12)
        lams = 1.0 / z**hops - 1.0
        max_loss = float(lams @ caps)
        report = check_tradeoff_properties(
            caps,
            lams,
            loss_caps=(0.0, 1.0, 10.0, max_loss, 1e6),
            samples=500,
        )
        assert report.premise_holds
        assert report.energy_monotone
        assert report.energy_saturates
        assert report.loss_monotone
        assert report.dominance_violations == 0

    def test_sampling_counts_violations_when_premise_fails(self):
        report = check_tradeoff_properties([10.0], [0.1], samples=200, seed=1)
        assert not report.premise_holds
        assert report.dominance_violations > 0

    def test_weak_duality_chain_on_joint_region(self):
        # with every loss factor >= 1, any point feasible for both caps
        # satisfies floor <= transferred <= loss <= cap
        rng = np.random.default_rng(12)
        caps = rng.uniform(0.5, 20.0, 10)
        lams = 1.0 / rng.uniform(0.2, 0.5, 10) - 1.0
        floor = 0.2 * float(caps.sum())
        loss_cap = 0.9 * float(lams @ caps)
        tol = 1e-9 * max(1.0, loss_cap)
        found_feasible = 0
        for _ in range(2000):
            x = rng.uniform(0.0, 1.0, 10) * caps
            transferred = float(x.sum())
            loss = float(lams @ x)
            if transferred < floor or loss > loss_cap:
                continue  # outside the joint region
            found_feasible += 1
            assert floor <= transferred + tol
            assert transferred <= loss + tol
            assert loss <= loss_cap + tol
        assert found_feasible > 0
