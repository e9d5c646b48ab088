import numpy as np
import pytest
from scipy.optimize import linprog

from venplan import INFEASIBLE, OPTIMAL

from _oracles import vertex_enumeration_lp
from _simplex import UNBOUNDED, solve_lp


class TestBasics:
    def test_single_variable_row_bound(self):
        res = solve_lp([1.0], [[1.0]], [5.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-9)
        assert res.x[0] == pytest.approx(5.0, abs=1e-9)

    def test_single_variable_box_bound(self):
        res = solve_lp([1.0], upper=[5.0])
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(5.0, abs=1e-9)

    def test_minimization(self):
        res = solve_lp([2.0], lower=[1.5], upper=[9.0], maximize=False)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(3.0, abs=1e-9)

    def test_unbounded(self):
        res = solve_lp([1.0])
        assert res.status == UNBOUNDED

    def test_infeasible_row(self):
        res = solve_lp([1.0], [[1.0]], [-1.0])  # x <= -1 with x >= 0
        assert res.status == INFEASIBLE

    def test_crossed_bounds_infeasible(self):
        res = solve_lp([1.0], lower=[2.0], upper=[1.0])
        assert res.status == INFEASIBLE

    def test_phase_one_feasible_start(self):
        # x1 + x2 >= 2 expressed as -x1 - x2 <= -2; minimize x1 + 3 x2
        res = solve_lp(
            [1.0, 3.0], [[-1.0, -1.0]], [-2.0], upper=[5.0, 5.0], maximize=False
        )
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(2.0, abs=1e-9)
        assert res.x == pytest.approx([2.0, 0.0], abs=1e-9)

    def test_free_variable_pinned_by_rows(self):
        # x <= 3 and -x <= -3 force x = 3 despite free bounds.
        res = solve_lp(
            [1.0],
            [[1.0], [-1.0]],
            [3.0, -3.0],
            lower=[-np.inf],
            upper=[np.inf],
        )
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(3.0, abs=1e-9)

    def test_negative_lower_bounds(self):
        res = solve_lp([1.0, 1.0], [[1.0, 1.0]], [0.0], lower=[-2.0, -3.0],
                       maximize=True)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(0.0, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp([1.0, 2.0], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0, 2.0]], [1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [1.0, 2.0])

    def test_nonfinite_data_rejected(self):
        with pytest.raises(ValueError):
            solve_lp([np.inf], [[1.0]], [1.0])
        with pytest.raises(ValueError):
            solve_lp([1.0], [[1.0]], [np.nan])
        with pytest.raises(ValueError):
            solve_lp([1.0], lower=[np.nan])


class TestPlannerShapedPrograms:
    def test_loss_capped_fill(self):
        caps = np.array([10.0, 10.0])
        lams = np.array([0.11, 0.52])
        res = solve_lp(np.ones(2), lams.reshape(1, -1), [1.63], upper=caps)
        assert res.status == OPTIMAL
        assert res.x[0] == pytest.approx(10.0, abs=1e-9)
        assert res.x[1] == pytest.approx((1.63 - 1.1) / 0.52, abs=1e-9)

    def test_delivery_floor(self):
        caps = np.array([10.0, 10.0])
        lams = np.array([0.11, 0.52])
        res = solve_lp(lams, [[-1.0, -1.0]], [-12.0], upper=caps, maximize=False)
        assert res.status == OPTIMAL
        assert res.objective == pytest.approx(10 * 0.11 + 2 * 0.52, abs=1e-9)

    def test_floor_above_capacity_infeasible(self):
        res = solve_lp([0.5], [[-1.0]], [-3.0], upper=[2.0], maximize=False)
        assert res.status == INFEASIBLE


class TestAgainstVertexOracle:
    def test_small_random_instances(self):
        rng = np.random.default_rng(17)
        for trial in range(60):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(0, 4))
            c = rng.normal(size=n)
            a = rng.normal(size=(m, n)) if m else None
            upper = rng.uniform(0.5, 4.0, size=n)
            if m:
                interior = rng.uniform(0.0, 1.0, size=n) * upper
                b = a @ interior + rng.uniform(0.0, 2.0, size=m)
            else:
                b = None
            maximize = bool(rng.integers(0, 2))
            res = solve_lp(c, a, b, lower=0.0, upper=upper, maximize=maximize)
            status, _, best = vertex_enumeration_lp(
                c, a, b, 0.0, upper, maximize=maximize
            )
            assert res.status == status == OPTIMAL, trial
            scale = max(1.0, abs(best))
            assert abs(res.objective - best) <= 1e-9 * scale, trial


class TestAgainstScipy:
    def test_random_instances_match_linprog(self):
        rng = np.random.default_rng(23)
        statuses = {OPTIMAL: 0, INFEASIBLE: 0, UNBOUNDED: 0}
        for trial in range(150):
            n = int(rng.integers(1, 8))
            m = int(rng.integers(0, 6))
            c = np.round(rng.normal(size=n), 3)
            a = np.round(rng.normal(size=(m, n)), 3) if m else None
            b = np.round(rng.normal(size=m), 3) if m else None
            lower = np.where(rng.random(n) < 0.8, 0.0, -rng.uniform(0, 3, n))
            upper = np.where(
                rng.random(n) < 0.7, rng.uniform(0.5, 5.0, n), np.inf
            )
            upper = np.maximum(upper, lower)
            maximize = bool(rng.integers(0, 2))

            res = solve_lp(c, a, b, lower=lower, upper=upper, maximize=maximize)
            ref = linprog(
                -c if maximize else c,
                A_ub=a,
                b_ub=b,
                bounds=list(zip(lower, upper)),
                method="highs",
            )
            if ref.status == 2:
                expected = INFEASIBLE
            elif ref.status == 3:
                expected = UNBOUNDED
            else:
                assert ref.status == 0, f"unexpected scipy status {ref.status}"
                expected = OPTIMAL
            assert res.status == expected, (trial, res.status, expected)
            statuses[expected] += 1
            if expected == OPTIMAL:
                ref_val = -ref.fun if maximize else ref.fun
                scale = max(1.0, abs(ref_val))
                assert abs(res.objective - ref_val) <= 1e-6 * scale, trial
        # the generator should exercise all three outcomes
        assert all(count > 0 for count in statuses.values()), statuses
