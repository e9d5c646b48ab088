"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria, tolerances, and time budgets:

1. Three-route worked example: enumeration returns exactly the three known
   paths, deterministically ordered, in under 1 s.
2. Enumeration completeness: on 50 seeded random scenarios (<= 8 junctions,
   <= 6 routes, hop cap <= 4, no result cap) the enumerated sets equal
   brute-force concatenation sets exactly, in under 30 s total.
3. Solver equivalence: on 200 seeded random instances (<= 100 paths) the
   greedy fill and the tests' simplex LP oracle agree within 1e-9 relative
   for both objectives; on instances with <= 4 paths both also match a
   vertex-enumeration oracle within 1e-9. Under 60 s total.
4. Loss-dominance and monotonicity: when every path retains at most half
   its energy, 1000 sampled feasible plans all lose at least what they
   deliver; the max-energy optimum is nondecreasing in the loss cap and
   saturates at total capacity; the min-loss optimum is nondecreasing in
   the delivery floor. Zero violations.
5. Conservation: injected == delivered + loss within 1e-12 relative over
   10^4 random (path, energy) samples.
6. Trend suite on the seed-fixed desk-scale scenario: transferred energy
   nondecreasing in efficiency, window, and packet size; exactly linear in
   penetration (relative deviation <= 1e-9) with an unbounded loss cap; a
   loss/transfer crossover efficiency exists, and equals 0.5 within 1e-9
   on an all-single-hop scenario. Under 2 min.
7. Scenario round-trip: parse(serialize(s)) == s over 100 generated
   scenarios; byte-identical regeneration under a fixed seed.
8. Scale smoke test: a 998-junction / 2470-arc / 4788-route scenario
   enumerates 20 paths per pair for 10 pairs and solves both problems in
   under 5 min.
"""

import math
import random
import time

import numpy as np

from venplan import (
    EnumerationConfig,
    GeneratorConfig,
    MAX_ENERGY,
    MIN_LOSS,
    OPTIMAL,
    RouteIndex,
    SweepSpec,
    enumerate_paths,
    generate_scenario,
    knapsack_assign,
    parse_scenario,
    run_sweep,
    serialize_scenario,
    solve,
    solve_scenario,
)
from venplan.energetics import EnergyParams

from _oracles import (
    PathTable,
    brute_force_paths,
    find_crossover,
    lp_assign,
    path_loss,
    source_injection,
    vertex_enumeration_lp,
)
from _properties import check_tradeoff_properties
from conftest import single_arc_path


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance {number}] {name}: {status}")
    assert not failures, f"criterion {number} ({name}): {failures[:5]}"


def small_config(seed: int) -> GeneratorConfig:
    rng = random.Random(seed)
    junctions = rng.randint(4, 8)
    max_arcs = junctions * (junctions - 1)
    return GeneratorConfig(
        seed=seed,
        junction_count=junctions,
        arc_count=min(max_arcs, junctions + rng.randint(1, 6)),
        route_count=rng.randint(2, 6),
        pair_count=1,
        enumeration=EnumerationConfig(max_hops=rng.randint(2, 4), max_paths=None),
    )


def test_criterion_1_worked_example(three_routes_scenario):
    failures = []
    s = three_routes_scenario
    started = time.perf_counter()
    paths = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)
    elapsed = time.perf_counter() - started
    expected = [
        ((3, 1, 3),),
        ((1, 1, 1), (2, 2, 2)),
        ((3, 1, 1), (2, 1, 2)),
    ]
    got = [tuple((g.route_id, g.start, g.end) for g in p.segments) for p in paths]
    if got != expected:
        failures.append(f"paths {got} != {expected}")
    rerun = enumerate_paths(RouteIndex(s.network, s.routes), 1, 4, s.enumeration)
    if list(rerun) != list(paths):
        failures.append("enumeration is not deterministic")
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s (budget 1s)")
    _report(1, "three-route worked example", failures)


def test_criterion_2_enumeration_completeness():
    failures = []
    started = time.perf_counter()
    pair_checks = 0
    for seed in range(1, 51):
        scenario = generate_scenario(small_config(seed))
        net, routes = scenario.network, scenario.routes
        hops = scenario.enumeration.max_hops
        config = EnumerationConfig(max_hops=hops, max_paths=None)
        index = RouteIndex(net, routes)
        for s in sorted(net.junctions):
            for t in sorted(net.junctions):
                if s == t:
                    continue
                found = enumerate_paths(index, s, t, config)
                expected = brute_force_paths(net, routes, s, t, hops)
                pair_checks += 1
                if list(found) != expected:
                    failures.append(f"seed {seed} pair ({s},{t}) mismatch")
    elapsed = time.perf_counter() - started
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (budget 30s)")
    print(f"\n  criterion 2: {pair_checks} pair checks in {elapsed:.1f}s")
    _report(2, "enumeration equals brute force on 50 scenarios", failures)


def test_criterion_3_solver_equivalence():
    failures = []
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(200):
        n = int(rng.integers(1, 5)) if trial % 5 == 0 else int(rng.integers(1, 101))
        caps = rng.uniform(0.0, 50.0, n)
        hops = rng.integers(1, 6, n)
        z = np.where(rng.random(n) < 0.1, 1.0, rng.uniform(0.3, 1.0, n))
        lams = 1.0 / z**hops - 1.0
        max_loss = float(lams @ caps)
        cap = math.inf if rng.random() < 0.2 else float(
            rng.uniform(0.0, 1.5 * max(max_loss, 1.0))
        )
        floor = float(rng.uniform(0.0, 1.2 * caps.sum()))
        for objective, bound in ((MAX_ENERGY, cap), (MIN_LOSS, floor)):
            g, gs = knapsack_assign(caps, lams, objective, bound)
            l, ls = lp_assign(caps, lams, objective, bound)
            if gs != ls:
                failures.append(f"trial {trial} {objective}: status {gs} vs {ls}")
                continue
            if objective == MAX_ENERGY:
                g_obj, l_obj = float(g.sum()), float(l.sum())
            else:
                g_obj, l_obj = float(lams @ g), float(lams @ l)
            if abs(g_obj - l_obj) > 1e-9 * max(1.0, abs(l_obj)):
                failures.append(f"trial {trial} {objective}: {g_obj} vs {l_obj}")
            if n <= 4 and gs == OPTIMAL:
                if objective == MAX_ENERGY and math.isfinite(cap):
                    status, _, best = vertex_enumeration_lp(
                        np.ones(n), lams.reshape(1, -1), [cap], 0.0, caps
                    )
                elif objective == MAX_ENERGY:
                    status, best = OPTIMAL, float(caps.sum())
                else:
                    status, _, best = vertex_enumeration_lp(
                        lams, -np.ones((1, n)), [-floor], 0.0, caps, maximize=False
                    )
                if status != OPTIMAL:
                    failures.append(f"trial {trial}: oracle status {status}")
                elif abs(g_obj - best) > 1e-9 * max(1.0, abs(best)):
                    failures.append(f"trial {trial}: oracle {best} vs {g_obj}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s (budget 60s)")
    print(f"\n  criterion 3: 200 instances x 2 objectives in {elapsed:.1f}s")
    _report(3, "greedy, simplex, and vertex oracle agree", failures)


def test_criterion_4_loss_dominance_and_monotonicity():
    failures = []
    rng = np.random.default_rng(4)
    caps = rng.uniform(0.5, 30.0, 25)
    hops = rng.integers(1, 4, 25)
    z = rng.uniform(0.2, 0.5, 25)  # retained fraction per path <= 1/2
    lams = 1.0 / z**hops - 1.0
    max_loss = float(lams @ caps)
    report = check_tradeoff_properties(
        caps,
        lams,
        loss_caps=(0.0, 1.0, 10.0, 0.5 * max_loss, max_loss, 1e6),
        floors=tuple(f * float(caps.sum()) for f in (0.0, 0.2, 0.5, 0.8, 1.0)),
        samples=1000,
        seed=4,
    )
    if not report.premise_holds:
        failures.append(f"premise unexpectedly fails: {report.offending_paths[:5]}")
    if report.dominance_violations:
        failures.append(f"{report.dominance_violations}/1000 sampled plans broke loss >= transferred")
    if not report.energy_monotone:
        failures.append(f"max-energy curve not monotone: {report.energy_curve}")
    if not report.energy_saturates:
        failures.append(f"no saturation at total capacity: {report.energy_curve[-1]}")
    if not report.loss_monotone:
        failures.append(f"min-loss curve not monotone: {report.loss_curve}")
    # premise violations must be reported, not raised
    violated = check_tradeoff_properties([5.0, 5.0], [0.2, 3.0], samples=100)
    if violated.premise_holds or violated.offending_paths != (0,):
        failures.append("premise violation not reported")
    _report(4, "loss dominance, monotone optima, saturation", failures)


def test_criterion_5_conservation():
    failures = []
    rng = np.random.default_rng(5)
    paths = [single_arc_path([1.0] * h, [100.0] * h)[0] for h in range(1, 7)]
    violations = 0
    worst = 0.0
    for i in range(10_000):
        path = paths[i % 6]
        params = EnergyParams.with_round_trip(
            packet_size=0.1, efficiency=float(rng.uniform(0.05, 1.0)), window=5.0
        )
        energy = float(rng.uniform(0.0, 1e4))
        injected = source_injection(path, params, energy)
        residual = abs(injected - energy - path_loss(path, params, energy))
        bound = 1e-12 * max(1.0, injected)
        worst = max(worst, residual / max(1.0, injected))
        if residual > bound:
            violations += 1
    if violations:
        failures.append(f"{violations}/10000 samples broke conservation")
    print(f"\n  criterion 5: worst relative residual {worst:.2e}")
    _report(5, "injection equals delivery plus loss (1e-12)", failures)


def test_criterion_6_trend_suite():
    failures = []
    started = time.perf_counter()
    desk = generate_scenario(GeneratorConfig(seed=60))

    def transferred_curve(parameter, values, **kwargs):
        spec = SweepSpec(parameter=parameter, values=values, **kwargs)
        return run_sweep(desk, spec)

    z_sweep = transferred_curve("z", tuple(v / 20 for v in range(1, 20)))
    t_sweep = transferred_curve("T", (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0))
    w_sweep = transferred_curve("w", (0.02, 0.05, 0.1, 0.2, 0.5))
    for name, result in (("z", z_sweep), ("T", t_sweep), ("w", w_sweep)):
        values = [p.transferred for p in result.points]
        if any(b < a - 1e-12 for a, b in zip(values, values[1:])):
            failures.append(f"transferred not nondecreasing in {name}: {values}")
        if values[-1] <= 0:
            failures.append(f"{name} sweep never transfers energy")

    pen_sweep = transferred_curve(
        "penetration", (0.00025, 0.0005, 0.001, 0.002, 0.004)
    )
    ratios = [p.transferred / p.value for p in pen_sweep.points]
    for ratio in ratios[1:]:
        if abs(ratio - ratios[0]) > 1e-9 * max(1.0, abs(ratios[0])):
            failures.append(f"penetration not linear: ratios {ratios}")
            break

    crossover = find_crossover(z_sweep)
    if crossover is None:
        failures.append("no loss/transfer crossover on the desk scenario")

    single_hop = generate_scenario(
        GeneratorConfig(
            seed=61, enumeration=EnumerationConfig(max_hops=1, max_paths=20)
        )
    )
    spec = SweepSpec(parameter="z", values=(0.3, 0.4, 0.45, 0.49, 0.51, 0.6, 0.8))
    z_star = find_crossover(run_sweep(single_hop, spec))
    if z_star is None or abs(z_star - 0.5) > 1e-9:
        failures.append(f"single-hop crossover {z_star} != 0.5")

    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s (budget 120s)")
    print(f"\n  criterion 6: desk-scale sweeps in {elapsed:.1f}s, "
          f"single-hop crossover {z_star!r}")
    _report(6, "desk-scale trends and crossover", failures)


def test_criterion_7_round_trip_and_determinism():
    failures = []
    for seed in range(100, 200):
        rng = random.Random(seed)
        junctions = rng.randint(10, 40)
        config = GeneratorConfig(
            seed=seed,
            junction_count=junctions,
            arc_count=min(rng.randint(60, 120), junctions * (junctions - 1)),
            route_count=rng.randint(5, 30),
            pair_count=rng.randint(1, 3),
        )
        scenario = generate_scenario(config)
        text = serialize_scenario(scenario)
        if parse_scenario(text) != scenario:
            failures.append(f"seed {seed}: round trip not identical")
        if serialize_scenario(generate_scenario(config)) != text:
            failures.append(f"seed {seed}: regeneration not byte-identical")
    _report(7, "round-trip identity and seeded determinism (100 scenarios)", failures)


def test_criterion_8_scale_smoke():
    failures = []
    started = time.perf_counter()
    config = GeneratorConfig(
        seed=80,
        junction_count=998,
        arc_count=2470,
        route_count=4788,
        pair_count=10,
        delay_range=(0.05, 0.5),
        enumeration=EnumerationConfig(max_hops=4, max_paths=20),
    )
    scenario = generate_scenario(config)
    if len(scenario.network.junctions) != 998 or len(scenario.network.arcs) != 2470:
        failures.append("network size mismatch")
    if len(scenario.routes) != 4788 or len(scenario.pairs) != 10:
        failures.append("route or pair count mismatch")

    max_energy = solve_scenario(scenario, objective=MAX_ENERGY)
    for pair in max_energy.pairs:
        if len(pair.paths) != 20:
            failures.append(
                f"pair ({pair.source},{pair.target}): {len(pair.paths)} paths != 20"
            )
    if not max_energy.transferred > 0:
        failures.append("no energy transferred at scale")

    min_loss = [
        solve(
            PathTable(pair.paths),
            scenario.params,
            MIN_LOSS,
            delivery_floor=pair.plan.transferred / 2,
            penetration=scenario.penetration,
        )
        for pair in max_energy.pairs
    ]
    if any(plan.status != OPTIMAL for plan in min_loss):
        failures.append("min-loss at half capacity unexpectedly infeasible")

    elapsed = time.perf_counter() - started
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s (budget 300s)")
    print(f"\n  criterion 8: full-scale build and both solves in {elapsed:.1f}s "
          f"(transferred {max_energy.transferred:.3f} kWh)")
    _report(8, "full-scale smoke test", failures)
