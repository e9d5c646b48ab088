"""Sweep the four system parameters on a desk-scale generated scenario.

For each of round-trip efficiency z, window T, packet size w, and EV
penetration, one sweep varies the parameter while the others stay at their
nominal values (z=0.9, T=5 h, w=0.1 kWh, penetration=0.001). Each sweep
writes a plot-ready CSV next to this script and prints the trend; the z
sweep also names the two swept values between which the loss stops
exceeding the delivered energy.

Run from the repository root:  python3 demos/parameter_sweeps.py
"""

import pathlib

from venplan import (
    GeneratorConfig,
    SweepSpec,
    generate_scenario,
    run_sweep,
    sweep_to_csv,
)

OUT = pathlib.Path("demos/out")
OUT.mkdir(parents=True, exist_ok=True)

scenario = generate_scenario(GeneratorConfig(seed=60))
print(f"desk-scale scenario: {len(scenario.network.junctions)} junctions, "
      f"{len(scenario.routes)} routes, {len(scenario.pairs)} pairs")

sweeps = {
    "z": tuple(v / 20 for v in range(1, 20)),
    "T": (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0),
    "w": (0.02, 0.05, 0.1, 0.2, 0.5),
    "penetration": (0.00025, 0.0005, 0.001, 0.002, 0.004),
}

for parameter, values in sweeps.items():
    result = run_sweep(scenario, SweepSpec(parameter=parameter, values=values))
    path = OUT / f"sweep_{parameter}.csv"
    path.write_text(sweep_to_csv(result), newline="")
    first, last = result.points[0], result.points[-1]
    print(f"\nsweep over {parameter}: {len(values)} values -> {path}")
    print(f"  transferred {first.transferred:g} -> {last.transferred:g} kWh")
    print(f"  loss        {first.loss:g} -> {last.loss:g} kWh")
    if parameter == "z":
        bracket = next(((a.value, b.value) for a, b in zip(result.points, result.points[1:])
                        if a.loss > a.transferred and b.loss <= b.transferred), None)
        if bracket is not None:
            print(f"  the loss exceeds the delivered energy at z = {bracket[0]:g} "
                  f"but not at z = {bracket[1]:g}")
    if parameter == "penetration":
        ratios = {round(p.transferred / p.value, 6) for p in result.points}
        print(f"  transferred/penetration is constant: {sorted(ratios)}")
