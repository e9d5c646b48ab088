"""Command-line interface: validate, enumerate, solve, sweep, generate.

Exit codes: 0 on success, 1 when standard output is closed before all of
it is written (a reader such as ``head`` that leaves early), 2 for
command-line usage errors (argparse's, an output file that cannot be
written, two outputs naming one file, or ``--meta`` without ``--output``), 3
for scenario file/parse problems, and 4 for semantic validation failures,
overflowing numbers and inputs too large for memory. Every machine-readable
output records the scenario hash, the seed (when known) and the tool version.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from typing import Optional, Sequence

from ._version import __version__
from .errors import ScenarioFormatError, ValidationError
from .paths import FULL_ROUTE, PER_HOP, EnergyPath, EnumerationConfig, enumerate_paths
from .planner import GREEDY, MAX_ENERGY, MIN_LOSS, ScenarioSolution, solve_scenario
from .scenario import (
    GeneratorConfig,
    Scenario,
    generate_scenario,
    parse_scenario,
    scenario_hash,
    serialize_scenario,
)
from .sweep import (
    SWEEP_PARAMETERS,
    SweepSpec,
    run_sweep,
    sweep_metadata,
    sweep_to_csv,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_VALIDATION = 4

SEED_ENV_VAR = "VENPLAN_SEED"


class _UsageError(Exception):
    """A command line that cannot be carried out; exits 2, like argparse."""


def _load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioFormatError(
            f"scenario file {path!r} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from None
    return parse_scenario(text)


def _provenance(scenario: Scenario, solver: Optional[str] = None) -> dict:
    record = {
        "scenario_sha256": scenario_hash(scenario),
        "seed": scenario.seed,
        "tool_version": __version__,
    }
    if solver is not None:
        record["solver"] = solver
    return record


def _path_to_dict(path: EnergyPath) -> dict:
    return {
        "source": path.source,
        "target": path.target,
        "hops": path.hops,
        "delay_hours": path.delay,
        "bottleneck_flow": path.bottleneck_flow,
        "segments": [
            {
                "route": seg.route_id,
                "start": seg.start,
                "end": seg.end,
                "entry": seg.entry,
                "exit": seg.exit,
                "delay_hours": seg.delay,
                "flow": seg.flow,
            }
            for seg in path.segments
        ],
    }


def _solution_to_dict(scenario: Scenario, solution: ScenarioSolution) -> dict:
    return {
        "provenance": _provenance(scenario, GREEDY),
        "objective": solution.objective,
        "transferred_kwh": solution.transferred,
        "loss_kwh": solution.loss,
        "pairs": [
            {
                "source": pair.source,
                "target": pair.target,
                "status": pair.plan.status,
                "transferred_kwh": pair.plan.transferred,
                "loss_kwh": pair.plan.loss,
                "assignments": [
                    {
                        "path": _path_to_dict(path),
                        "energy_kwh": energy,
                        "rate_kwh_per_hour": rate,
                        "loss_kwh": loss,
                    }
                    for path, energy, rate, loss in zip(
                        pair.paths, pair.plan.energies, pair.rates, pair.losses
                    )
                ],
            }
            for pair in solution.pairs
        ],
    }


def _check_totals(*totals: float) -> None:
    """Reject plan totals that overflowed, rather than write inf."""
    if not all(map(math.isfinite, totals)):
        raise ValidationError("plan totals overflow to infinity; the inputs are too large")


def _json_text(payload: dict) -> str:
    """JSON text of ``payload``; a number that overflowed to inf or nan is an error."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        raise ValidationError("an output number is not finite; the inputs are too large") from None


def _write_outputs(*outputs: tuple[str, str]) -> None:
    """Write each (path, text) in place, or none if one cannot be opened or
    two name the same file.

    Every path is opened before any is written, in append mode so that an
    existing file keeps its bytes until it is written; the files this call
    created are removed again when a later output fails to open or turns
    out to be an earlier one, found by device and inode, so that aliases
    and links count too.
    """
    handles: list = []
    created: list[str] = []
    try:
        with contextlib.ExitStack() as stack:  # closing, and so flushing, is in the try
            for path, _ in outputs:
                new = not os.path.exists(path)  # a link to no file creates its target
                handles.append(stack.enter_context(open(path, "a", encoding="utf-8", newline="")))
                if new:
                    created.append(os.path.realpath(path))
            files = [(s.st_dev, s.st_ino) for s in (os.fstat(h.fileno()) for h in handles)]
            for i, file in enumerate(files):
                if file in files[:i]:
                    for done in created:
                        os.remove(done)
                    earlier = outputs[files.index(file)][0]
                    raise _UsageError(f"{earlier!r} and {outputs[i][0]!r} are the same file")
            for handle, (path, text) in zip(handles, outputs):
                if os.path.isfile(path):
                    handle.truncate(0)
                handle.write(text)
    except OSError as exc:
        if len(handles) < len(outputs):
            for done in created:
                os.remove(done)
        raise _UsageError(f"cannot write {path!r}: {exc.strerror}") from None


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    print(
        f"ok: {len(scenario.network.junctions)} junctions, "
        f"{len(scenario.network.arcs)} arcs, {len(scenario.routes)} routes, "
        f"{len(scenario.pairs)} pairs (sha256 {scenario_hash(scenario)[:12]})"
    )
    return EXIT_OK


def _enumeration_override(args: argparse.Namespace, base: EnumerationConfig):
    max_hops = base.max_hops if args.max_hops is None else args.max_hops
    max_paths = base.max_paths if args.max_paths is None else args.max_paths
    if max_paths == 0:
        max_paths = None  # 0 on the command line removes the cap
    mode = base.mode if args.mode is None else args.mode
    return EnumerationConfig(max_hops=max_hops, max_paths=max_paths, mode=mode)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    config = _enumeration_override(args, scenario.enumeration)
    if (args.source is None) != (args.target is None):
        raise ValidationError("--source and --target must be given together")
    if args.source is not None:
        pairs = [(args.source, args.target)]
    else:
        pairs = list(scenario.pairs)
    # every pair is enumerated, and with -o its paths built once for both reports
    # and its JSON built, before anything is printed, so a rejected run prints nothing
    found = [(s, t, enumerate_paths(scenario.index, s, t, config)) for s, t in pairs]
    if args.output:
        found = [(s, t, list(table)) for s, t, table in found]
        report = [{"source": s, "target": t, "paths": [_path_to_dict(p) for p in paths]}
                  for s, t, paths in found]
        text = _json_text({"provenance": _provenance(scenario), "pairs": report})
    for source, target, paths in found:
        print(f"{source} -> {target}: {len(paths)} paths")
        for path in paths:
            segs = ", ".join(
                f"r{seg.route_id}[{seg.start}:{seg.end}]" for seg in path.segments
            )
            print(f"  hops={path.hops} delay={path.delay:g}h via {segs}")
    if args.output:
        _write_outputs((args.output, text))
    return EXIT_OK


def _cmd_solve(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.scenario)
    solution = solve_scenario(
        scenario,
        objective=args.objective,
        loss_cap=args.loss_cap,
        delivery_floor=args.delivery_floor,
    )
    _check_totals(solution.transferred, solution.loss)
    text = _json_text(_solution_to_dict(scenario, solution)) if args.output else None
    for pair in solution.pairs:
        print(
            f"{pair.source} -> {pair.target}: {pair.plan.status}, "
            f"transferred {pair.plan.transferred:g} kWh, "
            f"loss {pair.plan.loss:g} kWh over {len(pair.paths)} paths"
        )
    print(
        f"total: transferred {solution.transferred:g} kWh, "
        f"loss {solution.loss:g} kWh across {len(solution.pairs)} pairs"
    )
    if args.output:
        _write_outputs((args.output, text))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.meta and not args.output:
        raise _UsageError("--meta requires --output")
    scenario = _load_scenario(args.scenario)
    try:
        values = tuple(float(v) for v in args.values.split(","))
    except ValueError:
        raise ValidationError(f"--values must be comma-separated numbers, got {args.values!r}")
    spec = SweepSpec(
        parameter=args.parameter,
        values=values,
        nominal_efficiency=args.efficiency,
        nominal_window=args.window,
        nominal_packet_size=args.packet_size,
        nominal_penetration=args.penetration,
    )
    result = run_sweep(
        scenario,
        spec,
        objective=args.objective,
        loss_cap=args.loss_cap,
        delivery_floor=args.delivery_floor,
    )
    _check_totals(*(total for p in result.points for total in (p.transferred, p.loss)))
    text = sweep_to_csv(result)
    if args.output:
        meta_path = args.meta or args.output + ".meta.json"
        metadata = _json_text(sweep_metadata(result))
        _write_outputs((args.output, text), (meta_path, metadata))
        print(f"wrote {len(result.points)} sweep rows to {args.output} "
              f"(metadata: {meta_path})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            raise ValidationError(
                f"a seed is required: pass --seed or set {SEED_ENV_VAR}"
            )
        try:
            seed = int(env)
        except ValueError:
            raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}")
    config = GeneratorConfig(
        seed=seed,
        junction_count=args.junctions,
        arc_count=args.arcs,
        route_count=args.routes,
        pair_count=args.pairs,
        max_route_length=args.max_route_length,
        enumeration=_enumeration_override(args, GeneratorConfig(seed).enumeration),
        penetration=args.penetration,
    )
    scenario = generate_scenario(config)
    text = serialize_scenario(scenario)
    if args.output:
        _write_outputs((args.output, text))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()  # = scenario_hash(scenario)
        print(f"wrote scenario (seed {seed}, sha256 {digest[:12]}) to {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="venplan",
        description="Plan energy transport over road networks carried by EV routes.",
    )
    parser.add_argument("--version", action="version", version=f"venplan {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and validate a scenario file")
    p_validate.add_argument("scenario")
    p_validate.set_defaults(func=_cmd_validate)

    p_enum = sub.add_parser("enumerate", help="enumerate energy paths")
    p_enum.add_argument("scenario")
    p_enum.add_argument("--source", type=int)
    p_enum.add_argument("--target", type=int)
    p_enum.add_argument("--max-hops", type=int)
    p_enum.add_argument("--max-paths", type=int, help="0 removes the cap")
    p_enum.add_argument("--mode", choices=[FULL_ROUTE, PER_HOP])
    p_enum.add_argument("-o", "--output", help="write enumerated paths as JSON")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_solve = sub.add_parser("solve", help="solve the planning problem per pair")
    p_solve.add_argument("scenario")
    p_solve.add_argument(
        "--objective", choices=[MAX_ENERGY, MIN_LOSS], default=MAX_ENERGY
    )
    p_solve.add_argument("--loss-cap", type=float, default=None,
                         help="kWh; overrides the scenario's cap; inf allowed")
    p_solve.add_argument("--delivery-floor", type=float, default=None,
                         help="kWh; overrides the scenario's floor")
    p_solve.add_argument("-o", "--output", help="write the plan as JSON")
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="sweep one parameter, emit CSV")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument(
        "--parameter", required=True, choices=SWEEP_PARAMETERS
    )
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated, strictly increasing")
    p_sweep.add_argument(
        "--objective", choices=[MAX_ENERGY, MIN_LOSS], default=MAX_ENERGY
    )
    p_sweep.add_argument("--efficiency", type=float, default=SweepSpec.nominal_efficiency,
                         help="nominal round-trip efficiency z")
    p_sweep.add_argument("--window", type=float, default=SweepSpec.nominal_window,
                         help="nominal window T in hours")
    p_sweep.add_argument("--packet-size", type=float, default=SweepSpec.nominal_packet_size,
                         help="nominal packet size w in kWh")
    p_sweep.add_argument("--penetration", type=float, default=SweepSpec.nominal_penetration,
                         help="nominal EV participation fraction")
    p_sweep.add_argument("--loss-cap", type=float, default=math.inf)
    p_sweep.add_argument("--delivery-floor", type=float, default=0.0)
    p_sweep.add_argument("-o", "--output", help="CSV output path (stdout if absent)")
    p_sweep.add_argument("--meta", help="metadata sidecar path, with -o only "
                                        "(default: OUTPUT.meta.json)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_gen = sub.add_parser("generate", help="generate a synthetic scenario")
    p_gen.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR})")
    p_gen.add_argument("--junctions", type=int, default=GeneratorConfig.junction_count)
    p_gen.add_argument("--arcs", type=int, default=GeneratorConfig.arc_count)
    p_gen.add_argument("--routes", type=int, default=GeneratorConfig.route_count)
    p_gen.add_argument("--pairs", type=int, default=GeneratorConfig.pair_count)
    p_gen.add_argument("--max-route-length", type=float,
                       default=GeneratorConfig.max_route_length, help="km cap on each route")
    p_gen.add_argument("--max-hops", type=int)
    p_gen.add_argument("--max-paths", type=int)
    p_gen.add_argument("--mode", choices=[FULL_ROUTE, PER_HOP])
    p_gen.add_argument("--penetration", type=float, default=GeneratorConfig.penetration)
    p_gen.add_argument("-o", "--output", help="scenario path (stdout if absent)")
    p_gen.set_defaults(func=_cmd_generate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a reader that left shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # as the signal module's documentation advises: stdout goes to devnull,
        # so the flush at exit raises nothing, and the run ends without a traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ScenarioFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    except MemoryError:
        pass  # report after the handler, once the traceback has freed its frames
    print("error: out of memory; the input is too large to process", file=sys.stderr)
    return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
