"""Command-line surface: run / sweep / validate / oracle.

`run` walks the AP-count ladder for each requested system and writes one CSV
row per evaluated deployment plus a JSON manifest sidecar; `sweep` writes the
demand-axis table (minimum APs per demand point). --threads N evaluates the
ladder's rungs on up to N processes, one per usable CPU; output is
byte-identical for a given (scenario, seed) regardless of --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import engine, results, scenario as scn_mod


def _add_scenario_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    src.add_argument(
        "--preset",
        choices=scn_mod.PRESET_NAMES,
        help="named parameter preset",
    )


def _add_run_args(p: argparse.ArgumentParser) -> None:
    _add_scenario_args(p)
    p.add_argument(
        "--systems",
        required=True,
        metavar="LIST",
        help="comma-separated subset of: " + "|".join(engine.SYSTEMS),
    )
    p.add_argument("--out", required=True, metavar="PATH", help="output CSV path")
    p.add_argument("--seed", type=int, default=None, help="override scenario seed")
    p.add_argument("--snapshots", type=int, default=None, help="override snapshots per evaluation")
    p.add_argument(
        "--threads",
        default="1",
        help="processes that evaluate rungs, at most one per usable CPU; output bytes do not "
        "depend on it",
    )
    p.add_argument(
        "--full-ladder",
        action="store_true",
        help="evaluate every ladder rung even after all demand points are satisfied",
    )
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")


def _parse_threads(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"--threads must be a positive integer, got {text!r}")
    return n


def _parse_systems(text: str) -> list[str]:
    systems = [s.strip() for s in text.split(",") if s.strip()]
    if not systems:
        raise ValueError("--systems must name at least one system")
    for s in systems:
        if s not in engine.SYSTEMS:
            raise ValueError(f"unknown system {s!r}; expected one of {', '.join(engine.SYSTEMS)}")
    return systems


def _load(args) -> scn_mod.Scenario:
    if args.scenario is not None:
        scn = scn_mod.load_scenario(args.scenario)
    else:
        scn = scn_mod.preset(args.preset)
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "snapshots", None) is not None:
        overrides["n_snapshots"] = args.snapshots
    if overrides:
        raw = scn.to_dict()
        raw["engine"].update(overrides)
        scn = scn_mod.from_dict(raw)
    return scn


def _run_dimensioning(args, sweep: bool) -> int:
    try:
        scn = _load(args)
        systems = _parse_systems(args.systems)
        threads = _parse_threads(args.threads)
        out_dir = os.path.dirname(args.out) or "."
        if not os.path.isdir(out_dir):
            raise ValueError(f"--out directory {out_dir!r} does not exist")
        for path in (args.out, args.out + ".manifest.json"):
            if os.path.isdir(path):
                raise ValueError(f"--out {path!r} is a directory")
    except (scn_mod.ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    progress = None if args.quiet else (lambda msg: print(msg, file=sys.stderr))
    started = time.monotonic()
    try:
        result = engine.dimension(
            scn,
            systems,
            stop_when_satisfied=not args.full_ladder,
            progress=progress,
            threads=threads,
        )
    except Exception as exc:  # noqa: BLE001 - surface module hard-errors as exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.monotonic() - started

    writer = results.write_sweep_csv if sweep else results.write_result_csv
    rows = writer(args.out, scn.scenario_id, result)
    results.write_manifest(
        args.out + ".manifest.json",
        scenario_dict=scn.to_dict(),
        threads=threads,
        usable_cpus=engine.usable_cpus(),
        wall_clock_s=elapsed,
        rows_written=rows,
        result=result,
    )
    if not args.quiet:
        print(f"wrote {rows} rows to {args.out}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    return _run_dimensioning(args, sweep=False)


def _cmd_sweep(args) -> int:
    return _run_dimensioning(args, sweep=True)


def _cmd_validate(args) -> int:
    try:
        scn = _load(args)
    except (scn_mod.ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.dump:
        import json

        print(json.dumps(scn.to_dict(), indent=2))
    else:
        print(f"ok: scenario {scn.scenario_id!r} is valid")
    return 0


def _cmd_oracle(args) -> int:
    # Imported here: the oracles need scipy, which the other verbs never load.
    from . import oracles

    return 0 if oracles.run_all() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apdim",
        description="Dimension indoor AP density for Wi-Fi, static-cellular, and multi-cell ZF.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evaluate the AP ladder; one CSV row per deployment")
    _add_run_args(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="minimum APs per demand point; one CSV row per demand")
    _add_run_args(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="schema-check a scenario and exit")
    _add_scenario_args(p_val)
    p_val.add_argument("--dump", action="store_true", help="print the validated scenario as JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_oracle = sub.add_parser("oracle", help="run the brute-force verification oracles")
    p_oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
