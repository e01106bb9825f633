"""Command-line front end.

Subcommands:

* ``run``     execute one scenario in one mode and write its artifacts
* ``compare`` execute every mode on identical inputs and compare counts;
  exits 1 when any mode failed
* ``synth``   materialize synthetic streams from a generator spec into CSV

Output files are fully determined by the config and seed; wall-clock
timings go to stdout only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import yaml

from .harness import (
    Mode,
    compare_modes,
    generate_synthetic,
    load_scenario,
    parse_synth_spec,
    read_seed,
    render_report,
    run_scenario,
    write_streams_csv,
)


def _add_run(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("--config", required=True, help="scenario YAML")
    p.add_argument("--mode", choices=[m.value for m in Mode], default=None,
                   help="override the configured mode")
    p.add_argument("--seed", type=int, default=None, help="override the configured seed")
    p.add_argument("--out", default="out", help="output directory")


def _add_compare(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("compare", help="run all modes on identical inputs")
    p.add_argument("--config", required=True, help="scenario YAML")
    p.add_argument("--out", required=True, help="output directory")


def _add_synth(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("synth", help="generate synthetic streams as CSV")
    p.add_argument("--spec", required=True,
                   help="YAML with {seed, duration_s, generators: [...]} entries")
    p.add_argument("--out", required=True, help="output CSV path")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="edgeprep",
        description="quality-aware preprocessing for shared sensor streams",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_compare(sub)
    _add_synth(sub)
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OverflowError, OSError, yaml.YAMLError) as exc:
        # ValueError covers ConfigError and malformed input CSV rows;
        # OverflowError, finite readings whose exact sum leaves the float
        # range; a YAML error spans several lines
        sys.stderr.write(f"edgeprep: error: {' '.join(str(exc).split())}\n")
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "run":
        cfg = load_scenario(args.config)
        mode = Mode(args.mode) if args.mode else None
        seed = None if args.seed is None else read_seed(args.seed, "--seed")
        report = run_scenario(cfg, out_dir=args.out, mode=mode, seed=seed)
        sys.stdout.write(render_report(report))
        sys.stdout.write(
            f"wall clock: {report.wall_clock_s:.3f}s total, "
            f"{report.wall_clock_s / max(report.cycles, 1) * 1000:.3f}ms per cycle\n"
        )
        sys.stdout.write(f"artifacts written to {Path(args.out).resolve()}\n")
        return 0

    if args.command == "compare":
        cfg = load_scenario(args.config)
        comparison = compare_modes(cfg, out_dir=args.out)
        sys.stdout.write(comparison.summary())
        for name in sorted(comparison.reports):
            rep = comparison.reports[name]
            sys.stdout.write(f"{name}: wall clock {rep.wall_clock_s:.3f}s\n")
        return 1 if comparison.failures else 0

    # synth
    with open(args.spec, encoding="utf-8") as fh:
        generators, seed = parse_synth_spec(yaml.safe_load(fh))
    streams = generate_synthetic(generators, seed, "spec.generators")
    write_streams_csv(streams, args.out)
    points = sum(len(s) for s in streams.values())
    sys.stdout.write(f"wrote {points} points for {len(streams)} sensors to {args.out}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
