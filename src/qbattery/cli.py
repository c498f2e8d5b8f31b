"""Command-line interface for running and comparing battery experiments.

Subcommands:
    run <preset|config-path> [--out DIR] [--auto-cptp] [--dt FLOAT]
        [--tmax FLOAT] [--workers INT]
    list-presets
    compare <a.csv> <b.csv> --column C --mode M [--window T0 T1]
    validate <config-path>

Exit codes:
    0  success
    2  configuration or schema error (unknown preset, bad config file,
       malformed compare arguments, missing files)
    3  complete-positivity violation (the requested rates are not a valid
       generator; the diagnostic names the violated bound)
    4  runtime state-invariant violation (a sampled state left the
       physical region)
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .dissipation import CptpViolationError
from .evolution import StateInvariantError
from .models import DegenerateGroundStateError
from .scenarios import (
    CompareReport,
    ConfigError,
    GridMismatchError,
    PRESETS,
    compare_runs,
    get_preset,
    list_presets,
    load_config,
    precheck_cptp,
    require_valid_config,
    run_list,
    run_scenario,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CPTP = 3
EXIT_STATE = 4


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the qbattery command."""
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description=(
            "Simulate N-cell spin-1/2 batteries under local or spatially "
            "correlated dephasing / amplitude-damping reservoirs and emit "
            "ergotropy, stored-energy, and coherence time series as CSV."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser(
        "run", help="run a built-in preset or a flat key-value config file"
    )
    run_p.add_argument(
        "target", help="preset name (see list-presets) or config file path"
    )
    run_p.add_argument(
        "--out",
        default=None,
        help="output directory (default: runs/<scenario-name>)",
    )
    run_p.add_argument(
        "--auto-cptp",
        action="store_true",
        help=(
            "scale all-to-all cross-site rates down to the "
            "complete-positivity bound gamma/(N-1) instead of failing"
        ),
    )
    run_p.add_argument(
        "--dt",
        type=float,
        default=None,
        help="override the internal integrator step",
    )
    run_p.add_argument(
        "--tmax",
        type=float,
        default=None,
        help="override the final time of the sampling grid",
    )
    run_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (runs are independent)",
    )

    sub.add_parser("list-presets", help="list built-in presets")

    cmp_p = sub.add_parser(
        "compare", help="compare one column of two emitted run CSVs"
    )
    cmp_p.add_argument("csv_a")
    cmp_p.add_argument("csv_b")
    cmp_p.add_argument("--column", required=True, help="CSV column to compare")
    cmp_p.add_argument(
        "--mode",
        required=True,
        choices=("max_abs_diff", "transient_dominance"),
    )
    cmp_p.add_argument(
        "--window",
        nargs=2,
        type=float,
        metavar=("T0", "T1"),
        default=None,
        help="restrict the comparison to the closed time interval [T0, T1]",
    )

    val_p = sub.add_parser(
        "validate", help="schema-validate a config file and its rate matrices"
    )
    val_p.add_argument("config_path")
    return parser


def _print_compare(report: CompareReport) -> None:
    parts = [f"mode={report.mode}", f"column={report.column}"]
    if report.window is not None:
        parts.append(f"window=[{report.window[0]:g},{report.window[1]:g}]")
    parts.append(f"n_compared={report.n_compared}")
    if report.max_abs_diff is not None:
        parts.append(f"max_abs_diff={report.max_abs_diff:.6e}")
    if report.dominance_fraction is not None:
        parts.append(f"dominance_fraction={report.dominance_fraction:.6f}")
    if report.first_peak_a is not None:
        t, v = report.first_peak_a
        parts.append(f"first_peak_a=({t:g},{v:.6e})")
    if report.first_peak_b is not None:
        t, v = report.first_peak_b
        parts.append(f"first_peak_b=({t:g},{v:.6e})")
    print(" ".join(parts))


def _cmd_run(args: argparse.Namespace) -> int:
    if args.target in PRESETS:
        cfg = get_preset(args.target)
    elif os.path.exists(args.target):
        cfg = load_config(args.target)
    else:
        known = ", ".join(PRESETS)
        print(
            f"error: {args.target!r} is neither a preset ({known}) "
            f"nor an existing config file",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    if args.tmax is not None:
        cfg = replace(cfg, t_max=args.tmax)
    if args.dt is not None:
        cfg = replace(cfg, dt_internal=args.dt)
    require_valid_config(cfg, source=f"scenario {cfg.name!r}")
    if args.workers < 1:
        raise ConfigError(["workers: must be >= 1"], source="command line")
    out_dir = args.out if args.out is not None else os.path.join("runs", cfg.name)
    result = run_scenario(
        cfg, out_dir, auto_cptp=args.auto_cptp, workers=args.workers
    )
    for entry in result.manifest["runs"]:
        margins = entry["invariant_margins"]
        print(
            f"wrote {os.path.join(out_dir, entry['file'])} "
            f"(N={entry['n_sites']}, {entry['channel']}, {entry['topology']}, "
            f"converged={entry['converged']}, {entry['wall_time_s']}s, "
            f"max |trace-1|={margins['max_trace_drift']:.1e}, "
            f"max herm drift={margins['max_herm_drift']:.1e}, "
            f"min eig={margins['min_eigenvalue']:.1e}, "
            f"parity-resolved={entry['parity_resolved_samples']}, "
            f"translation-resolved={entry['translation_resolved_samples']} "
            f"of {entry['n_samples']} samples)"
        )
    print(f"manifest: {result.manifest_path}")
    return EXIT_OK


def _cmd_list_presets() -> int:
    for name, description in list_presets():
        print(f"{name}: {description}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    window = tuple(args.window) if args.window is not None else None
    report = compare_runs(
        args.csv_a, args.csv_b, args.column, args.mode, window=window
    )
    _print_compare(report)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config_path)
    applied = precheck_cptp(cfg, auto_cptp=False)
    n_runs = len(run_list(cfg))
    print(f"OK: scenario {cfg.name!r} ({n_runs} runs) passes validation")
    for (topology, n), modulus in sorted(applied.items()):
        print(f"  {topology} N={n}: cross-site rate modulus {modulus:g}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "list-presets":
            return _cmd_list_presets()
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except ConfigError as exc:
        print("configuration error:", file=sys.stderr)
        for message in exc.errors:
            print(f"  {message}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, GridMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateGroundStateError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CptpViolationError as exc:
        print(f"complete-positivity violation: {exc}", file=sys.stderr)
        return EXIT_CPTP
    except StateInvariantError as exc:
        print(f"state-invariant violation: {exc}", file=sys.stderr)
        return EXIT_STATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
