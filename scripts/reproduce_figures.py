"""Run every built-in preset and emit its CSV time series + manifest.

Reproduces the full set of figure experiments (ergotropy, stored energy,
extractable fraction, and per-site coherence under correlated vs local
dephasing and amplitude-damping reservoirs, plus the nearest-neighbor vs
all-to-all comparison).  The full set (53 runs) took 33 to 37 s over two
runs with one worker and one BLAS thread on a 2-core Xeon;
fig7_longrange_comparison is about three fifths of it.  Use --only to
reproduce a single preset.  A name that is no preset, or a --workers
value below 1, is refused by the argument parser with exit status 2.

Usage:
    python scripts/reproduce_figures.py [--out DIR] [--only NAME] [--workers K]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from qbattery import get_preset, list_presets, run_scenario


def at_least_one(text: str) -> int:
    """argparse type: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="runs", help="output root directory (default: runs)"
    )
    names = [name for name, _ in list_presets()]
    parser.add_argument(
        "--only",
        choices=names,
        default=None,
        help="run a single preset instead of all of them",
    )
    parser.add_argument(
        "--workers",
        type=at_least_one,
        default=1,
        help="worker processes per scenario sweep",
    )
    args = parser.parse_args()

    if args.only is not None:
        names = [args.only]

    grand_start = time.perf_counter()
    for name in names:
        cfg = get_preset(name)
        out_dir = os.path.join(args.out, name)
        start = time.perf_counter()
        result = run_scenario(cfg, out_dir, workers=args.workers)
        elapsed = time.perf_counter() - start
        n_conv = sum(bool(r["converged"]) for r in result.manifest["runs"])
        print(
            f"{name}: {len(result.csv_paths)} runs in {elapsed:.1f}s "
            f"({n_conv} converged) -> {out_dir}"
        )
    print(f"total: {time.perf_counter() - grand_start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
