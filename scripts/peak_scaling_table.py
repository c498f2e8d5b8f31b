"""First-oscillation ergotropy peak vs cell count under correlated dephasing.

Integrates the product-start correlated-dephasing battery for a range of N
and prints the first ergotropy peak (time and value) per N, plus the peak
per cell.  On the periodic ring the peak grows linearly with N from N = 3
upward; N = 2 is the special doubled-bond geometry and sits off that line.

Usage:
    python scripts/peak_scaling_table.py [--n-max N] [--t-max T]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from argtypes import finite, non_negative, positive
from qbattery import (
    BatteryModel,
    CptpViolationError,
    EffectiveCoupling,
    EvolutionConfig,
    NoiseSpec,
    battery_hamiltonian,
    build_gamma,
    ergotropy,
    evolve_stream,
    product_minus_state,
    require_cptp,
)


def at_least_two(text: str) -> int:
    """argparse type: an integer >= 2, the smallest ring."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be an integer >= 2, got {text}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=at_least_two, default=6)
    parser.add_argument("--t-max", type=positive, default=3.0)
    parser.add_argument("--gamma", type=non_negative, default=0.2)
    parser.add_argument("--offdiag-modulus", type=non_negative, default=0.01)
    parser.add_argument("--offdiag-phase", type=finite, default=np.pi / 3)
    parser.add_argument("--j-z", type=finite, default=1.0)
    parser.add_argument("--field", type=finite, default=1.0)
    args = parser.parse_args()

    offdiag = args.offdiag_modulus * np.exp(1j * args.offdiag_phase)
    coupling = EffectiveCoupling("ising_z", j_z=args.j_z)
    spec = NoiseSpec(
        channel="dephasing",
        topology="nearest_neighbor",
        gamma=args.gamma,
        gamma_offdiag=offdiag,
        coupling=coupling,
    )
    sizes = range(2, args.n_max + 1)
    for n in sizes:
        try:
            require_cptp(build_gamma(spec, n))
        except CptpViolationError as err:
            parser.error(
                f"--gamma and --offdiag-modulus give no CPTP generator at "
                f"N = {n}: {err}"
            )
    print(f"{'N':>3} {'t_peak':>8} {'peak ergotropy':>15} {'peak / N':>10}")
    for n in sizes:
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=args.field))
        h_energies = np.linalg.eigvalsh(h_b)
        cfg = EvolutionConfig(t_max=args.t_max, dt_sample=0.01)
        series = [
            (t, ergotropy(rho, h_b, h_energies).ergotropy)
            for t, rho in evolve_stream(product_minus_state(n), spec, cfg)
        ]
        values = [e for _, e in series]
        peak = next(
            (
                i
                for i in range(1, len(values) - 1)
                if values[i - 1] < values[i] > values[i + 1]
            ),
            None,
        )
        if peak is None:
            print(f"{n:>3}  no peak before t_max = {args.t_max:g}")
            continue
        t_pk, e_pk = series[peak]
        print(f"{n:>3} {t_pk:>8.2f} {e_pk:>15.6f} {e_pk / n:>10.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
