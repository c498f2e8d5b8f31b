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

from qbattery import (
    BatteryModel,
    EffectiveCoupling,
    EvolutionConfig,
    NoiseSpec,
    battery_hamiltonian,
    ergotropy,
    evolve_stream,
    product_minus_state,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=6)
    parser.add_argument("--t-max", type=float, default=3.0)
    parser.add_argument("--gamma", type=float, default=0.2)
    parser.add_argument("--offdiag-modulus", type=float, default=0.01)
    parser.add_argument("--offdiag-phase", type=float, default=np.pi / 3)
    parser.add_argument("--j-z", type=float, default=1.0)
    parser.add_argument("--field", type=float, default=1.0)
    args = parser.parse_args()

    offdiag = args.offdiag_modulus * np.exp(1j * args.offdiag_phase)
    coupling = EffectiveCoupling("ising_z", j_z=args.j_z)
    print(f"{'N':>3} {'t_peak':>8} {'peak ergotropy':>15} {'peak / N':>10}")
    for n in range(2, args.n_max + 1):
        spec = NoiseSpec(
            channel="dephasing",
            topology="nearest_neighbor",
            gamma=args.gamma,
            gamma_offdiag=offdiag,
            coupling=coupling,
        )
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
