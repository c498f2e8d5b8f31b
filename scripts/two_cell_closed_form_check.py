"""Integrator vs closed form for the two-cell correlated-dephasing battery.

The open pair of cells under correlated dephasing has an exact solution
(every density-matrix entry decays and rotates with known rates), so this
script is an end-to-end validation of the whole pipeline: it integrates the
master equation numerically and prints the worst entrywise deviation from
the closed form plus the worst energy deviation, over a time grid.

Usage:
    python scripts/two_cell_closed_form_check.py [--t-max T] [--gamma G] ...
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from argtypes import finite, non_negative, positive
from qbattery import (
    BatteryModel,
    CptpViolationError,
    DephasingTwoQubitParams,
    EffectiveCoupling,
    EvolutionConfig,
    NoiseSpec,
    battery_hamiltonian,
    build_gamma,
    correlated_dephasing_energy,
    correlated_dephasing_state,
    evolve_stream,
    expectation,
    product_minus_state,
    require_cptp,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-max", type=positive, default=10.0)
    parser.add_argument("--gamma", type=non_negative, default=0.2)
    parser.add_argument("--offdiag-modulus", type=non_negative, default=0.01)
    parser.add_argument("--offdiag-phase", type=finite, default=np.pi / 3)
    parser.add_argument("--j-z", type=finite, default=1.0)
    parser.add_argument("--field", type=finite, default=1.0)
    args = parser.parse_args()

    offdiag = args.offdiag_modulus * np.exp(1j * args.offdiag_phase)
    params = DephasingTwoQubitParams(
        gamma=args.gamma,
        p=offdiag.real,
        q=offdiag.imag,
        j_z=args.j_z,
        h=args.field,
    )
    coupling = EffectiveCoupling("ising_z", j_z=args.j_z)
    spec = NoiseSpec(
        channel="dephasing",
        topology="nearest_neighbor",
        gamma=args.gamma,
        gamma_offdiag=offdiag,
        coupling=coupling,
        periodic=False,  # the open pair is the exactly solvable configuration
    )
    try:
        require_cptp(build_gamma(spec, 2))
    except CptpViolationError as err:
        parser.error(f"--gamma and --offdiag-modulus give no CPTP generator: {err}")
    h_b = battery_hamiltonian(BatteryModel(n_sites=2, h=args.field))
    cfg = EvolutionConfig(t_max=args.t_max, dt_sample=0.01)

    worst_state = 0.0
    worst_energy = 0.0
    for t, rho in evolve_stream(product_minus_state(2), spec, cfg):
        exact = correlated_dephasing_state(params, t)
        worst_state = max(worst_state, float(np.max(np.abs(rho - exact))))
        worst_energy = max(
            worst_energy,
            abs(expectation(rho, h_b) - correlated_dephasing_energy(params, t)),
        )
    print(f"entrywise |numeric - closed form| <= {worst_state:.3e}")
    print(f"energy    |numeric - closed form| <= {worst_energy:.3e}")
    ok = worst_state < 1e-6 and worst_energy < 1e-8
    print("OK" if ok else "DEVIATION TOO LARGE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
