"""Closed-form reference solutions used as ground truth in tests.

All matrices follow the package basis convention set out in
qbattery.models (cell basis ordered up, down with sigma^z = diag(1, -1);
site 0 leftmost).  The two-qubit correlated-dephasing state below was
derived directly from the master equation: with jump operators sigma^z
the generator acts element-wise in the z product basis,

    rho_ab(t) = rho_ab(0) exp(Lambda_ab t),
    Lambda_ab = -i (E_a - E_b)
                + sum_ij Gamma_ij [s_j(a) s_i(b)
                                   - s_i(a) s_j(a)/2 - s_i(b) s_j(b)/2],

where s_i(a) = +-1 is the sigma^z value of cell i in basis state a and
E_a is the (diagonal) effective-Hamiltonian energy.  The transcription is
certified against an independent implementation of the master-equation
right-hand side by a finite-difference test; its predicted energy
W(t) = -h e^{-2 gamma t} cos(2 j_z t) cos(2 q t) follows analytically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DephasingTwoQubitParams:
    """Two-cell correlated-dephasing parameters.

    gamma is the local rate; p + i q is the cross-site rate (its imaginary
    part q is the quantum-correlated component); j_z is the induced Ising
    coupling; h is the battery field.  This is the open-pair configuration:
    one bond, one cross-site rate entry carrying the full complex p + i q
    (NoiseSpec with nearest_neighbor topology and periodic = False).
    """

    h: float
    gamma: float
    p: float
    q: float
    j_z: float

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


def local_dephasing_state(gamma: float, t: float) -> np.ndarray:
    """Single cell dephasing from |-><-|: (1/2) [[1, -e^{-2 g t}], [-e^{-2 g t}, 1]]."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    c = np.exp(-2.0 * gamma * t)
    return 0.5 * np.array([[1.0, -c], [-c, 1.0]], dtype=complex)


def correlated_dephasing_state(
    params: DephasingTwoQubitParams, t: float
) -> np.ndarray:
    """Two cells under correlated dephasing from (|-><-|)^(x)2.

    Basis order: up-up, up-down, down-up, down-down.  Every diagonal entry
    stays 1/4; the coherences decay and rotate as

        rho_01 = -(1/4) e^{-2 g t} e^{-i (2 j_z - 2 q) t}
        rho_02 = -(1/4) e^{-2 g t} e^{-i (2 j_z + 2 q) t}
        rho_03 = +(1/4) e^{-4 (g + p) t}
        rho_12 = +(1/4) e^{-4 (g - p) t}
        rho_13 = -(1/4) e^{-2 g t} e^{+i (2 j_z + 2 q) t}
        rho_23 = -(1/4) e^{-2 g t} e^{+i (2 j_z - 2 q) t}

    Setting p = q = j_z = 0 recovers the tensor product of two
    local_dephasing_state outputs.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    g, p, q, jz = params.gamma, params.p, params.q, params.j_z
    env = np.exp(-2.0 * g * t)
    r01 = -env * np.exp(-1j * (2.0 * jz - 2.0 * q) * t)
    r02 = -env * np.exp(-1j * (2.0 * jz + 2.0 * q) * t)
    r03 = np.exp(-4.0 * (g + p) * t) + 0j
    r12 = np.exp(-4.0 * (g - p) * t) + 0j
    r13 = -env * np.exp(1j * (2.0 * jz + 2.0 * q) * t)
    r23 = -env * np.exp(1j * (2.0 * jz - 2.0 * q) * t)
    rho = np.array(
        [
            [1.0, r01, r02, r03],
            [np.conj(r01), 1.0, r12, r13],
            [np.conj(r02), np.conj(r12), 1.0, r23],
            [np.conj(r03), np.conj(r13), np.conj(r23), 1.0],
        ],
        dtype=complex,
    )
    return 0.25 * rho


def correlated_dephasing_energy(
    params: DephasingTwoQubitParams, t: float
) -> float:
    """Battery energy W(t) = -h e^{-2 g t} cos(2 j_z t) cos(2 q t)."""
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    return float(
        -params.h
        * np.exp(-2.0 * params.gamma * t)
        * np.cos(2.0 * params.j_z * t)
        * np.cos(2.0 * params.q * t)
    )


def correlated_dephasing_ergotropy_limit(
    params: DephasingTwoQubitParams, t: float
) -> float:
    """Two-cell ergotropy in the weak-correlation limit gamma >> |p + i q|.

    ergotropy(t) = W(t) + (h e^{-4 g t} / 2)
                   * sqrt(sinh^2(4 t p) + 4 e^{4 g t} cos^2(2 t q))

    This is an approximation away from that limit; tests hold it to a
    relative tolerance only when gamma / |p + i q| >= 20.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    g, p, q, h = params.gamma, params.p, params.q, params.h
    w = correlated_dephasing_energy(params, t)
    root = np.sqrt(
        np.sinh(4.0 * t * p) ** 2
        + 4.0 * np.exp(4.0 * g * t) * np.cos(2.0 * t * q) ** 2
    )
    return float(w + 0.5 * h * np.exp(-4.0 * g * t) * root)


def local_ad_state(gamma: float, t: float) -> np.ndarray:
    """Single cell under local amplitude damping from |-><-|.

    In the package basis (up first) the excited population decays as
    e^{-g t} and the coherence as e^{-g t / 2}:

        rho(t) = [[e^{-g t}/2,      -e^{-g t/2}/2],
                  [-e^{-g t/2}/2,   1 - e^{-g t}/2]]

    The t -> infinity limit is the all-down dark state diag(0, 1).
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    pop = 0.5 * np.exp(-gamma * t)
    coh = -0.5 * np.exp(-0.5 * gamma * t)
    return np.array([[pop, coh], [coh, 1.0 - pop]], dtype=complex)


def gamma_nn_eigenvalues(gamma: float, gamma12: complex, n: int) -> np.ndarray:
    """Spectrum of the periodic nearest-neighbor rate matrix, ascending.

    The wrapped ring is Hermitian circulant, so for every N >= 2 the
    eigenvalues are gamma + 2 |g12| cos(2 pi m / N + arg g12), m = 0..N-1.
    At N = 2 both orientations of the single pair land on one matrix entry
    (Gamma_01 = 2 Re g12) and the formula reduces to the eigenvalues
    gamma +- 2 Re g12 of that doubled-entry matrix.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    mod = abs(gamma12)
    phi = float(np.angle(gamma12)) if mod > 0 else 0.0
    m = np.arange(n)
    return np.sort(gamma + 2.0 * mod * np.cos(2.0 * np.pi * m / n + phi))
