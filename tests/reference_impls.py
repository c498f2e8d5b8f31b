"""Independent reference constructions used to cross-check the library.

Everything here is deliberately written from scratch — literal Pauli
matrices, explicit Kronecker chains, the textbook double-sum dissipator,
an adaptive ODE integration — so tests compare two genuinely different
routes to the same object rather than the library against itself.
"""

from __future__ import annotations

import numpy as np
import scipy.integrate

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SP = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # raising |down> -> |up>
SM = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)  # lowering |up> -> |down>
ID2 = np.eye(2, dtype=complex)


def ref_embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Site operator embedded by an explicit Kronecker chain (site 0 = MSB)."""
    out = np.array([[1.0]], dtype=complex)
    for i in range(n_sites):
        out = np.kron(out, op if i == site else ID2)
    return out


def ref_battery_hamiltonian(
    n_sites: int, h: float, j_coupling: float, periodic: bool
) -> np.ndarray:
    """Field plus zz-coupling battery Hamiltonian built entirely from kron."""
    dim = 2**n_sites
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(n_sites):
        out += (h / 2.0) * ref_embed(SX, i, n_sites)
    n_bonds = n_sites if periodic else n_sites - 1
    if n_sites >= 2:
        for b in range(n_bonds):
            j, k = b, (b + 1) % n_sites
            out += (j_coupling / 4.0) * (
                ref_embed(SZ, j, n_sites) @ ref_embed(SZ, k, n_sites)
            )
    return out


def ref_field_product_eigenbasis(
    n_sites: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Field-only eigenbasis with each column an explicit Kronecker chain
    of |+> and |-> (|-> on the sites whose bit is set, site 0 = MSB),
    sorted by energy (h/2)(n_plus - n_minus), ties by bit pattern."""
    plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
    dim = 2**n_sites
    columns, energies = [], []
    for a in range(dim):
        col = np.array([1.0], dtype=complex)
        n_minus = 0
        for i in range(n_sites):
            is_minus = (a >> (n_sites - 1 - i)) & 1
            n_minus += is_minus
            col = np.kron(col, minus if is_minus else plus)
        columns.append(col)
        energies.append((h / 2.0) * (n_sites - 2 * n_minus))
    order = sorted(range(dim), key=lambda a: (energies[a], a))
    return (
        np.array([energies[a] for a in order]),
        np.column_stack([columns[a] for a in order]),
    )


def ref_xx_dm_bond(
    j_xx: float, d_dm: float, j: int, k: int, n_sites: int
) -> np.ndarray:
    """One hopping bond via the sigma^x / sigma^y representation.

    (j_xx / 2)(X_j X_k + Y_j Y_k) + (d_dm / 2)(X_j Y_k - Y_j X_k), which is
    an independent route to J sigma_j^+ sigma_k^- + h.c. with J = j_xx + i d_dm.
    """
    xj, xk = ref_embed(SX, j, n_sites), ref_embed(SX, k, n_sites)
    yj, yk = ref_embed(SY, j, n_sites), ref_embed(SY, k, n_sites)
    return 0.5 * j_xx * (xj @ xk + yj @ yk) + 0.5 * d_dm * (xj @ yk - yj @ xk)


def ref_dissipator(
    gamma_matrix: np.ndarray, jumps: list[np.ndarray], rho: np.ndarray
) -> np.ndarray:
    """Literal sum_ij Gamma_ij (L_j rho L_i^dag - 1/2 {L_i^dag L_j, rho})."""
    out = np.zeros_like(rho)
    n = len(jumps)
    for i in range(n):
        li_dag = jumps[i].conj().T
        for j in range(n):
            g = gamma_matrix[i, j]
            if g == 0:
                continue
            ldl = li_dag @ jumps[j]
            out += g * (
                jumps[j] @ rho @ li_dag - 0.5 * (ldl @ rho + rho @ ldl)
            )
    return out


def ref_master_rhs(
    h_eff: np.ndarray,
    gamma_matrix: np.ndarray,
    jumps: list[np.ndarray],
    rho: np.ndarray,
) -> np.ndarray:
    """Full right-hand side -i[H, rho] + dissipator, literal form."""
    return -1j * (h_eff @ rho - rho @ h_eff) + ref_dissipator(
        gamma_matrix, jumps, rho
    )


def ref_generator_matrix(
    h_eff: np.ndarray, gamma_matrix: np.ndarray, jumps: list[np.ndarray]
) -> np.ndarray:
    """Dense generator on vec(rho) (row-major), column by column: column
    a * dim + b is ref_master_rhs applied to the unit matrix |a><b|."""
    dim = h_eff.shape[0]
    columns = []
    for k in range(dim * dim):
        unit = np.zeros(dim * dim, dtype=complex)
        unit[k] = 1.0
        rho = unit.reshape(dim, dim)
        columns.append(ref_master_rhs(h_eff, gamma_matrix, jumps, rho).reshape(-1))
    return np.column_stack(columns)


def ref_dephasing_diagonal(
    energies: np.ndarray, gamma_matrix: np.ndarray, n_sites: int
) -> np.ndarray:
    """Lambda[a, b] of sigma^z dephasing with diagonal H_eff energies E:

        Lambda_ab = -i (E_a - E_b) + sum_ij Gamma_ij [ s_j(a) s_i(b)
                    - s_i(a) s_j(a) / 2 - s_i(b) s_j(b) / 2 ],

    s_i(a) the sigma^z value of site i in basis state a (site 0 = MSB).
    Unlike the rest of this module this is the library's own arithmetic,
    operation for operation, so that a test can demand equality bit for
    bit: the dephasing CSVs and the exact translation invariance of ring
    runs rest on these exact values."""
    dim = 2**n_sites
    signs = np.array(
        [
            [-1.0 if (a >> (n_sites - 1 - i)) & 1 else 1.0 for a in range(dim)]
            for i in range(n_sites)
        ]
    )
    g_signs = gamma_matrix @ signs
    cross = np.einsum("ja,ib,ij->ab", signs, signs, gamma_matrix, optimize=True)
    self_rate = np.real(np.einsum("ia,ia->a", signs, g_signs))
    return (
        -1j * (energies[:, None] - energies[None, :])
        + cross
        - 0.5 * (self_rate[:, None] + self_rate[None, :])
    )


def solve_master_ivp(
    h_eff: np.ndarray,
    gamma_matrix: np.ndarray,
    jumps: list[np.ndarray],
    rho0: np.ndarray,
    t_eval: np.ndarray,
) -> list[np.ndarray]:
    """Integrate the master equation with an independent adaptive method.

    Uses scipy's RK45 at tolerance 1e-11 on the flattened state; serves as
    an integrator-independent cross-check of the library's fixed-step RK4.
    """
    dim = rho0.shape[0]

    def rhs(_t: float, y: np.ndarray) -> np.ndarray:
        rho = y.reshape(dim, dim)
        return ref_master_rhs(h_eff, gamma_matrix, jumps, rho).reshape(-1)

    sol = scipy.integrate.solve_ivp(
        rhs,
        (0.0, float(t_eval[-1])),
        rho0.reshape(-1).astype(complex),
        t_eval=t_eval,
        method="RK45",
        rtol=1e-11,
        atol=1e-13,
    )
    assert sol.success, sol.message
    return [sol.y[:, k].reshape(dim, dim) for k in range(sol.y.shape[1])]


def ref_ergotropy(rho: np.ndarray, h_matrix: np.ndarray) -> float:
    """Spectral ergotropy via the opposite sort order from the library.

    Populations descending against energies ascending (the library sorts
    populations ascending against energies descending; the two pairings
    are algebraically identical, so agreement is a real consistency check
    of the sorting logic).
    """
    populations = np.sort(np.linalg.eigvalsh(rho))[::-1]
    energies = np.sort(np.linalg.eigvalsh(h_matrix))
    w = float(np.real(np.trace(h_matrix @ rho)))
    return w - float(populations @ energies)


def ref_l1_coherence(rho: np.ndarray, basis: np.ndarray) -> float:
    """Sum of |off-diagonal| entries of basis^dag rho basis."""
    transformed = basis.conj().T @ rho @ basis
    return float(np.sum(np.abs(transformed)) - np.sum(np.abs(np.diag(transformed))))


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix (Ginibre construction)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random Hermitian matrix with O(1) entries."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def ref_rk4_block_map(
    lmat, idx: np.ndarray, dt: float, n_sub: int
) -> np.ndarray:
    """Per-sample RK4 map P(dt L_b)^n_sub of the sparse generator lmat
    restricted to the indices idx, in their given order, built dense:
    P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 in Horner form on the whole
    block, then numpy's matrix power."""
    x = (dt * lmat[idx][:, idx]).toarray()
    one = np.eye(len(idx), dtype=complex)
    p = one + x / 4.0
    for k in (3.0, 2.0, 1.0):
        p = one + x @ p / k
    return np.linalg.matrix_power(p, n_sub)
