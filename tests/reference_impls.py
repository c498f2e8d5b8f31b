"""Independent reference constructions used to cross-check the library.

Everything here is deliberately written from scratch — literal Pauli
matrices, explicit Kronecker chains, the textbook double-sum dissipator,
an adaptive ODE integration — so tests compare two genuinely different
routes to the same object rather than the library against itself.  The
exceptions say so: the brute-force ergotropy oracle, and the library's
former constructions kept as the reference its current ones must equal
bit for bit (ref_dephasing_diagonal, ref_level_map, ref_gksl_matrix,
ref_conjugate_sectors), or whose decisions its current ones must keep
(ref_level, ref_commutes_with), and evolve, the library's former list
form of evolve_stream.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np
import scipy.integrate
import scipy.sparse
import scipy.sparse.csgraph

from qbattery.dissipation import CHANNELS
from qbattery.evolution import (
    GROUP_MIN_ROWS,
    HERMITICITY_TOL,
    MIN_EIGENVALUE_TOL,
    TRACE_TOL,
    StateCheck,
    StateInvariantError,
    evolve_stream,
)
from qbattery.models import cyclic_shift
from qbattery.observables import expectation

BRUTEFORCE_EXHAUSTIVE_DIM = 8
BRUTEFORCE_MAX_DIM = 16

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


def ref_jumps(channel: str, n_sites: int) -> list[np.ndarray]:
    """The channel's per-site jump operators, sigma^z or sigma^-, each an
    explicit Kronecker chain (ref_embed)."""
    op = SZ if channel == "dephasing" else SM
    return [ref_embed(op, i, n_sites) for i in range(n_sites)]


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
    runs rest on these exact values.  For a circulant rate matrix each
    entry of the rate terms takes the value at the smallest index of its
    orbit under the cyclic site shift (site i -> i + 1), found here by
    walking the orbits one basis state at a time."""
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
    if np.array_equal(np.roll(gamma_matrix, (1, 1), axis=(0, 1)), gamma_matrix):
        def shift(a):
            # site i moves to i + 1: a left rotation of the bits
            return ((a << 1) & (dim - 1)) | (a >> (n_sites - 1))

        def orbit(a):
            members = [a]
            while shift(members[-1]) != a:
                members.append(shift(members[-1]))
            return members

        smallest = np.array([min(orbit(a)) for a in range(dim)])
        pair_smallest = np.empty((dim, dim, 2), dtype=int)
        for a in range(dim):
            for b in range(dim):
                pairs = [(a, b)]
                while (shift(pairs[-1][0]), shift(pairs[-1][1])) != (a, b):
                    pairs.append((shift(pairs[-1][0]), shift(pairs[-1][1])))
                pair_smallest[a, b] = min(pairs)
        cross = cross[pair_smallest[..., 0], pair_smallest[..., 1]]
        self_rate = self_rate[smallest]
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


def ergotropy_bruteforce_oracle(
    rho: np.ndarray,
    h_b: np.ndarray,
    n_random_unitaries: int,
    seed: int = 0,
) -> float:
    """Ergotropy via direct minimization, independent of the sorting shortcut.

    Minimizes the post-extraction energy over (a) assignments of state
    eigenvectors to Hamiltonian eigenvectors -- exhaustively for dim <= 8,
    via an optimal-assignment solver for 8 < dim <= 16 -- and (b)
    n_random_unitaries Haar-random unitaries, then returns
    Tr[h_b rho] - min.  Test-scale only.
    """
    # Imported here, their only use: the two take about 0.6 s to import.
    import scipy.optimize
    import scipy.stats

    rho = np.asarray(rho, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    dim = rho.shape[0]
    if dim > BRUTEFORCE_MAX_DIM:
        raise ValueError(
            f"brute-force oracle supports dim <= {BRUTEFORCE_MAX_DIM}, got {dim}"
        )
    w = expectation(rho, h_b)
    populations = np.linalg.eigvalsh(rho)
    energies = np.linalg.eigvalsh(h_b)
    best = np.inf
    if dim <= BRUTEFORCE_EXHAUSTIVE_DIM:
        for perm in itertools.permutations(range(dim)):
            value = float(np.dot(populations, energies[list(perm)]))
            if value < best:
                best = value
    else:
        cost = np.outer(populations, energies)
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        best = float(cost[rows, cols].sum())
    if n_random_unitaries > 0:
        unitaries = scipy.stats.unitary_group.rvs(
            dim, size=n_random_unitaries, random_state=seed
        )
        if n_random_unitaries == 1:
            unitaries = unitaries[np.newaxis, :, :]
        rotated = unitaries @ rho @ unitaries.conj().transpose(0, 2, 1)
        extracted = np.einsum("kij,ji->k", rotated, h_b)
        if np.max(np.abs(extracted.imag)) > 1e-9:
            raise ValueError("unitary extraction produced a non-real energy")
        best = min(best, float(np.min(extracted.real)))
    return w - best


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


def ref_rk4_substeps(rhs, dt: float, n_sub: int, rho: np.ndarray) -> np.ndarray:
    """n_sub explicit classical RK4 steps of size dt on rho' = rhs(rho), in
    the literal four-stage form k1..k4."""
    sixth = dt / 6.0
    half = dt / 2.0
    for _ in range(n_sub):
        k1 = rhs(rho)
        k2 = rhs(rho + half * k1)
        k3 = rhs(rho + half * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return rho


def ref_lower_matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray, offsets: np.ndarray
) -> None:
    """out = a @ b for square a, b block lower triangular over the levels
    [offsets[k], offsets[k + 1]), computing the lower level blocks only:
    out[I, J] = a[I, J..I] @ b[J..I, J] for each level pair I >= J.  The
    blocks of out above the level diagonal are left as they are."""
    for i in range(len(offsets) - 1):
        rows = slice(offsets[i], offsets[i + 1])
        for j in range(i + 1):
            cols = slice(offsets[j], offsets[j + 1])
            inner = slice(offsets[j], offsets[i + 1])
            np.matmul(a[rows, inner], b[inner, cols], out=out[rows, cols])


def ref_level_map(x, n_sub: int, offsets: np.ndarray) -> np.ndarray:
    """P(x)^n_sub as one whole matrix, for a sparse x that is block lower
    triangular over the levels [offsets[k], offsets[k + 1]), by the
    library's former whole-matrix construction: P(x) by Horner one level
    column at a time, then right-to-left square-and-multiply with
    ref_lower_matmul in three whole buffers, so the blocks above the level
    diagonal stay exactly zero.  The library now builds the same products
    a level row slab at a time, in place; each level block is the same
    matmul on the same operands, so the two agree bit for bit."""
    size = x.shape[0]
    p = np.zeros((size, size), dtype=complex)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        lower = x[lo:, lo:]
        unit = (np.arange(hi - lo), np.arange(hi - lo))
        slab = lower[:, : hi - lo].toarray()
        slab /= 4.0
        slab[unit] += 1.0
        for k in (3.0, 2.0, 1.0):
            slab = lower @ slab
            slab /= k
            slab[unit] += 1.0
        p[lo:, lo:hi] = slab
    out = np.zeros_like(p)
    free = [out, np.zeros_like(p)]
    power, result = p, None
    while True:
        if n_sub & 1:
            if result is None:
                result = power
            else:
                product = free.pop()
                ref_lower_matmul(result, power, product, offsets)
                if result is not power:
                    free.append(result)
                result = product
        n_sub >>= 1
        if not n_sub:
            break
        square = free.pop()
        ref_lower_matmul(power, power, square, offsets)
        if power is not result:
            free.append(power)
        power = square
    return result


def ref_swap(i: int, j: int, n_sites: int) -> np.ndarray:
    """The SWAP of sites i and j, (1 + X X + Y Y + Z Z) / 2 over Kronecker
    chains (ref_embed)."""
    out = np.eye(2**n_sites, dtype=complex)
    for op in (SX, SY, SZ):
        out = out + ref_embed(op, i, n_sites) @ ref_embed(op, j, n_sites)
    return 0.5 * out


@functools.lru_cache(maxsize=None)
def ref_symmetry_matrices(n_sites: int) -> dict[str, np.ndarray]:
    """The cyclic site shift T, the product of the neighbour SWAPs
    (N-2, N-1), ..., (1, 2), (0, 1), and the global spin flip P, the
    product of sigma^x on every site, as literal permutation matrices."""
    dim = 2**n_sites
    shift = np.eye(dim, dtype=complex)
    for i in reversed(range(n_sites - 1)):
        shift = shift @ ref_swap(i, i + 1, n_sites)
    flip = np.eye(dim, dtype=complex)
    for i in range(n_sites):
        flip = flip @ ref_embed(SX, i, n_sites)
    return {"T": shift.real.round(), "P": flip.real.round()}


def ref_state_group(rho: np.ndarray) -> str:
    """The symmetry group of a finite state as check_state chooses it: the
    first of GROUP_MIN_ROWS whose size rho reaches and whose generators
    g it commutes with, g rho g^T == rho bit for bit, with g a literal
    permutation matrix (ref_symmetry_matrices); "1" for none.  A
    permutation matrix has one entry 1 per row and column and zeros
    elsewhere, so each entry of g rho g^T is one entry of rho exactly."""
    dim = rho.shape[0]
    n_sites = dim.bit_length() - 1
    if dim < 2 or dim != 2**n_sites:
        return "1"
    commutes = {
        name: np.array_equal(g @ rho @ g.T, rho)
        for name, g in ref_symmetry_matrices(n_sites).items()
    }
    for name, least in GROUP_MIN_ROWS.items():
        if dim >= least and all(commutes[x] for x in name):
            return name
    return "1"


def ref_check_state(rho: np.ndarray, t: float) -> StateCheck:
    """check_state on one state by the whole matrix: the hermiticity drift
    over all of |rho - rho^dag|, the spectrum from one full eigvalsh of the
    Hermitian part, and the group from literal permutation matrices
    (ref_state_group).  The library's drifts must be bitwise these, its
    spectra within 1e-12 and its group the same."""
    trace = np.trace(rho)
    trace_drift = float(abs(trace.real - 1.0) + abs(trace.imag))
    # rho - rho^dag is nan or inf wherever rho is (inf - inf is nan, which
    # numpy would warn about), so the test below rejects every non-finite
    # state
    with np.errstate(invalid="ignore"):
        herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
    if not math.isfinite(herm_drift):
        raise StateInvariantError(t, trace_drift, herm_drift, math.nan, [])
    populations = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    min_eig = float(populations[0])
    # written so that a nan measurement fails
    if not (
        trace_drift < TRACE_TOL
        and herm_drift < HERMITICITY_TOL
        and min_eig >= MIN_EIGENVALUE_TOL
    ):
        raise StateInvariantError(t, trace_drift, herm_drift, min_eig, [])
    return StateCheck(populations, trace_drift, herm_drift, ref_state_group(rho))


def ref_gksl_matrix(
    h_eff: np.ndarray, gamma, channel: str
) -> scipy.sparse.csr_matrix:
    """The library's former GKSL generator on vec(rho), summed term by term
    as sparse Kronecker products:

        L = -i [kron(H_nh, I) - kron(I, conj(H_nh))]
            + sum_ij Gamma_ij kron(L_j, conj(L_i)),

    H_nh = H_eff - (i/2) sum_ij Gamma_ij L_i^dag L_j, with the sigma^-
    jumps as CSRs of their Kronecker chains (ref_jumps) and the sigma^z
    dissipator plus the diagonal of H_eff as ref_dephasing_diagonal.  The
    library writes every entry of the same matrix once, from the bits, with
    the same floating-point operations, so the two agree bit for bit in
    data, indices and indptr."""
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    n = gamma.n_sites
    dim = 2**n
    h_eff = np.asarray(h_eff, dtype=complex)
    if channel == "dephasing":
        diagonal = ref_dephasing_diagonal(
            np.real(np.diag(h_eff)), gamma.matrix, n
        )
        size = dim * dim
        lmat = scipy.sparse.csr_matrix(
            (diagonal.reshape(-1), np.arange(size), np.arange(size + 1)),
            shape=(size, size),
        )
        h_eff = h_eff.copy()
        np.fill_diagonal(h_eff, 0.0)
        h_nh = scipy.sparse.csr_matrix(h_eff)
    else:
        ls = [scipy.sparse.csr_matrix(op) for op in ref_jumps(channel, n)]
        g = gamma.matrix
        m_op = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
        lmat = scipy.sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
        for i in range(n):
            li_dag = ls[i].conj().T
            for j in range(n):
                if g[i, j] == 0:
                    continue
                m_op = m_op + g[i, j] * (li_dag @ ls[j])
                lmat = lmat + g[i, j] * scipy.sparse.kron(
                    ls[j], ls[i].conj(), format="csr"
                )
        h_nh = scipy.sparse.csr_matrix(h_eff) - 0.5j * m_op
    if h_nh.nnz:
        eye = scipy.sparse.identity(dim, format="csr", dtype=complex)
        lmat = (
            -1j
            * (
                scipy.sparse.kron(h_nh, eye, format="csr")
                - scipy.sparse.kron(eye, h_nh.conj(), format="csr")
            )
            + lmat
        )
    return lmat.tocsr()


def _ref_pattern(lmat) -> scipy.sparse.csr_matrix:
    """lmat's sparsity graph: an edge b -> a for each stored entry
    lmat[a, b] (row a, column b)."""
    return scipy.sparse.csr_matrix(
        (np.ones(lmat.nnz), lmat.indices, lmat.indptr), shape=lmat.shape
    )


def ref_conjugate_sectors(rhs) -> tuple[list[np.ndarray], np.ndarray]:
    """The library's former _Generator.conjugate_sectors: the weakly
    connected components of the generator's sparsity graph by
    scipy.sparse.csgraph, each sorted ascending and numbered by its
    smallest index, and the block onto which the transpose maps each."""
    pattern = _ref_pattern(rhs.lmat)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        pattern, directed=True, connection="weak"
    )
    order = np.argsort(labels, kind="stable")
    bounds = np.cumsum(np.bincount(labels, minlength=n_comp))[:-1]
    firsts = order[np.concatenate(([0], bounds))]
    return np.split(order, bounds), labels[rhs.orbits.transpose[firsts]]


def ref_level(lmat) -> np.ndarray:
    """The library's former _Generator._level: the strongly connected
    components of lmat's sparsity graph by scipy.sparse.csgraph, and for
    each index the length of the longest path in the graph of components
    that ends at its own, by relaxation to convergence."""
    pattern = _ref_pattern(lmat)
    n_comp, labels = scipy.sparse.csgraph.connected_components(
        pattern, directed=True, connection="strong"
    )
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    source, target = labels[pattern.indices], labels[rows]
    cross = source != target
    source, target = source[cross], target[cross]
    depth = np.zeros(n_comp, dtype=np.intp)
    while True:
        deeper = depth.copy()
        np.maximum.at(deeper, target, depth[source] + 1)
        if np.array_equal(deeper, depth):
            return depth[labels]
        depth = deeper


def ref_commutes_with(lmat, n_sites: int) -> bool:
    """The library's former shift test: lmat[T k, T l] == lmat[k, l] bit for
    bit for every pair of vec indices, for the superoperator shift
    vec(a, b) -> vec(T a, T b) of the cyclic site shift T, compared 1,024
    rows at a time on the assembled CSR."""
    dim = 2**n_sites
    shift = cyclic_shift(n_sites)
    perm = (shift[:, None] * dim + shift).reshape(-1)
    for first in range(0, lmat.shape[0], 1024):
        rows = slice(first, first + 1024)
        if (lmat[perm[rows]][:, perm] != lmat[rows]).nnz:
            return False
    return True


def evolve(rho0, spec, cfg) -> list[tuple[float, np.ndarray]]:
    """Every sampled (t, rho) pair of evolve_stream, as one list."""
    return list(evolve_stream(rho0, spec, cfg))
