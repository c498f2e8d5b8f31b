"""Battery Hamiltonian, reservoir-induced effective Hamiltonians, initial states.

Conventions used throughout the package: a cell's basis states are
ordered (spin up, spin down), so sigma^z = diag(1, -1) and index 0 is the
excited (+1) level; site 0 is the leftmost tensor factor, i.e. site i is
bit N-1-i of a basis-state index, and a set bit means spin down; hbar = 1
and all couplings are dimensionless.  The Hamiltonians, the product start
and the generator's jump operators (evolution._write_generator) are written
entry by entry from those bits, through site_z_signs.

The battery register is a ring of N spin-1/2 cells with

    H_B = sum_i (h/2) sigma_i^x + (j_coupling/4) sum_(j,k) sigma_j^z sigma_k^z

where (j, k) runs over the oriented bonds of ring_bonds, one per site
j -> j+1 mod N when periodic.  These are not distinct pairs: at N = 2 the
periodic ring counts its single pair twice.  The reservoir-induced
effective Hamiltonians are either an Ising zz coupling (dephasing
reservoirs) or an XX + Dzyaloshinskii-Moriya exchange (amplitude-damping
reservoirs), on nearest-neighbor bonds or on all pairs.

Bond-set convention, used consistently by every builder here (battery zz
term, effective Hamiltonians, and the rate-matrix adjacency).  Which
oriented pairs a reservoir topology couples is decided once, by
topology_bonds, for both the rate matrix and the effective Hamiltonian.
The periodic ring sums the literal oriented adjacency j -> j+1 for
j = 0..N-1 including the wraparound, so N = 2 periodic carries both
orientations of its single pair and the pair coupling doubles (and the
antisymmetric DM part cancels).
An open chain (periodic = False) drops the wraparound; the open two-cell
system is the single bond 0 -> 1 with the full complex coupling.

Consequence for the correlated-dephasing ring (Ising-z coupling j_z, rate
matrix with on-site gamma and cross-cell g12, q = Im g12, field-only
battery, product start): the mean energy per cell, <(h/2) sigma^x>, has
one cosine factor per neighbour,

    ring, N >= 3:       -(h/2) e^{-2 gamma t} cos(2(j_z+q)t) cos(2(j_z-q)t)
    periodic N = 2:     -(h/2) e^{-2 gamma t} cos(4 j_z t)
    open pair, N = 2:   -(h/4) e^{-2 gamma t} [cos(2(j_z+q)t) + cos(2(j_z-q)t)]

(each agrees with the evolver to within 5e-12).  No two-cell system has
two distinct neighbours per cell, so neither N = 2 geometry lies on the
curve shared by N >= 3: the first ergotropy peak is 1.475390 (periodic)
or 1.109921 (open), both above the N = 3 ring's 1.106542, and the
extractable fraction R(t) sits 0.172 (periodic) or 0.697 (open) from
the N = 3 curve on t in [0.2, 5].
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

GROUND_DEGENERACY_GAP = 1e-10


class DegenerateGroundStateError(ValueError):
    """Lowest eigenvalue is (numerically) degenerate; refuse to pick a vector."""


@dataclass(frozen=True)
class BatteryModel:
    """Parameters of the battery Hamiltonian.

    Attributes:
        n_sites: number of cells, N >= 1.
        h: transverse field strength (enters as h/2 per cell).
        j_coupling: zz coupling strength (enters as j_coupling/4 per
            oriented bond of ring_bonds, so twice for the single pair of
            the periodic N = 2 ring).
        periodic: close the ring (the bond list wraps around).
    """

    n_sites: int
    h: float
    j_coupling: float = 0.0
    periodic: bool = True

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")


@dataclass(frozen=True)
class EffectiveCoupling:
    """Reservoir-induced coherent coupling between cells.

    kind = "ising_z": H_eff = j_z * sum_bonds sigma_j^z sigma_k^z
    kind = "xx_dm":   H_eff = sum_bonds [J sigma_j^+ sigma_k^- + h.c.] with
                      complex J = j_xx + i*d_dm, equivalently
                      (j_xx/2)(XX + YY) + (d_dm/2)(XY - YX) per bond.

    interaction_range is the reservoir topology whose bonds it acts on
    (topology_bonds): "nearest_neighbor" (ring bonds) or "all_to_all"
    (every pair j < k, oriented j -> k).  A NoiseSpec requires it to equal
    its own topology.
    """

    kind: str
    j_z: float = 0.0
    j_xx: float = 0.0
    d_dm: float = 0.0
    interaction_range: str = "nearest_neighbor"

    def __post_init__(self) -> None:
        if self.kind not in ("ising_z", "xx_dm"):
            raise ValueError(f"unknown coupling kind {self.kind!r}")
        if self.interaction_range not in ("nearest_neighbor", "all_to_all"):
            raise ValueError(
                f"unknown interaction range {self.interaction_range!r}"
            )
        if self.kind == "ising_z" and (self.j_xx != 0.0 or self.d_dm != 0.0):
            raise ValueError("ising_z coupling must leave j_xx and d_dm at 0")
        if self.kind == "xx_dm" and self.j_z != 0.0:
            raise ValueError("xx_dm coupling must leave j_z at 0")


def ring_bonds(n_sites: int, periodic: bool = True) -> list[tuple[int, int]]:
    """Oriented adjacency list of the chain: bond j -> (j+1) mod N.

    The periodic ring is the literal wrapped sum, one bond per site, so
    N = 2 periodic yields both orientations of its single pair,
    [(0, 1), (1, 0)], and pair couplings double.  An open chain drops the
    wraparound: N - 1 bonds, and N = 2 open is the single bond [(0, 1)].
    """
    if n_sites < 2:
        return []
    if periodic:
        return [(j, (j + 1) % n_sites) for j in range(n_sites)]
    return [(j, j + 1) for j in range(n_sites - 1)]


def all_pair_bonds(n_sites: int) -> list[tuple[int, int]]:
    """All pairs j < k, oriented j -> k."""
    return [(j, k) for j in range(n_sites) for k in range(j + 1, n_sites)]


def topology_bonds(topology: str, n_sites: int, periodic: bool) -> list[tuple[int, int]]:
    """The oriented bonds a reservoir topology couples.

    The one bond set of a run: the rate matrix (dissipation.build_gamma)
    and the effective Hamiltonian (effective_hamiltonian) both sum over
    it.  "local" couples no pair, "nearest_neighbor" gives ring_bonds
    (periodic selects the ring or the open chain) and "all_to_all" gives
    all_pair_bonds.
    """
    if topology == "local":
        return []
    if topology == "nearest_neighbor":
        return ring_bonds(n_sites, periodic)
    if topology == "all_to_all":
        return all_pair_bonds(n_sites)
    raise ValueError(f"unknown topology {topology!r}")


def site_z_signs(n_sites: int) -> np.ndarray:
    """S[i, a] = sigma^z value (+-1, exact) of site i in z basis state a:
    +1 where bit N-1-i of a is 0 (spin up), -1 where it is 1."""
    states = np.arange(2**n_sites)
    shifts = n_sites - 1 - np.arange(n_sites)
    return 1.0 - 2.0 * ((states[None, :] >> shifts[:, None]) & 1)


def cyclic_shift(n_sites: int) -> np.ndarray:
    """T a for each z basis index a, for the cyclic site shift T that moves
    the state of site i to site i + 1 (mod N): site i is bit N-1-i, so T is
    a left rotation of the N bits."""
    dim = 2**n_sites
    index = np.arange(dim)
    return ((index << 1) & (dim - 1)) | (index >> (n_sites - 1))


class SymmetryGroup(NamedTuple):
    """The table of one group of z basis permutations (symmetry_group).

    elements[j, s, a] is T^j P^s a, for j < N_T and s < N_P (N and 2 when
    the group has T and P, 1 without); the representatives are the
    smallest index of each orbit, ascending; orbit_of[a] is the position
    of a's orbit among them and sizes[r] the size of orbit r.  blocks
    holds, for each number s of representatives that a character admits,
    (index, weights) for the m characters (k, p) with that number: the
    (m, s, s) flat positions of (a, p, b, k) in a (R, N_P, R, N_T) array,
    for the admitted representatives a and b of each character, and the
    (m, s, s) weights sqrt(|O_a| |O_b|) / |G| of the block spectrum
    (evolution._block_spectra), None where all are 1.
    """

    name: str
    elements: np.ndarray
    representatives: np.ndarray
    orbit_of: np.ndarray
    sizes: np.ndarray
    blocks: list[tuple[np.ndarray, np.ndarray | None]]


@functools.lru_cache(maxsize=None)
def symmetry_group(n_sites: int, name: str) -> SymmetryGroup:
    """The table of a group of exact symmetries of the z basis of n_sites
    cells: "P" ({1, P} for the global spin flip P a = dim - 1 - a), "T"
    (Z_N, generated by the cyclic site shift T of cyclic_shift) or "TP"
    (Z_N x Z_2; T and P commute).

    The characters are chi_(k, p)(T^j P^s) = e^{2 pi i k j / N} (-1)^(p s),
    k < N (1 without T) and p < 2 (1 without P).  The states
    sum_g chi(g)^* g|a> of the orbit of a vanish unless chi is 1 on the
    stabilizer of a; a character admits the representatives whose
    stabilizer it is 1 on, and a state that commutes with the group is
    block diagonal over the characters, in blocks over their admitted
    representatives (Sandvik, AIP Conf. Proc. 1297, 135, 2010, section 4,
    for Z_N).  The group has one table per (n_sites, name).
    """
    dim = 2**n_sites
    index = np.arange(dim)
    n_t, n_p = (n_sites if "T" in name else 1), (2 if "P" in name else 1)
    elements = np.empty((n_t, n_p, dim), dtype=np.intp)
    elements[0, 0] = index
    shift = cyclic_shift(n_sites)
    for j in range(1, n_t):
        elements[j, 0] = shift[elements[j - 1, 0]]
    if n_p == 2:
        elements[:, 1] = dim - 1 - elements[:, 0]
    smallest = elements.reshape(-1, dim).min(axis=0)
    is_representative = smallest == index
    representatives = np.flatnonzero(is_representative)
    orbit_of = (np.cumsum(is_representative) - 1)[smallest]
    sizes = np.bincount(orbit_of)
    # chi_(k, p)(T^j P^s) is 1 exactly when k j n_p + p s n_t = 0 mod |G|,
    # and chi admits a representative unless it is not 1 on an element
    # that fixes it
    k, p = np.indices((n_t, n_p))
    phase = np.multiply.outer(k, k) * n_p + np.multiply.outer(p, p) * n_t
    fixes = elements[:, :, representatives] == representatives
    admits = ~np.tensordot(phase % (n_t * n_p) != 0, fixes, axes=2)
    admits = admits.reshape(n_t * n_p, -1)
    counts = admits.sum(axis=1)
    root = np.sqrt(sizes / (n_t * n_p))
    blocks = []
    for count in dict.fromkeys(counts.tolist()):
        chosen = np.flatnonzero(counts == count)
        admitted = np.stack([np.flatnonzero(admits[c]) for c in chosen])
        weights = root[admitted][:, :, None] * root[admitted][:, None, :]
        # flat position of (a, p, b, k) in a (R, n_p, R, n_t) array
        k_c, p_c = (x.ravel()[chosen][:, None, None] for x in (k, p))
        pairs = (admitted[:, :, None] * n_p + p_c) * len(representatives)
        index = (pairs + admitted[:, None, :]) * n_t + k_c
        # every weight is 1 for {1, P}, and multiplying by 1 changes nothing
        blocks.append((index, None if (weights == 1.0).all() else weights))
    return SymmetryGroup(name, elements, representatives, orbit_of, sizes, blocks)


def commutes(states: np.ndarray, generator: str) -> np.ndarray:
    """Whether each matrix of a (K, dim, dim) stack equals g A g^dag bit for
    bit, for the generator g, "T" or "P" (symmetry_group), of a basis of
    dim = 2^N states.

    Row 0 first, against its image row: A[g 0, g b] == A[0, b] is
    necessary, so a matrix far from the symmetry costs O(dim).  Then the
    whole of the matrices that pass it, in one comparison of two views, so
    no index array of dim^2 entries is formed: for P a = dim - 1 - a the
    rows a < dim / 2 against those of A[::-1, ::-1], which hold one entry
    of each pair (a, b), (P a, P b); for T, with a = (top bit, rest) and
    T a = (rest, top bit), A's (2, dim/2, 2, dim/2) view with its axes
    swapped in pairs against the (dim/2, 2, dim/2, 2) view, both with the
    rest of b as their last axis so that numpy's inner loop runs over
    dim / 2 entries.
    """
    dim = states.shape[-1]
    h = dim // 2
    # T^(N-1) = T^-1 generates Z_N as well as T does
    perm = symmetry_group(dim.bit_length() - 1, generator).elements[-1, -1]
    near = (states[:, perm[0], perm] == states[:, 0]).all(axis=1)
    if near.any():
        # the stack itself, not a copy, when every matrix passed
        chosen = states if near.all() else states[near]
        if generator == "P":
            views = chosen[:, :h], chosen[:, ::-1, ::-1][:, :h]
        else:
            views = (
                chosen.reshape(-1, h, 2, h, 2).transpose(0, 1, 2, 4, 3),
                chosen.reshape(-1, 2, h, 2, h).transpose(0, 2, 1, 3, 4),
            )
        near[near] = (views[0] == views[1]).reshape(len(chosen), -1).all(axis=1)
    return near


def battery_hamiltonian(model: BatteryModel) -> np.ndarray:
    """Dense battery Hamiltonian for the given model.

    With j_coupling = 0 the spectrum is {-N h/2, ..., +N h/2} in steps of h
    and the ground state is the product of single-cell field ground states.

    Written entry by entry from the bits of the basis states (site i is
    bit N-1-i): sigma_i^x links a to a with bit i flipped, one entry per
    site, and the zz term is diagonal, summed in bond order, so the matrix
    equals the sum of embedded operators and their products exactly.
    """
    n = model.n_sites
    dim = 2**n
    h_mat = np.zeros((dim, dim), dtype=complex)
    states = np.arange(dim)
    for i in range(n):
        h_mat[states, states ^ (1 << (n - 1 - i))] = model.h / 2.0
    if model.j_coupling != 0.0:
        signs = site_z_signs(n)
        diagonal = np.zeros(dim)
        for j, k in ring_bonds(n, model.periodic):
            diagonal += (model.j_coupling / 4.0) * (signs[j] * signs[k])
        h_mat[states, states] = diagonal
    return h_mat


def effective_hamiltonian(
    coupling: EffectiveCoupling, n_sites: int, periodic: bool = True
) -> np.ndarray:
    """Reservoir-induced coherent Hamiltonian acting on the battery cells.

    Always Hermitian.  Returns the zero matrix when all strengths vanish
    (in particular for purely local reservoirs).

    Each bond's term is written entry by entry from the bits of the basis
    states (site i is bit N-1-i, 0 = spin up), summed in bond order, so the
    matrix equals the sum of embedded two-site operator products exactly.
    """
    bonds = topology_bonds(coupling.interaction_range, n_sites, periodic)
    dim = 2**n_sites
    h_eff = np.zeros((dim, dim), dtype=complex)
    signs = site_z_signs(n_sites)
    if coupling.kind == "ising_z":
        if coupling.j_z == 0.0:
            return h_eff
        diagonal = np.zeros(dim, dtype=complex)
        for j, k in bonds:
            diagonal += coupling.j_z * (signs[j] * signs[k])
        np.fill_diagonal(h_eff, diagonal)
        return h_eff
    # xx_dm: J sigma_j^+ sigma_k^- + conj(J) sigma_j^- sigma_k^+ per bond,
    # J = j_xx + i d_dm.  sigma_j^+ sigma_k^- takes a state with site j
    # down and site k up to the state with both flipped.
    if coupling.j_xx == 0.0 and coupling.d_dm == 0.0:
        return h_eff
    j_complex = coupling.j_xx + 1j * coupling.d_dm
    for j, k in bonds:
        col = np.flatnonzero((signs[j] < 0) & (signs[k] > 0))
        row = col ^ ((1 << (n_sites - 1 - j)) | (1 << (n_sites - 1 - k)))
        h_eff[row, col] += j_complex
        h_eff[col, row] += np.conj(j_complex)
    return h_eff


def ground_state(h_matrix: np.ndarray) -> np.ndarray:
    """Pure-state density matrix of the unique lowest eigenvector.

    Raises DegenerateGroundStateError when the gap above the lowest
    eigenvalue is smaller than 1e-10; a degenerate ground level has no
    canonical representative, so the caller must construct the state
    explicitly (see product_minus_state for the j_coupling = 0 battery).

    When h_matrix commutes bit for bit with the global spin flip P or the
    cyclic site shift T (commutes), as battery_hamiltonian does with
    both at j_coupling = 1, the unique ground vector psi is an eigenvector
    of each, g psi = chi(g) psi, with chi(g) = +-1 for a real matrix, the
    sign of <psi|g psi> for each element g.  eigh's vector is projected
    onto that character of the group G they generate on the orbit
    representatives r, psi'[r] = sum_g chi(g) psi[g r] / |G| (0 where chi
    is not 1 on the stabilizer of r), and psi'[g r] = chi(g) psi'[r] is
    written along each orbit, then normalized.  Its entries on one orbit
    are then equal, or exact negatives, bit for bit, so the density matrix
    commutes with G bit for bit and the invariant check can take its
    blocks (evolution.check_state).  Any other matrix keeps eigh's vector.
    """
    h_matrix = np.asarray(h_matrix, dtype=complex)
    if np.max(np.abs(h_matrix - h_matrix.conj().T)) > 1e-12:
        raise ValueError("ground_state expects a Hermitian matrix")
    vals, vecs = np.linalg.eigh(h_matrix)
    if len(vals) > 1 and vals[1] - vals[0] < GROUND_DEGENERACY_GAP:
        raise DegenerateGroundStateError(
            f"ground level is degenerate (gap {vals[1] - vals[0]:.3e}); "
            "specify the initial state explicitly"
        )
    g = vecs[:, 0]
    n = len(g).bit_length() - 1
    if len(g) == 2**n > 1:
        name = "".join(x for x in "TP" if commutes(h_matrix[None], x)[0])
        if name:
            group = symmetry_group(n, name)
            reps = group.representatives
            orbits = group.elements[:, :, reps]
            # chi(h) = <g|h g>, +-1 for each element h
            overlap = np.einsum("a,jsa->js", g.conj(), g[group.elements]).real
            chi = np.where(overlap >= 0, 1.0, -1.0)[..., None]
            kept = ((chi == 1.0) | (orbits != reps)).all(axis=(0, 1))
            values = (chi * g[orbits]).sum(axis=(0, 1)) / chi.size * kept
            g = np.empty_like(g)
            g[orbits] = chi * values
            g /= np.linalg.norm(g)
    return np.outer(g, g.conj())


def product_minus_state(n_sites: int) -> np.ndarray:
    """Density matrix of the product state |-><-| on every cell.

    |-> = (|up> - |down>)/sqrt(2) is the single-cell ground state of the
    field term (h/2) sigma^x for h > 0.  This constructor bypasses
    diagonalization so the j_coupling = 0 battery (whose full spectrum is
    degenerate in every excited level) has a canonical preparation.

    Entry a of the state vector is +-prod(1/sqrt(2) over the sites),
    negative where an odd number of sites is down, multiplied in the
    order the Kronecker product of the single-cell vectors does.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    magnitude = math.prod([1.0 / math.sqrt(2.0)] * n_sites)
    vec = (magnitude * site_z_signs(n_sites).prod(axis=0)).astype(complex)
    return np.outer(vec, vec.conj())


def field_product_eigenbasis(
    n_sites: int, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Canonical eigenbasis of the noninteracting battery (j_coupling = 0).

    The field-only Hamiltonian sum_i (h/2) sigma_i^x is diagonal in the
    product basis of single-cell sigma^x eigenstates |+> = (1, 1)/sqrt(2)
    and |-> = (1, -1)/sqrt(2), but every excited level is massively
    degenerate, so a numerical eigensolver returns arbitrary mixtures.
    This builder fixes the basis analytically: column a is the product
    state whose i-th factor is |-> when bit i of a is set (site 0 = most
    significant bit, mirroring the z-basis indexing), with energy
    (h/2) (n_plus - n_minus).  Columns are sorted by ascending energy,
    ties broken by ascending bit pattern.

    Returns:
        (energies, basis) with energies ascending and basis columns the
        matching eigenvectors.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    # down[i, a] = 1 where site i is down in a.  Entry (r, a) is the product
    # over sites of +-1/sqrt(2), negative where site i is down in r and |->
    # in a: (-1)^popcount(r & a) times the magnitude, multiplied in the
    # same order as the Kronecker product does
    down = (site_z_signs(n_sites) < 0).astype(np.int64)
    magnitude = math.prod([1.0 / math.sqrt(2.0)] * n_sites)
    parity = (down.T @ down) % 2
    basis = np.where(parity == 1, -magnitude, magnitude).astype(complex)
    energies = (h / 2.0) * (n_sites - 2 * down.sum(axis=0))
    order = np.lexsort((np.arange(2**n_sites), energies))
    return energies[order], basis[:, order]
