"""Work-extraction figures of merit: energy, ergotropy, coherence, ratio.

Ergotropy is the maximum work extractable from a state by a unitary:
Tr[H rho] minus the passive energy, where the passive energy pairs the
state's populations sorted ascending with the Hamiltonian's levels sorted
descending (largest population on the lowest level), floored at 0.  The
mean energy Tr[H_B rho] of the battery Hamiltonian, a field term on every
cell plus a diagonal, is read from the N bit-flip diagonals
rho[a, a ^ bit_i] and the main diagonal of rho (bit_flip_terms), O(N dim)
entries.  The l1-coherence is the sum of absolute off-diagonal entries of
the state expressed in a deterministic eigenbasis of the battery
Hamiltonian.  It takes the symmetry group that evolution.check_state
names for the state (StateCheck.group), as far as the basis resolves it
(symmetric_basis): one transform per P sector, C_p^T rho_p C_p, when the
group holds the global spin flip P and every basis vector is even or odd
under it, and only the rows of the orbit representatives of the basis
columns, weighted by orbit size, when it holds the cyclic site shift T
and T permutes the columns.  The field product basis resolves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .models import cyclic_shift

STORED_ENERGY_FLOOR = 1e-9
IMAG_TRACE_TOL = 1e-10
DEGENERACY_GAP = 1e-10


def expectation(rho: np.ndarray, op: np.ndarray) -> float | np.ndarray:
    """Tr[rho op] as a real number, or as a (K,) real array for each state
    of a (K, dim, dim) stack rho (bitwise the one-state values).

    The imaginary residue of the trace must stay below 1e-10; a larger
    residue signals a corrupted state or a non-Hermitian observable and
    raises instead of being silently discarded.
    """
    rho = np.asarray(rho)
    op = np.asarray(op)
    if (
        rho.shape[-2:] != op.shape
        or rho.ndim not in (2, 3)
        or op.shape[0] != op.shape[1]
    ):
        raise ValueError(
            f"dimension mismatch: state {rho.shape} vs operator {op.shape}"
        )
    # one state is a stack of one
    values = np.einsum("kij,ji->k", rho[None] if rho.ndim == 2 else rho, op)
    return _real_trace(values, rho.ndim == 2)


class BitFlipTerms(NamedTuple):
    """A Hamiltonian of the battery's form, as bit_flip_terms reads it:
    `field` on every entry (a, a ^ bit_i), for each of the N bits, and the
    real `diagonal`, or None where that is exactly zero; `flips` are the
    row-major flat indices a dim + (a ^ bit_i), site by site."""

    flips: np.ndarray
    field: float
    diagonal: np.ndarray | None


def bit_flip_terms(h_b: np.ndarray) -> BitFlipTerms | None:
    """h_b's terms when it is exactly (bit for bit) a real field on every
    bit flip plus a real diagonal, as every battery_hamiltonian is
    ((h/2) sum_i sigma^x_i plus the zz diagonal); None for any other
    matrix.  Prepare it once per Hamiltonian, not once per state."""
    h_b = np.asarray(h_b)
    dim = h_b.shape[0]
    n = dim.bit_length() - 1
    if n < 1 or h_b.shape != (dim, dim) or dim != 2**n:
        return None
    states = np.arange(dim)
    flipped = states ^ (1 << (n - 1 - np.arange(n)))[:, None]
    field = h_b[0, flipped[0, 0]]
    diagonal = np.diagonal(h_b)
    expected = np.zeros_like(h_b)
    expected[states, flipped] = field
    expected[states, states] = diagonal
    real = not np.imag(field) and not np.any(np.imag(diagonal))
    if not real or not np.array_equal(expected, h_b):
        return None
    flips = (states * dim + flipped).reshape(-1)
    diagonal = np.real(diagonal).copy() if np.any(diagonal) else None
    return BitFlipTerms(flips, float(np.real(field)), diagonal)


def bit_flip_energy(rho: np.ndarray, terms: BitFlipTerms) -> float | np.ndarray:
    """Tr[H rho] for the Hamiltonian of `terms` (bit_flip_terms), as a real
    number, or as a (K,) real array for each state of a (K, dim, dim)
    stack, each bitwise the one-state value.

    Tr[H rho] = field sum_i sum_a rho[a, a ^ bit_i] + sum_a H[a, a] rho[a, a]:
    one gather of the N dim bit-flip entries and one sum, plus the diagonal
    when H has one, each summed along a contiguous row per state, where
    expectation reads H transposed with a stride of a whole row.  It raises
    on an imaginary residue as expectation does.
    """
    rho = np.asarray(rho)
    states = rho[None] if rho.ndim == 2 else rho
    dim = states.shape[-1]
    flat = states.reshape(len(states), dim * dim)
    # np.take gathers into a C-ordered array, so each state's sum runs
    # along one contiguous row (flat[:, flips] would be laid out by column)
    values = terms.field * np.take(flat, terms.flips, axis=1).sum(axis=1)
    if terms.diagonal is not None:
        diagonal = np.take(flat, np.arange(0, dim * dim, dim + 1), axis=1)
        values = values + (diagonal * terms.diagonal).sum(axis=1)
    return _real_trace(values, rho.ndim == 2)


def _real_trace(values: np.ndarray, single: bool) -> float | np.ndarray:
    """The real parts of complex traces, or ValueError when an imaginary
    residue reaches IMAG_TRACE_TOL."""
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if residue >= IMAG_TRACE_TOL:
        raise ValueError(
            f"expectation value has imaginary residue {residue:.3e} "
            f"(tolerance {IMAG_TRACE_TOL:.0e})"
        )
    return float(values[0].real) if single else values.real


@dataclass(frozen=True)
class ErgotropyReport:
    """Energy bookkeeping of ergotropy(): the mean energy w = Tr[h_b rho],
    the passive energy and their gap, the ergotropy.  Floats for one
    state, (K,) arrays for a stack of K states.
    """

    w: float | np.ndarray
    passive_energy: float | np.ndarray
    ergotropy: float | np.ndarray


def ergotropy(
    rho: np.ndarray,
    h_b: np.ndarray,
    h_energies: np.ndarray | None = None,
    populations: np.ndarray | None = None,
    flip_terms: BitFlipTerms | None = None,
) -> ErgotropyReport:
    """Spectral-formula ergotropy of state rho under Hamiltonian h_b.

    passive_energy = sum_i lambda_i eps_i with populations lambda sorted
    ascending and energies eps sorted descending; ergotropy is their gap
    to Tr[h_b rho], floored at 0: a passive state's gap is 0 up to the
    round-off of the two sums (down to -1.8e-15 in the local dephasing
    runs), and no unitary extracts negative work.

    h_energies optionally carries the precomputed ascending spectrum of
    h_b, so time-series loops diagonalize the (fixed) Hamiltonian once.
    populations optionally carries the ascending spectrum of this same
    rho, as evolution.check_state returns it (StateCheck.populations), so
    a sampled state is diagonalized once for its check and its ergotropy.
    flip_terms optionally carries bit_flip_terms(h_b), prepared once per
    Hamiltonian, and Tr[h_b rho] is then read from the bit-flip diagonals
    (bit_flip_energy) instead of the whole of h_b (expectation); both
    raise on an imaginary residue.

    rho may also be a (K, dim, dim) stack of states, with populations then
    the K spectra; the report's fields are then (K,) arrays, each entry
    bitwise the one-state value: Tr[h_b rho] is one einsum, or one gather,
    over the stack, and the passive energy one dot product per state,
    since a batched product sums in another order (up to 1.8e-15 apart).
    """
    rho = np.asarray(rho, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    if rho.shape[-2:] != h_b.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.shape} vs Hamiltonian {h_b.shape}"
        )
    # one state is a stack of one
    states = rho[None] if rho.ndim == 2 else rho
    if flip_terms is None:
        w = expectation(states, h_b)
    else:
        w = bit_flip_energy(states, flip_terms)
    if populations is None:
        populations = np.linalg.eigvalsh(states)   # ascending
    elif rho.ndim == 2:
        populations = [populations]
    if h_energies is None:
        h_energies = np.linalg.eigvalsh(h_b)
    energies = np.asarray(h_energies)[::-1]        # descending
    passive = np.array([np.real(np.dot(p, energies)) for p in populations])
    gap = np.maximum(w - passive, 0.0)
    if rho.ndim == 2:
        w, passive, gap = float(w[0]), float(passive[0]), float(gap[0])
    return ErgotropyReport(w=w, passive_energy=passive, ergotropy=gap)


def energy_eigenbasis(h_b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigenbasis of a Hermitian matrix.

    Eigenvectors are sorted by ascending eigenvalue.  Within each cluster of
    (numerically) degenerate eigenvalues, the basis is fixed by a modified
    Gram-Schmidt canonicalization of the cluster projector against the
    standard basis, which depends only on the spanned subspace, not on
    eigensolver output.

    Returns (eigenvalues ascending, basis matrix with eigenvectors as columns).
    """
    h_b = np.asarray(h_b, dtype=complex)
    vals, vecs = np.linalg.eigh(h_b)
    for start, stop in _degenerate_clusters(vals):
        if stop - start > 1:
            vecs[:, start:stop] = _canonical_subspace_basis(vecs[:, start:stop])
    return vals, vecs


def _degenerate_clusters(vals: np.ndarray) -> list[tuple[int, int]]:
    """Split a sorted eigenvalue array into [start, stop) degeneracy runs."""
    clusters = []
    start = 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > DEGENERACY_GAP:
            clusters.append((start, i))
            start = i
    return clusters


def _canonical_subspace_basis(block: np.ndarray) -> np.ndarray:
    """Basis of span(block) depending only on the subspace itself.

    Projects the standard basis vectors onto the subspace in index order and
    orthonormalizes the projections with modified Gram-Schmidt, skipping
    near-null directions.  The result is invariant under any unitary mixing
    of the input columns.
    """
    dim, k = block.shape
    projector = block @ block.conj().T
    basis = []
    for j in range(dim):
        v = projector[:, j].copy()
        for u in basis:
            v -= u * (u.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == k:
            break
    if len(basis) != k:
        raise RuntimeError("subspace canonicalization failed to span the block")
    return np.column_stack(basis)


class SymmetricBasis(NamedTuple):
    """A basis B of the battery prepared for coherence_l1_energy_basis by
    symmetric_basis: `basis` is B as given, and parts[name], for each group
    of "P", "T" and "TP" (models.symmetry_group) whose blocks B resolves,
    is (rows, coordinates, weights, diagonal): the (S, R, n) real rows of
    C_s^T kept for each of its S sectors, the (S, m, n) real C_s^T, the
    (S, R) orbit sizes of the kept rows (None when every row is kept) and
    the (sector, column, row) index arrays of the kept rows' diagonal
    entries in the (S, m, R) transpose of the kept rows."""

    basis: np.ndarray
    parts: dict[str, tuple]


def symmetric_basis(basis: np.ndarray) -> SymmetricBasis:
    """The basis prepared for the symmetric coherence (see
    coherence_l1_energy_basis).  Prepare it once per basis, not once per
    state.

    The global spin flip P maps z index a to dim - 1 - a, so a column of a
    real basis B is even or odd under it when its row reversal equals it
    or its negative.  When every column is exactly one of the two, with
    dim / 2 of each, B resolves P: column c of parity p has the
    coordinates sqrt(2) B[:dim/2, c] in that sector's basis
    (|a> +- |dim - 1 - a>) / sqrt(2), a < dim / 2, the columns of C_p.
    The cyclic site shift T (models.cyclic_shift) moves z index a to T a.
    When T maps every column of a real B of N >= 2 cells onto a column of
    B bit for bit, T B = B Pi for a permutation Pi of the columns, and B
    resolves T: the rows kept are Pi's orbit representatives, weighted by
    orbit size.  T and P commute, so Pi keeps each parity, and a B that
    resolves both resolves Z_N x Z_2: each sector keeps the orbit
    representatives among its columns.  The field product basis
    (models.field_product_eigenbasis) resolves both.  Any other basis
    resolves none and keeps only the full transform.
    """
    basis = np.asarray(basis)
    dim = basis.shape[0]
    n = dim.bit_length() - 1
    if basis.shape != (dim, dim) or dim != 2**n or n < 1 or np.any(np.imag(basis)):
        return SymmetricBasis(basis, {})
    real = np.ascontiguousarray(np.real(basis))
    even = (real[::-1] == real).all(axis=0)
    odd = (real[::-1] == -real).all(axis=0)
    h = dim // 2
    # each group's sectors: the columns of B in each, and the stack of C_s^T
    sectors = {}
    if (even ^ odd).all() and np.count_nonzero(even) == h:
        sectors["P"] = (
            [np.flatnonzero(even), np.flatnonzero(odd)],
            np.sqrt(2.0) * np.stack((real[:h, even].T, real[:h, odd].T)),
        )
    # column c of T B: (T B)[T a, c] = B[a, c]
    moved = np.empty_like(real)
    moved[cyclic_shift(n)] = real
    column_of = {real[:, c].tobytes(): c for c in range(dim)}
    image = np.array([column_of.get(moved[:, c].tobytes(), -1) for c in range(dim)])
    if n > 1 and len(column_of) == dim and (image >= 0).all():
        # T^N is the identity, so the orbits of Pi close within N steps
        smallest = step = np.arange(dim)
        for _ in range(n - 1):
            step = image[step]
            smallest = np.minimum(smallest, step)
        sizes = np.bincount(smallest)
        sectors["T"] = ([np.arange(dim)], real.T[None])
        if "P" in sectors:
            sectors["TP"] = sectors["P"]
    parts = {}
    for name, (columns, coordinates) in sectors.items():
        rows = [
            np.flatnonzero(smallest[c] == c) if "T" in name else np.arange(len(c))
            for c in columns
        ]
        # a sector with fewer representatives repeats its first row, at
        # weight 0
        position = np.zeros((len(rows), max(map(len, rows))), dtype=np.intp)
        weights = np.zeros(position.shape)
        for s, (c, r) in enumerate(zip(columns, rows)):
            position[s, : len(r)] = r
            weights[s, : len(r)] = sizes[c[r]] if "T" in name else 1.0
        sector, row = np.indices(position.shape)
        weights = weights if "T" in name else None
        diagonal = (sector, position, row)
        parts[name] = (coordinates[sector, position], coordinates, weights, diagonal)
    return SymmetricBasis(basis, parts)


def coherence_l1_energy_basis(
    rho: np.ndarray,
    h_b: np.ndarray,
    basis: np.ndarray | SymmetricBasis | None = None,
    groups: str | list[str] | None = None,
) -> float | np.ndarray:
    """Sum of |off-diagonal| entries of rho in the h_b eigenbasis.

    When `basis` is given (unitary, eigenvectors as columns) it is used
    directly; this is how scenarios pin the analytic product eigenbasis of
    the noninteracting battery, whose spectrum is massively degenerate.
    Otherwise the deterministic basis from energy_eigenbasis is built.

    `groups` names the symmetry group of rho (StateCheck.group: rho
    commutes with every element of it bit for bit).  When `basis` is a
    SymmetricBasis (symmetric_basis) that resolves part of that group, the
    transform B^T rho B is block diagonal over the P sectors when P is in
    it, C_p^T rho_p C_p with rho_p = rho[:h, :h] +- rho[:h, h:][:, ::-1],
    and invariant under the column permutation Pi of T when T is in it:
    only the kept rows of each block are formed, two real matmuls on the
    interleaved float view, and each row's off-diagonal sum is weighted by
    its orbit's size.  With P alone that is half the arithmetic of the
    full transform, with T alone about 2 / N of it, and with both about
    1 / (2N).  Otherwise the full complex transform.  Either way the value
    agrees with the full transform at round-off.

    rho may also be a (K, dim, dim) stack of states, with groups then a
    sequence of K names, or one name for them all; the result is then the
    (K,) array of the states' values, each bitwise the one-state value.
    The states of each group go through one batched transform.
    """
    rho = np.asarray(rho, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    if rho.shape[-2:] != h_b.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.shape} vs Hamiltonian {h_b.shape}"
        )
    single = rho.ndim == 2
    states = rho[None] if single else rho
    if basis is None:
        basis = energy_eigenbasis(h_b)[1]
    if not isinstance(basis, SymmetricBasis):
        basis = SymmetricBasis(np.asarray(basis), {})
    if groups is None or isinstance(groups, str):
        groups = [groups or "1"] * len(states)
    # the states of each part of a group that the basis resolves
    resolved = {
        g: "".join(x for x in g if x in basis.parts) or "1" for g in set(groups)
    }
    members: dict[str, list[int]] = {}
    for k, g in enumerate(groups):
        members.setdefault(resolved[g], []).append(k)
    values = np.empty(len(states))
    for name, chosen in members.items():
        part = states if len(chosen) == len(states) else states[chosen]
        if name == "1":
            transformed = basis.basis.conj().T @ part @ basis.basis
            values[chosen] = _off_diagonal_l1(transformed[:, None])
        else:
            values[chosen] = _symmetric_l1(part, "P" in name, *basis.parts[name])
    return float(values[0]) if single else values


def _symmetric_l1(
    states: np.ndarray, split: bool, rows, coordinates, weights, diagonal
) -> np.ndarray:
    """sum of |off-diagonal| entries of B^T rho B over the kept rows of
    each sector (symmetric_basis), weighted, for each state of a
    (K, dim, dim) stack; split into the P sectors first when `split`.
    (C^T rho)[kept] is a real matrix times a complex one on the
    interleaved float view; its transpose, multiplied by C^T the same way,
    is the transpose of the kept rows of C^T rho C, whose diagonal entries
    are zeroed and whose columns are summed, weighted and summed, each
    state in the same order however many share the stack."""
    if split:
        h = states.shape[-1] // 2
        top_left, top_right = states[:, :h, :h], states[:, :h, h:][:, :, ::-1]
        sectors = np.empty((len(states), 2, h, h), dtype=complex)
        np.add(top_left, top_right, out=sectors[:, 0])
        np.subtract(top_left, top_right, out=sectors[:, 1])
    else:
        sectors = np.ascontiguousarray(states)[:, None]
    left = np.matmul(rows, sectors.view(float)).view(complex)
    turned = np.ascontiguousarray(left.swapaxes(-1, -2))
    transformed = np.matmul(coordinates, turned.view(float)).view(complex)
    off = np.abs(transformed)
    off[(slice(None),) + diagonal] = 0.0
    if weights is None:
        return off.reshape(len(off), -1).sum(axis=1)
    return (off.sum(axis=-2) * weights).reshape(len(off), -1).sum(axis=1)


def _off_diagonal_l1(blocks: np.ndarray) -> np.ndarray:
    """Sum of |off-diagonal| entries over the (K, b, s, s) stack of square
    blocks, one value per k, each summed as one contiguous run of b s^2
    entries as a one-state sum over its blocks is."""
    off = np.abs(blocks)
    diagonal = np.arange(off.shape[-1])
    off[..., diagonal, diagonal] = 0.0
    return off.reshape(len(off), -1).sum(axis=1)


def extraction_ratio(ergotropy_value: float, stored: float) -> float | None:
    """Extractable fraction ergotropy / stored, or None below the floor.

    None (a distinguished missing value, not zero) is returned when
    |stored| <= 1e-9, e.g. at t = 0 where no energy has been stored yet.
    """
    if abs(stored) <= STORED_ENERGY_FLOOR:
        return None
    return ergotropy_value / stored
