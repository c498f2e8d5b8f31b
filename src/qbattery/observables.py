"""Work-extraction figures of merit: energy, ergotropy, coherence, ratio.

Ergotropy is the maximum work extractable from a state by a unitary:
Tr[H rho] minus the passive energy, where the passive energy pairs the
state's populations sorted ascending with the Hamiltonian's levels sorted
descending (largest population on the lowest level).  The mean energy
Tr[H_B rho] of the battery Hamiltonian, a field term on every cell plus a
diagonal, is read from the N bit-flip diagonals rho[a, a ^ bit_i] and the
main diagonal of rho (bit_flip_terms), O(N dim) entries.  The l1-coherence
is the sum of absolute off-diagonal entries of the state expressed in a
deterministic eigenbasis of the battery Hamiltonian.  For a state that is
exactly invariant under the cyclic site shift T (evolution.check_state then
marks it translation_resolved) in a real basis that T permutes, such as
the field product basis, the transformed state is invariant under that
permutation, and the sum is taken over the rows of the permutation's orbit
representatives, weighted by orbit size; see translation_row_basis.
Otherwise, for a state that is exactly invariant under the global spin
flip (check_state then returns its two parity blocks) in a real basis
whose every vector is even or odd under the flip, the transform splits
into two real half-size ones; see parity_block_basis.
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
    to Tr[h_b rho] and is nonnegative up to eigensolver round-off.

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
    if rho.ndim == 2:
        w, passive = float(w[0]), float(passive[0])
    return ErgotropyReport(w=w, passive_energy=passive, ergotropy=w - passive)


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


def parity_block_basis(basis: np.ndarray) -> np.ndarray | None:
    """The basis split by spin-flip parity, for coherence_l1_energy_basis.

    The global spin flip maps z index a to dim - 1 - a, so a column of
    `basis` is even or odd under it when its row reversal equals it or its
    negative.  When every column of a real basis is exactly one of the two,
    with dim / 2 of each, column b of parity p has the coordinates
    sqrt(2) b[:dim/2] in that sector's basis (|a> +- |dim - 1 - a>) /
    sqrt(2), a < dim / 2.  Returns the (2, dim/2, dim/2) real stack of the
    transposes C_+^T, C_-^T of those coordinate matrices (columns in their
    order in `basis`), or None for any other basis.  Prepare it once per
    basis, not once per state.
    """
    basis = np.asarray(basis)
    dim = basis.shape[0]
    if dim % 2 or basis.shape != (dim, dim) or np.any(np.imag(basis)):
        return None
    real = np.real(basis)
    flipped = real[::-1]
    even = (flipped == real).all(axis=0)
    odd = (flipped == -real).all(axis=0)
    h = dim // 2
    if not (even ^ odd).all() or np.count_nonzero(even) != h:
        return None
    return np.sqrt(2.0) * np.stack((real[:h, even].T, real[:h, odd].T))


class TranslationRows(NamedTuple):
    """A real basis B that the cyclic site shift permutes, as
    translation_row_basis prepares it: `rows` is the (R, dim) stack of the
    transposes of B's columns at the representatives of the permutation's
    orbits (`representatives`, ascending), `weights` the sizes of those
    orbits, and `basis` B itself, real and contiguous."""

    rows: np.ndarray
    representatives: np.ndarray
    weights: np.ndarray
    basis: np.ndarray


def translation_row_basis(basis: np.ndarray) -> TranslationRows | None:
    """The basis prepared for the representative-row coherence, for
    coherence_l1_energy_basis.

    The cyclic site shift T (models.cyclic_shift) moves z index a to T a.
    When T maps every column of a real basis B of N >= 2 cells onto a
    column of B bit for bit, T B = B Pi for a permutation Pi of the
    columns, and for a state with T rho T^dag = rho the transformed state
    B^T rho B is invariant under Pi: entry (Pi c, Pi d) equals (c, d).  Its
    off-diagonal l1 sum is then the sum over the orbits of Pi of the orbit
    size times the off-diagonal sum of the representative's row.  The
    field product basis (models.field_product_eigenbasis) is such a basis,
    T permuting its product states.  Returns the TranslationRows of B, or
    None for any other basis.  Prepare it once per basis, not once per
    state.
    """
    basis = np.asarray(basis)
    dim = basis.shape[0]
    n = dim.bit_length() - 1
    if n < 2 or basis.shape != (dim, dim) or dim != 2**n or np.any(np.imag(basis)):
        return None
    real = np.ascontiguousarray(np.real(basis))
    # column c of T B: (T B)[T a, c] = B[a, c]
    moved = np.empty_like(real)
    moved[cyclic_shift(n)] = real
    column_of = {real[:, c].tobytes(): c for c in range(dim)}
    image = [column_of.get(moved[:, c].tobytes()) for c in range(dim)]
    if len(column_of) != dim or None in image:
        return None
    image = np.array(image)
    # T^N is the identity, so the orbits of Pi close within N steps
    smallest = np.arange(dim)
    step = smallest
    for _ in range(n - 1):
        step = image[step]
        smallest = np.minimum(smallest, step)
    representatives = np.flatnonzero(smallest == np.arange(dim))
    weights = np.bincount(smallest, minlength=dim)[representatives].astype(float)
    rows = np.ascontiguousarray(real[:, representatives].T)
    return TranslationRows(rows, representatives, weights, real)


def coherence_l1_energy_basis(
    rho: np.ndarray,
    h_b: np.ndarray,
    basis: np.ndarray | None = None,
    parity_blocks: np.ndarray | list | None = None,
    parity_basis: np.ndarray | None = None,
    translated: bool | list | None = None,
    translation_rows: TranslationRows | None = None,
) -> float | np.ndarray:
    """Sum of |off-diagonal| entries of rho in the h_b eigenbasis.

    When `basis` is given (unitary, eigenvectors as columns) it is used
    directly; this is how scenarios pin the analytic product eigenbasis of
    the noninteracting battery, whose spectrum is massively degenerate.
    Otherwise the deterministic basis from energy_eigenbasis is built.

    When `translated` (StateCheck.translation_resolved of this same rho:
    rho commutes exactly with the cyclic site shift) is true and
    `translation_rows` (translation_row_basis of `basis`) is given, only
    the representative rows of B^T rho B are formed, two real matmuls of
    R x dim by dim x dim on the interleaved float view, with R about
    dim / N, and each row's off-diagonal sum is weighted by its orbit's
    size.  Otherwise, when both `parity_blocks` (StateCheck.parity_blocks
    of this same rho) and `parity_basis` (parity_block_basis of `basis`)
    are given, rho in the basis is block diagonal: the blocks are
    C_p^T rho_p C_p, the cross-parity entries are exactly zero, and the
    sum is taken over the two blocks, two real matmuls per parity on
    half-size matrices in place of two complex full-size ones.  Either
    way the value agrees with the full transform at round-off.

    rho may also be a (K, dim, dim) stack of states, with parity_blocks
    and translated then sequences of K entries, a state's blocks or None
    and its flag; the result is then the (K,) array of the states' values,
    each bitwise the one-state value.  The states of each of the three
    paths go through one batched transform.
    """
    rho = np.asarray(rho, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    if rho.shape[-2:] != h_b.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.shape} vs Hamiltonian {h_b.shape}"
        )
    single = rho.ndim == 2
    states = rho[None] if single else rho
    if single or parity_blocks is None:
        parity_blocks = [parity_blocks] * len(states)
    if single or translated is None:
        translated = [bool(translated)] * len(states)
    by_rows = np.array(translated, dtype=bool) & (translation_rows is not None)
    resolved = ~by_rows & np.array(
        [parity_basis is not None and b is not None for b in parity_blocks],
        dtype=bool,
    )
    values = np.empty(len(states))
    if by_rows.any():
        values[by_rows] = _row_l1(
            translation_rows, states if by_rows.all() else states[by_rows]
        )
    if resolved.any():
        chosen = [b for b, r in zip(parity_blocks, resolved) if r]
        # one state's blocks as a view, a large state's copy being the cost
        blocks = np.ascontiguousarray(
            chosen[0][None] if len(chosen) == 1 else np.stack(chosen),
            dtype=complex,
        )
        # a real matrix times a complex one, on the interleaved float view
        rotated = np.matmul(parity_basis, blocks.view(float)).view(complex)
        turned = np.ascontiguousarray(rotated.swapaxes(-1, -2))
        # (C^T rho C)^T: the transpose has the same off-diagonal entries
        transformed = np.matmul(parity_basis, turned.view(float)).view(complex)
        values[resolved] = _off_diagonal_l1(transformed)
    rest = ~(by_rows | resolved)
    if rest.any():
        if basis is None:
            _, basis = energy_eigenbasis(h_b)
        chosen = states if rest.all() else states[rest]
        transformed = basis.conj().T @ chosen @ basis
        values[rest] = _off_diagonal_l1(transformed[:, None])
    return float(values[0]) if single else values


def _row_l1(rows: TranslationRows, states: np.ndarray) -> np.ndarray:
    """sum_r w_r sum_(c != r) |(B^T rho B)[r, c]| over the representatives
    r of translation_row_basis, one value per state of a (K, dim, dim)
    stack.  (B^T rho)[r] is a real matrix times a complex one on the
    interleaved float view; its transpose, multiplied by B^T the same way,
    is the (K, dim, R) transpose of the representative rows, whose entries
    (r, r) are zeroed and whose columns are summed over dim, weighted and
    summed, each state in the same order however many share the stack."""
    states = np.ascontiguousarray(states)
    left = np.matmul(rows.rows, states.view(float)).view(complex)
    turned = np.ascontiguousarray(left.swapaxes(-1, -2))
    transformed = np.matmul(rows.basis.T, turned.view(float)).view(complex)
    off = np.abs(transformed)
    off[:, rows.representatives, np.arange(len(rows.representatives))] = 0.0
    return (off.sum(axis=1) * rows.weights).sum(axis=1)


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
