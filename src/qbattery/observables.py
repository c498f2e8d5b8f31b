"""Work-extraction figures of merit: energy, ergotropy, coherence, ratio.

Ergotropy is the maximum work extractable from a state by a unitary:
Tr[H rho] minus the passive energy, where the passive energy pairs the
state's populations sorted ascending with the Hamiltonian's levels sorted
descending (largest population on the lowest level).  The l1-coherence is
the sum of absolute off-diagonal entries of the state expressed in a
deterministic eigenbasis of the battery Hamiltonian.  For a state that is
exactly invariant under the global spin flip (evolution.check_state then
returns its two parity blocks) in a real basis whose every vector is even
or odd under the flip, such as the field product basis, the transform
splits into two real half-size ones; see parity_block_basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    residue = float(np.max(np.abs(values.imag), initial=0.0))
    if residue >= IMAG_TRACE_TOL:
        raise ValueError(
            f"expectation value has imaginary residue {residue:.3e} "
            f"(tolerance {IMAG_TRACE_TOL:.0e})"
        )
    return values.real if rho.ndim == 3 else float(values[0].real)


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

    rho may also be a (K, dim, dim) stack of states, with populations then
    the K spectra; the report's fields are then (K,) arrays, each entry
    bitwise the one-state value: Tr[h_b rho] is one einsum over the stack,
    and the passive energy one dot product per state, since a batched
    product sums in another order (up to 1.8e-15 apart).
    """
    rho = np.asarray(rho, dtype=complex)
    h_b = np.asarray(h_b, dtype=complex)
    if rho.shape[-2:] != h_b.shape:
        raise ValueError(
            f"dimension mismatch: state {rho.shape} vs Hamiltonian {h_b.shape}"
        )
    # one state is a stack of one
    states = rho[None] if rho.ndim == 2 else rho
    w = expectation(states, h_b)
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


def energy_eigenbasis(
    h_b: np.ndarray, degeneracy_probe: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic eigenbasis of a Hermitian matrix.

    Eigenvectors are sorted by ascending eigenvalue.  Within each cluster of
    (numerically) degenerate eigenvalues, the basis is fixed by:

    1. diagonalizing the restriction of `degeneracy_probe` to the cluster
       and sorting by its eigenvalue, when that restriction actually splits
       the cluster (spread above 1e-10); then
    2. for any residual degeneracy, a modified Gram-Schmidt canonicalization
       of the cluster projector against the standard basis, which depends
       only on the spanned subspace, not on eigensolver output.

    Returns (eigenvalues ascending, basis matrix with eigenvectors as columns).
    """
    h_b = np.asarray(h_b, dtype=complex)
    vals, vecs = np.linalg.eigh(h_b)
    clusters = _degenerate_clusters(vals)
    for start, stop in clusters:
        if stop - start == 1:
            continue
        block = vecs[:, start:stop]
        if degeneracy_probe is not None:
            restricted = block.conj().T @ degeneracy_probe @ block
            restricted = 0.5 * (restricted + restricted.conj().T)
            sub_vals, sub_vecs = np.linalg.eigh(restricted)
            if sub_vals[-1] - sub_vals[0] > DEGENERACY_GAP:
                block = block @ sub_vecs
                # canonicalize probe-degenerate sub-clusters as well
                for s2, e2 in _degenerate_clusters(sub_vals):
                    if e2 - s2 > 1:
                        block[:, s2:e2] = _canonical_subspace_basis(
                            block[:, s2:e2]
                        )
                vecs[:, start:stop] = block
                continue
        vecs[:, start:stop] = _canonical_subspace_basis(block)
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


def coherence_l1_energy_basis(
    rho: np.ndarray,
    h_b: np.ndarray,
    basis: np.ndarray | None = None,
    parity_blocks: np.ndarray | list | None = None,
    parity_basis: np.ndarray | None = None,
) -> float | np.ndarray:
    """Sum of |off-diagonal| entries of rho in the h_b eigenbasis.

    When `basis` is given (unitary, eigenvectors as columns) it is used
    directly; this is how scenarios pin the analytic product eigenbasis of
    the noninteracting battery, whose spectrum is massively degenerate.
    Otherwise the deterministic basis from energy_eigenbasis is built.

    When both `parity_blocks` (StateCheck.parity_blocks of this same rho)
    and `parity_basis` (parity_block_basis of `basis`) are given, rho in the
    basis is block diagonal: the blocks are C_p^T rho_p C_p, the
    cross-parity entries are exactly zero, and the sum is taken over the
    two blocks, two real matmuls per parity on half-size matrices in place
    of two complex full-size ones.

    rho may also be a (K, dim, dim) stack of states, with parity_blocks
    then a sequence of K entries, each the state's blocks or None; the
    result is then the (K,) array of the states' values, each bitwise the
    one-state value.  The parity-resolved states go through one batched
    transform and the others through another.
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
    resolved = np.array(
        [parity_basis is not None and b is not None for b in parity_blocks],
        dtype=bool,
    )
    values = np.empty(len(states))
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
    if not resolved.all():
        if basis is None:
            _, basis = energy_eigenbasis(h_b)
        rest = states[~resolved] if resolved.any() else states
        transformed = basis.conj().T @ rest @ basis
        values[~resolved] = _off_diagonal_l1(transformed[:, None])
    return float(values[0]) if single else values


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
