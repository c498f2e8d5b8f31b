"""Dense multi-qubit operator construction and evaluation.

Conventions used throughout the package:

* Basis states of a single cell are ordered (spin-up, spin-down), so
  ``pauli("z") == diag(1, -1)`` and index 0 is the excited (+1) level.
* Site 0 is the leftmost tensor factor of the composite space.
* hbar = 1; all couplings are dimensionless.

Everything is dense complex128; the target scale (N <= 8 cells,
dimension <= 256) makes sparse machinery unnecessary.
"""

from __future__ import annotations

import numpy as np

PAULI_KINDS = ("x", "y", "z", "plus", "minus", "identity")

_PAULI_TABLE = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
    "identity": np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex),
}

IMAG_TRACE_TOL = 1e-10


def pauli(kind: str) -> np.ndarray:
    """Return the 2x2 single-cell operator of the given kind.

    Args:
        kind: one of "x", "y", "z", "plus", "minus", "identity".
            "plus"/"minus" are the ladder operators (sigma_x +- i sigma_y)/2.

    Returns:
        A fresh 2x2 complex array (safe to mutate).
    """
    try:
        return _PAULI_TABLE[kind].copy()
    except KeyError:
        raise ValueError(
            f"unknown operator kind {kind!r}; expected one of {PAULI_KINDS}"
        ) from None


def embed(op: np.ndarray, site: int, n_sites: int) -> np.ndarray:
    """Embed a single-cell operator at `site` of an `n_sites`-cell register.

    Returns identity (x) ... (x) op (x) ... (x) identity with `op` at tensor
    slot `site`; site 0 is the leftmost factor.
    """
    op = np.asarray(op, dtype=complex)
    if op.shape != (2, 2):
        raise ValueError(f"embed expects a 2x2 operator, got shape {op.shape}")
    if not 0 <= site < n_sites:
        raise ValueError(f"site {site} out of range for {n_sites} cells")
    left = np.eye(2**site, dtype=complex)
    right = np.eye(2 ** (n_sites - site - 1), dtype=complex)
    return np.kron(np.kron(left, op), right)


def kron_all(ops: list[np.ndarray] | tuple[np.ndarray, ...]) -> np.ndarray:
    """Tensor product of a sequence of operators, leftmost factor first."""
    if len(ops) == 0:
        raise ValueError("kron_all needs at least one operator")
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, op)
    return out


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
