"""Dissipation-rate matrices and their CPTP validation.

A reservoir configuration is an N x N Hermitian rate matrix Gamma with the
local rate gamma on the diagonal and the cross-site rate gamma_offdiag
(written p + i q) on correlated pairs.  Positive semidefiniteness of Gamma
is necessary and sufficient for the generator

    D(rho) = sum_ij Gamma_ij (L_j rho L_i^dag - 1/2 {L_i^dag L_j, rho})

to be completely positive and trace preserving, with L = sigma^z for
dephasing and L = sigma^- for zero-temperature amplitude damping.  The
generator itself is assembled in evolution (_gksl_matrix).

Topologies:
    local:            Gamma = gamma * I
    nearest_neighbor: gamma on the diagonal; each oriented ring bond
                      j -> k adds g12 to Gamma_jk and conj(g12) to
                      Gamma_kj.  The periodic ring (default) gives the
                      Hermitian circulant with corner entries for N >= 3,
                      and at N = 2 the two orientations of the single pair
                      land on the same entry, so Gamma_01 = 2 Re g12.  An
                      open chain (periodic = False) omits the wraparound;
                      the open pair keeps the full complex g12.
    all_to_all:       gamma_offdiag on every pair j < k

The periodic nearest-neighbor ring is circulant, so its spectrum has the
closed form gamma + 2|g12| cos(2 pi m / N + arg g12) for every N >= 2 (see
closed_forms.gamma_nn_eigenvalues; at N = 2 this reduces to the eigenvalues
gamma +- 2 Re g12 of the doubled-entry matrix).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .closed_forms import gamma_nn_eigenvalues
from .models import EffectiveCoupling, ring_bonds

PSD_TOL = -1e-12

CHANNELS = ("dephasing", "amplitude_damping")
TOPOLOGIES = ("local", "nearest_neighbor", "all_to_all")


class CptpViolationError(ValueError):
    """The requested reservoir configuration is not a valid CPTP generator."""


@dataclass(frozen=True)
class NoiseSpec:
    """Full description of the reservoir acting on the battery.

    Attributes:
        channel: "dephasing" (jump sigma^z) or "amplitude_damping" (sigma^-).
        topology: "local", "nearest_neighbor", or "all_to_all".
        gamma: local rate (diagonal of Gamma), finite and >= 0.
        gamma_offdiag: cross-site rate p + i q, finite, uniform across
            correlated pairs; must be 0 for local topology.
        coupling: reservoir-induced coherent coupling; must carry zero
            strengths for local topology (a purely local reservoir induces
            no coherent interaction).
        periodic: nearest-neighbor boundary condition; True (default) wraps
            the chain into a ring, False leaves it open.  Ignored by the
            other topologies.
    """

    channel: str
    topology: str
    gamma: float
    gamma_offdiag: complex = 0j
    coupling: EffectiveCoupling | None = None
    periodic: bool = True

    def __post_init__(self) -> None:
        if self.channel not in CHANNELS:
            raise ValueError(f"unknown channel {self.channel!r}")
        if self.topology not in TOPOLOGIES:
            raise ValueError(f"unknown topology {self.topology!r}")
        # a non-finite rate would reach build_gamma's arithmetic and fail
        # later as a CPTP violation whose sufficient bound reads satisfied
        if not (np.isfinite(self.gamma) and self.gamma >= 0):
            raise ValueError(f"gamma must be a finite number >= 0, got {self.gamma}")
        if not np.isfinite(self.gamma_offdiag):
            raise ValueError(f"gamma_offdiag must be finite, got {self.gamma_offdiag}")
        if self.topology == "local":
            if self.gamma_offdiag != 0:
                raise ValueError("local topology requires gamma_offdiag = 0")
            c = self.coupling
            if c is not None and (c.j_z != 0 or c.j_xx != 0 or c.d_dm != 0):
                raise ValueError(
                    "local topology requires zero effective coupling strengths"
                )


@dataclass(frozen=True)
class GammaMatrix:
    """N x N Hermitian dissipation-rate matrix plus its topology metadata."""

    matrix: np.ndarray
    topology: str
    gamma: float
    gamma_offdiag: complex
    n_sites: int = field(default=0)
    periodic: bool = True

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        if self.n_sites == 0:
            object.__setattr__(self, "n_sites", m.shape[0])
        if m.shape != (self.n_sites, self.n_sites):
            raise ValueError(f"rate matrix shape {m.shape} is not square N x N")
        if np.max(np.abs(m - m.conj().T)) > 1e-14:
            raise ValueError("rate matrix must be Hermitian to 1e-14")


@dataclass(frozen=True)
class CptpReport:
    """Outcome of validating a rate matrix.

    valid reflects the necessary-and-sufficient PSD test (minimum eigenvalue
    >= -1e-12); analytic_bound_satisfied evaluates the topology's sufficient
    closed-form condition (gamma >= 2|g12| for the nearest-neighbor ring,
    gamma >= (N-1)|g12| for all-to-all, gamma >= 0 for local).
    """

    valid: bool
    min_eigenvalue: float
    analytic_bound_satisfied: bool
    bound_description: str


def build_gamma(spec: NoiseSpec, n_sites: int) -> GammaMatrix:
    """Assemble the rate matrix for the given reservoir and register size."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    if spec.topology != "local" and n_sites < 2:
        raise ValueError("correlated topologies need at least 2 cells")
    g = float(spec.gamma)
    g12 = complex(spec.gamma_offdiag)
    if spec.topology == "local":
        m = g * np.eye(n_sites, dtype=complex)
    elif spec.topology == "nearest_neighbor":
        m = g * np.eye(n_sites, dtype=complex)
        # One contribution per oriented bond; at N = 2 periodic both
        # orientations hit the same entry, giving Gamma_01 = 2 Re g12.
        for j, k in ring_bonds(n_sites, spec.periodic):
            m[j, k] += g12
            m[k, j] += np.conj(g12)
    else:  # all_to_all
        m = g * np.eye(n_sites, dtype=complex)
        for j in range(n_sites):
            for k in range(j + 1, n_sites):
                m[j, k] = g12
                m[k, j] = np.conj(g12)
    return GammaMatrix(
        matrix=m,
        topology=spec.topology,
        gamma=g,
        gamma_offdiag=g12,
        n_sites=n_sites,
        periodic=spec.periodic,
    )


def validate_cptp(gamma: GammaMatrix) -> CptpReport:
    """Check positive semidefiniteness and the topology's analytic bound.

    The PSD test (minimum eigenvalue >= -1e-12) is the authoritative
    validity decision; the analytic bound is the sufficient condition
    reported alongside for diagnostics.  For the nearest-neighbor topology
    the numerical spectrum is cross-checked against its closed form and a
    mismatch beyond 1e-10 raises, since that indicates a construction bug
    rather than an invalid configuration.  The matrix is Hermitian to
    1e-14 by construction (GammaMatrix enforces it).
    """
    eigenvalues = np.linalg.eigvalsh(gamma.matrix)
    min_eig = float(eigenvalues[0])
    valid = min_eig >= PSD_TOL
    mod = abs(gamma.gamma_offdiag)
    n = gamma.n_sites
    if gamma.topology == "local":
        bound_ok = gamma.gamma >= 0
        bound_desc = f"gamma >= 0 (gamma = {gamma.gamma:g})"
    elif gamma.topology == "nearest_neighbor":
        bound_ok = gamma.gamma >= 2.0 * mod
        bound_desc = (
            f"gamma >= 2|gamma_offdiag| ({gamma.gamma:g} vs {2.0 * mod:g})"
        )
        if gamma.periodic:
            reference = gamma_nn_eigenvalues(
                gamma.gamma, gamma.gamma_offdiag, n
            )
            if np.max(np.abs(np.sort(eigenvalues) - reference)) > 1e-10:
                raise RuntimeError(
                    "nearest-neighbor rate matrix spectrum deviates from its "
                    "closed form; rate-matrix construction is inconsistent"
                )
    else:
        bound_ok = gamma.gamma >= (n - 1) * mod
        bound_desc = (
            f"gamma >= (N-1)|gamma_offdiag| "
            f"({gamma.gamma:g} vs {(n - 1) * mod:g})"
        )
    return CptpReport(
        valid=valid,
        min_eigenvalue=min_eig,
        analytic_bound_satisfied=bool(bound_ok),
        bound_description=bound_desc,
    )


def require_cptp(gamma: GammaMatrix) -> CptpReport:
    """validate_cptp that raises CptpViolationError on an invalid matrix."""
    report = validate_cptp(gamma)
    if not report.valid:
        raise CptpViolationError(
            f"rate matrix is not positive semidefinite "
            f"(min eigenvalue {report.min_eigenvalue:.3e}); "
            f"sufficient bound: {report.bound_description}, "
            f"{'satisfied' if report.analytic_bound_satisfied else 'violated'}"
        )
    return report
