"""GKSL master-equation integration with per-sample state validation.

The generator is

    d rho / dt = -i [H_eff, rho]
                 + sum_ij Gamma_ij (L_j rho L_i^dag - 1/2 {L_i^dag L_j, rho})

where H_eff is the reservoir-induced coherent Hamiltonian (zero for purely
local reservoirs).  The battery Hamiltonian enters observables and initial
states only, never the generator.  The default integrator is fixed-step
RK4 on the matrix-valued right-hand side; a vectorized matrix-exponential
mode is available at small size as an integrator-independent cross-check.

Channel-specific fast paths (cross-checked in tests against the literal
dissipator sum):

* dephasing with a z-diagonal H_eff acts element-wise in the z product
  basis, so the right-hand side is a single precomputed Hadamard factor;
* amplitude damping assembles the whole generator once as a sparse CSR
  superoperator on vec(rho), one sparse matvec per evaluation.

The generator does not depend on time, so for a linear right-hand side
rho' = L rho one RK4 step of size dt is exactly rho -> P(dt L) rho with
P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, and the n_sub substeps between two
samples are the fixed map M = P(dt L)^n_sub.  Both fast paths precompute M
once per run and apply it once per sample (the same RK4 polynomial, not
the exponential): the elementwise path as an elementwise power of its
factor, the sparse path as dense blocks over the weakly connected
components of the CSR's sparsity graph, on which L is block diagonal
(blocks of equal size stacked, one batched matmul per size).  These
components are the weak-symmetry sectors of the generator (Buca & Prosen,
NJP 14, 073007, 2012), and since every GKSL generator satisfies
L(rho^dag) = L(rho)^dag, the transpose vec(i, j) -> vec(j, i) maps each
sector onto its conjugate partner, with the complex-conjugate block.  The
sparse path therefore propagates one sector of each pair plus every
self-conjugate one, and fills the others of the Hermitian state as
rho[j, i] = conj(rho[i, j]).  It keeps the explicit substep loop, on the
CSR restricted to those kept sectors, when the map would do more
multiply-adds per sample than that loop or store more than
SAMPLE_MAP_MAX_BYTES (amplitude damping with cross-cell rates or hopping
from N = 7 on, local amplitude damping without hopping from N = 9 on);
the dense generic path always runs the loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from .dissipation import (
    GammaMatrix,
    NoiseSpec,
    build_gamma,
    dissipator_apply,
    jump_operators,
    require_cptp,
)

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8
STEADY_STATE_TOL = 1e-6
EXPM_MAX_SITES = 5
MAX_SAMPLES = 10**6
# Bytes the precomputed per-sample map of the sparse path may store, 16 per
# dense complex entry summed over the kept blocks (one of each conjugate
# pair plus the self-conjugate ones): amplitude damping with cross-cell
# rates or hopping needs ~28 MB at N = 6 and ~415 MB at N = 7, local
# amplitude damping ((6^N + 4^N) / 2 entries) ~14 MB at N = 8 and ~83 MB at
# N = 9.  Above the bound the run uses the explicit substep loop.
SAMPLE_MAP_MAX_BYTES = 64 * 2**20

INTEGRATORS = ("fixed_step_rk4", "liouvillian_expm")


class StateInvariantError(RuntimeError):
    """A sampled state left the physical region; integration is aborted."""

    def __init__(
        self, t: float, trace_drift: float, herm_drift: float, min_eig: float
    ) -> None:
        self.t = t
        self.trace_drift = trace_drift
        self.herm_drift = herm_drift
        self.min_eig = min_eig
        super().__init__(
            f"state invariant violated at t = {t:.6g}: "
            f"|trace - 1| = {trace_drift:.3e}, "
            f"hermiticity drift = {herm_drift:.3e}, "
            f"min eigenvalue = {min_eig:.3e}"
        )


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid and integrator settings.

    dt_internal = None selects the default step 1e-3 / max(rate and coupling
    scales of the generator); the battery field never enters the generator,
    so it plays no role in the step choice.  The internal step is always
    snapped to an integer subdivision of dt_sample so that samples are hit
    exactly; resolve_time_grid reports the snapped grid, and the scenario
    layer records it in its run manifest.
    """

    t_max: float
    dt_sample: float = 0.01
    integrator: str = "fixed_step_rk4"
    dt_internal: float | None = None

    def __post_init__(self) -> None:
        if self.t_max <= 0:
            raise ValueError(f"t_max must be > 0, got {self.t_max}")
        if self.dt_sample <= 0:
            raise ValueError(f"dt_sample must be > 0, got {self.dt_sample}")
        if self.t_max / self.dt_sample > MAX_SAMPLES:
            raise ValueError(f"t_max / dt_sample exceeds {MAX_SAMPLES} samples")
        if self.integrator not in INTEGRATORS:
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt_internal is not None:
            if self.dt_internal <= 0:
                raise ValueError("dt_internal must be > 0")
            if self.dt_internal > self.dt_sample * (1 + 1e-12):
                raise ValueError("dt_internal must not exceed dt_sample")


@dataclass(frozen=True)
class SteadyStateReport:
    converged: bool
    rho_ss: np.ndarray


def default_dt_internal(*scales: float) -> float:
    """Default RK4 step: 1e-3 in units of the inverse dominant scale."""
    s = max((abs(x) for x in scales), default=0.0)
    if s == 0.0:
        s = 1.0
    return 1e-3 / s


def _spec_scales(spec: NoiseSpec) -> list[float]:
    scales = [spec.gamma, abs(spec.gamma_offdiag)]
    if spec.coupling is not None:
        c = spec.coupling
        scales += [abs(c.j_z), abs(complex(c.j_xx, c.d_dm))]
    return scales


def _site_z_signs(n_sites: int) -> np.ndarray:
    """S[i, a] = sigma^z value (+-1) of site i in basis state a (site 0 = MSB)."""
    dim = 2**n_sites
    a = np.arange(dim)
    signs = np.empty((n_sites, dim), dtype=float)
    for i in range(n_sites):
        bit = (a >> (n_sites - 1 - i)) & 1
        signs[i] = 1.0 - 2.0 * bit
    return signs


def _is_z_diagonal(matrix: np.ndarray) -> bool:
    off = np.asarray(matrix).copy()
    np.fill_diagonal(off, 0.0)
    return bool(np.max(np.abs(off)) < 1e-14)


def _rk4_polynomial(x: np.ndarray, elementwise: bool) -> np.ndarray:
    """P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 in Horner form.

    One classical RK4 step of size dt on rho' = L rho is exactly
    rho -> P(dt L) rho.  `elementwise` evaluates P entry by entry (for a
    diagonal generator stored as its diagonal); otherwise x is a square
    matrix and the products are matrix products.
    """
    if elementwise:
        one, mul = 1.0, np.multiply
    else:
        one, mul = np.eye(x.shape[0], dtype=x.dtype), np.matmul
    p = one + x / 4.0
    for k in (3.0, 2.0, 1.0):
        p = one + mul(x, p) / k
    return p


def _substep_loop_work(nnz: int, size: int, n_sub: int) -> int:
    """Multiply-adds per sample of _rk4_substeps on a sparse linear RHS with
    `nnz` stored entries acting on vectors of `size` entries: per substep
    four matvecs and fourteen whole-vector operations (stage arguments and
    the weighted sum)."""
    return n_sub * (4 * nnz + 14 * size)


def _transpose_index(k: np.ndarray, dim: int) -> np.ndarray:
    """Row-major vec index of rho[j, i] for each vec index k of rho[i, j]."""
    return (k % dim) * dim + k // dim


def _rk4_substeps(rhs, dt: float, n_sub: int, rho: np.ndarray) -> np.ndarray:
    """n_sub explicit classical RK4 steps of size dt."""
    sixth = dt / 6.0
    half = dt / 2.0
    for _ in range(n_sub):
        k1 = rhs(rho)
        k2 = rhs(rho + half * k1)
        k3 = rhs(rho + half * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + sixth * (k1 + 2.0 * (k2 + k3) + k4)
    return rho


class _ElementwiseDephasingRHS:
    """rhs(rho) = Lambda * rho for z-diagonal H_eff and sigma^z jumps.

    With s_i(a) the sigma^z value of site i in basis state a and E_a the
    diagonal effective energies,

        Lambda_ab = -i (E_a - E_b) + sum_ij Gamma_ij [ s_j(a) s_i(b)
                    - s_i(a) s_j(a) / 2 - s_i(b) s_j(b) / 2 ].
    """

    def __init__(self, h_eff: np.ndarray, gamma: GammaMatrix) -> None:
        signs = _site_z_signs(gamma.n_sites)
        g = gamma.matrix
        g_signs = g @ signs                                     # (N, dim)
        cross = np.einsum("ja,ib,ij->ab", signs, signs, g, optimize=True)
        self_rate = np.real(np.einsum("ia,ia->a", signs, g_signs))
        energies = np.real(np.diag(h_eff))
        self.factor = (
            -1j * (energies[:, None] - energies[None, :])
            + cross
            - 0.5 * (self_rate[:, None] + self_rate[None, :])
        )

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.factor * rho

    def sample_map(self, dt: float, n_sub: int):
        """One sample (n_sub RK4 steps of size dt) as one Hadamard product.

        It stores one array the size of `factor` and costs one multiply per
        entry against 4 n_sub for the substep loop, so it is always used.
        """
        sample_factor = (
            _rk4_polynomial(dt * self.factor, elementwise=True) ** n_sub
        )
        return lambda rho: sample_factor * rho


class _AmplitudeDampingRHS:
    """Sparse-superoperator RHS for sigma^- jumps with arbitrary rate matrices.

    Every piece of the generator is sparse for this channel (sigma^- clears
    one bit, so each embedded jump operator has dim/2 entries), so the whole
    right-hand side is assembled once as a CSR matrix acting on vec(rho)
    (row-major, vec(A rho B) = kron(A, B^T) vec(rho)):

        L = -i [kron(H_nh, I) - kron(I, conj(H_nh))]
            + sum_ij Gamma_ij kron(L_j, conj(L_i)),

    with the non-Hermitian drift H_nh = H_eff - (i/2) M and
    M = sum_ij Gamma_ij sigma_i^+ sigma_j^-.  One sparse matvec per
    evaluation replaces the dense commutator algebra, and the form is exact
    for arbitrary (not only Hermitian) inputs.
    """

    def __init__(self, h_eff: np.ndarray, gamma: GammaMatrix) -> None:
        n = gamma.n_sites
        dim = 2**n
        ls = [
            scipy.sparse.csr_matrix(op)
            for op in jump_operators("amplitude_damping", n)
        ]
        g = gamma.matrix
        m_op = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
        jump = scipy.sparse.csr_matrix((dim * dim, dim * dim), dtype=complex)
        for i in range(n):
            li_dag = ls[i].conj().T
            for j in range(n):
                if g[i, j] == 0:
                    continue
                m_op = m_op + g[i, j] * (li_dag @ ls[j])
                jump = jump + g[i, j] * scipy.sparse.kron(
                    ls[j], ls[i].conj(), format="csr"
                )
        h_nh = scipy.sparse.csr_matrix(np.asarray(h_eff, dtype=complex))
        h_nh = h_nh - 0.5j * m_op
        eye = scipy.sparse.identity(dim, format="csr", dtype=complex)
        lmat = (
            -1j
            * (
                scipy.sparse.kron(h_nh, eye, format="csr")
                - scipy.sparse.kron(eye, h_nh.conj(), format="csr")
            )
            + jump
        )
        self.lmat = lmat.tocsr()
        self.dim = dim

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        flat = self.lmat @ np.ascontiguousarray(rho).reshape(-1)
        return flat.reshape(self.dim, self.dim)

    def blocks(self) -> list[np.ndarray]:
        """Index sets of the weakly connected components of lmat's sparsity
        graph, each sorted ascending.  lmat has no entry between two of
        them, so it is block diagonal over them (the weak-symmetry sectors;
        for excitation-conserving H_eff, one per ket-minus-bra excitation
        difference)."""
        return self.conjugate_sectors()[0]

    def conjugate_sectors(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(blocks, partner): the blocks as blocks() returns them, and
        partner[c] the block onto which the transpose vec(i, j) -> vec(j, i)
        maps block c.

        Every GKSL generator satisfies L(rho^dag) = L(rho)^dag, that is
        lmat[T a, T b] = conj(lmat[a, b]) for the transpose T, so T maps each
        block onto a block whose generator, and so whose RK4 map, is the
        complex conjugate.  The partner is read from the label of one
        transposed index per block; partner[c] == c marks a self-conjugate
        block (for excitation-conserving H_eff, the one with zero
        ket-minus-bra excitation difference).
        """
        pattern = scipy.sparse.csr_matrix(
            (np.ones(self.lmat.nnz), self.lmat.indices, self.lmat.indptr),
            shape=self.lmat.shape,
        )
        n_comp, labels = scipy.sparse.csgraph.connected_components(
            pattern, directed=True, connection="weak"
        )
        order = np.argsort(labels, kind="stable")
        bounds = np.cumsum(np.bincount(labels, minlength=n_comp))[:-1]
        firsts = order[np.concatenate(([0], bounds))]
        return np.split(order, bounds), labels[_transpose_index(firsts, self.dim)]

    def _kept_sectors(self) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
        """(kept blocks, kept, fill): the blocks propagated for a Hermitian
        state, one of each conjugate pair (the lower label) and every
        self-conjugate one; the sorted indices they cover; and the sorted
        indices of the other blocks, whose entries are the conjugates of
        their transposes, out[fill] = conj(out[T fill])."""
        blocks, partner = self.conjugate_sectors()
        kept_blocks = [
            idx for c, idx in enumerate(blocks) if partner[c] >= c
        ]
        in_kept = np.zeros(self.lmat.shape[0], dtype=bool)
        in_kept[np.concatenate(kept_blocks)] = True
        return kept_blocks, np.flatnonzero(in_kept), np.flatnonzero(~in_kept)

    def sample_map(self, dt: float, n_sub: int):
        """One sample (n_sub RK4 steps of size dt) as dense block matvecs
        on the kept sectors (_kept_sectors), the other entries filled as
        conjugates; exact for Hermitian rho.

        Blocks of equal size are stacked, so a sample costs one batched
        matmul per distinct block size.  Returns None, and the caller runs
        substep_loop, when the kept blocks hold at least as many entries as
        that loop does multiply-adds per sample (_substep_loop_work on the
        kept rows) or take more than SAMPLE_MAP_MAX_BYTES.
        """
        kept_blocks, kept, fill = self._kept_sectors()
        entries = sum(len(idx) ** 2 for idx in kept_blocks)
        kept_nnz = int(np.diff(self.lmat.indptr)[kept].sum())
        loop_work = _substep_loop_work(kept_nnz, len(kept), n_sub)
        if entries >= loop_work or 16 * entries > SAMPLE_MAP_MAX_BYTES:
            return None
        by_size: dict[int, list[np.ndarray]] = {}
        for idx in kept_blocks:
            by_size.setdefault(len(idx), []).append(idx)
        groups = []
        for size, same in by_size.items():
            maps = np.empty((len(same), size, size), dtype=complex)
            for b, idx in enumerate(same):
                sub = (dt * self.lmat[idx][:, idx]).toarray()
                maps[b] = np.linalg.matrix_power(
                    _rk4_polynomial(sub, False), n_sub
                )
            groups.append((np.stack(same), maps))
        source = _transpose_index(fill, self.dim)

        def step(rho: np.ndarray) -> np.ndarray:
            flat = rho.reshape(-1)
            out = np.empty_like(flat)
            for idx, maps in groups:
                out[idx] = np.matmul(maps, flat[idx][..., None])[..., 0]
            out[fill] = np.conj(out[source])
            return out.reshape(rho.shape)

        return step

    def substep_loop(self, dt: float, n_sub: int):
        """One sample as n_sub explicit RK4 steps of size dt on the kept
        sectors, the other entries filled as in sample_map; exact for
        Hermitian rho.  The step holds lmat restricted to the kept indices,
        not lmat itself, so the full generator can be freed once it is
        built."""
        _, kept, fill = self._kept_sectors()
        lmat_kept = self.lmat[kept][:, kept]
        source = _transpose_index(fill, self.dim)

        def step(rho: np.ndarray) -> np.ndarray:
            flat = rho.reshape(-1)
            out = np.empty_like(flat)
            out[kept] = _rk4_substeps(lmat_kept.dot, dt, n_sub, flat[kept])
            out[fill] = np.conj(out[source])
            return out.reshape(rho.shape)

        return step


class _GenericRHS:
    """Dense fallback: eigendecomposed jump stack plus non-Hermitian drift.

    Valid for Hermitian states (density matrices and RK4 stage values);
    liouvillian_rhs is the fully general literal reference.
    """

    def __init__(
        self, h_eff: np.ndarray, gamma: GammaMatrix, channel: str
    ) -> None:
        n = gamma.n_sites
        ls = jump_operators(channel, n)
        mu, v = np.linalg.eigh(gamma.matrix)
        stack = []
        for k in range(n):
            a_k = np.zeros_like(ls[0])
            for j in range(n):
                a_k += np.conj(v[j, k]) * ls[j]
            stack.append(a_k)
        self.mu = mu
        self.a_stack = np.array(stack)
        self.a_dag_stack = self.a_stack.conj().transpose(0, 2, 1)
        m_op = np.einsum(
            "k,kij,kjl->il", mu, self.a_dag_stack, self.a_stack, optimize=True
        )
        self.h_nh = np.asarray(h_eff, dtype=complex) - 0.5j * m_op

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        drift = self.h_nh @ rho
        out = -1j * (drift - drift.conj().T)
        sandwich = self.a_stack @ rho @ self.a_dag_stack
        out += np.einsum("k,kij->ij", self.mu, sandwich, optimize=True)
        return out

    def sample_map(self, dt: float, n_sub: int):
        """None: this path is valid on Hermitian inputs only, so it has no
        superoperator to precompute and always runs the substep loop."""
        return None

    def substep_loop(self, dt: float, n_sub: int):
        """One sample as n_sub explicit RK4 steps of size dt."""
        return functools.partial(_rk4_substeps, self, dt, n_sub)


def make_rhs(h_eff: np.ndarray, gamma: GammaMatrix, channel: str):
    """Compiled right-hand-side callable for repeated evaluation."""
    if channel == "dephasing" and _is_z_diagonal(h_eff):
        return _ElementwiseDephasingRHS(h_eff, gamma)
    if channel == "amplitude_damping":
        return _AmplitudeDampingRHS(h_eff, gamma)
    return _GenericRHS(h_eff, gamma, channel)


def liouvillian_rhs(
    h_eff: np.ndarray, gamma: GammaMatrix, channel: str, rho: np.ndarray
) -> np.ndarray:
    """Literal d rho / dt = -i [H_eff, rho] + dissipator.  Reference path."""
    h_eff = np.asarray(h_eff, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if h_eff.shape != rho.shape:
        raise ValueError(
            f"dimension mismatch: H_eff {h_eff.shape} vs state {rho.shape}"
        )
    if np.max(np.abs(h_eff - h_eff.conj().T)) > 1e-12:
        raise ValueError("liouvillian_rhs expects a Hermitian H_eff")
    return (
        -1j * (h_eff @ rho - rho @ h_eff)
        + dissipator_apply(gamma, channel, rho)
    )


def liouvillian_matrix(
    h_eff: np.ndarray, gamma: GammaMatrix, channel: str
) -> np.ndarray:
    """Vectorized generator L with vec(rho) = rho.reshape(-1) (row-major).

    vec(A rho B) = kron(A, B^T) vec(rho), so

        L = -i [kron(H, I) - kron(I, H^T)]
            + sum_ij Gamma_ij [ kron(L_j, conj(L_i))
                                - 1/2 kron(L_i^dag L_j, I)
                                - 1/2 kron(I, (L_i^dag L_j)^T) ].
    """
    n = gamma.n_sites
    dim = 2**n
    ls = jump_operators(channel, n)
    eye = np.eye(dim, dtype=complex)
    h_eff = np.asarray(h_eff, dtype=complex)
    lmat = -1j * (np.kron(h_eff, eye) - np.kron(eye, h_eff.T))
    g = gamma.matrix
    for i in range(n):
        for j in range(n):
            if g[i, j] == 0:
                continue
            ldl = ls[i].conj().T @ ls[j]
            lmat += g[i, j] * (
                np.kron(ls[j], ls[i].conj())
                - 0.5 * np.kron(ldl, eye)
                - 0.5 * np.kron(eye, ldl.T)
            )
    return lmat


class StateCheck(NamedTuple):
    """What check_state measured on one state.

    populations is the ascending spectrum of the Hermitian part of rho, so
    populations[0] is its minimum eigenvalue and the whole array is what
    the spectral ergotropy formula needs (observables.ergotropy takes it as
    `populations`).  trace_drift is |Tr rho - 1| (real and imaginary parts
    summed) and herm_drift the largest entry of |rho - rho^dag|.
    """

    populations: np.ndarray
    trace_drift: float
    herm_drift: float

    @property
    def min_eig(self) -> float:
        return float(self.populations[0])


def check_state(rho: np.ndarray, t: float) -> StateCheck:
    """Raise StateInvariantError unless rho is a valid density matrix.

    Returns the check's measurements, including the spectrum it computed,
    so a caller needs no second eigendecomposition of the same state.
    """
    trace = np.trace(rho)
    trace_drift = float(abs(trace.real - 1.0) + abs(trace.imag))
    adjoint = rho.conj().T
    herm_drift = float(np.max(np.abs(rho - adjoint)))
    populations = np.linalg.eigvalsh(0.5 * (rho + adjoint))
    min_eig = float(populations[0])
    if (
        trace_drift >= TRACE_TOL
        or herm_drift >= HERMITICITY_TOL
        or min_eig < MIN_EIGENVALUE_TOL
    ):
        raise StateInvariantError(t, trace_drift, herm_drift, min_eig)
    return StateCheck(populations, trace_drift, herm_drift)


def resolve_time_grid(cfg: EvolutionConfig, spec: NoiseSpec) -> tuple[int, int]:
    """Resolved time grid: (samples after t=0, RK4 substeps per sample).

    The effective internal step is dt_sample / n_sub, i.e. the requested
    (or default) dt_internal rounded down to an integer subdivision of the
    sampling interval so that sample times are hit exactly.
    """
    n_samples = int(np.floor(cfg.t_max / cfg.dt_sample + 1e-9))
    dt_internal = cfg.dt_internal
    if dt_internal is None:
        dt_internal = default_dt_internal(*_spec_scales(spec))
    n_sub = max(1, int(np.ceil(cfg.dt_sample / dt_internal - 1e-9)))
    return n_samples, n_sub


def evolve_stream(
    rho0: np.ndarray,
    h_eff: np.ndarray,
    spec: NoiseSpec,
    cfg: EvolutionConfig,
    info: dict | None = None,
):
    """Generator form of evolve: yields (t, rho) one sample at a time.

    Memory stays O(dim^2) regardless of the grid length; evolve() collects
    the samples into the list form.  The rate matrix built from `spec` must
    pass CPTP validation or integration is refused; every yielded state is
    checked against the density-matrix invariants.

    If `info` is a dict, the propagation path is stored under
    info["propagation"] before the first sample after t = 0 is yielded:
    "rk4_sample_map" (precomputed per-sample RK4 map), "rk4_substep_loop"
    (explicit RK4 substeps) or "expm" (the liouvillian_expm integrator).
    Before each sample is yielded, its check_state record is stored under
    info["check"] (its populations feed observables.ergotropy without a
    second eigendecomposition), and info["invariant_margins"] holds the
    worst margins of the samples so far: the largest trace and
    hermiticity drifts and the smallest minimum eigenvalue.
    """
    rho = np.array(rho0, dtype=complex)
    dim = rho.shape[0]
    n_sites = int(np.log2(dim))
    if 2**n_sites != dim or rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} is not a 2^N square")
    h_eff = np.asarray(h_eff, dtype=complex)
    if h_eff.shape != rho.shape:
        raise ValueError(
            f"dimension mismatch: H_eff {h_eff.shape} vs state {rho.shape}"
        )
    if np.max(np.abs(h_eff - h_eff.conj().T)) > 1e-12:
        raise ValueError("evolve expects a Hermitian H_eff")
    gamma = build_gamma(spec, n_sites)
    require_cptp(gamma)
    margins = {
        "max_trace_drift": 0.0,
        "max_herm_drift": 0.0,
        "min_eigenvalue": math.inf,
    }
    if info is not None:
        info["invariant_margins"] = margins

    def checked(rho: np.ndarray, t: float) -> None:
        check = check_state(rho, t)
        if info is None:
            return
        info["check"] = check
        margins["max_trace_drift"] = max(
            margins["max_trace_drift"], check.trace_drift
        )
        margins["max_herm_drift"] = max(
            margins["max_herm_drift"], check.herm_drift
        )
        margins["min_eigenvalue"] = min(
            margins["min_eigenvalue"], check.min_eig
        )

    checked(rho, 0.0)
    n_samples, n_sub = resolve_time_grid(cfg, spec)
    yield 0.0, rho.copy()
    if cfg.integrator == "liouvillian_expm":
        if n_sites > EXPM_MAX_SITES:
            raise ValueError(
                f"liouvillian_expm supports N <= {EXPM_MAX_SITES} cells"
            )
        lmat = liouvillian_matrix(h_eff, gamma, spec.channel)
        propagator = scipy.linalg.expm(lmat * cfg.dt_sample)
        if info is not None:
            info["propagation"] = "expm"
        vec = rho.reshape(-1)
        for k in range(1, n_samples + 1):
            vec = propagator @ vec
            t = k * cfg.dt_sample
            rho = vec.reshape(dim, dim)
            checked(rho, t)
            yield t, rho.copy()
        return
    rhs = make_rhs(h_eff, gamma, spec.channel)
    dt = cfg.dt_sample / n_sub
    step, path = rhs.sample_map(dt, n_sub), "rk4_sample_map"
    if step is None:
        step, path = rhs.substep_loop(dt, n_sub), "rk4_substep_loop"
    # the step holds what it applies; the damping generator need not outlive it
    del rhs
    if info is not None:
        info["propagation"] = path
    for k in range(1, n_samples + 1):
        rho = step(rho)
        t = k * cfg.dt_sample
        checked(rho, t)
        yield t, rho.copy()


def evolve(
    rho0: np.ndarray,
    h_eff: np.ndarray,
    spec: NoiseSpec,
    cfg: EvolutionConfig,
) -> list[tuple[float, np.ndarray]]:
    """Integrate the master equation and return all sampled (t, rho) pairs."""
    return list(evolve_stream(rho0, h_eff, spec, cfg))


def steady_state_probe(
    series: list[tuple[float, np.ndarray]], window: float
) -> SteadyStateReport:
    """Convergence test over the trailing time window.

    converged is True when every sampled state within `window` of the final
    time differs from the final state by less than 1e-6 entrywise.
    """
    if not series:
        raise ValueError("steady_state_probe needs a nonempty series")
    t_end, rho_end = series[-1]
    deviation = 0.0
    for t, rho in series:
        if t >= t_end - window:
            deviation = max(deviation, float(np.max(np.abs(rho - rho_end))))
    return SteadyStateReport(
        converged=deviation < STEADY_STATE_TOL, rho_ss=rho_end.copy()
    )
