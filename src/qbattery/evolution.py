"""GKSL master-equation integration with per-sample state validation.

The generator is

    d rho / dt = -i [H_eff, rho]
                 + sum_ij Gamma_ij (L_j rho L_i^dag - 1/2 {L_i^dag L_j, rho})

where H_eff is the reservoir-induced coherent Hamiltonian (zero for purely
local reservoirs), derived from the NoiseSpec's coupling and boundary
condition.  The battery Hamiltonian enters observables and initial states
only, never the generator.  The integrator is fixed-step classical RK4.

For sigma^z dephasing the dissipator and the diagonal of H_eff act
elementwise in the z product basis, as one dim x dim array Lambda[a, b]
(_dephasing_diagonal).  When H_eff has no off-diagonal entry (Ising-z, as
in the presets, or none) that is the whole generator, and make_rhs keeps
it as that array (_DiagonalGenerator).  Every other generator, of either
channel, is assembled once as one sparse CSR superoperator on vec(rho)
(_gksl_matrix, the package's only construction of it; the tests compare it
with the literal double sum of tests/reference_impls.py), with Lambda on
its diagonal for dephasing.  Its terms share no position off the
diagonal, so each entry is written once, from the bits of the basis
states and the dense non-Hermitian drift, into preallocated arrays, each
ket row block put in CSR order by one sort (_write_generator); the build
does no sparse-matrix arithmetic.  scipy.sparse is imported only by the
functions that build a CSR, so a process whose runs are all diagonal
dephasing never loads it.

The generator does not depend on time, so for a linear right-hand side
rho' = L rho one RK4 step of size dt is exactly rho -> P(dt L) rho with
P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, and the n_sub substeps between two
samples are the fixed map M = P(dt L)^n_sub.  _Generator.sample_map builds
the run's one per-sample step: M, precomputed once per run and applied
once per sample (the same RK4 polynomial, not the exponential), or the
explicit substep loop where M would cost more (below), and it records
which of the two it took.  A diagonal generator's map is the elementwise
power of P(dt Lambda), one Hadamard product a sample
(_DiagonalGenerator.sample_map).  A CSR generator is block diagonal over
the weakly connected components of its sparsity graph
(found with numpy by min-label hooking with pointer jumping, _components),
and its map is one list of parts over them (_Generator.sector_parts), each
gathered once a sample and applied by batched matmuls: blocks of equal
size stacked, one matmul per size, or one per level row slab (below).  The
components are the weak-symmetry sectors of the generator (Buca & Prosen,
NJP 14, 073007, 2012), and since every GKSL generator satisfies
L(rho^dag) = L(rho)^dag, the transpose vec(i, j) -> vec(j, i) maps each
sector onto its conjugate partner, with the complex-conjugate block.  The
map therefore propagates one sector of each pair plus every
self-conjugate one, and fills the others of the Hermitian state as
rho[j, i] = conj(rho[i, j]).  The step runs the explicit substep loop in
place of the map, on the CSR restricted to those kept sectors and with the
same fill, when the map would do more multiply-adds per sample than that
loop or its whole blocks take more than SAMPLE_MAP_MAX_BYTES (all-to-all
amplitude damping from N = 7 on).

Ring and local runs commute with the cyclic site shift T.  When the CSR
commutes bit for bit with the superoperator shift vec(a, b) ->
vec(T a, T b) and the initial state is exactly T-invariant, make_rhs
reduces a CSR generator to one value per orbit of that shift,
L_red = L[representatives] S with S the orbit-indicator matrix (700 of
4,096 values at N = 6, 2,344 of 16,384 at N = 7), and the sectors, the
conjugate pairs, the level maps and the substep loop above run on L_red
unchanged; each sample scatters the orbit values back along the orbits,
so it is exactly T-invariant.  Ring and local amplitude damping from
|->^N take this path, all-to-all does not (its complex cross rates are
oriented i < j), and any run that fails either test keeps vec(rho).

Within a sector the strongly connected components of the sparsity graph
order L block triangularly (Duff & Reid, ACM TOMS 4, 137, 1978).  They are
found as the connected components of the entries whose transpose is
stored too, which are exactly the strongly connected ones whenever the
longest-path relaxation that numbers the levels converges over them, that
is when the graph between them is acyclic; otherwise every index takes
level 0 and each block's map is built whole, which is exact too
(_Generator._level).  For sigma^- jumps and an excitation-conserving H_eff
they are the (ket, bra) excitation levels: jumps only lower both, so L,
P(dt L) and M are exactly block lower triangular over the levels in
topological order.
A sector of at least LEVEL_SPLIT_MIN_ROWS rows builds its map on that
form, P(dt L) by Horner with the sparse block and its power by squaring
over the lower level blocks only (36 % of the dense arithmetic for the
924-row sector at N = 6); smaller sectors are built as one dense block
each, all blocks of one size in one batch.  For sigma^z dephasing with an
excitation-conserving, non-diagonal H_eff, each sector is one (ket, bra)
excitation pair and a single level.  The map of a level-split sector is
built, stored and applied only up to its level diagonal, one row slab
per level: the squaring runs in place on one whole block, a row slab at a
time from the last level up, and the product is kept as row slabs only.

Every sampled state is checked (check_state, one path over a stack of
states, one state being a stack of one) and its spectrum kept for the
ergotropy.  evolve_stream checks the samples a chunk at a time, the states
that fit in CHECK_CHUNK_BYTES in one stacked call, since a small state's
check is mostly per-call overhead.  Ring and local runs from |->^N, of
both channels, commute with the cyclic site shift T and their samples are
exactly T-invariant (the dephasing diagonal is built exactly T-invariant
for them, and the damping samples are shift-reduced), so from
TRANSLATION_SPLIT_MIN_DIM rows (N = 3) on the check tests that bit for
bit, on the whole chunk at once, and takes the spectrum from the momentum
blocks over the orbits of T (Sandvik, AIP Conf. Proc. 1297, 135, 2010,
section 4), N blocks of about dim / N rows, and the hermiticity drift
from the orbit representatives' rows; the same rows give the runner those
samples' coherence (observables.translation_row_basis).  sigma^z
dephasing commutes with the global spin flip P = sigma^x on every cell,
another weak symmetry, so from a flip-invariant start each sample is
block diagonal in P's two parity sectors.  A state that is not
T-resolved is tested for that exactly, bit for bit, and then diagonalized
on the two half-size blocks, with its drift read from the rows
a < dim / 2: all-to-all dephasing samples after t = 0, which break T
through their complex cross-cell rates.  A state that is not exactly
invariant under either symmetry (all-to-all damping after t = 0) takes
the full eigvalsh.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .dissipation import (
    CHANNELS, GammaMatrix, NoiseSpec, build_gamma, require_cptp
)
from .models import cyclic_shift, effective_hamiltonian, site_z_signs

if TYPE_CHECKING:
    import scipy.sparse

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-10
MIN_EIGENVALUE_TOL = -1e-8
STEADY_STATE_TOL = 1e-6
# Share of t_max that evolve_stream's steady-state window spans.
STEADY_WINDOW_FRACTION = 0.1
MAX_SAMPLES = 10**6
# Bytes the whole blocks of a non-diagonal generator's map may take, 16 per
# dense complex entry summed over the kept blocks (one of each conjugate
# pair plus the self-conjugate ones).  The rule counts whole blocks, though
# a level-split block is built and stored only as its level row slabs up to
# the diagonal: the build holds the slabs stored so far, one whole block,
# the slabs of the block being built and one more row slab (at fig7
# all-to-all N = 6, 17.9 MiB of slabs and a 28 MiB tracemalloc peak).
# All-to-all amplitude damping with hopping needs ~28 MB at N = 6 and
# ~415 MB at N = 7, which keeps the explicit substep loop.  Ring and local
# damping from |->^N take the shift-reduced generator (make_rhs), whose
# blocks take 0.8 MiB at N = 6 and 8.1 MiB at N = 7 on the ring and 8.4 MiB
# at N = 9 local; without the reduction local amplitude damping
# ((6^N + 4^N) / 2 entries) would need ~83 MB at N = 9.
SAMPLE_MAP_MAX_BYTES = 64 * 2**20
# Kept sectors with at least this many rows build their map level by level
# (block lower triangular); smaller ones as one dense block each.  On the
# fig5 and fig7 hopping sectors (13 substeps, one BLAS thread) the level
# build broke even at 120 rows (2.9 ms either way) and took about half the
# time of the dense one from 210 rows on (6.2 against 11.7 ms; 0.29 against
# 0.93 s at 924 rows); at 45 to 70 rows it took 2 to 3 times as long.
LEVEL_SPLIT_MIN_ROWS = 160
# Rows per slab in which make_rhs compares a generator with its image under
# the superoperator shift (_commutes_with).  All-to-all amplitude damping at
# N = 7 (16,384 rows, 561k stored entries) fails in its first slab; a
# whole-matrix comparison raised that process's peak memory by 14 MB.  Up
# to N = 5 a generator is one slab.
COMMUTE_SLAB_ROWS = 1024
# Bytes of dense generator blocks built in one batch by the dense build; a
# batch's temporaries are a few times this.
DENSE_BUILD_BATCH_BYTES = 4 * 2**20
# States with at least this many rows (N >= 3) take the momentum-resolved
# check, and the representative-row coherence, when they are exactly
# invariant under the cyclic site shift.  Check, ergotropy and coherence of
# one chunk, per state (ring and local runs from |->^N, one BLAS thread,
# 2-core Xeon), that way against the parity blocks or the full eigvalsh:
# 4 rows 4.4 to 4.9 against 4.1 to 4.6 us; 8 rows 7.3 to 7.8 against 6.7 to
# 7.3 (dephasing) and 7.0 to 7.2 against 7.1 to 8.1 (damping); 16 rows 16.7
# to 18.1 against 14.9 to 17.0 (dephasing) and 24.3 to 26.9 (damping); 32
# rows 46 to 49 against 52 to 57 (dephasing) and 91 to 95 (damping).
TRANSLATION_SPLIT_MIN_DIM = 8
# Rows per slab of the hermiticity-drift measurement (_herm_drift); a state
# of at most this many rows is measured whole.  One BLAS thread, 2-core
# Xeon: at 128 rows the whole measurement took 83 us against 88 us in
# slabs, at 256 rows 1.05 ms against 0.34 ms and at 512 rows 7.2 ms against
# 1.5 ms in slabs of 128 rows.
HERM_DRIFT_SLAB_ROWS = 128
# Bytes of the stack of sampled states that evolve_stream propagates before
# it checks them in one check_state call: 16 dim^2 bytes a state, at least
# one state, so from 128 rows (N = 7) on every sample is checked alone.  A
# small state's check, ergotropy and coherence are mostly per-call overhead
# (about 20 numpy calls a sample).  On fig5 ring damping states (one BLAS
# thread, 2-core Xeon) the three took 8 us a sample on a stack against 57 us
# one state at a time at 4 rows, 16 against 62 at 8, 36 against 82 at 16
# and 122 against 157 at 32; from 64 rows on a stacked eigvalsh gains
# nothing.
CHECK_CHUNK_BYTES = 256 * 2**10


class StateInvariantError(RuntimeError):
    """A sampled state left the physical region; integration is aborted.

    `passed` holds the check records of the states that check_state was
    given before the failing one, in order (none for one state).
    """

    def __init__(
        self,
        t: float,
        trace_drift: float,
        herm_drift: float,
        min_eig: float,
        passed: list[StateCheck],
    ) -> None:
        self.t = t
        self.trace_drift = trace_drift
        self.herm_drift = herm_drift
        self.min_eig = min_eig
        self.passed = passed
        super().__init__(
            f"state invariant violated at t = {t:.6g}: "
            f"|trace - 1| = {trace_drift:.3e}, "
            f"hermiticity drift = {herm_drift:.3e}, "
            f"min eigenvalue = {min_eig:.3e}"
        )


def finite_real(value: object) -> bool:
    """Whether value is a finite int or float; a bool is not a number here."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    return real and math.isfinite(value)


def time_grid_errors(
    t_max: object, dt_sample: object, dt_internal: object
) -> list[tuple[str, str]]:
    """Every time-grid rule the three settings break, as (field, reason).

    t_max and dt_sample are finite and > 0, the grid holds at least one and
    at most MAX_SAMPLES samples after t = 0, and dt_internal is None or a
    finite number in (0, dt_sample].  EvolutionConfig raises the first;
    the scenario layer reports them all under the same field names.
    """
    errors = []
    good_t_max = finite_real(t_max) and t_max > 0
    good_dt_sample = finite_real(dt_sample) and dt_sample > 0
    if not good_t_max:
        errors.append(("t_max", f"must be a finite number > 0, got {t_max!r}"))
    if not good_dt_sample:
        errors.append(("dt_sample", f"must be a finite number > 0, got {dt_sample!r}"))
    elif good_t_max and t_max < dt_sample:
        errors.append(("t_max", "must be at least dt_sample (otherwise no samples)"))
    elif good_t_max and t_max / dt_sample > MAX_SAMPLES:
        errors.append(("t_max", f"t_max / dt_sample exceeds {MAX_SAMPLES} samples"))
    if dt_internal is not None:
        if not (finite_real(dt_internal) and dt_internal > 0):
            errors.append(("dt_internal", f"must be > 0 or none, got {dt_internal!r}"))
        elif good_dt_sample and dt_internal > dt_sample * (1 + 1e-12):
            errors.append(("dt_internal", "must not exceed dt_sample"))
    return errors


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid and RK4 step settings.

    dt_internal = None selects the default step 1e-3 / max(rate and coupling
    scales of the generator); the battery field never enters the generator,
    so it plays no role in the step choice.  The internal step is always
    snapped to an integer subdivision of dt_sample so that samples are hit
    exactly; resolve_time_grid reports the snapped grid, and the scenario
    layer records it in its run manifest.  A grid that breaks a rule of
    time_grid_errors raises ValueError.
    """

    t_max: float
    dt_sample: float = 0.01
    dt_internal: float | None = None

    def __post_init__(self) -> None:
        errors = time_grid_errors(self.t_max, self.dt_sample, self.dt_internal)
        if errors:
            raise ValueError("%s: %s" % errors[0])


@dataclass(frozen=True)
class SteadyStateReport:
    """Whether a series settled over its trailing time window.

    deviation is (lower, upper), bounds on the largest entrywise
    |rho_k - rho_end| over the window's states rho_k and the final state
    rho_end; the two are equal when that maximum was taken exactly.
    converged is True when the window holds at least two samples and the
    maximum is below STEADY_STATE_TOL.  window is the window's length in
    time.
    """

    converged: bool
    deviation: tuple[float, float]
    window: float


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


def _rk4_polynomial(x: np.ndarray, elementwise: bool) -> np.ndarray:
    """P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24 in Horner form.

    One classical RK4 step of size dt on rho' = L rho is exactly
    rho -> P(dt L) rho.  `elementwise` evaluates P entry by entry (for a
    diagonal generator kept as its Lambda array); otherwise x is a square
    matrix, or a stack of them, and the products are matrix products.
    """
    if elementwise:
        one, mul = 1.0, np.multiply
    else:
        one, mul = np.eye(x.shape[-1], dtype=x.dtype), np.matmul
    p = one + x / 4.0
    for k in (3.0, 2.0, 1.0):
        p = one + mul(x, p) / k
    return p


def _lower_row_slab(
    a: np.ndarray, b: np.ndarray, levels: list[tuple[int, int]], i: int
) -> np.ndarray:
    """Row slab I = levels[i] of a @ b, up to the level diagonal, for a and b
    block lower triangular over the levels, with a given as its own row slab
    a[I, :hi_I]: level block J is a[I, J..I] @ b[J..I, J] for each J <= I,
    computed into a new array of one row slab.  No row of b below level I
    is read."""
    lo, hi = levels[i]
    out = np.empty((hi - lo, hi), dtype=complex)
    for lo_j, hi_j in levels[: i + 1]:
        np.matmul(a[:, lo_j:], b[lo_j:hi, lo_j:hi_j], out=out[:, lo_j:hi_j])
    return out


def _level_map(
    x: scipy.sparse.csr_matrix, n_sub: int, offsets: np.ndarray
) -> list[np.ndarray]:
    """The level row slabs M[offsets[I]:offsets[I + 1], :offsets[I + 1]] of
    M = P(x)^n_sub, for a sparse x that is block lower triangular over the
    levels [offsets[k], offsets[k + 1]); M is zero above the level diagonal.

    P(x) comes from Horner with the sparse x, one level column at a time:
    the columns of level J are zero above offsets[J], so they are
    P(x_J) e_J for the lower-right part x_J = x[offsets[J]:, offsets[J]:]
    and the unit columns e_J of the level, three sparse products with a
    dense slab of that level's width.  Its power comes from right-to-left
    square-and-multiply (result @ power, power @ power) over the lower
    level blocks only, in place: `power` is one whole block and `result`
    only its row slabs.  Each product is computed a row slab at a time
    (_lower_row_slab) and copied over that slab, the last level first, so
    that squaring power in place reads only rows of levels <= I, none of
    which has been overwritten yet.
    """
    size = x.shape[0]
    power = np.zeros((size, size), dtype=complex)
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
        power[lo:, lo:hi] = slab
    levels = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
    result = None
    while True:
        if n_sub & 1:
            if result is None:
                result = [power[lo:hi, :hi].copy() for lo, hi in levels]
            else:
                for i, row in enumerate(result):
                    row[...] = _lower_row_slab(row, power, levels, i)
        n_sub >>= 1
        if not n_sub:
            return result
        for i in reversed(range(len(levels))):
            lo, hi = levels[i]
            power[lo:hi, :hi] = _lower_row_slab(
                power[lo:hi, :hi], power, levels, i
            )


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


def _dephasing_diagonal(energies: np.ndarray, gamma: GammaMatrix) -> np.ndarray:
    """Lambda[a, b], the sigma^z dissipator plus the diagonal energies E of
    H_eff acting on rho[a, b], which all multiply rho elementwise.  With
    s_i(a) the sigma^z value of site i in basis state a,

        Lambda_ab = -i (E_a - E_b) + sum_ij Gamma_ij [ s_j(a) s_i(b)
                    - s_i(a) s_j(a) / 2 - s_i(b) s_j(b) / 2 ].

    A circulant rate matrix (ring and local reservoirs, bit for bit) makes
    the dissipator commute with the cyclic site shift T, so its terms are
    equal on every (T^j a, T^j b).  The sums meet their terms in another
    order on each entry of such an orbit, so each entry takes the value of
    its orbit's smallest index (_pair_orbits, and _orbits for the
    per-state rates), and the terms are exactly T-invariant.  With
    T-invariant energies, too, so is Lambda.
    """
    n = gamma.n_sites
    signs = site_z_signs(n)
    g = gamma.matrix
    g_signs = g @ signs                                         # (N, dim)
    cross = np.einsum("ja,ib,ij->ab", signs, signs, g, optimize=True)
    self_rate = np.real(np.einsum("ia,ia->a", signs, g_signs))
    if np.array_equal(np.roll(g, (1, 1), axis=(0, 1)), g):
        pairs = _pair_orbits(n)
        smallest = pairs.representatives[pairs.orbit_of]
        cross = cross.reshape(-1)[smallest].reshape(cross.shape)
        self_rate = self_rate[_orbits(n).smallest]
    return (
        -1j * (energies[:, None] - energies[None, :])
        + cross
        - 0.5 * (self_rate[:, None] + self_rate[None, :])
    )


def _gksl_matrix(
    h_eff: np.ndarray, gamma: GammaMatrix, channel: str
) -> scipy.sparse.csr_matrix:
    """The GKSL generator of either channel as one sparse CSR superoperator
    on vec(rho) (row-major, vec(A rho B) = kron(A, B^T) vec(rho)):

        L = -i [kron(H_nh, I) - kron(I, conj(H_nh))]
            + sum_ij Gamma_ij kron(L_j, conj(L_i)),

    with the non-Hermitian drift H_nh = H_eff - (i/2) M and
    M = sum_ij Gamma_ij L_i^dag L_j, both dense dim x dim arrays.  With
    L_i = sigma^-_i (site i is bit N-1-i, 0 = spin up), sigma^+_i sigma^-_j
    is the hop a -> a ^ bit_i ^ bit_j from the states a with bit i set and
    bit j clear, and sigma^+_i sigma^-_i projects onto site i up, so M is
    written from the bits: each off-diagonal entry is one rate, and each
    diagonal entry sums its rates in ascending i, as the former sparse sum
    over (i, j) did.  For sigma^z jumps M and every kron(L_j, conj(L_i))
    are diagonal, so the dissipator and the diagonal of H_eff enter as the
    diagonal Lambda (_dephasing_diagonal), and H_eff is the drift, whose
    diagonal the writer skips.  _write_generator writes every entry once.
    The form is exact for arbitrary (not only Hermitian) inputs.  Any
    channel outside CHANNELS raises ValueError.  make_rhs keeps a diagonal
    dephasing generator as its Lambda and never builds this matrix for it.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r} (choices: {CHANNELS})")
    n = gamma.n_sites
    h_nh = np.asarray(h_eff, dtype=complex)
    if channel == "dephasing":
        diagonal = _dephasing_diagonal(np.real(np.diag(h_nh)), gamma)
        return _write_generator(h_nh, diagonal + 0.0, np.zeros((n, n)))
    g = gamma.matrix
    states = np.arange(2**n)
    bits = 1 << (n - 1 - np.arange(n))
    m_op = np.zeros_like(h_nh)
    for i, j in zip(*np.nonzero(g)):
        # sigma^-_j sets bit j of a, then sigma^+_i clears bit i
        raised = states[(states & bits[j]) == 0] | bits[j]
        raised = raised[(raised & bits[i]) != 0]
        m_op[raised ^ bits[i], raised ^ bits[j]] += g[i, j]
    h_nh = h_nh - 0.5j * m_op
    del m_op
    h_diag = np.diag(h_nh)
    diagonal = -1j * (h_diag[:, None] - np.conj(h_diag)[None, :]) + 0.0
    return _write_generator(h_nh, diagonal, g + 0.0)


def _write_generator(
    h_nh: np.ndarray, diagonal: np.ndarray, rates: np.ndarray
) -> scipy.sparse.csr_matrix:
    """The CSR of -i [kron(H, I) - kron(I, conj(H))] + diag(diagonal)
    + sum_ij rates_ij kron(L_j, L_i), for H the off-diagonal part of the
    dense h_nh, diagonal[a, b] the diagonal entry of row vec(a, b) and L_i
    sigma^-_i, written into preallocated int32 indices and complex data,
    one ket row block vec(a, .) at a time.

    The terms share no position: a ket drift entry vec(a, b) -> vec(c, b)
    moves only the ket, a bra drift entry vec(a, b) -> vec(a, d) only the
    bra, and a jump entry vec(a, b) -> vec(a ^ bit_j, b ^ bit_i) lowers
    one bit of each.  So each entry is one term: -i H[a, c],
    i conj(H[b, d]), diagonal[a, b] or rates[i, j].  The former Kronecker
    sums multiplied only by the exact entries 1 of I and sigma^- and added
    each term to zeros, so these are their values bit for bit once -0.0 is
    made +0.0 as those sums made it (the callers add 0.0 to theirs), and
    entries that are exactly zero are left out as the sums left them out.
    The row counts follow from the bits.  A block's (row, column, value)
    triplets, the diagonal, the bra drift, the ket drift and the jumps,
    are concatenated and put in CSR order by one argsort of
    row * dim^2 + column.  No two terms share a position, so the keys are
    unique and every sort gives the same order; the stable one merges the
    ascending runs the parts arrive in, the fastest measured from N = 8.
    """
    import scipy.sparse

    dim = len(h_nh)
    n = dim.bit_length() - 1
    states = np.arange(dim)
    bits = 1 << (n - 1 - np.arange(n))
    off_row, off_col = np.nonzero((h_nh != 0) & ~np.eye(dim, dtype=bool))
    off_data = h_nh[off_row, off_col]
    ket_value = -1j * off_data + 0.0
    bra_value = 1j * np.conj(off_data) + 0.0
    n_off = np.bincount(off_row, minlength=dim)
    off_ptr = np.concatenate(([0], np.cumsum(n_off)))
    # the jumps into column block a ^ bit_j: rows b with bit i set, for
    # each i with rates[i, j] != 0, and their columns b ^ bit_i
    jumps = []
    for j in range(n):
        src = np.flatnonzero(rates[:, j])
        k, rows = np.nonzero(states & bits[src, None])
        jumps.append((rows, rows ^ bits[src[k]], rates[src[k], j]))
    down = ((states[:, None] & bits) != 0).astype(np.intp)
    stored = diagonal != 0
    counts = down @ (rates != 0).T.astype(np.intp) @ down.T
    counts += n_off[:, None] + n_off[None, :] + stored
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, dim * dim) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim * dim + 1, dtype=index)
    np.cumsum(counts.reshape(-1), out=indptr[1:])
    del counts
    indices = np.empty(nnz, dtype=index)
    data = np.empty(nnz, dtype=complex)
    for a in range(dim):
        diag = np.flatnonzero(stored[a])
        ket = slice(off_ptr[a], off_ptr[a + 1])
        parts = [
            (diag, a * dim + diag, diagonal[a, diag]),
            (off_row, a * dim + off_col, bra_value),
            (
                np.tile(states, n_off[a]),
                (off_col[ket, None] * dim + states).reshape(-1),
                np.repeat(ket_value[ket], dim),
            ),
        ]
        parts += [
            (rows, (a ^ bits[j]) * dim + cols, value)
            for j, (rows, cols, value) in enumerate(jumps) if a & bits[j]
        ]
        rows, cols, values = map(np.concatenate, zip(*parts))
        order = np.argsort(rows * dim * dim + cols, kind="stable")
        block = slice(indptr[a * dim], indptr[(a + 1) * dim])
        indices[block] = cols[order]
        data[block] = values[order]
    return scipy.sparse.csr_matrix(
        (data, indices, indptr), shape=(dim * dim, dim * dim)
    )


class _DiagonalGenerator:
    """A sigma^z dephasing generator whose H_eff has no off-diagonal entry,
    kept as its dim x dim array `lam`, Lambda of _dephasing_diagonal: it
    acts on rho elementwise, rho' = Lambda * rho, and needs no sparse
    matrix.  It has the attributes of _Generator that a run reads: `size`
    (dim^2 propagated values), `orbits` (None: its map is already one
    multiply per entry, so it is never reduced), `propagation` and
    `step_bytes`.
    """

    def __init__(self, lam: np.ndarray) -> None:
        self.lam = lam
        self.size = lam.size
        self.orbits = None
        self.propagation: str | None = None
        self.step_bytes: int | None = None

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.lam * rho

    def sample_map(self, dt: float, n_sub: int):
        """The run's per-sample step: the Hadamard product with
        P(dt Lambda)^n_sub, taken elementwise, which stores one array the
        size of rho and costs one multiply per entry against 4 n_sub for
        the substep loop.  Its path is "rk4_sample_map"."""
        factor = _rk4_polynomial(dt * self.lam, elementwise=True) ** n_sub
        self.propagation = "rk4_sample_map"
        self.step_bytes = factor.nbytes
        return lambda rho: factor * rho


class _Generator:
    """A run's generator as a sparse CSR matrix `lmat` on the vector it
    propagates, of `size` entries, with the weak sectors, conjugate pairs
    and per-sample maps of that matrix.

    The vector is vec(rho) (_gksl_matrix), or, for a generator reduced to
    the orbits of the superoperator shift (make_rhs), one value per orbit
    (a, b) -> (T a, T b) of vec indices (`orbits`, _pair_orbits): rho's
    entry at the orbit's smallest index, which every entry of the orbit
    shares in a T-invariant state.  The reduced matrix is
    L_red = L[representatives] S for the orbit-indicator matrix S
    (S[k, o] = 1 when vec index k lies in orbit o), exact on T-invariant
    states; the steps gather those entries from rho and scatter the
    propagated values back along the orbits.  One sparse matvec per
    evaluation.  `propagation` is the path of the last step sample_map
    built, None before the first, and `step_bytes` the bytes of the arrays
    that step applies.
    """

    def __init__(
        self,
        lmat: scipy.sparse.csr_matrix,
        dim: int,
        orbits: _PairOrbits | None = None,
    ) -> None:
        self.lmat = lmat
        self.dim = dim
        self.size = lmat.shape[0]
        self.orbits = orbits
        self.propagation: str | None = None
        self.step_bytes: int | None = None

    @functools.cached_property
    def transpose(self) -> np.ndarray:
        """The position of the conjugate partner rho[j, i] of each
        propagated value: the row-major vec index, or the orbit of
        (b, a)."""
        if self.orbits is None:
            return _transpose_index(np.arange(self.dim**2), self.dim)
        return self.orbits.transpose

    def shift_reduced(self, orbits: _PairOrbits) -> _Generator | None:
        """The generator reduced to `orbits`, or None unless lmat commutes
        bit for bit with the superoperator shift (lmat[T k, T l] ==
        lmat[k, l] for every pair of vec indices).

        Each row of L_red sums its representative's row of lmat over the
        orbits of the columns.  Every stored entry's image under the
        transpose permutation is stored too, as zero where the sums leave
        none, so that the transpose maps each weak sector of L_red onto
        one (conjugate_sectors); the zeros change no value.
        """
        import scipy.sparse

        if not _commutes_with(self.lmat, orbits.shift):
            return None
        rows = self.lmat[orbits.representatives]
        row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
        col = orbits.orbit_of[rows.indices]
        image = orbits.transpose
        data = np.concatenate((rows.data, np.zeros(len(row))))
        row = np.concatenate((row, image[row]))
        col = np.concatenate((col, image[col]))
        size = rows.shape[0]
        lmat = scipy.sparse.csr_matrix((data, (row, col)), shape=(size, size))
        return _Generator(lmat, self.dim, orbits)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        flat = np.ascontiguousarray(rho).reshape(-1)
        if self.orbits is None:
            return (self.lmat @ flat).reshape(self.dim, self.dim)
        values = self.lmat @ flat[self.orbits.representatives]
        return values[self.orbits.orbit_of].reshape(self.dim, self.dim)

    def conjugate_sectors(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(blocks, partner): the index sets of the weakly connected
        components of lmat's sparsity graph (an edge between a and b for
        each stored entry lmat[a, b]; _components), each sorted ascending
        and numbered by its smallest index, and partner[c] the block onto
        which the transpose vec(i, j) -> vec(j, i) (`transpose`) maps
        block c.  lmat has no entry between two blocks, so it is block
        diagonal over them (the weak-symmetry sectors; for amplitude
        damping with excitation-conserving H_eff, one per ket-minus-bra
        excitation difference).

        Every GKSL generator satisfies L(rho^dag) = L(rho)^dag, that is
        lmat[T a, T b] = conj(lmat[a, b]) for the transpose T, so T maps each
        block onto a block whose generator, and so whose RK4 map, is the
        complex conjugate.  The partner is read from the label of one
        transposed index per block; partner[c] == c marks a self-conjugate
        block (for excitation-conserving H_eff, the one with zero
        ket-minus-bra excitation difference).
        """
        n_comp, labels = _components(
            self.lmat.shape[0], _csr_rows(self.lmat), self.lmat.indices
        )
        order = np.argsort(labels, kind="stable")
        bounds = np.cumsum(np.bincount(labels, minlength=n_comp))[:-1]
        firsts = order[np.concatenate(([0], bounds))]
        return np.split(order, bounds), labels[self.transpose[firsts]]

    @functools.cached_property
    def _level(self) -> np.ndarray:
        """Level of each vec index: the length of the longest path that
        ends at its strongly connected component in the graph of
        components, whose edges are the entries of lmat between two of
        them.

        Every such entry goes from a lower to a higher level, so ordering
        a block's indices by level (a topological order of its components)
        makes lmat block lower triangular over the levels, and with it
        every polynomial in lmat.  The levels of one weak sector are
        0, 1, ..., as a component at level k > 0 is fed from one at k - 1.

        The candidate components are the connected components of the
        entries whose transpose is stored too (_components); each is
        strongly connected.  The relaxation below takes one pass per level
        and converges exactly when the graph between the candidates is
        acyclic, and then they are the strongly connected components.  It
        is capped at one pass more than there are candidates; a graph that
        has not converged by then has a cycle through two candidates, and
        every index gets level 0: one level per block, whose map is then
        built whole, which is exact too.
        """
        import scipy.sparse

        lmat = self.lmat
        size = lmat.shape[0]
        pattern = scipy.sparse.csr_matrix(
            (np.ones(lmat.nnz, dtype=np.int8), lmat.indices, lmat.indptr),
            shape=lmat.shape,
        )
        mutual = pattern.multiply(pattern.T).tocsr()
        n_comp, labels = _components(size, _csr_rows(mutual), mutual.indices)
        source, target = labels[lmat.indices], labels[_csr_rows(lmat)]
        cross = source != target
        source, target = source[cross], target[cross]
        depth = np.zeros(n_comp, dtype=np.intp)
        for _ in range(n_comp + 1):
            deeper = depth.copy()
            np.maximum.at(deeper, target, depth[source] + 1)
            if np.array_equal(deeper, depth):
                return depth[labels]
            depth = deeper
        return np.zeros(size, dtype=np.intp)

    def levels(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ordered, sizes) for one block's indices idx: idx stably sorted
        by level (_level), and the number of its indices on each level.
        For sigma^- jumps and an excitation-conserving H_eff the levels of
        the block with ket-minus-bra difference d are the (m + d, m)
        excitation pairs, of binom(N, m + d) * binom(N, m) indices each."""
        level = self._level[idx]
        order = np.argsort(level, kind="stable")
        return idx[order], np.bincount(level)

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

    def sector_parts(
        self, blocks: list[np.ndarray], dt: float, n_sub: int
    ) -> list[tuple[np.ndarray, list[tuple[np.ndarray, int, np.ndarray]]]]:
        """The maps M_b = P(dt L_b)^n_sub of the given blocks, with L_b lmat
        restricted to block b, as the parts the per-sample step applies:
        each part is (idx, slabs), and each slab (rows, hi, map) means
        out[rows] = map @ rho[idx][..., :hi].  The largest blocks come first.

        The blocks of one size s below LEVEL_SPLIT_MIN_ROWS keep ascending
        order and make one part with one slab: the (k, s) stack of their
        indices and the (k, s, s) stack of their maps, built dense, all
        together, DENSE_BUILD_BATCH_BYTES at a time.  A larger block is put
        in level order (levels()) and built by _level_map, so its map is
        block lower triangular with the blocks above the level diagonal
        exactly zero; it makes one part with one 2-D row slab per level I,
        M_b[lo_I:hi_I, :hi_I], and no whole map of it is kept.
        """
        by_size: dict[int, list[np.ndarray]] = {}
        for idx in blocks:
            by_size.setdefault(len(idx), []).append(idx)
        parts = []
        for size, same in sorted(by_size.items(), reverse=True):
            if size < LEVEL_SPLIT_MIN_ROWS:
                indices = np.stack(same)
                maps = self._dense_maps(indices, dt, n_sub)
                parts.append((indices, [(indices, size, maps)]))
                continue
            for idx in same:
                ordered, sizes = self.levels(idx)
                offsets = np.concatenate(([0], np.cumsum(sizes)))
                sub = dt * self.lmat[ordered][:, ordered]
                maps = _level_map(sub, n_sub, offsets)
                bounds = offsets.tolist()
                slabs = zip(bounds[:-1], bounds[1:], maps)
                parts.append(
                    (ordered, [(ordered[lo:hi], hi, m) for lo, hi, m in slabs])
                )
        return parts

    def _dense_maps(
        self, indices: np.ndarray, dt: float, n_sub: int
    ) -> np.ndarray:
        """P(dt L_b)^n_sub as dense matrices for the (k, s) stack of block
        indices, in batches: each batch of generator blocks is scattered
        from the CSR rows into a (batch, s, s) stack, and the polynomial
        and its power act on the whole stack."""
        k, size = indices.shape
        position = np.empty(self.lmat.shape[0], dtype=np.intp)
        position[indices] = np.arange(size)
        batch = max(1, DENSE_BUILD_BATCH_BYTES // (16 * size * size))
        maps = np.empty((k, size, size), dtype=complex)
        for first in range(0, k, batch):
            rows = self.lmat[indices[first:first + batch].reshape(-1)]
            row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
            sub = np.zeros((rows.shape[0] // size, size, size), dtype=complex)
            sub[row // size, row % size, position[rows.indices]] = (
                dt * rows.data
            )
            maps[first:first + len(sub)] = np.linalg.matrix_power(
                _rk4_polynomial(sub, False), n_sub
            )
        return maps

    def sample_map(self, dt: float, n_sub: int):
        """The run's per-sample step: n_sub RK4 steps of size dt, exact for
        Hermitian rho.  The path it takes is recorded in `propagation`,
        "rk4_sample_map" (a precomputed map) or "rk4_substep_loop", and the
        bytes of the arrays the step applies in `step_bytes`: the maps of
        its sector parts, or the data, indices and indptr of the loop's kept
        CSR.

        The step propagates the kept sectors (_kept_sectors) and fills the
        other entries as conjugates; a shift-reduced generator
        (make_rhs) propagates the orbit values and scatters them along the
        orbits.  The kept sectors take dense block matvecs unless their
        blocks hold at least as many entries as the substep loop on them
        does multiply-adds per sample (_substep_loop_work on the kept rows)
        or their whole blocks take more than SAMPLE_MAP_MAX_BYTES (counted
        whole, though a level-split block is built and stored as row slabs):
        all-to-all amplitude damping from N = 7 on (~415 MB there), while
        the shift-reduced ring and local damping maps stay small.  Then the
        step runs the explicit RK4 substeps on lmat restricted to the kept
        indices, not lmat itself, so the full generator can be freed once
        the step is built.  Kept sectors are closed under lmat, so their
        rows reference kept columns only: the restriction is one row slice
        of lmat with its columns renumbered in place of a second slice.

        Otherwise the step keeps one list of parts (sector_parts): level
        by level from LEVEL_SPLIT_MIN_ROWS rows on, one dense batch per
        size below.  At N = 6 with hopping (fig7, 13 substeps) this method
        took 0.68 to 0.79 s against 1.86 to 2.13 s when every block was
        built dense (one BLAS thread, 2-core Xeon).  Each sample gathers
        each part's values once and applies every slab of it with one
        batched matmul: one per size for the smaller blocks, stored whole
        and stacked, and one per level for a level-split block, whose map
        is block lower triangular and so built, stored and applied only as
        each level's row slab up to the diagonal (at fig7 N = 6 all-to-all,
        17.9 MiB instead of 27.1 MiB); the build holds those slabs, one
        whole block and one more row slab (tracemalloc peak 28.1 MiB there,
        against 39.7 MiB for three whole blocks).
        """
        kept_blocks, kept, fill = self._kept_sectors()
        entries = sum(len(idx) ** 2 for idx in kept_blocks)
        kept_nnz = int(np.diff(self.lmat.indptr)[kept].sum())
        loop_work = _substep_loop_work(kept_nnz, len(kept), n_sub)
        parts, loop = [], None
        if entries >= loop_work or 16 * entries > SAMPLE_MAP_MAX_BYTES:
            import scipy.sparse

            kept_rows = self.lmat[kept]
            position = np.empty(self.lmat.shape[1], kept_rows.indices.dtype)
            position[kept] = np.arange(len(kept))
            loop = scipy.sparse.csr_matrix(
                (kept_rows.data, position[kept_rows.indices], kept_rows.indptr),
                shape=(len(kept), len(kept)),
            )
            self.propagation = "rk4_substep_loop"
            self.step_bytes = (
                loop.data.nbytes + loop.indices.nbytes + loop.indptr.nbytes
            )
        else:
            parts = self.sector_parts(kept_blocks, dt, n_sub)
            self.propagation = "rk4_sample_map"
            self.step_bytes = sum(
                m.nbytes for _, slabs in parts for *_, m in slabs
            )
        source, orbits = self.transpose[fill], self.orbits

        def step(rho: np.ndarray) -> np.ndarray:
            flat = rho.reshape(-1)
            if orbits is not None:
                flat = flat[orbits.representatives]
            out = np.empty_like(flat)
            if loop is not None:
                out[kept] = _rk4_substeps(loop.dot, dt, n_sub, flat[kept])
            for idx, slabs in parts:
                block = flat[idx]
                for rows, hi, m in slabs:
                    out[rows] = np.matmul(m, block[..., :hi, None])[..., 0]
            out[fill] = np.conj(out[source])
            if orbits is not None:
                out = out[orbits.orbit_of]
            return out.reshape(rho.shape)

        return step


def _csr_rows(csr: scipy.sparse.csr_matrix) -> np.ndarray:
    """The row of each stored entry of csr, as int32."""
    return np.repeat(
        np.arange(csr.shape[0], dtype=np.int32), np.diff(csr.indptr)
    )


def _components(
    size: int, rows: np.ndarray, cols: np.ndarray
) -> tuple[int, np.ndarray]:
    """(n_comp, labels): the connected components of the undirected graph
    on `size` nodes with an edge rows[k] -- cols[k] for each k, labelled
    0, 1, ... in the order of their smallest node (scipy.sparse.csgraph's
    order).

    Min-label hooking with pointer jumping (Shiloach & Vishkin, J.
    Algorithms 3, 57, 1982): each pass hooks the larger end of every edge
    that joins two trees onto the smallest of its other ends, points every
    node at its root, and moves each edge to the roots of its ends,
    dropping those whose ends now share a root.  A node's parent is never
    larger than the node, so each root is the smallest node of its tree,
    and when no edge is left each tree is one component.  The work arrays
    are int32, one entry per edge left.
    """
    parent = np.arange(size, dtype=np.int32)
    while True:
        joins = rows != cols
        rows, cols = rows[joins], cols[joins]
        if not len(rows):
            break
        low = np.minimum(rows, cols)
        high = np.maximum(rows, cols, out=rows)
        np.minimum.at(parent, high, low)
        while True:
            root = parent[parent]
            if np.array_equal(root, parent):
                break
            parent = root
        rows = parent[high]
        cols = parent[low]
    is_root = parent == np.arange(size)
    number = np.cumsum(is_root, dtype=np.int32) - 1
    return int(is_root.sum()), number[parent]


def _commutes_with(lmat: scipy.sparse.csr_matrix, perm: np.ndarray) -> bool:
    """lmat[perm[k], perm[l]] == lmat[k, l] for every pair of indices, bit
    for bit, compared COMMUTE_SLAB_ROWS rows at a time, so that the
    comparison's copies of lmat stay a fraction of its size and a matrix
    that fails early costs one slab."""
    for first in range(0, lmat.shape[0], COMMUTE_SLAB_ROWS):
        rows = slice(first, first + COMMUTE_SLAB_ROWS)
        if (lmat[perm[rows]][:, perm] != lmat[rows]).nnz:
            return False
    return True


def make_rhs(
    h_eff: np.ndarray,
    gamma: GammaMatrix,
    channel: str,
    rho0: np.ndarray | None = None,
) -> _Generator | _DiagonalGenerator:
    """The run's generator, built once for repeated evaluation.

    sigma^z dephasing with an H_eff that has no off-diagonal entry (the
    presets' Ising-z coupling, or none; -0.0 counts as zero) is diagonal
    and is kept as its Lambda array (_DiagonalGenerator), with no sparse
    matrix and no scipy.sparse.  Any other generator is a CSR
    (_Generator), and, with the run's initial state rho0, it is reduced to
    the orbits of the superoperator shift vec(a, b) -> vec(T a, T b) for
    the cyclic site shift T (_Generator.shift_reduced)
    when two exact tests pass: rho0 equals T rho0 T^dag bit for bit, and
    the CSR commutes with the shift bit for bit.  Then vec(rho(t)) stays in
    the shift-invariant subspace, one value per orbit: 700 of 4,096 at
    N = 6 and 2,344 of 16,384 at N = 7.  This is the Liouville-space form
    of the momentum states of _momentum_spectrum (Sandvik, AIP Conf. Proc.
    1297, 135, 2010, section 4) for a weak symmetry (Buca & Prosen, NJP 14,
    073007, 2012).  Ring and local amplitude damping from |->^N pass both
    tests; all-to-all fails the second (its complex cross rates are
    oriented i < j), and such runs, and every run without rho0, keep the
    full generator.
    """
    h_eff = np.asarray(h_eff)
    energies = np.diag(h_eff)
    # no nonzero entry off the diagonal; -0.0 counts as zero
    diagonal = np.count_nonzero(h_eff) == np.count_nonzero(energies)
    if channel == "dephasing" and diagonal:
        return _DiagonalGenerator(_dephasing_diagonal(np.real(energies), gamma))
    rhs = _Generator(_gksl_matrix(h_eff, gamma, channel), 2**gamma.n_sites)
    if rho0 is None or not _translation_invariant(rho0):
        return rhs
    orbits = _pair_orbits(gamma.n_sites)
    # at N = 1 the shift is the identity and every orbit a single index
    if len(orbits.representatives) == rhs.size:
        return rhs
    return rhs.shift_reduced(orbits) or rhs


# perfbench/selftest.py compares its own generator with this name; it
# stays for that and evaluates the production generator
def liouvillian_rhs(
    h_eff: np.ndarray, gamma: GammaMatrix, channel: str, rho: np.ndarray
) -> np.ndarray:
    """d rho / dt = make_rhs(h_eff, gamma, channel)(rho)."""
    return make_rhs(h_eff, gamma, channel)(rho)


class StateCheck(NamedTuple):
    """What check_state measured on one state.

    populations is the ascending spectrum of the Hermitian part of rho, so
    populations[0] is its minimum eigenvalue and the whole array is what
    the spectral ergotropy formula needs (observables.ergotropy takes it as
    `populations`).  trace_drift is |Tr rho - 1| (real and imaginary parts
    summed) and herm_drift the largest entry of |rho - rho^dag|.
    parity_blocks is the (2, dim/2, dim/2) stack (rho_+, rho_-) of rho's
    spin-flip parity blocks when rho commutes exactly with the global flip
    (see check_state), and None otherwise.  translation_resolved is True
    when the spectrum came from rho's momentum blocks, which it does for
    every state of N >= 3 cells (TRANSLATION_SPLIT_MIN_DIM rows) that
    commutes exactly with the cyclic site shift T; such a state takes no
    parity blocks, and its coherence can be taken from the orbit
    representatives' rows (observables.translation_row_basis).  So a state
    has parity blocks exactly when its spectrum came from them.
    """

    populations: np.ndarray
    trace_drift: float
    herm_drift: float
    parity_blocks: np.ndarray | None = None
    translation_resolved: bool = False

    @property
    def min_eig(self) -> float:
        return float(self.populations[0])


def _herm_drift(
    rho: np.ndarray, rows: np.ndarray | None = None, flipped: bool = False
) -> np.ndarray:
    """max |rho - rho^dag| of one state, or of each state of a (K, dim, dim)
    stack, bitwise the whole-matrix value, without its dim^2 temporaries.

    |rho[j, i] - conj(rho[i, j])| is bitwise |rho[i, j] - conj(rho[j, i])|
    (the real parts are exact negatives, the imaginary parts the same sum),
    so the upper triangle holds every value: it is taken in row slabs
    rho[i:i+t, i:] of HERM_DRIFT_SLAB_ROWS rows (one slab, the whole
    matrix, for a state of at most that many rows), whose temporaries stay
    in cache.  For states that are exactly invariant under the global spin
    flip P (`flipped`), entry (dim-1-a, dim-1-b) equals (a, b) bit for bit,
    and so does its partner, so the slabs stop at row dim / 2.  For states
    that are exactly invariant under the cyclic site shift T, `rows` are
    the orbit representatives (_orbits): entry (T^j r, b) equals
    (r, T^-j b) bit for bit, and so does its partner, so the
    representative rows alone hold every value.  The maximum is taken by
    numpy, so a nan anywhere is the result.
    """
    if rows is not None:
        return np.abs(
            rho[..., rows, :] - rho[..., :, rows].swapaxes(-1, -2).conj()
        ).max(axis=(-2, -1))
    step = HERM_DRIFT_SLAB_ROWS
    stop = rho.shape[-1] // 2 if flipped else rho.shape[-1]
    return np.max(
        [
            np.abs(
                rho[..., i:min(i + step, stop), i:]
                - rho[..., i:, i:min(i + step, stop)].swapaxes(-1, -2).conj()
            ).max(axis=(-2, -1))
            for i in range(0, stop, step)
        ],
        axis=0,
    )


def _split_parity(rho: np.ndarray) -> np.ndarray:
    """The (..., 2, dim/2, dim/2) parity blocks (rho_+, rho_-) of one
    exactly flip-invariant state or of each state of a stack.

    The global spin flip P = sigma^x on every cell maps z index a to
    dim - 1 - a, so P rho P = rho[::-1, ::-1].  When that equals rho bit
    for bit, rho is block diagonal in the parity basis
    (|a> +- |dim - 1 - a>) / sqrt(2), a < dim / 2, and its two blocks are

        rho_+- = rho[:h, :h] +- rho[:h, h:][:, ::-1],   h = dim / 2;

    the cross-parity part is exactly zero.
    """
    h = rho.shape[-1] // 2
    top_left, top_right = rho[..., :h, :h], rho[..., :h, h:][..., ::-1]
    blocks = np.empty(rho.shape[:-2] + (2, h, h), dtype=complex)
    np.add(top_left, top_right, out=blocks[..., 0, :, :])
    np.subtract(top_left, top_right, out=blocks[..., 1, :, :])
    return blocks


def _parity_spectrum(blocks: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of a state from its parity
    blocks (_split_parity), one eigvalsh call for every block given: (dim,)
    for one state, (K, dim) for a stack."""
    hermitian = blocks + blocks.conj().swapaxes(-1, -2)
    hermitian *= 0.5
    spectra = np.linalg.eigvalsh(hermitian)
    return np.sort(spectra.reshape(spectra.shape[:-2] + (-1,)), axis=-1)


class _Orbits(NamedTuple):
    """Orbit tables of the cyclic site shift T on n_sites cells (_orbits)."""

    shift: np.ndarray
    representatives: np.ndarray
    orbit_columns: np.ndarray
    momentum_stacks: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    smallest: np.ndarray


@functools.lru_cache(maxsize=None)
def _orbits(n_sites: int) -> _Orbits:
    """The orbits of T on the z basis of n_sites cells.

    T moves the state of site i to site i + 1 (mod N), on z indices a left
    rotation of the N bits: shift[a] = T a.  The representatives are the
    smallest index of each orbit, ascending, and orbit_columns[j, r] is
    T^j of representative r.  Momentum k admits the representatives whose
    period R has k R = 0 (mod N); momentum_stacks holds, for each number of
    admitted representatives, the (m,) momenta with that number, their
    (m, s) admitted representatives and the (m, s, s) weights
    sqrt(R_a R_b) / N of check_state's blocks.  smallest[a] is the
    representative of a's orbit.
    """
    dim = 2**n_sites
    index = np.arange(dim)
    shift = cyclic_shift(n_sites)
    # rows j = 0..N of T^j a; row N is the identity again
    orbit = np.empty((n_sites + 1, dim), dtype=np.intp)
    orbit[0] = index
    for j in range(1, n_sites + 1):
        orbit[j] = shift[orbit[j - 1]]
    smallest = orbit.min(axis=0)
    representatives = np.flatnonzero(smallest == index)
    columns = orbit[:, representatives]
    # the period is the first j > 0 with T^j a = a
    periods = (columns[1:] == representatives).argmax(axis=0) + 1
    by_size: dict[int, list[tuple[int, np.ndarray]]] = {}
    for k in range(n_sites):
        admitted = np.flatnonzero(k * periods % n_sites == 0)
        by_size.setdefault(len(admitted), []).append((k, admitted))
    root = np.sqrt(periods / n_sites)
    stacks = []
    for same in by_size.values():
        momenta = np.array([k for k, _ in same])
        admitted = np.stack([a for _, a in same])
        weights = root[admitted][:, :, None] * root[admitted][:, None, :]
        stacks.append((momenta, admitted, weights))
    return _Orbits(shift, representatives, columns[:n_sites], stacks, smallest)


class _PairOrbits(NamedTuple):
    """Orbits of the superoperator shift on vec indices (_pair_orbits)."""

    shift: np.ndarray
    representatives: np.ndarray
    orbit_of: np.ndarray
    transpose: np.ndarray


def _pair_orbits(n_sites: int) -> _PairOrbits:
    """The orbits of vec(a, b) -> vec(T a, T b) on the row-major vec indices
    of dim x dim matrices, for the cyclic site shift T of _orbits.

    shift[k] is the vec index of (T a, T b) for vec index k of (a, b); the
    representatives are the smallest vec index of each orbit, ascending;
    orbit_of[k] is the position of k's orbit among them; and transpose[o]
    is the orbit of (b, a) for the orbit o of (a, b).
    """
    dim = 2**n_sites
    state_shift = _orbits(n_sites).shift
    shift = (state_shift[:, None] * dim + state_shift[None, :]).reshape(-1)
    smallest = np.arange(dim * dim)
    image = smallest
    for _ in range(n_sites - 1):
        image = shift[image]
        smallest = np.minimum(smallest, image)
    is_smallest = smallest == np.arange(dim * dim)
    representatives = np.flatnonzero(is_smallest)
    orbit_of = (np.cumsum(is_smallest) - 1)[smallest]
    transpose = orbit_of[_transpose_index(representatives, dim)]
    return _PairOrbits(shift, representatives, orbit_of, transpose)


def _translation_invariant(rho: np.ndarray) -> bool | np.ndarray:
    """Whether T rho T^dag equals rho bit for bit: a bool for one state, a
    (K,) bool array for a (K, dim, dim) stack.

    Row 0 first: T fixes index 0, so rho[0, T b] == rho[0, b] is necessary,
    and a state far from the symmetry costs O(dim).  Then the whole of the
    states that pass it: with a = (top bit, rest) and T a = (rest, top
    bit), rho[T a, T b] is rho's (2, dim/2, 2, dim/2) view with its axes
    swapped in pairs, compared with the (dim/2, 2, dim/2, 2) view, so no
    index array of dim^2 entries is formed.  Both views are compared with
    the rest of b as their last axis, contiguous in the first one, so that
    numpy's inner loop runs over dim / 2 entries, not 2.
    """
    states = rho[None] if rho.ndim == 2 else rho
    dim = states.shape[-1]
    shift = _orbits(dim.bit_length() - 1).shift
    invariant = (states[:, 0, shift] == states[:, 0]).all(axis=1)
    if invariant.any():
        h = dim // 2
        chosen = _take(states, invariant)
        invariant[invariant] = (
            chosen.reshape(-1, h, 2, h, 2).transpose(0, 1, 2, 4, 3)
            == chosen.reshape(-1, 2, h, 2, h).transpose(0, 2, 1, 3, 4)
        ).all(axis=(1, 2, 3, 4))
    return bool(invariant[0]) if rho.ndim == 2 else invariant


def _momentum_spectrum(rho: np.ndarray) -> np.ndarray:
    """Ascending spectrum of the Hermitian part of a T-invariant rho, (dim,)
    for one state, or (K, dim) for each state of a stack.

    In the momentum states |a, k> = sqrt(R_a) / N sum_j e^{-2 pi i k j / N}
    T^j |a> over the representatives a with k R_a = 0 (mod N), a T-invariant
    rho is block diagonal over k, with blocks

        B_k[a, b] = sqrt(R_a R_b) / N  sum_j e^{-2 pi i k j / N} rho[a, T^j b].

    One gather of the representative rows at the orbit columns gives
    rho[a, T^j b] for every state and (a, j, b), one FFT along j gives
    every momentum, and the Hermitian parts of the blocks of one size go
    through one eigvalsh for the whole stack.  FFT and LAPACK see each
    transform and matrix alone, so each spectrum is bitwise the one-state
    one.
    """
    states = rho[None] if rho.ndim == 2 else rho
    orbits = _orbits(states.shape[-1].bit_length() - 1)
    rows = states[
        :, orbits.representatives[:, None, None], orbits.orbit_columns
    ]
    transformed = np.fft.fft(rows, axis=2)
    spectra = []
    for momenta, admitted, weights in orbits.momentum_stacks:
        blocks = transformed[
            :, admitted[:, :, None], momenta[:, None, None],
            admitted[:, None, :],
        ]
        blocks *= weights
        hermitian = blocks + blocks.conj().swapaxes(-1, -2)
        hermitian *= 0.5
        spectra.append(np.linalg.eigvalsh(hermitian).reshape(len(states), -1))
    spectra = np.sort(np.concatenate(spectra, axis=1), axis=1)
    return spectra[0] if rho.ndim == 2 else spectra


def _take(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The states of a stack that `mask` selects; the stack itself, not a
    copy, when it selects them all."""
    return states if mask.all() else states[mask]


def _measure_translated(
    states: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(herm_drift, populations) of each state of a stack of exactly
    T-invariant states, with `rows` the orbit representatives: the drift
    from the representative rows (_herm_drift) and the spectra from the
    momentum blocks (_momentum_spectrum), for the states whose drift is
    finite (nan for the others)."""
    # rho - rho^dag is nan or inf wherever rho is (inf - inf is nan, which
    # numpy would warn about), so a non-finite state gets no spectrum
    with np.errstate(invalid="ignore"):
        herm_drift = _herm_drift(states, rows)
    finite = np.isfinite(herm_drift)
    populations = np.full(states.shape[:2], math.nan)
    if finite.any():
        populations[finite] = _momentum_spectrum(_take(states, finite))
    return herm_drift, populations


def _measure_other(states: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """(herm_drift, populations, parity blocks) of each state of a stack of
    states that are not T-resolved.

    The flip test comes first, corner entries and then the rows
    a < dim / 2 against their images, which hold one entry of each pair,
    so that the hermiticity drift of a flip-invariant state reads half its
    rows (_herm_drift).  A state whose drift is not finite gets no
    spectrum (nan) and no parity blocks.  The flip-invariant states take
    the spectra of their parity blocks, the others one full eigvalsh, each
    group in one stacked call.
    """
    count, dim = states.shape[:2]
    flipped = np.zeros(count, dtype=bool)
    # the corner entries are one necessary condition, so a state far from
    # the symmetry (amplitude damping drains |0> into |dim - 1>) costs one
    # comparison, not a whole-matrix one
    corner = (dim % 2 == 0) & (states[:, 0, 0] == states[:, -1, -1])
    if corner.any():
        # rows a < dim / 2 hold one entry of each pair (a, b), (P a, P b)
        chosen, h = _take(states, corner), dim // 2
        flipped[corner] = (
            chosen[:, :h] == chosen[:, ::-1, ::-1][:, :h]
        ).all(axis=(1, 2))
    herm_drift = np.empty(count)
    with np.errstate(invalid="ignore"):
        for mask, half in ((flipped, True), (~flipped, False)):
            if mask.any():
                herm_drift[mask] = _herm_drift(_take(states, mask), flipped=half)
    finite = np.isfinite(herm_drift)
    populations = np.full((count, dim), math.nan)
    blocks: list = [None] * count
    parity, full = flipped & finite, ~flipped & finite
    if parity.any():
        stacked = _split_parity(_take(states, parity))
        populations[parity] = _parity_spectrum(stacked)
        for k, block in zip(np.flatnonzero(parity).tolist(), stacked):
            blocks[k] = block
    if full.any():
        chosen = _take(states, full)
        hermitian = chosen + chosen.conj().swapaxes(1, 2)
        hermitian *= 0.5
        populations[full] = np.linalg.eigvalsh(hermitian)
    return herm_drift, populations, blocks


def check_state(
    rho: np.ndarray, t: float | list[float]
) -> StateCheck | list[StateCheck]:
    """Raise StateInvariantError unless rho is a valid density matrix.

    rho is one state, or a (K, dim, dim) stack of states with their K
    sample times t; one state is checked as a stack of one.  For one state
    it returns the check's measurements (StateCheck), including the
    spectrum it computed, so a caller needs no second eigendecomposition
    of the same state; for a stack, the list of the states' records, each
    bitwise the one check_state gives for that state alone.  It raises for
    the first invalid state, with the records of the states before it as
    the error's `passed`.  The spectrum comes from the smallest exact
    symmetry blocks the state has, each symmetry tested bit for bit with
    no tolerance or margin:

    * a state of at least TRANSLATION_SPLIT_MIN_DIM rows (N >= 3) that
      equals T rho T^dag for the cyclic site shift T (_translation_invariant:
      row 0 first, then the whole state; ring and local runs from |->^N,
      both channels) takes its momentum blocks (_momentum_spectrum), about
      N blocks of dim / N rows, one eigvalsh per block size, and no parity
      blocks;
    * otherwise a state that equals P rho P for the global spin flip P
      (every dephasing sample from a flip-invariant start) takes its two
      parity blocks (_split_parity), a quarter of the arithmetic of the
      full eigvalsh;
    * any other state takes the full eigvalsh.

    The drifts are measured over the whole of rho, with the same values
    either way: the hermiticity drift reads only the orbit
    representatives' rows of a T-invariant state and only the first half
    of the rows of a flip-invariant one, which hold every value
    (_herm_drift).  The parity blocks are returned, for the coherence,
    whenever the spectrum came from them.  A state with a nan or inf entry
    gets no spectrum (its min_eig is nan) and is rejected.

    The states are measured as two stacks, the T-invariant ones and the
    others (no copy when one of them is the whole stack): the symmetry
    tests and drifts at once, and one eigvalsh per block size, for the
    momentum blocks, the parity blocks and the full-path states
    (_measure_translated and _measure_other).  FFT and LAPACK see each
    transform and matrix alone, so each record is bitwise the one-state
    one, and the per-call overhead, most of a small state's check, is paid
    once a stack.
    """
    # one state is a stack of one
    states, times = (rho[None], [t]) if rho.ndim == 2 else (rho, t)
    count, dim = states.shape[:2]
    trace = np.trace(states, axis1=1, axis2=2)
    trace_drift = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    herm_drift = np.empty(count)
    populations = np.empty((count, dim))
    blocks: list = [None] * count
    translated = np.zeros(count, dtype=bool)
    # a nan entry fails the invariance test (nan != nan); an inf one may
    # pass it, and then sits in a representative row as well
    if dim >= TRANSLATION_SPLIT_MIN_DIM and not dim & (dim - 1):
        translated = _translation_invariant(states)
    if translated.any():
        rows = _orbits(dim.bit_length() - 1).representatives
        herm_drift[translated], populations[translated] = _measure_translated(
            _take(states, translated), rows
        )
    if not translated.all():
        other = np.flatnonzero(~translated)
        herm_drift[other], populations[other], found = _measure_other(
            _take(states, ~translated)
        )
        for k, block in zip(other.tolist(), found):
            blocks[k] = block
    # written so that a nan measurement fails
    valid = (
        (trace_drift < TRACE_TOL)
        & (herm_drift < HERMITICITY_TOL)
        & (populations[:, 0] >= MIN_EIGENVALUE_TOL)
    ).tolist()
    trace_drift, herm_drift = trace_drift.tolist(), herm_drift.tolist()
    translated = translated.tolist()
    checks: list[StateCheck] = []
    for k in range(count):
        if not valid[k]:
            raise StateInvariantError(
                times[k],
                trace_drift[k],
                herm_drift[k],
                float(populations[k, 0]),
                checks,
            )
        checks.append(
            StateCheck(
                populations[k], trace_drift[k], herm_drift[k], blocks[k],
                translated[k],
            )
        )
    return checks[0] if rho.ndim == 2 else checks


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


class SampleChunk(NamedTuple):
    """Samples that evolve_stream checked together (info["chunk"]).

    times are the K sample times, states the (K, dim, dim) stack of the
    states it yields for them, in order, and checks their check_state
    records.
    """

    times: list[float]
    states: np.ndarray
    checks: list[StateCheck]


class _SteadyWindow:
    """evolve_stream's steady-state decision in O(dim^2) memory.

    The window is known before sampling starts: of the samples
    k = 0..n_samples at t = k dt_sample, the last round(window /
    dt_sample) + 1 with t >= t_end - window, the set steady_state_probe
    filters when it is given those samples.  add() keeps the running
    minimum and maximum of the real and imaginary parts of each entry over
    the window's samples (`lo`, `hi`) and a copy of its first state.

    Rounding is monotone, so against the final state the bounds give the
    largest real and imaginary gaps R and I of each entry over the window
    exactly, and the largest |rho_k - rho_end| lies between max(R, I) and
    hypot(R, I), the lower and upper bounds of decide().  Only when
    STEADY_STATE_TOL lies between the two does decide() re-propagate the
    window from its first state with the run's step and take the exact
    maximum, so `converged` is bitwise the probe's.  The run holds three
    states for this however long the window is.
    """

    def __init__(self, window: float, dt_sample: float, n_samples: int) -> None:
        t_end = n_samples * dt_sample
        tail = int(round(window / dt_sample)) + 1
        k = np.arange(max(0, n_samples + 1 - tail), n_samples + 1)
        self.window = window
        self.first = int(k[k * dt_sample >= t_end - window][0])
        self.count = n_samples + 1 - self.first
        self.lo = self.hi = self.start = None

    def add(self, first: int, states: np.ndarray) -> None:
        """Take the (K, dim, dim) stack of the samples first, first + 1, ...
        into the bounds."""
        skip = self.first - first
        if skip >= len(states):
            return
        if skip >= 0:
            self.start = states[skip].copy()
            self.lo, self.hi = self.start.copy(), self.start.copy()
        # as floats, each entry's real and imaginary parts side by side
        lo, hi = self.lo.view(float), self.hi.view(float)
        for state in states[max(skip, 0):]:
            parts = state.view(float)
            np.minimum(lo, parts, out=lo)
            np.maximum(hi, parts, out=hi)

    def decide(self, end: np.ndarray, step) -> SteadyStateReport:
        """The report for the final state `end`, once every sample has been
        added; `step` maps a sample to the next one, bit for bit.  A window
        of one sample has nothing to settle against and is not converged."""
        if self.count < 2:
            return SteadyStateReport(False, (0.0, 0.0), self.window)
        lower, upper = self._bounds(end)
        if lower < STEADY_STATE_TOL <= upper:
            # the final state is the window's last; its deviation is 0
            lower = upper = max(
                float(np.max(np.abs(rho - end)))
                for rho in _replay(self.start, step, self.count - 1)
            )
        return SteadyStateReport(
            upper < STEADY_STATE_TOL, (lower, upper), self.window
        )

    def _bounds(self, end: np.ndarray) -> tuple[float, float]:
        """(max(R, I), max hypot(R, I)) over the entries, from the gaps
        R + iI computed in the bounds' own arrays, which are then freed."""
        end_parts = np.ascontiguousarray(end).view(float)
        lo, hi = self.lo.view(float), self.hi.view(float)
        self.lo = self.hi = None
        np.subtract(hi, end_parts, out=hi)
        np.subtract(end_parts, lo, out=lo)
        gaps = np.maximum(hi, lo, out=hi)
        return float(gaps.max()), float(np.abs(gaps.view(complex)).max())


def _replay(start: np.ndarray, step, count: int) -> Iterator[np.ndarray]:
    """The `count` states start, step(start), step(step(start)), ..."""
    rho = start
    yield rho
    for _ in range(count - 1):
        rho = step(rho)
        yield rho


def evolve_stream(
    rho0: np.ndarray,
    spec: NoiseSpec,
    cfg: EvolutionConfig,
    info: dict | None = None,
):
    """Generator form of evolve: yields (t, rho) one sample at a time.

    Memory stays O(dim^2) regardless of the grid length; evolve() collects
    the samples into the list form.  The generator comes from `spec` and
    the number of cells N of rho0 alone: the rate matrix, which must pass
    CPTP validation or integration is refused, and H_eff, the
    reservoir-induced coupling on spec's bonds (models.effective_hamiltonian
    with spec.periodic; zero without a coupling).  Every yielded state is
    checked against the density-matrix invariants.

    The samples after t = 0 are made a chunk at a time: K states are
    propagated in order with the per-sample map, one state after the other
    as without chunks, so their bytes do not depend on K, and then checked
    by one check_state call on their (K, dim, dim) stack.  K is the number
    of states in CHECK_CHUNK_BYTES, at least one (one from 128 rows on).
    A state that fails its check raises StateInvariantError after exactly
    the samples before it have been yielded.

    The generator is built by make_rhs with rho0: dephasing with an
    Ising-z H_eff is kept as its Lambda array and its map is one Hadamard
    product a sample; ring and local amplitude damping from an exactly
    T-invariant start propagate one value per orbit of the superoperator
    shift and take the per-sample map at N = 6 and 7 alike, while
    all-to-all damping keeps vec(rho) and, from N = 7 on (~415 MB of
    blocks), the substep loop.

    If `info` is a dict, the propagation path that sample_map recorded
    for the run's step is stored under info["propagation"] before the
    first sample after t = 0 is yielded: "rk4_sample_map" (precomputed
    per-sample RK4 map) or "rk4_substep_loop" (explicit RK4 substeps);
    with it info["shift_reduced"], whether the
    generator was reduced to the shift orbits,
    info["propagated_values"], the length of the propagated vector (the
    generator's `size`: the number of orbits, or dim^2), and
    info["step_bytes"], the bytes of the arrays the step applies (the
    sample_map of _Generator or _DiagonalGenerator).  info["timing_s"]
    holds the wall seconds of the run's phases: "build", H_eff, the
    generator and its per-sample map or step, set with
    info["propagation"]; "propagate" and "check", the
    propagation and the check_state calls of the samples after t = 0,
    summed over the chunks; and "sampling", from the start of the first
    sample after t = 0 to the end of the stream (the consumer's time
    between samples included), set when the stream ends.
    Before each sample is yielded, its check_state record is stored under
    info["check"] (its populations feed observables.ergotropy without a
    second eigendecomposition, and its parity blocks, when the state has
    them, feed observables.coherence_l1_energy_basis), and
    info["invariant_margins"] holds the worst margins of the samples so
    far: the largest trace and hermiticity drifts and the smallest minimum
    eigenvalue.  Before the first sample of each chunk (the t = 0 sample is
    a chunk of its own) is yielded, info["chunk"] holds the SampleChunk of
    the samples that will be yielded from it, so a consumer can measure
    them as one stack.

    When the stream ends, info["steady"] holds the SteadyStateReport of
    the run's trailing window, the last STEADY_WINDOW_FRACTION of t_max:
    whether every sample in it lies within STEADY_STATE_TOL of the final
    state entrywise, bitwise the decision of steady_state_probe on the
    last round(window / dt_sample) + 1 samples, and bounds on the largest
    deviation.  It is taken from running per-entry bounds (_SteadyWindow),
    so the stream holds three states for it instead of the window's
    samples; only when the tolerance falls between the bounds is the
    window propagated a second time from its first state, with the same
    step.  A window of one sample (t_max under about 10 dt_sample) is
    reported not converged.
    """
    rho = np.array(rho0, dtype=complex)
    dim = rho.shape[0] if rho.ndim == 2 else 0
    n_sites = dim.bit_length() - 1
    if 2**n_sites != dim or rho.shape != (dim, dim):
        raise ValueError(f"state shape {rho0.shape} is not a 2^N square")
    gamma = build_gamma(spec, n_sites)
    require_cptp(gamma)
    margins = {
        "max_trace_drift": 0.0,
        "max_herm_drift": 0.0,
        "min_eigenvalue": math.inf,
    }
    timing = {"build": 0.0, "propagate": 0.0, "check": 0.0, "sampling": 0.0}
    if info is None:
        info = {}
    info["invariant_margins"] = margins
    info["timing_s"] = timing

    def emit(chunk: SampleChunk):
        """Yield the chunk's samples, recording each one's check first."""
        info["chunk"] = chunk
        for t, state, check in zip(*chunk):
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
            yield t, state

    check = check_state(rho, 0.0)
    n_samples, n_sub = resolve_time_grid(cfg, spec)
    steady = _SteadyWindow(
        STEADY_WINDOW_FRACTION * cfg.t_max, cfg.dt_sample, n_samples
    )
    chunk = SampleChunk([0.0], rho[None].copy(), [check])
    steady.add(0, chunk.states)
    yield from emit(chunk)
    start = time.perf_counter()
    if spec.coupling is None:
        h_eff = np.zeros((dim, dim), dtype=complex)
    else:
        h_eff = effective_hamiltonian(spec.coupling, n_sites, spec.periodic)
    rhs = make_rhs(h_eff, gamma, spec.channel, rho)
    step = rhs.sample_map(cfg.dt_sample / n_sub, n_sub)
    info["propagation"] = rhs.propagation
    info["shift_reduced"] = rhs.orbits is not None
    info["propagated_values"] = rhs.size
    info["step_bytes"] = rhs.step_bytes
    # the step holds what it applies; the generator need not outlive it
    del rhs
    timing["build"] = time.perf_counter() - start
    start = time.perf_counter()
    size = max(1, CHECK_CHUNK_BYTES // (16 * dim * dim))
    for first in range(1, n_samples + 1, size):
        mark = time.perf_counter()
        last = min(first + size, n_samples + 1)
        times = [k * cfg.dt_sample for k in range(first, last)]
        states = np.empty((len(times), dim, dim), dtype=complex)
        for i in range(len(times)):
            # the stack holds copies, so a consumer's writes to a yielded
            # state cannot reach the propagation
            rho = step(rho)
            states[i] = rho
        checked = time.perf_counter()
        timing["propagate"] += checked - mark
        failure = None
        try:
            checks = check_state(states, times)
        except StateInvariantError as err:
            checks, failure = err.passed, err
        timing["check"] += time.perf_counter() - checked
        count = len(checks)
        steady.add(first, states[:count])
        yield from emit(SampleChunk(times[:count], states[:count], checks))
        if failure is not None:
            raise failure
    info["steady"] = steady.decide(rho, step)
    timing["sampling"] = time.perf_counter() - start


def evolve(
    rho0: np.ndarray, spec: NoiseSpec, cfg: EvolutionConfig
) -> list[tuple[float, np.ndarray]]:
    """Integrate the master equation and return all sampled (t, rho) pairs."""
    return list(evolve_stream(rho0, spec, cfg))


def steady_state_probe(
    series: list[tuple[float, np.ndarray]], window: float
) -> SteadyStateReport:
    """Convergence test over the trailing time window, on a list of states.

    converged is True when at least two samples lie within `window` of the
    final time and every one of them differs from the final state by less
    than STEADY_STATE_TOL entrywise; deviation holds that largest
    difference twice.  evolve_stream takes the same decision without
    holding the window's states (info["steady"]); this list form is its
    reference.
    """
    if not series:
        raise ValueError("steady_state_probe needs a nonempty series")
    t_end, rho_end = series[-1]
    deviation, inside = 0.0, 0
    for t, rho in series:
        if t >= t_end - window:
            inside += 1
            deviation = max(deviation, float(np.max(np.abs(rho - rho_end))))
    return SteadyStateReport(
        inside >= 2 and deviation < STEADY_STATE_TOL,
        (deviation, deviation),
        window,
    )
