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
(_write_generator from the arrays of _gksl_terms, the package's only
construction of it; the tests compare it with the literal double sum of
tests/reference_impls.py), with Lambda on its diagonal for dephasing.
Its terms share no position off the diagonal, so each entry is written
once, from the bits of the basis states, the dense non-Hermitian drift,
the diagonal array and the rate matrix, into preallocated arrays, each
ket row block put in CSR order by one sort; the build does no
sparse-matrix arithmetic.  scipy.sparse is imported only by the
functions that build a CSR, so a process whose runs are all diagonal
dephasing never loads it.

The generator does not depend on time, so for a linear right-hand side
rho' = L rho one RK4 step of size dt is exactly rho -> P(dt L) rho with
P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, and the n_sub substeps between two
samples are the fixed map M = P(dt L)^n_sub.  P is evaluated in Horner
form everywhere: by _rk4_polynomial for the Lambda factor, the dense block
stacks and the level columns below, and as P(dt L) v on a vector by the
substep loop (_substep_loop); the literal four-stage form k1..k4 is kept
only as the tests' reference.  _Generator.sample_map builds the run's one
per-sample step: M, precomputed once per run and applied once per sample
(the same RK4 polynomial, not the exponential), or the explicit substep
loop where M would cost more (below), and it records which of the two it
took.  A diagonal generator's map is the elementwise
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
place of the map, on the CSR restricted to those kept sectors and scaled
by dt once, as the map scales its blocks, and with the same fill, when the
map would do more multiply-adds per sample than that loop or its whole
blocks take more than SAMPLE_MAP_MAX_BYTES (all-to-all amplitude damping
from N = 7 on).

Ring and local runs commute with the cyclic site shift T.  Each entry of
the CSR is one term read from the drift H_nh, the diagonal array or the
rate matrix (_write_generator), so the CSR commutes bit for bit with the
superoperator shift vec(a, b) -> vec(T a, T b) when H_nh and the diagonal
array commute with T bit for bit and the rate matrix is circulant.  When
those three tests pass and the initial state is exactly T-invariant
(_shift_invariant), make_rhs reduces a CSR generator to one value per
orbit of that shift, L_red = L[representatives] S with S the
orbit-indicator matrix (700 of 4,096 values at N = 6, 2,344 of 16,384 at
N = 7), and the sectors, the conjugate pairs, the level maps and the
substep loop above run on L_red unchanged; each sample scatters the orbit
values back along the orbits, so it is exactly T-invariant.  Ring and
local amplitude damping from |->^N or from the projected interacting
ground state take this path, all-to-all does not (its complex cross rates
are oriented i < j, so its rate matrix is not circulant), and any run
that fails a test keeps vec(rho).  That is the same layout with every vec
index its own orbit (_identity_orbits), so every CSR generator propagates
one value per orbit with one gather and one scatter a sample; on the
identity orbits both are slices, which copy nothing.

Within a sector, L is block lower triangular over any grouping of its
indices into levels in which every stored entry goes from a column of a
level to a row of the same or a later one (the block triangular form of
Duff & Reid, ACM TOMS 4, 137, 1978).  The writer gives such levels: an
index's level is its number of down spins, ket plus bra (the popcount of
its vec index or of its orbit's representative).  sigma^- jumps add one
down spin to the ket and one to the bra, and an excitation-conserving
H_eff and the diagonal keep the count, so L, P(dt L) and M are exactly
block lower triangular over the (ket, bra) excitation levels in ascending
order.  _Generator._level keeps these levels when every stored entry
passes level[row] >= level[col]; otherwise (an H_eff that does not
conserve excitations) every index takes level 0 and each block's map is
built whole, which is exact too.
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
check is mostly per-call overhead.  The check resolves each state by the
exact symmetries it has, tested bit for bit: the cyclic site shift T and
the global spin flip P = sigma^x on every cell, which commute.  One table
per N and group, models.symmetry_group, holds the orbits, representatives,
element maps and admitted characters of {1, P}, Z_N = <T> and
Z_N x Z_2, and every symmetry use reads it: the check's spectrum comes
from one gather, FFT and eigvalsh per block size over the group's
characters (the momentum states of Sandvik, AIP Conf. Proc. 1297, 135,
2010, section 4, for Z_N, the parity sectors for {1, P}, about
dim / (2N) rows a block for both), its hermiticity drift from the
representative rows, the runner's coherence from the same group
(observables.coherence_l1_energy_basis), the shift reduction and the
dephasing diagonal above from T's orbits, and the projected interacting
start (models.ground_state) from its characters.  Ring and local runs from
|->^N, of both channels, commute with T (the dephasing diagonal is built
exactly T-invariant for them, and the damping samples are
shift-reduced); sigma^z dephasing commutes with P too, a weak symmetry,
so those samples take Z_N x Z_2, ring and local damping Z_N, all-to-all
dephasing after t = 0 (its complex cross-cell rates break T) {1, P}, and
all-to-all damping after t = 0 the full eigvalsh, each group from its
GROUP_MIN_ROWS rows on.
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
from .models import (
    SymmetryGroup, commutes, effective_hamiltonian, site_z_signs,
    symmetry_group
)

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
# Bytes of dense generator blocks built in one batch by the dense build; a
# batch's temporaries are a few times this.
DENSE_BUILD_BATCH_BYTES = 4 * 2**20
# The symmetry groups a state's check takes (check_state), larger first,
# each with the number of rows from which it does.  Check, ergotropy and
# coherence per state of a chunk (ring runs from |->^N, one BLAS thread,
# 2-core Xeon), Z_N x Z_2, Z_N, {1, P} and no group: dephasing at 4 rows
# 4.4, 4.6, 3.8 and 4.6 us, at 8 rows 6.1, 7.6, 6.9 and 8.2, at 16 rows
# 15.1, 18.6, 19.0 and 27.7; damping (T alone) at 4 rows 5.0 against 4.6
# us, at 8 rows 8.5 against 8.3 and at 16 rows 17.6 against 26.9.
GROUP_MIN_ROWS = {"TP": 8, "T": 8, "P": 2}
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

    def __reduce__(self):
        # the default rebuilds the error from its message alone, which its
        # __init__ does not take, so a worker process's error could not
        # reach the parent
        return type(self), (
            self.t, self.trace_drift, self.herm_drift, self.min_eig, self.passed
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
    finite number in (0, dt_sample] that makes at most MAX_SAMPLES RK4
    substeps a sample (resolve_time_grid's count; at 10^7 substeps
    1 + dt lambda loses the diagonal to rounding).  EvolutionConfig raises
    the first; the scenario layer reports them all under the same field
    names.
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
        elif good_dt_sample and dt_sample / dt_internal - 1e-9 > MAX_SAMPLES:
            # ceil(x) > MAX_SAMPLES exactly when x > MAX_SAMPLES, and an
            # infinite quotient cannot be rounded up
            reason = f"dt_sample / dt_internal exceeds {MAX_SAMPLES} substeps"
            errors.append(("dt_internal", reason))
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
    time_grid_errors raises ValueError; among them, an explicit
    dt_internal that makes more than MAX_SAMPLES substeps a sample.  The
    default step is not bounded by that rule.
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


def _rk4_polynomial(p: np.ndarray, apply, unit) -> np.ndarray:
    """P(x) e for P(x) = 1 + x + x^2/2 + x^3/6 + x^4/24, in Horner form:
    p = e + x e / 4, then p = e + x p / k for k = 3, 2, 1.

    One classical RK4 step of size dt on rho' = L rho is exactly
    rho -> P(dt L) rho.  p is given as x e, a fresh array the routine
    owns; apply(p) is x p; and the unit columns e are zero but for a 1.0
    at the index `unit` of p.  Each division and each added 1.0 acts in
    place, and no name holds the given array once the first product is
    taken, so it is freed then.  The Lambda factor of a diagonal
    generator takes x = dt Lambda elementwise with unit = ... (e all
    ones), a stack of dense blocks the matrix product with unit = their
    diagonals, and a level column of a sparse block (_level_map) the
    sparse product with unit = the level's own rows of its unit columns.
    """
    p /= 4.0
    p[unit] += 1.0
    for k in (3.0, 2.0, 1.0):
        p = apply(p)
        p /= k
        p[unit] += 1.0
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

    P(x) comes from _rk4_polynomial with the sparse x, one level column at
    a time: the columns of level J are zero above offsets[J], so they are
    P(x_J) e_J for the lower-right part x_J = x[offsets[J]:, offsets[J]:]
    and the unit columns e_J of the level, whose 1.0s sit on the level's
    own rows; three sparse products with a dense slab of that level's
    width.  Its power comes from right-to-left square-and-multiply
    (result @ power, power @ power) over the lower level blocks only, in
    place: `power` is one whole block and `result` only its row slabs.
    Each product is computed a row slab at a time (_lower_row_slab) and
    copied over that slab, the last level first, so that squaring power in
    place reads only rows of levels <= I, none of which has been
    overwritten yet.
    """
    size = x.shape[0]
    power = np.zeros((size, size), dtype=complex)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        lower = x[lo:, lo:]
        unit = (np.arange(hi - lo), np.arange(hi - lo))
        power[lo:, lo:hi] = _rk4_polynomial(
            lower[:, : hi - lo].toarray(), lower.dot, unit
        )
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
    """Multiply-adds per sample of _substep_loop on a sparse x = dt L with
    `nnz` stored entries acting on vectors of `size` entries: per substep
    four matvecs and eight whole-vector operations (a division and an
    addition after each matvec)."""
    return n_sub * (4 * nnz + 8 * size)


def _transpose_index(k: np.ndarray, dim: int) -> np.ndarray:
    """Row-major vec index of rho[j, i] for each vec index k of rho[i, j]."""
    return (k % dim) * dim + k // dim


def _substep_loop(
    x: scipy.sparse.csr_matrix, n_sub: int, v: np.ndarray
) -> np.ndarray:
    """P(x)^n_sub v for a sparse x = dt L, n_sub classical RK4 steps of size
    dt, each P(x) v in Horner form: v + x (v + x/2 (v + x/3 (v + x/4 v)))."""
    for _ in range(n_sub):
        p = v
        for k in (4.0, 3.0, 2.0, 1.0):
            p = x @ p
            p /= k
            p += v
        v = p
    return v


def _dephasing_diagonal(energies: np.ndarray, gamma: GammaMatrix) -> np.ndarray:
    """Lambda[a, b], the sigma^z dissipator plus the diagonal energies E of
    H_eff acting on rho[a, b], which all multiply rho elementwise.  With
    s_i(a) the sigma^z value of site i in basis state a,

        Lambda_ab = -i (E_a - E_b) + sum_ij Gamma_ij [ s_j(a) s_i(b)
                    - s_i(a) s_j(a) / 2 - s_i(b) s_j(b) / 2 ].

    A circulant rate matrix (ring and local reservoirs, bit for bit,
    _circulant) makes the dissipator commute with the cyclic site shift T,
    so its terms are equal on every (T^j a, T^j b).  The sums meet their
    terms in another order on each entry of such an orbit, so each entry
    takes the value of its orbit's smallest index (_pair_orbits, and the
    orbits of T's table, models.symmetry_group, for the per-state rates),
    and the terms are exactly T-invariant.  With T-invariant energies, too,
    so is Lambda.
    """
    n = gamma.n_sites
    signs = site_z_signs(n)
    g = gamma.matrix
    g_signs = g @ signs                                         # (N, dim)
    cross = np.einsum("ja,ib,ij->ab", signs, signs, g, optimize=True)
    self_rate = np.real(np.einsum("ia,ia->a", signs, g_signs))
    if _circulant(g):
        pairs = _pair_orbits(n)
        smallest = pairs.representatives[pairs.orbit_of]
        cross = cross.reshape(-1)[smallest].reshape(cross.shape)
        shift = symmetry_group(n, "T")
        self_rate = self_rate[shift.representatives[shift.orbit_of]]
    return (
        -1j * (energies[:, None] - energies[None, :])
        + cross
        - 0.5 * (self_rate[:, None] + self_rate[None, :])
    )


def _circulant(matrix: np.ndarray) -> bool:
    """Whether matrix[i + 1, j + 1] == matrix[i, j] bit for bit, indices mod
    N: a rate matrix that commutes with the cyclic site shift."""
    return np.array_equal(np.roll(matrix, (1, 1), axis=(0, 1)), matrix)


class _PairOrbits(NamedTuple):
    """Orbits of the superoperator shift on vec indices (_pair_orbits)."""

    representatives: np.ndarray
    orbit_of: np.ndarray
    transpose: np.ndarray


def _pair_orbits(n_sites: int) -> _PairOrbits:
    """The orbits of vec(a, b) -> vec(T a, T b) on the row-major vec indices
    of dim x dim matrices, for the cyclic site shift T, from the powers
    T^j of its table (models.symmetry_group).

    The representatives are the smallest vec index of each orbit,
    ascending; orbit_of[k] is the position of k's orbit among them; and
    transpose[o] is the orbit of (b, a) for the orbit o of (a, b).
    """
    dim = 2**n_sites
    smallest = np.arange(dim * dim)
    for perm in symmetry_group(n_sites, "T").elements[1:, 0]:
        np.minimum(smallest, (perm[:, None] * dim + perm).reshape(-1), out=smallest)
    is_smallest = smallest == np.arange(dim * dim)
    representatives = np.flatnonzero(is_smallest)
    orbit_of = (np.cumsum(is_smallest) - 1)[smallest]
    transpose = orbit_of[_transpose_index(representatives, dim)]
    return _PairOrbits(representatives, orbit_of, transpose)


def _identity_orbits(dim: int) -> _PairOrbits:
    """Every vec index of dim x dim matrices its own orbit: the layout of a
    generator on the whole of vec(rho)."""
    index = np.arange(dim * dim)
    return _PairOrbits(index, index, _transpose_index(index, dim))


def _gksl_terms(
    h_eff: np.ndarray, gamma: GammaMatrix, channel: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(h_nh, diagonal, rates), the arrays _write_generator writes the GKSL
    generator of either channel from, as one sparse CSR superoperator on
    vec(rho) (row-major, vec(A rho B) = kron(A, B^T) vec(rho)):

        L = -i [kron(H_nh, I) - kron(I, conj(H_nh))]
            + sum_ij Gamma_ij kron(L_j, conj(L_i)),

    with the non-Hermitian drift H_nh = H_eff - (i/2) M and
    M = sum_ij Gamma_ij L_i^dag L_j, both dense dim x dim arrays.  With
    L_i = sigma^-_i (site i is bit N-1-i, 0 = spin up), sigma^+_i sigma^-_j
    is the hop a -> a ^ bit_i ^ bit_j from the states a with bit i set and
    bit j clear, and sigma^+_i sigma^-_i projects onto site i up, so M is
    written from the bits: each off-diagonal entry is one rate, and each
    diagonal entry sums its rates in ascending i, as the former sparse sum
    over (i, j) did.  The diagonal array holds the diagonal of the drift
    term, and the rates are Gamma.  For sigma^z jumps M and every
    kron(L_j, conj(L_i)) are diagonal, so the dissipator and the diagonal
    of H_eff enter as the diagonal Lambda (_dephasing_diagonal), the rates
    are zero and H_eff is the drift, whose diagonal the writer skips.  The
    form is exact for arbitrary (not only Hermitian) inputs.  Any channel
    outside CHANNELS raises ValueError.  make_rhs keeps a diagonal
    dephasing generator as its Lambda and never writes a CSR for it.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r} (choices: {CHANNELS})")
    n = gamma.n_sites
    h_nh = np.asarray(h_eff, dtype=complex)
    if channel == "dephasing":
        diagonal = _dephasing_diagonal(np.real(np.diag(h_nh)), gamma)
        return h_nh, diagonal + 0.0, np.zeros((n, n))
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
    return h_nh, diagonal, g + 0.0


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
    (dim^2 propagated values: its map is already one multiply per entry,
    so it is never reduced), `propagation` and `step_bytes`.
    """

    def __init__(self, lam: np.ndarray) -> None:
        self.lam = lam
        self.size = lam.size
        self.propagation: str | None = None
        self.step_bytes: int | None = None

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.lam * rho

    def sample_map(self, dt: float, n_sub: int):
        """The run's per-sample step: the Hadamard product with
        P(dt Lambda)^n_sub, taken elementwise (_rk4_polynomial with every
        entry a unit), which stores one array the size of rho and costs one
        multiply per entry against 4 n_sub for the substep loop.  Its path
        is "rk4_sample_map"."""
        x = dt * self.lam
        apply = functools.partial(np.multiply, x)
        factor = _rk4_polynomial(x.copy(), apply, ...) ** n_sub
        self.propagation = "rk4_sample_map"
        self.step_bytes = factor.nbytes
        return lambda rho: factor * rho


class _Generator:
    """A run's generator as a sparse CSR matrix `lmat` on the vector it
    propagates, of `size` entries, one value per orbit of `orbits`, with
    the weak sectors, conjugate pairs and per-sample maps of that matrix.

    Each value is rho's entry at its orbit's smallest vec index, which
    every entry of the orbit shares.  For a generator reduced to the
    orbits of the superoperator shift (a, b) -> (T a, T b) (make_rhs,
    _pair_orbits) that holds in a T-invariant state, and the reduced
    matrix is L_red = L[representatives] S for the orbit-indicator matrix
    S (S[k, o] = 1 when vec index k lies in orbit o), exact on such
    states.  Otherwise every vec index is its own orbit
    (_identity_orbits) and the vector is vec(rho) (_write_generator).
    The steps gather the representatives' entries from rho and scatter
    the propagated values back along the orbits; for the identity orbits
    both are slices (_run), so they copy nothing.  One sparse matvec per
    evaluation.  orbits.transpose is the position of the conjugate partner
    rho[j, i] of each propagated value.  `propagation` is the path of the
    last step sample_map built, None before the first, and `step_bytes`
    the bytes of the arrays that step applies.
    """

    def __init__(
        self, lmat: scipy.sparse.csr_matrix, dim: int, orbits: _PairOrbits
    ) -> None:
        self.lmat = lmat
        self.dim = dim
        self.size = lmat.shape[0]
        self.orbits = orbits
        self.propagation: str | None = None
        self.step_bytes: int | None = None

    def shift_reduced(self, orbits: _PairOrbits) -> _Generator:
        """The generator reduced to `orbits`, exact when lmat commutes bit
        for bit with the superoperator shift (lmat[T k, T l] == lmat[k, l]
        for every pair of vec indices), which make_rhs establishes from the
        arrays lmat is written from (_shift_invariant).

        Each row of L_red sums its representative's row of lmat over the
        orbits of the columns.  Every stored entry's image under the
        transpose permutation is stored too, as zero where the sums leave
        none, so that the transpose maps each weak sector of L_red onto
        one (conjugate_sectors); the zeros change no value.
        """
        import scipy.sparse

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
        values = self.lmat @ flat[_run(self.orbits.representatives)]
        return values[_run(self.orbits.orbit_of)].reshape(self.dim, self.dim)

    def conjugate_sectors(self) -> tuple[list[np.ndarray], np.ndarray]:
        """(blocks, partner): the index sets of the weakly connected
        components of lmat's sparsity graph (an edge between a and b for
        each stored entry lmat[a, b]; _components), each sorted ascending
        and numbered by its smallest index, and partner[c] the block onto
        which the transpose vec(i, j) -> vec(j, i) (orbits.transpose) maps
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
        return np.split(order, bounds), labels[self.orbits.transpose[firsts]]

    @functools.cached_property
    def _level(self) -> np.ndarray:
        """Level of each propagated index: its number of down spins, ket
        plus bra, the popcount of its orbit's representative vec index,
        when every stored entry of lmat passes level[row] >= level[col];
        otherwise 0 for every index.

        The test makes lmat, and with it every polynomial in lmat, block
        lower triangular over the levels in ascending order.  It holds for
        what _write_generator writes from a drift that conserves the count
        (an excitation-conserving H_eff; M does): sigma^- jumps add one down
        spin to the ket and one to the bra, and every other entry, sigma^z
        dephasing's included, keeps the count.  A generator that fails it
        has one level per block, whose map is then built whole, which is
        exact too.
        """
        level = _popcount(self.orbits.representatives)
        if (level[_csr_rows(self.lmat)] >= level[self.lmat.indices]).all():
            return level
        return np.zeros(self.size, dtype=np.intp)

    def levels(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ordered, sizes) for one block's indices idx: idx stably sorted
        by level (_level), and the number of its indices on each level
        that it holds, in ascending order.  For sigma^- jumps and an
        excitation-conserving H_eff the levels of the block with
        ket-minus-bra difference d are the (m + d, m) excitation pairs, of
        binom(N, m + d) * binom(N, m) indices each."""
        level = self._level[idx]
        order = np.argsort(level, kind="stable")
        return idx[order], np.unique(level, return_counts=True)[1]

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
        diagonal = (..., np.arange(size), np.arange(size))
        maps = np.empty((k, size, size), dtype=complex)
        for first in range(0, k, batch):
            rows = self.lmat[indices[first:first + batch].reshape(-1)]
            row = np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))
            sub = np.zeros((rows.shape[0] // size, size, size), dtype=complex)
            sub[row // size, row % size, position[rows.indices]] = (
                dt * rows.data
            )
            apply = functools.partial(np.matmul, sub)
            maps[first:first + len(sub)] = np.linalg.matrix_power(
                _rk4_polynomial(sub.copy(), apply, diagonal), n_sub
            )
        return maps

    def sample_map(self, dt: float, n_sub: int):
        """The run's per-sample step: n_sub RK4 steps of size dt, exact for
        Hermitian rho.  The path it takes is recorded in `propagation`,
        "rk4_sample_map" (a precomputed map) or "rk4_substep_loop", and the
        bytes of the arrays the step applies in `step_bytes`: the maps of
        its sector parts, or the data, indices and indptr of the loop's kept
        CSR.

        The step gathers the orbit values from rho, propagates the kept
        sectors (_kept_sectors), fills the other values as conjugates and
        scatters them along the orbits; for the identity orbits of an
        unreduced generator the gather and the scatter are slices.  The
        kept sectors take dense block matvecs unless their blocks hold at
        least as many entries as the substep loop on them does
        multiply-adds per sample (_substep_loop_work on the kept rows) or
        their whole blocks take more than SAMPLE_MAP_MAX_BYTES (counted
        whole, though a level-split block is built and stored as row slabs):
        all-to-all amplitude damping from N = 7 on (~415 MB there), while
        the shift-reduced ring and local damping maps stay small.  Then the
        step runs the substep loop (_substep_loop, Horner form) on lmat
        restricted to the kept indices and scaled by dt once, not on lmat
        itself, so the full generator can be freed once the step is built.
        Kept sectors are closed under lmat, so their rows reference kept
        columns only: the restriction is one row slice of lmat with its
        columns renumbered in place of a second slice.

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
            columns = position[kept_rows.indices]
            loop = scipy.sparse.csr_matrix(
                (dt * kept_rows.data, columns, kept_rows.indptr),
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
        source = self.orbits.transpose[fill]
        gather = _run(self.orbits.representatives)
        scatter = _run(self.orbits.orbit_of)

        def step(rho: np.ndarray) -> np.ndarray:
            flat = rho.reshape(-1)[gather]
            out = np.empty_like(flat)
            if loop is not None:
                out[kept] = _substep_loop(loop, n_sub, flat[kept])
            for idx, slabs in parts:
                block = flat[idx]
                for rows, hi, m in slabs:
                    out[rows] = np.matmul(m, block[..., :hi, None])[..., 0]
            out[fill] = np.conj(out[source])
            return out[scatter].reshape(rho.shape)

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


def _popcount(values: np.ndarray) -> np.ndarray:
    """The number of set bits of each nonnegative integer of values, one
    pass a bit (np.bitwise_count needs numpy 2.0)."""
    count = np.zeros(values.shape, dtype=np.intp)
    while values.any():
        count += values & 1
        values = values >> 1
    return count


def _shift_invariant(
    rho0: np.ndarray, h_nh: np.ndarray, diagonal: np.ndarray, rates: np.ndarray
) -> bool:
    """Whether rho0 and the generator _write_generator writes from h_nh,
    diagonal and rates commute bit for bit with the cyclic site shift T,
    rho0 as T rho0 T^dag and the generator as the superoperator shift
    vec(a, b) -> vec(T a, T b).

    Each entry of the generator is one term read from the three arrays: a
    ket drift entry vec(a, b) -> vec(c, b) is -i H[a, c], a bra drift entry
    vec(a, b) -> vec(a, d) is i conj(H[b, d]), a diagonal entry is
    diagonal[a, b], and a jump vec(a, b) -> vec(a ^ bit_j, b ^ bit_i) is
    rates[i, j].  T maps each onto an entry of the same kind at
    (T a, T b), that of the sites i + 1 and j + 1 for a jump.  So rho0,
    h_nh and the diagonal array equal to their images under T
    (models.commutes) and a circulant rate matrix (_circulant) give every
    entry's image the entry's own value, stored exactly where the entry is.
    """
    stack = np.stack((rho0, h_nh, diagonal))
    return _circulant(rates) and bool(commutes(stack, "T").all())


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
    the cyclic site shift T (_Generator.shift_reduced) when rho0 and the
    arrays the CSR is written from pass exact tests (_shift_invariant):
    rho0 equals T rho0 T^dag bit for bit, so do the drift H_nh and the
    diagonal array, and the rate matrix is circulant.  Then the CSR
    commutes with the shift bit for bit, and vec(rho(t)) stays in the
    shift-invariant subspace, one value per orbit: 700 of 4,096 at N = 6
    and 2,344 of 16,384 at N = 7.  This is the Liouville-space form of the
    momentum states of check_state's blocks (Sandvik, AIP Conf. Proc.
    1297, 135, 2010, section 4) for a weak symmetry (Buca & Prosen, NJP 14,
    073007, 2012).  Ring and local amplitude damping from |->^N, or from
    the projected interacting ground state (models.ground_state), pass the
    tests; all-to-all fails them (its complex cross rates are oriented
    i < j, so its rate matrix is not circulant), and such runs, and every
    run without rho0, keep the full generator.
    """
    h_eff = np.asarray(h_eff)
    energies = np.diag(h_eff)
    # no nonzero entry off the diagonal; -0.0 counts as zero
    diagonal = np.count_nonzero(h_eff) == np.count_nonzero(energies)
    if channel == "dephasing" and diagonal:
        return _DiagonalGenerator(_dephasing_diagonal(np.real(energies), gamma))
    terms = _gksl_terms(h_eff, gamma, channel)
    dim = 2**gamma.n_sites
    rhs = _Generator(_write_generator(*terms), dim, _identity_orbits(dim))
    if rho0 is None or not _shift_invariant(np.asarray(rho0), *terms):
        return rhs
    orbits = _pair_orbits(gamma.n_sites)
    # at N = 1 the shift is the identity and every orbit a single index
    if len(orbits.representatives) == rhs.size:
        return rhs
    return rhs.shift_reduced(orbits)


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
    summed) and herm_drift the largest entry of |rho - rho^dag|.  group
    names the symmetry group whose blocks the spectrum came from (see
    check_state): "TP", "T", "P" or "1" (none).  rho commutes with every
    element of it bit for bit, so its coherence can be taken on the same
    symmetry (observables.coherence_l1_energy_basis).
    """

    populations: np.ndarray
    trace_drift: float
    herm_drift: float
    group: str = "1"

    @property
    def min_eig(self) -> float:
        return float(self.populations[0])


def _herm_drift(states: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """max |rho - rho^dag| of each state of a (K, dim, dim) stack that
    commutes bit for bit with a symmetry group whose orbit representatives
    are `rows`, bitwise the whole-matrix value.

    Entry (g r, b) equals (r, g^-1 b) bit for bit, and so does its partner
    (b, g r), so the representative rows hold every value of
    |rho - rho^dag|: all rows for the trivial group, dim / 2 for P, about
    dim / N for T.  They are read HERM_DRIFT_SLAB_ROWS rows at a time,
    whose temporaries stay in cache.  The maximum is taken by numpy, so a
    nan anywhere is the result.
    """
    step = HERM_DRIFT_SLAB_ROWS
    return np.max(
        [
            np.abs(
                states[:, slab] - states[:, :, slab].swapaxes(-1, -2).conj()
            ).max(axis=(-2, -1))
            for slab in (_run(rows[i:i + step]) for i in range(0, len(rows), step))
        ],
        axis=0,
    )


def _run(index: np.ndarray) -> np.ndarray | slice:
    """index as a slice when it is an ascending run of consecutive
    integers (the representatives of {1, P}, or all rows), so that taking
    it makes a view, not a copy."""
    if index[-1] - index[0] == len(index) - 1:
        return slice(index[0], index[-1] + 1)
    return index


def _block_spectra(states: np.ndarray, group: SymmetryGroup | None) -> np.ndarray:
    """Ascending spectra of the Hermitian parts of a (K, dim, dim) stack of
    states that commute bit for bit with `group` (None: the trivial group,
    one full eigvalsh).

    In the symmetry-adapted states |a, chi> of the group's table
    (models.symmetry_group) over the representatives a that the character
    chi admits, such a rho is block diagonal over chi, with blocks

        B_chi[a, b] = sqrt(|O_a| |O_b|) / |G|  sum_g chi(g)^* rho[a, g b].

    One gather of the representative rows at every g b gives rho[a, g b]
    for every state and (a, g, b), one FFT over the group's axes (s of P^s,
    then j of T^j, the last axis) gives every character, and the Hermitian
    parts of the blocks of one size, taken by one gather each, go through
    one eigvalsh for the whole stack.  The FFT of length 2 over s is the
    sum and the difference of rho[a, b] and rho[a, P b], the two parity
    blocks for {1, P}, and is written as those; over j of Z_N it gives the
    momentum blocks.  The gathers by np.take keep the arrays C-contiguous,
    and the FFT along their last axis took a third of its time along
    another axis (numpy 2.4, N = 4).  FFT and LAPACK see each transform
    and matrix alone, so each spectrum is bitwise the one-state one.
    """
    if group is None:
        hermitian = states + states.conj().swapaxes(1, 2)
        hermitian *= 0.5
        return np.linalg.eigvalsh(hermitian)
    reps = group.representatives
    n_t, n_p = group.elements.shape[:2]
    # rho[a, T^j P^s b] at (a, s, b, j)
    columns = group.elements[:, :, reps].transpose(1, 2, 0).reshape(-1)
    rows = np.take(states[:, _run(reps)], columns, axis=2).reshape(
        len(states), len(reps), n_p, len(reps), n_t
    )
    if n_p == 2:
        # the transform of length 2, exactly as the FFT computes it
        pair = np.empty_like(rows)
        np.add(rows[:, :, 0], rows[:, :, 1], out=pair[:, :, 0])
        np.subtract(rows[:, :, 0], rows[:, :, 1], out=pair[:, :, 1])
        rows = pair
    if n_t > 1:
        rows = np.fft.fft(rows, axis=-1)
    flat = rows.reshape(len(states), -1)
    spectra = []
    for index, weights in group.blocks:
        blocks = np.take(flat, index, axis=1)
        if weights is not None:
            blocks *= weights
        hermitian = blocks + blocks.conj().swapaxes(-1, -2)
        hermitian *= 0.5
        spectra.append(np.linalg.eigvalsh(hermitian).reshape(len(states), -1))
    return np.sort(np.concatenate(spectra, axis=1), axis=1)


def _state_groups(states: np.ndarray) -> np.ndarray:
    """The group each state of a (K, dim, dim) stack takes in check_state:
    the first of GROUP_MIN_ROWS whose size the state reaches and whose
    generators it commutes with bit for bit (models.commutes), or "1"."""
    count, dim = states.shape[:2]
    groups = np.full(count, "1", dtype="<U2")
    if dim < 2 or dim & (dim - 1):
        return groups
    invariant = {generator: commutes(states, generator) for generator in "TP"}
    for name, least in GROUP_MIN_ROWS.items():
        if dim >= least:
            fits = groups == "1"
            for generator in name:
                fits &= invariant[generator]
            groups[fits] = name
    return groups


def _take(states: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The states of a stack that `mask` selects; the stack itself, not a
    copy, when it selects them all."""
    return states if mask.all() else states[mask]


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
    the error's `passed`.

    Each state takes the largest symmetry group it has (_state_groups),
    each generator tested bit for bit with no tolerance or margin: the
    cyclic site shift T and the global spin flip P together (every ring
    and local dephasing sample from |->^N, and |->^N itself), T alone
    (ring and local amplitude damping from |->^N), P alone (all-to-all
    dephasing after t = 0), or none (all-to-all damping after t = 0), each
    from its GROUP_MIN_ROWS rows on.  Its spectrum comes from the group's
    blocks (_block_spectra): about dim / (2N) rows for Z_N x Z_2, dim / N
    for Z_N and dim / 2 for {1, P}, and the full eigvalsh for none.  Its
    hermiticity drift comes from the group's representative rows, which
    hold every value of the whole matrix (_herm_drift).  A state with a
    nan or inf entry gets no spectrum (its min_eig is nan) and is
    rejected.

    The states of one group are measured as one stack (no copy when they
    are the whole stack), one eigvalsh per block size.  FFT and LAPACK see
    each transform and matrix alone, so each record is bitwise the
    one-state one, and the per-call overhead, most of a small state's
    check, is paid once a stack.
    """
    # one state is a stack of one
    states, times = (rho[None], [t]) if rho.ndim == 2 else (rho, t)
    count, dim = states.shape[:2]
    trace = np.trace(states, axis1=1, axis2=2)
    trace_drift = np.abs(trace.real - 1.0) + np.abs(trace.imag)
    herm_drift = np.empty(count)
    populations = np.full((count, dim), math.nan)
    # a nan entry fails the invariance tests (nan != nan); an inf one may
    # pass them, and then sits in a representative row as well
    groups = _state_groups(states)
    names = groups.tolist()
    for name in dict.fromkeys(names):
        mask = groups == name
        where = np.flatnonzero(mask)
        chosen = _take(states, mask)
        group = None if name == "1" else symmetry_group(dim.bit_length() - 1, name)
        rows = np.arange(dim) if group is None else group.representatives
        # rho - rho^dag is nan or inf wherever rho is (inf - inf is nan,
        # which numpy would warn about), so a non-finite state gets no
        # spectrum
        with np.errstate(invalid="ignore"):
            herm_drift[where] = _herm_drift(chosen, rows)
        finite = np.isfinite(herm_drift[where])
        if finite.any():
            populations[where[finite]] = _block_spectra(
                _take(chosen, finite), group
            )
    # written so that a nan measurement fails
    valid = (
        (trace_drift < TRACE_TOL)
        & (herm_drift < HERMITICITY_TOL)
        & (populations[:, 0] >= MIN_EIGENVALUE_TOL)
    ).tolist()
    trace_drift, herm_drift = trace_drift.tolist(), herm_drift.tolist()
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
            StateCheck(populations[k], trace_drift[k], herm_drift[k], names[k])
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
    """Integrate the master equation, yielding (t, rho) one sample at a time.

    Memory stays O(dim^2) regardless of the grid length.  The generator comes from `spec` and
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
    second eigendecomposition, and its symmetry group feeds
    observables.coherence_l1_energy_basis), and
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
    info["shift_reduced"] = rhs.size < dim * dim
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
