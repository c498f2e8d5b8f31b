"""Output checks for the benchmark, computed apart from the program.

Nothing here imports qbattery.  The closed forms and the reference GKSL
generator are written from the model's definition (see the README of the
package and the docstring of its models module):

* battery H_B = sum_i (h/2) sigma^x_i, product start |-> on every cell;
* basis index 0 of a cell is sigma^z = +1, site 0 is the leftmost factor;
* ring bonds are the oriented pairs j -> (j+1) mod N (both orientations of
  the single pair at N = 2), all-to-all bonds are the pairs j < k;
* rate matrix: gamma on the diagonal, gamma_offdiag on each oriented bond
  (j, k) and its conjugate on (k, j);
* effective Hamiltonians: j_z sigma^z_j sigma^z_k per bond for dephasing,
  J sigma^+_j sigma^-_k + h.c. with J = j_xx + i d_dm for amplitude damping.

Every function returns a list of messages, empty when the check passes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

CSV_COLUMNS = ("t", "W", "ergotropy", "stored_E", "ratio_R", "coherence_per_site")
ROW_TOL = 1e-10
STORED_TOL = 1e-9
RATIO_REL_TOL = 1e-8
CLOSED_FORM_TOL = 1e-8
REFERENCE_TOL = 1e-8
RATIO_COLLAPSE_TOL = 1e-3
RATIO_COLLAPSE_WINDOW = (0.2, 5.0)
STORED_FLOOR = 1e-9

_SIGMA = {
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
}


# ---------------------------------------------------------------------------
# Reading emitted files
# ---------------------------------------------------------------------------

def parse_csv(payload: bytes) -> dict[str, np.ndarray]:
    """Column arrays of one emitted CSV; empty fields become NaN."""
    lines = payload.decode("utf-8").split("\n")
    if tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:] if line]
    if any(len(r) != len(CSV_COLUMNS) for r in rows):
        raise ValueError("ragged rows")
    data = np.array([[float(f) if f else math.nan for f in r] for r in rows])
    return {name: data[:, i] for i, name in enumerate(CSV_COLUMNS)}


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Model pieces, built from the definitions above
# ---------------------------------------------------------------------------

def bonds(topology: str, n: int) -> list[tuple[int, int]]:
    if topology == "local" or n < 2:
        return []
    if topology == "nearest_neighbor":
        return [(j, (j + 1) % n) for j in range(n)]
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


def site_op(kind: str, site: int, n: int) -> scipy.sparse.csr_matrix:
    left = scipy.sparse.identity(2**site, dtype=complex, format="csr")
    right = scipy.sparse.identity(2 ** (n - site - 1), dtype=complex, format="csr")
    op = scipy.sparse.csr_matrix(_SIGMA[kind])
    return scipy.sparse.kron(scipy.sparse.kron(left, op), right, format="csr")


def rate_matrix(topology: str, n: int, p: dict) -> np.ndarray:
    g12 = complex(p["gamma_offdiag"])
    m = p["gamma"] * np.eye(n, dtype=complex)
    if topology == "all_to_all":
        for j, k in bonds(topology, n):
            m[j, k] = g12
            m[k, j] = np.conj(g12)
    else:
        for j, k in bonds(topology, n):
            m[j, k] += g12
            m[k, j] += np.conj(g12)
    return m


def effective_hamiltonian(channel: str, topology: str, n: int, p: dict):
    dim = 2**n
    h = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for j, k in bonds(topology, n):
        if channel == "dephasing":
            h = h + p["j_z"] * (site_op("z", j, n) @ site_op("z", k, n))
        else:
            hop = site_op("plus", j, n) @ site_op("minus", k, n)
            coupling = complex(p["j_xx"], p["d_dm"])
            h = h + coupling * hop + np.conj(coupling) * hop.conj().T
    return h.tocsr()


def gksl_generator(channel: str, topology: str, n: int, p: dict):
    """Sparse generator on vec(rho) = rho.reshape(-1) (row-major), where
    vec(A rho B) = kron(A, B^T) vec(rho):

        L = -i [kron(H, I) - kron(I, H^T)]
            + sum_ij G_ij [kron(L_j, conj(L_i)) - 1/2 kron(L_i^+ L_j, I)
                           - 1/2 kron(I, (L_i^+ L_j)^T)].
    """
    dim = 2**n
    eye = scipy.sparse.identity(dim, dtype=complex, format="csr")
    h = effective_hamiltonian(channel, topology, n, p)
    lmat = -1j * (scipy.sparse.kron(h, eye) - scipy.sparse.kron(eye, h.T))
    jumps = [site_op("z" if channel == "dephasing" else "minus", i, n) for i in range(n)]
    g = rate_matrix(topology, n, p)
    for i in range(n):
        for j in range(n):
            if g[i, j] == 0:
                continue
            ldl = jumps[i].conj().T @ jumps[j]
            lmat = lmat + g[i, j] * (
                scipy.sparse.kron(jumps[j], jumps[i].conj())
                - 0.5 * scipy.sparse.kron(ldl, eye)
                - 0.5 * scipy.sparse.kron(eye, ldl.T)
            )
    return lmat.tocsr()


def battery_hamiltonian(n: int, h: float) -> np.ndarray:
    dim = 2**n
    out = scipy.sparse.csr_matrix((dim, dim), dtype=complex)
    for i in range(n):
        out = out + (h / 2.0) * site_op("x", i, n)
    return out.toarray()


def battery_levels_descending(n: int, h: float) -> np.ndarray:
    """Spectrum of sum_i (h/2) sigma^x_i: (h/2)(N - 2m), C(N, m)-fold."""
    levels = np.concatenate(
        [np.full(math.comb(n, m), (h / 2.0) * (n - 2 * m)) for m in range(n + 1)]
    )
    return np.sort(levels)[::-1]


def product_minus(n: int) -> np.ndarray:
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    vec = np.ones(1, dtype=complex)
    for _ in range(n):
        vec = np.kron(vec, minus)
    return np.outer(vec, vec.conj())


def energy_and_ergotropy(rho: np.ndarray, h_b: np.ndarray, levels_desc: np.ndarray):
    w = float(np.real(np.trace(rho @ h_b)))
    populations = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return w, w - float(np.dot(populations, levels_desc))


# ---------------------------------------------------------------------------
# Checks on one run
# ---------------------------------------------------------------------------

def check_rows(data: dict, n: int, h: float, dt_sample: float) -> list[str]:
    """Bounds and internal consistency that hold for every row."""
    errors = []
    t, w, ergo = data["t"], data["W"], data["ergotropy"]
    stored, ratio = data["stored_E"], data["ratio_R"]
    grid = np.arange(len(t)) * dt_sample
    if np.max(np.abs(t - grid)) > 1e-9:
        errors.append("time column is not k * dt_sample")
    if not np.all(np.isfinite(w) & np.isfinite(ergo) & np.isfinite(stored)):
        errors.append("W, ergotropy or stored_E has an empty or non-finite field")
        return errors
    if np.min(ergo) < -ROW_TOL:
        errors.append(f"ergotropy below 0: {np.min(ergo):.3e}")
    excess = np.max(ergo - (w + n * h / 2.0))
    if excess > ROW_TOL:
        errors.append(f"ergotropy above W + N h/2 by {excess:.3e}")
    drift = np.max(np.abs(stored - (w - w[0])))
    if drift > STORED_TOL:
        errors.append(f"stored_E differs from W - W(0) by {drift:.3e}")
    empty = np.isnan(ratio)
    small = np.abs(stored) <= STORED_FLOOR
    if np.any(empty != small):
        errors.append("ratio_R is empty where |stored_E| > 1e-9 or set where it is not")
    defined = ~empty & ~small
    if np.any(defined):
        expected = ergo[defined] / stored[defined]
        rel = np.max(np.abs(ratio[defined] - expected) / np.maximum(np.abs(expected), 1.0))
        if rel > RATIO_REL_TOL:
            errors.append(f"ratio_R differs from ergotropy/stored_E by {rel:.3e}")
    return errors


def dephasing_energy(topology: str, n: int, p: dict, t: np.ndarray) -> np.ndarray:
    """Tr[H_B rho(t)] under dephasing from the product start: one cosine
    factor per neighbour of each cell, q = Im gamma_offdiag."""
    q = complex(p["gamma_offdiag"]).imag
    jz = p["j_z"]
    plus = np.cos(2.0 * (jz + q) * t)
    minus = np.cos(2.0 * (jz - q) * t)
    total = np.zeros_like(t)
    for j in range(n):
        if topology == "local":
            factor = np.ones_like(t)
        elif topology == "nearest_neighbor" and n == 2:
            factor = np.cos(4.0 * jz * t)
        elif topology == "nearest_neighbor":
            factor = plus * minus
        else:
            factor = plus ** (n - 1 - j) * minus**j
        total += factor
    return -(p["h"] / 2.0) * np.exp(-2.0 * p["gamma"] * t) * total


def check_dephasing_energy(data: dict, topology: str, n: int, p: dict) -> list[str]:
    dev = np.max(np.abs(data["W"] - dephasing_energy(topology, n, p, data["t"])))
    if dev > CLOSED_FORM_TOL:
        return [f"W deviates from the dephasing closed form by {dev:.3e}"]
    return []


def check_local_dephasing(data: dict) -> list[str]:
    top = np.max(data["ergotropy"])
    if top > ROW_TOL:
        return [f"local dephasing ergotropy reaches {top:.3e}"]
    return []


def local_damping_reference(n: int, p: dict, t: np.ndarray):
    """(W, ergotropy) of the product state rho_cell(t)^(x)N under local
    amplitude damping from |->: excited population e^{-gamma t}/2,
    coherence -e^{-gamma t/2}/2."""
    g, h = p["gamma"], p["h"]
    excited = 0.5 * np.exp(-g * t)
    coherence = 0.5 * np.exp(-g * t / 2.0)
    radius = np.sqrt((excited - 0.5) ** 2 + coherence**2)
    lam_hi, lam_lo = 0.5 + radius, 0.5 - radius
    pops = np.ones((len(t), 1))
    for _ in range(n):
        pops = np.concatenate([pops * lam_hi[:, None], pops * lam_lo[:, None]], axis=1)
    pops = np.sort(pops, axis=1)
    w = -n * (h / 2.0) * np.exp(-g * t / 2.0)
    passive = pops @ battery_levels_descending(n, h)
    return w, w - passive


def check_local_damping(data: dict, n: int, p: dict) -> list[str]:
    w, ergo = local_damping_reference(n, p, data["t"])
    errors = []
    dev_w = np.max(np.abs(data["W"] - w))
    if dev_w > CLOSED_FORM_TOL:
        errors.append(f"W deviates from the local damping closed form by {dev_w:.3e}")
    dev_e = np.max(np.abs(data["ergotropy"] - ergo))
    if dev_e > CLOSED_FORM_TOL:
        errors.append(
            f"ergotropy deviates from the local damping closed form by {dev_e:.3e}"
        )
    return errors


def pick_samples(rng: np.random.Generator, n_rows: int, count: int = 3) -> list[int]:
    """Sorted row indices (t > 0) for the reference propagation."""
    if n_rows < 2:
        return []
    count = min(count, n_rows - 1)
    return sorted(int(k) for k in rng.choice(np.arange(1, n_rows), count, replace=False))


def check_reference_propagation(
    data: dict, channel: str, topology: str, n: int, p: dict, rows: list[int]
) -> list[str]:
    """W and ergotropy at the given rows against exp(L t) applied to the
    product start with the benchmark's own generator."""
    lmat = gksl_generator(channel, topology, n, p)
    h_b = battery_hamiltonian(n, p["h"])
    levels = battery_levels_descending(n, p["h"])
    dim = 2**n
    vec = product_minus(n).reshape(-1)
    t_now = 0.0
    errors = []
    for k in rows:
        t_k = float(data["t"][k])
        vec = scipy.sparse.linalg.expm_multiply(lmat * (t_k - t_now), vec)
        t_now = t_k
        w, ergo = energy_and_ergotropy(vec.reshape(dim, dim), h_b, levels)
        dev_w = abs(data["W"][k] - w)
        dev_e = abs(data["ergotropy"][k] - ergo)
        if dev_w > REFERENCE_TOL or dev_e > REFERENCE_TOL:
            errors.append(
                f"t = {t_k:g}: W off by {dev_w:.3e}, ergotropy off by {dev_e:.3e} "
                "against the reference propagation"
            )
    return errors


# ---------------------------------------------------------------------------
# Checks across runs
# ---------------------------------------------------------------------------

def first_peak(t: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(t, value) of the first interior strict local maximum, else the maximum."""
    inner = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    hits = np.nonzero(inner)[0]
    i = int(hits[0]) + 1 if len(hits) else int(np.argmax(values))
    return float(t[i]), float(values[i])


def check_ratio_collapse(curves: dict[int, dict], t_max: float) -> dict[int, list[str]]:
    """Pairwise agreement of R(t) on the window, per ring size N >= 3."""
    lo, hi = RATIO_COLLAPSE_WINDOW[0], min(RATIO_COLLAPSE_WINDOW[1], t_max)
    errors: dict[int, list[str]] = {n: [] for n in curves}
    sizes = sorted(curves)
    for a_i, a in enumerate(sizes):
        for b in sizes[a_i + 1:]:
            t = curves[a]["t"]
            if len(t) != len(curves[b]["t"]):
                errors[b].append(f"R(t) grid of N = {b} differs from N = {a}")
                continue
            ra, rb = curves[a]["ratio_R"], curves[b]["ratio_R"]
            mask = (t >= lo - 1e-12) & (t <= hi + 1e-12) & np.isfinite(ra) & np.isfinite(rb)
            if not np.any(mask):
                continue
            gap = float(np.max(np.abs(ra[mask] - rb[mask])))
            if gap > RATIO_COLLAPSE_TOL:
                errors[b].append(f"R(t) of N = {b} is {gap:.3e} from N = {a}")
    return errors


def check_peak_order(ring: dict, all_to_all: dict) -> list[str]:
    t_r, peak_r = first_peak(ring["t"], ring["ergotropy"])
    t_a, peak_a = first_peak(all_to_all["t"], all_to_all["ergotropy"])
    if not peak_a > peak_r:
        return [
            f"all-to-all first ergotropy peak {peak_a:.6f} (t = {t_a:g}) is not "
            f"above the ring's {peak_r:.6f} (t = {t_r:g})"
        ]
    return []
