"""Unit tests for the master-equation generator, its RK4 propagation and the
state invariants."""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import (
    CptpViolationError,
    EvolutionConfig,
    NoiseSpec,
    StateInvariantError,
    build_gamma,
    default_dt_internal,
    evolve,
    evolve_stream,
    product_minus_state,
    resolve_time_grid,
    steady_state_probe,
)
from qbattery import evolution
from qbattery.dissipation import CHANNELS
from qbattery.evolution import (
    HERMITICITY_TOL,
    LEVEL_SPLIT_MIN_ROWS,
    MIN_EIGENVALUE_TOL,
    TRANSLATION_SPLIT_MIN_DIM,
    StateCheck,
    _herm_drift,
    _momentum_spectrum,
    _orbits,
    _rk4_substeps,
    _substep_loop_work,
    check_state,
    liouvillian_rhs,
    make_rhs,
)
from qbattery.models import EffectiveCoupling, effective_hamiltonian, site_z_signs

from reference_impls import (
    SX,
    SY,
    random_density_matrix,
    random_hermitian,
    ref_check_state,
    ref_conjugate_sectors,
    ref_dephasing_diagonal,
    ref_embed,
    ref_generator_matrix,
    ref_gksl_matrix,
    ref_jumps,
    ref_level,
    ref_level_map,
    ref_master_rhs,
    ref_parity_blocks,
    ref_rk4_block_map,
    solve_master_ivp,
)

G12 = 0.01 * np.exp(1j * np.pi / 3)


def _spec(channel="dephasing", topology="nearest_neighbor", gamma=0.2,
          offdiag=G12, coupling=None, periodic=True):
    return NoiseSpec(
        channel=channel,
        topology=topology,
        gamma=gamma,
        gamma_offdiag=0j if topology == "local" else offdiag,
        coupling=coupling,
        periodic=periodic,
    )


def _ising_heff(n, j_z=1.0, interaction_range="nearest_neighbor"):
    return effective_hamiltonian(
        EffectiveCoupling(kind="ising_z", j_z=j_z, interaction_range=interaction_range),
        n,
    )


def _hopping_heff(n, j_xx=1.2, d_dm=0.2):
    return effective_hamiltonian(
        EffectiveCoupling(kind="xx_dm", j_xx=j_xx, d_dm=d_dm), n
    )


ISING = EffectiveCoupling(kind="ising_z", j_z=1.0)
HOPPING = EffectiveCoupling(kind="xx_dm", j_xx=1.2, d_dm=0.2)


def _map_arrays(step):
    """The numpy arrays a per-sample map closes over, through lists and
    tuples."""
    todo = [cell.cell_contents for cell in step.__closure__ or ()]
    arrays = []
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
    return arrays


class TestRhsDispatch:
    """One generator for both channels; the map follows its structure."""

    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_diagonal_generator_takes_one_hadamard_product(self, topology):
        n = 3
        spec = _channel_spec("dephasing", topology)
        info = {}
        list(
            evolve_stream(
                product_minus_state(n), spec, EvolutionConfig(t_max=0.1),
                info=info,
            )
        )
        assert info["propagation"] == "rk4_sample_map"
        rhs = make_rhs(_spec_heff(spec, n), build_gamma(spec, n), "dephasing")
        (factor,) = _map_arrays(rhs.sample_map(1e-3, 10))
        assert factor.shape == (2**n, 2**n)

    @pytest.mark.parametrize(
        "channel, coupling",
        [("dephasing", HOPPING), ("amplitude_damping", HOPPING),
         ("amplitude_damping", None)],
    )
    def test_other_generators_take_the_sector_map(self, channel, coupling):
        n = 3
        spec = _spec(channel=channel, coupling=coupling)
        info = {}
        list(
            evolve_stream(
                product_minus_state(n), spec, EvolutionConfig(t_max=0.1),
                info=info,
            )
        )
        assert info["propagation"] == "rk4_sample_map"
        rhs = make_rhs(_spec_heff(spec, n), build_gamma(spec, n), channel)
        stacks = [a for a in _map_arrays(rhs.sample_map(1e-3, 10)) if a.ndim == 3]
        assert stacks
        # one block per kept sector, none the whole of vec(rho)
        assert sum(len(m) for m in stacks) == len(rhs._kept_sectors()[0])
        assert max(m.shape[1] for m in stacks) < 4**n


def _assert_keeps_arrays(h_eff, gamma, channel):
    """The run's generator against the former Kronecker sums bit for bit:
    _gksl_matrix's data, indices and indptr byte for byte, or, for the
    diagonal dephasing generator that make_rhs keeps as its Lambda, that
    array against the reference's stored entries, which must be one on
    each diagonal position and nothing else."""
    ref = ref_gksl_matrix(h_eff, gamma, channel)
    rhs = make_rhs(h_eff, gamma, channel)
    if isinstance(rhs, evolution._DiagonalGenerator):
        size = rhs.lam.size
        assert np.array_equal(ref.indptr, np.arange(size + 1))
        assert np.array_equal(ref.indices, np.arange(size))
        assert rhs.lam.dtype == ref.data.dtype
        assert rhs.lam.tobytes() == ref.data.tobytes()
        return
    got = evolution._gksl_matrix(h_eff, gamma, channel)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


class TestGeneratorArrays:
    """The generator written once from the bits (or kept as its Lambda when
    it is diagonal) against the former Kronecker sums over Kronecker-chain
    jumps, which also pins the sigma^- convention of its jumps and of its
    drift M."""

    @pytest.mark.parametrize(
        "topology, n",
        # correlated topologies need two cells
        [("local", n) for n in range(1, 8)]
        + [(t, n) for t in ("nearest_neighbor", "all_to_all") for n in range(2, 8)],
    )
    def test_generator_keeps_its_arrays(self, topology, n):
        # both channels with the presets' couplings, and dephasing with
        # XX + DM hopping, whose off-diagonal drift takes the general path
        specs = [_channel_spec(channel, topology) for channel in CHANNELS]
        if topology != "local":
            specs.append(_channel_spec("dephasing", topology, "xx_dm"))
        for spec in specs:
            h_eff, gamma = _spec_heff(spec, n), build_gamma(spec, n)
            _assert_keeps_arrays(h_eff, gamma, spec.channel)

    @pytest.mark.parametrize("seed", range(12))
    def test_arbitrary_drift_keeps_its_arrays(self, seed):
        # a sparse non-Hermitian H_eff with -0.0 entries shares column
        # blocks between ket drift and jumps, which the presets never do
        rng = np.random.default_rng(seed)
        n = 1 + seed % 4
        dim = 2**n
        h_eff = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h_eff[rng.random((dim, dim)) < 0.6] = 0.0
        h_eff[rng.random((dim, dim)) < 0.2] = -0.0
        topology = "local" if n == 1 else ("nearest_neighbor", "all_to_all")[seed % 2]
        for channel in CHANNELS:
            gamma = build_gamma(_spec(channel=channel, topology=topology), n)
            _assert_keeps_arrays(h_eff, gamma, channel)


class TestRhsCorrectness:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_dephasing_fast_path_matches_literal(self, n, topology):
        rng = np.random.default_rng(n * 7 + len(topology))
        spec = _spec(topology=topology)
        gamma = build_gamma(spec, n)
        h_eff = _ising_heff(n) if topology != "local" else np.zeros((2**n, 2**n))
        rhs = make_rhs(h_eff, gamma, "dephasing")
        for _ in range(4):
            rho = random_density_matrix(rng, 2**n)
            expected = ref_master_rhs(
                h_eff, gamma.matrix, ref_jumps("dephasing", n), rho
            )
            np.testing.assert_allclose(rhs(rho), expected, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_damping_sparse_path_matches_literal(self, n, topology):
        rng = np.random.default_rng(n * 11 + len(topology))
        spec = _spec(channel="amplitude_damping", topology=topology)
        gamma = build_gamma(spec, n)
        h_eff = (
            _hopping_heff(n) if topology != "local" else np.zeros((2**n, 2**n))
        )
        rhs = make_rhs(h_eff, gamma, "amplitude_damping")
        for _ in range(4):
            rho = random_density_matrix(rng, 2**n)
            expected = ref_master_rhs(
                h_eff, gamma.matrix, ref_jumps("amplitude_damping", n), rho
            )
            np.testing.assert_allclose(rhs(rho), expected, atol=1e-13)

    @pytest.mark.parametrize("topology", ["local", "all_to_all"])
    def test_unknown_channel_raises(self, topology):
        # an unknown channel is refused, not built as amplitude damping
        gamma = build_gamma(_spec(channel="amplitude_damping", topology=topology), 2)
        h_eff, rho = np.zeros((4, 4)), product_minus_state(2)
        with pytest.raises(ValueError, match="unknown channel 'thermal'.*dephasing"):
            make_rhs(h_eff, gamma, "thermal")
        with pytest.raises(ValueError, match="unknown channel 'thermal'.*dephasing"):
            liouvillian_rhs(h_eff, gamma, "thermal", rho)

    @pytest.mark.parametrize("channel", ["dephasing", "amplitude_damping"])
    def test_generator_exact_on_non_hermitian_input(self, channel):
        # The sparse superoperator is linear in vec(rho) with no hermiticity
        # assumption; verify on a general complex matrix.
        rng = np.random.default_rng(3)
        spec = _spec(channel=channel)
        gamma = build_gamma(spec, 2)
        h_eff = _hopping_heff(2)
        rhs = make_rhs(h_eff, gamma, channel)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        expected = ref_master_rhs(
            h_eff, gamma.matrix, ref_jumps(channel, 2), m
        )
        np.testing.assert_allclose(rhs(m), expected, atol=1e-13)

    def test_dephasing_with_offdiagonal_heff_matches_literal(self):
        rng = np.random.default_rng(9)
        spec = _spec()
        gamma = build_gamma(spec, 2)
        h_off = ref_embed(SX, 0, 2) + 0.3 * ref_embed(SY, 1, 2)
        rhs = make_rhs(h_off, gamma, "dephasing")
        for _ in range(4):
            rho = random_density_matrix(rng, 4)
            expected = ref_master_rhs(
                h_off, gamma.matrix, ref_jumps("dephasing", 2), rho
            )
            np.testing.assert_allclose(rhs(rho), expected, atol=1e-13)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_diagonal_generator_is_lambda_bitwise(self, topology, n):
        # sigma^z dephasing with an Ising-z H_eff: the generator is diagonal
        # and holds Lambda exactly, which keeps the dephasing CSVs' bytes
        # and the exact translation invariance of ring runs
        spec = _channel_spec("dephasing", topology)
        gamma = build_gamma(spec, n)
        h_eff = _spec_heff(spec, n)
        rhs = make_rhs(h_eff, gamma, "dephasing")
        assert isinstance(rhs, evolution._DiagonalGenerator)
        expected = ref_dephasing_diagonal(
            np.real(np.diag(h_eff)), gamma.matrix, n
        )
        assert rhs.lam.dtype == expected.dtype
        assert rhs.lam.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("phase", [np.pi / 3, 0.7])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_dephasing_diagonal_is_shift_invariant(self, topology, phase, n):
        # exactly for ring and local reservoirs, whose rate matrices are
        # circulant, and within round-off of the plain sum in any case
        spec = _spec(topology=topology, offdiag=0.01 * np.exp(1j * phase))
        gamma = build_gamma(spec, n)
        energies = np.real(np.diag(_ising_heff(n)))
        lam = evolution._dephasing_diagonal(energies, gamma)
        shift = _shift(n)
        invariant = np.array_equal(lam[np.ix_(shift, shift)], lam)
        assert invariant == (topology != "all_to_all")
        signs = site_z_signs(n)
        g = gamma.matrix
        plain = (
            -1j * (energies[:, None] - energies[None, :])
            + np.einsum("ja,ib,ij->ab", signs, signs, g)
            - 0.5 * np.einsum("ia,ij,ja->a", signs, g, signs)[:, None]
            - 0.5 * np.einsum("ia,ij,ja->a", signs, g, signs)[None, :]
        )
        np.testing.assert_allclose(lam, plain, rtol=0, atol=1e-14)

    def test_literal_rhs_matches_independent_reference(self):
        rng = np.random.default_rng(21)
        gamma = build_gamma(_spec(channel="amplitude_damping"), 3)
        h_eff = _hopping_heff(3)
        rho = random_density_matrix(rng, 8)
        got = liouvillian_rhs(h_eff, gamma, "amplitude_damping", rho)
        expected = ref_master_rhs(
            h_eff, gamma.matrix, ref_jumps("amplitude_damping", 3), rho
        )
        np.testing.assert_allclose(got, expected, atol=1e-13)

    @pytest.mark.parametrize("channel", ["dephasing", "amplitude_damping"])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_literal_rhs_name_is_the_production_generator(
        self, topology, channel
    ):
        # the name perfbench's self-test imports evaluates make_rhs
        rng = np.random.default_rng(23)
        spec = _channel_spec(channel, topology)
        gamma = build_gamma(spec, 3)
        h_eff = _spec_heff(spec, 3)
        rho = random_density_matrix(rng, 8)
        got = liouvillian_rhs(h_eff, gamma, channel, rho)
        expected = make_rhs(h_eff, gamma, channel)(rho)
        assert got.tobytes() == expected.tobytes()


def _channel_spec(channel, topology, kind=None):
    """The presets' reservoir for one run: Ising-z coupling for dephasing
    and XX + DM hopping for damping (or the coupling `kind`), on the
    topology's bonds; none for local reservoirs."""
    coupling = None
    if topology != "local":
        if kind is None:
            kind = "ising_z" if channel == "dephasing" else "xx_dm"
        strengths = {"j_z": 1.0} if kind == "ising_z" else {"j_xx": 1.2, "d_dm": 0.2}
        interaction_range = (
            "all_to_all" if topology == "all_to_all" else "nearest_neighbor"
        )
        coupling = EffectiveCoupling(
            kind=kind, interaction_range=interaction_range, **strengths
        )
    return _spec(channel=channel, topology=topology, coupling=coupling)


def _spec_heff(spec, n):
    """H_eff that evolve_stream derives from spec on n cells."""
    if spec.coupling is None:
        return np.zeros((2**n, 2**n), dtype=complex)
    return effective_hamiltonian(spec.coupling, n, spec.periodic)


def _channel_heff(channel, topology, n):
    return _spec_heff(_channel_spec(channel, topology), n)


class TestSampleMap:
    """The precomputed per-sample map against the explicit RK4 substeps."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    @pytest.mark.parametrize(
        "channel, kind, path",
        [
            ("dephasing", "ising_z", "rk4_sample_map"),
            ("dephasing", "xx_dm", "rk4_sample_map"),
            ("amplitude_damping", "xx_dm", "rk4_sample_map"),
            ("amplitude_damping", "xx_dm", "rk4_substep_loop"),
        ],
    )
    def test_matches_substep_loop(
        self, channel, kind, path, topology, n, monkeypatch
    ):
        if path == "rk4_substep_loop":
            # no map fits in zero bytes, so the sector path runs the loop
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        spec = _channel_spec(channel, topology, kind)
        h_eff = _spec_heff(spec, n)
        cfg = EvolutionConfig(t_max=3.0, dt_sample=0.05)
        info = {}
        series = list(
            evolve_stream(product_minus_state(n), spec, cfg, info=info)
        )
        assert info["propagation"] == path
        # ring and local runs with a non-diagonal generator propagate the
        # shift orbits, on either path
        non_diagonal = channel == "amplitude_damping" or (
            kind == "xx_dm" and topology != "local"
        )
        assert info["shift_reduced"] == (non_diagonal and topology != "all_to_all")
        n_samples, n_sub = resolve_time_grid(cfg, spec)
        assert len(series) == n_samples + 1 >= 51
        rhs = make_rhs(h_eff, build_gamma(spec, n), channel)
        rho = product_minus_state(n).astype(complex)
        for t, got in series:
            np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)
            rho = _rk4_substeps(rhs, cfg.dt_sample / n_sub, n_sub, rho)

    def test_map_only_when_cheaper_than_loop(self):
        # Hopping ring at N = 4: the blocks hold 12870 entries against
        # 11772 loop multiply-adds per sample at one substep and 153036 at
        # thirteen.
        spec = _spec(channel="amplitude_damping", topology="nearest_neighbor")
        rhs = make_rhs(
            _channel_heff("amplitude_damping", "nearest_neighbor", 4),
            build_gamma(spec, 4),
            "amplitude_damping",
        )
        entries = sum(len(idx) ** 2 for idx in rhs.conjugate_sectors()[0])
        size = rhs.lmat.shape[0]
        assert entries >= _substep_loop_work(rhs.lmat.nnz, size, 1)
        assert entries < _substep_loop_work(rhs.lmat.nnz, size, 13)
        rhs.sample_map(1e-3, 1)
        assert rhs.propagation == "rk4_substep_loop"
        rhs.sample_map(1e-3, 13)
        assert rhs.propagation == "rk4_sample_map"

    def test_byte_bound_covers_all_blocks(self):
        # Local damping at N = 9: 3^9 blocks of at most 512 rows, 6^9
        # entries (~161 MB) in all.  The work rule alone would keep the map.
        spec = _spec(channel="amplitude_damping", topology="local")
        rhs = make_rhs(
            _channel_heff("amplitude_damping", "local", 9),
            build_gamma(spec, 9),
            "amplitude_damping",
        )
        blocks = rhs.conjugate_sectors()[0]
        assert max(len(idx) for idx in blocks) == 512
        entries = sum(len(idx) ** 2 for idx in blocks)
        assert 16 * entries > evolution.SAMPLE_MAP_MAX_BYTES
        assert entries < _substep_loop_work(
            rhs.lmat.nnz, rhs.lmat.shape[0], 13
        )
        step = rhs.sample_map(1e-3, 13)
        assert rhs.propagation == "rk4_substep_loop"
        # the loop's step holds no map
        assert not [a for a in _map_arrays(step) if np.iscomplexobj(a)]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_blocks_partition_the_generator(self, topology, n):
        spec = _spec(channel="amplitude_damping", topology=topology)
        rhs = make_rhs(
            _channel_heff("amplitude_damping", topology, n),
            build_gamma(spec, n),
            "amplitude_damping",
        )
        blocks = rhs.conjugate_sectors()[0]
        size = rhs.lmat.shape[0]
        # every vec(rho) index lies in exactly one block
        np.testing.assert_array_equal(
            np.sort(np.concatenate(blocks)), np.arange(size)
        )
        label = np.empty(size, dtype=int)
        for b, idx in enumerate(blocks):
            label[idx] = b
        # no stored generator entry connects two different blocks
        coo = rhs.lmat.tocoo()
        assert np.all(label[coo.row] == label[coo.col])
        assert len(blocks) > 1

    def test_block_sizes_at_six_cells(self):
        # Excitation-conserving XX + DM hopping: one block per ket-minus-bra
        # excitation difference d, of size binom(12, 6 + d).
        spec = _spec(channel="amplitude_damping", topology="all_to_all")
        rhs = make_rhs(
            _channel_heff("amplitude_damping", "all_to_all", 6),
            build_gamma(spec, 6),
            "amplitude_damping",
        )
        sizes = sorted(len(idx) for idx in rhs.conjugate_sectors()[0])
        assert len(sizes) == 13
        assert sizes[-1] == 924
        assert 16 * sum(s * s for s in sizes) <= evolution.SAMPLE_MAP_MAX_BYTES
        assert sum(sizes) == 4096


def _step_csrs(step):
    """The sparse matrices a per-sample step closes over."""
    cells = [cell.cell_contents for cell in step.__closure__ or ()]
    return [obj for obj in cells if scipy.sparse.issparse(obj)]


class TestStepBytes:
    """sample_map records the bytes of the arrays its step applies, and the
    substep loop's kept CSR is one row slice of the generator."""

    @pytest.mark.parametrize(
        "channel, topology, n, path",
        [
            ("dephasing", "nearest_neighbor", 3, "rk4_sample_map"),
            ("amplitude_damping", "nearest_neighbor", 4, "rk4_sample_map"),
            ("amplitude_damping", "all_to_all", 5, "rk4_sample_map"),
            ("amplitude_damping", "all_to_all", 4, "rk4_substep_loop"),
        ],
    )
    def test_equals_the_bytes_of_the_step_arrays(
        self, channel, topology, n, path, monkeypatch
    ):
        if path == "rk4_substep_loop":
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        spec = _channel_spec(channel, topology)
        rhs = make_rhs(_spec_heff(spec, n), build_gamma(spec, n), channel)
        assert rhs.step_bytes is None
        step = rhs.sample_map(1e-3, 13)
        assert rhs.propagation == path
        maps = [a for a in _map_arrays(step) if np.iscomplexobj(a)]
        csrs = _step_csrs(step)
        expected = sum(a.nbytes for a in maps) + sum(
            m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in csrs
        )
        assert rhs.step_bytes == expected > 0
        # a map holds no CSR and the loop no map
        assert len(csrs) == (path == "rk4_substep_loop")
        assert not (maps and csrs)
        if topology == "all_to_all" and path == "rk4_sample_map":
            assert _level_slabs(step)

    @pytest.mark.parametrize("topology", ["nearest_neighbor", "all_to_all"])
    def test_loop_csr_is_the_kept_restriction(self, topology, monkeypatch):
        # the kept rows reference kept columns only, so renumbering the
        # columns of lmat[kept] gives lmat[kept][:, kept] array for array
        monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        n = 4
        _, rhs = _damping_rhs(topology, n)
        kept = rhs._kept_sectors()[1]
        assert len(kept) < rhs.lmat.shape[0]
        (loop,) = _step_csrs(rhs.sample_map(1e-3, 13))
        ref = rhs.lmat[kept][:, kept]
        assert loop.shape == ref.shape
        for name in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(loop, name), getattr(ref, name))


def _transposed(idx, dim):
    """vec(rho) indices of rho[j, i] for the indices of rho[i, j]."""
    return (idx % dim) * dim + idx // dim


def _damping_rhs(topology, n):
    spec = _channel_spec("amplitude_damping", topology)
    rhs = make_rhs(
        _spec_heff(spec, n), build_gamma(spec, n), "amplitude_damping"
    )
    return spec, rhs


class TestConjugateSectors:
    """One sector of each Hermitian-conjugate pair is propagated."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_pairing_is_an_involution(self, topology, n):
        _, rhs = _damping_rhs(topology, n)
        blocks, partner = rhs.conjugate_sectors()
        dim = 2**n
        np.testing.assert_array_equal(partner[partner], np.arange(len(blocks)))
        for c, idx in enumerate(blocks):
            # the transpose maps the whole block onto its partner, so a
            # self-paired block is closed under it
            np.testing.assert_array_equal(
                np.sort(_transposed(idx, dim)), blocks[partner[c]]
            )
        assert np.any(partner == np.arange(len(blocks)))
        assert np.any(partner != np.arange(len(blocks)))

    @pytest.mark.parametrize("topology", ["nearest_neighbor", "all_to_all"])
    @pytest.mark.parametrize(
        "path", ["rk4_sample_map", "rk4_substep_loop"]
    )
    def test_kept_sectors_match_full_substeps(self, path, topology, monkeypatch):
        if path == "rk4_substep_loop":
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        n = 4
        spec, rhs = _damping_rhs(topology, n)
        cfg = EvolutionConfig(t_max=3.0, dt_sample=0.05)
        info = {}
        series = list(
            evolve_stream(product_minus_state(n), spec, cfg, info=info)
        )
        assert info["propagation"] == path
        assert info["shift_reduced"] == (topology == "nearest_neighbor")
        n_samples, n_sub = resolve_time_grid(cfg, spec)
        assert len(series) == n_samples + 1 == 61
        rho = product_minus_state(n).astype(complex)
        for t, got in series:
            np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)
            rho = _rk4_substeps(rhs, cfg.dt_sample / n_sub, n_sub, rho)

    @pytest.mark.parametrize("topology", ["nearest_neighbor", "all_to_all"])
    @pytest.mark.parametrize(
        "path", ["rk4_sample_map", "rk4_substep_loop"]
    )
    def test_filled_entries_are_exact_conjugates(self, path, topology, monkeypatch):
        # the ring propagates the shift orbits, whose conjugate pairs are
        # the orbits of the transposed indices
        if path == "rk4_substep_loop":
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        n = 4
        spec, rhs = _damping_rhs(topology, n)
        blocks, partner = rhs.conjugate_sectors()
        paired = np.concatenate(
            [idx for c, idx in enumerate(blocks) if partner[c] != c]
        )
        rows, cols = np.divmod(paired, 2**n)
        info = {}
        for _, rho in evolve_stream(
            product_minus_state(n),
            spec,
            EvolutionConfig(t_max=1.0, dt_sample=0.05),
            info=info,
        ):
            assert np.array_equal(rho[rows, cols], np.conj(rho[cols, rows]))
        assert info["propagation"] == path
        assert info["shift_reduced"] == (topology == "nearest_neighbor")


def _discovery_rhs(channel, topology, n, reduced):
    """A generator of each kind the runs build: damping with the presets'
    coupling, dephasing with XX + DM hopping (non-diagonal), full or
    reduced to the shift orbits where make_rhs reduces it.  Local
    dephasing has no hopping, and make_rhs keeps its diagonal generator as
    Lambda, so its CSR is built here from _gksl_matrix."""
    kind = "xx_dm" if channel == "dephasing" else None
    spec = _channel_spec(channel, topology, kind)
    h_eff, gamma = _spec_heff(spec, n), build_gamma(spec, n)
    if channel == "dephasing" and topology == "local":
        return evolution._Generator(evolution._gksl_matrix(h_eff, gamma, channel), 2**n)
    rho0 = product_minus_state(n) if reduced else None
    return make_rhs(h_eff, gamma, channel, rho0)


def _cycle_csr(size, back_edge):
    """A CSR on `size` indices made of two symmetric components, each a
    path with both directions stored and a diagonal, joined by the one-way
    entry [3 size / 4, size / 8] and, with back_edge, also
    [size / 10, 9 size / 10], which closes a one-way cycle through both."""
    half = size // 2
    rng = np.random.default_rng(size)
    row, col = [np.arange(size)], [np.arange(size)]
    for lo in (0, half):
        path = np.arange(lo, lo + half - 1)
        row += [path, path + 1]
        col += [path + 1, path]
    row.append([3 * size // 4])
    col.append([size // 8])
    if back_edge:
        row.append([size // 10])
        col.append([9 * size // 10])
    row, col = np.concatenate(row), np.concatenate(col)
    data = rng.normal(size=len(row)) + 1j * rng.normal(size=len(row))
    return scipy.sparse.csr_matrix((data, (row, col)), shape=(size, size))


class TestSectorDiscovery:
    """The weak sectors and the levels found with numpy (_components)
    against the former scipy.sparse.csgraph code, kept in
    tests/reference_impls.py, compared exactly."""

    @pytest.mark.parametrize("reduced", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("channel", CHANNELS)
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_sectors_and_levels_equal_csgraph(self, topology, channel, n, reduced):
        rhs = _discovery_rhs(channel, topology, n, reduced)
        # ring and local damping from |->^N, and ring dephasing with
        # hopping, are reduced; all-to-all never is
        assert (rhs.orbits is not None) == (
            reduced and topology != "all_to_all"
            and not (channel == "dephasing" and topology == "local")
        )
        blocks, partner = rhs.conjugate_sectors()
        ref_blocks, ref_partner = ref_conjugate_sectors(rhs)
        assert len(blocks) == len(ref_blocks)
        for got, ref in zip(blocks, ref_blocks):
            assert np.array_equal(got, ref)
        assert np.array_equal(partner, ref_partner)
        assert np.array_equal(rhs._level, ref_level(rhs.lmat))

    def test_n7_all_to_all_damping_sectors_equal_csgraph(self):
        rhs = _discovery_rhs("amplitude_damping", "all_to_all", 7, True)
        assert rhs.lmat.nnz == 561_151
        blocks, partner = rhs.conjugate_sectors()
        ref_blocks, ref_partner = ref_conjugate_sectors(rhs)
        assert len(blocks) == len(ref_blocks) == 15
        for got, ref in zip(blocks, ref_blocks):
            assert np.array_equal(got, ref)
        assert np.array_equal(partner, ref_partner)

    def test_components_number_by_smallest_index(self):
        rows = np.array([5, 2, 7, 4, 7], dtype=np.int32)
        cols = np.array([2, 0, 3, 4, 6], dtype=np.int32)
        n_comp, labels = evolution._components(8, rows, cols)
        assert n_comp == 4
        assert labels.tolist() == [0, 1, 0, 2, 3, 0, 2, 2]
        assert evolution._components(3, rows[:0], cols[:0])[1].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("back_edge", [False, True])
    def test_one_way_cycle_takes_one_level(self, back_edge):
        size = 2 * LEVEL_SPLIT_MIN_ROWS
        lmat = _cycle_csr(size, back_edge)
        rhs = evolution._Generator(lmat, 0)
        level = rhs._level
        if back_edge:
            # the symmetric halves are not strongly connected components:
            # the relaxation cannot converge, and every index is level 0
            assert not level.any()
        else:
            assert np.array_equal(level, np.repeat([0, 1], size // 2))
        assert np.array_equal(level, ref_level(lmat))
        dt, n_sub = 0.01, 5
        ((idx, slabs),) = _maps_of_parts(
            rhs.sector_parts([np.arange(size)], dt, n_sub)
        )
        assert len(slabs) == (1 if back_edge else 2)
        ref = ref_rk4_block_map(lmat, idx, dt, n_sub)
        np.testing.assert_allclose(_levels_whole(slabs), ref, rtol=0, atol=1e-12)


def test_cli_import_leaves_out_csgraph_and_linalg():
    # the sectors and levels are found with numpy; scipy.sparse.csgraph
    # would load scipy.sparse.linalg and scipy.linalg into every run
    src = os.path.dirname(os.path.dirname(evolution.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    names = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
    code = (
        f"import sys, qbattery.cli; "
        f"print(sorted(m for m in {names!r} if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def _fresh_interpreter(code):
    """The last line that `code` prints in a new interpreter with the
    package on its path, parsed as JSON."""
    src = os.path.dirname(os.path.dirname(evolution.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_scipy():
    # scipy.sparse loads only where a sparse generator is built
    code = (
        "import json, sys, qbattery.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'scipy')))"
    )
    assert _fresh_interpreter(code) == []


@pytest.mark.parametrize("argv", [["list-presets"], ["validate", "{cfg}"]])
def test_listing_and_validating_leave_out_scipy_sparse(tmp_path, argv):
    cfg = tmp_path / "fig2.cfg"
    cfg.write_text("preset = fig2_dephasing_product\n")
    argv = [arg.format(cfg=cfg) for arg in argv]
    code = (
        "import json, sys\n"
        "from qbattery import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(json.dumps([code, 'scipy.sparse' in sys.modules]))\n"
    )
    assert _fresh_interpreter(code) == [0, False]


# Each run's manifest fields (propagation, shift_reduced,
# propagated_values, step_bytes), with whether scipy.sparse was loaded
# after `import qbattery` and after the runs.
_RUN_FIELDS = (
    "import json, sys\n"
    "from dataclasses import replace\n"
    "from qbattery import get_preset, run_scenario\n"
    "before = 'scipy.sparse' in sys.modules\n"
    "cfg = replace(get_preset({preset!r}), t_max=0.05)\n"
    "runs = run_scenario(cfg, {out!r}).manifest['runs']\n"
    "fields = [[r['n_sites'], r['topology'], r['propagation'],\n"
    "           r['shift_reduced'], r['propagated_values'], r['step_bytes']]\n"
    "          for r in runs]\n"
    "print(json.dumps([before, 'scipy.sparse' in sys.modules, fields]))\n"
)


def test_dephasing_only_run_leaves_out_scipy_sparse(tmp_path):
    # the Ising-z dephasing generator is diagonal and kept as its Lambda
    code = _RUN_FIELDS.format(
        preset="fig2_dephasing_product", out=str(tmp_path / "out")
    )
    before, after, fields = _fresh_interpreter(code)
    assert (before, after) == (False, False)
    assert fields == [
        [n, "nearest_neighbor", "rk4_sample_map", False, 4**n, 16 * 4**n]
        for n in (2, 3, 4, 5, 6)
    ]


def test_damping_run_loads_scipy_sparse_at_its_build(tmp_path):
    code = _RUN_FIELDS.format(preset="fig5_ad_product", out=str(tmp_path / "out"))
    before, after, fields = _fresh_interpreter(code)
    assert (before, after) == (False, True)
    assert len(fields) == 8
    for n, topology, propagation, reduced, values, step_bytes in fields:
        assert propagation == "rk4_sample_map"
        assert reduced
        assert values < 4**n and step_bytes > 0


def test_dephasing_with_hopping_loads_scipy_sparse_at_its_build():
    # an XX + DM H_eff has off-diagonal entries, so the generator is a CSR
    code = (
        "import json, sys\n"
        "from qbattery import EffectiveCoupling, EvolutionConfig, NoiseSpec\n"
        "from qbattery import evolve_stream, product_minus_state\n"
        "before = 'scipy.sparse' in sys.modules\n"
        "coupling = EffectiveCoupling('xx_dm', j_xx=1.2, d_dm=0.2)\n"
        "spec = NoiseSpec('dephasing', 'nearest_neighbor', 0.2, 0.01j,\n"
        "                 coupling=coupling)\n"
        "info = {}\n"
        "for _ in evolve_stream(product_minus_state(3), spec,\n"
        "                       EvolutionConfig(t_max=0.05), info):\n"
        "    pass\n"
        "print(json.dumps([before, 'scipy.sparse' in sys.modules,\n"
        "                  info['propagation'], info['shift_reduced']]))\n"
    )
    assert _fresh_interpreter(code) == [False, True, "rk4_sample_map", True]


def _excitations(idx, n):
    """(ket, bra) excitation counts of the vec(rho) indices idx: the
    cleared bits of the row and column basis states (sigma^- sets one)."""
    rows, cols = np.divmod(idx, 2**n)
    up = np.array([n - bin(a).count("1") for a in range(2**n)])
    return up[rows], up[cols]


def _level_bounds(slabs):
    """(lo, hi) of each level row slab M[lo:hi, :hi] of a level-split map."""
    return [(slab.shape[1] - len(slab), slab.shape[1]) for slab in slabs]


def _levels_whole(slabs):
    """The whole map from its level row slabs, zero above the level
    diagonal."""
    size = slabs[-1].shape[1]
    whole = np.zeros((size, size), dtype=complex)
    for (lo, hi), slab in zip(_level_bounds(slabs), slabs):
        whole[lo:hi, :hi] = slab
    return whole


def _maps_of_parts(parts):
    """(idx, map) for each block of sector_parts' parts, after checking the
    layout the step applies.  A part of small blocks is one slab holding
    its (k, s) index stack, s and the (k, s, s) stack of maps; it yields
    one block at a time.  A level-split block's part holds one 2-D slab
    per level, M[lo:hi, :hi] on the rows idx[lo:hi], the slabs tiling the
    block; it yields the list of those slabs."""
    for idx, slabs in parts:
        if idx.ndim == 2:
            ((rows, hi, maps),) = slabs
            assert rows is idx and hi == idx.shape[1]
            assert maps.shape == (*idx.shape, hi)
            yield from zip(idx, maps)
            continue
        lo = 0
        for rows, hi, m in slabs:
            np.testing.assert_array_equal(rows, idx[lo:hi])
            assert m.shape == (hi - lo, hi)
            lo = hi
        assert lo == len(idx)
        yield idx, [m for *_, m in slabs]


def _assert_maps_match_reference(rhs, blocks, dt, n_sub):
    """sector_parts covers the blocks, and each map equals the dense
    construction on the block's indices in the map's order within 1e-13
    relative to the map's largest entry.  A level-split map is stored as
    its level row slabs, which tile the lower level blocks, and the dense
    construction is exactly zero above them."""
    covered = []
    for idx, got in _maps_of_parts(rhs.sector_parts(blocks, dt, n_sub)):
        covered.append(np.sort(idx))
        ref = ref_rk4_block_map(rhs.lmat, idx, dt, n_sub)
        if isinstance(got, list):
            bounds = _level_bounds(got)
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            for lo, hi in bounds:
                assert np.all(ref[lo:hi, hi:] == 0)
            got = _levels_whole(got)
        assert got.shape == 2 * idx.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    np.testing.assert_array_equal(
        np.sort(np.concatenate(covered)), np.sort(np.concatenate(blocks))
    )


class TestLevelMap:
    """The block maps, level by level from LEVEL_SPLIT_MIN_ROWS rows on,
    against the dense construction (tests/reference_impls.py)."""

    DT, N_SUB = 0.01 / 13, 13

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    def test_matches_dense_construction(self, topology, n):
        _, rhs = _damping_rhs(topology, n)
        _assert_maps_match_reference(rhs, rhs.conjugate_sectors()[0], self.DT, self.N_SUB)

    def test_matches_dense_construction_at_six_cells(self):
        _, rhs = _damping_rhs("all_to_all", 6)
        kept_blocks = rhs._kept_sectors()[0]
        assert max(len(idx) for idx in kept_blocks) == 924
        _assert_maps_match_reference(rhs, kept_blocks, self.DT, self.N_SUB)

    @pytest.mark.parametrize("n_sub", [1, 2, 3, 4, 7, 16])
    def test_every_power_matches(self, n_sub):
        # the square-and-multiply buffers for other substep counts
        _, rhs = _damping_rhs("nearest_neighbor", 5)
        large = [idx for idx in rhs.conjugate_sectors()[0] if len(idx) >= LEVEL_SPLIT_MIN_ROWS]
        assert len(large) == 3  # 252 and the two of 210
        _assert_maps_match_reference(rhs, large, 1e-3, n_sub)

    def test_small_blocks_are_bitwise_the_dense_construction(self):
        # below the cut-off the batched build does the dense construction's
        # arithmetic, so runs with small blocks keep their bytes
        _, rhs = _damping_rhs("local", 5)
        blocks = rhs.conjugate_sectors()[0]
        assert max(len(idx) for idx in blocks) < LEVEL_SPLIT_MIN_ROWS
        parts = rhs.sector_parts(blocks, self.DT, self.N_SUB)
        for idx, got in _maps_of_parts(parts):
            np.testing.assert_array_equal(np.sort(idx), idx)
            ref = ref_rk4_block_map(rhs.lmat, idx, self.DT, self.N_SUB)
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("topology", ["nearest_neighbor", "all_to_all"])
    def test_levels_are_excitation_pairs_at_six_cells(self, topology):
        # Excitation-conserving hopping: the block with ket-minus-bra
        # excitation difference d splits into the (m + d, m) pairs, of
        # binom(6, m + d) * binom(6, m) indices, the highest first.
        n = 6
        _, rhs = _damping_rhs(topology, n)
        for idx in rhs._kept_sectors()[0]:
            ordered, sizes = rhs.levels(idx)
            np.testing.assert_array_equal(np.sort(ordered), idx)
            ket, bra = _excitations(ordered, n)
            d = abs(int(ket[0]) - int(bra[0]))
            expected = [
                math.comb(n, m + d) * math.comb(n, m)
                for m in range(n - d, -1, -1)
            ]
            assert sizes.tolist() == expected
            offsets = np.concatenate(([0], np.cumsum(sizes)))
            for k, (lo, hi) in enumerate(zip(offsets[:-1], offsets[1:])):
                # one (ket, bra) pair per level, excitations falling
                pairs = set(zip(ket[lo:hi].tolist(), bra[lo:hi].tolist()))
                assert len(pairs) == 1
                ((a, b),) = pairs
                assert abs(a - b) == d
                assert min(a, b) == n - d - k

    def test_map_is_zero_above_the_level_diagonal(self):
        # the map is stored as the level row slabs M[lo:hi, :hi]; the dense
        # construction is exactly zero above them, and each slab below the
        # first level reaches into the levels before it
        _, rhs = _damping_rhs("all_to_all", 6)
        kept_blocks = rhs._kept_sectors()[0]
        split = 0
        parts = rhs.sector_parts(kept_blocks, self.DT, self.N_SUB)
        for idx, got in _maps_of_parts(parts):
            if len(idx) < LEVEL_SPLIT_MIN_ROWS:
                continue
            ordered, sizes = rhs.levels(np.sort(idx))
            np.testing.assert_array_equal(ordered, idx)
            assert len(sizes) > 1
            bounds = np.cumsum(sizes)
            assert [slab.shape for slab in got] == list(zip(sizes, bounds))
            ref = ref_rk4_block_map(rhs.lmat, idx, self.DT, self.N_SUB)
            for hi, slab in zip(bounds[:-1], got[1:]):
                assert np.all(ref[:hi, hi:] == 0)
                assert np.any(slab[:, :hi] != 0)
            split += 1
        assert split == 4  # 924, 792, 495 and 220 rows

    @pytest.mark.parametrize(
        "topology, n, kept, n_subs",
        [
            ("all_to_all", 6, True, [13]),
            ("nearest_neighbor", 5, False, [1, 2, 3, 4, 7, 13, 16]),
        ],
    )
    def test_slabs_are_bitwise_the_whole_matrix_build(
        self, topology, n, kept, n_subs
    ):
        # the in-place slab build does each level block's matmul on the
        # same operands as the whole-matrix build it replaced
        # (tests/reference_impls.py), so the stored slabs keep their bytes
        _, rhs = _damping_rhs(topology, n)
        blocks = rhs._kept_sectors()[0] if kept else rhs.conjugate_sectors()[0]
        large = [idx for idx in blocks if len(idx) >= LEVEL_SPLIT_MIN_ROWS]
        assert len(large) == (4 if kept else 3)
        dt = 0.01 / 13
        for n_sub in n_subs:
            for idx, got in _maps_of_parts(rhs.sector_parts(large, dt, n_sub)):
                ordered, sizes = rhs.levels(np.sort(idx))
                np.testing.assert_array_equal(ordered, idx)
                offsets = np.concatenate(([0], np.cumsum(sizes)))
                sub = dt * rhs.lmat[idx][:, idx]
                ref = ref_level_map(sub, n_sub, offsets)
                assert len(got) == len(sizes)
                for (lo, hi), slab in zip(_level_bounds(got), got):
                    assert np.array_equal(slab, ref[lo:hi, :hi])

    def test_non_conserving_heff_matches_dense_construction(self):
        # a sigma^x field breaks excitation conservation, so the sectors
        # merge and their levels are no longer excitation pairs
        n = 4
        spec = _spec(channel="amplitude_damping", topology="all_to_all")
        h_eff = _channel_heff("amplitude_damping", "all_to_all", n)
        h_eff = h_eff + 0.3 * ref_embed(SX, 0, n)
        rhs = make_rhs(h_eff, build_gamma(spec, n), "amplitude_damping")
        blocks = rhs.conjugate_sectors()[0]
        assert max(len(idx) for idx in blocks) >= LEVEL_SPLIT_MIN_ROWS
        _assert_maps_match_reference(rhs, blocks, self.DT, self.N_SUB)


def _level_slabs(step):
    """The 2-D complex arrays a per-sample map closes over: the row slabs
    of its level-split blocks."""
    return [a for a in _map_arrays(step) if a.ndim == 2 and np.iscomplexobj(a)]


class TestLowerLevelSlabs:
    """A level-split block's map is stored and applied up to its level
    diagonal only."""

    DT, N_SUB = 0.01 / 13, 13

    @pytest.mark.parametrize(
        "topology, n", [("nearest_neighbor", 5), ("all_to_all", 5), ("all_to_all", 6)]
    )
    def test_slabs_cover_the_lower_level_blocks(self, topology, n):
        _, rhs = _damping_rhs(topology, n)
        kept_blocks = rhs._kept_sectors()[0]
        step = rhs.sample_map(self.DT, self.N_SUB)
        expected = 0
        for idx in kept_blocks:
            if len(idx) >= LEVEL_SPLIT_MIN_ROWS:
                sizes = rhs.levels(idx)[1]
                expected += int(np.sum(sizes * np.cumsum(sizes)))
        assert expected > 0
        assert sum(a.size for a in _level_slabs(step)) == expected
        # no 3-D stack holds a level-split block
        stacks = [a for a in _map_arrays(step) if a.ndim == 3]
        assert max(m.shape[1] for m in stacks) < LEVEL_SPLIT_MIN_ROWS

    def test_apply_matches_the_whole_blocks(self):
        # the slabs give the product of the whole block maps within
        # round-off (the stored upper level blocks are exactly zero)
        n = 6
        _, rhs = _damping_rhs("all_to_all", n)
        kept_blocks, _, fill = rhs._kept_sectors()
        parts = rhs.sector_parts(kept_blocks, self.DT, self.N_SUB)
        step = rhs.sample_map(self.DT, self.N_SUB)
        rho = random_density_matrix(np.random.default_rng(12), 2**n)
        flat = rho.reshape(-1)
        expected = np.empty_like(flat)
        for idx, got in _maps_of_parts(parts):
            if isinstance(got, list):
                got = _levels_whole(got)
            expected[idx] = got @ flat[idx]
        expected[fill] = np.conj(expected[rhs.transpose[fill]])
        got = step(rho).reshape(-1)
        assert np.max(np.abs(got - expected)) <= 1e-15
        assert sum(a.nbytes for a in _level_slabs(step)) < 18 * 2**20

    def test_build_holds_one_whole_block(self):
        # fig7 all-to-all damping at N = 6 stores 18.0 MiB of slabs; the
        # build adds one whole 924-row block (13.0 MiB) and a row slab to
        # those, where it held three whole blocks (39.7 MiB at its peak)
        _, rhs = _damping_rhs("all_to_all", 6)
        tracemalloc.start()
        try:
            step = rhs.sample_map(self.DT, self.N_SUB)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rhs.propagation == "rk4_sample_map"
        assert peak < 30 * 2**20
        assert sum(a.nbytes for a in _level_slabs(step)) > 17 * 2**20


def _run(rho0, spec, n_samples=50, info=None):
    """Every sample of a run from rho0 with dt_sample = 0.01."""
    cfg = EvolutionConfig(t_max=0.01 * n_samples, dt_sample=0.01)
    return [rho for _, rho in evolve_stream(rho0, spec, cfg, info=info)]


class TestShiftReduction:
    """Ring and local damping from a T-invariant start propagate one value
    per orbit of the superoperator shift; every other run keeps vec(rho)."""

    ORBITS = {2: 10, 3: 24, 4: 70, 5: 208, 6: 700, 7: 2344}

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("topology", ["nearest_neighbor", "local"])
    def test_matches_the_full_path(self, topology, n):
        # the full path is reached by a start one ulp off T-invariance
        spec = _channel_spec("amplitude_damping", topology)
        rho0 = product_minus_state(n).astype(complex)
        reduced_info, full_info = {}, {}
        reduced = _run(rho0, spec, info=reduced_info)
        full = _run(_one_ulp_off_invariance(rho0), spec, info=full_info)
        assert reduced_info["shift_reduced"]
        assert reduced_info["propagated_values"] == self.ORBITS[n]
        assert not full_info["shift_reduced"]
        assert full_info["propagated_values"] == 4**n
        assert len(reduced) == len(full) == 51
        for a, b in zip(reduced, full):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
            assert _translation_symmetric(a)

    def test_orbit_counts(self):
        for n, count in self.ORBITS.items():
            orbits = evolution._pair_orbits(n)
            assert len(orbits.representatives) == count
            dim = 2**n
            # the orbits partition the vec indices, each orbit closed
            # under the shift and the transpose mapping orbits onto orbits
            np.testing.assert_array_equal(
                orbits.representatives[orbits.orbit_of][orbits.shift],
                orbits.representatives[orbits.orbit_of],
            )
            transposed = _transposed(np.arange(dim * dim), dim)
            np.testing.assert_array_equal(
                orbits.orbit_of[transposed], orbits.transpose[orbits.orbit_of]
            )

    def test_ring_run_at_seven_cells_is_translation_resolved(self):
        spec = _channel_spec("amplitude_damping", "nearest_neighbor")
        info = {}
        resolved = []
        cfg = EvolutionConfig(t_max=0.1, dt_sample=0.01)
        for _ in evolve_stream(product_minus_state(7), spec, cfg, info=info):
            resolved.append(info["check"].translation_resolved)
        assert info["propagation"] == "rk4_sample_map"
        assert info["shift_reduced"]
        assert resolved == [True] * 11

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_to_all_keeps_the_full_path(self, n):
        spec = _channel_spec("amplitude_damping", "all_to_all")
        info = {}
        _run(product_minus_state(n), spec, n_samples=2, info=info)
        assert not info["shift_reduced"]
        assert info["propagated_values"] == 4**n
        rhs = make_rhs(
            _spec_heff(spec, n), build_gamma(spec, n), "amplitude_damping",
            product_minus_state(n),
        )
        assert rhs.orbits is None

    def test_generator_one_ulp_off_keeps_the_full_path(self, monkeypatch):
        n = 4
        spec = _channel_spec("amplitude_damping", "nearest_neighbor")
        args = (_spec_heff(spec, n), build_gamma(spec, n), "amplitude_damping")
        rho0 = product_minus_state(n)
        assert make_rhs(*args, rho0).orbits is not None
        real_matrix = evolution._gksl_matrix

        def nudged_matrix(*matrix_args):
            lmat = real_matrix(*matrix_args)
            k = lmat.nnz // 2
            lmat.data[k] = np.nextafter(lmat.data[k].real, np.inf) + 1j * lmat.data[k].imag
            return lmat

        monkeypatch.setattr(evolution, "_gksl_matrix", nudged_matrix)
        assert make_rhs(*args, rho0).orbits is None
        info = {}
        _run(rho0, spec, n_samples=2, info=info)
        assert not info["shift_reduced"]

    def test_no_reduction_without_the_initial_state(self):
        _, rhs = _damping_rhs("nearest_neighbor", 4)
        assert rhs.orbits is None
        assert rhs.lmat.shape[0] == 256

    @pytest.mark.parametrize("topology", ["nearest_neighbor", "local"])
    def test_reduced_generator_is_exact_on_invariant_states(self, topology):
        n = 4
        spec = _channel_spec("amplitude_damping", topology)
        args = (_spec_heff(spec, n), build_gamma(spec, n), "amplitude_damping")
        full = make_rhs(*args)
        reduced = make_rhs(*args, product_minus_state(n))
        assert reduced.orbits is not None
        rho = _shift_symmetrized(random_density_matrix(np.random.default_rng(7), 16))
        np.testing.assert_allclose(reduced(rho), full(rho), rtol=0, atol=1e-15)

    def test_dephasing_keeps_the_hadamard_product(self):
        # a diagonal generator is never reduced
        info = {}
        _run(product_minus_state(4), _channel_spec("dephasing", "nearest_neighbor"),
             n_samples=2, info=info)
        assert not info["shift_reduced"]
        assert info["propagated_values"] == 256


class TestTimeGrid:
    def test_explicit_step_snaps_to_subdivision(self):
        cfg = EvolutionConfig(t_max=1.0, dt_sample=0.01, dt_internal=0.003)
        n_samples, n_sub = resolve_time_grid(cfg, _spec())
        assert n_samples == 100
        assert n_sub == 4  # 0.01 / 0.003 -> ceil(3.33) = 4

    def test_exact_subdivision_is_kept(self):
        cfg = EvolutionConfig(t_max=0.5, dt_sample=0.01, dt_internal=0.0025)
        assert resolve_time_grid(cfg, _spec()) == (50, 4)

    def test_default_step_uses_generator_scales(self):
        # Largest scale is j_z = 1.0 -> default step 1e-3 -> 10 substeps.
        spec = _spec(coupling=EffectiveCoupling(kind="ising_z", j_z=1.0))
        cfg = EvolutionConfig(t_max=1.0, dt_sample=0.01)
        assert resolve_time_grid(cfg, spec) == (100, 10)

    def test_default_step_helper(self):
        assert default_dt_internal(0.2, 0.01) == pytest.approx(1e-3 / 0.2)
        assert default_dt_internal() == pytest.approx(1e-3)
        assert default_dt_internal(0.0) == pytest.approx(1e-3)

    def test_config_guards(self):
        with pytest.raises(ValueError, match="t_max"):
            EvolutionConfig(t_max=0.0)
        with pytest.raises(ValueError, match="dt_sample"):
            EvolutionConfig(t_max=1.0, dt_sample=-0.1)
        with pytest.raises(ValueError, match="dt_internal"):
            EvolutionConfig(t_max=1.0, dt_sample=0.01, dt_internal=0.02)
        with pytest.raises(ValueError, match="t_max"):
            EvolutionConfig(t_max=math.nan)
        with pytest.raises(ValueError, match="dt_sample"):
            EvolutionConfig(t_max=1.0, dt_sample=math.nan)
        with pytest.raises(ValueError, match="dt_internal"):
            EvolutionConfig(t_max=1.0, dt_internal=math.nan)
        with pytest.raises(ValueError, match="samples"):
            EvolutionConfig(t_max=1e9, dt_sample=1e-3)

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"t_max": True, "dt_sample": 0.5}, "t_max"),
            ({"t_max": 1.0, "dt_sample": True}, "dt_sample"),
            ({"t_max": 2.0, "dt_sample": 1.0, "dt_internal": True}, "dt_internal"),
        ],
    )
    def test_config_refuses_bools(self, settings, field):
        # a bool is an int to Python but not a time
        with pytest.raises(ValueError, match=f"^{field}: "):
            EvolutionConfig(**settings)


class TestCheckState:
    def test_accepts_valid_state(self):
        check_state(product_minus_state(2), 0.0)
        _assert_check_matches_reference(product_minus_state(2), 0.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateInvariantError) as err:
            check_state(np.eye(2), 1.5)
        assert err.value.t == 1.5
        assert err.value.trace_drift >= 1.0
        assert err.value.passed == []
        _assert_check_matches_reference(np.eye(2), 1.5)

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateInvariantError):
            check_state(rho, 0.0)
        _assert_check_matches_reference(rho, 0.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 2.0)
        assert err.value.min_eig < -1e-8
        _assert_check_matches_reference(rho, 2.0)

    def test_returns_spectrum_of_hermitian_part_and_drifts(self):
        rng = np.random.default_rng(5)
        rho = random_density_matrix(rng, 8)
        # a skew part inside the hermiticity tolerance
        skew = 1j * np.diag(np.full(7, 1.0), k=1) * 0.1 * HERMITICITY_TOL
        rho = rho + skew
        record = check_state(rho, 0.3)
        assert isinstance(record, StateCheck)
        hermitian_part = 0.5 * (rho + rho.conj().T)
        np.testing.assert_array_equal(
            record.populations, np.linalg.eigvalsh(hermitian_part)
        )
        assert np.all(np.diff(record.populations) >= 0)
        assert record.min_eig == record.populations[0]
        trace = np.trace(rho)
        assert record.trace_drift == abs(trace.real - 1.0) + abs(trace.imag)
        assert record.herm_drift == float(np.max(np.abs(rho - rho.conj().T)))
        assert 0 < record.herm_drift < HERMITICITY_TOL
        _assert_check_matches_reference(rho, 0.3)

    def test_stream_records_each_samples_check_and_worst_margins(self):
        info = {}
        cfg = EvolutionConfig(t_max=0.5, dt_sample=0.1)
        records = []
        for t, rho in evolve_stream(
            product_minus_state(3), _spec(coupling=ISING), cfg, info=info
        ):
            record = info["check"]
            np.testing.assert_array_equal(
                record.populations, check_state(rho, t).populations
            )
            _assert_same_record(record, ref_check_state(rho, t))
            records.append(record)
        assert len(records) == 6
        assert info["invariant_margins"] == {
            "max_trace_drift": max(r.trace_drift for r in records),
            "max_herm_drift": max(r.herm_drift for r in records),
            "min_eigenvalue": min(r.min_eig for r in records),
        }

    def test_stream_raises_at_first_nonphysical_sample(self, monkeypatch):
        self._raise_at_third_sample(monkeypatch, 2)

    def test_stream_raises_at_first_nonphysical_translation_resolved_sample(
        self, monkeypatch
    ):
        self._raise_at_third_sample(monkeypatch, 7)

    @staticmethod
    def _raise_at_third_sample(monkeypatch, n):
        # The third propagated sample is replaced by a trace-one Hermitian
        # matrix with a negative eigenvalue: the samples before it are
        # yielded, it is not, and the error names its time.  The matrix is
        # diagonal with entries only on the shift-invariant |0...0> and
        # |1...1>, so at N = 7 every sample of the ring dephasing run,
        # the bad one included, is checked on its momentum blocks.
        dim = 2**n
        bad = np.zeros((dim, dim), dtype=complex)
        bad[0, 0], bad[-1, -1] = 1.5, -0.5
        real_make_rhs = evolution.make_rhs

        def make_faulty_rhs(*args):
            rhs = real_make_rhs(*args)
            real_map = rhs.sample_map

            def sample_map(dt, n_sub):
                step = real_map(dt, n_sub)
                calls = []

                def faulty(rho):
                    calls.append(None)
                    return bad.copy() if len(calls) == 3 else step(rho)

                return faulty

            rhs.sample_map = sample_map
            return rhs

        monkeypatch.setattr(evolution, "make_rhs", make_faulty_rhs)
        real_check = evolution.check_state
        resolved = []

        def recorded_check(rho, t):
            # one state or a stack of them: record each state the check
            # reached, up to and including the first invalid one
            states = rho.reshape(-1, *rho.shape[-2:])
            try:
                return real_check(rho, t)
            except StateInvariantError as exc:
                states = states[: len(exc.passed) + 1]
                raise
            finally:
                resolved.extend(
                    state.shape[0] == dim and _translation_symmetric(state)
                    for state in states
                )

        monkeypatch.setattr(evolution, "check_state", recorded_check)
        seen = []
        info = {}
        with pytest.raises(StateInvariantError) as err:
            for t, _ in evolve_stream(
                product_minus_state(n),
                _spec(coupling=ISING),
                EvolutionConfig(t_max=1.0, dt_sample=0.1),
                info=info,
            ):
                assert info["check"].translation_resolved == (
                    dim >= TRANSLATION_SPLIT_MIN_DIM
                )
                seen.append(t)
        assert seen == pytest.approx([0.0, 0.1, 0.2])
        assert resolved == [True] * 4
        assert err.value.t == pytest.approx(0.3)
        assert err.value.min_eig == pytest.approx(-0.5)


def _assert_same_record(a, b):
    """Two check_state records bitwise equal."""
    assert a.populations.tobytes() == b.populations.tobytes()
    assert (a.trace_drift, a.herm_drift) == (b.trace_drift, b.herm_drift)
    assert a.translation_resolved == b.translation_resolved
    assert (a.parity_blocks is None) == (b.parity_blocks is None)
    if a.parity_blocks is not None:
        assert a.parity_blocks.tobytes() == b.parity_blocks.tobytes()


def _assert_same_error(a, b):
    """Two StateInvariantErrors with the same time and measurements (a nan
    equal to a nan)."""
    assert a.t == b.t
    for field in ("trace_drift", "herm_drift", "min_eig"):
        got, expected = getattr(a, field), getattr(b, field)
        assert got == expected or (math.isnan(got) and math.isnan(expected))


def _assert_check_matches_reference(rho, t):
    """check_state(rho, t), on one state or a stack, against the former
    one-state check (ref_check_state) state by state: bitwise the same
    records, or the error of the first state the reference rejects, with
    the same fields and the records before it as `passed`."""
    states, times = (rho[None], [t]) if rho.ndim == 2 else (rho, t)
    expected, error = [], None
    for state, time_ in zip(states, times):
        try:
            expected.append(ref_check_state(state, time_))
        except StateInvariantError as err:
            error = err
            break
    try:
        got = check_state(rho, t)
    except StateInvariantError as err:
        assert error is not None
        _assert_same_error(err, error)
        got = err.passed
    else:
        assert error is None
        if rho.ndim == 2:
            got = [got]
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        _assert_same_record(a, b)


def _faulty_make_rhs(bad, position):
    """make_rhs whose per-sample map returns `bad` on its position-th call
    (the sample at t = position dt_sample) and propagates otherwise."""
    real_make_rhs = evolution.make_rhs

    def make_faulty_rhs(*args):
        rhs = real_make_rhs(*args)
        real_map = rhs.sample_map

        def sample_map(dt, n_sub):
            step = real_map(dt, n_sub)
            calls = []

            def faulty(rho):
                calls.append(None)
                return bad.copy() if len(calls) == position else step(rho)

            return faulty

        rhs.sample_map = sample_map
        return rhs

    return make_faulty_rhs


class TestStackedCheck:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_matches_one_state_calls(self, n):
        rng = np.random.default_rng(300 + n)
        dim = 2**n
        states = []
        for k in range(6):
            rho = random_density_matrix(rng, dim)
            # a skew part inside the hermiticity tolerance on some states
            if k % 3 == 0:
                rho = rho + 0.01j * HERMITICITY_TOL * random_hermitian(rng, dim)
            states.append(_flip_invariant(rho) if k % 2 else rho)
        stack = np.array(states)
        times = [0.1 * k for k in range(6)]
        checks = check_state(stack, times)
        assert len(checks) == 6
        for rho, t, record in zip(stack, times, checks):
            _assert_same_record(record, check_state(rho, t))
            _assert_check_matches_reference(rho, t)
        assert [c.parity_blocks is not None for c in checks] == [False, True] * 3
        _assert_check_matches_reference(stack, times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("first_bad", ["non-finite", "negative"])
    def test_raises_at_the_first_bad_state(self, value, first_bad):
        rng = np.random.default_rng(41)
        good = [random_density_matrix(rng, 8) for _ in range(5)]
        good[1] = _flip_invariant(good[1])
        non_finite = good[0].copy()
        non_finite[2, 3] = value
        negative = np.diag([1.5, -0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        bad = [non_finite, negative]
        if first_bad == "negative":
            bad.reverse()
        stack = np.array(good[:3] + [bad[0], good[3], bad[1], good[4]])
        times = [0.1 * k for k in range(7)]
        with pytest.raises(StateInvariantError) as err:
            check_state(stack, times)
        with pytest.raises(StateInvariantError) as alone:
            check_state(stack[3], times[3])
        assert err.value.t == times[3]
        for field in ("trace_drift", "herm_drift", "min_eig"):
            got, expected = getattr(err.value, field), getattr(alone.value, field)
            assert got == expected or (math.isnan(got) and math.isnan(expected))
        assert len(err.value.passed) == 3
        for rho, t, record in zip(stack, times, err.value.passed):
            _assert_same_record(record, check_state(rho, t))
        assert alone.value.passed == []
        _assert_check_matches_reference(stack, times)
        for rho, t in zip(stack, times):
            _assert_check_matches_reference(rho, t)

    def test_large_states_are_checked_as_one_stack(self, monkeypatch):
        # the translation test and the momentum path take the T-invariant
        # states of a stack together, and the others go their own way:
        # one momentum-block gather and one eigvalsh per block size for
        # the two ring states, one full eigvalsh for the other state
        calls = []
        real_spectrum = evolution._momentum_spectrum

        def counted_spectrum(states):
            calls.append(len(states))
            return real_spectrum(states)

        monkeypatch.setattr(evolution, "_momentum_spectrum", counted_spectrum)
        rng = np.random.default_rng(43)
        ring = _dephasing_state("nearest_neighbor", 7)
        other = random_density_matrix(rng, 128)
        negative = np.diag(np.r_[1.5, -0.5, np.zeros(126)]).astype(complex)
        stack = np.array([ring, other, ring, negative, ring])
        times = [0.1 * k for k in range(5)]
        calls.clear()
        checks = check_state(stack[:3], times[:3])
        assert [c.translation_resolved for c in checks] == [True, False, True]
        assert calls == [2]
        for rho, t, record in zip(stack, times, checks):
            _assert_same_record(record, check_state(rho, t))
        with pytest.raises(StateInvariantError) as err:
            check_state(stack, times)
        assert err.value.t == times[3]
        assert err.value.min_eig == pytest.approx(-0.5)
        assert len(err.value.passed) == 3
        _assert_check_matches_reference(stack, times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("first_bad", ["orbit", "entry", "negative"])
    @pytest.mark.parametrize("n", [7, 8])
    def test_large_mixed_stack_matches_reference(self, n, first_bad, value):
        # several states of 128 or 256 rows in one call: momentum blocks
        # (a T-resolved state takes no parity blocks, flip-invariant or
        # not), parity blocks alone, the full eigvalsh, and three invalid
        # states, whose order sets the first
        # one: a non-finite entry set on its whole orbit under T (an inf
        # keeps the state T-invariant, a nan does not), one non-finite
        # entry, and a T-invariant state with a negative eigenvalue
        rng = np.random.default_rng(50 + n)
        dim = 2**n
        ring = _dephasing_state("nearest_neighbor", n)
        shifted = _shift_symmetrized(random_density_matrix(rng, dim))
        parity = _flip_invariant(random_density_matrix(rng, dim))
        full = random_density_matrix(rng, dim)
        orbit = shifted.copy()
        a, b, shift = 3, 5, _shift(n)
        for _ in range(n):
            orbit[a, b] = value
            a, b = shift[a], shift[b]
        entry = full.copy()
        entry[2, 7] = value
        negative = np.zeros((dim, dim), dtype=complex)
        negative[0, 0], negative[-1, -1] = 1.5, -0.5
        bad = {"orbit": orbit, "entry": entry, "negative": negative}
        order = [first_bad] + [k for k in bad if k != first_bad]
        good = [ring, shifted, parity, full]
        stack = np.array(good + [bad[order[0]], ring, bad[order[1]], bad[order[2]]])
        times = [0.1 * k for k in range(len(stack))]
        checks = check_state(stack[:4], times[:4])
        assert [c.translation_resolved for c in checks] == [True, True, False, False]
        assert [c.parity_blocks is not None for c in checks] == [
            False, False, True, False
        ]
        _assert_check_matches_reference(stack[:4], times[:4])
        with pytest.raises(StateInvariantError) as err:
            check_state(stack, times)
        assert err.value.t == times[4]
        assert len(err.value.passed) == 4
        _assert_check_matches_reference(stack, times)
        for rho, t in zip(stack, times):
            _assert_check_matches_reference(rho, t)

    @pytest.mark.parametrize("position", [1, 5, 6, 8])
    def test_stream_raises_at_bad_sample_in_a_chunk(self, position, monkeypatch):
        # chunks of four states: samples 1-4, 5-8 and 9-12; the bad state
        # is the first (1, 5), a middle (6) or the last (8) of its chunk
        n, dim = 3, 8
        monkeypatch.setattr(evolution, "CHECK_CHUNK_BYTES", 4 * 16 * dim * dim)
        bad = np.zeros((dim, dim), dtype=complex)
        bad[0, 0], bad[-1, -1] = 1.5, -0.5
        monkeypatch.setattr(evolution, "make_rhs", _faulty_make_rhs(bad, position))
        seen = []
        info = {}
        with pytest.raises(StateInvariantError) as err:
            for t, rho in evolve_stream(
                product_minus_state(n),
                _spec(coupling=ISING),
                EvolutionConfig(t_max=1.2, dt_sample=0.1),
                info=info,
            ):
                _assert_same_record(info["check"], ref_check_state(rho, t))
                assert len(info["chunk"].times) <= 4
                seen.append(t)
        assert seen == pytest.approx([0.1 * k for k in range(position)])
        assert err.value.t == pytest.approx(0.1 * position)
        assert err.value.min_eig == pytest.approx(-0.5)
        assert info["invariant_margins"]["min_eigenvalue"] >= MIN_EIGENVALUE_TOL

    def test_stream_chunks_cover_the_samples_in_order(self, monkeypatch):
        n, dim = 3, 8
        monkeypatch.setattr(evolution, "CHECK_CHUNK_BYTES", 4 * 16 * dim * dim)
        info = {}
        chunks, samples = [], []
        for t, rho in evolve_stream(
            product_minus_state(n), _spec(coupling=ISING),
            EvolutionConfig(t_max=1.0, dt_sample=0.1), info=info,
        ):
            if not chunks or info["chunk"] is not chunks[-1]:
                chunks.append(info["chunk"])
            samples.append((t, rho))
        assert [len(c.times) for c in chunks] == [1, 4, 4, 2]
        flat = [(t, s) for c in chunks for t, s in zip(c.times, c.states)]
        assert [t for t, _ in flat] == [t for t, _ in samples]
        for (_, a), (_, b) in zip(flat, samples):
            assert a is b or np.shares_memory(a, b)


def _flip_invariant(rho):
    """0.5 (rho + P rho P) for the global spin flip P, exactly invariant:
    entries (a, b) and (dim-1-a, dim-1-b) add the same two numbers."""
    return 0.5 * (rho + rho[::-1, ::-1])


def _parity_vectors(dim):
    """Columns (|a> + |dim-1-a>) / sqrt(2) and (|a> - |dim-1-a>) / sqrt(2),
    a < dim / 2: orthonormal bases of the even and odd flip sectors."""
    eye = np.eye(dim)
    h = dim // 2
    return (
        (eye[:, :h] + eye[:, ::-1][:, :h]) / np.sqrt(2.0),
        (eye[:, :h] - eye[:, ::-1][:, :h]) / np.sqrt(2.0),
    )


class TestParityCheck:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_spectrum_matches_full_eigvalsh(self, n):
        rng = np.random.default_rng(100 + n)
        dim = 2**n
        rho = _flip_invariant(random_density_matrix(rng, dim))
        # an invariant skew part inside the hermiticity tolerance
        skew = 1j * _flip_invariant(random_hermitian(rng, dim))
        rho = rho + 0.01 * HERMITICITY_TOL * skew
        record = check_state(rho, 0.0)
        assert record.parity_blocks is not None
        assert record.parity_blocks.shape == (2, dim // 2, dim // 2)
        full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        np.testing.assert_allclose(record.populations, full, rtol=0, atol=1e-13)
        assert np.all(np.diff(record.populations) >= 0)
        _assert_check_matches_reference(rho, 0.0)

    def test_blocks_are_the_parity_sectors(self):
        rho = _flip_invariant(random_density_matrix(np.random.default_rng(4), 8))
        even, odd = _parity_vectors(8)
        blocks = check_state(rho, 0.0).parity_blocks
        _assert_check_matches_reference(rho, 0.0)
        np.testing.assert_allclose(blocks[0], even.T @ rho @ even, atol=1e-15)
        np.testing.assert_allclose(blocks[1], odd.T @ rho @ odd, atol=1e-15)
        np.testing.assert_allclose(even.T @ rho @ odd, 0.0, atol=1e-15)

    def test_negative_eigenvalue_in_odd_block_is_caught(self):
        # rho = E A E^T + O B O^T over the even and odd parity vectors, with
        # A positive and B holding the only negative eigenvalue.
        rng = np.random.default_rng(8)
        even, odd = _parity_vectors(8)
        a_block = 0.8 * random_density_matrix(rng, 4)
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        b_block = q @ np.diag([-0.01, 0.05, 0.06, 0.1]) @ q.T
        rho = _flip_invariant(even @ a_block @ even.T + odd @ b_block @ odd.T)
        assert np.linalg.eigvalsh(even.T @ rho @ even)[0] > 0
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 0.7)
        assert err.value.t == 0.7
        assert err.value.min_eig == pytest.approx(-0.01, abs=1e-12)
        _assert_check_matches_reference(rho, 0.7)

    def test_one_ulp_off_invariance_takes_full_path(self):
        rho = _flip_invariant(random_density_matrix(np.random.default_rng(6), 16))
        assert check_state(rho, 0.0).parity_blocks is not None
        rho[2, 5] = np.nextafter(rho[2, 5].real, np.inf) + 1j * rho[2, 5].imag
        record = check_state(rho, 0.0)
        assert record.parity_blocks is None
        np.testing.assert_array_equal(
            record.populations, np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        )
        _assert_check_matches_reference(rho, 0.0)

    def test_dephasing_stream_is_parity_resolved(self):
        # every dephasing sample from |->^N is resolved by one of the two
        # symmetries: the T-invariant ones (every ring and local sample, and
        # the all-to-all t = 0 one) by the momentum blocks, with no parity
        # blocks, and the others by the parity blocks
        info = {}
        cfg = EvolutionConfig(t_max=0.5, dt_sample=0.1)
        for topology in ("nearest_neighbor", "all_to_all", "local"):
            resolved = []
            for _ in evolve_stream(
                product_minus_state(4), _channel_spec("dephasing", topology),
                cfg, info=info,
            ):
                check = info["check"]
                assert (check.parity_blocks is None) == check.translation_resolved
                resolved.append(check.translation_resolved)
            all_to_all = topology == "all_to_all"
            assert resolved == [True] + [not all_to_all] * 5


def _shift(n):
    """Index map of the cyclic site shift T on n cells (site 0 the top
    bit): T moves site i to i + 1, a left rotation of the bits."""
    dim = 2**n
    index = np.arange(dim)
    return ((index << 1) & (dim - 1)) | (index >> (n - 1))


def _translation_symmetric(rho):
    """T rho T^dag == rho bit for bit, by index arrays."""
    shift = _shift(int(rho.shape[0]).bit_length() - 1)
    return bool((rho[np.ix_(shift, shift)] == rho).all())


def _one_ulp_off_invariance(rho):
    """rho with its diagonal entry at basis state |0...01> one ulp larger:
    a valid state within round-off, no longer T-invariant (T moves that
    basis state at every N >= 2)."""
    rho = rho.copy()
    rho[1, 1] = np.nextafter(rho[1, 1].real, np.inf)
    return rho


def _shift_symmetrized(matrix):
    """`matrix` averaged over T, then each entry taken from its pair
    orbit's smallest row-major index, so the result commutes with T bit
    for bit and is within round-off of the average."""
    dim = matrix.shape[0]
    n = dim.bit_length() - 1
    shift = _shift(n)
    a, b = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    average = np.zeros_like(matrix)
    code = a * dim + b
    for _ in range(n):
        average += matrix[a, b]
        a, b = shift[a], shift[b]
        code = np.minimum(code, a * dim + b)
    return (average / n).reshape(-1)[code]


def _dephasing_state(topology, n, t_max=0.3):
    """The last sample of a dephasing run from |->^N over t_max."""
    for _, rho in evolve_stream(
        product_minus_state(n), _channel_spec("dephasing", topology),
        EvolutionConfig(t_max=t_max, dt_sample=0.1),
    ):
        pass
    return rho


class TestTranslationCheck:
    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("topology", ["nearest_neighbor", "local"])
    def test_dephasing_spectrum_matches_full_eigvalsh(self, topology, n):
        rho = _dephasing_state(topology, n)
        assert _translation_symmetric(rho)
        record = check_state(rho, 0.3)
        assert record.translation_resolved
        full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        np.testing.assert_allclose(record.populations, full, rtol=0, atol=1e-12)
        assert np.all(np.diff(record.populations) >= 0)
        # the drifts read only the representative rows but are the
        # whole-matrix values; the state is flip-invariant too, but a
        # T-resolved state takes no parity blocks
        assert record.herm_drift == float(np.max(np.abs(rho - rho.conj().T)))
        assert ref_parity_blocks(rho) is not None
        assert record.parity_blocks is None
        _assert_check_matches_reference(rho, 0.3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_helper_matches_full_eigvalsh(self, n):
        rng = np.random.default_rng(300 + n)
        dim = 2**n
        rho = _shift_symmetrized(random_density_matrix(rng, dim))
        # an invariant skew part inside the hermiticity tolerance
        rho = rho + 0.01 * HERMITICITY_TOL * 1j * _shift_symmetrized(
            random_hermitian(rng, dim)
        )
        assert _translation_symmetric(rho)
        full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        np.testing.assert_allclose(_momentum_spectrum(rho), full, atol=1e-12)
        for topology in ("nearest_neighbor", "local"):
            state = _dephasing_state(topology, n)
            np.testing.assert_allclose(
                _momentum_spectrum(state),
                np.linalg.eigvalsh(0.5 * (state + state.conj().T)),
                rtol=0,
                atol=1e-12,
            )

    @pytest.mark.parametrize("n", range(1, 10))
    def test_orbit_tables(self, n):
        orbits = _orbits(n)
        dim = 2**n
        shift = _shift(n)
        np.testing.assert_array_equal(orbits.shift, shift)
        # the orbit columns partition the basis, one column per orbit
        covered = np.unique(orbits.orbit_columns)
        np.testing.assert_array_equal(covered, np.arange(dim))
        np.testing.assert_array_equal(
            orbits.orbit_columns[0], orbits.representatives
        )
        # the momentum blocks hold dim states in all
        sizes = sum(
            admitted.size for _, admitted, _ in orbits.momentum_stacks
        )
        assert sizes == dim

    def test_negative_eigenvalue_in_a_momentum_block_is_caught(self):
        # a T-invariant state with a negative eigenvalue on a momentum
        # k = 1 state of the orbit of |0...01>
        n = 7
        dim = 2**n
        shift = _shift(n)
        vector = np.zeros(dim, dtype=complex)
        a = 1
        for j in range(n):
            vector[a] = np.exp(-2j * np.pi * j / n) / np.sqrt(n)
            a = shift[a]
        rho = random_density_matrix(np.random.default_rng(9), dim)
        rho = _shift_symmetrized(rho - 0.05 * np.outer(vector, vector.conj()))
        full = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        assert full[0] < MIN_EIGENVALUE_TOL
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 0.6)
        assert err.value.t == 0.6
        assert err.value.min_eig == pytest.approx(full[0], abs=1e-12)
        _assert_check_matches_reference(rho, 0.6)

    @pytest.mark.parametrize("keep_flip", [False, True])
    def test_one_ulp_off_invariance_falls_back(self, keep_flip):
        # one Hermitian pair of entries, away from row 0, moved by one ulp
        # (and its flip image too, so that the parity path stays open)
        rho = _dephasing_state("nearest_neighbor", 7)
        reference = check_state(rho, 0.0)
        assert reference.translation_resolved
        dim = rho.shape[0]
        pairs = [(3, 5)]
        if keep_flip:
            pairs.append((dim - 4, dim - 6))
        for i, j in pairs:
            rho[i, j] = np.nextafter(rho[i, j].real, np.inf) + 1j * rho[i, j].imag
            rho[j, i] = rho[i, j].conj()
        assert not _translation_symmetric(rho)
        record = check_state(rho, 0.0)
        assert not record.translation_resolved
        assert (record.parity_blocks is not None) == keep_flip
        _assert_check_matches_reference(rho, 0.0)
        assert record.min_eig == pytest.approx(reference.min_eig, abs=1e-12)
        np.testing.assert_allclose(
            record.populations, reference.populations, rtol=0, atol=1e-12
        )
        if not keep_flip:
            np.testing.assert_array_equal(
                record.populations,
                np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)),
            )

    def test_cut_off(self):
        # below TRANSLATION_SPLIT_MIN_DIM (N = 2) an invariant state takes
        # the parity blocks, from it (N = 3) the momentum blocks
        assert TRANSLATION_SPLIT_MIN_DIM == 8
        for n, resolved in ((2, False), (3, True)):
            rho = _dephasing_state("nearest_neighbor", n)
            assert _translation_symmetric(rho)
            record = check_state(rho, 0.0)
            assert record.translation_resolved == resolved
            assert (record.parity_blocks is not None) == (not resolved)
            _assert_check_matches_reference(rho, 0.0)

    def test_all_to_all_dephasing_is_not_resolved_after_t0(self):
        info = {}
        resolved = []
        spec = _spec(
            topology="all_to_all",
            coupling=EffectiveCoupling(
                kind="ising_z", j_z=1.0, interaction_range="all_to_all"
            ),
        )
        for _ in evolve_stream(
            product_minus_state(7), spec,
            EvolutionConfig(t_max=0.3, dt_sample=0.1), info=info,
        ):
            resolved.append(info["check"].translation_resolved)
        # |->^N itself is invariant; the complex cross rates break T after it
        assert resolved == [True, False, False, False]

    @pytest.mark.parametrize("invariant_start", [True, False])
    def test_ring_damping_is_resolved_on_the_reduced_path(self, invariant_start):
        # a ring damping run from an exactly T-invariant start propagates
        # the orbit values, so every sample is exactly invariant; from a
        # start one ulp off invariance it keeps the full path, and its
        # samples after t = 0 are off by round-off.
        info = {}
        resolved = []
        spec = _spec(
            channel="amplitude_damping",
            coupling=EffectiveCoupling(kind="xx_dm", j_xx=1.2, d_dm=0.2),
        )
        rho0 = product_minus_state(4).astype(complex)
        if not invariant_start:
            rho0 = _one_ulp_off_invariance(rho0)
        for _, rho in evolve_stream(
            rho0, spec, EvolutionConfig(t_max=0.5, dt_sample=0.1), info=info,
        ):
            resolved.append(info["check"].translation_resolved)
            assert resolved[-1] == _translation_symmetric(rho)
        assert info["shift_reduced"] == invariant_start
        assert resolved == [invariant_start] * 6


class TestHermDrift:
    @pytest.mark.parametrize("dim", [1, 2, 8, 63, 64, 65, 128, 200, 512])
    def test_slabs_equal_whole_matrix_bitwise(self, dim):
        rng = np.random.default_rng(dim)
        states, whole = [], []
        for scale in (1.0, 1e-12):
            rho = random_hermitian(rng, dim) + scale * (
                rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            )
            whole.append(float(np.max(np.abs(rho - rho.conj().T))))
            assert _herm_drift(rho) == whole[-1]
            states.append(rho)
        # a stack gives each state's value
        assert _herm_drift(np.array(states)).tolist() == whole

    @pytest.mark.parametrize("dim", [2, 8, 64, 128, 256, 512])
    def test_flip_invariant_half_rows_equal_whole_matrix_bitwise(self, dim):
        # P maps every value of |rho - rho^dag| outside the rows a < dim/2
        # onto one inside them, bit for bit
        rng = np.random.default_rng(60 + dim)
        states, whole = [], []
        for scale in (1.0, 1e-12):
            rho = _flip_invariant(
                random_hermitian(rng, dim)
                + scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            )
            whole.append(float(np.max(np.abs(rho - rho.conj().T))))
            assert _herm_drift(rho, flipped=True) == whole[-1]
            states.append(rho)
        assert _herm_drift(np.array(states), flipped=True).tolist() == whole

    @pytest.mark.parametrize("n", [3, 5, 7, 8])
    def test_representative_rows_equal_whole_matrix_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        dim = 2**n
        rho = _shift_symmetrized(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        assert _translation_symmetric(rho)
        rows = _orbits(n).representatives
        assert _herm_drift(rho, rows) == float(
            np.max(np.abs(rho - rho.conj().T))
        )


class TestNonFiniteStates:
    # the check measures the drift of a non-finite state without a warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "index, value",
        [
            ((1, 1), np.nan),                  # diagonal nan
            ((0, 2), complex(0.1, np.nan)),    # off-diagonal nan
            ((3, 0), np.inf),                  # inf entry
            ((2, 2), complex(0.25, -np.inf)),  # inf on the diagonal
        ],
    )
    @pytest.mark.parametrize("invariant", [False, True])
    def test_rejected_with_state_invariant_error(self, index, value, invariant):
        # invariant: the entry and its flip image both set, so that an inf
        # state stays exactly flip-invariant (a nan never equals itself)
        rho = random_density_matrix(np.random.default_rng(2), 4)
        if invariant:
            rho = _flip_invariant(rho)
            rho[3 - index[0], 3 - index[1]] = value
        rho[index] = value
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 0.4)
        assert err.value.t == 0.4

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "index, value",
        [
            ((1, 1), np.nan),
            ((3, 5), complex(0.1, np.nan)),
            ((5, 3), np.inf),
            ((2, 2), complex(0.25, -np.inf)),
            ((0, 6), -np.inf),
        ],
    )
    def test_translation_invariant_state_rejected(self, index, value):
        # the entry is set on its whole orbit under T, so that an inf state
        # stays exactly T-invariant at a size that takes the momentum path
        n = 7
        shift = _shift(n)
        rho = _shift_symmetrized(
            random_density_matrix(np.random.default_rng(3), 2**n)
        )
        a, b = index
        for _ in range(n):
            rho[a, b] = value
            a, b = shift[a], shift[b]
        assert _translation_symmetric(rho) == (value == value)
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 0.5)
        assert err.value.t == 0.5
        assert not math.isfinite(err.value.herm_drift)


class TestEvolve:
    @pytest.mark.parametrize(
        "channel, coupling",
        [("dephasing", ISING), ("dephasing", HOPPING),
         ("amplitude_damping", HOPPING)],
    )
    def test_matches_exponential_propagator(self, channel, coupling):
        # Fixed-step RK4 against the exact propagator exp(L dt_sample) of a
        # dense generator assembled from the literal right-hand side, three
        # cells.
        n = 3
        spec = _spec(channel=channel, coupling=coupling)
        cfg = EvolutionConfig(t_max=1.0, dt_sample=0.1)
        rho0 = product_minus_state(n)
        series = evolve(rho0, spec, cfg)
        lmat = ref_generator_matrix(
            _spec_heff(spec, n),
            build_gamma(spec, n).matrix,
            ref_jumps(channel, n),
        )
        propagator = scipy.linalg.expm(lmat * cfg.dt_sample)
        assert len(series) == 11
        exact = rho0.reshape(-1).astype(complex)
        for k, (t, rho) in enumerate(series):
            assert t == pytest.approx(k * cfg.dt_sample, abs=1e-12)
            np.testing.assert_allclose(rho.reshape(-1), exact, atol=1e-9)
            exact = propagator @ exact

    @pytest.mark.parametrize(
        "channel, coupling, n",
        [("amplitude_damping", HOPPING, 2), ("dephasing", HOPPING, 3)],
    )
    def test_matches_adaptive_reference_integration(self, channel, coupling, n):
        spec = _spec(channel=channel, coupling=coupling)
        cfg = EvolutionConfig(t_max=2.0, dt_sample=0.5)
        rho0 = product_minus_state(n)
        series = evolve(rho0, spec, cfg)
        ts = np.array([t for t, _ in series])
        reference = solve_master_ivp(
            _spec_heff(spec, n),
            build_gamma(spec, n).matrix,
            ref_jumps(channel, n),
            rho0,
            ts,
        )
        for (_, rho), rho_ref in zip(series, reference):
            np.testing.assert_allclose(rho, rho_ref, atol=1e-8)

    def test_heff_comes_from_the_spec(self):
        # the open pair and the wrapped ring differ only in spec.periodic;
        # each run follows its own bonds
        n = 2
        cfg = EvolutionConfig(t_max=1.0, dt_sample=0.5)
        for periodic in (True, False):
            spec = _spec(coupling=HOPPING, periodic=periodic)
            series = evolve(product_minus_state(n), spec, cfg)
            h_eff = effective_hamiltonian(HOPPING, n, periodic=periodic)
            reference = solve_master_ivp(
                h_eff,
                build_gamma(spec, n).matrix,
                ref_jumps("dephasing", n),
                product_minus_state(n),
                np.array([t for t, _ in series]),
            )
            for (_, rho), rho_ref in zip(series, reference):
                np.testing.assert_allclose(rho, rho_ref, atol=1e-8)

    def test_stream_and_list_forms_agree(self):
        spec = _spec(coupling=ISING)
        cfg = EvolutionConfig(t_max=0.3, dt_sample=0.1)
        rho0 = product_minus_state(2)
        streamed = list(evolve_stream(rho0, spec, cfg))
        collected = evolve(rho0, spec, cfg)
        assert len(streamed) == len(collected)
        for (t1, r1), (t2, r2) in zip(streamed, collected):
            assert t1 == t2
            np.testing.assert_array_equal(r1, r2)

    def test_refuses_invalid_rate_matrix(self):
        spec = _spec(gamma=0.01, offdiag=0.02, coupling=ISING)
        with pytest.raises(CptpViolationError):
            evolve(product_minus_state(2), spec, EvolutionConfig(t_max=0.1))

    def test_refuses_invalid_initial_state(self):
        with pytest.raises(StateInvariantError):
            evolve(
                np.eye(4, dtype=complex),  # trace 4
                _spec(coupling=ISING),
                EvolutionConfig(t_max=0.1),
            )

    def test_refuses_non_power_of_two_state(self):
        rho = np.eye(3) / 3
        with pytest.raises(ValueError, match="2\\^N"):
            evolve(rho, _spec(), EvolutionConfig(t_max=0.1))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("shape", [(0, 0), (), (3, 3), (2, 4), (2, 2, 2)])
    def test_stream_refuses_a_bad_state_shape(self, shape):
        stream = evolve_stream(np.zeros(shape), _spec(), EvolutionConfig(t_max=0.1))
        with pytest.raises(ValueError, match=r"state shape .* is not a 2\^N square"):
            next(stream)

    def test_dephasing_keeps_populations_frozen(self):
        # sigma^z jumps commute with every z-basis projector, so the
        # diagonal of rho never moves.
        series = evolve(
            product_minus_state(2),
            _spec(coupling=ISING),
            EvolutionConfig(t_max=1.0, dt_sample=0.25),
        )
        diag0 = np.diag(series[0][1])
        for _, rho in series:
            np.testing.assert_allclose(np.diag(rho), diag0, atol=1e-12)

    def test_damping_drains_into_all_down(self):
        # Slowest mode is the coherence envelope e^{-gamma t / 2}, so at
        # t = 60 with gamma = 1 every entry is within ~1e-13 of the dark
        # state with all cells down.
        spec = _spec(channel="amplitude_damping", topology="local", gamma=1.0)
        series = evolve(
            product_minus_state(2),
            spec,
            EvolutionConfig(t_max=60.0, dt_sample=2.0),
        )
        rho_end = series[-1][1]
        expected = np.zeros((4, 4), dtype=complex)
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho_end, expected, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        channel=st.sampled_from(["dephasing", "amplitude_damping"]),
    )
    def test_trace_and_hermiticity_preserved(self, seed, channel):
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 0.5))
        mod = float(rng.uniform(0.0, gamma / 2.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        spec = _spec(
            channel=channel,
            gamma=gamma,
            offdiag=mod * np.exp(1j * phase),
            coupling=ISING if channel == "dephasing" else HOPPING,
        )
        series = evolve(
            random_density_matrix(rng, 4),
            spec,
            EvolutionConfig(t_max=0.2, dt_sample=0.1),
        )
        for _, rho in series:
            assert abs(np.trace(rho) - 1.0) < 1e-12
            np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)


class TestSteadyStateProbe:
    def test_converged_on_flat_tail(self):
        rho = product_minus_state(1)
        series = [(float(t), rho.copy()) for t in range(10)]
        report = steady_state_probe(series, window=3.0)
        assert report.converged
        assert report.deviation == (0.0, 0.0)
        assert report.window == 3.0

    def test_one_sample_window_is_not_converged(self):
        rho = product_minus_state(1)
        series = [(float(t), rho.copy()) for t in range(10)]
        assert not steady_state_probe(series, window=0.5).converged
        assert not steady_state_probe(series[:1], window=3.0).converged

    def test_not_converged_while_moving(self):
        series = [
            (float(t), np.diag([1.0 - 0.05 * t, 0.05 * t]).astype(complex))
            for t in range(10)
        ]
        assert not steady_state_probe(series, window=3.0).converged

    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            steady_state_probe([], window=1.0)


BASE = np.array([[0.5, 0.25 - 0.125j], [0.25 + 0.125j, 0.5]])


def _series(deltas, n_samples):
    """n_samples + 1 states BASE, with deltas[k] added to entry (0, 1) of
    sample k (counted from the end when negative)."""
    states = np.repeat(BASE[None], n_samples + 1, axis=0)
    for k, delta in deltas.items():
        states[k, 0, 1] += delta
    return states


def _window_decision(states, window, dt, chunk):
    """(report, indices of the states the replay stepped to) of
    _SteadyWindow on the states, added `chunk` at a time.  The replay's
    step hands out the next state of the series and checks that it was
    given the previous one."""
    steady = evolution._SteadyWindow(window, dt, len(states) - 1)
    for first in range(0, len(states), chunk):
        steady.add(first, states[first:first + chunk])
    replayed = []

    def step(rho):
        k = steady.first + len(replayed)
        assert np.array_equal(rho, states[k])
        replayed.append(k + 1)
        return states[k + 1].copy()

    return steady.decide(states[-1], step), replayed


def _probe(states, window, dt):
    """The list probe on the last round(window / dt) + 1 samples."""
    series = [(k * dt, rho) for k, rho in enumerate(states)]
    return steady_state_probe(series[-(int(round(window / dt)) + 1):], window)


class TestSteadyWindow:
    """evolve_stream's running-bounds decision against the list probe."""

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    @pytest.mark.parametrize(
        "deltas, converged, exact",
        [
            # hypot(0.5, 0.5) e-6 < tol: the upper bound decides
            ({-3: 0.5e-6, -5: 0.5e-6j}, True, False),
            # a real gap of 2e-6 alone: the lower bound decides
            ({-4: 2e-6, -6: -0.3e-6j}, False, False),
            # real and imaginary gaps of 0.75e-6 at different samples: the
            # bounds are 0.75e-6 and 1.06e-6, and the maximum is 0.75e-6
            ({-3: 0.75e-6, -7: -0.75e-6j}, True, True),
            # the same gaps at one sample: the maximum is 1.06e-6
            ({-5: 0.75e-6 - 0.75e-6j}, False, True),
        ],
    )
    def test_outcomes_match_the_probe(self, deltas, converged, exact, chunk):
        states = _series(deltas, 100)
        report, replayed = _window_decision(states, 1.0, 0.1, chunk)
        reference = _probe(states, 1.0, 0.1)
        assert report.converged == reference.converged == converged
        lower, upper = report.deviation
        assert lower <= reference.deviation[0] <= upper
        assert (lower == upper) == exact
        if exact:
            assert report.deviation == reference.deviation
            # every state of the window but the final one, in order
            assert replayed == list(range(91, 100))
        else:
            assert replayed == []

    def test_final_state_moving_alone_is_seen(self):
        states = _series({-1: 3e-6}, 100)
        report, _ = _window_decision(states, 1.0, 0.1, 7)
        assert not report.converged
        assert not _probe(states, 1.0, 0.1).converged

    @pytest.mark.parametrize("n_samples, window", [(10, 0.05), (0, 1.0)])
    def test_one_sample_window_is_not_converged(self, n_samples, window):
        # a window shorter than dt_sample (t_max under about 10 dt_sample)
        # holds the final sample alone, as does a run with no sample after
        # t = 0
        states = _series({}, n_samples)
        report, replayed = _window_decision(states, window, 0.1, 4)
        assert not report.converged
        assert not _probe(states, window, 0.1).converged
        assert report.deviation == (0.0, 0.0) and replayed == []

    @pytest.mark.parametrize("chunk", [1, 2, 64])
    def test_window_longer_than_the_run_starts_at_zero(self, chunk):
        # 6 samples, a tail of 21: every sample is in the window, the t = 0
        # one included, and it alone is far from the end
        states = _series({0: 5e-6}, 5)
        steady = evolution._SteadyWindow(0.2, 0.01, 5)
        assert (steady.first, steady.count) == (0, 6)
        report, _ = _window_decision(states, 0.2, 0.01, chunk)
        assert not report.converged
        assert not _probe(states, 0.2, 0.01).converged
        assert _window_decision(_series({}, 5), 0.2, 0.01, chunk)[0].converged

    @pytest.mark.parametrize("t_max", [0.2, 0.7, 1.2])
    def test_float_boundary_of_the_window(self, t_max):
        # at t_max = 0.2 and 1.2 the first sample of the tail lies at
        # exactly t_end - window and is in the window; at 0.7 it lies one
        # rounding below and is not
        dt = 0.01
        n_samples = int(np.floor(t_max / dt + 1e-9))
        window = 0.1 * t_max
        tail = int(round(window / dt)) + 1
        boundary = n_samples + 1 - tail
        on_edge = boundary * dt == n_samples * dt - window
        assert on_edge == (t_max != 0.7)
        assert (boundary * dt < n_samples * dt - window) == (t_max == 0.7)
        steady = evolution._SteadyWindow(window, dt, n_samples)
        assert steady.first == (boundary if on_edge else boundary + 1)
        states = _series({boundary: 5e-6}, n_samples)
        report, _ = _window_decision(states, window, dt, 5)
        assert report.converged == _probe(states, window, dt).converged
        assert report.converged == (not on_edge)

    @pytest.mark.parametrize(
        "channel, topology, t_max, converged",
        [
            ("amplitude_damping", "local", 30.0, True),
            ("dephasing", "nearest_neighbor", 3.0, False),
        ],
    )
    def test_stream_matches_probe_on_evolve(self, channel, topology, t_max, converged):
        # strong local damping drains into |1...1> well within t_max = 30
        spec = _spec(
            channel=channel,
            topology=topology,
            gamma=2.0 if topology == "local" else 0.2,
            coupling=None if topology == "local" else ISING,
        )
        cfg = EvolutionConfig(t_max=t_max, dt_sample=0.01)
        info = {}
        for _ in evolve_stream(product_minus_state(2), spec, cfg, info):
            pass
        window = evolution.STEADY_WINDOW_FRACTION * t_max
        states = np.array([rho for _, rho in evolve(product_minus_state(2), spec, cfg)])
        reference = _probe(states, window, 0.01)
        assert info["steady"].converged == reference.converged == converged
        assert info["steady"].window == window
        lower, upper = info["steady"].deviation
        assert lower <= reference.deviation[0] <= upper

    @pytest.mark.parametrize(
        "channel, topology, substep_loop",
        [
            ("dephasing", "nearest_neighbor", False),
            ("amplitude_damping", "nearest_neighbor", False),
            ("amplitude_damping", "all_to_all", False),
            ("amplitude_damping", "all_to_all", True),
        ],
    )
    def test_replayed_window_is_bitwise_the_stream(
        self, channel, topology, substep_loop, monkeypatch
    ):
        # a tolerance between the two bounds forces the exact pass
        spec = _channel_spec(channel, topology)
        cfg = EvolutionConfig(t_max=1.0, dt_sample=0.01)
        rho0 = product_minus_state(3)
        if substep_loop:
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        info = {}
        states = np.array([rho.copy() for _, rho in evolve_stream(rho0, spec, cfg, info)])
        lower, upper = info["steady"].deviation
        assert lower < upper and not info["steady"].converged
        monkeypatch.setattr(evolution, "STEADY_STATE_TOL", (lower + upper) / 2)
        replay = evolution._replay
        replayed = []

        def recording(start, step, count):
            for rho in replay(start, step, count):
                replayed.append(rho.copy())
                yield rho

        monkeypatch.setattr(evolution, "_replay", recording)
        info = {}
        for _ in evolve_stream(rho0, spec, cfg, info):
            pass
        path = "rk4_substep_loop" if substep_loop else "rk4_sample_map"
        assert info["propagation"] == path
        # the last 11 samples, t = 0.9..1.0, less the final one
        assert len(replayed) == 10
        for rho, expected in zip(replayed, states[-11:-1]):
            assert np.array_equal(rho, expected)
        reference = _probe(states, 0.1, 0.01)
        assert info["steady"].deviation == reference.deviation
        assert info["steady"].converged == reference.converged


class TestStepHalving:
    def test_halving_internal_step_is_converged(self):
        # The default step must already sit deep in the convergence plateau:
        # halving it changes sampled states by far less than 1e-8.
        spec = _spec(channel="amplitude_damping", coupling=HOPPING)
        rho0 = product_minus_state(2)
        base = EvolutionConfig(t_max=1.0, dt_sample=0.1)
        _, n_sub = resolve_time_grid(base, spec)
        fine = EvolutionConfig(
            t_max=1.0, dt_sample=0.1, dt_internal=0.1 / (2 * n_sub)
        )
        series_a = evolve(rho0, spec, base)
        series_b = evolve(rho0, spec, fine)
        worst = max(
            float(np.max(np.abs(ra - rb)))
            for (_, ra), (_, rb) in zip(series_a, series_b)
        )
        assert worst < 1e-10
