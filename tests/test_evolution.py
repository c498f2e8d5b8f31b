"""Unit tests for the master-equation integrators and state invariants."""

import numpy as np
import pytest
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
    liouvillian_matrix,
    liouvillian_rhs,
    product_minus_state,
    resolve_time_grid,
    steady_state_probe,
)
from qbattery import evolution
from qbattery.evolution import (
    EXPM_MAX_SITES,
    HERMITICITY_TOL,
    StateCheck,
    _AmplitudeDampingRHS,
    _ElementwiseDephasingRHS,
    _GenericRHS,
    _rk4_substeps,
    _substep_loop_work,
    check_state,
    make_rhs,
)
from qbattery.models import EffectiveCoupling, effective_hamiltonian
from qbattery.operators import embed, pauli

from reference_impls import (
    random_density_matrix,
    random_hermitian,
    ref_master_rhs,
    solve_master_ivp,
)
from qbattery.dissipation import jump_operators

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


class TestRhsDispatch:
    def test_dephasing_with_diagonal_heff_uses_elementwise_path(self):
        rhs = make_rhs(_ising_heff(3), build_gamma(_spec(), 3), "dephasing")
        assert isinstance(rhs, _ElementwiseDephasingRHS)

    def test_damping_uses_sparse_path(self):
        rhs = make_rhs(
            np.zeros((8, 8)),
            build_gamma(_spec(channel="amplitude_damping"), 3),
            "amplitude_damping",
        )
        assert isinstance(rhs, _AmplitudeDampingRHS)

    def test_dephasing_with_offdiagonal_heff_falls_back(self):
        h_off = embed(pauli("x"), 0, 2)  # Hermitian but not z-diagonal
        rhs = make_rhs(h_off, build_gamma(_spec(), 2), "dephasing")
        assert isinstance(rhs, _GenericRHS)


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
            expected = liouvillian_rhs(h_eff, gamma, "dephasing", rho)
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
            expected = liouvillian_rhs(h_eff, gamma, "amplitude_damping", rho)
            np.testing.assert_allclose(rhs(rho), expected, atol=1e-13)

    def test_damping_sparse_path_exact_on_non_hermitian_input(self):
        # The sparse superoperator is linear in vec(rho) with no hermiticity
        # assumption; verify on a general complex matrix.
        rng = np.random.default_rng(3)
        spec = _spec(channel="amplitude_damping")
        gamma = build_gamma(spec, 2)
        h_eff = _hopping_heff(2)
        rhs = make_rhs(h_eff, gamma, "amplitude_damping")
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        lmat = liouvillian_matrix(h_eff, gamma, "amplitude_damping")
        expected = (lmat @ m.reshape(-1)).reshape(4, 4)
        np.testing.assert_allclose(rhs(m), expected, atol=1e-13)

    def test_generic_path_matches_literal_on_hermitian_states(self):
        rng = np.random.default_rng(9)
        spec = _spec()
        gamma = build_gamma(spec, 2)
        h_off = embed(pauli("x"), 0, 2) + 0.3 * embed(pauli("y"), 1, 2)
        rhs = make_rhs(h_off, gamma, "dephasing")
        assert isinstance(rhs, _GenericRHS)
        for _ in range(4):
            rho = random_density_matrix(rng, 4)
            expected = liouvillian_rhs(h_off, gamma, "dephasing", rho)
            np.testing.assert_allclose(rhs(rho), expected, atol=1e-13)

    def test_literal_rhs_matches_independent_reference(self):
        rng = np.random.default_rng(21)
        gamma = build_gamma(_spec(channel="amplitude_damping"), 3)
        h_eff = _hopping_heff(3)
        rho = random_density_matrix(rng, 8)
        got = liouvillian_rhs(h_eff, gamma, "amplitude_damping", rho)
        expected = ref_master_rhs(
            h_eff, gamma.matrix, jump_operators("amplitude_damping", 3), rho
        )
        np.testing.assert_allclose(got, expected, atol=1e-13)

    def test_literal_rhs_guards(self):
        gamma = build_gamma(_spec(), 2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            liouvillian_rhs(np.zeros((8, 8)), gamma, "dephasing", np.eye(4) / 4)
        with pytest.raises(ValueError, match="Hermitian"):
            h_bad = np.zeros((4, 4), dtype=complex)
            h_bad[0, 1] = 1.0
            liouvillian_rhs(h_bad, gamma, "dephasing", np.eye(4) / 4)

    def test_liouvillian_matrix_reproduces_rhs(self):
        rng = np.random.default_rng(12)
        gamma = build_gamma(_spec(), 2)
        h_eff = _ising_heff(2)
        lmat = liouvillian_matrix(h_eff, gamma, "dephasing")
        rho = random_density_matrix(rng, 4)
        np.testing.assert_allclose(
            (lmat @ rho.reshape(-1)).reshape(4, 4),
            liouvillian_rhs(h_eff, gamma, "dephasing", rho),
            atol=1e-13,
        )


def _channel_heff(channel, topology, n):
    if topology == "local":
        return np.zeros((2**n, 2**n))
    if channel == "dephasing":
        return _ising_heff(n, interaction_range=topology)
    return effective_hamiltonian(
        EffectiveCoupling(
            kind="xx_dm", j_xx=1.2, d_dm=0.2, interaction_range=topology
        ),
        n,
    )


class TestSampleMap:
    """The precomputed per-sample map against the explicit RK4 substeps."""

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "topology", ["local", "nearest_neighbor", "all_to_all"]
    )
    @pytest.mark.parametrize(
        "channel, path",
        [
            ("dephasing", "rk4_sample_map"),
            ("amplitude_damping", "rk4_sample_map"),
            ("amplitude_damping", "rk4_substep_loop"),
        ],
    )
    def test_matches_substep_loop(
        self, channel, path, topology, n, monkeypatch
    ):
        if path == "rk4_substep_loop":
            # no map fits in zero bytes, so the sparse path runs the loop
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        spec = _spec(channel=channel, topology=topology)
        h_eff = _channel_heff(channel, topology, n)
        cfg = EvolutionConfig(t_max=3.0, dt_sample=0.05)
        info = {}
        series = list(
            evolve_stream(product_minus_state(n), h_eff, spec, cfg, info=info)
        )
        assert info["propagation"] == path
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
        entries = sum(len(idx) ** 2 for idx in rhs.blocks())
        size = rhs.lmat.shape[0]
        assert entries >= _substep_loop_work(rhs.lmat.nnz, size, 1)
        assert entries < _substep_loop_work(rhs.lmat.nnz, size, 13)
        assert rhs.sample_map(1e-3, 1) is None
        assert rhs.sample_map(1e-3, 13) is not None

    def test_byte_bound_covers_all_blocks(self):
        # Local damping at N = 9: 3^9 blocks of at most 512 rows, 6^9
        # entries (~161 MB) in all.  The work rule alone would keep the map.
        spec = _spec(channel="amplitude_damping", topology="local")
        rhs = make_rhs(
            _channel_heff("amplitude_damping", "local", 9),
            build_gamma(spec, 9),
            "amplitude_damping",
        )
        assert max(len(idx) for idx in rhs.blocks()) == 512
        entries = sum(len(idx) ** 2 for idx in rhs.blocks())
        assert 16 * entries > evolution.SAMPLE_MAP_MAX_BYTES
        assert entries < _substep_loop_work(
            rhs.lmat.nnz, rhs.lmat.shape[0], 13
        )
        assert rhs.sample_map(1e-3, 13) is None

    def test_generic_path_runs_substep_loop(self):
        h_off = embed(pauli("x"), 0, 2)
        info = {}
        list(
            evolve_stream(
                product_minus_state(2),
                h_off,
                _spec(),
                EvolutionConfig(t_max=0.1),
                info=info,
            )
        )
        assert info["propagation"] == "rk4_substep_loop"

    def test_expm_integrator_reports_its_path(self):
        info = {}
        list(
            evolve_stream(
                product_minus_state(2),
                _ising_heff(2),
                _spec(),
                EvolutionConfig(t_max=0.1, integrator="liouvillian_expm"),
                info=info,
            )
        )
        assert info["propagation"] == "expm"

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
        blocks = rhs.blocks()
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
        sizes = sorted(len(idx) for idx in rhs.blocks())
        assert len(sizes) == 13
        assert sizes[-1] == 924
        assert 16 * sum(s * s for s in sizes) <= evolution.SAMPLE_MAP_MAX_BYTES
        assert sum(sizes) == 4096


def _transposed(idx, dim):
    """vec(rho) indices of rho[j, i] for the indices of rho[i, j]."""
    return (idx % dim) * dim + idx // dim


def _damping_rhs(topology, n):
    spec = _spec(channel="amplitude_damping", topology=topology)
    rhs = make_rhs(
        _channel_heff("amplitude_damping", topology, n),
        build_gamma(spec, n),
        "amplitude_damping",
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
        h_eff = _channel_heff("amplitude_damping", topology, n)
        cfg = EvolutionConfig(t_max=3.0, dt_sample=0.05)
        info = {}
        series = list(
            evolve_stream(product_minus_state(n), h_eff, spec, cfg, info=info)
        )
        assert info["propagation"] == path
        n_samples, n_sub = resolve_time_grid(cfg, spec)
        assert len(series) == n_samples + 1 == 61
        rho = product_minus_state(n).astype(complex)
        for t, got in series:
            np.testing.assert_allclose(got, rho, rtol=0, atol=1e-12)
            rho = _rk4_substeps(rhs, cfg.dt_sample / n_sub, n_sub, rho)

    @pytest.mark.parametrize(
        "path", ["rk4_sample_map", "rk4_substep_loop"]
    )
    def test_filled_entries_are_exact_conjugates(self, path, monkeypatch):
        if path == "rk4_substep_loop":
            monkeypatch.setattr(evolution, "SAMPLE_MAP_MAX_BYTES", 0)
        n = 4
        spec, rhs = _damping_rhs("all_to_all", n)
        blocks, partner = rhs.conjugate_sectors()
        paired = np.concatenate(
            [idx for c, idx in enumerate(blocks) if partner[c] != c]
        )
        rows, cols = np.divmod(paired, 2**n)
        info = {}
        for _, rho in evolve_stream(
            product_minus_state(n),
            _channel_heff("amplitude_damping", "all_to_all", n),
            spec,
            EvolutionConfig(t_max=1.0, dt_sample=0.05),
            info=info,
        ):
            assert np.array_equal(rho[rows, cols], np.conj(rho[cols, rows]))
        assert info["propagation"] == path


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
        with pytest.raises(ValueError, match="unknown integrator"):
            EvolutionConfig(t_max=1.0, integrator="rk45")
        with pytest.raises(ValueError, match="samples"):
            EvolutionConfig(t_max=1e9, dt_sample=1e-3)


class TestCheckState:
    def test_accepts_valid_state(self):
        check_state(product_minus_state(2), 0.0)

    def test_rejects_wrong_trace(self):
        with pytest.raises(StateInvariantError) as err:
            check_state(np.eye(2), 1.5)
        assert err.value.t == 1.5
        assert err.value.trace_drift >= 1.0

    def test_rejects_non_hermitian(self):
        rho = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(StateInvariantError):
            check_state(rho, 0.0)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(StateInvariantError) as err:
            check_state(rho, 2.0)
        assert err.value.min_eig < -1e-8

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

    def test_stream_records_each_samples_check_and_worst_margins(self):
        info = {}
        cfg = EvolutionConfig(t_max=0.5, dt_sample=0.1)
        records = []
        for t, rho in evolve_stream(
            product_minus_state(3), _ising_heff(3), _spec(), cfg, info=info
        ):
            record = info["check"]
            np.testing.assert_array_equal(
                record.populations, check_state(rho, t).populations
            )
            records.append(record)
        assert len(records) == 6
        assert info["invariant_margins"] == {
            "max_trace_drift": max(r.trace_drift for r in records),
            "max_herm_drift": max(r.herm_drift for r in records),
            "min_eigenvalue": min(r.min_eig for r in records),
        }

    def test_stream_raises_at_first_nonphysical_sample(self, monkeypatch):
        # The third propagated sample is replaced by a trace-one Hermitian
        # matrix with a negative eigenvalue: the samples before it are
        # yielded, it is not, and the error names its time.
        bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
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
        seen = []
        with pytest.raises(StateInvariantError) as err:
            for t, _ in evolve_stream(
                product_minus_state(2),
                _ising_heff(2),
                _spec(),
                EvolutionConfig(t_max=1.0, dt_sample=0.1),
                info={},
            ):
                seen.append(t)
        assert seen == pytest.approx([0.0, 0.1, 0.2])
        assert err.value.t == pytest.approx(0.3)
        assert err.value.min_eig == pytest.approx(-0.5)


class TestEvolve:
    def test_matches_exponential_propagator(self):
        # Fixed-step RK4 against the dense Liouvillian exponential, both
        # channels, three cells.
        for channel, h_eff in (
            ("dephasing", _ising_heff(3)),
            ("amplitude_damping", _hopping_heff(3)),
        ):
            spec = _spec(channel=channel)
            cfg_rk4 = EvolutionConfig(t_max=1.0, dt_sample=0.1)
            cfg_expm = EvolutionConfig(
                t_max=1.0, dt_sample=0.1, integrator="liouvillian_expm"
            )
            rho0 = product_minus_state(3)
            series_rk4 = evolve(rho0, h_eff, spec, cfg_rk4)
            series_expm = evolve(rho0, h_eff, spec, cfg_expm)
            assert len(series_rk4) == len(series_expm) == 11
            for (t1, r1), (t2, r2) in zip(series_rk4, series_expm):
                assert t1 == pytest.approx(t2, abs=1e-12)
                np.testing.assert_allclose(r1, r2, atol=1e-9)

    def test_matches_adaptive_reference_integration(self):
        spec = _spec(channel="amplitude_damping")
        h_eff = _hopping_heff(2)
        cfg = EvolutionConfig(t_max=2.0, dt_sample=0.5)
        rho0 = product_minus_state(2)
        series = evolve(rho0, h_eff, spec, cfg)
        ts = np.array([t for t, _ in series])
        gamma = build_gamma(spec, 2)
        reference = solve_master_ivp(
            h_eff,
            gamma.matrix,
            jump_operators("amplitude_damping", 2),
            rho0,
            ts,
        )
        for (_, rho), rho_ref in zip(series, reference):
            np.testing.assert_allclose(rho, rho_ref, atol=1e-8)

    def test_stream_and_list_forms_agree(self):
        spec = _spec()
        h_eff = _ising_heff(2)
        cfg = EvolutionConfig(t_max=0.3, dt_sample=0.1)
        rho0 = product_minus_state(2)
        streamed = list(evolve_stream(rho0, h_eff, spec, cfg))
        collected = evolve(rho0, h_eff, spec, cfg)
        assert len(streamed) == len(collected)
        for (t1, r1), (t2, r2) in zip(streamed, collected):
            assert t1 == t2
            np.testing.assert_array_equal(r1, r2)

    def test_refuses_invalid_rate_matrix(self):
        spec = _spec(gamma=0.01, offdiag=0.02)
        with pytest.raises(CptpViolationError):
            evolve(
                product_minus_state(2),
                _ising_heff(2),
                spec,
                EvolutionConfig(t_max=0.1),
            )

    def test_refuses_invalid_initial_state(self):
        with pytest.raises(StateInvariantError):
            evolve(
                np.eye(4, dtype=complex),  # trace 4
                _ising_heff(2),
                _spec(),
                EvolutionConfig(t_max=0.1),
            )

    def test_refuses_non_hermitian_heff(self):
        h_bad = np.array([[0, 1], [0, 0]], dtype=complex)
        h_bad = np.kron(h_bad, np.eye(2))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve(product_minus_state(2), h_bad, _spec(), EvolutionConfig(t_max=0.1))

    def test_refuses_non_power_of_two_state(self):
        rho = np.eye(3) / 3
        with pytest.raises(ValueError, match="2\\^N"):
            evolve(rho, np.zeros((3, 3)), _spec(), EvolutionConfig(t_max=0.1))

    def test_refuses_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            evolve(
                product_minus_state(2),
                np.zeros((8, 8)),
                _spec(),
                EvolutionConfig(t_max=0.1),
            )

    def test_expm_integrator_site_cap(self):
        spec = _spec()
        cfg = EvolutionConfig(t_max=0.1, integrator="liouvillian_expm")
        n = EXPM_MAX_SITES + 1
        with pytest.raises(ValueError, match="liouvillian_expm"):
            evolve(product_minus_state(n), np.zeros((2**n, 2**n)), spec, cfg)

    def test_dephasing_keeps_populations_frozen(self):
        # sigma^z jumps commute with every z-basis projector, so the
        # diagonal of rho never moves.
        spec = _spec()
        series = evolve(
            product_minus_state(2),
            _ising_heff(2),
            spec,
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
            np.zeros((4, 4)),
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
        spec = _spec(channel=channel, gamma=gamma, offdiag=mod * np.exp(1j * phase))
        h_eff = _ising_heff(2) if channel == "dephasing" else _hopping_heff(2)
        series = evolve(
            random_density_matrix(rng, 4),
            h_eff,
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
        np.testing.assert_array_equal(report.rho_ss, rho)

    def test_not_converged_while_moving(self):
        series = [
            (float(t), np.diag([1.0 - 0.05 * t, 0.05 * t]).astype(complex))
            for t in range(10)
        ]
        assert not steady_state_probe(series, window=3.0).converged

    def test_empty_series_raises(self):
        with pytest.raises(ValueError, match="nonempty"):
            steady_state_probe([], window=1.0)


class TestStepHalving:
    def test_halving_internal_step_is_converged(self):
        # The default step must already sit deep in the convergence plateau:
        # halving it changes sampled states by far less than 1e-8.
        spec = _spec(channel="amplitude_damping")
        h_eff = _hopping_heff(2)
        rho0 = product_minus_state(2)
        base = EvolutionConfig(t_max=1.0, dt_sample=0.1)
        _, n_sub = resolve_time_grid(base, spec)
        fine = EvolutionConfig(
            t_max=1.0, dt_sample=0.1, dt_internal=0.1 / (2 * n_sub)
        )
        series_a = evolve(rho0, h_eff, spec, base)
        series_b = evolve(rho0, h_eff, spec, fine)
        worst = max(
            float(np.max(np.abs(ra - rb)))
            for (_, ra), (_, rb) in zip(series_a, series_b)
        )
        assert worst < 1e-10
