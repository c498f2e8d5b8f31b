"""Unit tests for battery models, bond sets, and canonical states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import (
    BatteryModel,
    DegenerateGroundStateError,
    EffectiveCoupling,
    all_pair_bonds,
    battery_hamiltonian,
    effective_hamiltonian,
    field_product_eigenbasis,
    ground_state,
    product_minus_state,
    ring_bonds,
)
from qbattery.operators import embed, expectation, pauli

from reference_impls import (
    SM,
    SP,
    ref_battery_hamiltonian,
    ref_field_product_eigenbasis,
    ref_xx_dm_bond,
)


class TestBondSets:
    def test_ring_literals(self):
        assert ring_bonds(2, periodic=True) == [(0, 1), (1, 0)]
        assert ring_bonds(2, periodic=False) == [(0, 1)]
        assert ring_bonds(4, periodic=True) == [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert ring_bonds(4, periodic=False) == [(0, 1), (1, 2), (2, 3)]
        assert ring_bonds(1) == []
        assert ring_bonds(1, periodic=False) == []

    def test_all_pair_literals(self):
        assert all_pair_bonds(2) == [(0, 1)]
        assert all_pair_bonds(4) == [
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        ]
        assert all_pair_bonds(1) == []

    def test_ring_is_wrapped_adjacency(self):
        # One oriented bond per site; the N = 2 ring therefore carries both
        # orientations of its single pair and doubles pair couplings.
        for n in range(2, 7):
            bonds = ring_bonds(n, periodic=True)
            assert len(bonds) == n
            assert all(k == (j + 1) % n for j, k in bonds)


class TestBatteryHamiltonian:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_field_only_spectrum_is_uniform_ladder(self, n_sites):
        # Levels h*(k - N/2) for k = 0..N with binomial multiplicities.
        h = 0.7
        h_mat = battery_hamiltonian(BatteryModel(n_sites=n_sites, h=h))
        vals = np.linalg.eigvalsh(h_mat)
        expected = np.sort(
            np.concatenate(
                [
                    np.full(math.comb(n_sites, k), h * (k - n_sites / 2.0))
                    for k in range(n_sites + 1)
                ]
            )
        )
        np.testing.assert_allclose(vals, expected, atol=1e-12)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_matches_independent_construction(self, n_sites, periodic):
        rng = np.random.default_rng(n_sites * 10 + periodic)
        h = float(rng.uniform(0.5, 2.0))
        j = float(rng.uniform(-1.0, 1.0))
        got = battery_hamiltonian(
            BatteryModel(n_sites=n_sites, h=h, j_coupling=j, periodic=periodic)
        )
        expected = ref_battery_hamiltonian(n_sites, h, j, periodic)
        np.testing.assert_allclose(got, expected, atol=1e-13)

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
    def test_bit_construction_equals_kron_construction(self, n_sites, periodic):
        for h, j in ((1.3, 1.0), (0.7, -0.45), (-1.1, 2.5)):
            got = battery_hamiltonian(
                BatteryModel(n_sites=n_sites, h=h, j_coupling=j, periodic=periodic)
            )
            expected = ref_battery_hamiltonian(n_sites, h, j, periodic)
            assert np.array_equal(got, expected)

    def test_single_cell_is_half_field_sigma_x(self):
        got = battery_hamiltonian(BatteryModel(n_sites=1, h=1.3))
        np.testing.assert_allclose(
            got, np.array([[0.0, 0.65], [0.65, 0.0]]), atol=1e-15
        )

    def test_invalid_site_count_raises(self):
        with pytest.raises(ValueError, match="n_sites"):
            BatteryModel(n_sites=0, h=1.0)


class TestEffectiveHamiltonian:
    def test_single_pair_zz_spectrum(self):
        # One open bond with unit zz strength: eigenvalues {-1, -1, 1, 1}.
        coupling = EffectiveCoupling(kind="ising_z", j_z=1.0)
        h_eff = effective_hamiltonian(coupling, 2, periodic=False)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(h_eff), [-1.0, -1.0, 1.0, 1.0], atol=1e-14
        )

    def test_two_cell_ring_doubles_the_pair(self):
        coupling = EffectiveCoupling(kind="ising_z", j_z=1.0)
        open_pair = effective_hamiltonian(coupling, 2, periodic=False)
        ring = effective_hamiltonian(coupling, 2, periodic=True)
        np.testing.assert_allclose(ring, 2.0 * open_pair, atol=1e-14)

    @pytest.mark.parametrize("interaction_range", ["nearest_neighbor", "all_to_all"])
    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_hopping_matches_xy_representation(self, n_sites, interaction_range):
        # Independent route: (j_xx/2)(XX+YY) + (d_dm/2)(XY-YX) per bond.
        j_xx, d_dm = 1.2, 0.2
        coupling = EffectiveCoupling(
            kind="xx_dm", j_xx=j_xx, d_dm=d_dm, interaction_range=interaction_range
        )
        got = effective_hamiltonian(coupling, n_sites, periodic=True)
        bonds = (
            ring_bonds(n_sites, periodic=True)
            if interaction_range == "nearest_neighbor"
            else all_pair_bonds(n_sites)
        )
        expected = sum(
            ref_xx_dm_bond(j_xx, d_dm, j, k, n_sites) for j, k in bonds
        )
        np.testing.assert_allclose(got, expected, atol=1e-13)
        assert np.max(np.abs(got - got.conj().T)) < 1e-13

    def test_antisymmetric_part_cancels_on_two_cell_ring(self):
        # The two opposite orientations of the single N = 2 pair cancel the
        # antisymmetric (d_dm) part and double the symmetric hopping.
        coupling = EffectiveCoupling(kind="xx_dm", j_xx=1.2, d_dm=0.2)
        got = effective_hamiltonian(coupling, 2, periodic=True)
        hop = embed(SP, 0, 2) @ embed(SM, 1, 2)
        expected = 2.0 * 1.2 * (hop + hop.conj().T)
        np.testing.assert_allclose(got, expected, atol=1e-14)
        # d_dm must not appear at all:
        no_dm = effective_hamiltonian(
            EffectiveCoupling(kind="xx_dm", j_xx=1.2, d_dm=0.0), 2, periodic=True
        )
        np.testing.assert_allclose(got, no_dm, atol=1e-14)

    def test_zero_strengths_give_zero_matrix(self):
        for kind in ("ising_z", "xx_dm"):
            h_eff = effective_hamiltonian(EffectiveCoupling(kind=kind), 3)
            np.testing.assert_array_equal(h_eff, np.zeros((8, 8)))

    @pytest.mark.parametrize(
        "interaction_range, periodic",
        [
            ("nearest_neighbor", True),
            ("nearest_neighbor", False),
            ("all_to_all", True),
        ],
    )
    @pytest.mark.parametrize("kind", ["ising_z", "xx_dm"])
    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6])
    def test_equals_embedded_operator_products(
        self, n_sites, kind, interaction_range, periodic
    ):
        # The embedded two-site products summed bond by bond in the same
        # order, so every entry sees the same additions.
        if kind == "ising_z":
            coupling = EffectiveCoupling(
                kind=kind, j_z=0.7, interaction_range=interaction_range
            )
        else:
            coupling = EffectiveCoupling(
                kind=kind, j_xx=1.2, d_dm=0.2, interaction_range=interaction_range
            )
        bonds = (
            ring_bonds(n_sites, periodic)
            if interaction_range == "nearest_neighbor"
            else all_pair_bonds(n_sites)
        )
        dim = 2**n_sites
        expected = np.zeros((dim, dim), dtype=complex)
        j_complex = coupling.j_xx + 1j * coupling.d_dm
        for j, k in bonds:
            if kind == "ising_z":
                sz = pauli("z")
                expected += coupling.j_z * (
                    embed(sz, j, n_sites) @ embed(sz, k, n_sites)
                )
            else:
                hop = embed(SP, j, n_sites) @ embed(SM, k, n_sites)
                expected += j_complex * hop + np.conj(j_complex) * hop.conj().T
        got = effective_hamiltonian(coupling, n_sites, periodic=periodic)
        assert np.array_equal(got, expected)

    def test_kind_guards(self):
        with pytest.raises(ValueError, match="unknown coupling kind"):
            EffectiveCoupling(kind="heisenberg")
        with pytest.raises(ValueError, match="interaction range"):
            EffectiveCoupling(kind="ising_z", interaction_range="next_nearest")
        with pytest.raises(ValueError, match="ising_z"):
            EffectiveCoupling(kind="ising_z", j_z=1.0, j_xx=0.5)
        with pytest.raises(ValueError, match="xx_dm"):
            EffectiveCoupling(kind="xx_dm", j_xx=1.0, j_z=0.5)


class TestGroundState:
    def test_degenerate_ground_level_raises(self):
        # Zero field, pure zz coupling: the two antialigned configurations
        # share the lowest energy.
        h_mat = battery_hamiltonian(
            BatteryModel(n_sites=2, h=0.0, j_coupling=1.0)
        )
        with pytest.raises(DegenerateGroundStateError, match="degenerate"):
            ground_state(h_mat)
        with pytest.raises(DegenerateGroundStateError):
            ground_state(np.diag([0.0, 0.0, 1.0]))

    def test_field_battery_ground_state_is_unique(self):
        # The field-only battery is degenerate in every excited level but
        # not at the bottom, so ground_state still succeeds there.
        h_mat = battery_hamiltonian(BatteryModel(n_sites=2, h=1.0))
        np.testing.assert_allclose(
            ground_state(h_mat), product_minus_state(2), atol=1e-12
        )

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_interacting_battery_ground_state(self, n_sites):
        model = BatteryModel(n_sites=n_sites, h=1.3, j_coupling=1.0)
        h_mat = battery_hamiltonian(model)
        rho = ground_state(h_mat)
        vals = np.linalg.eigvalsh(h_mat)
        # Pure, normalized, and sitting at the bottom of the spectrum.
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert expectation(rho, h_mat) == pytest.approx(vals[0], abs=1e-10)

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("j_coupling", [0.5, 1.0])
    def test_flip_symmetric_hamiltonian_gives_exactly_invariant_state(
        self, n_sites, j_coupling
    ):
        # battery_hamiltonian commutes bit for bit with the global flip, so
        # the ground vector is projected onto its parity sector and
        # rho == P rho P exactly; it is still eigh's ground state.
        h_mat = battery_hamiltonian(
            BatteryModel(n_sites=n_sites, h=1.0, j_coupling=j_coupling)
        )
        assert np.array_equal(h_mat, h_mat[::-1, ::-1])
        rho = ground_state(h_mat)
        assert np.array_equal(rho, rho[::-1, ::-1])
        vals, vecs = np.linalg.eigh(h_mat)
        psi = vecs[:, 0]
        np.testing.assert_allclose(
            rho, np.outer(psi, psi.conj()), rtol=0, atol=1e-14
        )
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-15)

    def test_other_hamiltonian_keeps_eigh_vector(self):
        # a matrix that does not commute with the flip bit for bit gets
        # eigh's vector unchanged
        rng = np.random.default_rng(11)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h_mat = g + g.conj().T
        assert not np.array_equal(h_mat, h_mat[::-1, ::-1])
        psi = np.linalg.eigh(h_mat)[1][:, 0]
        np.testing.assert_array_equal(
            ground_state(h_mat), np.outer(psi, psi.conj())
        )

    def test_single_cell_ground_state_is_minus(self):
        h_mat = battery_hamiltonian(BatteryModel(n_sites=1, h=1.0))
        np.testing.assert_allclose(
            ground_state(h_mat), product_minus_state(1), atol=1e-12
        )

    def test_non_hermitian_input_raises(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ground_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestProductMinusState:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_is_field_ground_state(self, n_sites):
        h = 1.0
        rho = product_minus_state(n_sites)
        h_mat = battery_hamiltonian(BatteryModel(n_sites=n_sites, h=h))
        np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-14)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-13)
        # Eigenstate at energy -N h / 2:
        np.testing.assert_allclose(
            h_mat @ rho, -n_sites * h / 2.0 * rho, atol=1e-13
        )
        # Every cell points along -x:
        sx = pauli("x")
        for i in range(n_sites):
            assert expectation(rho, embed(sx, i, n_sites)) == pytest.approx(
                -1.0, abs=1e-13
            )

    def test_invalid_count_raises(self):
        with pytest.raises(ValueError, match="n_sites"):
            product_minus_state(0)


class TestFieldProductEigenbasis:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    @pytest.mark.parametrize("h", [1.0, 1.3, -0.8])
    def test_diagonalizes_field_battery(self, n_sites, h):
        energies, basis = field_product_eigenbasis(n_sites, h)
        h_mat = battery_hamiltonian(BatteryModel(n_sites=n_sites, h=h))
        # Unitary columns:
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(2**n_sites), atol=1e-13
        )
        # Exact eigen-decomposition:
        np.testing.assert_allclose(
            basis.conj().T @ h_mat @ basis, np.diag(energies), atol=1e-13
        )
        assert np.all(np.diff(energies) >= -1e-15)

    @pytest.mark.parametrize("n_sites", range(1, 9))
    def test_bit_construction_equals_kron_construction(self, n_sites):
        for h in (1.0, 1.3, -0.8):
            energies, basis = field_product_eigenbasis(n_sites, h)
            ref_energies, ref_basis = ref_field_product_eigenbasis(n_sites, h)
            assert np.array_equal(energies, ref_energies)
            assert np.array_equal(basis, ref_basis)
            assert basis.dtype == ref_basis.dtype

    def test_two_cell_literal_layout(self):
        # Frozen column layout for N = 2, h = 1: energies (-1, 0, 0, 1) with
        # the two zero-energy columns ordered by ascending bit pattern.
        energies, basis = field_product_eigenbasis(2, 1.0)
        np.testing.assert_allclose(energies, [-1.0, 0.0, 0.0, 1.0], atol=1e-15)
        expected = 0.5 * np.array(
            [
                [1, 1, 1, 1],
                [-1, -1, 1, 1],
                [-1, 1, -1, 1],
                [1, -1, -1, 1],
            ],
            dtype=complex,
        )
        np.testing.assert_allclose(basis, expected, atol=1e-15)

    def test_lowest_column_is_product_minus(self):
        for n_sites in (1, 2, 3):
            _, basis = field_product_eigenbasis(n_sites, 1.0)
            g = basis[:, 0]
            np.testing.assert_allclose(
                np.outer(g, g.conj()), product_minus_state(n_sites), atol=1e-14
            )

    def test_negative_field_reverses_order(self):
        e_pos, _ = field_product_eigenbasis(3, 1.0)
        e_neg, _ = field_product_eigenbasis(3, -1.0)
        np.testing.assert_allclose(e_neg, np.sort(-e_pos), atol=1e-15)

    @settings(max_examples=20, deadline=None)
    @given(
        n_sites=st.integers(min_value=1, max_value=5),
        h=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_energies_match_eigvalsh(self, n_sites, h):
        energies, _ = field_product_eigenbasis(n_sites, h)
        h_mat = battery_hamiltonian(BatteryModel(n_sites=n_sites, h=h))
        np.testing.assert_allclose(
            energies, np.linalg.eigvalsh(h_mat), atol=1e-10
        )
