"""Unit tests for the single-cell operator toolbox."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import operators as ops

from reference_impls import (
    ID2,
    SM,
    SP,
    SX,
    SY,
    SZ,
    random_density_matrix,
    random_hermitian,
    ref_embed,
)


class TestPauli:
    def test_literal_matrices(self):
        np.testing.assert_array_equal(ops.pauli("x"), SX)
        np.testing.assert_array_equal(ops.pauli("y"), SY)
        np.testing.assert_array_equal(ops.pauli("z"), SZ)
        np.testing.assert_array_equal(ops.pauli("plus"), SP)
        np.testing.assert_array_equal(ops.pauli("minus"), SM)
        np.testing.assert_array_equal(ops.pauli("identity"), ID2)

    def test_index_zero_is_excited_along_z(self):
        # Basis convention: index 0 is the up/excited level of sigma^z.
        sz = ops.pauli("z")
        up = np.array([1.0, 0.0])
        down = np.array([0.0, 1.0])
        np.testing.assert_allclose(sz @ up, +up)
        np.testing.assert_allclose(sz @ down, -down)

    def test_ladder_action(self):
        # plus promotes |down> -> |up>, minus demotes |up> -> |down>.
        up = np.array([1.0, 0.0], dtype=complex)
        down = np.array([0.0, 1.0], dtype=complex)
        np.testing.assert_allclose(ops.pauli("plus") @ down, up)
        np.testing.assert_allclose(ops.pauli("minus") @ up, down)
        np.testing.assert_allclose(ops.pauli("plus") @ up, 0 * up)

    def test_algebra_identities(self):
        for kind in ("x", "y", "z"):
            np.testing.assert_allclose(
                ops.pauli(kind) @ ops.pauli(kind), np.eye(2), atol=1e-15
            )
        x, y = ops.pauli("x"), ops.pauli("y")
        np.testing.assert_allclose(
            x @ y - y @ x, 2j * ops.pauli("z"), atol=1e-15
        )
        np.testing.assert_allclose(x @ y + y @ x, np.zeros((2, 2)), atol=1e-15)
        # Ladder decomposition: plus/minus = (x -++ i y) / 2.
        np.testing.assert_allclose(
            ops.pauli("plus"), (SX + 1j * SY) / 2, atol=1e-15
        )
        np.testing.assert_allclose(
            ops.pauli("minus"), (SX - 1j * SY) / 2, atol=1e-15
        )

    def test_returns_fresh_copy(self):
        a = ops.pauli("z")
        a[0, 0] = 99.0
        np.testing.assert_array_equal(ops.pauli("z"), SZ)

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            ops.pauli("w")


class TestEmbed:
    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_matches_explicit_kron_chain(self, n_sites):
        for site in range(n_sites):
            np.testing.assert_array_equal(
                ops.embed(SZ, site, n_sites), ref_embed(SZ, site, n_sites)
            )

    def test_site_zero_is_leftmost_factor(self):
        # For 3 cells, sigma^z at site 0 must equal sz (x) id (x) id, so the
        # diagonal flips sign exactly at the most significant bit.
        embedded = ops.embed(SZ, 0, 3)
        expected_diag = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=complex)
        np.testing.assert_array_equal(np.diag(embedded), expected_diag)

    def test_rightmost_site_toggles_lsb(self):
        embedded = ops.embed(SZ, 2, 3)
        expected_diag = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=complex)
        np.testing.assert_array_equal(np.diag(embedded), expected_diag)

    def test_different_sites_commute(self):
        a = ops.embed(SX, 0, 3)
        b = ops.embed(SY, 2, 3)
        np.testing.assert_allclose(a @ b - b @ a, 0 * a, atol=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="2x2"):
            ops.embed(np.eye(4), 0, 2)
        with pytest.raises(ValueError, match="out of range"):
            ops.embed(SZ, 2, 2)
        with pytest.raises(ValueError, match="out of range"):
            ops.embed(SZ, -1, 2)


class TestKronAll:
    def test_matches_nested_kron(self):
        got = ops.kron_all([SX, SY, SZ])
        expected = np.kron(np.kron(SX, SY), SZ)
        np.testing.assert_array_equal(got, expected)

    def test_single_factor_identity(self):
        np.testing.assert_array_equal(ops.kron_all([SX]), SX)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            ops.kron_all([])


class TestExpectation:
    def test_known_value(self):
        rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        assert ops.expectation(rho, SZ) == pytest.approx(0.5, abs=1e-15)
        assert ops.expectation(rho, SX) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ops.expectation(np.eye(2), np.eye(4))

    def test_imaginary_residue_raises(self):
        # Tr[rho op] for this state against a ladder operator is -0.5j.
        rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary residue"):
            ops.expectation(rho, SP)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), dim=st.sampled_from([2, 4, 8]))
    def test_hermitian_expectation_is_real_and_bounded(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, dim)
        op = random_hermitian(rng, dim)
        value = ops.expectation(rho, op)
        eigs = np.linalg.eigvalsh(op)
        assert eigs[0] - 1e-10 <= value <= eigs[-1] + 1e-10

    def test_stack_matches_each_state_bitwise(self):
        rng = np.random.default_rng(31)
        for dim in (2, 8, 32):
            stack = np.array([random_density_matrix(rng, dim) for _ in range(5)])
            op = random_hermitian(rng, dim)
            values = ops.expectation(stack, op)
            assert values.shape == (5,)
            assert values.tolist() == [ops.expectation(r, op) for r in stack]

    def test_imaginary_residue_in_a_stack_raises(self):
        good = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        bad = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary residue"):
            ops.expectation(np.array([good, bad]), SP)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ops.expectation(np.array([good, bad]), np.eye(4))
