"""Unit tests for energy, ergotropy, coherence, and the extraction ratio."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbattery
from qbattery import (
    BatteryModel,
    battery_hamiltonian,
    coherence_l1_energy_basis,
    energy_eigenbasis,
    ergotropy,
    expectation,
    extraction_ratio,
    field_product_eigenbasis,
    product_minus_state,
)
from qbattery.evolution import check_state
from qbattery.observables import STORED_ENERGY_FLOOR, parity_block_basis

from reference_impls import (
    SP,
    SX,
    SZ,
    ergotropy_bruteforce_oracle,
    random_density_matrix,
    random_hermitian,
    ref_ergotropy,
    ref_l1_coherence,
)


class TestExpectation:
    def test_known_value(self):
        rho = np.array([[0.75, 0.25], [0.25, 0.25]], dtype=complex)
        assert expectation(rho, SZ) == pytest.approx(0.5, abs=1e-15)
        assert expectation(rho, SX) == pytest.approx(0.5, abs=1e-15)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation(np.eye(2), np.eye(4))

    def test_imaginary_residue_raises(self):
        # Tr[rho op] for this state against a ladder operator is -0.5j.
        rho = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(rho, SP)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6), dim=st.sampled_from([2, 4, 8]))
    def test_hermitian_expectation_is_real_and_bounded(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, dim)
        op = random_hermitian(rng, dim)
        value = expectation(rho, op)
        eigs = np.linalg.eigvalsh(op)
        assert eigs[0] - 1e-10 <= value <= eigs[-1] + 1e-10

    def test_stack_matches_each_state_bitwise(self):
        rng = np.random.default_rng(31)
        for dim in (2, 8, 32):
            stack = np.array([random_density_matrix(rng, dim) for _ in range(5)])
            op = random_hermitian(rng, dim)
            values = expectation(stack, op)
            assert values.shape == (5,)
            assert values.tolist() == [expectation(r, op) for r in stack]

    def test_imaginary_residue_in_a_stack_raises(self):
        good = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
        bad = np.array([[0.5, 0.5j], [-0.5j, 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="imaginary residue"):
            expectation(np.array([good, bad]), SP)
        with pytest.raises(ValueError, match="dimension mismatch"):
            expectation(np.array([good, bad]), np.eye(4))


class TestErgotropySpectral:
    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_matches_opposite_sort_order_reference(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(25):
            rho = random_density_matrix(rng, dim)
            h = random_hermitian(rng, dim)
            report = ergotropy(rho, h)
            assert report.ergotropy == pytest.approx(
                ref_ergotropy(rho, h), abs=1e-12
            )
            assert report.w == pytest.approx(
                float(np.real(np.trace(h @ rho))), abs=1e-12
            )
            assert report.w - report.passive_energy == pytest.approx(
                report.ergotropy, abs=1e-15
            )

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            rho = random_density_matrix(rng, 4)
            h = random_hermitian(rng, 4)
            assert ergotropy(rho, h).ergotropy >= -1e-10

    def test_pure_ground_state_has_zero_ergotropy(self):
        h = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        rho = np.zeros((3, 3), dtype=complex)
        rho[0, 0] = 1.0
        assert ergotropy(rho, h).ergotropy == pytest.approx(0.0, abs=1e-14)

    def test_inverted_pure_state_releases_full_gap(self):
        h = np.diag([-1.0, 2.0]).astype(complex)
        rho = np.diag([0.0, 1.0]).astype(complex)
        report = ergotropy(rho, h)
        assert report.ergotropy == pytest.approx(3.0, abs=1e-14)
        assert report.passive_energy == pytest.approx(-1.0, abs=1e-14)

    def test_passive_state_is_detected(self):
        # Populations already descending against ascending energies.
        h = np.diag([-1.0, 0.0, 1.0]).astype(complex)
        rho = np.diag([0.6, 0.3, 0.1]).astype(complex)
        assert ergotropy(rho, h).ergotropy == pytest.approx(0.0, abs=1e-14)
        # Any permutation away from passivity stores extractable work:
        rho_active = np.diag([0.3, 0.1, 0.6]).astype(complex)
        assert ergotropy(rho_active, h).ergotropy > 0.4

    def test_precomputed_energies_path_identical(self):
        rng = np.random.default_rng(42)
        rho = random_density_matrix(rng, 8)
        h = random_hermitian(rng, 8)
        fresh = ergotropy(rho, h)
        cached = ergotropy(rho, h, h_energies=np.linalg.eigvalsh(h))
        assert fresh.ergotropy == cached.ergotropy
        assert fresh.passive_energy == cached.passive_energy

    def test_given_populations_path_matches(self):
        rng = np.random.default_rng(7)
        for dim in (2, 4, 8, 16):
            rho = random_density_matrix(rng, dim)
            h = random_hermitian(rng, dim)
            fresh = ergotropy(rho, h)
            for populations in (
                np.linalg.eigvalsh(rho),
                check_state(rho, 0.0).populations,
            ):
                given_pops = ergotropy(rho, h, populations=populations)
                assert given_pops.ergotropy == pytest.approx(
                    fresh.ergotropy, abs=1e-14
                )
                assert given_pops.passive_energy == pytest.approx(
                    fresh.passive_energy, abs=1e-14
                )
                assert given_pops.w == fresh.w

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            ergotropy(np.eye(2) / 2, np.eye(4))

    def test_product_minus_energy(self):
        # W = -N h / 2 for the all-minus product under the field battery.
        for n in (1, 2, 3):
            h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.0))
            report = ergotropy(product_minus_state(n), h_b)
            assert report.w == pytest.approx(-n / 2.0, abs=1e-13)
            assert report.ergotropy == pytest.approx(0.0, abs=1e-12)


def test_cli_import_leaves_out_oracle_only_scipy_modules():
    # scipy.optimize and scipy.stats serve only the brute-force oracle;
    # loading them costs every `qbattery run` more than its own import.
    src = os.path.dirname(os.path.dirname(qbattery.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = (
        "import sys, qbattery.cli; "
        "print(sorted(m for m in ('scipy.optimize', 'scipy.stats') "
        "if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


class TestErgotropyBruteforce:
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_exhaustive_assignment_matches_spectral(self, dim):
        rng = np.random.default_rng(dim + 100)
        for k in range(10):
            rho = random_density_matrix(rng, dim)
            h = random_hermitian(rng, dim)
            exact = ergotropy(rho, h).ergotropy
            brute = ergotropy_bruteforce_oracle(
                rho, h, n_random_unitaries=0, seed=k
            )
            assert brute == pytest.approx(exact, abs=1e-10)

    def test_assignment_solver_route_dim_16(self):
        rng = np.random.default_rng(1000)
        rho = random_density_matrix(rng, 16)
        h = random_hermitian(rng, 16)
        exact = ergotropy(rho, h).ergotropy
        brute = ergotropy_bruteforce_oracle(rho, h, n_random_unitaries=0)
        assert brute == pytest.approx(exact, abs=1e-10)

    def test_haar_search_never_exceeds_spectral(self):
        rng = np.random.default_rng(5)
        for k in range(5):
            rho = random_density_matrix(rng, 4)
            h = random_hermitian(rng, 4)
            exact = ergotropy(rho, h).ergotropy
            brute = ergotropy_bruteforce_oracle(
                rho, h, n_random_unitaries=200, seed=k
            )
            # Haar candidates can only lower the extracted-energy minimum
            # down to (never past) the spectral optimum.
            assert brute <= exact + 1e-9
            assert brute == pytest.approx(exact, abs=1e-9)

    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="dim <= 16"):
            ergotropy_bruteforce_oracle(
                np.eye(32) / 32, np.eye(32), n_random_unitaries=0
            )


class TestEnergyEigenbasis:
    def test_nondegenerate_recovery(self):
        rng = np.random.default_rng(8)
        h = random_hermitian(rng, 6)
        vals, basis = energy_eigenbasis(h)
        np.testing.assert_allclose(
            basis.conj().T @ h @ basis, np.diag(vals), atol=1e-10
        )
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(6), atol=1e-12
        )
        assert np.all(np.diff(vals) >= 0)

    def test_deterministic_across_calls(self):
        h_b = battery_hamiltonian(BatteryModel(n_sites=3, h=1.0))
        _, b1 = energy_eigenbasis(h_b)
        _, b2 = energy_eigenbasis(h_b)
        np.testing.assert_array_equal(b1, b2)

    def test_degenerate_basis_still_diagonalizes(self):
        h_b = battery_hamiltonian(BatteryModel(n_sites=3, h=1.0))
        vals, basis = energy_eigenbasis(h_b)
        np.testing.assert_allclose(
            basis.conj().T @ h_b @ basis, np.diag(vals), atol=1e-10
        )
        np.testing.assert_allclose(
            basis.conj().T @ basis, np.eye(8), atol=1e-12
        )

    def test_probe_orders_degenerate_cluster(self):
        # H = identity on a 4-dim space: one giant cluster.  The probe
        # diag(3, 1, 2, 0) must order the basis by its eigenvalues.
        h = np.eye(4, dtype=complex)
        probe = np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex)
        _, basis = energy_eigenbasis(h, degeneracy_probe=probe)
        ordered = basis.conj().T @ probe @ basis
        np.testing.assert_allclose(
            np.diag(ordered), [0.0, 1.0, 2.0, 3.0], atol=1e-12
        )

    def test_canonicalization_ignores_eigensolver_mixing(self):
        # Two matrices with the same degenerate subspace but different
        # off-degenerate parts must produce the same cluster columns.
        h1 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        vals1, b1 = energy_eigenbasis(h1)
        # Rotate the input basis within the degenerate subspace; the
        # canonical output must not change.
        theta = 0.7
        rot = np.eye(3, dtype=complex)
        rot[:2, :2] = np.array(
            [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        )
        h2 = rot @ h1 @ rot.conj().T  # same matrix: rotation acts inside span
        np.testing.assert_allclose(h1, h2, atol=1e-15)
        _, b2 = energy_eigenbasis(h2)
        np.testing.assert_allclose(b1, b2, atol=1e-12)


class TestCoherence:
    def test_identity_basis_literal(self):
        # Bell-like state in a trivial (diagonal, nondegenerate) basis:
        # coherence = 2 * |1/2| = 1.
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = rho[3, 3] = 0.5
        rho[0, 3] = rho[3, 0] = 0.5
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        assert coherence_l1_energy_basis(rho, h) == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_reference(self):
        rng = np.random.default_rng(77)
        h = random_hermitian(rng, 4)
        _, basis = energy_eigenbasis(h)
        for _ in range(10):
            rho = random_density_matrix(rng, 4)
            assert coherence_l1_energy_basis(rho, h) == pytest.approx(
                ref_l1_coherence(rho, basis), abs=1e-12
            )

    def test_energy_eigenstate_mixture_has_zero_coherence(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(rng, 4)
        vals, basis = energy_eigenbasis(h)
        weights = rng.dirichlet(np.ones(4))
        rho = (basis * weights) @ basis.conj().T
        assert coherence_l1_energy_basis(rho, h) < 1e-12

    def test_pinned_product_basis_coherence(self):
        # The all-minus product is the lowest pinned-basis vector, so its
        # coherence in that basis is exactly zero even though the z-basis
        # matrix is dense.
        n = 3
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.0))
        _, basis = field_product_eigenbasis(n, 1.0)
        rho = product_minus_state(n)
        assert np.max(np.abs(rho - np.diag(np.diag(rho)))) > 0.1
        assert coherence_l1_energy_basis(rho, h_b, basis=basis) < 1e-12

    def test_explicit_basis_overrides_recomputation(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 4)
        _, basis = energy_eigenbasis(h)
        rho = random_density_matrix(rng, 4)
        a = coherence_l1_energy_basis(rho, h)
        b = coherence_l1_energy_basis(rho, h, basis=basis)
        assert a == pytest.approx(b, abs=1e-14)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            coherence_l1_energy_basis(np.eye(2) / 2, np.eye(4))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, 4)
        h = random_hermitian(rng, 4)
        assert coherence_l1_energy_basis(rho, h) >= 0.0


def _full_transform_coherence(rho, basis):
    """The l1 sum as the full d x d transform computes it."""
    off = np.abs(basis.conj().T @ rho @ basis)
    np.fill_diagonal(off, 0.0)
    return float(off.sum())


class TestParityCoherence:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_full_transform(self, n):
        rng = np.random.default_rng(200 + n)
        rho = random_density_matrix(rng, 2**n)
        rho = 0.5 * (rho + rho[::-1, ::-1])          # exactly flip-invariant
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.3))
        _, basis = field_product_eigenbasis(n, 1.3)
        blocks = check_state(rho, 0.0).parity_blocks
        assert blocks is not None
        got = coherence_l1_energy_basis(
            rho, h_b, basis=basis, parity_blocks=blocks,
            parity_basis=parity_block_basis(basis),
        )
        assert got == pytest.approx(
            _full_transform_coherence(rho, basis), rel=0, abs=1e-13
        )

    def test_non_invariant_state_is_unchanged(self):
        rng = np.random.default_rng(21)
        n = 4
        rho = random_density_matrix(rng, 2**n)
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.0))
        _, basis = field_product_eigenbasis(n, 1.0)
        check = check_state(rho, 0.0)
        assert check.parity_blocks is None
        got = coherence_l1_energy_basis(
            rho, h_b, basis=basis, parity_blocks=check.parity_blocks,
            parity_basis=parity_block_basis(basis),
        )
        assert got == _full_transform_coherence(rho, basis)

    def test_field_product_basis_is_parity_adapted(self):
        for n in range(1, 9):
            _, basis = field_product_eigenbasis(n, 1.0)
            stack = parity_block_basis(basis)
            assert stack.shape == (2, 2 ** (n - 1), 2 ** (n - 1))
            assert stack.dtype == float
            for c in stack:                           # orthogonal sectors
                np.testing.assert_allclose(c @ c.T, np.eye(len(c)), atol=1e-13)

    def test_other_bases_have_no_parity_split(self):
        _, basis = field_product_eigenbasis(3, 1.0)
        nudged = basis.copy()
        nudged[0, 5] = np.nextafter(nudged[0, 5].real, 1.0)
        assert parity_block_basis(nudged) is None
        assert parity_block_basis(1j * basis) is None
        assert parity_block_basis(np.eye(8)) is None
        rng = np.random.default_rng(9)
        _, generic = energy_eigenbasis(random_hermitian(rng, 8))
        assert parity_block_basis(generic) is None


class TestStackedObservables:
    """ergotropy and coherence_l1_energy_basis on a (K, dim, dim) stack give
    each state's one-state value bit for bit."""

    @staticmethod
    def _states(rng, n, count=6):
        states = []
        for k in range(count):
            rho = random_density_matrix(rng, 2**n)
            # every other state exactly flip-invariant
            states.append(0.5 * (rho + rho[::-1, ::-1]) if k % 2 else rho)
        return np.array(states)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_ergotropy_matches_each_state_bitwise(self, n):
        rng = np.random.default_rng(500 + n)
        stack = self._states(rng, n)
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.3, j_coupling=0.7))
        energies = np.linalg.eigvalsh(h_b)
        checks = check_state(stack, [0.0] * len(stack))
        populations = [c.populations for c in checks]
        for supplied in (populations, None):
            report = ergotropy(stack, h_b, energies, supplied)
            for k, rho in enumerate(stack):
                alone = ergotropy(
                    rho, h_b, energies, None if supplied is None else supplied[k]
                )
                assert report.w[k] == alone.w
                assert report.passive_energy[k] == alone.passive_energy
                assert report.ergotropy[k] == alone.ergotropy

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_coherence_matches_each_state_bitwise(self, n):
        rng = np.random.default_rng(600 + n)
        stack = self._states(rng, n)
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.3))
        _, basis = field_product_eigenbasis(n, 1.3)
        parity_basis = parity_block_basis(basis)
        blocks = [c.parity_blocks for c in check_state(stack, [0.0] * len(stack))]
        assert [b is not None for b in blocks] == [False, True] * 3
        for supplied, supplied_basis in ((blocks, parity_basis), (None, None)):
            values = coherence_l1_energy_basis(
                stack, h_b, basis=basis,
                parity_blocks=supplied, parity_basis=supplied_basis,
            )
            assert values.shape == (len(stack),)
            for k, rho in enumerate(stack):
                alone = coherence_l1_energy_basis(
                    rho, h_b, basis=basis,
                    parity_blocks=None if supplied is None else supplied[k],
                    parity_basis=supplied_basis,
                )
                assert values[k] == alone

    def test_stack_dimension_mismatch_raises(self):
        stack = np.array([np.eye(4) / 4] * 3, dtype=complex)
        with pytest.raises(ValueError, match="dimension mismatch"):
            ergotropy(stack, np.eye(8))
        with pytest.raises(ValueError, match="dimension mismatch"):
            coherence_l1_energy_basis(stack, np.eye(8))


class TestExtractionRatio:
    def test_regular_value(self):
        assert extraction_ratio(0.5, 2.0) == pytest.approx(0.25)

    def test_none_below_floor(self):
        assert extraction_ratio(0.0, 0.0) is None
        assert extraction_ratio(1e-12, STORED_ENERGY_FLOOR) is None
        assert extraction_ratio(1e-12, -STORED_ENERGY_FLOOR) is None

    def test_defined_just_above_floor(self):
        stored = STORED_ENERGY_FLOOR * 1.01
        assert extraction_ratio(stored, stored) == pytest.approx(1.0)

    def test_negative_stored_energy_keeps_sign(self):
        assert extraction_ratio(0.5, -1.0) == pytest.approx(-0.5)


class TestErgotropyHypothesis:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        dim=st.sampled_from([2, 4, 8]),
    )
    def test_unitary_invariance_of_passive_energy(self, seed, dim):
        # The passive energy depends only on the spectra, so conjugating
        # the state by any unitary leaves it unchanged.
        rng = np.random.default_rng(seed)
        rho = random_density_matrix(rng, dim)
        h = random_hermitian(rng, dim)
        q, _ = np.linalg.qr(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        rotated = q @ rho @ q.conj().T
        a = ergotropy(rho, h)
        b = ergotropy(rotated, h)
        assert a.passive_energy == pytest.approx(b.passive_energy, abs=1e-10)
