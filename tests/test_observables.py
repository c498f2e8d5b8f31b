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
from qbattery.dissipation import NoiseSpec
from qbattery.evolution import EvolutionConfig, check_state, evolve_stream
from qbattery.models import EffectiveCoupling, cyclic_shift
from qbattery.observables import (
    IMAG_TRACE_TOL,
    STORED_ENERGY_FLOOR,
    bit_flip_energy,
    bit_flip_terms,
    symmetric_basis,
)

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

    @pytest.mark.parametrize("dim", [4, 8, 16])
    def test_passive_states_are_floored_at_zero(self, dim):
        # passive states (populations descending on the ascending levels of
        # h) have no ergotropy; W - passive_energy is zero only up to the
        # round-off of its two sums, either sign, and the floor reads 0
        rng = np.random.default_rng(50 + dim)
        h = random_hermitian(rng, dim)
        _, vectors = np.linalg.eigh(h)
        states = []
        for _ in range(60):
            populations = np.sort(rng.dirichlet(np.ones(dim)))[::-1]
            states.append((vectors * populations) @ vectors.conj().T)
        report = ergotropy(np.array(states), h)
        gap = report.w - report.passive_energy
        assert (gap < 0).any() and (np.abs(gap) < 1e-14).all()
        np.testing.assert_array_equal(report.ergotropy, np.maximum(gap, 0.0))
        for k, rho in enumerate(states):
            alone = ergotropy(rho, h)
            assert alone.ergotropy == report.ergotropy[k] == max(gap[k], 0.0)
            assert isinstance(alone.ergotropy, float)

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
        group = check_state(rho, 0.0).group
        assert group == "P"
        got = coherence_l1_energy_basis(
            rho, h_b, basis=symmetric_basis(basis), groups=group
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
        assert check.group == "1"
        got = coherence_l1_energy_basis(
            rho, h_b, basis=symmetric_basis(basis), groups=check.group
        )
        assert got == _full_transform_coherence(rho, basis)

    def test_field_product_basis_is_parity_adapted(self):
        for n in range(1, 9):
            _, basis = field_product_eigenbasis(n, 1.0)
            stack = symmetric_basis(basis).parts["P"][1]
            assert stack.shape == (2, 2 ** (n - 1), 2 ** (n - 1))
            assert stack.dtype == float
            for c in stack:                           # orthogonal sectors
                np.testing.assert_allclose(c @ c.T, np.eye(len(c)), atol=1e-13)

    def test_other_bases_have_no_parity_split(self):
        _, basis = field_product_eigenbasis(3, 1.0)
        nudged = basis.copy()
        nudged[0, 5] = np.nextafter(nudged[0, 5].real, 1.0)
        assert "P" not in symmetric_basis(nudged).parts
        assert symmetric_basis(1j * basis).parts == {}
        assert "P" not in symmetric_basis(np.eye(8)).parts
        rng = np.random.default_rng(9)
        _, generic = energy_eigenbasis(random_hermitian(rng, 8))
        assert symmetric_basis(generic).parts == {}


def _run_states(channel, topology, n, count=4):
    """The first `count` samples after t = 0 of a run from |->^N with the
    presets' reservoir (gamma 0.2, cross rate 0.01 e^{i pi/3}; Ising-z
    j_z = 1 for dephasing, XX + DM 1.2 + 0.2i for damping)."""
    coupling = None
    if topology != "local" and channel == "dephasing":
        coupling = EffectiveCoupling("ising_z", j_z=1.0, interaction_range=topology)
    elif topology != "local":
        coupling = EffectiveCoupling(
            "xx_dm", j_xx=1.2, d_dm=0.2, interaction_range=topology
        )
    spec = NoiseSpec(
        channel=channel,
        topology=topology,
        gamma=0.2,
        gamma_offdiag=0.0 if topology == "local" else 0.01 * np.exp(1j * np.pi / 3),
        coupling=coupling,
    )
    cfg = EvolutionConfig(t_max=0.01 * count, dt_sample=0.01)
    states = [rho for t, rho in evolve_stream(product_minus_state(n), spec, cfg)]
    return np.array(states[1:])


def _shift_averaged(rho):
    """rho averaged over the cyclic site shift: T-invariant up to
    round-off, not bit for bit."""
    shift = cyclic_shift(int(rho.shape[0]).bit_length() - 1)
    index = np.arange(len(rho))
    total = np.zeros_like(rho)
    for _ in range(int(rho.shape[0]).bit_length() - 1):
        total += rho[np.ix_(index, index)]
        index = shift[index]
    return total / (int(rho.shape[0]).bit_length() - 1)


class TestBitFlipEnergy:
    @pytest.mark.parametrize("j_coupling", [0.0, 0.7])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_expectation(self, n, j_coupling):
        rng = np.random.default_rng(700 + n)
        h_b = battery_hamiltonian(
            BatteryModel(n_sites=n, h=1.3, j_coupling=j_coupling)
        )
        terms = bit_flip_terms(h_b)
        assert terms is not None
        assert terms.field == 0.65
        assert (terms.diagonal is None) == (j_coupling == 0.0 or n == 1)
        states = [random_density_matrix(rng, 2**n) for _ in range(3)]
        states.append(product_minus_state(n))
        for rho in states:
            assert bit_flip_energy(rho, terms) == pytest.approx(
                expectation(rho, h_b), rel=0, abs=1e-13
            )
        stack = np.array(states)
        np.testing.assert_allclose(
            bit_flip_energy(stack, terms), expectation(stack, h_b),
            rtol=0, atol=1e-13,
        )

    @pytest.mark.parametrize("j_coupling", [0.0, 0.7])
    def test_imaginary_residue_raises_as_expectation_does(self, j_coupling):
        # an anti-Hermitian part on one bit-flip pair: Tr[H rho] gains
        # i field (2 x) for the (a, a ^ bit) pair; at x = IMAG_TRACE_TOL
        # both raise, at a tenth of it neither does
        n = 3
        h_b = battery_hamiltonian(
            BatteryModel(n_sites=n, h=1.0, j_coupling=j_coupling)
        )
        terms = bit_flip_terms(h_b)
        for scale, raises in ((IMAG_TRACE_TOL, True), (0.1 * IMAG_TRACE_TOL, False)):
            rho = product_minus_state(n).astype(complex)
            rho[0, 1] += 1j * scale
            rho[1, 0] += 1j * scale
            stack = np.array([product_minus_state(n), rho])
            for state in (rho, stack):
                if raises:
                    with pytest.raises(ValueError, match="imaginary residue"):
                        expectation(state, h_b)
                    with pytest.raises(ValueError, match="imaginary residue"):
                        bit_flip_energy(state, terms)
                else:
                    np.testing.assert_allclose(
                        bit_flip_energy(state, terms), expectation(state, h_b),
                        rtol=0, atol=1e-13,
                    )

    def test_other_matrices_have_no_terms(self):
        h_b = battery_hamiltonian(BatteryModel(n_sites=3, h=1.0, j_coupling=0.5))
        nudged = h_b.copy()
        nudged[0, 4] = np.nextafter(nudged[0, 4].real, 1.0)
        assert bit_flip_terms(nudged) is None
        extra = h_b.copy()
        extra[0, 3] = 1e-300
        assert bit_flip_terms(extra) is None
        assert bit_flip_terms(1j * h_b) is None
        assert bit_flip_terms(h_b + 1e-3j * np.eye(8)) is None
        assert bit_flip_terms(np.eye(6)) is None
        rng = np.random.default_rng(3)
        assert bit_flip_terms(random_hermitian(rng, 8)) is None

    def test_ergotropy_reads_the_bit_flip_energy(self):
        rng = np.random.default_rng(77)
        n = 4
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.3, j_coupling=0.7))
        energies = np.linalg.eigvalsh(h_b)
        terms = bit_flip_terms(h_b)
        rho = random_density_matrix(rng, 2**n)
        report = ergotropy(rho, h_b, energies, flip_terms=terms)
        assert report.w == bit_flip_energy(rho, terms)
        plain = ergotropy(rho, h_b, energies)
        assert report.passive_energy == plain.passive_energy
        assert report.w == pytest.approx(plain.w, rel=0, abs=1e-13)


class TestTranslationCoherence:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_field_product_basis_is_permuted(self, n):
        _, basis = field_product_eigenbasis(n, 1.0)
        kept, coordinates, weights, diagonal = symmetric_basis(basis).parts["T"]
        representatives = diagonal[1][0]
        dim = 2**n
        # the orbits of the column permutation are those of T on the bit
        # patterns: as many, of the same sizes
        assert weights.sum() == dim
        patterns = np.arange(dim)
        shift = cyclic_shift(n)
        orbit_min = patterns.copy()
        image = patterns
        for _ in range(n - 1):
            image = shift[image]
            orbit_min = np.minimum(orbit_min, image)
        assert len(representatives) == len(np.unique(orbit_min))
        assert sorted(weights[0].tolist()) == sorted(
            np.bincount(orbit_min)[np.unique(orbit_min)].tolist()
        )
        np.testing.assert_array_equal(
            kept[0], np.real(basis[:, representatives]).T
        )
        np.testing.assert_array_equal(coordinates[0], np.real(basis).T)

    def test_other_bases_have_none(self):
        _, basis = field_product_eigenbasis(3, 1.0)
        nudged = basis.copy()
        nudged[0, 5] = np.nextafter(nudged[0, 5].real, 1.0)
        assert "T" not in symmetric_basis(nudged).parts
        assert symmetric_basis(1j * basis).parts == {}
        # N = 1: the shift is the identity and resolves nothing
        assert "T" not in symmetric_basis(field_product_eigenbasis(1, 1.0)[1]).parts
        # the interacting battery's eigenvectors include odd momentum
        # states, which T maps onto minus themselves, not onto a column
        h_b = battery_hamiltonian(BatteryModel(n_sites=4, h=1.0, j_coupling=0.7))
        assert "T" not in symmetric_basis(energy_eigenbasis(h_b)[1]).parts
        assert symmetric_basis(np.eye(6)).parts == {}

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_full_transform(self, n):
        rng = np.random.default_rng(800 + n)
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.3))
        _, basis = field_product_eigenbasis(n, 1.3)
        prepared = symmetric_basis(basis)
        states = [_shift_averaged(random_density_matrix(rng, 2**n))]
        for channel in ("dephasing", "amplitude_damping"):
            states.extend(_run_states(channel, "nearest_neighbor", n, 2))
        # one name stands for every state of a stack
        stacked = coherence_l1_energy_basis(
            np.array(states), h_b, basis=prepared, groups="T"
        )
        for k, rho in enumerate(states):
            got = coherence_l1_energy_basis(
                rho, h_b, basis=prepared, groups="T"
            )
            assert got == stacked[k]
            assert got == pytest.approx(
                _full_transform_coherence(rho, basis), rel=1e-12, abs=1e-13
            )

    def test_unresolved_states_take_the_other_paths(self):
        rng = np.random.default_rng(31)
        n = 4
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.0))
        _, basis = field_product_eigenbasis(n, 1.0)
        rho = random_density_matrix(rng, 2**n)
        plain = coherence_l1_energy_basis(rho, h_b, basis=basis)
        assert plain == _full_transform_coherence(rho, basis)
        # no group: the rows are not used
        for groups in ("1", None):
            assert coherence_l1_energy_basis(
                rho, h_b, basis=symmetric_basis(basis), groups=groups
            ) == plain
        # a group but a basis not prepared for it: the full transform
        assert coherence_l1_energy_basis(
            rho, h_b, basis=basis, groups="TP"
        ) == plain


class TestChunkIndependence:
    """Every value the runner measures on a stack (check_state records,
    spectra, W, ergotropy, coherence) is bitwise the one-state value, for
    ring (N = 2..8; a ring needs two cells) and local (N = 1..8) runs of
    both channels."""

    @pytest.mark.parametrize(
        "topology, n",
        [("nearest_neighbor", n) for n in range(2, 9)]
        + [("local", n) for n in range(1, 9)],
    )
    @pytest.mark.parametrize("channel", ["dephasing", "amplitude_damping"])
    def test_stacked_values_are_the_one_state_values(self, channel, topology, n):
        stack = _run_states(channel, topology, n)
        times = [0.01 * (k + 1) for k in range(len(stack))]
        h_b = battery_hamiltonian(BatteryModel(n_sites=n, h=1.0))
        energies = np.linalg.eigvalsh(h_b)
        basis = symmetric_basis(field_product_eigenbasis(n, 1.0)[1])
        terms = bit_flip_terms(h_b)
        checks = check_state(stack, times)
        # T-resolved from N = 3 on; exactly T-invariant at every N
        assert ["T" in c.group for c in checks] == [n >= 3] * len(stack)
        report = ergotropy(
            stack, h_b, energies, [c.populations for c in checks], terms
        )
        coherence = coherence_l1_energy_basis(
            stack, h_b, basis=basis, groups=[c.group for c in checks]
        )
        w = bit_flip_energy(stack, terms)
        for k, (rho, t) in enumerate(zip(stack, times)):
            alone = check_state(rho, t)
            assert alone.populations.tobytes() == checks[k].populations.tobytes()
            assert alone.trace_drift == checks[k].trace_drift
            assert alone.herm_drift == checks[k].herm_drift
            assert alone.group == checks[k].group
            assert bit_flip_energy(rho, terms) == w[k]
            one = ergotropy(rho, h_b, energies, alone.populations, terms)
            assert (one.w, one.passive_energy, one.ergotropy) == (
                report.w[k], report.passive_energy[k], report.ergotropy[k]
            )
            assert coherence_l1_energy_basis(
                rho, h_b, basis=basis, groups=alone.group
            ) == coherence[k]


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
        groups = [c.group for c in check_state(stack, [0.0] * len(stack))]
        assert groups == ["1", "P"] * 3
        for supplied, supplied_basis in (
            (groups, symmetric_basis(basis)), (None, basis)
        ):
            values = coherence_l1_energy_basis(
                stack, h_b, basis=supplied_basis, groups=supplied
            )
            assert values.shape == (len(stack),)
            for k, rho in enumerate(stack):
                alone = coherence_l1_energy_basis(
                    rho, h_b, basis=supplied_basis,
                    groups=None if supplied is None else supplied[k],
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
