"""Unit tests for rate matrices, CPTP validation, and the dissipator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import (
    CptpViolationError,
    GammaMatrix,
    NoiseSpec,
    build_gamma,
    dissipator_apply,
    gamma_nn_eigenvalues,
    jump_operators,
    require_cptp,
    validate_cptp,
)
from qbattery.models import EffectiveCoupling

from reference_impls import (
    SM,
    SZ,
    random_density_matrix,
    ref_dissipator,
    ref_embed,
)

G12 = 0.01 * np.exp(1j * np.pi / 3)


def _nn_spec(gamma=0.2, offdiag=G12, periodic=True, channel="dephasing"):
    return NoiseSpec(
        channel=channel,
        topology="nearest_neighbor",
        gamma=gamma,
        gamma_offdiag=offdiag,
        periodic=periodic,
    )


class TestBuildGamma:
    def test_local_is_diagonal(self):
        g = build_gamma(
            NoiseSpec(channel="dephasing", topology="local", gamma=0.3), 3
        )
        np.testing.assert_array_equal(g.matrix, 0.3 * np.eye(3))

    def test_two_cell_ring_doubles_real_part(self):
        # Both orientations of the single pair hit the same entry, so the
        # N = 2 ring carries 2 Re(g12) off the diagonal.
        g = build_gamma(_nn_spec(), 2)
        expected = np.array(
            [[0.2, 2 * G12.real], [2 * G12.real, 0.2]], dtype=complex
        )
        np.testing.assert_allclose(g.matrix, expected, atol=1e-15)

    def test_two_cell_open_pair_keeps_complex_rate(self):
        g = build_gamma(_nn_spec(periodic=False), 2)
        expected = np.array([[0.2, G12], [np.conj(G12), 0.2]])
        np.testing.assert_allclose(g.matrix, expected, atol=1e-15)

    def test_three_cell_ring_literal(self):
        g = build_gamma(_nn_spec(), 3)
        c = np.conj(G12)
        expected = np.array(
            [
                [0.2, G12, c],
                [c, 0.2, G12],
                [G12, c, 0.2],
            ]
        )
        np.testing.assert_allclose(g.matrix, expected, atol=1e-15)

    def test_open_chain_is_tridiagonal(self):
        g = build_gamma(_nn_spec(periodic=False), 4)
        assert g.matrix[0, 3] == 0 and g.matrix[3, 0] == 0
        assert g.matrix[0, 2] == 0 and g.matrix[1, 3] == 0
        np.testing.assert_allclose(np.diag(g.matrix), 0.2 * np.ones(4))
        np.testing.assert_allclose(
            np.diag(g.matrix, k=1), np.full(3, G12), atol=1e-15
        )
        np.testing.assert_allclose(
            np.diag(g.matrix, k=-1), np.full(3, np.conj(G12)), atol=1e-15
        )

    def test_all_to_all_literal(self):
        g = build_gamma(
            NoiseSpec(
                channel="amplitude_damping",
                topology="all_to_all",
                gamma=0.2,
                gamma_offdiag=G12,
            ),
            4,
        )
        m = g.matrix
        for j in range(4):
            for k in range(4):
                if j == k:
                    assert m[j, k] == pytest.approx(0.2)
                elif j < k:
                    assert m[j, k] == pytest.approx(G12)
                else:
                    assert m[j, k] == pytest.approx(np.conj(G12))

    def test_hermitian_by_construction(self):
        for topology in ("local", "nearest_neighbor", "all_to_all"):
            spec = NoiseSpec(
                channel="dephasing",
                topology=topology,
                gamma=0.5,
                gamma_offdiag=0j if topology == "local" else 0.1j,
            )
            m = build_gamma(spec, 4).matrix
            np.testing.assert_allclose(m, m.conj().T, atol=1e-15)

    def test_correlated_topology_needs_two_cells(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_gamma(_nn_spec(), 1)
        with pytest.raises(ValueError, match="n_sites"):
            build_gamma(_nn_spec(), 0)


class TestNoiseSpecGuards:
    def test_unknown_channel(self):
        with pytest.raises(ValueError, match="unknown channel"):
            NoiseSpec(channel="depolarizing", topology="local", gamma=0.1)

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            NoiseSpec(channel="dephasing", topology="star", gamma=0.1)

    def test_negative_rate(self):
        with pytest.raises(ValueError, match="gamma"):
            NoiseSpec(channel="dephasing", topology="local", gamma=-0.1)

    def test_local_forbids_cross_rates(self):
        with pytest.raises(ValueError, match="gamma_offdiag"):
            NoiseSpec(
                channel="dephasing",
                topology="local",
                gamma=0.1,
                gamma_offdiag=0.01,
            )

    def test_local_forbids_coherent_coupling(self):
        with pytest.raises(ValueError, match="zero effective coupling"):
            NoiseSpec(
                channel="dephasing",
                topology="local",
                gamma=0.1,
                coupling=EffectiveCoupling(kind="ising_z", j_z=1.0),
            )
        # A zero-strength coupling object is acceptable:
        NoiseSpec(
            channel="dephasing",
            topology="local",
            gamma=0.1,
            coupling=EffectiveCoupling(kind="ising_z"),
        )


class TestSpectrumClosedForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_ring_spectrum_matches_closed_form(self, n):
        rng = np.random.default_rng(n)
        gamma = float(rng.uniform(0.1, 1.0))
        mod = float(rng.uniform(0.0, gamma / 2.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        g12 = mod * np.exp(1j * phase)
        g = build_gamma(_nn_spec(gamma=gamma, offdiag=g12), n)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(g.matrix),
            gamma_nn_eigenvalues(gamma, g12, n),
            atol=1e-12,
        )

    def test_two_cell_ring_spectrum_literal(self):
        # gamma +- 2 Re(g12): the doubled bond makes the modulus direction-
        # independent only through its real part.
        vals = gamma_nn_eigenvalues(0.2, G12, 2)
        np.testing.assert_allclose(
            vals, [0.2 - 2 * G12.real, 0.2 + 2 * G12.real], atol=1e-15
        )


class TestCptpValidation:
    def test_weak_local_rate_with_strong_cross_rate_is_refused(self):
        # gamma/|g12| = 0.5 violates positivity on the ring for every size.
        for n in (2, 3, 5):
            g = build_gamma(_nn_spec(gamma=0.01, offdiag=0.02), n)
            report = validate_cptp(g)
            assert not report.valid
            assert not report.analytic_bound_satisfied
            assert report.min_eigenvalue < -1e-6
            with pytest.raises(CptpViolationError, match="gamma >= 2"):
                require_cptp(g)

    def test_psd_overrides_violated_sufficient_bound(self):
        # All-to-all with complex phase: the sufficient bound
        # gamma >= (N-1)|g12| fails, yet the matrix is genuinely PSD, and
        # PSD is the authoritative decision.
        spec = NoiseSpec(
            channel="dephasing",
            topology="all_to_all",
            gamma=0.2,
            gamma_offdiag=0.06 * np.exp(1j * np.pi / 3),
        )
        report = validate_cptp(build_gamma(spec, 6))
        assert report.valid
        assert not report.analytic_bound_satisfied
        assert report.min_eigenvalue > 0.02
        require_cptp(build_gamma(spec, 6))  # must not raise

    def test_strong_all_to_all_rate_fails_psd(self):
        spec = NoiseSpec(
            channel="dephasing",
            topology="all_to_all",
            gamma=0.2,
            gamma_offdiag=0.3 * np.exp(1j * np.pi / 3),
        )
        report = validate_cptp(build_gamma(spec, 6))
        assert not report.valid
        assert report.min_eigenvalue < -0.5
        with pytest.raises(CptpViolationError, match="not positive semidefinite"):
            require_cptp(build_gamma(spec, 6))

    def test_local_always_valid(self):
        g = build_gamma(
            NoiseSpec(channel="amplitude_damping", topology="local", gamma=5.0), 2
        )
        report = validate_cptp(g)
        assert report.valid and report.analytic_bound_satisfied

    def test_bound_description_quotes_numbers(self):
        g = build_gamma(_nn_spec(gamma=0.2, offdiag=0.01), 3)
        report = validate_cptp(g)
        assert "0.2" in report.bound_description
        assert "0.02" in report.bound_description

    def test_gamma_matrix_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            GammaMatrix(
                matrix=np.array([[0.1, 0.05], [0.0, 0.1]]),
                topology="nearest_neighbor",
                gamma=0.1,
                gamma_offdiag=0.05,
            )

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_sufficient_bound_implies_psd_on_ring(self, n, seed):
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 1.0))
        mod = float(rng.uniform(0.0, gamma / 2.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        g = build_gamma(
            _nn_spec(gamma=gamma, offdiag=mod * np.exp(1j * phase)), n
        )
        report = validate_cptp(g)
        assert report.analytic_bound_satisfied
        assert report.valid


class TestJumpOperators:
    # Values only: a Kronecker chain writes some zeros as -0.0.
    def test_dephasing_jumps_are_embedded_sigma_z(self):
        for n in range(1, 7):
            ls = jump_operators("dephasing", n)
            assert len(ls) == n
            for i, l in enumerate(ls):
                assert l.dtype == complex
                np.testing.assert_array_equal(l, ref_embed(SZ, i, n))

    def test_damping_jumps_are_embedded_sigma_minus(self):
        for n in range(1, 7):
            ls = jump_operators("amplitude_damping", n)
            assert len(ls) == n
            for i, l in enumerate(ls):
                assert l.dtype == complex
                np.testing.assert_array_equal(l, ref_embed(SM, i, n))

    def test_site_zero_is_most_significant_bit(self):
        # sigma^z_0 on 3 cells is sz (x) id (x) id: its diagonal flips sign
        # exactly at the most significant bit of the basis index.
        sz0 = jump_operators("dephasing", 3)[0]
        expected = np.array([1, 1, 1, 1, -1, -1, -1, -1], dtype=complex)
        np.testing.assert_array_equal(np.diag(sz0), expected)

    def test_last_site_toggles_least_significant_bit(self):
        sz2 = jump_operators("dephasing", 3)[2]
        expected = np.array([1, -1, 1, -1, 1, -1, 1, -1], dtype=complex)
        np.testing.assert_array_equal(np.diag(sz2), expected)

    def test_lowering_demotes_up_to_down(self):
        # sigma^-_i sends |a> with site i up (bit 0) to |a with bit set>
        # and annihilates |a> with site i down.
        n, dim = 3, 8
        for i, sm in enumerate(jump_operators("amplitude_damping", n)):
            bit = 1 << (n - 1 - i)
            for a in range(dim):
                ket = np.zeros(dim, dtype=complex)
                ket[a] = 1.0
                expected = np.zeros(dim, dtype=complex)
                if not a & bit:
                    expected[a | bit] = 1.0
                np.testing.assert_array_equal(sm @ ket, expected)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_single_site_algebra(self, n):
        eye = np.eye(2**n)
        szs = jump_operators("dephasing", n)
        sms = jump_operators("amplitude_damping", n)
        for sz, sm in zip(szs, sms):
            sp = sm.conj().T
            np.testing.assert_array_equal(sz @ sz, eye)
            np.testing.assert_array_equal(sm @ sm, 0 * eye)
            np.testing.assert_array_equal(sp @ sm - sm @ sp, sz)
            np.testing.assert_array_equal(sp @ sm + sm @ sp, eye)

    def test_different_sites_commute(self):
        szs = jump_operators("dephasing", 3)
        sms = jump_operators("amplitude_damping", 3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                a, b = sms[i], sms[j].conj().T
                np.testing.assert_array_equal(a @ b - b @ a, 0 * a)
                a, b = sms[i], szs[j]
                np.testing.assert_array_equal(a @ b - b @ a, 0 * a)

    def test_returns_fresh_arrays(self):
        for channel in ("dephasing", "amplitude_damping"):
            first = jump_operators(channel, 2)
            first[0][0, 0] = 99.0
            np.testing.assert_array_equal(
                jump_operators(channel, 2)[0],
                ref_embed(SZ if channel == "dephasing" else SM, 0, 2),
            )

    def test_unknown_channel_raises(self):
        with pytest.raises(ValueError, match="unknown channel"):
            jump_operators("thermal", 2)


class TestDissipatorApply:
    @pytest.mark.parametrize("channel", ["dephasing", "amplitude_damping"])
    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_literal_double_sum(self, channel, n):
        rng = np.random.default_rng(17 * n)
        g = build_gamma(_nn_spec(channel=channel), n)
        rho = random_density_matrix(rng, 2**n)
        got = dissipator_apply(g, channel, rho)
        expected = ref_dissipator(g.matrix, jump_operators(channel, n), rho)
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_all_to_all_matches_literal(self):
        rng = np.random.default_rng(5)
        spec = NoiseSpec(
            channel="amplitude_damping",
            topology="all_to_all",
            gamma=0.2,
            gamma_offdiag=0.05j,
        )
        g = build_gamma(spec, 3)
        rho = random_density_matrix(rng, 8)
        got = dissipator_apply(g, "amplitude_damping", rho)
        expected = ref_dissipator(
            g.matrix, jump_operators("amplitude_damping", 3), rho
        )
        np.testing.assert_allclose(got, expected, atol=1e-14)

    def test_dimension_mismatch_raises(self):
        g = build_gamma(_nn_spec(), 3)
        with pytest.raises(ValueError, match="dimension"):
            dissipator_apply(g, "dephasing", np.eye(4) / 4)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        channel=st.sampled_from(["dephasing", "amplitude_damping"]),
        n=st.integers(min_value=2, max_value=3),
    )
    def test_traceless_and_hermiticity_preserving(self, seed, channel, n):
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 1.0))
        mod = float(rng.uniform(0.0, gamma / 2.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        g = build_gamma(
            _nn_spec(gamma=gamma, offdiag=mod * np.exp(1j * phase), channel=channel),
            n,
        )
        rho = random_density_matrix(rng, 2**n)
        out = dissipator_apply(g, channel, rho)
        assert abs(np.trace(out)) < 1e-13
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13)
