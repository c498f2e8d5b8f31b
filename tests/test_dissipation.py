"""Unit tests for rate matrices, CPTP validation, the jump operators and
the dissipator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery import (
    CptpViolationError,
    GammaMatrix,
    NoiseSpec,
    build_gamma,
    gamma_nn_eigenvalues,
    require_cptp,
    validate_cptp,
)
from qbattery.dissipation import TOPOLOGIES
from qbattery.evolution import _lowering_csrs, make_rhs
from qbattery.models import (
    EffectiveCoupling,
    effective_hamiltonian,
    site_z_signs,
    topology_bonds,
)

from reference_impls import SM, SZ, random_density_matrix, ref_embed

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "topology, gamma, offdiag, field",
        [
            ("local", math.inf, 0j, "gamma"),
            ("all_to_all", math.nan, 0.01j, "gamma"),
            ("nearest_neighbor", -math.inf, 0.01j, "gamma"),
            ("all_to_all", 0.2, complex(math.nan, 0.0), "gamma_offdiag"),
            ("nearest_neighbor", 0.2, complex(0.0, math.inf), "gamma_offdiag"),
        ],
    )
    def test_non_finite_rates_refused(self, topology, gamma, offdiag, field):
        # refused where they are given, before build_gamma's arithmetic
        # warns and the CPTP check fails with its sufficient bound satisfied
        with pytest.raises(ValueError, match=f"^{field} must be"):
            NoiseSpec("dephasing", topology, gamma, gamma_offdiag=offdiag)

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

    @pytest.mark.parametrize(
        "topology, interaction_range",
        [("nearest_neighbor", "all_to_all"), ("all_to_all", "nearest_neighbor")],
    )
    def test_coupling_range_must_equal_topology(self, topology, interaction_range):
        # an all-to-all H_eff on a ring rate matrix, or the reverse, would
        # couple other pairs than the rate matrix does
        coupling = EffectiveCoupling(
            "ising_z", j_z=1.0, interaction_range=interaction_range
        )
        message = f"{interaction_range!r} differs from topology {topology!r}"
        with pytest.raises(ValueError, match=message):
            NoiseSpec("dephasing", topology, 0.2, G12, coupling)


class TestOneBondSet:
    """The rate matrix and the effective Hamiltonian of one NoiseSpec couple
    the same pairs of cells: topology_bonds decides both."""

    @staticmethod
    def _h_eff_pairs(h_eff, n):
        # pair (j, k) is coupled when its zz weight (a projection, exact
        # only to round-off), or the hopping entry from the state with only
        # j down to the state with only k down, is nonzero; no other pair's
        # term reaches either
        signs = site_z_signs(n)
        pairs = set()
        for j in range(n):
            for k in range(j + 1, n):
                zz = np.mean(np.diag(h_eff) * signs[j] * signs[k])
                hop = h_eff[1 << (n - 1 - k), 1 << (n - 1 - j)]
                if abs(zz) > 1e-12 or hop != 0:
                    pairs.add((j, k))
        return pairs

    @pytest.mark.parametrize("kind", ["ising_z", "xx_dm"])
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_rate_matrix_and_h_eff_couple_the_same_pairs(
        self, topology, n, periodic, kind
    ):
        # G12 has a nonzero real part, so the periodic N = 2 ring's entry
        # 2 Re g12 is nonzero
        coupling = None
        if topology != "local":
            strengths = {"j_z": 0.7} if kind == "ising_z" else {"j_xx": 1.2, "d_dm": 0.2}
            coupling = EffectiveCoupling(kind, interaction_range=topology, **strengths)
        spec = NoiseSpec(
            "dephasing" if kind == "ising_z" else "amplitude_damping",
            topology,
            0.2,
            0j if topology == "local" else G12,
            coupling,
            periodic,
        )
        m = build_gamma(spec, n).matrix
        gamma_pairs = {(j, k) for j, k in zip(*np.nonzero(m)) if j < k}
        dim = 2**n
        h_eff = (
            np.zeros((dim, dim), dtype=complex) if coupling is None
            else effective_hamiltonian(coupling, n, periodic)
        )
        assert gamma_pairs == self._h_eff_pairs(h_eff, n)
        bonds = topology_bonds(topology, n, periodic)
        assert gamma_pairs == {(min(b), max(b)) for b in bonds}
        if topology == "nearest_neighbor" and n == 2 and periodic:
            assert m[0, 1] == 2 * G12.real


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


def _sigma_z(n):
    """The dephasing jumps production uses: sigma^z_i as the diagonal of
    models.site_z_signs(n)[i]."""
    return [np.diag(row).astype(complex) for row in site_z_signs(n)]


def _sigma_minus(n):
    """The amplitude-damping jumps production uses (evolution's sigma^-
    CSRs), dense."""
    return [op.toarray() for op in _lowering_csrs(n)]


class TestJumpOperators:
    # The generator's jump operators against explicit Kronecker chains.
    # Values only: a Kronecker chain writes some zeros as -0.0.
    def test_dephasing_jumps_are_embedded_sigma_z(self):
        for n in range(1, 7):
            ls = _sigma_z(n)
            assert len(ls) == n
            for i, l in enumerate(ls):
                np.testing.assert_array_equal(l, ref_embed(SZ, i, n))

    def test_damping_jumps_are_embedded_sigma_minus(self):
        for n in range(1, 7):
            ls = _lowering_csrs(n)
            assert len(ls) == n
            for i, l in enumerate(ls):
                assert l.dtype == complex
                np.testing.assert_array_equal(l.toarray(), ref_embed(SM, i, n))

    def test_site_zero_is_most_significant_bit(self):
        # sigma^z_0 on 3 cells is sz (x) id (x) id: its diagonal flips sign
        # exactly at the most significant bit of the basis index.
        expected = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        np.testing.assert_array_equal(site_z_signs(3)[0], expected)

    def test_last_site_toggles_least_significant_bit(self):
        expected = np.array([1, -1, 1, -1, 1, -1, 1, -1])
        np.testing.assert_array_equal(site_z_signs(3)[2], expected)

    def test_lowering_demotes_up_to_down(self):
        # sigma^-_i sends |a> with site i up (bit 0) to |a with bit set>
        # and annihilates |a> with site i down.
        n, dim = 3, 8
        for i, sm in enumerate(_lowering_csrs(n)):
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
        for sz, sm in zip(_sigma_z(n), _sigma_minus(n)):
            sp = sm.conj().T
            np.testing.assert_array_equal(sz @ sz, eye)
            np.testing.assert_array_equal(sm @ sm, 0 * eye)
            np.testing.assert_array_equal(sp @ sm - sm @ sp, sz)
            np.testing.assert_array_equal(sp @ sm + sm @ sp, eye)

    def test_different_sites_commute(self):
        szs, sms = _sigma_z(3), _sigma_minus(3)
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                a, b = sms[i], sms[j].conj().T
                np.testing.assert_array_equal(a @ b - b @ a, 0 * a)
                a, b = sms[i], szs[j]
                np.testing.assert_array_equal(a @ b - b @ a, 0 * a)

    def test_returns_fresh_arrays(self):
        site_z_signs(2)[0, 0] = 99.0
        np.testing.assert_array_equal(_sigma_z(2)[0], ref_embed(SZ, 0, 2))
        _lowering_csrs(2)[0].data[:] = 99.0
        np.testing.assert_array_equal(_sigma_minus(2)[0], ref_embed(SM, 0, 2))


class TestDissipatorApply:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        channel=st.sampled_from(["dephasing", "amplitude_damping"]),
        n=st.integers(min_value=2, max_value=3),
    )
    def test_traceless_and_hermiticity_preserving(self, seed, channel, n):
        # the production generator with H_eff = 0 is the dissipator alone
        rng = np.random.default_rng(seed)
        gamma = float(rng.uniform(0.05, 1.0))
        mod = float(rng.uniform(0.0, gamma / 2.0))
        phase = float(rng.uniform(0.0, 2 * np.pi))
        g = build_gamma(
            _nn_spec(gamma=gamma, offdiag=mod * np.exp(1j * phase), channel=channel),
            n,
        )
        rho = random_density_matrix(rng, 2**n)
        out = make_rhs(np.zeros((2**n, 2**n)), g, channel)(rho)
        assert abs(np.trace(out)) < 1e-13
        np.testing.assert_allclose(out, out.conj().T, atol=1e-13)
