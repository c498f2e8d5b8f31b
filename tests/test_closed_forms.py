"""Tests for the closed-form reference solutions.

Each closed form is checked three ways: against frozen numeric literals
(computed once, by hand, from the stated formulas), against an
independent adaptive integration of the literal master equation, and for
internal consistency (energies vs states, special-case reductions).
"""

import numpy as np
import pytest

from qbattery import (
    DephasingTwoQubitParams,
    NoiseSpec,
    build_gamma,
    correlated_dephasing_energy,
    correlated_dephasing_ergotropy_limit,
    correlated_dephasing_state,
    ergotropy,
    gamma_nn_eigenvalues,
    local_ad_state,
    local_dephasing_state,
    product_minus_state,
)
from qbattery.models import BatteryModel, EffectiveCoupling, battery_hamiltonian, effective_hamiltonian

from reference_impls import ref_jumps, solve_master_ivp

G12 = 0.01 * np.exp(1j * np.pi / 3)
PARAMS = DephasingTwoQubitParams(
    h=1.0, gamma=0.2, p=G12.real, q=G12.imag, j_z=1.0
)


def _open_pair_gamma(gamma: float, g12: complex):
    spec = NoiseSpec(
        channel="dephasing",
        topology="nearest_neighbor",
        gamma=gamma,
        gamma_offdiag=g12,
        periodic=False,
    )
    return build_gamma(spec, 2)


class TestLocalDephasingState:
    def test_frozen_literal(self):
        rho = local_dephasing_state(0.2, 0.7)
        assert rho[0, 1] == pytest.approx(-0.37789187072786273, abs=1e-15)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_initial_state_is_minus(self):
        np.testing.assert_allclose(
            local_dephasing_state(0.2, 0.0), product_minus_state(1), atol=1e-15
        )

    def test_matches_adaptive_integration(self):
        gamma = 0.2
        ts = np.array([0.0, 0.3, 1.0, 2.5])
        g = build_gamma(
            NoiseSpec(channel="dephasing", topology="local", gamma=gamma), 1
        )
        states = solve_master_ivp(
            np.zeros((2, 2), dtype=complex),
            g.matrix,
            ref_jumps("dephasing", 1),
            product_minus_state(1),
            ts,
        )
        for t, rho_ivp in zip(ts, states):
            np.testing.assert_allclose(
                local_dephasing_state(gamma, t), rho_ivp, atol=1e-10
            )

    def test_negative_time_raises(self):
        with pytest.raises(ValueError, match="t must be"):
            local_dephasing_state(0.2, -0.1)


class TestCorrelatedDephasingState:
    def test_frozen_literals_at_t07(self):
        rho = correlated_dephasing_state(PARAMS, 0.7)
        np.testing.assert_allclose(np.diag(rho), 0.25 * np.ones(4), atol=1e-15)
        assert rho[0, 1] == pytest.approx(
            -0.034369700360123115 + 0.1857936763932139j, abs=1e-15
        )
        assert rho[0, 2] == pytest.approx(
            -0.029854780444231947 + 0.1865723949976996j, abs=1e-15
        )
        assert rho[0, 3] == pytest.approx(0.14081696378050118, abs=1e-15)
        assert rho[1, 2] == pytest.approx(0.1448155578451955, abs=1e-15)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-15)

    def test_initial_state_is_double_minus(self):
        np.testing.assert_allclose(
            correlated_dephasing_state(PARAMS, 0.0),
            product_minus_state(2),
            atol=1e-15,
        )

    @pytest.mark.parametrize("t", [0.3, 0.7, 2.5])
    def test_matches_adaptive_integration(self, t):
        # Open-pair configuration: one bond carrying the full complex rate,
        # effective coupling j_z on the same single bond.
        g = _open_pair_gamma(PARAMS.gamma, G12)
        h_eff = effective_hamiltonian(
            EffectiveCoupling(kind="ising_z", j_z=PARAMS.j_z), 2, periodic=False
        )
        states = solve_master_ivp(
            h_eff,
            g.matrix,
            ref_jumps("dephasing", 2),
            product_minus_state(2),
            np.array([0.0, t]),
        )
        np.testing.assert_allclose(
            correlated_dephasing_state(PARAMS, t), states[-1], atol=1e-10
        )

    def test_uncorrelated_limit_factorizes(self):
        params = DephasingTwoQubitParams(h=1.0, gamma=0.2, p=0.0, q=0.0, j_z=0.0)
        for t in (0.0, 0.5, 2.0):
            single = local_dephasing_state(0.2, t)
            np.testing.assert_allclose(
                correlated_dephasing_state(params, t),
                np.kron(single, single),
                atol=1e-14,
            )

    def test_state_is_unit_trace_psd(self):
        for t in (0.1, 1.0, 10.0):
            rho = correlated_dephasing_state(PARAMS, t)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-12


class TestCorrelatedDephasingEnergy:
    def test_frozen_literal(self):
        assert correlated_dephasing_energy(PARAMS, 0.7) == pytest.approx(
            -0.12844896160871014, abs=1e-15
        )

    @pytest.mark.parametrize("t", [0.0, 0.3, 0.7, 1.9, 5.0])
    def test_consistent_with_state_trace(self, t):
        # Dual route: trace of H_B against the closed-form state.
        h_b = battery_hamiltonian(BatteryModel(n_sites=2, h=PARAMS.h))
        rho = correlated_dephasing_state(PARAMS, t)
        w_trace = float(np.real(np.trace(h_b @ rho)))
        assert correlated_dephasing_energy(PARAMS, t) == pytest.approx(
            w_trace, abs=1e-13
        )

    def test_initial_energy_is_minus_h(self):
        assert correlated_dephasing_energy(PARAMS, 0.0) == pytest.approx(-1.0)


class TestErgotropyLimit:
    def test_frozen_literal(self):
        assert correlated_dephasing_ergotropy_limit(PARAMS, 0.7) == pytest.approx(
            0.6272898087248368, abs=1e-14
        )

    def test_weak_correlation_limit_tracks_spectral_ergotropy(self):
        # gamma / |g12| = 20: the closed-form limit must track the exact
        # spectral ergotropy of the closed-form state to a few percent.
        h_b = battery_hamiltonian(BatteryModel(n_sites=2, h=PARAMS.h))
        for t in (0.25, 1.0, 3.0):
            exact = ergotropy(correlated_dephasing_state(PARAMS, t), h_b).ergotropy
            approx = correlated_dephasing_ergotropy_limit(PARAMS, t)
            assert approx == pytest.approx(exact, rel=0.02)

    def test_vanishes_at_long_times(self):
        assert abs(correlated_dephasing_ergotropy_limit(PARAMS, 250.0)) < 1e-3


class TestLocalAdState:
    def test_frozen_literal(self):
        rho = local_ad_state(0.2, 0.7)
        assert rho[0, 0] == pytest.approx(0.43467911769940293, abs=1e-15)
        assert rho[0, 1] == pytest.approx(-0.46619690995297414, abs=1e-15)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)

    def test_long_time_limit_is_all_down(self):
        np.testing.assert_allclose(
            local_ad_state(0.2, 1e4), np.diag([0.0, 1.0]), atol=1e-12
        )

    def test_matches_adaptive_integration(self):
        gamma = 0.2
        ts = np.array([0.0, 0.4, 1.3, 4.0])
        g = build_gamma(
            NoiseSpec(channel="amplitude_damping", topology="local", gamma=gamma),
            1,
        )
        states = solve_master_ivp(
            np.zeros((2, 2), dtype=complex),
            g.matrix,
            ref_jumps("amplitude_damping", 1),
            product_minus_state(1),
            ts,
        )
        for t, rho_ivp in zip(ts, states):
            np.testing.assert_allclose(
                local_ad_state(gamma, t), rho_ivp, atol=1e-10
            )


class TestGammaEigenvalues:
    def test_two_cell_reduction(self):
        vals = gamma_nn_eigenvalues(0.2, G12, 2)
        np.testing.assert_allclose(
            vals, [0.2 - 2 * G12.real, 0.2 + 2 * G12.real], atol=1e-15
        )

    @pytest.mark.parametrize("n", range(2, 9))
    def test_matches_matrix_spectrum(self, n):
        spec = NoiseSpec(
            channel="dephasing",
            topology="nearest_neighbor",
            gamma=0.37,
            gamma_offdiag=0.11 * np.exp(0.9j),
        )
        np.testing.assert_allclose(
            gamma_nn_eigenvalues(0.37, 0.11 * np.exp(0.9j), n),
            np.linalg.eigvalsh(build_gamma(spec, n).matrix),
            atol=1e-12,
        )

    def test_rejects_single_cell(self):
        with pytest.raises(ValueError, match="n must be"):
            gamma_nn_eigenvalues(0.2, 0.01, 1)


class TestParamGuards:
    def test_negative_gamma_raises(self):
        with pytest.raises(ValueError, match="gamma"):
            DephasingTwoQubitParams(h=1.0, gamma=-0.1, p=0.0, q=0.0, j_z=0.0)

    def test_negative_time_raises_everywhere(self):
        for fn in (
            lambda: correlated_dephasing_state(PARAMS, -1.0),
            lambda: correlated_dephasing_energy(PARAMS, -1.0),
            lambda: correlated_dephasing_ergotropy_limit(PARAMS, -1.0),
            lambda: local_ad_state(0.2, -1.0),
        ):
            with pytest.raises(ValueError, match="t must be"):
                fn()
