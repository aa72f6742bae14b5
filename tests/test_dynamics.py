"""Evolution parameters, factored/dense propagators, weak approximation."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoweak import (DEFAULT_TOL, DensityMatrix, LayoutError, LindbladParams,
                      TruncationError, coherent_state, dense_propagator,
                      evolution_params, evolve_master, factored_propagate,
                      fock_state, lindblad_rhs, pointer_shift, position,
                      reduced_density, tensor, vacuum_state,
                      weak_approx_propagate)
from optoweak.fock import _displacement_powers
from optoweak.verify import _factored_block


class TestEvolutionParams:
    def test_zero_time(self):
        p = evolution_params(0.7, 0.0)
        assert p.kerr_phase == 0.0
        assert p.disp_param == 0.0
        assert p.disp_sum == 0.0

    def test_half_period_displacement_exact(self):
        p = evolution_params(0.005, math.pi)
        # e^{-i pi} = -1, so phi = 2k exactly
        assert p.disp_param == pytest.approx(0.01, abs=1e-17)
        assert abs(p.disp_param.imag) < 1e-17
        assert p.disp_sum == pytest.approx(0.02, abs=1e-16)

    def test_kerr_phase_against_mpmath(self):
        mpmath.mp.dps = 40
        oracle = float(mpmath.mpf("0.005") ** 2 * (mpmath.pi - mpmath.sin(mpmath.pi)))
        p = evolution_params(0.005, math.pi)
        assert p.kerr_phase == pytest.approx(oracle, rel=1e-15)
        assert p.kerr_phase == pytest.approx(7.853981633974483e-5, rel=1e-12)

    @given(st.floats(0.0, 0.3), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=50, deadline=None)
    def test_abs_disp_from_complex_value(self, k, wt):
        p = evolution_params(k, wt)
        assert p.abs_disp == pytest.approx(2 * k * abs(math.sin(wt / 2)), abs=1e-12)
        assert p.disp_sum == pytest.approx(2 * k * (1 - math.cos(wt)), abs=1e-12)

    def test_negative_k_rejected(self):
        with pytest.raises(LayoutError):
            evolution_params(-0.1, 1.0)


class TestFactoredPropagate:
    def test_zero_time_is_identity(self):
        s = tensor([coherent_state(0.8, 8, "a", leakage_tol=1.0),
                    coherent_state(0.1, 6, "m", leakage_tol=1.0)])
        out = factored_propagate(s, evolution_params(0.2, 0.0))
        assert np.abs(out.amplitudes - s.amplitudes).max() < 1e-14

    def test_vacuum_uncoupled(self):
        s = tensor([vacuum_state(4, "a"), vacuum_state(6, "m")])
        out = factored_propagate(s, evolution_params(0.1, math.pi))
        assert np.abs(out.amplitudes - s.amplitudes).max() < 1e-14

    def test_single_photon_displaces_mirror(self):
        # one photon, half period: mirror ends in |phi> with phi = 0.2
        s = tensor([fock_state(1, 1, "a"), vacuum_state(10, "m")])
        out = factored_propagate(s, evolution_params(0.1, math.pi))
        cond = reduced_density(out, ("m",))
        ref = coherent_state(0.2, 10, "m", leakage_tol=1.0).normalize()
        fidelity = float(np.real(ref.amplitudes.conj() @ cond.matrix @ ref.amplitudes))
        assert fidelity == pytest.approx(1.0, abs=1e-10)
        q = pointer_shift(cond, DensityMatrix.from_state(vacuum_state(10, "m")),
                          position(10, 1.0, "m"))
        assert q == pytest.approx(0.4, abs=1e-10)

    @given(st.floats(0.0, 0.08), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, k, wt):
        s = tensor([coherent_state(1.0, 9, "a", leakage_tol=1.0),
                    vacuum_state(12, "m")]).normalize()
        out = factored_propagate(s, evolution_params(k, wt))
        assert out.norm == pytest.approx(1.0, abs=1e-10)

    def test_mirror_cutoff_too_small_raises(self):
        s = tensor([fock_state(1, 1, "a"), vacuum_state(1, "m")])
        with pytest.raises(TruncationError):
            factored_propagate(s, evolution_params(0.25, math.pi))

    def test_warns_when_displacement_large_for_mirror_cutoff(self):
        # |6 phi|^2 = 9 > 0.25 * 20 with phi = 2k = 0.5; the mirror tail
        # still passes, so only the warning flags it
        s = tensor([coherent_state(0.3, 6, "a", leakage_tol=1.0),
                    vacuum_state(20, "m")]).normalize()
        params = evolution_params(0.25, math.pi)
        with pytest.warns(UserWarning, match="not small against cutoff 20"):
            factored_propagate(s, params)
        wide = tensor([coherent_state(0.3, 6, "a", leakage_tol=1.0),
                       vacuum_state(40, "m")]).normalize()
        factored_propagate(wide, params)  # 9 < 0.25 * 40: silent under filterwarnings=error


class TestDensePropagator:
    def test_zero_time_identity(self):
        u = dense_propagator(0.1, 0.0, 3, 5)
        assert np.abs(u.matrix - np.eye(u.layout.dim)).max() < 1e-12

    def test_uncoupled_is_diagonal_phases(self):
        wt = 0.9
        u = dense_propagator(0.0, wt, 2, 3)
        ref = np.zeros((12, 12), dtype=complex)
        for na in range(3):
            for nm in range(4):
                idx = na * 4 + nm
                ref[idx, idx] = np.exp(-1j * nm * wt)
        assert np.abs(u.matrix - ref).max() < 1e-12

    def test_unitary_without_padding(self):
        u = dense_propagator(0.1, math.pi, 3, 7).matrix
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < DEFAULT_TOL.unitary_atol

    def test_dim_cap(self):
        with pytest.raises(LayoutError):
            dense_propagator(0.1, 1.0, 80, 80)

    def test_matches_factored_on_padded_block(self):
        uf = _factored_block(0.1, math.pi, 3, 7, 24)
        ud = dense_propagator(0.1, math.pi, 3, 7, mirror_pad=24)
        assert np.abs(uf - ud.matrix).max() < 1e-8

    def test_wrong_ordering_would_be_caught(self):
        # rotation-after-displacement equals displacement by phi*e^{-i wt};
        # at wm_t = pi/2 that differs from the correct factored form by far
        # more than the cross-check tolerance
        k, wt = 0.1, math.pi / 2
        params = evolution_params(k, wt)
        wrong_phi = params.disp_param * np.exp(-1j * wt)
        ud = dense_propagator(k, wt, 1, 7, mirror_pad=24)
        disp = _displacement_powers(params.disp_param, 1, 31)[1]
        rot = np.diag(np.exp(-1j * wt * np.arange(32)))
        block = (rot @ disp)[:8, :8]  # wrong order
        dev = np.abs(ud.matrix[8:, 8:] - np.exp(1j * params.kerr_phase) * block).max()
        assert dev > 1e-3
        good = (disp @ rot)[:8, :8]
        dev_good = np.abs(ud.matrix[8:, 8:] - np.exp(1j * params.kerr_phase) * good).max()
        assert dev_good < 1e-9
        assert abs(wrong_phi - params.disp_param) > 0.01  # orders genuinely differ


class TestWeakApproxPropagate:
    def _base_state(self, alpha, delta):
        return tensor([coherent_state(alpha, 10, "c", leakage_tol=1.0),
                       coherent_state(delta * alpha, 10, "d", leakage_tol=1.0),
                       vacuum_state(8, "m")]).normalize()

    def test_zero_disp_is_identity(self):
        s = self._base_state(1.0, 0.02)
        out = weak_approx_propagate(s, evolution_params(0.1, 0.0), 1.0)
        assert np.abs(out.amplitudes - s.amplitudes).max() < 1e-13

    def test_zero_alpha_is_identity(self):
        s = self._base_state(1.0, 0.02)
        out = weak_approx_propagate(s, evolution_params(0.005, math.pi), 0.0)
        assert np.abs(out.amplitudes - s.amplitudes).max() < 1e-13

    def test_warns_above_weak_regime(self):
        s = self._base_state(0.5, 0.02)
        with pytest.warns(UserWarning):
            weak_approx_propagate(s, evolution_params(0.2, math.pi), 0.5)

    def test_series_matches_dense_exponential(self):
        # independent oracle: build the generator matrix and expm via eigh of
        # its Hermitian embedding is unavailable (non-normal), so use scipy
        from scipy.linalg import expm
        from optoweak import annihilation
        alpha, delta = 0.8, 0.03
        params = evolution_params(0.01, math.pi)
        s = self._base_state(alpha, delta)
        dc, dd, dm = 11, 11, 9
        ac = annihilation(10, "c").matrix
        cm = annihilation(8, "m").matrix
        phi = params.disp_param
        b = (phi * cm.conj().T - np.conj(phi) * cm) / 2
        x = alpha * (np.kron(ac.conj().T, np.kron(np.eye(dd), b))
                     + np.kron(np.eye(dc), np.kron(ac.conj().T, b)))
        ref = expm(x) @ s.amplitudes
        out = weak_approx_propagate(s, params, alpha)
        assert np.abs(out.amplitudes - ref).max() < 1e-12


class TestLayout:
    def test_mirror_first_layout_refused(self):
        # the exact engines evolve arm a then mirror m, in that order only
        params = evolution_params(0.08, 1.1)
        psi = tensor([vacuum_state(10, "m"), coherent_state(0.9, 8, "a", leakage_tol=1.0)])
        rho = DensityMatrix.from_state(psi)
        with pytest.raises(LayoutError, match="expected layout"):
            factored_propagate(psi, params)
        with pytest.raises(LayoutError, match="expected layout"):
            evolve_master(rho, LindbladParams(1e-3, params), 1.1)
        with pytest.raises(LayoutError, match="expected layout"):
            lindblad_rhs(rho, LindbladParams(1e-3, params))
