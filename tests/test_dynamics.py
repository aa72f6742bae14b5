"""Evolution parameters, factored/dense propagators, weak approximation."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optoweak import (DEFAULT_TOL, LayoutError, LindbladParams, TruncationError,
                      annihilation, coherent_state, default_optical_cutoff, dense_propagator,
                      evolution_params, evolve_master, factored_propagate, lindblad_rhs,
                      poisson_tail, position, weak_approx_propagate)
from optoweak.analytics import q_no_postselection
from optoweak.dynamics import _mirror_tail
from optoweak.verify import _factored_block


def basis(n, cutoff):
    """The Fock state |n> on cutoff + 1 levels."""
    return np.eye(cutoff + 1, dtype=complex)[n]


def unit(x):
    return x / np.linalg.norm(x)


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

    @pytest.mark.parametrize("k, wt", [(0.005, math.pi), (-0.0, 1.0), (0.0, 0.0),
                                       (0.3, 2.5), (1e-300, 1e-3)])
    def test_derived_values_are_the_uncached_expressions(self, k, wt):
        phi = k * (1.0 - np.exp(-1j * wt))
        expected = {"kerr_phase": k ** 2 * (wt - math.sin(wt)), "disp_param": phi,
                    "abs_disp": abs(phi), "disp_sum": 2.0 * phi.real}
        p = evolution_params(k, wt)
        for name, value in expected.items():
            got = getattr(p, name)
            assert np.asarray(got).tobytes() == np.asarray(value).tobytes(), name
            assert getattr(p, name) is got  # kept, not derived again

    def test_replace_derives_fresh_values(self):
        p = evolution_params(0.005, math.pi)
        before = (p.kerr_phase, p.disp_param, p.abs_disp, p.disp_sum)
        q = dataclasses.replace(p, k=0.02, wm_t=1.0)
        fresh = evolution_params(0.02, 1.0)
        assert (q.kerr_phase, q.disp_param, q.abs_disp, q.disp_sum) == (
            fresh.kerr_phase, fresh.disp_param, fresh.abs_disp, fresh.disp_sum)
        assert (p.kerr_phase, p.disp_param, p.abs_disp, p.disp_sum) == before
        assert q.disp_sum != p.disp_sum

    def test_negative_k_rejected(self):
        with pytest.raises(LayoutError):
            evolution_params(-0.1, 1.0)


class TestMirrorTail:
    @pytest.mark.parametrize("alpha2, k, cutoff", [
        (0.0, 0.005, 3), (0.5, 0.1, 0), (2.0, 0.0, 3), (2.0, 0.005, 3), (2.0, 0.02, 4),
        (12.0, 0.1, 1), (30.0, 0.005, 10), (30.0, 0.05, 12), (300.0, 0.005, 60),
        (300.0, 0.005, 30), (1000.0, 0.005, 200), (1000.0, 0.005, 120),
        (1000.0, 0.1, 200), (2.0, 1.6, 1447)])
    def test_screened_rows_keep_the_tail_and_the_decision(self, alpha2, k, cutoff):
        # the series over every occupied row, as the screen's reference: the
        # screened tail is within 1e-18 of it and raises exactly when it
        # exceeds the budget ((2, 1.6, 1447) sits at 5.8e-10 of 1e-9)
        params = evolution_params(k, math.pi)
        n_opt = default_optical_cutoff(alpha2)
        weights = np.abs(coherent_state(math.sqrt(alpha2 / 2), n_opt, leakage_tol=1.0)) ** 2
        every_row = sum(float(w) * poisson_tail((n * params.abs_disp) ** 2, cutoff)
                        for n, w in enumerate(weights) if w > 0.0) / float(weights.sum())
        if every_row > DEFAULT_TOL.propagate_leakage:
            with pytest.raises(TruncationError, match=f"mirror cutoff {cutoff} too small"):
                _mirror_tail(params, weights, cutoff)
        else:
            assert abs(_mirror_tail(params, weights, cutoff) - every_row) <= 1e-18


class TestFactoredPropagate:
    def test_zero_time_is_identity(self):
        s = np.multiply.outer(coherent_state(0.8, 8, leakage_tol=1.0),
                              coherent_state(0.1, 6, leakage_tol=1.0))
        out = factored_propagate(s, evolution_params(0.2, 0.0))
        assert np.abs(out - s).max() < 1e-14

    def test_vacuum_uncoupled(self):
        s = np.multiply.outer(basis(0, 4), basis(0, 6))
        out = factored_propagate(s, evolution_params(0.1, math.pi))
        assert np.abs(out - s).max() < 1e-14

    def test_single_photon_displaces_mirror(self):
        # one photon, half period: mirror ends in |phi> with phi = 0.2
        s = np.multiply.outer(basis(1, 1), basis(0, 10))
        out = factored_propagate(s, evolution_params(0.1, math.pi))
        m = out[1]  # the a = 0 row is empty
        assert np.abs(out[0]).max() == 0.0
        ref = unit(coherent_state(0.2, 10, leakage_tol=1.0))
        assert abs(ref.conj() @ m) ** 2 == pytest.approx(1.0, abs=1e-10)
        q = (m.conj() @ position(10) @ m).real / (m.conj() @ m).real
        assert q == pytest.approx(0.4, abs=1e-10)

    @pytest.mark.parametrize("wt", [math.pi / 2, 1.5 * math.pi, 2 * math.pi])
    def test_one_photon_mirror_mean_matches_closed_form(self, wt):
        # <q> of the one-photon row, as verify's check 5 reads it, against
        # 2k(1 - cos wm_t) and against the dense propagator's mirror row
        k, s = 0.05, np.multiply.outer(basis(1, 1), basis(0, 12))
        q = position(12)
        m = factored_propagate(s, evolution_params(k, wt))[1]
        md = (dense_propagator(k, wt, 1, 12) @ s.reshape(-1)).reshape(2, 13)[1]
        means = [(x.conj() @ q @ x).real / (x.conj() @ x).real for x in (m, md)]
        assert means[0] == pytest.approx(q_no_postselection(k, wt), abs=1e-12)
        assert means[1] == pytest.approx(means[0], abs=1e-10)

    @given(st.floats(0.0, 0.08), st.floats(0.0, 2 * math.pi))
    @settings(max_examples=25, deadline=None)
    def test_norm_preserved(self, k, wt):
        s = unit(np.multiply.outer(coherent_state(1.0, 9, leakage_tol=1.0), basis(0, 12)))
        out = factored_propagate(s, evolution_params(k, wt))
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)

    def test_warm_call_builds_no_per_photon_number_operator(self):
        # D(n phi) is applied in q's cached eigenbasis, two (d, dm) @ (dm, dm)
        # products; a stack of every D(n phi), 300 * 40^2 complex entries
        # (7.7 MB), and its unitarity check peaked at 23.6 MB
        s = np.multiply.outer(coherent_state(math.sqrt(150.0), 299, leakage_tol=1.0),
                              basis(0, 39))
        params = evolution_params(1e-3, math.pi)
        factored_propagate(s, params)  # the eigenpairs of mirror cutoff 39
        tracemalloc.start()
        try:
            factored_propagate(s, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_mirror_cutoff_too_small_raises(self):
        s = np.multiply.outer(basis(1, 1), basis(0, 1))
        with pytest.raises(TruncationError):
            factored_propagate(s, evolution_params(0.25, math.pi))

    def test_warns_when_displacement_large_for_mirror_cutoff(self):
        # |6 phi|^2 = 9 > 0.25 * 20 with phi = 2k = 0.5; the mirror tail
        # still passes, so only the warning flags it
        s = unit(np.multiply.outer(coherent_state(0.3, 6, leakage_tol=1.0), basis(0, 20)))
        params = evolution_params(0.25, math.pi)
        with pytest.warns(UserWarning, match="not small against cutoff 20"):
            factored_propagate(s, params)
        wide = unit(np.multiply.outer(coherent_state(0.3, 6, leakage_tol=1.0), basis(0, 40)))
        factored_propagate(wide, params)  # 9 < 0.25 * 40: silent under filterwarnings=error


class TestDensePropagator:
    def test_zero_time_identity(self):
        u = dense_propagator(0.1, 0.0, 3, 5)
        assert np.abs(u - np.eye(4 * 6)).max() < 1e-12

    def test_uncoupled_is_diagonal_phases(self):
        wt = 0.9
        u = dense_propagator(0.0, wt, 2, 3)
        ref = np.zeros((12, 12), dtype=complex)
        for na in range(3):
            for nm in range(4):
                idx = na * 4 + nm
                ref[idx, idx] = np.exp(-1j * nm * wt)
        assert np.abs(u - ref).max() < 1e-12

    def test_unitary_without_padding(self):
        u = dense_propagator(0.1, math.pi, 3, 7)
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < DEFAULT_TOL.unitary_atol

    def test_dim_cap(self):
        with pytest.raises(LayoutError):
            dense_propagator(0.1, 1.0, 80, 80)

    def test_matches_factored_on_padded_block(self):
        uf = _factored_block(0.1, math.pi, 3, 7, 24)
        ud = dense_propagator(0.1, math.pi, 3, 7, mirror_pad=24)
        assert np.abs(uf - ud).max() < 1e-8

    def test_wrong_ordering_would_be_caught(self):
        # rotation-after-displacement equals displacement by phi*e^{-i wt};
        # at wm_t = pi/2 that differs from the correct factored form by far
        # more than the cross-check tolerance
        k, wt = 0.1, math.pi / 2
        params = evolution_params(k, wt)
        wrong_phi = params.disp_param * np.exp(-1j * wt)
        ud = dense_propagator(k, wt, 1, 7, mirror_pad=24)
        c = annihilation(31)
        disp = expm(params.disp_param * c.conj().T - np.conj(params.disp_param) * c)
        rot = np.diag(np.exp(-1j * wt * np.arange(32)))
        block = (rot @ disp)[:8, :8]  # wrong order
        dev = np.abs(ud[8:, 8:] - np.exp(1j * params.kerr_phase) * block).max()
        assert dev > 1e-3
        good = (disp @ rot)[:8, :8]
        dev_good = np.abs(ud[8:, 8:] - np.exp(1j * params.kerr_phase) * good).max()
        assert dev_good < 1e-9
        assert abs(wrong_phi - params.disp_param) > 0.01  # orders genuinely differ


class TestWeakApproxPropagate:
    def _base_state(self, alpha, delta):
        cd = np.multiply.outer(coherent_state(alpha, 10, leakage_tol=1.0),
                               coherent_state(delta * alpha, 10, leakage_tol=1.0))
        return unit(np.multiply.outer(cd, basis(0, 8)))

    def test_zero_disp_is_identity(self):
        s = self._base_state(1.0, 0.02)
        out = weak_approx_propagate(s, evolution_params(0.1, 0.0), 1.0)
        assert np.abs(out - s).max() < 1e-13

    def test_zero_alpha_is_identity(self):
        s = self._base_state(1.0, 0.02)
        out = weak_approx_propagate(s, evolution_params(0.005, math.pi), 0.0)
        assert np.abs(out - s).max() < 1e-13

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
        ac = annihilation(10)
        cm = annihilation(8)
        phi = params.disp_param
        b = (phi * cm.conj().T - np.conj(phi) * cm) / 2
        x = alpha * (np.kron(ac.conj().T, np.kron(np.eye(dd), b))
                     + np.kron(np.eye(dc), np.kron(ac.conj().T, b)))
        ref = expm(x) @ s.reshape(-1)
        out = weak_approx_propagate(s, params, alpha)
        assert out.shape == (dc, dd, dm)
        assert np.abs(out.reshape(-1) - ref).max() < 1e-12


class TestArrayContract:
    """The engines take plain arrays from outside: each refuses a wrong shape,
    and the density-matrix oracles a non-Hermitian matrix, with LayoutError."""

    params = evolution_params(0.08, 1.1)

    def rho(self):
        psi = unit(np.multiply.outer(coherent_state(0.5, 2, leakage_tol=1.0), basis(0, 3)))
        return np.multiply.outer(psi, psi.conj())  # (a, m) = (3, 4)

    @pytest.mark.parametrize("shape", [(12,), (2, 3, 4), (), (3, 0), (0, 4)])
    def test_factored_propagate_refuses_a_wrong_shape(self, shape):
        with pytest.raises(LayoutError, match="expected an"):
            factored_propagate(np.ones(shape, dtype=complex), self.params)

    @pytest.mark.parametrize("shape", [(60,), (3, 20), (3, 4, 5, 1), (3, 4, 0)])
    def test_weak_approx_propagate_refuses_a_wrong_shape(self, shape):
        with pytest.raises(LayoutError, match="expected a"):
            weak_approx_propagate(np.ones(shape, dtype=complex), self.params, 0.5)

    @pytest.mark.parametrize("call", [lambda r, lb: evolve_master(r, lb, 1.1), lindblad_rhs],
                             ids=["evolve_master", "lindblad_rhs"])
    def test_density_oracles_refuse_a_wrong_shape_or_non_hermitian_input(self, call):
        rho, lb = self.rho(), LindbladParams(1e-3, self.params)
        for bad in (rho.reshape(12, 12), rho.reshape(3, 4, 12), rho.reshape(3, 4, 4, 3),
                    rho.reshape(3, 4, 3, 4, 1), np.zeros((0, 4, 0, 4))):
            with pytest.raises(LayoutError, match="expected an"):
                call(bad, lb)
        off = rho.copy()
        off[0, 0, 1, 0] += 1e-9  # one entry without its conjugate partner
        with pytest.raises(LayoutError, match="not Hermitian"):
            call(off, lb)
        call(rho, lb)  # the same matrix, Hermitian, passes

    def test_arrays_in_arrays_out(self):
        # each engine returns a new array of its input's shape and leaves the
        # caller's array as it was
        ket = np.multiply.outer(coherent_state(0.5, 3, leakage_tol=1.0), basis(0, 5))
        weak = np.multiply.outer(ket, basis(0, 2))
        rho = self.rho()
        lb = LindbladParams(1e-3, self.params)
        for fn, arg in ((lambda x: factored_propagate(x, self.params), ket),
                        (lambda x: weak_approx_propagate(x, self.params, 0.5), weak),
                        (lambda x: evolve_master(x, lb, 1.1), rho),
                        (lambda x: evolve_master(x, lb, 0.0), rho),
                        (lambda x: lindblad_rhs(x, lb), rho)):
            before = arg.copy()
            out = fn(arg)
            assert out.shape == arg.shape and not np.shares_memory(out, arg)
            assert np.array_equal(arg, before)
