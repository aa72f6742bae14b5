"""Fock-space algebra: constructor oracles, projections, expectations."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import optoweak
from optoweak import (DEFAULT_TOL, DegenerateBranchError, DensityMatrix,
                      InvariantError, LayoutError, ModeLayout, Operator,
                      TruncationError, annihilation, coherent_state,
                      expectation, fock_state, pointer_shift, position,
                      project_fock, poisson_tail, reduced_density,
                      StateVector, tensor, vacuum_state)
from optoweak.dynamics import dense_propagator
from optoweak import fock as fock_mod
from optoweak.fock import _displacement_powers, _tridiagonal_eigh


def number(cutoff, label="a"):
    return Operator.of(ModeLayout.of((label, cutoff)), np.diag(np.arange(cutoff + 1.0)))


def displacement(beta, cutoff):
    return _displacement_powers(beta, 1, cutoff)[1]


def poisson_tail_direct(lam: float, cutoff: int) -> float:
    """Independent oracle: direct summation of the retained Poisson terms."""
    total = sum(lam ** n / math.factorial(n) for n in range(cutoff + 1))
    return 1.0 - math.exp(-lam) * total


class TestModeLayout:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            ModeLayout.of(("a", 3), ("a", 2))

    def test_unknown_label_rejected(self):
        with pytest.raises(LayoutError):
            ModeLayout.of(("x", 3))

    def test_dims_and_axes(self):
        lay = ModeLayout.of(("a", 2), ("b", 3), ("m", 1))
        assert lay.dim == 3 * 4 * 2
        assert lay.shape == (3, 4, 2)
        assert lay.axis("b") == 1
        assert lay.cutoff("m") == 1

    def test_last_mode_varies_fastest(self):
        lay = ModeLayout.of(("a", 1), ("m", 2))
        # index = n_a * 3 + n_m
        assert np.ravel_multi_index((1, 2), lay.shape) == 5
        assert np.ravel_multi_index((0, 1), lay.shape) == 1


class TestCoherentState:
    def test_vacuum_case(self):
        s = coherent_state(0.0, 4)
        assert s.amplitudes[0] == 1.0
        assert np.all(s.amplitudes[1:] == 0)
        assert s.leakage == 0.0

    def test_cutoff_zero_closed_form(self):
        s = coherent_state(1.0, 0, leakage_tol=1.0)
        assert s.amplitudes[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert s.leakage == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_leakage_against_direct_summation(self):
        # |alpha|^2 = 2 at cutoff 14; the tail is 3.87e-9 by direct summation
        oracle = poisson_tail_direct(2.0, 14)
        s = coherent_state(math.sqrt(2.0), 14, leakage_tol=1e-8)
        assert s.leakage == pytest.approx(oracle, rel=1e-9)
        assert s.leakage < 1e-8
        assert s.leakage == pytest.approx(3.871230336e-9, rel=1e-6)

    def test_leakage_above_tolerance_raises(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(2.0, 4)
        assert err.value.leakage > 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_leakage_monotone_in_cutoff(self, alpha):
        leaks = [coherent_state(alpha, n, leakage_tol=1.0).leakage for n in range(2, 14)]
        assert all(a >= b for a, b in zip(leaks, leaks[1:]))

    def test_amplitudes_match_series(self):
        alpha = 0.7 + 0.2j
        s = coherent_state(alpha, 12, leakage_tol=1.0)
        for n in range(13):
            ref = math.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
            assert s.amplitudes[n] == pytest.approx(ref, abs=1e-14)


class TestPoissonTail:
    def test_matches_regularized_incomplete_gamma(self):
        from scipy.special import gammainc
        for lam in np.geomspace(1e-12, 2000.0, 40):
            for cutoff in [0, 1, 2, 5, 10, 30, 100, 300, 1000, 2000, 3000]:
                ref = float(gammainc(cutoff + 1, lam))
                # below 1e-300 both sides are underflow, not tail weight
                assert poisson_tail(float(lam), cutoff) == pytest.approx(
                    ref, rel=1e-10, abs=1e-300), (lam, cutoff)

    @pytest.mark.parametrize("cutoff", [0, 1, 7, 100])
    def test_zero_mean_has_no_tail(self, cutoff):
        assert poisson_tail(0.0, cutoff) == 0.0

    def test_import_loads_no_scipy(self):
        # neither the import nor a damped point (its density-matrix
        # evolution included) loads scipy
        damped_point = (
            "p = optoweak.ProtocolParams(alpha=complex(2 ** 0.5), delta=0.005,\n"
            "    evolution=optoweak.evolution_params(0.005, 3.141592653589793),\n"
            "    optical_cutoff=12, mirror_cutoff=3)\n"
            "optoweak.damped_protocol(p, 5e-7)\n")
        src = str(Path(optoweak.__file__).resolve().parents[1])
        for work in ("", damped_point):
            snippet = ("import sys, optoweak\n" + work +
                       "print(*(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
            run = subprocess.run([sys.executable, "-c", snippet], capture_output=True,
                                 text=True, timeout=120,
                                 env=dict(os.environ, PYTHONPATH=src))
            assert run.returncode == 0, run.stderr
            assert run.stdout.split() == [], work


class TestTensor:
    def test_vacuum_pair(self):
        s = tensor([fock_state(0, 2, "a"), fock_state(0, 3, "m")])
        assert s.amplitudes[np.ravel_multi_index((0, 0), s.layout.shape)] == 1.0
        assert s.norm == 1.0

    def test_one_photon_slot(self):
        s = tensor([fock_state(1, 2, "a"), fock_state(0, 3, "m")])
        assert s.amplitudes[np.ravel_multi_index((1, 0), s.layout.shape)] == 1.0

    def test_norm_is_product_of_norms(self):
        a = coherent_state(1.0, 6, "a", leakage_tol=1.0)
        b = coherent_state(1.0, 6, "b", leakage_tol=1.0)
        prod = tensor([a, b])
        assert prod.norm == pytest.approx(a.norm * b.norm, abs=1e-12)

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LayoutError):
            tensor([fock_state(0, 2, "a"), fock_state(0, 2, "a")])


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = annihilation(4).matrix
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_number_position_hermitian_tight(self):
        for op in (number(8), position(8, 0.7)):
            assert op.hermitian
            assert np.abs(op.matrix - op.matrix.conj().T).max() < 1e-12

    def test_position_vacuum_expectation_zero(self):
        assert expectation(vacuum_state(6, "m"), position(6, 1.0, "m")) == 0

    def test_position_on_coherent_closed_form(self):
        # <beta| c + c^dag |beta> = 2 Re beta
        beta, sigma = 0.6, 1.3
        s = coherent_state(beta, 20, "m")
        val = expectation(s, position(20, sigma, "m"))
        assert val.real == pytest.approx(2 * sigma * beta, abs=1e-9)
        assert abs(val.imag) < 1e-12

    def test_number_on_coherent_poisson_mean(self):
        alpha = 1.2
        s = coherent_state(alpha, 20)
        val = expectation(s, number(20))
        assert val.real == pytest.approx(alpha ** 2, abs=1e-9)

    def test_cutoff_mismatch_rejected(self):
        s = tensor([fock_state(0, 4, "a"), vacuum_state(3, "m")])
        with pytest.raises(LayoutError):
            expectation(s, number(5, "a"))

    def test_target_arity_mismatch_rejected(self):
        s = tensor([fock_state(0, 4, "a"), vacuum_state(3, "m")])
        with pytest.raises(LayoutError, match="arity"):
            expectation(s, number(4, "a"), targets=("a", "m"))

    def test_two_mode_op_on_reordered_nonadjacent_targets(self):
        # <op> on (m, a) of an (a, b, m) state equals Tr(rho_ma op) built by hand
        import optoweak as ow
        rng = np.random.default_rng(3)
        da, db, dm = 3, 2, 4
        lay = ModeLayout.of(("a", da - 1), ("b", db - 1), ("m", dm - 1))
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        state = ow.StateVector(lay, amps)
        gen = rng.normal(size=(dm * da, dm * da)) + 1j * rng.normal(size=(dm * da, dm * da))
        op = Operator(ModeLayout.of(("m", dm - 1), ("a", da - 1)), gen)
        got = expectation(state, op, targets=("m", "a"))
        # reference: permute (a,b,m) -> (m,a,b) and trace out b
        psi = state.grid.transpose(2, 0, 1).reshape(dm * da, db)
        ref = np.trace(psi @ psi.conj().T @ gen)
        assert abs(got - ref) < 1e-12


class TestDisplacement:
    def test_zero_is_identity(self):
        d = displacement(0.0, 5)
        assert np.allclose(d, np.eye(6), atol=1e-14)
        assert np.abs(d @ d.conj().T - np.eye(6)).max() < DEFAULT_TOL.unitary_atol

    def test_small_displacement_matches_series(self):
        out = displacement(0.01, 12) @ vacuum_state(12, "m").amplitudes
        ref = coherent_state(0.01, 12, "m", leakage_tol=1.0)
        assert np.abs(out - ref.amplitudes).max() < 1e-10

    def test_inverse_pair(self):
        d = displacement(0.3 + 0.1j, 10)
        dm = displacement(-0.3 - 0.1j, 10)
        assert np.abs(d @ dm - np.eye(11)).max() < 1e-9

    def test_powers_match_one_displacement_per_n(self):
        phi, cutoff, n_max = 0.03 - 0.02j, 10, 40
        stack = _displacement_powers(phi, n_max, cutoff)
        assert stack.shape == (n_max + 1, cutoff + 1, cutoff + 1)
        for n in range(n_max + 1):
            assert np.abs(stack[n] - displacement(n * phi, cutoff)).max() < 1e-13

    @pytest.mark.parametrize("beta", [0.0, 5e-324, -5e-324j, 1e-310 + 1e-310j,
                                      0.03 - 0.02j, -0.2j, -0.5])
    def test_powers_match_expm_of_the_generator(self, beta):
        # the real eigendecomposition of q against scipy's expm of
        # n (beta c^dag - beta* c); a zero or subnormal drive takes its phase
        # from cmath.phase, never from beta / |beta|, so nothing overflows
        c = annihilation(10).matrix
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            stack = _displacement_powers(beta, 8, 10)
        for n in range(9):
            ref = expm(n * (beta * c.conj().T - np.conj(beta) * c))
            assert np.abs(stack[n] - ref).max() < 1e-13

    def test_powers_fail_unitarity_check_as_one_stack(self, monkeypatch):
        real_eigh = fock_mod._tridiagonal_eigh

        def skewed_eigh(off):
            w, v = real_eigh(off)
            return w, 1.5 * v  # eigenvectors no longer orthonormal
        monkeypatch.setattr(fock_mod, "_tridiagonal_eigh", skewed_eigh)
        with pytest.raises(TruncationError, match="unitarity"):
            _displacement_powers(0.1, 5, 6)


def tridiagonal(off):
    return np.diag(off, 1) + np.diag(off, -1) if len(off) else np.zeros((1, 1))


class TestTridiagonalEigh:
    @pytest.mark.parametrize("off", [
        np.zeros(0), np.ones(1), np.sqrt(np.arange(1.0, 11)), np.sqrt(np.arange(1.0, 31)),
        np.sqrt((np.arange(32.0) + 2) * (33 - np.arange(32.0))),  # the block N = d = 34
        np.sqrt((np.arange(158.0) + 2) * (159 - np.arange(158.0))),
        np.random.default_rng(0).uniform(0.01, 3.0, 40)], ids=lambda off: f"n{len(off) + 1}")
    def test_matches_lapack(self, off):
        # eigenvalues ascending and within an ulp-scale of LAPACK's, the
        # eigenvectors orthonormal, equal to LAPACK's up to sign, and exact
        # to the same residual
        m = tridiagonal(off)
        with np.errstate(all="raise", under="ignore"):
            w, v = _tridiagonal_eigh(off)
        w0, v0 = np.linalg.eigh(m)
        scale = max(1.0, np.abs(w0).max())
        assert (np.diff(w) > 0).all() and np.abs(w - w0).max() < 2e-15 * scale * len(m)
        assert np.abs(v.T @ v - np.eye(len(m))).max() < 1e-13
        assert np.abs(m @ v - v * w).max() < 4e-16 * scale * len(m)
        assert np.abs(np.abs(v) - np.abs(v0)).max() < 1e-13

    def test_odd_size_has_an_exact_zero_eigenvector(self):
        # a zero-diagonal tridiagonal of odd size has eigenvalue 0 with
        # components 0 on every other row: the pivots at 0 pass through +-inf
        off = np.sqrt(np.arange(1.0, 7))
        w, v = _tridiagonal_eigh(off)
        assert abs(w[3]) < 1e-14 and np.abs(v[1::2, 3]).max() < 1e-15
        assert np.isfinite(v).all()


class TestProjectFock:
    def test_certain_branch(self):
        s = tensor([fock_state(0, 3, "c"), fock_state(0, 3, "d")])
        cond, p = project_fock(s, "d", 0)
        assert p == pytest.approx(1.0, abs=1e-12)
        assert cond.layout.labels == ("c",)

    def test_empty_branch_raises(self):
        s = tensor([fock_state(0, 3, "c"), vacuum_state(3, "d")])
        with pytest.raises(DegenerateBranchError):
            project_fock(s, "d", 1)

    def test_single_photon_of_weak_coherent(self):
        # P(1) = |da|^2 e^{-|da|^2} for da = 0.1
        s = coherent_state(0.1, 10, "d")
        _, p = project_fock(s, "d", 1)
        assert p == pytest.approx(0.01 * math.exp(-0.01), rel=1e-10)
        assert p == pytest.approx(9.900498337e-3, rel=1e-8)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_completeness(self, seed):
        rng = np.random.default_rng(seed)
        lay = ModeLayout.of(("a", 3), ("d", 4), ("m", 2))
        amps = rng.normal(size=lay.dim) + 1j * rng.normal(size=lay.dim)
        from optoweak import StateVector
        s = StateVector(lay, amps)
        total = sum(project_fock(s, "d", n)[1] for n in range(5))
        assert total == pytest.approx(s.norm ** 2, rel=1e-10)

    def test_product_state_factorization(self):
        a = coherent_state(0.7, 8, "a", leakage_tol=1.0).normalize()
        m = coherent_state(0.2, 5, "m", leakage_tol=1.0).normalize()
        joint = tensor([a, m])
        cond, _ = project_fock(joint, "m", 0)
        assert np.abs(cond.amplitudes - a.amplitudes / a.norm).max() < 1e-12


class TestExpectationAndPointerShift:
    def test_equal_states_shift_zero(self):
        rho = DensityMatrix.from_state(coherent_state(0.4, 10, "m"))
        assert pointer_shift(rho, rho, position(10, 1.0, "m")) == pytest.approx(0.0, abs=1e-12)

    def test_coherent_vs_vacuum_closed_form(self):
        beta, sigma = 0.35, 2.0
        rho_f = DensityMatrix.from_state(coherent_state(beta, 15, "m"))
        rho_i = DensityMatrix.from_state(vacuum_state(15, "m"))
        val = pointer_shift(rho_f, rho_i, position(15, sigma, "m"))
        assert val == pytest.approx(2 * sigma * beta, abs=1e-9)

    def test_zero_trace_branch_raises(self):
        lay = ModeLayout.of(("m", 4))
        zero = DensityMatrix(lay, np.zeros((5, 5), dtype=complex))
        rho_i = DensityMatrix.from_state(vacuum_state(4, "m"))
        with pytest.raises(DegenerateBranchError):
            pointer_shift(zero, rho_i, position(4, 1.0, "m"))

    def test_non_hermitian_observable_rejected(self):
        with pytest.raises(LayoutError):
            pointer_shift(DensityMatrix.from_state(vacuum_state(4, "m")),
                          DensityMatrix.from_state(vacuum_state(4, "m")),
                          annihilation(4, "m"))

    def test_subnormalized_branch_normalizes_first_term(self):
        beta = 0.5
        s = coherent_state(beta, 15, "m")
        scaled = DensityMatrix(s.layout, 0.25 * np.outer(s.amplitudes, s.amplitudes.conj()))
        rho_i = DensityMatrix.from_state(vacuum_state(15, "m"))
        val = pointer_shift(scaled, rho_i, position(15, 1.0, "m"))
        assert val == pytest.approx(2 * beta, abs=1e-9)


    def test_imaginary_expectation_of_hermitian_flag_raises(self):
        # the flag is set by hand, skipping the check that would clear it
        op = Operator(ModeLayout.of(("m", 2)), 1j * np.eye(3), hermitian=True)
        psi = vacuum_state(2, "m")
        rho = DensityMatrix.from_state(psi)
        with pytest.raises(InvariantError):
            expectation(psi, op)
        with pytest.raises(InvariantError):
            pointer_shift(rho, rho, op)

    def test_invariant_errors_survive_optimize_flag(self):
        # `python -O` strips assert statements; the typed error must remain
        snippet = (
            "import sys, numpy as np\n"
            "from optoweak import (DensityMatrix, InvariantError, ModeLayout, Operator,\n"
            "                      expectation, pointer_shift, vacuum_state)\n"
            "assert False, 'unreachable under -O'\n"
            "op = Operator(ModeLayout.of(('m', 2)), 1j * np.eye(3), hermitian=True)\n"
            "psi = vacuum_state(2, 'm')\n"
            "rho = DensityMatrix.from_state(psi)\n"
            "for call in (lambda: expectation(psi, op), lambda: pointer_shift(rho, rho, op)):\n"
            "    try:\n"
            "        call()\n"
            "    except InvariantError:\n"
            "        continue\n"
            "    sys.exit('no InvariantError')\n")
        src = str(Path(optoweak.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", snippet], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr


class TestStateVector:
    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    def test_state_vector_keeps_its_own_copy(self, shape):
        # 1-D and 2-D (occupation grid) input: the state owns its amplitudes,
        # and the caller's buffer stays its own and writable
        a = np.ones(shape, dtype=complex)
        s = StateVector(ModeLayout.of(("a", 1), ("m", 2)), a)
        a[(0,) * a.ndim] = 5.0
        assert a.flags.writeable and not np.shares_memory(a, s.amplitudes)
        assert np.array_equal(s.amplitudes, np.ones(6)) and not s.amplitudes.flags.writeable


class TestDensityMatrix:
    def test_partial_trace_of_product(self):
        a = coherent_state(0.6, 7, "a", leakage_tol=1.0).normalize()
        m = coherent_state(0.3, 5, "m", leakage_tol=1.0).normalize()
        joint = DensityMatrix.from_state(tensor([a, m]))
        red = joint.partial_trace(("m",))
        ref = np.outer(m.amplitudes, m.amplitudes.conj()) / m.norm ** 2
        assert np.abs(red.matrix - ref).max() < 1e-12

    def test_partial_trace_reorders(self):
        a = fock_state(1, 2, "a")
        m = fock_state(0, 1, "m")
        joint = DensityMatrix.from_state(tensor([a, m]))
        red = joint.partial_trace(("m", "a"))
        assert red.layout.labels == ("m", "a")
        idx = np.ravel_multi_index((0, 1), red.layout.shape)
        assert red.matrix[idx, idx] == pytest.approx(1.0)

    @pytest.mark.parametrize("row, col", [(0, 3), (700, 703), (1023, 1020)])
    def test_hermitian_check_covers_every_row_block(self, row, col):
        # one broken pair inside the first, a middle or the last row block
        m = np.eye(1024, dtype=complex)
        m[row, col] = 1e-9
        with pytest.raises(LayoutError, match="not Hermitian"):
            DensityMatrix(ModeLayout.of(("a", 31), ("m", 31)), m)

    def test_hermitian_check_holds_row_blocks_not_matrices(self):
        # dimension 1024 (16 MiB): m - m^H and its abs, taken whole, held
        # 2.5 matrices beside m; in row blocks the check holds a few rows
        rng = np.random.default_rng(0)
        a = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        m = a + a.conj().T
        del a
        tracemalloc.start()
        try:
            DensityMatrix(ModeLayout.of(("a", 31), ("m", 31)), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m.nbytes

    def test_constructor_takes_ownership_of_a_complex_matrix(self):
        # a complex array is kept uncopied and frozen, the caller's included;
        # any other dtype is converted, so the caller keeps a writable array
        lay = ModeLayout.of(("m", 2))
        m = np.eye(3, dtype=complex)
        rho = DensityMatrix(lay, m)
        assert rho.matrix is m and not m.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
        real = np.eye(3)
        assert DensityMatrix(lay, real).matrix is not real
        real[0, 0] = 2.0

    def test_validate_catches_bad_trace(self):
        lay = ModeLayout.of(("m", 3))
        rho = DensityMatrix(lay, 0.5 * np.eye(4, dtype=complex))
        with pytest.raises(TruncationError):
            rho.validate()

    def test_reduced_density_from_state(self):
        s = tensor([fock_state(1, 3, "c"), vacuum_state(2, "m")])
        red = reduced_density(s, ("m",))
        assert red.trace == pytest.approx(1.0, abs=1e-12)


class TestOperatorFlags:
    def test_flags_require_numerical_check(self):
        mat = np.eye(4, dtype=complex)
        raw = Operator(ModeLayout.of(("a", 3)), mat)
        assert not raw.hermitian
        assert Operator.of(ModeLayout.of(("a", 3)), mat).hermitian

    def test_propagator_flag_is_exact(self):
        # exp(-i H wm_t) is the identity, so Hermitian, only at wm_t = 0
        assert dense_propagator(0.01, 0.0, 3, 3).hermitian
        assert not dense_propagator(0.01, math.pi, 3, 3).hermitian

    @pytest.mark.parametrize("row, col", [(-1, -1), (0, 3), (1023, 1020)])
    def test_hermitian_flag_checks_row_blocks_not_matrices(self, row, col):
        # dimension 1024 (16 MiB): the whole-matrix check held 2.0 matrices
        # beside m; one broken pair, if any, in the first or the last block
        rng = np.random.default_rng(1)
        a = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        m = a + a.conj().T
        del a
        if row >= 0:
            m[row, col] += 1e-9
        tracemalloc.start()
        try:
            op = Operator.of(ModeLayout.of(("a", 31), ("m", 31)), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.hermitian == (row < 0)
        assert peak < 0.25 * m.nbytes
