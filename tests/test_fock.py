"""Fock-space algebra: constructor oracles, operator matrices, density matrices."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import optoweak
from optoweak import (DensityMatrix, EvolutionParams, LayoutError, ModeLayout,
                      ProtocolParams, TruncationError, annihilation,
                      coherent_state, evolution_params, factored_propagate,
                      fock_state, position, poisson_tail, run_protocol,
                      StateVector, tensor, vacuum_state)
from optoweak import fock as fock_mod
from optoweak import interferometer
from optoweak.fock import _tridiagonal_eigh


def number(cutoff):
    return np.diag(np.arange(cutoff + 1.0))


def mean(op, state):
    """<psi| op |psi> of a single-mode state."""
    a = state.amplitudes
    return complex(a.conj() @ op @ a)


def displacement(beta, cutoff):
    """Oracle: scipy's expm of the truncated generator beta c^dag - beta* c."""
    c = annihilation(cutoff)
    return expm(beta * c.conj().T - np.conj(beta) * c)


@dataclass(frozen=True)
class Kick(EvolutionParams):
    """No mirror rotation and no Kerr phase (wm_t = 0) but a chosen per-photon
    displacement ``phi``, so factored_propagate applies D(n phi) to block n."""

    phi: complex = 0j

    @property
    def disp_param(self) -> complex:
        return self.phi


def kicked(grid, phi):
    """factored_propagate's D(n phi) on row n of an (a, m) amplitude grid."""
    layout = ModeLayout.of(("a", grid.shape[0] - 1), ("m", grid.shape[1] - 1))
    return factored_propagate(StateVector(layout, grid), Kick(0.0, 0.0, phi)).grid


def random_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return g / np.linalg.norm(g)


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
        a = annihilation(4)
        assert a.dtype == complex
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_number_position_hermitian_tight(self):
        for op in (number(8), position(8, 0.7)):
            assert np.abs(op - op.conj().T).max() < 1e-12

    def test_position_vacuum_expectation_zero(self):
        assert mean(position(6), vacuum_state(6, "m")) == 0

    def test_position_on_coherent_closed_form(self):
        # <beta| c + c^dag |beta> = 2 Re beta
        beta, sigma = 0.6, 1.3
        val = mean(position(20, sigma), coherent_state(beta, 20, "m"))
        assert val.real == pytest.approx(2 * sigma * beta, abs=1e-9)
        assert abs(val.imag) < 1e-12

    @pytest.mark.parametrize("beta", [0.6, -0.4 + 0.3j, 0.5j])
    def test_position_moments_on_coherent(self, beta):
        # <beta|q|beta> = 2 sigma Re beta, and a coherent state keeps the
        # vacuum's variance sigma^2 whatever its complex amplitude
        sigma, s = 1.3, coherent_state(beta, 30, "m")
        q = position(30, sigma)
        m1, m2 = mean(q, s), mean(q @ q, s)
        assert m1.real == pytest.approx(2 * sigma * beta.real, abs=1e-9)
        assert abs(m1.imag) < 1e-12
        assert (m2 - m1 ** 2).real == pytest.approx(sigma ** 2, abs=1e-9)

    def test_annihilation_lowers_fock_states(self):
        a = annihilation(4)
        assert np.abs(a @ fock_state(0, 4).amplitudes).max() == 0.0
        for n in range(1, 5):
            ref = math.sqrt(n) * fock_state(n - 1, 4).amplitudes
            assert np.abs(a @ fock_state(n, 4).amplitudes - ref).max() < 1e-15

    def test_coherent_state_is_annihilation_eigenstate(self):
        # a|beta> = beta|beta> on every level below the cutoff; the top level
        # has no level above it to lower from
        beta = 0.7 - 0.2j
        amps = coherent_state(beta, 12, leakage_tol=1.0).amplitudes
        lowered = annihilation(12) @ amps
        assert np.abs(lowered[:-1] - beta * amps[:-1]).max() < 1e-15
        assert lowered[-1] == 0.0

    def test_number_on_coherent_poisson_mean(self):
        alpha = 1.2
        val = mean(number(20), coherent_state(alpha, 20))
        assert val.real == pytest.approx(alpha ** 2, abs=1e-9)

    @pytest.mark.parametrize("cutoff", [0, 1, 2, 10, 1000])
    def test_moment_table_is_q_and_q_squared(self, cutoff):
        # q^2 is written in closed form, the truncated level N included; the
        # oracle squares q = c + c^dag by a matrix product
        c = annihilation(cutoff).real
        q = c + c.T
        qs = fock_mod._moment_table(cutoff)[1]
        assert np.array_equal(qs[0], q)
        ref = q @ q
        assert np.abs(qs[1] - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


class TestDisplacement:
    # D(n beta) as the production propagator applies it, row by row in the
    # eigenbasis of q that fock._moment_table keeps once per mirror cutoff
    def test_zero_is_identity(self):
        g = random_grid((4, 6))
        assert np.abs(kicked(g, 0.0) - g).max() < 1e-14

    def test_small_displacement_matches_series(self):
        g = np.zeros((2, 13), dtype=complex)
        g[1, 0] = 1.0  # |1>_a |0>_m
        ref = coherent_state(0.01, 12, "m", leakage_tol=1.0)
        assert np.abs(kicked(g, 0.01)[1] - ref.amplitudes).max() < 1e-10

    def test_inverse_pair(self):
        g = random_grid((3, 11))
        assert np.abs(kicked(kicked(g, 0.3 + 0.1j), -0.3 - 0.1j) - g).max() < 1e-12

    @pytest.mark.parametrize("beta", [0.0, 5e-324, -5e-324j, 1e-310 + 1e-310j,
                                      0.03 - 0.02j, -0.2j, -0.5])
    def test_every_block_matches_expm_of_the_generator(self, beta):
        # against scipy's expm of n (beta c^dag - beta* c); a zero or
        # subnormal drive takes its phase from cmath.phase, never from
        # beta / |beta|, so nothing overflows, divides by zero or turns NaN
        # (its phases n |beta| w may underflow, gradually, to 0)
        g = random_grid((5, 41))
        with np.errstate(all="raise", under="ignore"):
            out = kicked(g, beta)
        for n in range(5):
            assert np.abs(out[n] - displacement(n * beta, 40) @ g[n]).max() < 1e-13

    @pytest.mark.parametrize("skew", ["vectors", "values"])
    def test_eigenpairs_fail_the_unitarity_check(self, monkeypatch, skew):
        # every D(n beta) = P V e^{-i n |beta| w} V^T P^* inherits its
        # deviation from V, so skewed eigenvectors or non-finite eigenvalues
        # fail the one check on the cached eigenpairs, wherever they are used
        real_eigh = fock_mod._tridiagonal_eigh

        def skewed_eigh(off):
            w, v = real_eigh(off)
            return (w, 1.5 * v) if skew == "vectors" else (w * np.nan, v)
        monkeypatch.setattr(fock_mod, "_tridiagonal_eigh", skewed_eigh)
        fock_mod._moment_table.cache_clear()
        interferometer._evolved_ket.cache_clear()
        with pytest.raises(TruncationError, match="unitarity"):
            kicked(random_grid((3, 7)), 0.1)
        with pytest.raises(TruncationError, match="unitarity"):
            run_protocol(ProtocolParams(alpha=complex(math.sqrt(2.0)), delta=0.005,
                                        evolution=evolution_params(0.005, math.pi)))


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


class TestFockSlices:
    # the engines and verify postselect a dark-port count by slicing the
    # occupation grid along that mode's axis
    def test_certain_branch(self):
        g = tensor([fock_state(0, 3, "c"), fock_state(0, 3, "d")]).grid
        assert np.sum(np.abs(g[:, 0]) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(g[:, 1:]).max() == 0.0

    def test_single_photon_of_weak_coherent(self):
        # P(1) = |da|^2 e^{-|da|^2} for da = 0.1
        p = abs(coherent_state(0.1, 10, "d").grid[1]) ** 2
        assert p == pytest.approx(0.01 * math.exp(-0.01), rel=1e-10)
        assert p == pytest.approx(9.900498337e-3, rel=1e-8)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_completeness(self, seed):
        lay = ModeLayout.of(("a", 3), ("d", 4), ("m", 2))
        s = StateVector(lay, random_grid(lay.shape, seed))
        total = sum(np.sum(np.abs(s.grid[:, n]) ** 2) for n in range(5))
        assert total == pytest.approx(s.norm ** 2, rel=1e-10)

    def test_product_state_factorization(self):
        a = coherent_state(0.7, 8, "a", leakage_tol=1.0).normalize()
        m = coherent_state(0.2, 5, "m", leakage_tol=1.0).normalize()
        x = tensor([a, m]).grid[:, 0]
        assert np.abs(x / np.linalg.norm(x) - a.amplitudes).max() < 1e-12


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

    def test_typed_errors_survive_optimize_flag(self):
        # `python -O` strips assert statements; the typed errors must remain
        snippet = (
            "import sys, numpy as np\n"
            "from optoweak import (DegenerateBranchError, DensityMatrix, ModeLayout,\n"
            "                      StateVector, TruncationError)\n"
            "assert False, 'unreachable under -O'\n"
            "lay = ModeLayout.of(('m', 2))\n"
            "calls = ((lambda: StateVector(lay, np.zeros(3)).normalize(), DegenerateBranchError),\n"
            "         (lambda: DensityMatrix(lay, 0.5 * np.eye(3)).validate(), TruncationError))\n"
            "for call, err in calls:\n"
            "    try:\n"
            "        call()\n"
            "    except err:\n"
            "        continue\n"
            "    sys.exit(f'no {err.__name__}')\n")
        src = str(Path(optoweak.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-O", "-c", snippet], capture_output=True,
                             text=True, timeout=120,
                             env=dict(os.environ, PYTHONPATH=src))
        assert run.returncode == 0, run.stderr


class TestDensityMatrix:
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

    def test_from_state_of_product_traces_to_its_factor(self):
        # (a, m) with m fastest: tracing arm a out of the outer product
        # leaves the mirror's own density matrix
        a = coherent_state(0.6, 7, "a", leakage_tol=1.0).normalize()
        m = coherent_state(0.3, 5, "m", leakage_tol=1.0).normalize()
        rho = DensityMatrix.from_state(tensor([a, m]))
        red = np.trace(rho.matrix.reshape(8, 6, 8, 6), axis1=0, axis2=2)
        assert np.abs(red - np.outer(m.amplitudes, m.amplitudes.conj())).max() < 1e-12

    def test_validate_catches_bad_trace(self):
        lay = ModeLayout.of(("m", 3))
        rho = DensityMatrix(lay, 0.5 * np.eye(4, dtype=complex))
        with pytest.raises(TruncationError):
            rho.validate()
