"""Fock-space algebra: constructor oracles, operator matrices, array conventions."""

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
from optoweak import (EvolutionParams, LayoutError, LindbladParams, ProtocolParams,
                      TruncationError, annihilation, coherent_state, evolution_params,
                      evolve_master, factored_propagate, position, poisson_tail,
                      run_protocol)
from optoweak import dissipation, oracle
from optoweak import fock as fock_mod
from optoweak import interferometer
from optoweak.fock import _unit


def number(cutoff):
    return np.diag(np.arange(cutoff + 1.0))


def basis(n, cutoff):
    """The Fock state |n> on cutoff + 1 levels."""
    return np.eye(cutoff + 1, dtype=complex)[n]


def mean(op, a):
    """<psi| op |psi> of single-mode amplitudes ``a``."""
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
    return factored_propagate(grid, Kick(0.0, 0.0, phi))


def random_grid(shape, seed=0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return g / np.linalg.norm(g)


def poisson_tail_direct(lam: float, cutoff: int) -> float:
    """Independent oracle: direct summation of the retained Poisson terms."""
    total = sum(lam ** n / math.factorial(n) for n in range(cutoff + 1))
    return 1.0 - math.exp(-lam) * total


class TestCoherentState:
    def test_vacuum_case(self):
        s = coherent_state(0.0, 4)
        assert s.shape == (5,) and s.dtype == complex and not s.flags.writeable
        assert s[0] == 1.0
        assert np.all(s[1:] == 0)
        assert poisson_tail(0.0, 4) == 0.0

    def test_cutoff_zero_closed_form(self):
        s = coherent_state(1.0, 0, leakage_tol=1.0)
        assert s[0] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert poisson_tail(1.0, 0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-12)

    def test_leakage_against_direct_summation(self):
        # |alpha|^2 = 2 at cutoff 14; the tail is 3.87e-9 by direct summation,
        # so the state fits a 1e-8 budget and not a 3.8e-9 one
        oracle = poisson_tail_direct(2.0, 14)
        coherent_state(math.sqrt(2.0), 14, leakage_tol=1e-8)
        with pytest.raises(TruncationError) as err:
            coherent_state(math.sqrt(2.0), 14, leakage_tol=3.8e-9)
        assert err.value.leakage == poisson_tail(math.sqrt(2.0) ** 2, 14)
        assert err.value.leakage == pytest.approx(oracle, rel=1e-9)
        assert err.value.leakage == pytest.approx(3.871230336e-9, rel=1e-6)

    def test_leakage_above_tolerance_raises(self):
        with pytest.raises(TruncationError) as err:
            coherent_state(2.0, 4)
        assert err.value.leakage > 1e-10

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 1.7])
    def test_leakage_monotone_in_cutoff(self, alpha):
        leaks = [poisson_tail(alpha ** 2, n) for n in range(2, 14)]
        assert all(a >= b for a, b in zip(leaks, leaks[1:]))

    def test_amplitudes_match_series(self):
        alpha = 0.7 + 0.2j
        s = coherent_state(alpha, 12, leakage_tol=1.0)
        for n in range(13):
            ref = math.exp(-abs(alpha) ** 2 / 2) * alpha ** n / math.sqrt(math.factorial(n))
            assert s[n] == pytest.approx(ref, abs=1e-14)


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


class TestOperators:
    def test_annihilation_matrix_elements(self):
        a = annihilation(4)
        assert a.dtype == complex
        for n in range(1, 5):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 4

    def test_number_position_hermitian_tight(self):
        for op in (number(8), position(8)):
            assert np.abs(op - op.conj().T).max() < 1e-12

    def test_position_vacuum_expectation_zero(self):
        assert mean(position(6), basis(0, 6)) == 0

    def test_position_on_coherent_closed_form(self):
        # <beta| c + c^dag |beta> = 2 Re beta
        beta = 0.6
        val = mean(position(20), coherent_state(beta, 20))
        assert val.real == pytest.approx(2 * beta, abs=1e-9)
        assert abs(val.imag) < 1e-12

    @pytest.mark.parametrize("beta", [0.6, -0.4 + 0.3j, 0.5j])
    def test_position_moments_on_coherent(self, beta):
        # in zero-point units <beta|q|beta> = 2 Re beta, and a coherent state
        # keeps the vacuum's variance 1 whatever its complex amplitude
        s = coherent_state(beta, 30)
        q = position(30)
        m1, m2 = mean(q, s), mean(q @ q, s)
        assert m1.real == pytest.approx(2 * beta.real, abs=1e-9)
        assert abs(m1.imag) < 1e-12
        assert (m2 - m1 ** 2).real == pytest.approx(1.0, abs=1e-9)

    def test_annihilation_lowers_fock_states(self):
        a = annihilation(4)
        assert np.abs(a @ basis(0, 4)).max() == 0.0
        for n in range(1, 5):
            ref = math.sqrt(n) * basis(n - 1, 4)
            assert np.abs(a @ basis(n, 4) - ref).max() < 1e-15

    def test_coherent_state_is_annihilation_eigenstate(self):
        # a|beta> = beta|beta> on every level below the cutoff; the top level
        # has no level above it to lower from
        beta = 0.7 - 0.2j
        amps = coherent_state(beta, 12, leakage_tol=1.0)
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
        qs = fock_mod._moment_table(cutoff)
        assert np.array_equal(qs[0], q)
        ref = q @ q
        assert np.abs(qs[1] - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


class TestDisplacement:
    # D(n beta) as the oracle factored_propagate applies it, row by row in the
    # eigenbasis of q that oracle._eigenpairs keeps once per mirror cutoff
    def test_zero_is_identity(self):
        g = random_grid((4, 6))
        assert np.abs(kicked(g, 0.0) - g).max() < 1e-14

    def test_small_displacement_matches_series(self):
        g = np.zeros((2, 13), dtype=complex)
        g[1, 0] = 1.0  # |1>_a |0>_m
        ref = coherent_state(0.01, 12, leakage_tol=1.0)
        assert np.abs(kicked(g, 0.01)[1] - ref).max() < 1e-10

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
        # fail the one check on the oracle's cached eigenpairs; run_protocol
        # never reads them and returns the unskewed outcome bit for bit.
        # Only q's (7, 7) eigenpairs are skewed: the recombiner's truncated
        # block, (n_opt, n_opt), is rebuilt below by the unskewed eigh
        params = ProtocolParams(alpha=complex(math.sqrt(2.0)), delta=0.005,
                                evolution=evolution_params(0.005, math.pi))
        assert params.n_opt != 7
        interferometer._evolved_ket.cache_clear()
        ref = run_protocol(params)
        real_eigh = np.linalg.eigh

        def skewed_eigh(m):
            w, v = real_eigh(m)
            if np.shape(m) != (7, 7):
                return w, v
            return (w, 1.5 * v) if skew == "vectors" else (w * np.nan, v)
        monkeypatch.setattr(np.linalg, "eigh", skewed_eigh)
        for cache in (oracle._eigenpairs, interferometer._evolved_ket, interferometer._bs_tables):
            cache.cache_clear()
        with pytest.raises(TruncationError, match="unitarity"):
            kicked(random_grid((3, 7)), 0.1)
        out = run_protocol(params)
        assert interferometer._evolved_ket.cache_info().misses == 1
        for name in ("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
                     "dq_click", "dq_noclick", "diff"):
            assert getattr(out, name) == getattr(ref, name), name
        assert np.array_equal(out.mirror_click, ref.mirror_click)


class TestFockSlices:
    # the engines and verify postselect a dark-port count by slicing the
    # occupation grid along that mode's axis
    def test_certain_branch(self):
        g = np.multiply.outer(basis(0, 3), basis(0, 3))
        assert np.sum(np.abs(g[:, 0]) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert np.abs(g[:, 1:]).max() == 0.0

    def test_single_photon_of_weak_coherent(self):
        # P(1) = |da|^2 e^{-|da|^2} for da = 0.1
        p = abs(coherent_state(0.1, 10)[1]) ** 2
        assert p == pytest.approx(0.01 * math.exp(-0.01), rel=1e-10)
        assert p == pytest.approx(9.900498337e-3, rel=1e-8)

    @given(st.integers(0, 30))
    @settings(max_examples=20, deadline=None)
    def test_completeness(self, seed):
        s = random_grid((4, 5, 3), seed)  # (a, d, m)
        total = sum(np.sum(np.abs(s[:, n]) ** 2) for n in range(5))
        assert total == pytest.approx(np.linalg.norm(s) ** 2, rel=1e-10)

    def test_product_state_factorization(self):
        a = _unit(coherent_state(0.7, 8, leakage_tol=1.0))
        m = _unit(coherent_state(0.2, 5, leakage_tol=1.0))
        x = np.multiply.outer(a, m)[:, 0]
        assert np.abs(x / np.linalg.norm(x) - a).max() < 1e-12


class TestTypedErrors:
    def test_typed_errors_survive_optimize_flag(self):
        # `python -O` strips assert statements; the typed errors must remain
        snippet = (
            "import sys, numpy as np\n"
            "from optoweak import (DegenerateBranchError, LayoutError, TruncationError,\n"
            "                      coherent_state, evolution_params, factored_propagate)\n"
            "from optoweak.fock import _unit\n"
            "assert False, 'unreachable under -O'\n"
            "ev = evolution_params(0.1, 1.0)\n"
            "calls = ((lambda: _unit(np.zeros(3)), DegenerateBranchError),\n"
            "         (lambda: coherent_state(2.0, 4), TruncationError),\n"
            "         (lambda: factored_propagate(np.zeros(3), ev), LayoutError))\n"
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
    # an (a, m) density matrix from outside is an array of shape
    # (da, dm, da, dm); the oracles that take one check its Hermiticity
    lb = LindbladParams(1e-3, evolution_params(0.005, math.pi))

    @pytest.mark.parametrize("row, col", [(0, 3), (700, 703), (1023, 1020)])
    def test_hermitian_check_covers_every_row_block(self, row, col):
        # one broken pair inside the first, a middle or the last row block
        m = np.eye(1024, dtype=complex)
        m[row, col] = 1e-9
        with pytest.raises(LayoutError, match="not Hermitian"):
            evolve_master(m.reshape(32, 32, 32, 32), self.lb, 1.0)

    def test_hermitian_check_holds_row_blocks_not_matrices(self):
        # dimension 1024 (16 MiB): m - m^H and its abs, taken whole, held
        # 2.5 matrices beside m; in row blocks the check holds a few rows
        rng = np.random.default_rng(0)
        a = rng.normal(size=(1024, 1024)) + 1j * rng.normal(size=(1024, 1024))
        m = (a + a.conj().T).reshape(32, 32, 32, 32)
        del a
        tracemalloc.start()
        try:
            dissipation._density_matrix(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * m.nbytes

    def test_outer_product_of_a_product_traces_to_its_factor(self):
        # (a, m) with m fastest: tracing arm a out of the outer product
        # leaves the mirror's own density matrix
        a = _unit(coherent_state(0.6, 7, leakage_tol=1.0))
        m = _unit(coherent_state(0.3, 5, leakage_tol=1.0))
        psi = np.multiply.outer(a, m)
        rho = np.multiply.outer(psi, psi.conj())
        red = np.trace(rho, axis1=0, axis2=2)
        assert np.abs(red - np.outer(m, m.conj())).max() < 1e-12
        flat = psi.reshape(-1)
        assert np.array_equal(rho.reshape(48, 48), np.outer(flat, flat.conj()))
