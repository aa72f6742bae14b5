"""Damped master-equation integration and the damped protocol."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from optoweak import (LindbladParams, LayoutError, ProtocolParams, TruncationError,
                      coherent_state, damped_protocol, evolution_params, evolve_master,
                      run_protocol)
from optoweak.dissipation import _EXPM_WORKSPACE, _THETA13, _evolve_blocks, _expm
from optoweak.oracle import _hamiltonian, factored_propagate, lindblad_rhs


def mirror_number(rho):
    """<n_m> of an (a, m) density matrix whose arm a has dimension 1, so that
    the matrix is the mirror's own."""
    m = rho.reshape(rho.shape[1], -1)
    return float(np.diag(m).real @ np.arange(len(m)))


def random_density(rng, da, dm):
    """A random (a, m) density matrix of shape (da, dm, da, dm), not a product state."""
    n = da * dm
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = m @ m.conj().T
    return (rho / np.trace(rho)).reshape(da, dm, da, dm)


def product_density(arm, mirror_cutoff):
    """|arm> |0>_m, normalized, as a pure (a, m) density matrix, and its ket."""
    vacuum = np.zeros(mirror_cutoff + 1, dtype=complex)
    vacuum[0] = 1.0
    psi = np.multiply.outer(arm, vacuum)
    psi = psi / np.linalg.norm(psi)
    return np.multiply.outer(psi, psi.conj()), psi


def mirror_density(mirror):
    """|0>_a |mirror>, normalized, as a pure (a, m) density matrix with arm a
    of dimension 1."""
    psi = (mirror / np.linalg.norm(mirror))[None, :]
    return np.multiply.outer(psi, psi.conj())


def as_matrix(rho):
    """An (a, m) density matrix as its (da dm, da dm) matrix."""
    n = rho.shape[0] * rho.shape[1]
    return rho.reshape(n, n)


class TestRhs:
    def test_eigenprojector_commutator_vanishes(self):
        base = evolution_params(0.05, math.pi)
        h = _hamiltonian(4, 4, base.k)
        w, v = np.linalg.eigh(h)
        proj = np.outer(v[:, 3], v[:, 3].conj()).reshape(4, 5, 4, 5)
        rhs = lindblad_rhs(proj, LindbladParams(0.0, base))
        assert np.abs(rhs).max() < 1e-12

    def test_dissipator_vanishes_on_mirror_vacuum(self):
        base = evolution_params(0.0, math.pi)
        rho, _ = product_density(coherent_state(0.7, 5, leakage_tol=1.0), 4)
        rhs = lindblad_rhs(rho, LindbladParams(0.5, base))
        assert np.abs(rhs).max() < 1e-12

    @given(st.integers(0, 20))
    @settings(max_examples=15, deadline=None)
    def test_rhs_traceless_and_hermitian(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, 3, 4)
        rhs = as_matrix(lindblad_rhs(rho, LindbladParams(0.3, evolution_params(0.1, 1.0))))
        assert abs(np.trace(rhs)) < 1e-12
        assert np.abs(rhs - rhs.conj().T).max() < 1e-12


class TestEvolveMaster:
    def test_working_set_is_the_feasibility_count(self):
        # mirror cutoff 15: one 256 x 256 block generator per chunk, the
        # limit the feasibility guard bounds by _EXPM_WORKSPACE generators
        rho0, _ = product_density(coherent_state(0.3, 1, leakage_tol=1.0), 15)
        params = LindbladParams(1e-3, evolution_params(0.005, math.pi))
        tracemalloc.start()
        try:
            evolve_master(rho0, params, math.pi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        generators = peak / (16 * 16 ** 4)
        assert _EXPM_WORKSPACE - 1 < generators <= _EXPM_WORKSPACE

    def test_block_evolution_refuses_a_non_hermitian_diagonal_block(self):
        # da 2: blocks (0, 0), (0, 1), (1, 1); only the diagonal ones are
        # not mirrored from another block
        upper = np.zeros((3, 2, 2), dtype=complex)
        upper[0] = [[0.5, 0.1], [0.0, 0.5]]
        params = LindbladParams(1e-3, evolution_params(0.05, 1.0))
        with pytest.raises(LayoutError, match="not Hermitian"):
            _evolve_blocks(upper, 2, params, 0.5)

    def test_matches_unitary_at_zero_damping(self):
        k, wm_t = 0.005, math.pi
        base = evolution_params(k, wm_t)
        rho0, psi = product_density(coherent_state(1.0, 7, leakage_tol=1.0), 6)
        rho = evolve_master(rho0, LindbladParams(0.0, base), wm_t)
        ref = factored_propagate(psi, base).reshape(-1)
        rho_ref = np.outer(ref, ref.conj())
        dist = 0.5 * np.abs(np.linalg.eigvalsh(as_matrix(rho) - rho_ref)).sum()
        assert dist < 1e-8

    def test_decay_rate_oracle(self):
        # <n>(t) = <n>(0) e^{-gamma t} for pure damping
        gamma, t = 0.5, 10.0
        beta = 0.3
        base = evolution_params(0.0, 0.0)  # no coherent dynamics
        rho0 = mirror_density(coherent_state(beta, 8, leakage_tol=1.0))
        out = evolve_master(rho0, LindbladParams(gamma, base), t)
        meas = mirror_number(out)
        oracle = beta ** 2 * math.exp(-gamma * t)
        assert meas == pytest.approx(oracle, rel=1e-4)
        assert meas < 1e-3

    def test_mirror_free_evolution_conserves_number_when_undamped(self):
        base = evolution_params(0.0, math.pi)
        rho0 = mirror_density(coherent_state(0.4, 6, leakage_tol=1.0))
        rho = evolve_master(rho0, LindbladParams(0.0, base), math.pi)
        assert mirror_number(rho) == pytest.approx(mirror_number(rho0), abs=1e-10)

    def test_trace_drift_tiny_at_device_damping(self):
        base = evolution_params(0.005, math.pi)
        rho0, _ = product_density(coherent_state(1.0, 7, leakage_tol=1.0), 6)
        rho = evolve_master(rho0, LindbladParams(5e-7, base), math.pi)
        assert abs(np.trace(as_matrix(rho)).real - 1.0) < 1e-10


def dense_superoperator(da, dm, lb):
    """The joint-space Liouvillian, one column per basis matrix E_ij.

    ``lindblad_rhs`` takes Hermitian input only, so each E_ij comes from the
    Hermitian pair A = E_ij + E_ji, B = i(E_ij - E_ji) by linearity:
    L(E_ij) = (L(A) - i L(B)) / 2.
    """
    n = da * dm
    sup = np.empty((n * n, n * n), dtype=complex)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            a = lindblad_rhs((e + e.T).reshape(da, dm, da, dm), lb)
            b = lindblad_rhs((1j * (e - e.T)).reshape(da, dm, da, dm), lb)
            sup[:, i * n + j] = ((a - 1j * b) / 2).reshape(-1)
    return sup


class TestDenseOracle:
    """Block evolution against expm of the dense joint-space superoperator."""

    @pytest.mark.parametrize("gamma", [0.0, 1e-3, 0.5])
    def test_block_evolution_matches_dense_superoperator(self, gamma):
        base = evolution_params(0.1, math.pi)
        lb = LindbladParams(gamma, base)
        rho0 = random_density(np.random.default_rng(7), 4, 5)  # not a product state
        t = base.wm_t
        ref = expm(t * dense_superoperator(4, 5, lb)) @ rho0.reshape(-1)
        out = evolve_master(rho0, lb, t)
        assert np.abs(out - ref.reshape(rho0.shape)).max() < 1e-12


def non_normal(rng, n, norm):
    """A complex non-normal n x n matrix of 1-norm ``norm``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = np.triu(a) + 0.3 * a
    return a * (norm / np.abs(a).sum(axis=0).max())


def rel_dev(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


class TestExpm:
    """The block propagator's Pade exponential against scipy's."""

    @pytest.mark.parametrize("n", [1, 4, 16, 121])
    @pytest.mark.parametrize("norm", [0.5, 3.0, 4.2, 10.0, 40.0, 80.0])
    def test_matches_scipy(self, n, norm):
        # norms below theta13 take no squaring, 80 takes five; applied to
        # the identity, the propagator is the exponential itself
        rng = np.random.default_rng(n)
        a = non_normal(rng, n, norm)
        vec = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
        assert rel_dev(_expm(a[None], np.eye(n)[None])[0], expm(a)) < 1e-13
        assert rel_dev(_expm(a[None], vec[None])[0], expm(a) @ vec) < 1e-13

    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_zero_matrix_is_identity(self, n):
        vec = np.arange(2 * n * 2).reshape(2, n, 2) + 1j
        assert np.abs(_expm(np.zeros((2, n, n), dtype=complex), vec) - vec).max() < 1e-13

    def test_stack_matches_each_matrix_alone(self):
        # norms on both sides of theta13, so the stack mixes scalings
        rng = np.random.default_rng(11)
        norms = (0.5 * _THETA13, 2.0 * _THETA13, 3.0, 40.0, 80.0)
        a = np.stack([non_normal(rng, 16, x) for x in norms])
        vec = rng.normal(size=(len(norms), 16, 2)) + 0j
        stack = _expm(a, vec)
        for i in range(len(norms)):
            assert rel_dev(stack[i], _expm(a[i:i + 1], vec[i:i + 1])[0]) < 1e-13


class TestDampedProtocol:
    def params(self, alpha2=0.5, delta=0.005, k=0.005):
        return ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=delta,
                              evolution=evolution_params(k, math.pi),
                              optical_cutoff=9, mirror_cutoff=5)

    def test_zero_damping_matches_unitary_pipeline(self):
        p = self.params()
        damped = damped_protocol(p, 0.0)
        unitary = run_protocol(p)
        assert damped.diff == pytest.approx(unitary.diff, abs=1e-8)
        assert damped.p_click == pytest.approx(unitary.p_click, abs=1e-8)
        assert damped.q_noclick == pytest.approx(unitary.q_noclick, abs=1e-8)
        assert damped.dq_click == pytest.approx(unitary.dq_click, abs=1e-8)

    def test_exaggerated_damping_reduces_amplification(self):
        p = self.params()
        base = damped_protocol(p, 0.0).diff
        heavy = damped_protocol(p, 1e-2).diff
        assert heavy < base

    def test_continuity_in_gamma(self):
        # |q_diff(gamma) - q_diff(0)| <= C gamma; estimate C, do not assume it
        p = self.params()
        base = damped_protocol(p, 0.0).diff
        gamma = 1e-3
        drift = abs(damped_protocol(p, gamma).diff - base)
        c_estimate = drift / gamma
        assert math.isfinite(c_estimate)
        # gentle sanity bound: the kick changes by O(gamma * wm_t * value)
        assert c_estimate < 10.0 * abs(base)

    def test_zero_drive_degenerate_branch_matches_unitary(self):
        p = self.params(alpha2=0.0)
        damped, unitary = damped_protocol(p, 0.0), run_protocol(p)
        assert damped.degenerate_reason == unitary.degenerate_reason
        assert damped.degenerate_reason.startswith("click:")
        assert damped.p_click == unitary.p_click == 0.0
        for out in (damped, unitary):
            assert math.isnan(out.q_click) and math.isnan(out.dq_click)
            assert math.isnan(out.diff) and out.mirror_click is None

    def test_mirror_tail_checked_like_unitary_engine(self):
        # displacement up to 12 |phi| = 2.4 does not fit mirror cutoff 1: both
        # engines refuse with the same leakage instead of a wrong answer
        p = ProtocolParams(alpha=complex(math.sqrt(2.0)), delta=0.005,
                           evolution=evolution_params(0.1, math.pi),
                           optical_cutoff=12, mirror_cutoff=1)
        with pytest.raises(TruncationError) as unitary:
            run_protocol(p)
        with pytest.raises(TruncationError) as damped:
            damped_protocol(p, 0.0)
        assert damped.value.leakage == unitary.value.leakage > 1e-3


class TestTrajectoryHealth:
    def test_trace_hermiticity_positivity_along_trajectory(self):
        base = evolution_params(0.02, math.pi)
        rho0, _ = product_density(coherent_state(1.0, 7, leakage_tol=1.0), 6)
        lb = LindbladParams(1e-4, base)
        for frac in (0.25, 0.5, 0.75, 1.0):
            rho = as_matrix(evolve_master(rho0, lb, frac * math.pi))
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-9
            assert np.abs(rho - rho.conj().T).max() < 1e-12
