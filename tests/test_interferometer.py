"""Protocol pipeline: preselection, recombination, postselection, weak values."""

import cmath
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply

from optoweak import (DEFAULT_TOL, DegenerateBranchError, LayoutError, LindbladParams,
                      ProtocolParams, annihilation, coherent_state, damped_protocol,
                      evolution_params, evolve_master, poisson_tail, position,
                      run_protocol, weak_value_numeric)
from optoweak import analytics as an
from optoweak import oracle
from optoweak.dissipation import _evolved_rho
from optoweak.dynamics import _mirror_tail
from optoweak.fock import _moment_table, cutoff_for_leakage
from optoweak.interferometer import (MAX_RECOMBINER_DIM, _arm, _bs_kernel, _bs_tables, _drive,
                                     _evolved_ket)
from optoweak.oracle import factored_propagate
from optoweak.sweep import iter_sweep_rows, load_config


def make_params(alpha2, delta, k=0.005, wm_t=math.pi, **kw):
    return ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=delta,
                          evolution=evolution_params(k, wm_t), **kw)


def number(cutoff):
    return np.diag(np.arange(cutoff + 1.0))


def preselect_am(params):
    """|alpha/sqrt2>_a |0>_m as a (d, dm) ket of unit norm: the (a, m)
    state both engines start from."""
    vacuum = np.zeros(params.mirror_cutoff + 1, dtype=complex)
    vacuum[0] = 1.0
    return np.multiply.outer(_arm(params), vacuum)


class TestPreselect:
    def test_zero_drive_gives_triple_vacuum(self):
        params = make_params(0.0, 0.01)
        psi = preselect_am(params)
        assert psi.shape == (params.n_opt + 1, params.mirror_cutoff + 1)
        assert psi[0, 0] == pytest.approx(1.0)
        assert _arm(params)[0] == pytest.approx(1.0)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)

    def test_arm_mean_photon_number(self):
        params = make_params(2.0, 0.01)
        weights = np.sum(np.abs(preselect_am(params)) ** 2, axis=1)  # P(n_a)
        assert weights @ np.arange(params.n_opt + 1) == pytest.approx(1.0, abs=1e-8)

    def test_norm_and_leakage(self):
        params = make_params(2.0, 0.01)
        arm = _arm(params)  # arms a and b alike
        assert np.linalg.norm(np.multiply.outer(arm, arm)) == pytest.approx(1.0, abs=1e-9)
        assert 1.0 - (1.0 - poisson_tail(params.alpha2 / 2, params.n_opt)) ** 2 < 1e-9


class TestClosedFormKet:
    FIELDS = ("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
              "dq_click", "dq_noclick", "diff")

    @pytest.mark.parametrize("alpha2, mirror", [(300.0, 60), (1000.0, 200)])
    def test_matches_the_factored_oracle_at_scale(self, alpha2, mirror):
        # n_opt 404 and 1190: the closed form against the eigenpair route on
        # the vacuum mirror both start from (the oracle warns at both:
        # |n_opt phi|^2 is not small against the mirror cutoff, yet the tail
        # check passes)
        params = make_params(alpha2, 0.0, mirror_cutoff=mirror)
        psi, norm2, beta = _evolved_ket(_drive(params))
        with pytest.warns(UserWarning, match=f"not small against cutoff {mirror}"):
            ref = factored_propagate(preselect_am(params), params.evolution)
        assert np.abs(psi - ref).max() < 1e-13
        assert norm2 == pytest.approx(1.0, abs=1e-13)

    def test_keeps_every_row_at_the_largest_mirror_cutoff(self):
        # mirror cutoff 1447, the largest sweep's guard admits, with the top
        # row displaced by |12 phi|^2 = 1474.6 (phi = 3.2): the mirror tail is
        # 5.8e-10 of the 1e-9 budget.  e^{-|n phi|^2/2} alone underflows there
        # (a row built from it lost 1.9e-10 of norm^2) and (n phi)^m / sqrt(m!)
        # alone overflows; the kept ket is finite and its norm^2 is 1 minus
        # the reported tail (the stage alone: a point would hold 7.3 dm^2
        # complex entries, 245 MB)
        params = make_params(2.0, 0.0, k=1.6, mirror_cutoff=1447)
        psi, norm2, beta = _evolved_ket(_drive(params))
        tail = _mirror_tail(params.evolution, np.abs(beta) ** 2, 1447)
        assert 5e-10 < tail < DEFAULT_TOL.propagate_leakage
        assert np.isfinite(psi).all()
        assert norm2 == pytest.approx(1.0 - tail, abs=1e-12)
        assert np.linalg.norm(psi[-1]) ** 2 > 1e-10  # the top row survives

    @pytest.mark.parametrize("engine", ["unitary", "damped"])
    def test_outputs_do_not_depend_on_the_drive_phase(self, engine):
        # both arms share the drive's phase: alpha -> alpha e^{0.7i} puts
        # e^{0.7i N} on the recombined block of total photon number N, which
        # every dark-port outcome's mirror state drops
        def run(alpha):
            params = ProtocolParams(alpha=alpha, delta=0.03,
                                    evolution=evolution_params(0.02, math.pi),
                                    optical_cutoff=27, mirror_cutoff=7)
            return run_protocol(params) if engine == "unitary" else damped_protocol(params, 1e-3)
        real, turned = run(complex(math.sqrt(12.0))), run(math.sqrt(12.0) * cmath.exp(0.7j))
        for name in self.FIELDS:
            assert getattr(turned, name) == pytest.approx(getattr(real, name), abs=1e-13), name
        for name in ("mirror_click", "mirror_noclick"):
            assert np.abs(getattr(turned, name) - getattr(real, name)).max() < 1e-13, name

    @given(st.floats(0.5, 4.0), st.floats(1e-3, 0.1), st.booleans(), st.floats(0.0, 0.03),
           st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True))
    @settings(max_examples=12, deadline=None)
    def test_drive_phase_invariance_over_the_desk_range(self, alpha2, size, negative, k, wm_t,
                                                        varphi):
        # alpha -> alpha e^{i varphi} moves every output by rounding only:
        # each probability within 1e-14 and each moment of branch j within
        # 1e-14 / p_j (diff by the smaller p).  A flat moment bound would be
        # flaky: the damped q_click moves by 5.9e-11 where p_click ~ 5e-7
        delta = -size if negative else size
        for run in (run_protocol, lambda params: damped_protocol(params, 1e-3)):
            real, turned = (run(ProtocolParams(alpha=math.sqrt(alpha2) * cmath.exp(1j * phase),
                                               delta=delta, evolution=evolution_params(k, wm_t),
                                               mirror_cutoff=6))
                            for phase in (0.0, varphi))
            for name in ("p_click", "p_noclick", "p_residual"):
                assert abs(getattr(turned, name) - getattr(real, name)) <= 1e-14, name
            for names, p in ((("q_click", "dq_click"), real.p_click),
                             (("q_noclick", "dq_noclick"), real.p_noclick),
                             (("diff",), min(real.p_click, real.p_noclick))):
                for name in names:
                    assert abs(getattr(turned, name) - getattr(real, name)) * p <= 1e-14, name


def beam_splitter(theta, cutoff):
    """Dense exp[theta(a^dag b - a b^dag)] on the truncated (a, b) space (b
    varying fastest), then the pi phase flip on odd b occupation: outputs
    c = cos a + sin b, d = sin a - cos b.  The oracle for the block kernel;
    small cutoffs only."""
    a = annihilation(cutoff)
    gen = np.kron(a.conj().T, a) - np.kron(a, a.conj().T)
    flip = np.tile((-1.0) ** np.arange(cutoff + 1), cutoff + 1)
    return flip[:, None] * expm(theta * gen)


def dense_kernel(theta, beta):
    """W[j, c, n] for dark-port occupation j = 0, 1 from the dense oracle,
    sliced as ref[:, :2, :]; at d = 1 the j = 1 slice is empty (zero)."""
    d = len(beta)
    ref = beam_splitter(theta, d - 1).reshape(d, d, d, d) @ beta
    out = np.zeros((2, d, d), dtype=complex)
    out[:min(d, 2)] = ref[:, :2, :].transpose(1, 0, 2)
    return out


def eigh_rows(theta, off, rows):
    """Rows ``rows`` of exp(theta G) for the block generator G with
    off-diagonal ``off``, from the complex Hermitian eigenpairs of i G."""
    ev, vec = np.linalg.eigh(1j * (np.diag(off, -1) - np.diag(off, 1)))
    return (vec[rows] * np.exp(-1j * theta * ev)) @ vec.conj().T


def expm_rows(theta, off, rows):
    """:func:`eigh_rows` by scipy's expm_multiply on the sparse generator, no
    eigensolver: row c of exp(theta G) is column c of exp(-theta G)."""
    unit = np.zeros((len(off) + 1, len(rows)))
    unit[rows, range(len(rows))] = 1.0
    return expm_multiply(-theta * diags([off, -off], [-1, 1], format="csr"), unit).T


def block_rows(theta, beta, n_tot, rows_of=eigh_rows):
    """The rows of block N = ``n_tot`` that reach dark-port occupation j <= 1,
    on the states |i, N - i> that cutoff d = len(beta) keeps:
    (j, c, i, rows) with rows[k] = W[j[k], c[k], i]."""
    d = len(beta)
    i = np.arange(max(0, n_tot - d + 1), min(n_tot, d - 1) + 1)
    off = np.sqrt((i[:-1] + 1.0) * (n_tot - i[:-1]))
    c = np.arange(max(n_tot - 1, i[0]), min(n_tot, i[-1]) + 1)  # rows with j <= 1
    j = n_tot - c
    # pi flip on j = 1
    return j, c, i, rows_of(theta, off, c - i[0]) * beta[n_tot - i] * (1 - 2 * j)[:, None]


def loop_kernel(theta, beta):
    """W[j, c, n] block by block, each from a complex Hermitian eigensolver
    (:func:`block_rows`): the oracle of the closed-form kernel."""
    d = len(beta)
    w = np.zeros((2, d, d), dtype=complex)
    for n_tot in range(min(d + 1, 2 * d - 1)):
        j, c, i, rows = block_rows(theta, beta, n_tot)
        w[j, c, i[0]:i[-1] + 1] = rows
    return w


@functools.lru_cache(maxsize=None)
def oracle_case(d, theta):
    """A fixed random arm-b vector for cutoff dimension d and its
    :func:`loop_kernel` at ``theta``, computed once per test session."""
    rng = np.random.default_rng(d)
    beta = rng.normal(size=d) + 1j * rng.normal(size=d)
    return beta, loop_kernel(theta, beta)


ORACLE_ANGLES = (0.3, math.pi / 4 - 0.12, math.pi / 4 + 0.12, math.pi / 4 - 0.78,
                 math.pi / 4 + 0.78, math.pi / 2)


class TestBeamSplitter:
    @pytest.mark.parametrize("cutoff", [0, 1, 2, 6, 12])
    @pytest.mark.parametrize("theta", [math.pi / 4 + 0.03, math.pi / 2, 0.3])
    def test_block_kernel_matches_dense_oracle(self, cutoff, theta):
        # every cutoff >= 1 has blocks N = n_a + n_b >= d that the truncation
        # cuts short; the kernel must reproduce those, not the exact SU(2) map
        d = cutoff + 1
        rng = np.random.default_rng(cutoff)
        beta = rng.normal(size=d) + 1j * rng.normal(size=d)
        w = _bs_kernel(np.array([theta]), beta)
        assert w.shape == (1, 2, d, d)
        assert np.abs(w[0] - dense_kernel(theta, beta)).max() < 1e-13

    def test_interleaved_cutoffs_reuse_cached_eigenpairs(self):
        # cutoffs and angles alternate, so later calls take the eigenpairs
        # cached by earlier ones and must still match the dense oracle
        rng = np.random.default_rng(11)
        for cutoff, theta in [(6, 0.3), (12, math.pi / 4 + 0.03), (6, math.pi / 2),
                              (3, 0.3), (12, 0.3), (6, math.pi / 4 + 0.03),
                              (3, math.pi / 2)]:
            d = cutoff + 1
            beta = rng.normal(size=d) + 1j * rng.normal(size=d)
            w = _bs_kernel(np.array([theta]), beta)[0]
            assert np.abs(w - dense_kernel(theta, beta)).max() < 1e-13

    def test_tables_are_cached_per_cutoff_and_read_only(self):
        _bs_tables.cache_clear()
        for cutoff, theta in [(4, 0.3), (4, math.pi / 4 + 0.03), (6, 0.3)]:
            _bs_kernel(np.array([theta]), np.ones(cutoff + 1, dtype=complex))
        # one entry per cutoff; the second angle at cutoff 4 is a hit
        info = _bs_tables.cache_info()
        assert (info.currsize, info.misses, info.hits) == (2, 2, 1)
        d = 5
        tables = _bs_tables(d)
        binom, root, power, ilam, q = tables
        assert [a.shape for a in tables] == [(d, d + 1), (d,), (d + 2,), (d - 1,), (d - 1, d - 1)]
        assert sum(a.size for a in tables) == 2 * d * d + 2 * d + 2
        exact = [[0.0] + [math.sqrt(math.comb(c, n)) for n in range(d)] for c in range(d)]
        assert np.abs(binom - exact).max() < 1e-15
        assert (root == np.sqrt(np.arange(d))).all() and (power == [0, 0, 1, 2, 3, 4, 5]).all()
        # the truncated block's spectrum is real, and at theta = 0 its row is
        # the identity's, pi-flipped: -1 at c = d - 1, 0 elsewhere
        assert (ilam.real == 0).all()
        assert np.abs(q.sum(axis=0) - [0, 0, 0, -1]).max() < 1e-15
        for arr in tables:
            with pytest.raises(ValueError):
                arr[...] = 0

    @pytest.mark.parametrize("n_angles", [1, 3, 6])
    @pytest.mark.parametrize("d", [1, 2, 3, 13, 34, 64, 160])
    def test_kernel_within_bound_of_the_loop_kernel(self, d, n_angles):
        # the closed form against per-block complex eigenpairs, at angles that
        # put cos or sin near 0 (pi/2: cos^(n-1) at n = 0 must not be 0^-1);
        # every angle of a batch gets the bits of its own one-angle call
        thetas = np.array(ORACLE_ANGLES[:n_angles])
        beta = oracle_case(d, thetas[0])[0]
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            w = _bs_kernel(thetas, beta)
            assert w.shape == (n_angles, 2, d, d)
            for t, theta in enumerate(thetas):
                ref = oracle_case(d, theta)[1]
                assert np.abs(w[t] - ref).max() <= 1e-13 * np.abs(ref).max()
                assert (w[t] == _bs_kernel(thetas[t:t + 1], beta)[0]).all()

    @pytest.mark.parametrize("d", [2, 3, 13, 34, 64, MAX_RECOMBINER_DIM])
    def test_truncated_block_matches_expm_multiply(self, d):
        # the largest complete block N = d - 1 and the truncated block N = d,
        # whose row comes from LAPACK's eigh, against expm_multiply
        # (:func:`expm_rows`), no eigensolver: the damped (13), scaled (34)
        # and paper-point (64) cutoffs, and d = MAX_RECOMBINER_DIM, the
        # largest the feasibility guard accepts (test_sweep)
        theta = 0.3
        rng = np.random.default_rng(d)
        beta = rng.normal(size=d) + 1j * rng.normal(size=d)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                w = _bs_kernel(np.array([theta]), beta)[0]
            assert np.isfinite(w).all()
            for n_tot in (d - 1, d):
                j, c, i, rows = block_rows(theta, beta, n_tot, expm_rows)
                assert np.abs(w[j, c][:, i] - rows).max() <= 1e-13 * np.abs(w).max()
        finally:
            if d == MAX_RECOMBINER_DIM:
                _bs_tables.cache_clear()  # about 100 MB

    def test_one_past_the_largest_cutoff_overflows(self):
        d = MAX_RECOMBINER_DIM
        assert math.comb(d, d // 2) > int(sys.float_info.max) ** 2  # d + 1 overflows
        with pytest.raises(LayoutError, match=r"optical cutoff 2054 overflows the recombiner's "
                                              r"binomial table \(largest 2053\)"):
            run_protocol(make_params(2.0, 0.005, optical_cutoff=d))

    @pytest.mark.parametrize("engine, params, array", [
        (run_protocol, make_params(0.5, 0.005, mirror_cutoff=1448),
         "mirror working set has 16796808 entries"),
        (lambda p: damped_protocol(p, 1e-3), make_params(2.0, 0.005, optical_cutoff=12,
                                                         mirror_cutoff=33),
         "block exponential's working set has 17372368 entries"),
    ], ids=["unitary-mirror-1448", "damped-12-33"])
    def test_engines_refuse_an_over_cap_array_before_building_it(self, engine, params, array):
        # each engine checks its own arrays against 4096^2 complex entries on
        # a stage miss; the damped one was refused only by the sweep guard
        tracemalloc.start()
        try:
            with pytest.raises(LayoutError, match=array):
                engine(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_production_eigh_runs_once_per_optical_cutoff_on_the_truncated_block(
            self, monkeypatch):
        # the recombiner's truncated block N = d, n_opt states, is the one
        # eigensolve on a production path, once per optical cutoff; the
        # mirror needs no eigenpairs, so no q-sized matrix reaches eigh
        shapes, real_eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m, *args, **kwargs: shapes.append(np.shape(m))
                            or real_eigh(m, *args, **kwargs))
        for cache in (_bs_tables, _moment_table, _evolved_ket, _evolved_rho,
                      oracle._eigenpairs):
            cache.cache_clear()
        unitary, damped = (make_params(2.0, 0.005),
                           make_params(2.0, 0.005, optical_cutoff=12, mirror_cutoff=3))
        run_protocol(unitary)
        damped_protocol(damped, 5e-7)
        cfg = load_config(None, overrides={"engine": "both", "fixed": {"alpha2": 1.0},
                                           "axes": {"delta": [0.005, 0.01]}},
                          default_mode="sweep")
        assert len(list(iter_sweep_rows(cfg))) == 4
        n_opts = (unitary.n_opt, make_params(1.0, 0.0).n_opt)
        assert unitary.n_opt == damped.n_opt == 12 and shapes == [(n, n) for n in n_opts]

    def test_balanced_maps_coherent_pair(self):
        u, v = 0.6, -0.3
        bs = beam_splitter(math.pi / 4, 12)
        inp = np.multiply.outer(coherent_state(u, 12, leakage_tol=1.0),
                                coherent_state(v, 12, leakage_tol=1.0))
        out = bs @ inp.reshape(-1)
        ref = np.multiply.outer(coherent_state((u + v) / math.sqrt(2), 12, leakage_tol=1.0),
                                coherent_state((u - v) / math.sqrt(2), 12, leakage_tol=1.0))
        fid = abs(np.vdot(ref, out)) ** 2 / (np.vdot(ref, ref).real * np.vdot(out, out).real)
        assert fid == pytest.approx(1.0, abs=1e-8)

    def test_theta_half_pi_swaps_single_photons(self):
        bs = beam_splitter(math.pi / 2, 2)
        one_a = np.zeros((3, 3), dtype=complex)
        one_a[1, 0] = 1.0  # |1>_a |0>_b
        out = bs @ one_a.reshape(-1)
        # a_d = a_a: the photon ends in the second output
        idx = np.ravel_multi_index((0, 1), one_a.shape)
        assert abs(out[idx]) == pytest.approx(1.0, abs=1e-12)

    def test_dark_port_amplitude_linear_in_delta(self):
        delta, alpha = 0.05, 1.0
        bs = beam_splitter(math.pi / 4 + delta, 10)
        arm = coherent_state(alpha / math.sqrt(2), 10, leakage_tol=1.0)
        out = (bs @ np.multiply.outer(arm, arm).reshape(-1)).reshape(11, 11)
        # dark amplitude = <1_d| out with c projected on its coherent state
        weights = np.sum(np.abs(out) ** 2, axis=0)  # P(n_d), unnormalized
        dark_mean = weights @ np.arange(11) / weights.sum()
        assert math.sqrt(dark_mean) == pytest.approx(0.05, abs=1e-3)

    def test_unitary(self):
        u = beam_splitter(0.3, 6)
        assert np.abs(u @ u.conj().T - np.eye(len(u))).max() < DEFAULT_TOL.unitary_atol


class TestRunProtocol:
    def test_zero_drive_degenerate_click(self):
        out = run_protocol(make_params(0.0, 0.01))
        assert out.p_click == pytest.approx(0.0, abs=1e-300)
        assert out.q_noclick == pytest.approx(0.0, abs=1e-12)
        assert math.isnan(out.q_click)
        assert out.degenerate_reason is not None

    def test_no_coupling_dark_port_poisson(self):
        # optical cutoffs must hold the *total* photon number here: the
        # recombined bright port concentrates all of |alpha|^2
        alpha2, delta = 2.0, 0.03
        out = run_protocol(make_params(alpha2, delta, k=0.0, optical_cutoff=17))
        lam = alpha2 * math.sin(delta) ** 2
        assert out.q_click == pytest.approx(0.0, abs=1e-10)
        assert out.q_noclick == pytest.approx(0.0, abs=1e-10)
        assert out.p_click == pytest.approx(lam * math.exp(-lam), abs=1e-9)
        # the leading-order form quoted with the protocol examples
        assert out.p_click == pytest.approx(alpha2 * delta ** 2
                                            * math.exp(-alpha2 * delta ** 2), rel=5e-3)

    def test_probabilities_sum_to_one(self):
        out = run_protocol(make_params(2.0, 0.02))
        assert out.p_click + out.p_noclick + out.p_residual == pytest.approx(1.0, abs=1e-9)
        assert out.p_residual >= 0.0

    def test_positive_delta_positive_amplification_sign_lock(self):
        # regression lock on the sign convention
        out = run_protocol(make_params(1.0, 0.02))
        assert out.diff > 0.0
        assert out.q_click > out.q_noclick

    def test_q_noclick_regime_check(self):
        for alpha2, delta in ((0.5, 0.02), (2.0, 0.01), (4.0, 0.03)):
            params = make_params(alpha2, delta)
            out = run_protocol(params)
            scale = params.evolution.disp_sum
            allowed = max(5 * alpha2 * delta ** 2, 5 * params.evolution.k / delta, 1e-3)
            assert abs(out.q_noclick / scale - alpha2 / 2) / (alpha2 / 2) < allowed

    def test_diff_alpha2_independent(self):
        d1 = run_protocol(make_params(0.5, 0.005)).diff
        d2 = run_protocol(make_params(2.0, 0.005)).diff
        assert abs(d1 - d2) / abs(d2) < 0.02

    def test_diff_peaks_at_half_abs_phi(self):
        k, wm_t = 0.005, math.pi
        grid = np.linspace(0.002, 0.012, 11)
        vals = [run_protocol(make_params(1.0, d, k=k)).diff for d in grid]
        best = grid[int(np.argmax(vals))]
        assert best == pytest.approx(an.q_diff_argmax(k, wm_t), abs=1.1e-3)
        assert max(vals) == pytest.approx(1.0, rel=0.03)

    def test_p_click_matches_formula_in_regime(self):
        for alpha2, delta in ((1.0, 0.02), (2.0, 0.01)):
            params = make_params(alpha2, delta)
            out = run_protocol(params)
            phi2 = params.evolution.abs_disp ** 2
            ref = alpha2 * (delta ** 2 + phi2 / 4)
            allowed = max(5 * alpha2 * delta ** 2, 5 * alpha2 * phi2, 1e-3)
            assert abs(out.p_click - ref) / ref < allowed

    def test_dq_click_is_sigma_at_matched_delta(self):
        # at delta = k the conditional mirror state is the balanced superposition
        out = run_protocol(make_params(2.0, 0.005, k=0.005))
        assert out.dq_click == pytest.approx(1.0, rel=0.05)
        # and in the backaction-free regime it is close to a coherent state
        out2 = run_protocol(make_params(2.0, 0.05, k=0.005))
        assert out2.dq_click == pytest.approx(1.0, rel=0.05)

    def test_mirror_click_state_exposed(self):
        out = run_protocol(make_params(1.0, 0.02))
        assert out.mirror_click is not None
        assert np.trace(out.mirror_click).real == pytest.approx(1.0, abs=1e-10)

    def test_paper_operating_point(self):
        # |alpha|^2 = 30, delta = k = 0.005, wm_t = pi: n_opt 63, the point
        # whose dense two-mode beam splitter would be 4096 x 4096
        params = make_params(30.0, 0.005)
        out = run_protocol(params)
        assert params.n_opt == 63
        for name in ("p_click", "p_noclick", "p_residual", "q_click", "q_noclick",
                     "dq_click", "dq_noclick", "diff"):
            assert math.isfinite(getattr(out, name)), name
        assert out.p_click + out.p_noclick + out.p_residual == pytest.approx(1.0, abs=2e-9)

    @pytest.mark.parametrize("alpha2, optical_cutoff", [(0.0, None), (1.0, 25), (2.0, 30)])
    def test_residual_vanishes_at_balance_without_coupling(self, alpha2, optical_cutoff):
        # delta = k = 0 sends every photon to the bright port, so the trace
        # p_click and p_noclick leave is rounding and must not go negative
        out = run_protocol(make_params(alpha2, 0.0, k=0.0, optical_cutoff=optical_cutoff))
        assert 0.0 <= out.p_residual <= 1e-15

    def test_residual_accumulates_multi_click(self):
        with pytest.warns(UserWarning, match="not small"):
            params = make_params(4.0, 0.2, k=0.0)
        out = run_protocol(params)
        assert out.p_residual > 0.0
        assert out.p_click + out.p_noclick + out.p_residual == pytest.approx(1.0, abs=1e-9)


def dense_weak_value(params):
    """<psi_f| n_a |psi_i> / <psi_f|psi_i> from truncated Fock-space
    brackets: the oracle of the closed form in :func:`weak_value_numeric`.

    ``psi_i`` is the preselected light expressed on the output ports,
    ``psi_f`` postselects one dark-port photon; the arm-a number operator is
    expanded as cos^2 n_c + cos sin (a_c^dag a_d + a_c a_d^dag) + sin^2 n_d.
    """
    theta = math.pi / 4 + params.delta
    u = params.alpha * (math.cos(theta) + math.sin(theta)) / math.sqrt(2.0)
    v = params.alpha * (math.sin(theta) - math.cos(theta)) / math.sqrt(2.0)
    # the bright port carries nearly all photons; size the space for it
    n_opt = cutoff_for_leakage(abs(u) ** 2, 1e-10, start=params.n_opt)
    cu = coherent_state(u, n_opt)
    cv = coherent_state(v, n_opt, leakage_tol=1.0)
    one = np.eye(n_opt + 1)[1]
    a = annihilation(n_opt)
    n_op = number(n_opt)
    cth, sth = math.cos(theta), math.sin(theta)
    # all brackets factorize over the two product states
    den = complex(np.vdot(cu, cu)) * complex(np.vdot(one, cv))
    num = (cth ** 2 * np.vdot(cu, n_op @ cu) * np.vdot(one, cv)
           + cth * sth * (np.vdot(cu, a.conj().T @ cu) * np.vdot(one, a @ cv)
                          + np.vdot(cu, a @ cu) * np.vdot(one, a.conj().T @ cv))
           + sth ** 2 * np.vdot(cu, cu) * np.vdot(one, n_op @ cv))
    return complex(num) / den


class TestWeakValueNumeric:
    def closed_form(self, alpha2, delta):
        """Independent oracle: exact single-mode matrix elements."""
        th = math.pi / 4 + delta
        u = math.sqrt(alpha2) * math.cos(delta)
        v = math.sqrt(alpha2) * math.sin(delta)
        return (math.cos(th) ** 2 * u ** 2
                + math.cos(th) * math.sin(th) * (u * v + u / v)
                + math.sin(th) ** 2)

    @pytest.mark.parametrize("alpha2", [0.5, 2.0, 12.0, 30.0])
    @pytest.mark.parametrize("delta", [-0.03, 0.001, 0.005, 0.02, 0.05])
    def test_matches_dense_brackets(self, alpha2, delta):
        params = make_params(alpha2, delta, k=0.0)
        ref = dense_weak_value(params)
        assert abs(ref.imag) < 1e-12
        assert weak_value_numeric(params) == pytest.approx(ref.real, rel=1e-8)

    def test_complex_drive_matches_dense_brackets(self):
        params = ProtocolParams(alpha=3.0 * np.exp(0.7j), delta=0.02,
                                evolution=evolution_params(0.0, math.pi))
        ref = dense_weak_value(params)
        assert weak_value_numeric(params) == pytest.approx(ref.real, rel=1e-8)
        assert abs(ref.imag) < 1e-8

    @pytest.mark.parametrize("alpha2,delta", [(1.0, 0.05), (4.0, 0.02), (30.0, 0.05)])
    def test_matches_closed_form_matrix_elements(self, alpha2, delta):
        wv = weak_value_numeric(make_params(alpha2, delta, k=0.0))
        assert wv == pytest.approx(self.closed_form(alpha2, delta), rel=1e-8)

    def test_reference_point_near_25(self):
        wv = weak_value_numeric(make_params(30.0, 0.05, k=0.0))
        assert wv == pytest.approx(25.0, rel=0.02)

    def test_table_row_point(self):
        # leading-order value 15 + 5 = 20; the exact matrix elements carry a
        # finite-delta correction of a few percent
        with pytest.warns(UserWarning, match="not small"):
            params = make_params(30.0, 0.1, k=0.0)
        wv = weak_value_numeric(params)
        assert wv == pytest.approx(self.closed_form(30.0, 0.1), rel=1e-8)
        assert wv == pytest.approx(20.0, rel=0.07)

    def test_vanishing_overlap_raises(self):
        with pytest.raises(DegenerateBranchError):
            weak_value_numeric(make_params(0.0, 0.05, k=0.0))

    def test_breakdown_region_runs_without_assertion(self):
        # close to the maximal imbalance the asymptotic form breaks down;
        # the numeric value must still be finite and real
        with pytest.warns(UserWarning, match="not small"):
            params = make_params(0.5, math.pi / 4 - 0.05, k=0.0)
        wv = weak_value_numeric(params)
        assert math.isfinite(wv)


class TestParamsValidation:
    def test_delta_range(self):
        with pytest.raises(Exception):
            make_params(1.0, 1.0)

    @pytest.mark.parametrize("build, name", [
        (lambda: make_params(1.0, math.nan), "delta"),
        (lambda: ProtocolParams(complex(math.nan), 0.005, evolution_params(0.005, math.pi)),
         "alpha"),
        (lambda: ProtocolParams(complex(math.inf), 0.005, evolution_params(0.005, math.pi)),
         "alpha"),
        (lambda: make_params(1.0, 0.005, mirror_cutoff=-1), "mirror_cutoff"),
        (lambda: evolution_params(math.nan, math.pi), "k"),
        (lambda: evolution_params(0.005, math.inf), "wm_t"),
        (lambda: LindbladParams(math.nan, evolution_params(0.005, math.pi)), "gamma"),
        (lambda: damped_protocol(make_params(1.0, 0.005, optical_cutoff=8, mirror_cutoff=3),
                                 math.nan), "gamma"),
        (lambda: damped_protocol(make_params(1.0, 0.005, optical_cutoff=8, mirror_cutoff=3),
                                 math.inf), "gamma"),
        (lambda: evolve_master(np.ones((1, 1, 1, 1)),
                               LindbladParams(1e-3, evolution_params(0.005, math.pi)), math.nan),
         "total_time"),
    ], ids=["delta-nan", "alpha-nan", "alpha-inf", "mirror-cutoff-negative", "k-nan",
            "wm_t-inf", "lindblad-gamma-nan", "damped-gamma-nan", "damped-gamma-inf",
            "total-time-nan"])
    def test_non_finite_or_negative_inputs_raise_layout_error(self, build, name):
        # NaN delta or k gave NaN outputs silently; NaN alpha, a negative
        # mirror cutoff and a NaN or infinite gamma failed with bare
        # ValueErrors, a NaN total_time with a RuntimeWarning in the exponential
        with pytest.raises(LayoutError, match=name):
            build()

    def test_small_parameter_warning(self):
        # reported at the caller's line, not at the dataclass's generated __init__
        with pytest.warns(UserWarning, match="not small") as record:
            make_params(30.0, 0.2)
        assert record[0].filename == __file__


class TestFullDenseOracle:
    """Integration check: the block-factored pipeline against a monolithic
    three-mode matrix exponential that shares no code path with it."""

    def dense_protocol(self, alpha, delta, k, wt, n_opt, n_mir):
        import numpy as np
        from optoweak import annihilation, coherent_state

        da, dm = n_opt + 1, n_mir + 1
        a = annihilation(n_opt)
        cm = annihilation(n_mir)
        na = a.conj().T @ a
        h = (np.kron(np.kron(np.eye(da), np.eye(da)), cm.conj().T @ cm)
             - k * np.kron(np.kron(na, np.eye(da)), cm + cm.conj().T))
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * wt)) @ v.conj().T
        arm = coherent_state(alpha / np.sqrt(2), n_opt, leakage_tol=1.0)
        m0 = np.zeros(dm, dtype=complex); m0[0] = 1.0
        psi = np.kron(np.kron(arm, arm), m0)
        psi = psi / np.linalg.norm(psi)
        psi = u @ psi
        bs = beam_splitter(np.pi / 4 + delta, n_opt)
        psi = (np.kron(bs, np.eye(dm)) @ psi).reshape(da, da, dm)
        q = cm + cm.conj().T
        out = {"p_residual": float(np.sum(np.abs(psi[:, 2:, :]) ** 2))}
        for nd, name in ((0, "noclick"), (1, "click")):
            branch = psi[:, nd, :]
            p = float(np.sum(np.abs(branch) ** 2))
            rho = np.einsum("cm,cn->mn", branch, branch.conj()) / p
            out[f"p_{name}"] = p
            out[f"q_{name}"] = float(np.trace(rho @ q).real)
        return out

    def test_pipeline_matches_monolithic_exponential(self):
        import math as _m
        alpha2, delta, k, wt = 1.0, 0.02, 0.005, _m.pi
        oracle = self.dense_protocol(_m.sqrt(alpha2), delta, k, wt, 9, 6)
        out = run_protocol(make_params(alpha2, delta, k=k, optical_cutoff=9,
                                       mirror_cutoff=6))
        assert out.p_click == pytest.approx(oracle["p_click"], abs=1e-13)
        assert out.p_residual == pytest.approx(oracle["p_residual"], abs=1e-13)
        assert out.q_click == pytest.approx(oracle["q_click"], abs=1e-12)
        assert out.q_noclick == pytest.approx(oracle["q_noclick"], abs=1e-12)


def density_route(params, rho_am):
    """Mirror statistics of an (a, m) density matrix, shape (d, dm, d, dm),
    contracted one branch at a time with M_j = W_j^T W_j^*: the reference
    for the ket path of :func:`run_protocol` and the batched contraction of
    the damped engine."""
    beta = _arm(params)
    w = _bs_kernel(np.array([math.pi / 4 + params.delta]), beta)[0]
    m = w.transpose(0, 2, 1) @ w.conj()
    rho_a = np.trace(rho_am, axis1=1, axis2=3)
    probs = np.einsum("jnk,nk->j", m, rho_a).real
    q = position(params.mirror_cutoff)
    out = {"p_residual": max(float(np.trace(rho_a).real) - probs[0] - probs[1], 0.0)}
    for j, name in ((0, "noclick"), (1, "click")):
        rho_m = np.einsum("nk,nikl->il", m[j], rho_am) / probs[j]
        rho_m = (rho_m + rho_m.conj().T) / 2
        tq = float(np.trace(rho_m @ q).real)
        out[f"p_{name}"] = float(probs[j])
        out[f"q_{name}"] = tq
        out[f"dq_{name}"] = math.sqrt(max(float(np.trace(rho_m @ q @ q).real) - tq * tq, 0.0))
    return out


class TestKetPostselection:
    PROBS = ("p_click", "p_noclick", "p_residual")
    MOMENTS = ("q_click", "q_noclick", "dq_click", "dq_noclick")

    @pytest.mark.parametrize("alpha2", [0.5, 2.0, 12.0, 30.0])
    @pytest.mark.parametrize("delta", [0.001, 0.005, 0.03])
    def test_ket_matches_density_route(self, alpha2, delta):
        params = make_params(alpha2, delta)
        psi = factored_propagate(preselect_am(params), params.evolution)
        ref = density_route(params, np.multiply.outer(psi, psi.conj()))
        out = run_protocol(params)
        for name in self.PROBS:
            assert getattr(out, name) == pytest.approx(ref[name], abs=1e-14), name
        for name in self.MOMENTS:
            assert getattr(out, name) == pytest.approx(ref[name], abs=5e-12), name

    @pytest.mark.parametrize("delta", [0.001, 0.005, 0.01, 0.03, 0.05])
    def test_damped_contraction_matches_density_route(self, delta):
        params = make_params(2.0, delta, optical_cutoff=12, mirror_cutoff=3)
        psi = preselect_am(params)
        rho = evolve_master(np.multiply.outer(psi, psi.conj()),
                            LindbladParams(gamma=5e-7, base=params.evolution),
                            params.evolution.wm_t)
        ref = density_route(params, rho)
        out = damped_protocol(params, 5e-7)
        for name in self.PROBS + self.MOMENTS:
            assert getattr(out, name) == pytest.approx(ref[name], abs=1e-13), name

    @pytest.mark.parametrize("cutoffs", [(12, 3), (20, 6)])
    def test_damped_hits_and_misses_match_density_route(self, cutoffs):
        # each delta once as a stage miss, once as a hit after another delta
        scan = [make_params(2.0, delta, optical_cutoff=cutoffs[0], mirror_cutoff=cutoffs[1])
                for delta in (0.001, 0.005, 0.01, 0.03, 0.05)]
        psi = preselect_am(scan[0])
        rho = evolve_master(np.multiply.outer(psi, psi.conj()),
                            LindbladParams(gamma=5e-7, base=scan[0].evolution),
                            scan[0].evolution.wm_t)
        for params, other in zip(scan, scan[::-1]):
            ref = density_route(params, rho)
            _evolved_rho.cache_clear()
            miss = damped_protocol(params, 5e-7)
            _evolved_rho.cache_clear()
            damped_protocol(other, 5e-7)
            hit = damped_protocol(params, 5e-7)
            assert _evolved_rho.cache_info().hits == 1
            for out in (miss, hit):
                for name in self.PROBS + self.MOMENTS:
                    assert getattr(out, name) == pytest.approx(ref[name], abs=1e-13), name

    def test_paper_point_builds_no_joint_density_matrix(self):
        # the (d dm)^2 density matrix alone is 7.6 MiB at n_opt 63, mirror 10
        params = make_params(30.0, 0.005)
        run_protocol(params)  # warm the recombiner tables
        tracemalloc.start()
        try:
            run_protocol(params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20
