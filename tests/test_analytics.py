"""Closed forms: reference values, algebraic identities, regime logic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optoweak import (DegenerateBranchError, LayoutError, ProtocolParams,
                      alpha2_for_probability, coherent_state, evolution_params,
                      p_success, p_success_wva, q_click, q_click_smallk,
                      q_diff, q_diff_argmax, q_no_postselection, q_noclick,
                      q_wva, regime, run_protocol, snr_click, weak_value,
                      weak_value_one_photon)
from optoweak.analytics import BOUNDARY_RTOL, WVA_RATIO


def inputs(alpha2, delta, k, wm_t):
    """The closed forms' arguments (alpha2, delta, evolution) at k and wm_t."""
    return alpha2, delta, evolution_params(k, wm_t)


class TestDisplacements:
    def test_q_noclick_values(self):
        assert q_noclick(*inputs(0.0, 0.01, 0.005, math.pi)) == 0.0
        assert q_noclick(*inputs(30.0, 0.01, 0.005, math.pi)) == pytest.approx(0.3, abs=1e-15)
        assert q_noclick(*inputs(30.0, 0.01, 0.005, 0.0)) == 0.0

    def test_q_click_values(self):
        val = q_click(*inputs(30.0, 0.005, 0.005, math.pi))
        assert val == pytest.approx(0.02 * (15 + 50), abs=1e-12)  # = 1.3
        # huge delta: only the classical term survives
        big = q_click(*inputs(30.0, 1e9, 0.005, math.pi))
        assert big == pytest.approx(q_noclick(*inputs(30.0, 1e9, 0.005, math.pi)), rel=1e-9)
        # no drive: the pure single-photon term
        lone = q_click(*inputs(0.0, 0.01, 0.005, math.pi))
        phi2 = evolution_params(0.005, math.pi).abs_disp ** 2
        assert lone == pytest.approx(0.02 * 0.01 / (2e-4 + phi2 / 2), rel=1e-12)

    def test_q_diff_values(self):
        assert q_diff(*inputs(1.0, q_diff_argmax(0.005, math.pi), 0.005, math.pi)) \
            == pytest.approx(1.0, abs=1e-14)
        assert q_diff(*inputs(1.0, 0.0, 0.005, math.pi)) == 0.0
        assert q_diff(*inputs(1.0, 0.05, 0.005, math.pi)) \
            == pytest.approx(0.05 * 0.02 / (0.005 + 5e-5), rel=1e-12)

    def test_q_no_postselection(self):
        assert q_no_postselection(0.005, math.pi) == pytest.approx(0.02, abs=1e-16)
        assert q_no_postselection(0.005, 0.0) == 0.0
        assert q_no_postselection(0.25, math.pi) == pytest.approx(1.0, abs=1e-15)

    @given(st.floats(0.0, 40.0), st.floats(1e-4, 0.3), st.floats(1e-4, 0.3),
           st.floats(0.0, 2 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_click_minus_noclick_is_diff(self, alpha2, delta, k, wm_t):
        inp = inputs(alpha2, delta, k, wm_t)
        assert q_click(*inp) - q_noclick(*inp) == pytest.approx(q_diff(*inp), abs=1e-14)

    def test_wva_dominates_click_and_converges(self):
        k, wm_t = 0.005, math.pi
        ratios = []
        for delta in (0.01, 0.05, 0.2):
            inp = inputs(1.0, delta, k, wm_t)
            assert q_wva(*inp) >= q_click(*inp)
            ratios.append(q_wva(*inp) / q_click(*inp))
        assert ratios[0] > ratios[1] > ratios[2]
        assert ratios[-1] == pytest.approx(1.0, abs=2e-3)

    def test_diff_maximum_via_grid_derivative(self):
        k, wm_t = 0.005, math.pi
        star = q_diff_argmax(k, wm_t)
        grid = np.linspace(0.5 * star, 1.5 * star, 101)
        vals = [q_diff(*inputs(1.0, d, k, wm_t)) for d in grid]
        diffs = np.diff(vals)
        flip = int(np.argmax(diffs < 0))
        assert abs(grid[flip] - star) <= (grid[1] - grid[0])


class TestWeakValues:
    def test_reference_points(self):
        assert weak_value_one_photon(0.1) == pytest.approx(5.0, abs=1e-14)
        assert weak_value_one_photon(0.01) == pytest.approx(50.0, abs=1e-12)
        assert weak_value(30.0, 0.05) == pytest.approx(25.0, abs=1e-12)

    @given(st.floats(0.0, 50.0), st.floats(1e-4, 0.5))
    @settings(max_examples=50, deadline=None)
    def test_one_photon_part_is_exact_difference(self, alpha2, delta):
        assert weak_value(alpha2, delta) - alpha2 / 2 \
            == pytest.approx(weak_value_one_photon(delta), rel=1e-15)

    def test_zero_delta_raises(self):
        with pytest.raises(DegenerateBranchError):
            weak_value_one_photon(0.0)


class TestProbabilities:
    def test_success_values(self):
        assert p_success_wva(30.0, 0.05) == pytest.approx(0.075, abs=1e-15)
        assert p_success_wva(30.0, 0.02) == pytest.approx(0.012, abs=1e-15)
        assert p_success(*inputs(0.0, 0.05, 0.005, math.pi)) == 0.0

    def test_table_regeneration_exact(self):
        deltas = (0.1, 0.08, 0.06, 0.04, 0.02, 0.01)
        wv = [weak_value_one_photon(d) for d in deltas]
        pf = [100 * p_success_wva(30.0, d) for d in deltas]
        assert wv == pytest.approx([5.0, 6.25, 25.0 / 3.0, 12.5, 25.0, 50.0], rel=1e-14)
        assert pf == pytest.approx([30.0, 19.2, 10.8, 4.8, 1.2, 0.3], rel=1e-12)

    def test_alpha2_for_probability_reference(self):
        assert alpha2_for_probability(0.001, 0.005, math.pi, 0.005) \
            == pytest.approx(20.0, rel=1e-12)
        assert alpha2_for_probability(0.004, 0.01, math.pi, 0.01) \
            == pytest.approx(20.0, rel=1e-12)
        assert alpha2_for_probability(0.0002, 0.001, math.pi, 0.001) \
            == pytest.approx(100.0, rel=1e-12)

    @given(st.floats(1e-6, 0.5), st.floats(1e-3, 0.2), st.floats(1e-3, 0.1))
    @settings(max_examples=50, deadline=None)
    def test_probability_round_trip(self, p_target, delta, k):
        a2 = alpha2_for_probability(p_target, k, math.pi, delta)
        assert p_success(*inputs(a2, delta, k, math.pi)) == pytest.approx(p_target, rel=1e-12)


class TestSmallCouplingExpansion:
    def test_maximum_value(self):
        assert q_click_smallk(30.0, 0.005, 0.005) == pytest.approx(1.3, rel=1e-12)
        assert q_click_smallk(0.0, 0.005, 0.005) == pytest.approx(1.0, rel=1e-12)
        assert snr_click(30.0, 0.005) == pytest.approx(1.3, rel=1e-15)

    @given(st.floats(0.001, 0.01), st.floats(0.0, 25.0))
    @settings(max_examples=50, deadline=None)
    def test_consistent_with_full_form_at_half_period(self, k, alpha2):
        if alpha2 * k > 0.3:
            alpha2 = 0.3 / k
        delta = k
        full = q_click(*inputs(alpha2, delta, k, math.pi))
        small = q_click_smallk(alpha2, k, delta)
        assert small == pytest.approx(full, rel=0.02)


class TestMirrorStates:
    def test_click_state_matches_exact_pipeline(self):
        # backaction-free click state: the coherent mirror amplitude
        # |alpha|^2 phi / 2 + phi / (2 delta), the no-click one plus the weak value's kick
        alpha2, k, wm_t, delta = 1.0, 0.001, math.pi, 0.05
        evolution = evolution_params(k, wm_t)
        assert regime(delta, evolution) == "wva"
        phi = evolution.disp_param
        click_amp = alpha2 * phi / 2.0 + phi / (2.0 * delta)
        params = ProtocolParams(alpha=complex(math.sqrt(alpha2)), delta=delta,
                                evolution=evolution_params(k, wm_t))
        out = run_protocol(params)
        ref = coherent_state(click_amp, params.mirror_cutoff, leakage_tol=1.0)
        fid = float(np.real(ref.conj() @ out.mirror_click @ ref)) / np.vdot(ref, ref).real
        assert fid > 0.999


class TestRegimeClassifier:
    def test_labels(self):
        k, wm_t = 0.005, math.pi  # |phi|/2 = 0.005
        evolution = evolution_params(k, wm_t)
        assert regime(0.05, evolution) == "wva"
        assert regime(0.005, evolution) == "boundary"
        assert regime(0.002, evolution) == "strong"
        assert regime(0.02, evolution) == "intermediate"
        assert regime(0.05, evolution_params(0.0, wm_t)) == "wva"

    def test_thresholds_are_module_constants(self):
        assert WVA_RATIO == 10.0
        assert BOUNDARY_RTOL == 0.01


@pytest.mark.parametrize("form", [q_noclick, q_click, q_diff, q_wva, p_success])
def test_negative_alpha2_raises_layout_error(form):
    # the closed forms take alpha2 from outside, so each refuses a negative
    # one with the typed error of every other out-of-range parameter
    with pytest.raises(LayoutError, match="alpha2 must be >= 0"):
        form(*inputs(-1e-12, 0.01, 0.005, math.pi))
    assert math.isfinite(form(*inputs(0.0, 0.01, 0.005, math.pi)))
