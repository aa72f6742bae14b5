"""Closed-form displacement, probability, weak-value and SNR expressions.

These are the leading-order formulas the exact simulator is compared
against, and the generators for the figure/table outputs.  All position
outputs are in zero-point (sigma) units; conversion to meters happens at the
presentation layer, never here.  The closed forms at one grid point take
(alpha2, delta, evolution), the mean photon number, the postselection
parameter and the evolution setting, in that order.
"""

from __future__ import annotations

import math

from .dynamics import EvolutionParams, evolution_params
from .errors import DegenerateBranchError, LayoutError

# regime classifier thresholds -- explicit configuration, not hidden constants
WVA_RATIO = 10.0          # delta >= ratio * |phi|/2  ->  "wva"
BOUNDARY_RTOL = 0.01      # |delta - |phi|/2| <= rtol * |phi|/2  ->  "boundary"


def _check_alpha2(alpha2: float) -> None:
    """Refuse a negative mean photon number, an input from outside."""
    if alpha2 < 0:
        raise LayoutError("alpha2 must be >= 0")


def regime(delta: float, evolution: EvolutionParams) -> str:
    """'wva', 'boundary', 'intermediate' or 'strong': delta against |phi|/2."""
    half = evolution.abs_disp / 2.0
    if half == 0.0:
        return "wva"
    if abs(delta - half) <= BOUNDARY_RTOL * half:
        return "boundary"
    if delta >= WVA_RATIO * half:
        return "wva"
    if delta < half:
        return "strong"
    return "intermediate"


def q_noclick(alpha2: float, delta: float, evolution: EvolutionParams) -> float:
    """Failed-postselection mirror displacement: (phi+phi*) |alpha|^2 / 2."""
    _check_alpha2(alpha2)
    return evolution.disp_sum * alpha2 / 2.0


def q_click(alpha2: float, delta: float, evolution: EvolutionParams) -> float:
    """Successful-postselection displacement: classical part plus the
    single-photon enhancement delta / (2 delta^2 + |phi|^2/2)."""
    _check_alpha2(alpha2)
    denom = 2.0 * delta ** 2 + evolution.abs_disp ** 2 / 2.0
    if denom == 0.0:
        raise DegenerateBranchError("q_click with delta = phi = 0", 0.0)
    return evolution.disp_sum * (alpha2 / 2.0 + delta / denom)


def q_diff(alpha2: float, delta: float, evolution: EvolutionParams) -> float:
    """Added-photon amplification: delta (phi+phi*) / (2 delta^2 + |phi|^2/2)."""
    _check_alpha2(alpha2)
    denom = 2.0 * delta ** 2 + evolution.abs_disp ** 2 / 2.0
    if denom == 0.0:
        raise DegenerateBranchError("q_diff with delta = phi = 0", 0.0)
    return delta * evolution.disp_sum / denom


def q_diff_argmax(k: float, wm_t: float) -> float:
    """The maximizing postselection parameter |phi|/2 (value 1 at wm_t = pi)."""
    return evolution_params(k, wm_t).abs_disp / 2.0


def q_wva(alpha2: float, delta: float, evolution: EvolutionParams) -> float:
    """Backaction-free limit: (phi+phi*)(|alpha|^2/2 + 1/(2 delta))."""
    _check_alpha2(alpha2)
    if delta == 0.0:
        raise DegenerateBranchError("q_wva at delta = 0", 0.0)
    return evolution.disp_sum * (alpha2 / 2.0 + 1.0 / (2.0 * delta))


def weak_value(alpha2: float, delta: float) -> float:
    """|alpha|^2/2 + 1/(2 delta)."""
    return alpha2 / 2.0 + weak_value_one_photon(delta)


def weak_value_one_photon(delta: float) -> float:
    """1/(2 delta), the single added photon's weak value."""
    if delta == 0.0:
        raise DegenerateBranchError("weak value at delta = 0", 0.0)
    return 1.0 / (2.0 * delta)


def p_success(alpha2: float, delta: float, evolution: EvolutionParams) -> float:
    """|alpha|^2 (delta^2 + |phi|^2/4); perturbative, warn-level only."""
    _check_alpha2(alpha2)
    return alpha2 * (delta ** 2 + evolution.abs_disp ** 2 / 4.0)


def p_success_wva(alpha2: float, delta: float) -> float:
    """WVA limit |alpha|^2 delta^2."""
    return alpha2 * delta ** 2


def alpha2_for_probability(p_target: float, k: float, wm_t: float,
                           delta: float) -> float:
    """Invert p_success for the mean photon number at a target probability."""
    denom = delta ** 2 + evolution_params(k, wm_t).abs_disp ** 2 / 4.0
    if denom == 0.0:
        raise DegenerateBranchError("alpha2_for_probability with delta = phi = 0", 0.0)
    return p_target / denom


def q_click_smallk(alpha2: float, k: float, delta: float) -> float:
    """Small-coupling expansion at half a mechanical period:
    (2 k delta + 4 k^3 |alpha|^2) / (delta^2 + k^2); maximum 1 + 2k|alpha|^2
    at delta = k."""
    return (2.0 * k * delta + 4.0 * k ** 3 * alpha2) / (delta ** 2 + k ** 2)


def snr_click(alpha2: float, k: float) -> float:
    """Quantum-limited <q>_click / dq at the optimum: 1 + 2 k |alpha|^2."""
    return 1.0 + 2.0 * k * alpha2


def q_no_postselection(k: float, wm_t: float) -> float:
    """Single-photon displacement without postselection: 2k(1 - cos wm_t)."""
    return 2.0 * k * (1.0 - math.cos(wm_t))
