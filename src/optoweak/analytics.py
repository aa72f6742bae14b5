"""Closed-form displacement, probability, weak-value and SNR expressions.

These are the leading-order formulas the exact simulator is compared
against, and the generators for the figure/table outputs.  All position
outputs are in zero-point (sigma) units; conversion to meters happens at the
presentation layer, never here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import EvolutionParams, evolution_params
from .errors import DegenerateBranchError

# regime classifier thresholds -- explicit configuration, not hidden constants
WVA_RATIO = 10.0          # delta >= ratio * |phi|/2  ->  "wva"
BOUNDARY_RTOL = 0.01      # |delta - |phi|/2| <= rtol * |phi|/2  ->  "boundary"


@dataclass(frozen=True)
class AnalyticInputs:
    """Mean photon number, postselection parameter and evolution setting."""

    alpha2: float
    delta: float
    evolution: EvolutionParams

    def __post_init__(self):
        if self.alpha2 < 0:
            raise ValueError("alpha2 must be >= 0")

    @classmethod
    def of(cls, alpha2: float, delta: float, k: float, wm_t: float) -> "AnalyticInputs":
        return cls(alpha2, delta, evolution_params(k, wm_t))

    @property
    def phi_sum(self) -> float:
        return self.evolution.disp_sum

    @property
    def abs_phi(self) -> float:
        return self.evolution.abs_disp

    @property
    def regime(self) -> str:
        """'wva', 'boundary' or 'strong' against delta vs |phi|/2."""
        half = self.abs_phi / 2.0
        if half == 0.0:
            return "wva"
        if abs(self.delta - half) <= BOUNDARY_RTOL * half:
            return "boundary"
        if self.delta >= WVA_RATIO * half:
            return "wva"
        if self.delta < half:
            return "strong"
        return "intermediate"


def q_noclick(inputs: AnalyticInputs) -> float:
    """Failed-postselection mirror displacement: (phi+phi*) |alpha|^2 / 2."""
    return inputs.phi_sum * inputs.alpha2 / 2.0


def q_click(inputs: AnalyticInputs) -> float:
    """Successful-postselection displacement: classical part plus the
    single-photon enhancement delta / (2 delta^2 + |phi|^2/2)."""
    denom = 2.0 * inputs.delta ** 2 + inputs.abs_phi ** 2 / 2.0
    if denom == 0.0:
        raise DegenerateBranchError("q_click with delta = phi = 0", 0.0)
    return inputs.phi_sum * (inputs.alpha2 / 2.0 + inputs.delta / denom)


def q_diff(inputs: AnalyticInputs) -> float:
    """Added-photon amplification: delta (phi+phi*) / (2 delta^2 + |phi|^2/2)."""
    denom = 2.0 * inputs.delta ** 2 + inputs.abs_phi ** 2 / 2.0
    if denom == 0.0:
        raise DegenerateBranchError("q_diff with delta = phi = 0", 0.0)
    return inputs.delta * inputs.phi_sum / denom


def q_diff_argmax(k: float, wm_t: float) -> float:
    """The maximizing postselection parameter |phi|/2 (value 1 at wm_t = pi)."""
    return evolution_params(k, wm_t).abs_disp / 2.0


def q_wva(inputs: AnalyticInputs) -> float:
    """Backaction-free limit: (phi+phi*)(|alpha|^2/2 + 1/(2 delta))."""
    if inputs.delta == 0.0:
        raise DegenerateBranchError("q_wva at delta = 0", 0.0)
    return inputs.phi_sum * (inputs.alpha2 / 2.0 + 1.0 / (2.0 * inputs.delta))


def weak_value(alpha2: float, delta: float) -> float:
    """|alpha|^2/2 + 1/(2 delta)."""
    if delta == 0.0:
        raise DegenerateBranchError("weak value at delta = 0", 0.0)
    return alpha2 / 2.0 + 1.0 / (2.0 * delta)


def weak_value_one_photon(delta: float) -> float:
    """1/(2 delta), the single added photon's weak value."""
    if delta == 0.0:
        raise DegenerateBranchError("weak value at delta = 0", 0.0)
    return 1.0 / (2.0 * delta)


def p_success(inputs: AnalyticInputs) -> float:
    """|alpha|^2 (delta^2 + |phi|^2/4); perturbative, warn-level only."""
    return inputs.alpha2 * (inputs.delta ** 2 + inputs.abs_phi ** 2 / 4.0)


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
