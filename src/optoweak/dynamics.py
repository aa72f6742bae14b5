"""Interaction parameters and the mirror-tail check both engines share.

The propagator factorizes over arm a's photon numbers: a mirror rotation, a
number-conditioned displacement and a Kerr phase.  The engines write it in
closed form for their vacuum mirror; :mod:`optoweak.oracle` holds its
reference propagators."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import LayoutError, TruncationError
from .fock import poisson_tail
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class EvolutionParams:
    """Dimensionless interaction parameters.

    ``k`` is the scaled coupling (coupling rate over mechanical frequency)
    and ``wm_t`` the mechanical phase advance.  The optical frequency's
    phase e^{-i (omega_c/omega_m) wm_t N} is common to both arms and commutes
    with the recombiner, so it is not modelled.  Each derived quantity is
    computed on first use and kept: the class is frozen, so it cannot drift
    out of sync with the primary fields, and :func:`dataclasses.replace`
    builds an instance that derives its own.
    """

    k: float
    wm_t: float

    def __post_init__(self):
        if self.k < 0:
            raise LayoutError("coupling k must be >= 0")
        if self.wm_t < 0:
            raise LayoutError("wm_t must be >= 0")

    @cached_property
    def kerr_phase(self) -> float:
        """k^2 (wm_t - sin wm_t), the number-squared phase."""
        return self.k ** 2 * (self.wm_t - math.sin(self.wm_t))

    @cached_property
    def disp_param(self) -> complex:
        """phi = k (1 - e^{-i wm_t}), the per-photon mirror displacement."""
        return self.k * (1.0 - np.exp(-1j * self.wm_t))

    @cached_property
    def abs_disp(self) -> float:
        """|phi|, always taken from the complex value."""
        return abs(self.disp_param)

    @cached_property
    def disp_sum(self) -> float:
        """phi + phi* = 2k(1 - cos wm_t), the position-displacement scale."""
        return 2.0 * self.disp_param.real


def evolution_params(k: float, wm_t: float) -> EvolutionParams:
    return EvolutionParams(k=k, wm_t=wm_t)


def _mirror_tail(params: EvolutionParams, weights: np.ndarray,
                 mirror_cutoff: int) -> float:
    """Occupation-weighted Poisson tail of the per-block mirror displacements
    over arm a's photon-number ``weights``; both engines raise
    :class:`TruncationError` here past ``Tolerances.propagate_leakage``."""
    total = float(weights.sum())
    if total == 0.0:
        return 0.0
    tail = sum(float(w) * poisson_tail((n * params.abs_disp) ** 2, mirror_cutoff)
               for n, w in enumerate(weights) if w > 0.0) / total
    if tail > DEFAULT_TOL.propagate_leakage:
        raise TruncationError(
            f"mirror cutoff {mirror_cutoff} too small for displacement "
            f"{(len(weights) - 1) * params.abs_disp:.3g}", tail)
    return tail
