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
        # chained compares, so that NaN fails them too
        if not 0 <= self.k < math.inf:
            raise LayoutError(f"coupling k must be finite and >= 0, got {self.k!r}")
        if not 0 <= self.wm_t < math.inf:
            raise LayoutError(f"wm_t must be finite and >= 0, got {self.wm_t!r}")

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
    :class:`TruncationError` here past ``Tolerances.propagate_leakage``.

    Row n's tail at lam = |n phi|^2 is at most the Chernoff bound
    e^{-lam} (e lam / x)^x, x = cutoff + 1 > lam.  The series runs only on
    rows whose weight times that bound exceeds 1e-18 / len(weights) of the
    total, so the rows skipped add at most 1e-18 to the tail."""
    total = float(weights.sum())
    if total == 0.0:
        return 0.0
    x, lam = mirror_cutoff + 1.0, (np.arange(len(weights)) * params.abs_disp) ** 2
    with np.errstate(divide="ignore"):  # lam = 0 has no tail: its log bound is -inf
        log_bound = np.where(lam < x, x * (1.0 + np.log(lam) - math.log(x)) - lam, 0.0)
    rows = np.flatnonzero(weights * np.exp(log_bound) > 1e-18 / len(weights) * total)
    w = weights.tolist()
    tail = sum(w[n] * poisson_tail((n * params.abs_disp) ** 2, mirror_cutoff)
               for n in rows.tolist()) / total
    if tail > DEFAULT_TOL.propagate_leakage:
        raise TruncationError(
            f"mirror cutoff {mirror_cutoff} too small for displacement "
            f"{(len(weights) - 1) * params.abs_disp:.3g}", tail)
    return tail
