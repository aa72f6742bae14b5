"""Exact and approximate evolution of the optomechanical interaction.

The exact propagator factorizes over photon-number blocks of arm ``a``:
a mirror free rotation, then a photon-number-conditioned mirror
displacement, then a number-squared (Kerr-like) phase.  A dense matrix
exponential of the Hamiltonian exists purely as an independent cross-check of
that factorization.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, LayoutError, TruncationError
from .fock import (ModeLayout, Operator, StateVector, _displacement_powers,
                   _warn_large_displacement, annihilation, poisson_tail)
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class EvolutionParams:
    """Dimensionless interaction parameters.

    ``k`` is the scaled coupling (coupling rate over mechanical frequency)
    and ``wm_t`` the mechanical phase advance.  The optical frequency's
    phase e^{-i (omega_c/omega_m) wm_t N} is common to both arms and commutes
    with the recombiner, so it is not modelled.  The derived quantities are
    properties so they can never drift out of sync with the primary fields.
    """

    k: float
    wm_t: float

    def __post_init__(self):
        if self.k < 0:
            raise LayoutError("coupling k must be >= 0")
        if self.wm_t < 0:
            raise LayoutError("wm_t must be >= 0")

    @property
    def kerr_phase(self) -> float:
        """k^2 (wm_t - sin wm_t), the number-squared phase."""
        return self.k ** 2 * (self.wm_t - math.sin(self.wm_t))

    @property
    def disp_param(self) -> complex:
        """phi = k (1 - e^{-i wm_t}), the per-photon mirror displacement."""
        return self.k * (1.0 - np.exp(-1j * self.wm_t))

    @property
    def abs_disp(self) -> float:
        """|phi|, always taken from the complex value."""
        return abs(self.disp_param)

    @property
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


def _require_am(layout: ModeLayout) -> None:
    """Raise :class:`LayoutError` unless ``layout`` is (arm a, mirror m)."""
    if layout.labels != ("a", "m"):
        raise LayoutError(f"expected layout ('a', 'm'), got {layout.labels}")


def factored_propagate(state: StateVector, params: EvolutionParams) -> StateVector:
    """Evolve an (a, m) ``state`` with the factored propagator.

    Right-to-left: mirror rotation e^{-i wm_t c^dag c}; per photon-number
    block n of arm a, mirror displacement D(n phi); Kerr phase
    e^{i kerr n^2}.
    Every D(n phi) comes from one eigendecomposition and all blocks are
    displaced in one stacked contraction, never a joint matrix build.
    Raises :class:`TruncationError` past the mirror-tail budget, then warns
    when the largest displacement is not small against the mirror cutoff.
    """
    out = _factored_propagate(state, params)
    _warn_large_displacement(params.disp_param, state.layout.cutoff("a"),
                             state.layout.cutoff("m"), stacklevel=2)
    return out


def _factored_propagate(state: StateVector, params: EvolutionParams) -> StateVector:
    """:func:`factored_propagate` without its warning, for callers that
    cache the result and so warn on every call themselves."""
    _require_am(state.layout)
    n_max, m_cut = state.layout.cutoff("a"), state.layout.cutoff("m")
    tail = _mirror_tail(params, (np.abs(state.grid) ** 2).sum(axis=1), m_cut)
    g = np.array(state.grid)  # writable copy
    # mirror free rotation (acts first)
    g *= np.exp(-1j * params.wm_t * np.arange(m_cut + 1))
    # per-block displacement on the mirror axis, then Kerr phase
    dn = _displacement_powers(params.disp_param, n_max, m_cut)
    g[1:] = np.einsum("nj,nij->ni", g[1:], dn[1:])
    g *= np.exp(1j * params.kerr_phase * np.arange(n_max + 1) ** 2)[:, None]
    return StateVector(state.layout, g.reshape(-1), leakage=state.leakage + tail)


def _hamiltonian(da: int, mirror_cutoff: int, k: float) -> np.ndarray:
    """H = c^dag c - k n_a (c + c^dag) on (a, m), for the dense oracles."""
    c = annihilation(mirror_cutoff).matrix
    na = np.diag(np.arange(da, dtype=float)).astype(complex)
    return np.kron(np.eye(da), c.conj().T @ c) - k * np.kron(na, c + c.conj().T)


def dense_propagator(k: float, wm_t: float, optical_cutoff: int, mirror_cutoff: int,
                     mirror_pad: int = 0,
                     dim_cap: int = DEFAULT_TOL.dense_dim_cap) -> Operator:
    """exp(-i H wm_t) with H = c^dag c - k n_a (c + c^dag).

    Built by Hermitian eigendecomposition, as the oracle of
    :func:`factored_propagate` (an operator-ordering mistake there shows up
    here at once).  ``mirror_pad`` extra mirror levels, projected out at the
    end, keep the cutoff's own artifacts off the compared block.
    """
    da, dm, dmp = optical_cutoff + 1, mirror_cutoff + 1, mirror_cutoff + mirror_pad + 1
    if da * dmp > dim_cap:
        raise LayoutError(f"joint dimension {da * dmp} exceeds the dense cap {dim_cap}")
    w, v = np.linalg.eigh(_hamiltonian(da, mirror_cutoff + mirror_pad, k))
    u = (v * np.exp(-1j * w * wm_t)) @ v.conj().T
    if mirror_pad:
        u = u.reshape(da, dmp, da, dmp)[:, :dm, :, :dm].reshape(da * dm, da * dm)
    layout = ModeLayout.of(("a", optical_cutoff), ("m", mirror_cutoff))
    return Operator.of(layout, u)


def weak_approx_propagate(state: StateVector, params: EvolutionParams,
                          alpha: complex) -> StateVector:
    """Apply exp[alpha (a_c^dag + a_d^dag)(phi c^dag - phi* c)/2].

    This is the weak-interaction approximation of the post-beam-splitter
    evolution; it exists to test that approximation chain against the exact
    pipeline, not to replace it.  Evaluated by a scaled Taylor series with a
    convergence check on the term norm.
    """
    layout = state.layout
    axes = {lab: layout.axis(lab) for lab in ("c", "d", "m")}  # raises on a missing mode
    if layout.dim > DEFAULT_TOL.dense_dim_cap:
        raise LayoutError(f"joint dimension {layout.dim} exceeds the dense cap")
    if params.abs_disp > DEFAULT_TOL.weak_disp_warn:
        warnings.warn(f"|phi|={params.abs_disp:.3g} is not small; the weak "
                      "approximation is unreliable", stacklevel=2)
    phi = params.disp_param
    cm = annihilation(layout.cutoff("m"), "m").matrix
    b = (phi * cm.conj().T - np.conj(phi) * cm) / 2.0
    ac_dag = annihilation(layout.cutoff("c"), "c").matrix.conj().T
    ad_dag = annihilation(layout.cutoff("d"), "d").matrix.conj().T

    def on(op: np.ndarray, g: np.ndarray, lab: str) -> np.ndarray:  # op on mode lab
        return np.moveaxis(np.tensordot(op, g, axes=([1], [axes[lab]])), 0, axes[lab])

    def apply_x(g: np.ndarray) -> np.ndarray:
        return alpha * on(b, on(ac_dag, g, "c") + on(ad_dag, g, "d"), "m")

    # crude operator-norm bound decides how many scaling steps keep the
    # series fast and well-conditioned
    bound = (abs(alpha) * abs(phi)
             * (math.sqrt(layout.dim_of("c")) + math.sqrt(layout.dim_of("d")))
             * math.sqrt(layout.dim_of("m")))
    steps = max(1, 1 << max(0, math.ceil(math.log2(max(bound, 1e-12)))))
    g = np.array(state.grid)
    for _ in range(steps):
        term, acc = g.copy(), g.copy()
        scale, converged = float(np.linalg.norm(g)), False
        for j in range(1, DEFAULT_TOL.series_max_terms + 1):
            term = apply_x(term) / (steps * j)
            acc += term
            if np.linalg.norm(term) < DEFAULT_TOL.series_term_rtol * max(scale, 1e-300):
                converged = True
                break
        if not converged:
            raise ConvergenceError("weak-approximation series did not converge",
                                   float(np.linalg.norm(term)))
        g = acc
    return StateVector(layout, g.reshape(-1), state.leakage)
