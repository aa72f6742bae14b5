"""Exact and approximate evolution of the optomechanical interaction.

The exact propagator factorizes over photon-number blocks of the coupled
optical mode: a mirror free rotation, then a photon-number-conditioned mirror
displacement, then a number-squared (Kerr-like) phase, then optional optical
frequency phases.  A dense matrix exponential of the Hamiltonian exists
purely as an independent cross-check of that factorization.
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

    ``k`` is the scaled coupling (coupling rate over mechanical frequency),
    ``wm_t`` the mechanical phase advance, ``r`` the optical-to-mechanical
    frequency ratio.  The derived quantities are properties so they can never
    drift out of sync with the primary fields.
    """

    k: float
    wm_t: float
    r: float = 0.0
    include_r_phase: bool = False

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


def evolution_params(k: float, wm_t: float, r: float = 0.0,
                     include_r_phase: bool = False) -> EvolutionParams:
    return EvolutionParams(k=k, wm_t=wm_t, r=r, include_r_phase=include_r_phase)


OPTICAL_LABELS = ("a", "b", "c", "d")


def _mirror_tail(params: EvolutionParams, weights: np.ndarray,
                 mirror_cutoff: int) -> float:
    """Occupation-weighted Poisson tail of the per-block mirror displacements
    over the coupled mode's photon-number ``weights``; both engines raise
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


def factored_propagate(state: StateVector, params: EvolutionParams,
                       coupled: str = "a", mirror: str = "m") -> StateVector:
    """Evolve ``state`` with the factored propagator.

    Right-to-left: mirror rotation e^{-i wm_t c^dag c}; per photon-number
    block n of ``coupled``, mirror displacement D(n phi); Kerr phase
    e^{i kerr n^2}; optionally e^{-i r wm_t n_total} over the optical modes.
    Every D(n phi) comes from one eigendecomposition and all blocks are
    displaced in one stacked contraction, never a joint matrix build.
    Raises :class:`TruncationError` past the mirror-tail budget, then warns
    when the largest displacement is not small against the mirror cutoff.
    """
    out = _factored_propagate(state, params, coupled, mirror)
    _warn_large_displacement(params.disp_param, state.layout.cutoff(coupled),
                             state.layout.cutoff(mirror), stacklevel=2)
    return out


def _factored_propagate(state: StateVector, params: EvolutionParams,
                        coupled: str, mirror: str) -> StateVector:
    """:func:`factored_propagate` without its warning, for callers that
    cache the result and so warn on every call themselves."""
    layout = state.layout
    c_ax = layout.axis(coupled)
    m_ax = layout.axis(mirror)
    if coupled == mirror:
        raise LayoutError("coupled mode and mirror mode must differ")
    dm = layout.dim_of(mirror)
    n_max = layout.cutoff(coupled)
    other = tuple(i for i in range(len(layout.modes)) if i != c_ax)
    weights = (np.abs(state.grid) ** 2).sum(axis=other)
    tail = _mirror_tail(params, weights, layout.cutoff(mirror))

    g = np.array(state.grid)  # writable copy
    # mirror free rotation (acts first)
    rot = np.exp(-1j * params.wm_t * np.arange(dm))
    g *= rot.reshape((1,) * m_ax + (dm,) + (1,) * (g.ndim - m_ax - 1))
    # per-block displacement on the mirror axis, then Kerr phase
    moved = np.moveaxis(g, (c_ax, m_ax), (0, g.ndim - 1))
    dn = _displacement_powers(params.disp_param, n_max, layout.cutoff(mirror))
    moved[1:] = np.einsum("n...j,nij->n...i", moved[1:], dn[1:])
    kerr = np.exp(1j * params.kerr_phase * np.arange(n_max + 1) ** 2)
    moved *= kerr.reshape((n_max + 1,) + (1,) * (moved.ndim - 1))
    g = np.moveaxis(moved, (0, g.ndim - 1), (c_ax, m_ax))
    # optical frequency phases, diagonal in total photon number
    if params.include_r_phase and params.r != 0.0:
        for lab in layout.labels:
            if lab in OPTICAL_LABELS:
                ax = layout.axis(lab)
                d = layout.dim_of(lab)
                ph = np.exp(-1j * params.r * params.wm_t * np.arange(d))
                g *= ph.reshape((1,) * ax + (d,) + (1,) * (g.ndim - ax - 1))
    return StateVector(layout, g.reshape(-1), leakage=state.leakage + tail)


def factored_propagator(k: float, wm_t: float, optical_cutoff: int, mirror_cutoff: int,
                        r: float = 0.0, include_r_phase: bool = False,
                        mirror_pad: int = 0, coupled: str = "a") -> Operator:
    """The factored propagator as an explicit block-diagonal matrix.

    With ``mirror_pad > 0`` each block is built on a padded mirror space and
    projected back to ``mirror_cutoff``; the result then approximates the
    projection of the untruncated propagator instead of carrying cutoff
    artifacts of its own.
    """
    params = evolution_params(k, wm_t, r, include_r_phase)
    da = optical_cutoff + 1
    dm = mirror_cutoff + 1
    dmp = mirror_cutoff + mirror_pad + 1
    rot = np.exp(-1j * wm_t * np.arange(dmp))
    layout = ModeLayout.of((coupled, optical_cutoff), ("m", mirror_cutoff))
    n = np.arange(da)
    phase = np.exp(1j * params.kerr_phase * n * n)
    if include_r_phase and r != 0.0:
        phase *= np.exp(-1j * r * wm_t * n)
    _warn_large_displacement(params.disp_param, optical_cutoff,
                             mirror_cutoff + mirror_pad, stacklevel=2)
    blocks = (_displacement_powers(params.disp_param, optical_cutoff,
                                   mirror_cutoff + mirror_pad) * rot)[:, :dm, :dm]
    full = np.einsum("nij,nk->nikj", phase[:, None, None] * blocks, np.eye(da))
    return Operator.of(layout, full.reshape(da * dm, da * dm))


def dense_propagator(k: float, wm_t: float, optical_cutoff: int, mirror_cutoff: int,
                     r: float = 0.0, mirror_pad: int = 0,
                     dim_cap: int = DEFAULT_TOL.dense_dim_cap) -> Operator:
    """exp(-i H wm_t) with H = r n_a + c^dag c - k n_a (c + c^dag).

    Built by Hermitian eigendecomposition; exists only to cross-validate the
    factored path (an operator-ordering mistake there shows up immediately
    here).  ``mirror_pad`` works as in :func:`factored_propagator`.
    """
    da = optical_cutoff + 1
    dm = mirror_cutoff + 1
    dmp = mirror_cutoff + mirror_pad + 1
    if da * dmp > dim_cap:
        raise LayoutError(f"joint dimension {da * dmp} exceeds the dense cap {dim_cap}")
    c = annihilation(mirror_cutoff + mirror_pad, "m").matrix
    na = np.diag(np.arange(da, dtype=float)).astype(complex)
    h = (r * np.kron(na, np.eye(dmp))
         + np.kron(np.eye(da), c.conj().T @ c)
         - k * np.kron(na, c + c.conj().T))
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-1j * w * wm_t)) @ v.conj().T
    if mirror_pad:
        u = u.reshape(da, dmp, da, dmp)[:, :dm, :, :dm].reshape(da * dm, da * dm)
    layout = ModeLayout.of(("a", optical_cutoff), ("m", mirror_cutoff))
    return Operator.of(layout, u)


def weak_approx_propagate(state: StateVector, params: EvolutionParams,
                          alpha: complex) -> StateVector:
    """Apply exp[alpha e^{-i r wm_t} (a_c^dag + a_d^dag)(phi c^dag - phi* c)/2].

    This is the weak-interaction approximation of the post-beam-splitter
    evolution; it exists to test that approximation chain against the exact
    pipeline, not to replace it.  Evaluated by a scaled Taylor series with a
    convergence check on the term norm.
    """
    layout = state.layout
    for lab in ("c", "d", "m"):
        layout.axis(lab)
    if layout.dim > DEFAULT_TOL.dense_dim_cap:
        raise LayoutError(f"joint dimension {layout.dim} exceeds the dense cap")
    if params.abs_disp > DEFAULT_TOL.weak_disp_warn:
        warnings.warn(f"|phi|={params.abs_disp:.3g} is not small; the weak "
                      "approximation is unreliable", stacklevel=2)
    phi = params.disp_param
    pref = alpha * np.exp(-1j * params.r * params.wm_t)
    cm = annihilation(layout.cutoff("m"), "m").matrix
    b = (phi * cm.conj().T - np.conj(phi) * cm) / 2.0
    ac_dag = annihilation(layout.cutoff("c"), "c").matrix.conj().T
    ad_dag = annihilation(layout.cutoff("d"), "d").matrix.conj().T
    axes = {lab: layout.axis(lab) for lab in ("c", "d", "m")}

    def apply_x(g: np.ndarray) -> np.ndarray:
        out = np.tensordot(ac_dag, g, axes=([1], [axes["c"]]))
        out = np.moveaxis(out, 0, axes["c"])
        out2 = np.tensordot(ad_dag, g, axes=([1], [axes["d"]]))
        out2 = np.moveaxis(out2, 0, axes["d"])
        out = out + out2
        out = np.tensordot(b, out, axes=([1], [axes["m"]]))
        out = np.moveaxis(out, 0, axes["m"])
        return pref * out

    # crude operator-norm bound decides how many scaling steps keep the
    # series fast and well-conditioned
    bound = (abs(pref) * abs(phi)
             * (math.sqrt(layout.dim_of("c")) + math.sqrt(layout.dim_of("d")))
             * math.sqrt(layout.dim_of("m")))
    steps = max(1, 1 << max(0, math.ceil(math.log2(max(bound, 1e-12)))))
    g = np.array(state.grid)
    for _ in range(steps):
        term = g.copy()
        acc = g.copy()
        scale = float(np.linalg.norm(g))
        converged = False
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
