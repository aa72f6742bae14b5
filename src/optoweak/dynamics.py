"""Exact and approximate evolution of the optomechanical interaction.

The exact propagator factorizes over photon-number blocks of arm ``a``:
a mirror free rotation, then a photon-number-conditioned mirror
displacement, then a number-squared (Kerr-like) phase.  The engines write
it in closed form for their vacuum mirror; :func:`factored_propagate` (any
ket, through q's eigenpairs) and :func:`dense_propagator` are its oracles.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConvergenceError, LayoutError, TruncationError
from .fock import _tridiagonal_eigh, _warn_large_displacement, annihilation, poisson_tail
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


@lru_cache(maxsize=8)
def _eigenpairs(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs q = V diag(w) V^T of the mirror position on
    ``cutoff`` + 1 levels for :func:`factored_propagate`, whose D(beta) is
    unitary to rounding exactly when V is orthogonal and w real: raises
    :class:`TruncationError` unless max |V^T V - I| < ``unitary_atol``, w finite."""
    w, v = _tridiagonal_eigh(np.sqrt(np.arange(1.0, cutoff + 1)))
    # V^T V as a BLAS product: about 13 times faster than einsum at cutoff 1000
    dev = float(np.abs(v.T @ v - np.eye(cutoff + 1)).max())
    if not (dev < DEFAULT_TOL.unitary_atol and np.isfinite(w).all()):
        raise TruncationError("displacement operator failed the unitarity check", dev)
    for arr in (w, v):
        arr.setflags(write=False)
    return w, v


def factored_propagate(state: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Evolve an (a, m) ket ``state`` of shape (da, dm) with the factored
    propagator, returning a new ket of that shape (an oracle: see above).

    Right-to-left: mirror rotation e^{-i wm_t c^dag c}; per photon-number
    block n of arm a, mirror displacement D(n phi); Kerr phase
    e^{i kerr n^2}.
    Every D(n phi) comes from one cached eigendecomposition of the mirror
    position and is applied in factored form, never built as a matrix.
    Raises :class:`LayoutError` unless ``state`` has two nonempty axes, and
    :class:`TruncationError` past the mirror-tail budget, then warns when the
    largest displacement is not small against the mirror cutoff.
    """
    if np.ndim(state) != 2 or np.size(state) == 0:
        raise LayoutError(f"expected an (a, m) ket, got shape {np.shape(state)}")
    g = np.array(state, dtype=complex)  # writable copy
    n_max, m_cut = g.shape[0] - 1, g.shape[1] - 1
    _mirror_tail(params, (np.abs(g) ** 2).sum(axis=1), m_cut)
    # mirror free rotation (acts first)
    g *= np.exp(-1j * params.wm_t * np.arange(m_cut + 1))
    # per-block displacement on the mirror axis (Bose, Jacobs & Knight, PRA 56,
    # 4175 (1997)): i(beta c^dag - beta* c) = P |beta| q P^*, q = V diag(w) V^T,
    # P = diag(u^k), u = i beta / |beta| from beta's phase (no division: zero
    # drive is safe), so D(n beta) g = P V (exp(-i n |beta| w) * (V^T P^* g))
    w, v = _eigenpairs(m_cut)
    beta = params.disp_param
    pv = np.exp(1j * (cmath.phase(beta) + math.pi / 2) * np.arange(m_cut + 1))[:, None] * v
    y = g[1:] @ pv.conj()
    y *= np.exp(-1j * abs(beta) * np.outer(np.arange(1, n_max + 1), w))
    g[1:] = y @ pv.T
    # then the Kerr phase
    g *= np.exp(1j * params.kerr_phase * np.arange(n_max + 1) ** 2)[:, None]
    _warn_large_displacement(params.disp_param, n_max, m_cut, stacklevel=2)
    return g


def _hamiltonian(da: int, mirror_cutoff: int, k: float) -> np.ndarray:
    """H = c^dag c - k n_a (c + c^dag) on (a, m), for the dense oracles."""
    c = annihilation(mirror_cutoff)
    na = np.diag(np.arange(da, dtype=float)).astype(complex)
    return np.kron(np.eye(da), c.conj().T @ c) - k * np.kron(na, c + c.conj().T)


def dense_propagator(k: float, wm_t: float, optical_cutoff: int, mirror_cutoff: int,
                     mirror_pad: int = 0,
                     dim_cap: int = DEFAULT_TOL.dense_dim_cap) -> np.ndarray:
    """exp(-i H wm_t) with H = c^dag c - k n_a (c + c^dag), on (a, m) with
    the mirror index varying fastest.

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
    return u


def weak_approx_propagate(state: np.ndarray, params: EvolutionParams,
                          alpha: complex) -> np.ndarray:
    """Apply exp[alpha (a_c^dag + a_d^dag)(phi c^dag - phi* c)/2] to a
    (c, d, m) ket ``state`` of shape (dc, dd, dm), returning a new one.

    This is the weak-interaction approximation of the post-beam-splitter
    evolution; it exists to test that approximation chain against the exact
    pipeline, not to replace it.  Evaluated by a scaled Taylor series with a
    convergence check on the term norm.
    """
    if np.ndim(state) != 3 or np.size(state) == 0:
        raise LayoutError(f"expected a (c, d, m) ket, got shape {np.shape(state)}")
    g = np.array(state, dtype=complex)
    (dc, dd, dm), size = g.shape, g.size
    if size > DEFAULT_TOL.dense_dim_cap:
        raise LayoutError(f"joint dimension {size} exceeds the dense cap")
    if params.abs_disp > DEFAULT_TOL.weak_disp_warn:
        warnings.warn(f"|phi|={params.abs_disp:.3g} is not small; the weak "
                      "approximation is unreliable", stacklevel=2)
    phi = params.disp_param
    cm = annihilation(dm - 1)
    b = (phi * cm.conj().T - np.conj(phi) * cm) / 2.0
    ac_dag = annihilation(dc - 1).conj().T
    ad_dag = annihilation(dd - 1).conj().T

    def on(op: np.ndarray, g: np.ndarray, axis: int) -> np.ndarray:  # op on one mode
        return np.moveaxis(np.tensordot(op, g, axes=([1], [axis])), 0, axis)

    def apply_x(g: np.ndarray) -> np.ndarray:
        return alpha * on(b, on(ac_dag, g, 0) + on(ad_dag, g, 1), 2)

    # crude operator-norm bound decides how many scaling steps keep the
    # series fast and well-conditioned
    bound = (abs(alpha) * abs(phi)
             * (math.sqrt(dc) + math.sqrt(dd)) * math.sqrt(dm))
    steps = max(1, 1 << max(0, math.ceil(math.log2(max(bound, 1e-12)))))
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
    return g
