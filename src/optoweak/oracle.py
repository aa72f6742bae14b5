"""Reference propagators, the engines' independent oracles: no production
module imports this one, only ``verify`` and the package root."""

from __future__ import annotations

import cmath
import math
import warnings
from functools import lru_cache

import numpy as np

from .dissipation import LindbladParams, _density_matrix
from .dynamics import EvolutionParams, _mirror_tail
from .errors import ConvergenceError, LayoutError, TruncationError
from .fock import annihilation
from .tolerances import DEFAULT_TOL


@lru_cache(maxsize=8)
def _eigenpairs(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only eigenpairs q = V diag(w) V^T of the mirror position on
    ``cutoff`` + 1 levels for :func:`factored_propagate`, whose D(beta) is
    unitary to rounding exactly when V is orthogonal and w real: raises
    :class:`TruncationError` unless max |V^T V - I| < ``unitary_atol``, w finite.
    LAPACK's ``eigh``, which the recombiner calls only on its truncated block:
    no engine decomposes q, so the oracle checks the engines' closed-form ket."""
    off = np.sqrt(np.arange(1.0, cutoff + 1))
    w, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    # V^T V as a BLAS product: about 13 times faster than einsum at cutoff 1000
    dev = float(np.abs(v.T @ v - np.eye(cutoff + 1)).max())
    if not (dev < DEFAULT_TOL.unitary_atol and np.isfinite(w).all()):
        raise TruncationError("displacement operator failed the unitarity check", dev)
    for arr in (w, v):
        arr.setflags(write=False)
    return w, v


def factored_propagate(state: np.ndarray, params: EvolutionParams) -> np.ndarray:
    """Evolve an (a, m) ket ``state`` of shape (da, dm) with the factored
    propagator, returning a new ket of that shape.

    Right-to-left: mirror rotation e^{-i wm_t c^dag c}; per photon-number
    block n of arm a, mirror displacement D(n phi); Kerr phase
    e^{i kerr n^2}.
    Every D(n phi) comes from one cached eigendecomposition of the mirror
    position and is applied in factored form, never built as a matrix.
    Raises :class:`LayoutError` unless ``state`` has two nonempty axes, and
    :class:`TruncationError` past the mirror-tail budget, then warns when the
    largest displacement is not small against the mirror cutoff: the
    eigenpair D(beta) of the truncated q distorts the top mirror levels.
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
    big = abs(n_max * beta) ** 2
    if big > DEFAULT_TOL.displacement_warn_ratio * max(m_cut, 1):
        warnings.warn(f"displacement |beta|^2={big:.3g} is not small against cutoff {m_cut}",
                      stacklevel=2)
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


def lindblad_rhs(rho: np.ndarray, params: LindbladParams) -> np.ndarray:
    """-i[H, rho] + (gamma/2)(2 c rho c^dag - c^dag c rho - rho c^dag c) for
    an (a, m) density matrix ``rho`` of shape (da, dm, da, dm).

    Returns the derivative in that shape (it is traceless and Hermitian, not
    a density matrix).
    """
    da, dm, r = _density_matrix(rho)
    h = _hamiltonian(da, dm - 1, params.base.k)
    c = np.kron(np.eye(da), annihilation(dm - 1))
    out = -1j * (h @ r - r @ h)
    if params.gamma != 0.0:
        cd = c.conj().T
        cdc = cd @ c
        out = out + (params.gamma / 2.0) * (2.0 * c @ r @ cd - cdc @ r - r @ cdc)
    return out.reshape(da, dm, da, dm)


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
