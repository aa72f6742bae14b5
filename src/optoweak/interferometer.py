"""The full postselected weak-measurement protocol.

Pipeline: symmetric preselection into the two arms, optomechanical
interaction in arm ``a``, imbalanced recombination onto output ports
``c`` (bright) and ``d`` (dark), Fock-resolved dark-port postselection,
conditional mirror statistics.

Sign convention: the mixing angle is ``theta = pi/4 + delta``; for real
positive drive the dark-port coherent amplitude is ``alpha sin(delta)``, so a
positive postselection parameter gives a positive single-photon enhancement
of the mirror displacement.  Locked by a regression test.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import EvolutionParams, _factored_propagate
from .errors import DegenerateBranchError, InvariantError, LayoutError
from .fock import (DensityMatrix, StateVector, _moment_table,
                   _warn_large_displacement, coherent_state, cutoff_for_leakage,
                   tensor, vacuum_state)
from .tolerances import DEFAULT_TOL

PRESELECT_LEAKAGE = 1e-9


def default_optical_cutoff(alpha2: float) -> int:
    """ceil(|alpha|^2 + 6 sqrt(max(|alpha|^2, 1))), floored so each arm's
    Poisson tail stays below half the preselection leakage budget.

    The 6-sigma rule alone undershoots for small mean photon numbers (the
    Poisson skew beats the normal approximation there), hence the floor.
    """
    rule = math.ceil(alpha2 + 6.0 * math.sqrt(max(alpha2, 1.0)))
    return cutoff_for_leakage(alpha2 / 2.0, PRESELECT_LEAKAGE / 2.0, start=rule)


@dataclass(frozen=True)
class ProtocolParams:
    """Drive amplitude, postselection parameter, evolution, cutoffs."""

    alpha: complex
    delta: float
    evolution: EvolutionParams
    optical_cutoff: int | None = None
    mirror_cutoff: int = 10

    def __post_init__(self):
        if abs(self.delta) >= math.pi / 4:
            raise LayoutError("|delta| must be < pi/4")
        if self.alpha2 * self.delta ** 2 > DEFAULT_TOL.small_param_warn:
            warnings.warn(
                f"|alpha|^2 delta^2 = {self.alpha2 * self.delta**2:.3g} is not small; "
                "closed-form comparisons will degrade", stacklevel=3)

    @property
    def alpha2(self) -> float:
        return abs(self.alpha) ** 2

    @property
    def n_opt(self) -> int:
        if self.optical_cutoff is not None:
            return self.optical_cutoff
        return default_optical_cutoff(self.alpha2)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Dark-port branch probabilities and conditional mirror statistics.

    ``p_residual`` is the trace the two reported outcomes leave: the
    probability of two or more dark-port photons.  Position moments are in
    zero-point (sigma) units.  Degenerate branches (e.g. the click branch at
    zero drive) carry NaN moments plus a reason.
    """

    p_click: float
    p_noclick: float
    p_residual: float
    q_click: float
    q_noclick: float
    dq_click: float
    dq_noclick: float
    diff: float
    mirror_click: DensityMatrix | None
    mirror_noclick: DensityMatrix | None
    degenerate_reason: str | None = None


def _arm(params: ProtocolParams, label: str) -> StateVector:
    """One preselected arm |alpha/sqrt2>; the leakage check of every
    preselection (arm a and arm b of both engines) happens here."""
    return coherent_state(params.alpha / math.sqrt(2.0), params.n_opt, label,
                          leakage_tol=PRESELECT_LEAKAGE / 2)


def _preselect_am(params: ProtocolParams) -> StateVector:
    """|alpha/sqrt2>_a |0>_m, normalized: the part of the preselected state
    that interacts.  Arm b stays coherent and is rebuilt at recombination."""
    return tensor([_arm(params, "a"), vacuum_state(params.mirror_cutoff, "m")]).normalize()


def _drive(params: ProtocolParams) -> ProtocolParams:
    """``params`` with delta zeroed and the optical cutoff resolved: the key
    (alpha, n_opt, mirror cutoff, evolution) of both engines' delta-free
    stage, so every delta of a scan at one drive and cutoffs shares an entry."""
    return replace(params, delta=0.0, optical_cutoff=params.n_opt)


@functools.lru_cache(maxsize=8)
def _evolved_ket(drive: ProtocolParams) -> tuple[np.ndarray, float, np.ndarray]:
    """The delta-free front half of :func:`run_protocol`: the evolved (a, m)
    ket grid, its norm^2 and arm b's amplitudes, for a :func:`_drive` key.

    A miss runs the preselection leakage and mirror-tail checks; the cache
    keeps no exception, so a failing key raises on every call.  Eight
    entries, like :func:`_bs_eig`, each d dm + d complex numbers.  The arrays
    are read-only (:class:`StateVector` freezes its amplitudes), because
    every caller shares them.
    """
    psi = _factored_propagate(_preselect_am(drive), drive.evolution)
    return psi.grid, psi.norm ** 2, _arm(drive, "b").normalize().amplitudes


@functools.lru_cache(maxsize=8)
def _bs_eig(d: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Per total photon number N = 0..min(d, 2d - 2): the arm-a occupations i
    of the block states |i, N - i> kept by cutoff d, and the eigenvalues and
    eigenvectors of i G_N (see :func:`_bs_kernel`).  Blocks with N > d reach
    no dark-port occupation below 2, so they are not needed.

    They depend on d alone, so every point of a sweep reuses them; eight
    entries cover a five-cutoff sweep, each about d^3 / 3 complex numbers.
    Read-only, because every caller shares them.
    """
    blocks = []
    for n_tot in range(min(d + 1, 2 * d - 1)):
        i = np.arange(max(0, n_tot - d + 1), min(n_tot, d - 1) + 1)
        off = np.sqrt((i[:-1] + 1.0) * (n_tot - i[:-1]))
        ev, vec = np.linalg.eigh(1j * (np.diag(off, -1) - np.diag(off, 1)))
        for arr in (i, ev, vec):
            arr.setflags(write=False)
        blocks.append((i, ev, vec))
    return tuple(blocks)


def _bs_kernel(theta: float, beta: np.ndarray) -> np.ndarray:
    """W[j, c, n] = <c, j| U |n>_a |beta>_b for dark-port occupation j = 0, 1,
    on two modes of dimension d = len(beta).

    U is the mixer with outputs c = cos a + sin b, d = sin a - cos b:
    exp[theta(a^dag b - a b^dag)] followed by a pi phase flip on odd
    dark-port occupation (the target map has determinant -1).  The truncated
    generator conserves N = n_a + n_b, so U is a direct sum of one rotation
    per N on the states |i, N - i> (Campos, Saleh & Teich, PRA 40, 1371
    (1989)).  Each block generator is real and tridiagonal with
    G[i+1, i] = -G[i, i+1] = sqrt((i+1)(N-i)); blocks with N >= d lose the
    states past the cutoff, exactly as the truncated generator does.  The
    eigenpairs of i G_N come from :func:`_bs_eig`; only the block rows
    i = N - j, the ones with j dark-port photons, are formed.
    """
    d = len(beta)
    w = np.zeros((2, d, d), dtype=complex)
    for n_tot, (i, ev, vec) in enumerate(_bs_eig(d)):
        c = np.arange(max(n_tot - 1, i[0]), min(n_tot, i[-1]) + 1)  # rows with j <= 1
        j = n_tot - c
        rows = (vec[c - i[0]] * np.exp(-1j * theta * ev)) @ vec.conj().T
        rows *= beta[n_tot - i] * (1 - 2 * j)[:, None]  # pi flip on j = 1
        w[j, c, i[0]:i[-1] + 1] = rows
    return w


def _outcome(params: ProtocolParams, rho_m: np.ndarray, probs: np.ndarray,
             trace: float) -> ProtocolOutcome:
    """Mirror statistics from the unnormalized conditional mirror states
    ``rho_m[j]`` of dark-port outcomes j = 0 (no click) and 1 (click), shape
    (2, dm, dm), their traces ``probs`` and the trace of the (a, m) state
    before postselection.  The recombiner is unitary on the truncated space,
    so the trace the two outcomes leave is the probability of two or more
    dark-port photons.
    """
    layout, q, q2 = _moment_table(params.mirror_cutoff)
    stats, reasons = {}, []
    for j, name in ((0, "noclick"), (1, "click")):
        p = float(probs[j])
        if p < DEFAULT_TOL.degenerate_prob:
            err = DegenerateBranchError(
                f"projection onto |{j}> of mode 'd' has no weight", p)
            reasons.append(f"{name}:{err}")
            stats[name] = (p, None, math.nan, math.nan)
            continue
        rho = (rho_m[j] + rho_m[j].conj().T) / (2 * p)
        tq = float((rho.real * q).sum())
        tq2 = float((rho.real * q2).sum())
        stats[name] = (p, DensityMatrix(layout, rho), tq,
                       math.sqrt(max(tq2 - tq * tq, 0.0)))

    p_nc, rho_nc, q_nc, dq_nc = stats["noclick"]
    p_c, rho_c, q_c, dq_c = stats["click"]
    return ProtocolOutcome(
        p_click=p_c, p_noclick=p_nc,
        p_residual=max(trace - p_nc - p_c, 0.0),
        q_click=q_c, q_noclick=q_nc, dq_click=dq_c, dq_noclick=dq_nc,
        diff=q_c - q_nc, mirror_click=rho_c, mirror_noclick=rho_nc,
        degenerate_reason="; ".join(reasons) or None)


def _postselect(params: ProtocolParams, rho: np.ndarray, rho_a: np.ndarray,
                trace: float, beta: np.ndarray) -> ProtocolOutcome:
    """Recombine, postselect on the dark port and collect mirror statistics
    of a mixed (a, m) state: the damped engine's route.

    ``rho`` is the evolved (a, m) density matrix as a (d^2, dm^2) array in
    (n n', m m') order, ``rho_a`` its partial trace over the mirror, ``trace``
    the trace of rho_a and ``beta`` arm b's amplitudes.  With W from
    :func:`_bs_kernel` the dark-port outcome j leaves the mirror in
    sum_{n n'} M_j[n, n'] rho[n n', :] with
    M_j[n, n'] = sum_c W[j, c, n] W*[j, c, n'], so both outcomes are one
    matrix product, and outcome j has probability Tr(M_j rho_a).  The bright
    port is never conditioned, which equals tracing it out.
    """
    w = _bs_kernel(math.pi / 4 + params.delta, beta)
    m = w.transpose(0, 2, 1) @ w.conj()  # M_j[n, n'], as a BLAS batch
    dm = params.mirror_cutoff + 1
    return _outcome(params, (m.reshape(2, -1) @ rho).reshape(2, dm, dm),
                    np.einsum("jnk,nk->j", m, rho_a).real, trace)


def run_protocol(params: ProtocolParams) -> ProtocolOutcome:
    """Run the unitary pipeline and collect both dark-port branches.

    The (a, m) ket evolves under the factored propagator and stays a ket up
    to the dark port: x_j = W_j psi, with W from :func:`_bs_kernel`, is the
    (bright port c) x mirror ket left by dark-port outcome j, and tracing
    out c gives the unnormalized mirror state x_j^T x_j^*.  No (a, m)
    density matrix is formed; :func:`_postselect` is the mixed-state route.

    Everything before the recombiner is independent of delta and comes from
    the stage :func:`_evolved_ket`, so the points of a delta scan at one
    drive and cutoffs evolve the ket once.  The warning that the largest
    mirror displacement is not small against the cutoff fires on every call.
    """
    drive = _drive(params)
    grid, norm2, beta = _evolved_ket(drive)
    _warn_large_displacement(drive.evolution.disp_param, drive.optical_cutoff,
                             drive.mirror_cutoff, stacklevel=2)
    x = _bs_kernel(math.pi / 4 + params.delta, beta) @ grid
    probs = (x.real ** 2 + x.imag ** 2).sum(axis=(1, 2))
    return _outcome(params, x.transpose(0, 2, 1) @ x.conj(), probs, norm2)


def weak_value_numeric(params: ProtocolParams) -> float:
    """<psi_f| n_a |psi_i> / <psi_f|psi_i> in closed form.

    On the output ports the preselected light is |u>_c |v>_d with
    u = alpha (cos theta + sin theta) / sqrt 2 and
    v = alpha (sin theta - cos theta) / sqrt 2; ``psi_f = |u>_c |1>_d``
    postselects one dark-port photon.  The arm-a number operator is
    cos^2 n_c + cos sin (a_c^dag a_d + a_c a_d^dag) + sin^2 n_d, and its
    coherent-state matrix elements give
    cos^2 |u|^2 + cos sin (u* v + u / v) + sin^2.  The overlap
    <psi_f|psi_i> = v e^{-|v|^2/2} vanishes with v.  The coupling plays no
    role: the weak value is a light-only quantity.
    """
    theta = math.pi / 4 + params.delta
    cth, sth = math.cos(theta), math.sin(theta)
    u = complex(params.alpha) * (cth + sth) / math.sqrt(2.0)
    v = complex(params.alpha) * (sth - cth) / math.sqrt(2.0)
    overlap = abs(v) * math.exp(-abs(v) ** 2 / 2)
    if overlap < 1e-30:
        raise DegenerateBranchError("pre/post selection overlap vanishes", overlap)
    wv = cth ** 2 * abs(u) ** 2 + cth * sth * (u.conjugate() * v + u / v) + sth ** 2
    if complex(params.alpha).imag == 0.0 and not abs(wv.imag) < 1e-8:
        raise InvariantError("weak value of a real drive has an imaginary part",
                             abs(wv.imag))
    return float(wv.real)
