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
from collections.abc import Iterator
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import EvolutionParams, _mirror_tail
from .errors import DegenerateBranchError, InvariantError, LayoutError
from .fock import _moment_table, _tridiagonal_eigh, _unit, coherent_state, cutoff_for_leakage
from .tolerances import DEFAULT_TOL

PRESELECT_LEAKAGE = 1e-9
# sqrt(C(2053, 1026)) is 0.75 of the largest float; sqrt(C(2054, 1027)) overflows
MAX_RECOMBINER_DIM = 2054
# complex dm^2-sized arrays that a cold exact point holds at once at large
# mirror cutoffs (the moment tables, the mirror states and moments): 7.0-7.3
# measured by tracemalloc at mirror cutoffs 250-1000 and |alpha|^2 2
_MIRROR_WORKSPACE = 8


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
    zero-point (sigma) units.  The mirror states are read-only (dm, dm)
    density matrices, normalized to trace 1.  Degenerate branches (e.g. the
    click branch at zero drive) carry NaN moments, no mirror state and a
    reason.
    """

    p_click: float
    p_noclick: float
    p_residual: float
    q_click: float
    q_noclick: float
    dq_click: float
    dq_noclick: float
    diff: float
    mirror_click: np.ndarray | None
    mirror_noclick: np.ndarray | None
    degenerate_reason: str | None = None


def _arm(drive: ProtocolParams) -> np.ndarray:
    """Unit-norm amplitudes of a preselected arm |alpha/sqrt2>, the start of both
    engines' stages, after the leakage check and the mirror-tail check they share."""
    beta = _unit(coherent_state(drive.alpha / math.sqrt(2.0), drive.n_opt,
                                leakage_tol=PRESELECT_LEAKAGE / 2))
    _mirror_tail(drive.evolution, np.abs(beta) ** 2, drive.mirror_cutoff)
    return beta


def _drive(params: ProtocolParams) -> ProtocolParams:
    """``params`` with delta zeroed and the optical cutoff resolved: the key
    (alpha, n_opt, mirror cutoff, evolution) of both engines' delta-free
    stage, so every delta of a scan at one drive and cutoffs shares an entry."""
    return replace(params, delta=0.0, optical_cutoff=params.n_opt)


@functools.lru_cache(maxsize=8)
def _evolved_ket(drive: ProtocolParams) -> tuple[np.ndarray, float, np.ndarray]:
    """The delta-free front half of :func:`run_protocol`: the evolved (a, m)
    ket grid, its norm^2 (1 minus the mirror tail) and arm b's amplitudes,
    for a :func:`_drive` key.

    The mirror starts in vacuum, so block n of arm a maps |n>|0> to e^{i K n^2}
    |n phi> (Bose, Jacobs & Knight, PRA 56, 4175 (1997)): psi[n, m] = beta[n]
    e^{i K n^2} e^{-|n phi|^2/2} (n phi)^m / sqrt(m!), exact on the kept
    levels, K = ``kerr_phase``, phi = ``disp_param``.  Rows are running products
    along m with e^{-|n phi|^2/4} at each end, so none overflows or flushes to zero.

    A miss runs the preselection leakage and mirror-tail checks; the cache
    keeps no exception, so a failing key raises on every call.  Eight
    entries of d dm + d complex numbers, read-only because every caller
    shares them.
    """
    beta, ev = _arm(drive), drive.evolution
    n = np.arange(len(beta))
    half = np.exp(-(n * ev.abs_disp) ** 2 / 4)
    start = half * np.exp(1j * ev.kerr_phase * n ** 2) * beta
    ratio = np.multiply.outer(n * ev.disp_param, np.arange(1.0, drive.mirror_cutoff + 1) ** -0.5)
    psi = np.cumprod(np.hstack([start[:, None], ratio]), axis=1) * half[:, None]
    for arr in (psi, beta):
        arr.setflags(write=False)
    return psi, float(np.linalg.norm(psi)) ** 2, beta


@functools.lru_cache(maxsize=8)
def _bs_tables(d: int) -> tuple[np.ndarray, ...]:
    """Theta-free, read-only tables of :func:`_bs_kernel`, 2 d^2 + 2 d + 2
    entries: sqrt(C(c, n)) at column n + 1 of a (d, d + 1) array, sqrt(n),
    the exponents max(k - 1, 0), k <= d + 1, and for the truncated block
    N = d (states |i, d - i>, l = i - 1), with T = V diag(lam) V^T, i lam and
    Q[q, l] = -V[d-2, q] V[l, q] i^(l-d+2), which takes their phases to its
    row c = d - 1.  The binomials overflow past d = MAX_RECOMBINER_DIM."""
    if d > MAX_RECOMBINER_DIM:
        raise LayoutError(f"optical cutoff {d - 1} overflows the recombiner's binomial table")
    c, n = np.arange(d)[:, None], np.arange(1, d)
    binom = np.hstack([np.zeros((d, 1)), np.ones((d, 1)),
                       np.cumprod(np.sqrt(np.maximum(c + 1 - n, 0) / n), axis=1)])
    i = np.arange(d - 2.0)
    lam, vec = (_tridiagonal_eigh(np.sqrt((i + 2.0) * (d - 1.0 - i))) if d > 1
                else (np.zeros(0), np.zeros((0, 0))))
    phase = np.array([1, 1j, -1, -1j])[(np.arange(d - 1) - d + 2) % 4]
    tables = (binom, np.sqrt(np.arange(d)), np.maximum(np.arange(-1.0, d + 1), 0.0),
              1j * lam, -vec[-1:].reshape(d - 1, 1) * vec.T * phase)
    for arr in tables:
        arr.setflags(write=False)
    return tables


def _bs_kernel(thetas: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """W[t, j, c, n] = <c, j| U(thetas[t]) |n>_a |beta>_b for dark-port
    occupation j = 0, 1, on two modes of dimension d = len(beta).

    U is the mixer with outputs c = cos a + sin b, d = sin a - cos b:
    exp[theta(a^dag b - a b^dag)] followed by a pi phase flip on odd
    dark-port occupation (the target map has determinant -1).  The truncated
    generator conserves N = n_a + n_b, so U is one rotation per N on the
    states |i, N - i> (Campos, Saleh & Teich, PRA 40, 1371 (1989)), with a
    real tridiagonal generator G[i+1, i] = -G[i, i+1] = sqrt((i+1)(N-i)).
    A complete block (N < d) has binomial elements; with m = N - n,
    W[0, N, n] = sqrt(C(N, n)) cos^n sin^m beta_m and W[1, N-1, n] =
    (sqrt(n C(N-1, n-1)) cos^(n-1) sin^(m+1) - sqrt(m C(N-1, n)) cos^(n+1) sin^(m-1)) beta_m
    (a term is zero where its power would be -1).  The block N = d, cut by the
    cutoff, keeps eigenpairs: i G = -D^-1 T D, D = diag(i^k), so exp(theta G) =
    D^-1 V exp(i theta lam) V^T D.  The m-dependent factors are diagonals of one
    strided view and the truncated row is a (t, 1, k) @ (k, k) product, so each
    angle gets the bits it gets alone.
    """
    d, t = len(beta), len(thetas)
    binom, root, power, ilam, q = _bs_tables(d)
    cos, sin = np.cos(thetas)[:, None], np.sin(thetas)[:, None]
    cp, sp = cos ** power, sin ** power  # x^(k-1) at k, 1 at k = 0
    r = binom * cp[:, None, :d + 1]  # sqrt(C(c, n)) cos^n at column n + 1
    # g[0, m] = sin^m beta_m and g[1, m] = sqrt(m) cos sin^(m-1) beta_m at
    # d - m, zero elsewhere, so diag[k, t, c, n] = g[k, t, c - n] for c <= d
    g = np.zeros((2, t, 2 * d), dtype=complex)
    np.multiply(sp[:, 1:d + 1], beta, out=g[0, :, d:0:-1])
    np.multiply(cos * root * sp[:, :d], beta, out=g[1, :, d:0:-1])
    step = g.itemsize
    diag = np.ndarray((2, t, d + 1, d), complex, g, d * step, g.strides[:2] + (-step, step))
    w = np.empty((t, 2, d, d), dtype=complex)
    np.multiply(r[..., 1:], diag[0, :, :d], out=w[:, 0])
    w1 = w[:, 1, :d - 1]
    np.multiply(r[:, :d - 1, :-1] * (sin * root)[:, None], diag[0, :, 1:d], out=w1)
    w1 -= r[:, :d - 1, 1:] * diag[1, :, 1:d]
    w[:, 1, d - 1, 0] = 0.0
    w[:, 1, d - 1, 1:] = (np.exp(thetas[:, None, None] * ilam) @ q)[:, 0] * beta[:0:-1]
    return w


def _recombined(deltas, beta: np.ndarray, dm: int):
    """W from :func:`_bs_kernel` over slices of ``deltas``, at their angles
    pi/4 + delta: max(1, 2^16 // (2 s^2)) angles, s = max(d, dm), so that W
    and each slice's mirror states (t, 2, dm, dm) stay near 1 MiB (one
    angle's from s = 129 on)."""
    thetas = math.pi / 4 + np.asarray(deltas, dtype=float)
    step = max(1, 2 ** 16 // (2 * max(len(beta), dm) ** 2))
    for lo in range(0, len(thetas), step):
        yield _bs_kernel(thetas[lo:lo + step], beta)


def _outcomes(rho_m: np.ndarray, probs: np.ndarray, trace: float) -> Iterator[ProtocolOutcome]:
    """Mirror statistics at each delta t of a slice from the unnormalized
    mirror states ``rho_m[t, j]`` of dark-port outcome j = 0 (no click) or 1
    (click), their traces ``probs`` and the (a, m) state's trace, in one array
    pass; a degenerate branch gets NaN moments, no mirror state and a reason.
    The recombiner is unitary, so trace - sum(probs) is P(2+ dark-port photons)."""
    qs = _moment_table(rho_m.shape[-1] - 1)
    bad = probs < DEFAULT_TOL.degenerate_prob
    # element (i, j) and the conjugate of (j, i) are the same sums over the
    # same real 2p, so every mirror state is exactly Hermitian
    two_p = 2 * np.where(bad, 1.0, probs)[..., None, None]
    rho = (rho_m + rho_m.conj().swapaxes(-1, -2)) / two_p
    rho.setflags(write=False)
    mom = (rho.real[:, :, None] * qs).sum(axis=(3, 4))  # <q>, <q^2> of every branch
    mom[bad] = math.nan
    q, q2 = mom.transpose(2, 0, 1)
    cols = (probs, q, np.sqrt(np.maximum(q2 - q * q, 0.0)), bad)
    for t, (p, (q_nc, q_c), (dq_nc, dq_c), b) in enumerate(zip(*(c.tolist() for c in cols))):
        yield ProtocolOutcome(
            p_click=p[1], p_noclick=p[0], p_residual=max(trace - p[0] - p[1], 0.0),
            q_click=q_c, q_noclick=q_nc, dq_click=dq_c, dq_noclick=dq_nc, diff=q_c - q_nc,
            mirror_click=None if b[1] else rho[t, 1],
            mirror_noclick=None if b[0] else rho[t, 0],
            degenerate_reason="; ".join(f"{name}:" + str(DegenerateBranchError(
                f"projection onto |{j}> of mode 'd' has no weight", p[j]))
                for j, name in enumerate(("noclick", "click")) if b[j]) if True in b else None)


def _scan(drive: ProtocolParams, deltas) -> Iterator[ProtocolOutcome]:
    """:func:`run_protocol` at ``drive`` (its delta unread) and each of
    ``deltas``, which the caller has checked.  On first use: one stage
    lookup, then the recombiner (:func:`_recombined`) and :func:`_outcomes`
    per slice, whose outcomes it yields in order, so only one slice's
    mirror states are alive at a time."""
    grid, norm2, beta = _evolved_ket(_drive(drive))
    for w in _recombined(deltas, beta, grid.shape[1]):
        x = w @ grid
        probs = (x.real ** 2 + x.imag ** 2).sum(axis=(2, 3))
        yield from _outcomes(x.transpose(0, 1, 3, 2) @ x.conj(), probs, norm2)


def run_protocol(params: ProtocolParams) -> ProtocolOutcome:
    """Run the unitary pipeline and collect both dark-port branches (a
    one-delta :func:`_scan`).

    The (a, m) ket evolves in closed form, a coherent mirror state per
    photon number of arm a (:func:`_evolved_ket`), and stays a ket up to the
    dark port: x_j = W_j psi, with W from :func:`_bs_kernel`, is the (bright port
    c) x mirror ket left by dark-port outcome j, and tracing out c gives the
    unnormalized mirror state x_j^T x_j^*.  No (a, m) density matrix is
    formed; :func:`optoweak.dissipation._damped_scan` is the mixed-state
    route.  The stage :func:`_evolved_ket` evolves the ket once per drive
    and cutoffs.
    """
    return next(_scan(params, [params.delta]))


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
