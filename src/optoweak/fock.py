"""Multi-mode truncated Fock-space algebra.

States live on an ordered list of labelled modes, each with its own Fock
cutoff.  Basis ordering is fixed once and for all: amplitudes are stored as a
flat C-ordered array over the occupation grid, i.e. the *last listed mode
varies fastest*.  All index arithmetic goes through :class:`ModeLayout` so the
convention exists in exactly one place.

Everything here is pure: states and operators are immutable after
construction.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateBranchError, InvariantError, LayoutError,
                     TruncationError)
from .tolerances import DEFAULT_TOL

MODE_LABELS = frozenset("abcdm")


def poisson_tail(lam: float, cutoff: int) -> float:
    """P(X > cutoff) for X ~ Poisson(lam); the leakage of |alpha|^2 = lam.

    Sums the short side of the distribution from its largest term, which
    ``math.lgamma`` gives directly: the tail itself upward from cutoff + 1
    when that lies above the mean, else 1 - CDF downward from the cutoff.
    Terms fall at least geometrically away from the mean, so the sum stops
    once a term no longer changes it.
    """
    if lam == 0.0:
        return 0.0
    up = cutoff + 1 > lam
    k = cutoff + 1 if up else cutoff
    term = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
    total = 0.0
    while k >= 0 and total + term != total:
        total += term
        term *= lam / (k + 1) if up else k / lam
        k += 1 if up else -1
    return total if up else 1.0 - total


def cutoff_for_leakage(lam: float, tol: float, start: int = 0) -> int:
    """Smallest cutoff whose Poisson tail at mean ``lam`` is within ``tol``."""
    n = max(start, int(lam))
    while poisson_tail(lam, n) > tol:
        n += 1
    return n


@dataclass(frozen=True)
class ModeLayout:
    """Ordered labelled modes with per-mode Fock cutoffs.

    ``modes`` is a tuple of ``(label, cutoff)`` pairs; mode dimension is
    ``cutoff + 1``.  Labels are drawn from {a, b, c, d, m} and must be unique.
    """

    modes: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.modes]
        if len(set(labels)) != len(labels):
            raise LayoutError(f"duplicate mode labels in {labels}")
        for lab, cut in self.modes:
            if lab not in MODE_LABELS:
                raise LayoutError(f"unknown mode label {lab!r} (use a,b,c,d,m)")
            if cut < 0:
                raise LayoutError(f"cutoff for mode {lab!r} must be >= 0, got {cut}")
        object.__setattr__(self, "modes", tuple((str(l), int(c)) for l, c in self.modes))

    @classmethod
    def of(cls, *modes: tuple[str, int]) -> "ModeLayout":
        return cls(tuple(modes))

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.modes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(cut + 1 for _, cut in self.modes)

    @property
    def dim(self) -> int:
        return math.prod(self.shape)

    def axis(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.modes):
            if lab == label:
                return i
        raise LayoutError(f"mode {label!r} not in layout {self.labels}")

    def cutoff(self, label: str) -> int:
        return self.modes[self.axis(label)][1]

    def dim_of(self, label: str) -> int:
        return self.cutoff(label) + 1

    def without(self, label: str) -> "ModeLayout":
        ax = self.axis(label)
        return ModeLayout(self.modes[:ax] + self.modes[ax + 1:])


@dataclass(frozen=True)
class StateVector:
    """Joint ket over a :class:`ModeLayout` as a flat complex array.

    ``leakage`` is a best-effort estimate of probability weight lost to the
    Fock cutoffs while constructing the state (coherent tails, displacement
    tails); it is diagnostic metadata, not part of the amplitudes.  The
    constructor keeps a read-only copy of ``amplitudes``, never the caller's array.
    """

    layout: ModeLayout
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != self.layout.dim:
            raise LayoutError(
                f"amplitude length {amps.size} != layout dimension {self.layout.dim}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def grid(self) -> np.ndarray:
        """Amplitudes reshaped to the occupation grid (one axis per mode)."""
        return self.amplitudes.reshape(self.layout.shape)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm
        if n < DEFAULT_TOL.degenerate_prob:
            raise DegenerateBranchError("cannot normalize a zero state", n)
        return StateVector(self.layout, self.amplitudes / n, self.leakage)


@dataclass(frozen=True)
class Operator:
    """Dense operator on the modes named by its layout.

    The ``hermitian`` flag is only set by :meth:`of`, after a numerical
    check; constructing directly leaves it False.
    """

    layout: ModeLayout
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.layout.dim:
            raise LayoutError(f"matrix shape {m.shape} != layout dimension {self.layout.dim}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def of(cls, layout: ModeLayout, matrix: np.ndarray) -> "Operator":
        m = cls(layout, matrix).matrix  # the shape check first
        return cls(layout, m, hermitian=_hermitian(m, DEFAULT_TOL.hermitian_atol))


def _hermitian(m: np.ndarray, atol: float) -> bool:
    """max |m - m^H| < atol, in row blocks of 2^16 entries: a few rows, not a matrix."""
    step = max(1, (1 << 16) // len(m))
    for r in range(0, len(m), step):
        if not np.abs(m[r:r + step] - m[:, r:r + step].conj().T).max() < atol:
            return False
    return True


@dataclass(frozen=True)
class DensityMatrix:
    """Dense density matrix over a :class:`ModeLayout`.

    The constructor checks Hermiticity only; trace normalization is the
    caller's business because postselected (sub-normalized) branches are
    legitimate intermediate objects.  It takes ownership of a complex
    ``matrix``: it keeps that array, uncopied, and makes it read-only.
    """

    layout: ModeLayout
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] != self.layout.dim:
            raise LayoutError(f"matrix shape {m.shape} != layout dimension {self.layout.dim}")
        if not _hermitian(m, DEFAULT_TOL.density_hermitian_atol):
            raise LayoutError("density matrix is not Hermitian within tolerance")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def _symmetrized(cls, layout: ModeLayout, m: np.ndarray, p: np.ndarray) -> tuple:
        """(m + m^H) / (2 p) over a stack ``m`` of shape p.shape + (n, n), read-only,
        and a density matrix on each of its matrices in C order, a view that keeps
        the whole stack alive.  Element (i, j) and the conjugate of (j, i) are the
        same sums over the same real 2p, so they skip the constructor's check."""
        rho = (m + m.conj().swapaxes(-1, -2)) / (2 * p[..., None, None])
        rho.setflags(write=False)
        out = [object.__new__(cls) for _ in range(p.size)]
        for dm, r in zip(out, rho.reshape(-1, *rho.shape[-2:])):
            vars(dm).update(layout=layout, matrix=r)
        return rho, out

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        a = state.amplitudes
        return cls(state.layout, np.outer(a, a.conj()))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def validate(self, tol=DEFAULT_TOL) -> None:
        """Spot-check trace, Hermiticity, positivity; raise on violation."""
        if abs(self.trace - 1.0) > tol.trace_atol:
            raise TruncationError("density matrix trace deviates from 1",
                                  abs(self.trace - 1.0))
        lo = float(np.linalg.eigvalsh(self.matrix).min())
        if lo < tol.positivity_floor:
            raise TruncationError("density matrix has a negative eigenvalue", -lo)

    def partial_trace(self, keep: tuple[str, ...]) -> "DensityMatrix":
        """Reduced density matrix over ``keep`` (in the order given)."""
        labels = self.layout.labels
        new_layout = ModeLayout(tuple((lab, self.layout.cutoff(lab)) for lab in keep))
        t = self.matrix.reshape(self.layout.shape * 2)
        # trace out modes not kept, highest axis first so lower positions stay put
        for ax in reversed(range(len(labels))):
            if labels[ax] not in keep:
                t = np.trace(t, axis1=ax, axis2=ax + t.ndim // 2)
        # reorder the kept modes to the requested order
        kept_labels = [lab for lab in labels if lab in keep]
        perm = [kept_labels.index(lab) for lab in keep]
        t = t.transpose(perm + [len(perm) + p for p in perm])
        return DensityMatrix(new_layout, t.reshape(new_layout.dim, new_layout.dim))


# ---------------------------------------------------------------------------
# state and operator constructors

def coherent_state(alpha: complex, cutoff: int, label: str = "a",
                   leakage_tol: float | None = None) -> StateVector:
    """Truncated coherent state; amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Raises :class:`TruncationError` when the Poisson tail past the cutoff
    exceeds ``leakage_tol`` (default ``Tolerances.coherent_leakage``).
    """
    if cutoff < 0:
        raise LayoutError("cutoff must be >= 0")
    tol = DEFAULT_TOL.coherent_leakage if leakage_tol is None else leakage_tol
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[0] = 1.0
    for n in range(1, cutoff + 1):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    amps *= np.exp(-abs(alpha) ** 2 / 2)
    leak = poisson_tail(abs(alpha) ** 2, cutoff)
    if leak > tol:
        raise TruncationError(
            f"coherent state |alpha|^2={abs(alpha)**2:.4g} does not fit cutoff {cutoff}", leak)
    return StateVector(ModeLayout.of((label, cutoff)), amps, leakage=leak)


def fock_state(n: int, cutoff: int, label: str = "a") -> StateVector:
    if not 0 <= n <= cutoff:
        raise LayoutError(f"occupation {n} outside [0, {cutoff}]")
    amps = np.zeros(cutoff + 1, dtype=complex)
    amps[n] = 1.0
    return StateVector(ModeLayout.of((label, cutoff)), amps)


def vacuum_state(cutoff: int, label: str = "m") -> StateVector:
    return fock_state(0, cutoff, label)


def tensor(states: list[StateVector] | tuple[StateVector, ...]) -> StateVector:
    """Product state over the concatenated layouts (order as given)."""
    if not states:
        raise LayoutError("tensor of zero states")
    modes: list[tuple[str, int]] = []
    for s in states:
        modes.extend(s.layout.modes)
    layout = ModeLayout(tuple(modes))  # raises on duplicate labels
    amps = states[0].amplitudes
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
    return StateVector(layout, amps, leakage=1.0 - math.prod(1.0 - s.leakage for s in states))


def annihilation(cutoff: int, label: str = "a") -> Operator:
    """a |n> = sqrt(n) |n-1> on a single truncated mode."""
    m = np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)
    return Operator.of(ModeLayout.of((label, cutoff)), m)


def position(cutoff: int, sigma: float = 1.0, label: str = "m") -> Operator:
    """q = sigma (c + c^dag); sigma is the zero-point spread (1 = sigma units)."""
    return Operator.of(ModeLayout.of((label, cutoff)), sigma * _moment_table(cutoff)[1][0])


@functools.lru_cache(maxsize=8)
def _moment_table(cutoff: int) -> tuple[ModeLayout, np.ndarray]:
    """The layout of mirror mode ``m`` and the real, symmetric matrices of q =
    c + c^dag (:func:`position` in sigma units) and q^2, stacked, built once per
    cutoff and kept read-only; Tr(rho q) is the elementwise sum of Re(rho) q."""
    c = annihilation(cutoff).matrix.real
    q = c + c.T
    # not q @ q: a process's first real BLAS product maps about 256 KB of
    # OpenBLAS buffers, and the engines otherwise multiply complex matrices
    qs = np.stack((q, np.einsum("ij,jk->ik", q, q)))
    qs.setflags(write=False)
    return ModeLayout.of(("m", cutoff)), qs


def _warn_large_displacement(beta: complex, n_max: int, cutoff: int,
                             stacklevel: int) -> None:
    """Warn when the largest displacement |n_max beta|^2 of a stack is not
    small against the cutoff.  ``stacklevel`` counts from the caller, so 2
    reports the line that called the caller."""
    big = abs(n_max * beta) ** 2
    if big > DEFAULT_TOL.displacement_warn_ratio * max(cutoff, 1):
        warnings.warn(
            f"displacement |beta|^2={big:.3g} is not small against cutoff {cutoff}",
            stacklevel=stacklevel + 1)


def _tridiagonal_eigh(off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvector columns of the zero-
    diagonal symmetric tridiagonal matrix with off-diagonal ``off`` > 0, not
    by LAPACK (its eigensolver maps about 0.8 MB of code): multisection on
    Sturm counts, then twisted factorizations (Dhillon & Parlett, Linear
    Algebra Appl. 387, 1 (2004))."""
    n, e2 = len(off) + 1, off * off
    m, k = max(1, 256 // n), np.arange(n)  # m points per bracket and sweep: vectors of ~256
    hi = np.full(n, 2.0 * off.max(initial=0.0) + 1.0)  # Gershgorin
    lo, frac, piv = -hi, np.arange(1.0, m + 1)[:, None] / (m + 1), np.empty((n, m, n))
    with np.errstate(divide="ignore", over="ignore"):  # a pivot +-0 or +-inf counts by its sign
        for _ in range(math.ceil(54 / math.log2(m + 1))):  # to an ulp of the bound
            xs = np.vstack([lo, lo + (hi - lo) * frac, hi])
            d = piv[0] = nx = -xs[1:-1]
            for i, e in enumerate(e2.tolist(), 1):
                d = piv[i] = nx - e / d
            above = np.vstack([np.signbit(piv).sum(axis=0) > k, np.ones(n, bool)])
            j = 1 + above.argmax(axis=0)  # the first point above eigenvalue k
            lo, hi = xs[j - 1, k], xs[j, k]
    piv, lam = np.empty((2, n, n)), 0.5 * (lo + hi)
    piv[:, 0] = np.where(np.abs(lam) < 1e-150, 1e-150, -lam)
    for i in range(n - 1):  # forward pivots, and backward ones from the last row
        p = -lam - e2[[i, n - 2 - i], None] / piv[:, i]
        piv[:, i + 1] = np.where(np.abs(p) < 1e-150, 1e-150, p)
    fwd, bwd = piv[0], piv[1, ::-1]
    twist, row = np.abs(fwd + bwd + lam).argmin(axis=0), np.arange(n)[:, None]
    z = np.ones((n, n))
    z[:-1] = np.cumprod(np.where(row[:-1] < twist, -off[:, None] / fwd[:-1], 1.0)[::-1], 0)[::-1]
    z[1:] *= np.cumprod(np.where(row[1:] > twist, -off[:, None] / bwd[1:], 1.0), axis=0)
    return lam, z / np.sqrt((z * z).sum(axis=0))


def _displacement_powers(beta: complex, n_max: int, cutoff: int) -> np.ndarray:
    """D(n beta) for n = 0..n_max, stacked on the first axis.

    The generator of D(n beta) is n times that of D(beta), so one real
    eigendecomposition gives every power (Bose, Jacobs & Knight, PRA 56, 4175
    (1997)): i(beta c^dag - beta* c) = P |beta| q P^* with q = c + c^dag =
    V diag(w) V^T and P = diag(u^k), u = i beta / |beta| from beta's phase (no
    division: zero drive is safe), so D(n beta) = P V exp(-i n |beta| w) V^T P^*.
    Raises :class:`TruncationError` when any matrix fails the unitarity check;
    callers warn through :func:`_warn_large_displacement`.
    """
    w, v = _tridiagonal_eigh(np.sqrt(np.arange(1.0, cutoff + 1)))
    v = np.exp(1j * (cmath.phase(beta) + math.pi / 2) * np.arange(cutoff + 1))[:, None] * v
    phases = np.exp(-1j * abs(beta) * np.outer(np.arange(n_max + 1), w))
    stack = (v * phases[:, None, :]) @ v.conj().T
    dev = float(np.abs(stack @ stack.conj().swapaxes(1, 2) - np.eye(cutoff + 1)).max())
    if not dev < DEFAULT_TOL.unitary_atol:
        raise TruncationError("displacement operator failed the unitarity check", dev)
    return stack


# ---------------------------------------------------------------------------
# projecting, expecting

def _check_targets(op: Operator, layout: ModeLayout, targets: tuple[str, ...]) -> None:
    if len(targets) != len(op.layout.modes):
        raise LayoutError("target list does not match operator arity")
    for t, (lab, cut) in zip(targets, op.layout.modes):
        if layout.cutoff(t) != cut:
            raise LayoutError(
                f"cutoff mismatch on mode {t!r}: state {layout.cutoff(t)}, operator {cut}")


def project_fock(state: StateVector, label: str, n: int) -> tuple[StateVector, float]:
    """Project mode ``label`` onto Fock level ``n``.

    Returns the renormalized conditional state over the remaining modes and
    the branch probability.  Raises :class:`DegenerateBranchError` instead of
    producing a NaN state when the branch has no weight.
    """
    cut = state.layout.cutoff(label)
    if not 0 <= n <= cut:
        raise LayoutError(f"Fock level {n} outside mode {label!r} cutoff {cut}")
    ax = state.layout.axis(label)
    sl = np.take(state.grid, n, axis=ax)
    prob = float(np.sum(np.abs(sl) ** 2))
    if prob < DEFAULT_TOL.degenerate_prob:
        raise DegenerateBranchError(
            f"projection onto |{n}> of mode {label!r} has no weight", prob)
    return StateVector(state.layout.without(label), sl.reshape(-1) / np.sqrt(prob),
                       state.leakage), prob


def reduced_density(obj: StateVector | DensityMatrix,
                    keep: tuple[str, ...]) -> DensityMatrix:
    if isinstance(obj, StateVector):
        obj = DensityMatrix.from_state(obj)
    return obj.partial_trace(keep)


def expectation(obj: StateVector | DensityMatrix, op: Operator,
                targets: tuple[str, ...] | None = None) -> complex:
    """<op> on a state or density matrix, through its reduced density matrix
    on ``targets`` (default: the operator's own labels, in its order)."""
    targets = tuple(targets) if targets is not None else op.layout.labels
    _check_targets(op, obj.layout, targets)
    val = complex(np.trace(reduced_density(obj, targets).matrix @ op.matrix))
    if op.hermitian and not abs(val.imag) < 1e-10:
        raise InvariantError("Hermitian expectation has an imaginary part", abs(val.imag))
    return val


def pointer_shift(rho_f: StateVector | DensityMatrix,
                  rho_i: StateVector | DensityMatrix,
                  op: Operator,
                  targets: tuple[str, ...] | None = None) -> float:
    """Tr(rho_f M)/Tr(rho_f) - Tr(rho_i M) for a Hermitian pointer observable.

    ``rho_f`` may be sub-normalized (a postselected branch); ``rho_i`` is
    expected to be a normalized reference state.
    """
    if not op.hermitian:
        raise LayoutError("pointer_shift needs a Hermitian observable")
    if isinstance(rho_f, StateVector):  # rho_i goes through expectation as given
        rho_f = DensityMatrix.from_state(rho_f)
    tf = rho_f.trace
    if abs(tf) < DEFAULT_TOL.degenerate_prob:
        raise DegenerateBranchError("pointer_shift on a zero-weight branch", tf)
    val = expectation(rho_f, op, targets) / tf - expectation(rho_i, op, targets)
    if not abs(val.imag) < 1e-10:
        raise InvariantError("pointer shift has an imaginary part", abs(val.imag))
    return float(val.real)
