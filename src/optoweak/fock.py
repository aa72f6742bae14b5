"""Truncated Fock-space algebra on plain numpy arrays.

A joint ket is an array with one axis per mode, of length cutoff + 1, and a
density matrix has those axes twice, ket axes first.  The engines' modes are
(arm a, mirror m), so an (a, m) ket has shape (da, dm) and its density matrix
(da, dm, da, dm): the mirror index varies fastest, and ``reshape`` gives
the flat C-ordered vectors and matrices.

Everything here is pure: the cached tables are read-only.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DegenerateBranchError, LayoutError, TruncationError
from .tolerances import DEFAULT_TOL


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


def _hermitian(m: np.ndarray, atol: float) -> bool:
    """max |m - m^H| < atol, in row blocks of 2^16 entries: a few rows, not a matrix."""
    step = max(1, (1 << 16) // len(m))
    for r in range(0, len(m), step):
        if not np.abs(m[r:r + step] - m[:, r:r + step].conj().T).max() < atol:
            return False
    return True


# ---------------------------------------------------------------------------
# state and operator constructors

def coherent_state(alpha: complex, cutoff: int,
                   leakage_tol: float | None = None) -> np.ndarray:
    """Truncated coherent state as read-only amplitudes e^{-|a|^2/2} a^n / sqrt(n!).

    Raises :class:`TruncationError` when the Poisson tail past the cutoff,
    ``poisson_tail(|alpha|^2, cutoff)``, exceeds ``leakage_tol`` (default
    ``Tolerances.coherent_leakage``).
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
    amps.setflags(write=False)
    return amps


def _unit(x: np.ndarray) -> np.ndarray:
    """``x`` over its norm, taken over all its axes at once."""
    n = float(np.linalg.norm(x))
    if n < DEFAULT_TOL.degenerate_prob:
        raise DegenerateBranchError("cannot normalize a zero state", n)
    return x / n


def annihilation(cutoff: int) -> np.ndarray:
    """a |n> = sqrt(n) |n-1> on a single truncated mode, as a complex matrix."""
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), k=1).astype(complex)


def position(cutoff: int, sigma: float = 1.0) -> np.ndarray:
    """q = sigma (c + c^dag); sigma is the zero-point spread (1 = sigma units)."""
    return sigma * _moment_table(cutoff)[0]


@functools.lru_cache(maxsize=8)
def _moment_table(cutoff: int) -> np.ndarray:
    """The real, symmetric matrices of q = c + c^dag (:func:`position` in
    sigma units) and q^2, stacked, built once per cutoff and kept read-only;
    Tr(rho q) is the elementwise sum of Re(rho) q."""
    c = annihilation(cutoff).real
    # the truncated q^2 in closed form, pentadiagonal: 2n + 1 on the diagonal
    # but N at the top level n = N, and sqrt((n + 1)(n + 2)) two off it
    q2 = np.diag(2.0 * np.arange(cutoff + 1) + 1.0)
    q2[-1, -1] = cutoff
    i = np.arange(cutoff - 1)
    q2[i, i + 2] = q2[i + 2, i] = np.sqrt((i + 1.0) * (i + 2.0))
    qs = np.stack((c + c.T, q2))
    qs.setflags(write=False)
    return qs


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
