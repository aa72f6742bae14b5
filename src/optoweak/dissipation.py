"""Open-system protocol with mechanical damping.

The a-m segment evolves as a density matrix under the damped master
equation.  Arm-a photon number commutes with the Hamiltonian and with the
mirror-only dissipator, so every (n, n') block of rho_am evolves on its own
and is propagated exactly by the matrix exponential of its own generator.
Recombination uses the unitary engine's kernel and both engines build the
same outcome record; only the damped state is contracted as a density matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolutionParams
from .errors import LayoutError
from .fock import _hermitian, annihilation
from .interferometer import (ProtocolOutcome, ProtocolParams, _arm, _drive, _outcomes,
                             _recombined, _within_cap)
from .tolerances import DEFAULT_TOL


@dataclass(frozen=True)
class LindbladParams:
    """Dimensionless damping rate plus the coherent dynamics.

    ``gamma`` is the mechanical damping over the mechanical frequency; time
    is measured in inverse mechanical frequencies.
    """

    gamma: float
    base: EvolutionParams

    def __post_init__(self):
        if not 0 <= self.gamma < math.inf:  # chained, so that NaN fails it too
            raise LayoutError(f"gamma must be finite and >= 0, got {self.gamma!r}")


def _density_matrix(rho: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(da, dm) and the (da dm, da dm) matrix of an (a, m) density matrix
    ``rho`` of shape (da, dm, da, dm); raises :class:`LayoutError` on another
    shape or when rho is not Hermitian within ``density_hermitian_atol``."""
    shape = np.shape(rho)
    if len(shape) != 4 or shape[:2] != shape[2:] or 0 in shape:
        raise LayoutError(f"expected an (a, m) density matrix, got shape {shape}")
    (da, dm), n = shape[:2], shape[0] * shape[1]
    r = np.asarray(rho, dtype=complex).reshape(n, n)
    if not _hermitian(r, DEFAULT_TOL.density_hermitian_atol):
        raise LayoutError("density matrix is not Hermitian within tolerance")
    return da, dm, r


# Pade [13/13] coefficients b_0 .. b_13 of exp (Higham, SIAM J. Matrix Anal.
# Appl. 26, 1179 (2005))
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
# largest 1-norm the [13/13] approximant takes unscaled (Al-Mohy and Higham,
# SIAM J. Matrix Anal. Appl. 31, 970 (2009)); scipy.linalg.expm uses it too
_THETA13 = 4.25
# generator-sized arrays that evolve_master holds at once while _expm runs on
# a one-block chunk: 12.2-12.4 measured by tracemalloc at mirror cutoff 15
_EXPM_WORKSPACE = 13


def _expm(a: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """exp(a) @ vec for stacks ``a`` of shape (k, n, n) and ``vec`` of shape
    (k, n, m).

    Pade [13/13] with scaling and squaring: each matrix is scaled by 2^-s,
    s = ceil(log2(max(|A|_1, theta13) / theta13)), and its approximant R
    raised to the power 2^s.  The last t of the s squarings become 2^t
    products of R with ``vec``: t is the smallest s in the stack, capped so
    that 2^t <= n and the products cost no more than one squaring.
    """
    norm = np.abs(a).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm, _THETA13) / _THETA13)).astype(int)
    a = a * np.ldexp(1.0, -s)[:, None, None]
    n = a.shape[-1]
    b, eye = _PADE13, np.eye(n)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    del a2, a4, a6  # three arrays of a's size, freed before the solve
    r = np.linalg.solve(v - u, v + u)
    t = min(s.min(), n.bit_length() - 1)
    for j in range(t, s.max()):
        sq = s > j
        r[sq] = r[sq] @ r[sq]
    for _ in range(2 ** t):
        vec = r @ vec
    return vec


def evolve_master(rho0: np.ndarray, params: LindbladParams,
                  total_time: float) -> np.ndarray:
    """Exact evolution of an (a, m) density matrix ``rho0`` of shape
    (da, dm, da, dm) under the damped master equation, block by block
    (:func:`_evolve_blocks`); returns a new array of that shape."""
    if not 0 <= total_time < math.inf:
        raise LayoutError(f"total_time must be finite and >= 0, got {total_time!r}")
    da, dm, r = _density_matrix(rho0)
    if total_time == 0:
        return np.array(rho0, dtype=complex)
    rows, cols = np.triu_indices(da)
    out = _evolve_blocks(r.reshape(da, dm, da, dm)[rows, :, cols], da, params, total_time)
    return out.transpose(0, 2, 1, 3)


def _evolve_blocks(upper: np.ndarray, da: int, params: LindbladParams,
                   total_time: float) -> np.ndarray:
    """Evolve ``upper``, the blocks R_nn' of rho with n <= n' in
    ``np.triu_indices(da)`` order (it may be overwritten), and return every
    block in one (da, da, dm, dm) array.  R obeys
    dR/dt = -i(H_n R - R H_n') + (gamma/2)(2 c R c^dag - c^dag c R - R c^dag c)
    with H_n = c^dag c - k n (c + c^dag), and is propagated by :func:`_expm` of
    its dm^2 x dm^2 generator, in stacks of about 1 MiB of generators.  The
    others follow from R_n'n = R_nn'^dag, so only the diagonal blocks are made
    Hermitian, after a check against the density matrix's tolerance.
    """
    dm = upper.shape[-1]
    c = annihilation(dm - 1)
    num, eye = c.T @ c, np.eye(dm)
    # row-major vectorization: vec(A R B) = (A kron B^T) vec(R); c and drive
    # are real, drive symmetric.  H_n = num + n drive, so the generator is
    # affine in (n, n'): gen = g0 + n g_n + n' g_n'.
    drive = -params.base.k * (c + c.T)
    g0 = (-1j * (np.kron(num, eye) - np.kron(eye, num))
          + (params.gamma / 2.0) * (2.0 * np.kron(c, c) - np.kron(num, eye)
                                    - np.kron(eye, num)))
    g_n = -1j * np.kron(drive, eye)
    g_n2 = 1j * np.kron(eye, drive)
    rows, cols = np.triu_indices(da)
    vecs = upper.reshape(-1, dm * dm, 1)
    step = max(1, 2 ** 16 // dm ** 4)
    for lo in range(0, len(rows) if total_time else 0, step):  # t = 0 keeps them
        n = rows[lo:lo + step, None, None]
        n2 = cols[lo:lo + step, None, None]
        gen = total_time * (g0 + n * g_n + n2 * g_n2)
        vecs[lo:lo + step] = _expm(gen, vecs[lo:lo + step])
    out = np.empty((da, da, dm, dm), dtype=complex)
    out[rows, cols] = vecs.reshape(-1, dm, dm)
    out[cols, rows] = vecs.reshape(-1, dm, dm).conj().transpose(0, 2, 1)
    diag = out[range(da), range(da)]
    herm = diag.conj().transpose(0, 2, 1)
    if np.abs(diag - herm).max() >= DEFAULT_TOL.density_hermitian_atol:
        raise LayoutError("density matrix is not Hermitian within tolerance")
    out[range(da), range(da)] = (diag + herm) / 2
    return out


def _damped_arm(drive: ProtocolParams) -> np.ndarray:
    """:func:`optoweak.interferometer._arm` for the damped engine, after its
    own checks, before any array is built: the (a, m) density matrix and the
    working set of one block's exponential, _EXPM_WORKSPACE generators of
    dm^4 entries, must fit the dense cap."""
    d, dm = drive.n_opt + 1, drive.mirror_cutoff + 1
    _within_cap("(a, m) density matrix", (d * dm) ** 2)
    _within_cap("block exponential's working set", _EXPM_WORKSPACE * dm ** 4)
    return _arm(drive)


@functools.lru_cache(maxsize=1)
def _evolved_rho(drive: ProtocolParams, gamma: float
                 ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The delta-free front half of :func:`damped_protocol`, for a
    :func:`optoweak.interferometer._drive` key and gamma: the evolved (a, m)
    density matrix as one (d^2, dm^2) array in (n n', m m') order, the
    contraction order of :func:`_damped_scan`, its
    partial trace rho_a over the mirror, rho_a's trace and arm b's amplitudes.

    A miss runs :func:`_damped_arm`'s checks; the cache keeps no exception,
    so a failing key raises on every call.  One entry holding one (d dm)^2
    array: a density matrix can reach the 256 MiB cap, and a damped delta
    scan needs only the last one.  The arrays are read-only, because every
    caller shares them.
    """
    params = LindbladParams(gamma, drive.evolution)
    beta = _damped_arm(drive)
    d, dm = len(beta), drive.mirror_cutoff + 1
    rows, cols = np.triu_indices(d)
    upper = np.zeros((len(rows), dm, dm), dtype=complex)
    upper[:, 0, 0] = beta[rows] * beta[cols].conj()  # the mirror starts in vacuum
    rho = _evolve_blocks(upper, d, params, drive.evolution.wm_t)
    rho_a = functools.reduce(np.add, (rho[:, :, m, m] for m in range(dm)))  # summed over m in order
    pairs = rho.reshape(d * d, dm * dm)
    for arr in (pairs, rho_a, beta):
        arr.setflags(write=False)
    return pairs, rho_a, float(np.trace(rho_a).real), beta


def _damped_scan(drive: ProtocolParams, deltas, gamma: float) -> Iterator[ProtocolOutcome]:
    """:func:`damped_protocol` at ``drive`` (its delta unread), ``gamma``
    and each of ``deltas``, yielded in order: on first use one stage lookup
    (:func:`_evolved_rho`), then per slice of deltas the mixed-state route of
    recombination, dark-port postselection and mirror statistics.  With W
    from :func:`optoweak.interferometer._bs_kernel` the dark-port outcome j
    leaves the mirror in sum_{n n'} M_j[n, n'] rho[n n', :],
    M_j[n, n'] = sum_c W[j, c, n] W*[j, c, n'], with probability
    Tr(M_j rho_a).  The bright port is never conditioned, which equals
    tracing it out."""
    rho, rho_a, trace, beta = _evolved_rho(_drive(drive), gamma)
    dm = drive.mirror_cutoff + 1
    for w in _recombined(deltas, beta, dm):
        m = w.transpose(0, 1, 3, 2) @ w.conj()  # M_j[n, n'], as a BLAS batch
        rho_m = (m.reshape(len(w), 2, -1) @ rho).reshape(-1, 2, dm, dm)
        probs = np.einsum("tjnk,nk->tj", m, rho_a).real
        yield from _outcomes(rho_m, probs, trace)


def damped_protocol(params: ProtocolParams, gamma: float) -> ProtocolOutcome:
    """The interferometer pipeline with the a-m segment damped (a one-delta
    :func:`_damped_scan`).

    Recombination, the mirror-tail check and the outcome record are those of
    :func:`optoweak.interferometer.run_protocol`; postselection contracts the
    mixed state.  The evolved density matrix does not depend on delta and
    comes from the stage :func:`_evolved_rho`, once per drive, cutoffs and
    gamma.
    """
    return next(_damped_scan(params, [params.delta], gamma))
