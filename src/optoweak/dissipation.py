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
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolutionParams, _mirror_tail, _require_am
from .errors import LayoutError
from .fock import DensityMatrix, ModeLayout, annihilation
from .interferometer import (ProtocolOutcome, ProtocolParams, _arm, _drive,
                             _postselect, _preselect_am)


@dataclass(frozen=True)
class LindbladParams:
    """Dimensionless damping rate plus the coherent dynamics.

    ``gamma`` is the mechanical damping over the mechanical frequency; time
    is measured in inverse mechanical frequencies.
    """

    gamma: float
    base: EvolutionParams

    def __post_init__(self):
        if self.gamma < 0:
            raise LayoutError("gamma must be >= 0")


def _hamiltonian(layout: ModeLayout, params: EvolutionParams) -> np.ndarray:
    """H = c^dag c - k n_a (c + c^dag) on (a, m)."""
    _require_am(layout)
    da = layout.dim_of("a")
    c = annihilation(layout.cutoff("m")).matrix
    na = np.diag(np.arange(da, dtype=float)).astype(complex)
    return np.kron(np.eye(da), c.conj().T @ c) - params.k * np.kron(na, c + c.conj().T)


def lindblad_rhs(rho: DensityMatrix, params: LindbladParams) -> np.ndarray:
    """-i[H, rho] + (gamma/2)(2 c rho c^dag - c^dag c rho - rho c^dag c).

    Returns the derivative as a plain matrix (it is traceless and Hermitian,
    not a density matrix).
    """
    h = _hamiltonian(rho.layout, params.base)
    c = np.kron(np.eye(rho.layout.dim_of("a")),
                annihilation(rho.layout.cutoff("m")).matrix)
    r = rho.matrix
    out = -1j * (h @ r - r @ h)
    if params.gamma != 0.0:
        cd = c.conj().T
        cdc = cd @ c
        out = out + (params.gamma / 2.0) * (2.0 * c @ r @ cd - cdc @ r - r @ cdc)
    return out


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


def evolve_master(rho0: DensityMatrix, params: LindbladParams,
                  total_time: float) -> DensityMatrix:
    """Exact evolution under the damped master equation, block by block.

    The (n, n') block R of rho obeys
    dR/dt = -i(H_n R - R H_n') + (gamma/2)(2 c R c^dag - c^dag c R - R c^dag c)
    with H_n = c^dag c - k n (c + c^dag).
    Each block with n <= n' is propagated by :func:`_expm` of its
    dm^2 x dm^2 generator, stacked in chunks of about 1 MiB of generators;
    the others follow from R_n'n = R_nn'^dag.
    """
    if total_time < 0:
        raise LayoutError("total_time must be >= 0")
    if total_time == 0:
        return rho0
    layout = rho0.layout
    _require_am(layout)
    da, dm = layout.shape
    c = annihilation(dm - 1).matrix
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
    blocks = rho0.matrix.reshape(da, dm, da, dm).transpose(0, 2, 1, 3)
    rows, cols = np.triu_indices(da)
    vecs = blocks[rows, cols].reshape(-1, dm * dm, 1)
    step = max(1, 2 ** 16 // dm ** 4)
    for lo in range(0, len(rows), step):
        n = rows[lo:lo + step, None, None]
        n2 = cols[lo:lo + step, None, None]
        gen = total_time * (g0 + n * g_n + n2 * g_n2)
        vecs[lo:lo + step] = _expm(gen, vecs[lo:lo + step])
    out = np.empty_like(blocks)
    out[rows, cols] = vecs.reshape(-1, dm, dm)
    out[cols, rows] = out[rows, cols].conj().transpose(0, 2, 1)
    final = out.transpose(0, 2, 1, 3).reshape(da * dm, da * dm)
    return DensityMatrix(layout, (final + final.conj().T) / 2)


@functools.lru_cache(maxsize=1)
def _evolved_rho(drive: ProtocolParams, gamma: float
                 ) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The delta-free front half of :func:`damped_protocol`, for a
    :func:`optoweak.interferometer._drive` key and gamma: the evolved (a, m)
    density matrix as one (d^2, dm^2) array in (n n', m m') order, the
    contraction order of :func:`optoweak.interferometer._postselect`, its
    partial trace rho_a over the mirror, rho_a's trace and arm b's amplitudes.

    A miss runs the preselection leakage and mirror-tail checks; the cache
    keeps no exception, so a failing key raises on every call.  One entry
    holding one (d dm)^2 array: a density matrix can reach the feasibility
    guard's 256 MiB cap, and a damped delta scan needs only the last one.
    The arrays are read-only, because every caller shares them.
    """
    psi = _preselect_am(drive)
    _mirror_tail(drive.evolution, (np.abs(psi.grid) ** 2).sum(axis=1),
                 drive.mirror_cutoff)
    rho = evolve_master(DensityMatrix.from_state(psi),
                        LindbladParams(gamma=gamma, base=drive.evolution),
                        drive.evolution.wm_t).matrix.reshape(psi.layout.shape * 2)
    rho_a = np.trace(rho, axis1=1, axis2=3)
    d, dm = psi.layout.shape
    pairs = rho.transpose(0, 2, 1, 3).reshape(d * d, dm * dm)  # a copy
    for arr in (pairs, rho_a):
        arr.setflags(write=False)
    return pairs, rho_a, float(np.trace(rho_a).real), _arm(drive, "b").normalize().amplitudes


def damped_protocol(params: ProtocolParams, gamma: float) -> ProtocolOutcome:
    """The interferometer pipeline with the a-m segment damped.

    Recombination and the outcome record are those of
    :func:`optoweak.interferometer.run_protocol`, mirror-tail check included;
    postselection contracts the mixed state through
    :func:`optoweak.interferometer._postselect`.  The evolved density matrix
    does not depend on delta and comes from the stage :func:`_evolved_rho`,
    so consecutive points of a delta scan at one drive, cutoffs and gamma
    evolve it once.
    """
    return _postselect(params, *_evolved_rho(_drive(params), gamma))
