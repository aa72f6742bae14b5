"""Open-system protocol with mechanical damping.

The a-m segment evolves as a density matrix under the damped master
equation.  Arm-a photon number commutes with the Hamiltonian and with the
mirror-only dissipator, so every (n, n') block of rho_am evolves on its own
and is propagated exactly by one matrix exponential of its own generator.
Recombination uses the unitary engine's kernel and both engines build the
same outcome record; only the damped state is contracted as a density matrix.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import EvolutionParams, _mirror_tail
from .errors import LayoutError
from .fock import DensityMatrix, ModeLayout, annihilation
from .interferometer import (ProtocolOutcome, ProtocolParams, _arm_b, _drive,
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


def _hamiltonian(layout: ModeLayout, params: EvolutionParams,
                 coupled: str, mirror: str) -> np.ndarray:
    """H = r n_a + c^dag c - k n_a (c + c^dag) on (coupled, mirror)."""
    da = layout.dim_of(coupled)
    dm = layout.dim_of(mirror)
    if layout.labels != (coupled, mirror):
        raise LayoutError(f"expected layout ({coupled}, {mirror}), got {layout.labels}")
    c = annihilation(layout.cutoff(mirror), mirror).matrix
    na = np.diag(np.arange(da, dtype=float)).astype(complex)
    h = np.kron(np.eye(da), c.conj().T @ c) - params.k * np.kron(na, c + c.conj().T)
    if params.include_r_phase and params.r != 0.0:
        h = h + params.r * np.kron(na, np.eye(dm))
    return h


def lindblad_rhs(rho: DensityMatrix, params: LindbladParams,
                 coupled: str = "a", mirror: str = "m") -> np.ndarray:
    """-i[H, rho] + (gamma/2)(2 c rho c^dag - c^dag c rho - rho c^dag c).

    Returns the derivative as a plain matrix (it is traceless and Hermitian,
    not a density matrix).
    """
    h = _hamiltonian(rho.layout, params.base, coupled, mirror)
    c = np.kron(np.eye(rho.layout.dim_of(coupled)),
                annihilation(rho.layout.cutoff(mirror), mirror).matrix)
    r = rho.matrix
    out = -1j * (h @ r - r @ h)
    if params.gamma != 0.0:
        cd = c.conj().T
        cdc = cd @ c
        out = out + (params.gamma / 2.0) * (2.0 * c @ r @ cd - cdc @ r - r @ cdc)
    return out


def evolve_master(rho0: DensityMatrix, params: LindbladParams, total_time: float,
                  coupled: str = "a", mirror: str = "m") -> DensityMatrix:
    """Exact evolution under the damped master equation, block by block.

    The (n, n') block R of rho obeys
    dR/dt = -i(H_n R - R H_n') + (gamma/2)(2 c R c^dag - c^dag c R - R c^dag c)
    with H_n = c^dag c - k n (c + c^dag), plus r n with the optical phase on.
    Each block with n <= n' is propagated by expm of its dm^2 x dm^2
    generator; the others follow from R_n'n = R_nn'^dag.
    """
    from scipy.linalg import expm  # deferred: `import optoweak` stays light

    if total_time < 0:
        raise LayoutError("total_time must be >= 0")
    if total_time == 0:
        return rho0
    layout = rho0.layout
    if layout.labels != (coupled, mirror):
        raise LayoutError(f"expected layout ({coupled}, {mirror}), got {layout.labels}")
    da, dm = layout.dim_of(coupled), layout.dim_of(mirror)
    base = params.base
    r = base.r if base.include_r_phase else 0.0
    c = annihilation(layout.cutoff(mirror), mirror).matrix
    num, eye = c.T @ c, np.eye(dm)
    # row-major vectorization: vec(A R B) = (A kron B^T) vec(R); c and drive
    # are real, drive symmetric.  H_n = num + n drive, so the generator is
    # affine in (n, n'): gen = g0 + n g_n + n' g_n'.
    drive = -base.k * (c + c.T) + r * eye
    g0 = (-1j * (np.kron(num, eye) - np.kron(eye, num))
          + (params.gamma / 2.0) * (2.0 * np.kron(c, c) - np.kron(num, eye)
                                    - np.kron(eye, num)))
    g_n = -1j * np.kron(drive, eye)
    g_n2 = 1j * np.kron(eye, drive)
    blocks = rho0.matrix.reshape(da, dm, da, dm).transpose(0, 2, 1, 3)
    out = np.empty_like(blocks)
    for n in range(da):
        row = g0 + n * g_n
        for n2 in range(n, da):
            gen = row + n2 * g_n2
            out[n, n2] = (expm(total_time * gen) @ blocks[n, n2].reshape(-1)).reshape(dm, dm)
            out[n2, n] = out[n, n2].conj().T
    final = out.transpose(0, 2, 1, 3).reshape(da * dm, da * dm)
    return DensityMatrix(layout, (final + final.conj().T) / 2)


@functools.lru_cache(maxsize=1)
def _evolved_rho(drive: ProtocolParams, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The delta-free front half of :func:`damped_protocol`: the evolved
    (a, m) density matrix as a (da, dm, da, dm) array and arm b's
    amplitudes, for a :func:`optoweak.interferometer._drive` key and gamma.

    A miss runs the preselection leakage and mirror-tail checks; the cache
    keeps no exception, so a failing key raises on every call.  One entry:
    a density matrix can reach the feasibility guard's 256 MiB cap, and a
    damped delta scan needs only the last one.  The arrays are read-only
    (:class:`DensityMatrix` and :class:`optoweak.fock.StateVector` freeze
    theirs), because every caller shares them.
    """
    psi = _preselect_am(drive)
    _mirror_tail(drive.evolution, (np.abs(psi.grid) ** 2).sum(axis=1),
                 drive.mirror_cutoff)
    rho = evolve_master(DensityMatrix.from_state(psi),
                        LindbladParams(gamma=gamma, base=drive.evolution),
                        drive.evolution.wm_t)
    return rho.matrix.reshape(psi.layout.shape * 2), _arm_b(drive)


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
