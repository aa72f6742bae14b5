"""Central numerical tolerance record.

Every hard-coded tolerance used by the library lives here so that tests and
the verification driver agree on one set of defaults.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # state / operator algebra
    unitary_atol: float = 1e-9        # oracle.py only: max |V^T V - I| of q's eigenvectors
    coherent_leakage: float = 1e-10   # default allowed coherent-state leakage
    degenerate_prob: float = 1e-300   # below this a branch is degenerate
    # density matrices
    density_hermitian_atol: float = 1e-10
    # propagators
    dense_dim_cap: int = 4096         # dense cross-checks; squared, caps exact-engine arrays
    propagate_leakage: float = 1e-9   # mirror tail allowed in the engines and factored_propagate
    series_term_rtol: float = 1e-14   # oracle.py only: Taylor series convergence cut
    series_max_terms: int = 200       # oracle.py only
    # parameter-regime warnings
    weak_disp_warn: float = 0.1       # oracle.py only: warn when |phi| exceeds this in the weak op
    small_param_warn: float = 0.1     # warn when |alpha|^2 delta^2 exceeds this
    displacement_warn_ratio: float = 0.25  # oracle.py only: warn when |beta|^2 > ratio * cutoff


DEFAULT_TOL = Tolerances()
