"""Truncated Fock-space simulator and analytics for postselected weak
measurement of a single photon's radiation-pressure kick in a driven
interferometer with a movable mirror."""

from .analytics import (alpha2_for_probability, p_success, p_success_wva,
                        q_click, q_click_smallk, q_diff, q_diff_argmax,
                        q_no_postselection, q_noclick, q_wva, regime,
                        snr_click, weak_value, weak_value_one_photon)
from .dissipation import LindbladParams, damped_protocol, evolve_master, lindblad_rhs
from .dynamics import (EvolutionParams, dense_propagator, evolution_params,
                       factored_propagate, weak_approx_propagate)
from .errors import (ConfigError, ConvergenceError, DegenerateBranchError,
                     InvariantError, LayoutError, OptoweakError,
                     TruncationError)
from .fock import annihilation, coherent_state, poisson_tail, position
from .interferometer import (ProtocolOutcome, ProtocolParams,
                             default_optical_cutoff, run_protocol,
                             weak_value_numeric)
from .tolerances import DEFAULT_TOL, Tolerances

__version__ = "0.1.0"
