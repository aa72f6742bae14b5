"""Typed errors raised by the simulator.

Degenerate postselection branches and truncation problems surface as typed
exceptions, never as NaN-filled states.
"""


class OptoweakError(Exception):
    """Base class for all package errors."""


class LayoutError(OptoweakError):
    """An input does not fit the call: an array with the wrong shape, a
    density matrix that is not Hermitian, a parameter out of its range, ..."""


class TruncationError(OptoweakError):
    """Norm lost past a Fock cutoff exceeds the allowed tolerance."""

    def __init__(self, message: str, leakage: float):
        super().__init__(f"{message} (leakage={leakage:.3e})")
        self.leakage = leakage


class DegenerateBranchError(OptoweakError):
    """A postselection branch has (numerically) zero probability."""

    def __init__(self, message: str, probability: float = 0.0):
        super().__init__(f"{message} (probability={probability:.3e})")
        self.probability = probability


class ConvergenceError(OptoweakError):
    """An iterative scheme (e.g. a truncated series) failed its check."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


class InvariantError(OptoweakError):
    """A physics invariant failed numerically (e.g. the weak value of a real
    drive with an imaginary part)."""

    def __init__(self, message: str, deviation: float):
        super().__init__(f"{message} (deviation={deviation:.3e})")
        self.deviation = deviation


class ConfigError(OptoweakError):
    """A sweep/CLI configuration is invalid."""
