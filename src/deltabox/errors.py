"""Exception hierarchy shared by all deltabox modules.

The CLI maps these onto exit codes: configuration/input problems -> 1,
solver failures -> 2, file I/O -> 3.
"""


class DeltaBoxError(Exception):
    """Base class for all deltabox errors."""


class InputError(DeltaBoxError, ValueError):
    """Invalid argument, configuration value, or incompatible input data."""


class DomainError(InputError):
    """A spatial coordinate lies outside the box [-pi, pi]."""


class AliasingError(InputError):
    """Quadrature resolution too low for the requested mode truncation."""


class UnsupportedHorizonError(InputError):
    """Control horizon is not a positive integer multiple of 8*pi."""


class DomainCompatibilityError(InputError):
    """Initial state violates the charge boundary relation -q = alpha*psi(0)."""


class SolverError(DeltaBoxError):
    """Numerical solve failed."""


class SingularityError(SolverError, ArithmeticError):
    """Evaluation at a resolvent pole or a singular coupling configuration."""


class StepSingularityError(SingularityError):
    """The per-step denominator d_n of the charge march vanished at node n."""

    def __init__(self, n: int, t: float, abs_d: float, phi: complex):
        self.n = n
        self.t = t
        self.abs_d = abs_d
        self.phi = phi
        super().__init__(
            f"singular charge step at node n={n}, t={t!r}: |d_n|={abs_d:.3e}, phi_n={phi!r}")
