"""Exception hierarchy shared by all engines."""


class PolgeoError(Exception):
    pass


class DimensionError(PolgeoError):
    """Matrix shapes do not conform."""


class SingularMatrixError(PolgeoError):
    """Pivot fell below the floor during elimination."""


class ContractError(PolgeoError):
    """A caller-side precondition was violated (non-symmetric input, bad mask, ...)."""


class InfeasibleError(PolgeoError):
    """Cost/gradient evaluation at a non-stabilizing policy."""


class NotSchurStableError(InfeasibleError):
    """Lyapunov solve requested for a matrix with spectral radius >= 1."""


class StalledError(PolgeoError):
    """Descent driver exhausted its backtracking budget."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class InternalInvariantError(PolgeoError):
    """A certified guarantee failed post-verification. Must never fire."""


class GramianSingularError(ContractError):
    """Closed-loop Gramian is not positive definite (policy not minimal)."""


class MinimalityLostError(PolgeoError):
    """KM Gram system became singular along descent."""


class BoundaryError(PolgeoError):
    """Zeroth-order sampling could not find feasible perturbations."""


class ConfigError(PolgeoError):
    """Experiment config failed validation; carries all violations."""

    def __init__(self, violations):
        super().__init__("; ".join(violations))
        self.violations = list(violations)
