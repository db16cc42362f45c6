"""Exception types shared across the package."""


class HelmstabError(Exception):
    """Base class for all package-specific failures."""


class NumericalFailureError(HelmstabError):
    """A numerical kernel (factorization, eigensolver, residual check) failed.

    Carries a ``diagnostics`` dict with whatever the failing kernel can report
    (residual norms, iteration counts, converged subspace sizes).
    """

    def __init__(self, message, diagnostics=None):
        self.diagnostics = dict(diagnostics or {})
        if self.diagnostics:
            detail = ", ".join(f"{k}={v}" for k, v in self.diagnostics.items())
            message = f"{message} ({detail})"
        super().__init__(message)


class WindowViolationError(HelmstabError):
    """omega^2 lies outside every admissible frequency window."""


class DegenerateInputError(HelmstabError, ValueError):
    """Inputs make the requested quantity undefined (e.g. identical models)."""


class IllConditionedEstimateError(HelmstabError):
    """The data difference is too small relative to the model difference."""
