"""Exception types shared across the package."""

from __future__ import annotations


class InadmissibleParamsError(ValueError):
    """Parameters fail the local-integrability (admissibility) conditions."""


class UnsupportedRegimeError(ValueError):
    """No closed-form constant (or no sharpness family) exists for these parameters."""


class SingularPointError(ValueError):
    """Weight evaluation requested inside the singular-set guard zone."""


class SingularParamsError(ValueError):
    """A reduced integrand exponent fell to -1 or below; the integral diverges."""


class SupportViolationError(ValueError):
    """A test function's support intersects the singular-set guard zone."""


class EmptyInputError(ValueError):
    """An operation received an empty collection where at least one item is required."""


class NotConvergedError(ArithmeticError):
    """Quadrature did not meet its tolerance; carries the best value attained."""

    def __init__(self, message: str, value: float = float("nan"),
                 err_estimate: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.err_estimate = err_estimate


class IllConditionedError(ArithmeticError):
    """Richardson halving disagreed beyond tolerance; the stencil is unreliable here."""

    def __init__(self, message: str, value: float = float("nan"),
                 disagreement: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.disagreement = disagreement


class OptimizerStalledError(ArithmeticError):
    """Constrained refinement lost value relative to the grid phase."""


class FitUnstableError(ArithmeticError):
    """Extrapolation fit residual exceeded 5% of the fitted constant."""

    def __init__(self, message: str, value: float = float("nan"),
                 residual: float = float("inf")):
        super().__init__(message)
        self.value = value
        self.residual = residual


class NegativeRemainderError(ArithmeticError):
    """The Picone-type remainder fell below -1e-12 times the size of its terms;
    indicates a bug, not a math case."""
