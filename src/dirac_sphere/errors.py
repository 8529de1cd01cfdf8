"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
construction/physics errors exit 2, strict verification failures exit 3.
"""


class DiracSphereError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiracSphereError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class IntegrationError(DiracSphereError, RuntimeError):
    """A quadrature did not converge within its budget.

    Raised by the adaptive panel quadrature when its panel budget runs out,
    and by the Gauss-Jacobi norm rules when the next rule would pass the node
    cap before two successive rules agree.  Norm divergence is decided
    analytically before any quadrature, so this error means "not resolved",
    never "divergent".  Carries the last estimate, its error estimate, and
    the panel or node count reached.
    """

    def __init__(self, message, value, error_estimate, panels):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.panels = panels


class PoleError(DiracSphereError, ValueError):
    """Evaluation requested at (or across) a pole of a rational profile."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConstraintError(DiracSphereError, ValueError):
    """Parameters do not satisfy the constraint equations of a closed form."""


class DegenerateParametersError(DiracSphereError, ValueError):
    """a1**2 == a2**2 (equivalently alpha*beta == 0): denominators vanish."""


class InvalidBranchError(DiracSphereError, ValueError):
    """A sign branch yields parameters outside the admissible range."""


class ComplexExponentError(DiracSphereError, ValueError):
    """C1 >= 1/2: the closed-form exponents leave the real axis."""


class SingularPotentialError(DiracSphereError, ValueError):
    """A potential has a pole inside the discretization window."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigError(DiracSphereError, ValueError):
    """Run configuration is malformed (unknown key, missing field, bad value)."""
