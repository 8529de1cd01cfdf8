"""Exception types shared across the package, five because five are acted on.

The CLI exits 1 on ConfigError and 2 on any other DiracSphereError (3 is a
strict verification failure).  parse_config turns Grid's DomainError into a
ConfigError; cli._curve_files answers a PoleError with the pole's gap
marker; an IntegrationError carries the unresolved estimate.
"""


class DiracSphereError(Exception):
    """Base class for all package-specific errors."""


class DomainError(DiracSphereError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (parameters off their branch or degenerate, complex exponents)."""


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
    """A pole, or a sample that is not finite, where a finite value is needed."""

    def __init__(self, message, location=None):
        super().__init__(message)
        self.location = location


class ConfigError(DiracSphereError, ValueError):
    """Run configuration is malformed (unknown key, missing field, bad value)."""
