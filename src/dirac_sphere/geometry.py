"""Sphere chart in isothermal coordinates.

The sphere of radius R is parametrized by (u, v) with |v| < pi/2; the
isothermal longitude keeps u and maps v to w with cosh(w) = sec(v), which
brings the metric to conformal form with factor R*sech(w).  All coordinates
are dimensionless; R carries the length unit.
"""
import math

import numpy as np

from .errors import DomainError
from .specfun import _elementwise, _scalar_or_array

__all__ = ["SphereChart", "w_from_v", "v_from_w", "conformal_factor"]


@_elementwise
def w_from_v(v):
    """Isothermal coordinate w = log(tan v + sec v) = asinh(tan v), |v| < pi/2.

    The asinh form is used throughout: it is the same function, without the
    cancellation of log(tan v + sec v) near the poles.
    """
    if np.any(np.abs(v) >= math.pi / 2):
        raise DomainError("chart excludes the poles: need |v| < pi/2")
    return np.arcsinh(np.tan(v))


@_elementwise
def v_from_w(w):
    """Inverse map: the v with cosh(w) = sec(v) and sign(v) = sign(w)."""
    return np.arcsin(np.tanh(w))


class SphereChart:
    """Sphere of radius R > 0; energies scale as 1/R."""

    __slots__ = ("R",)

    def __init__(self, R: float):
        if not R > 0:
            raise DomainError(f"sphere radius must be positive, got {R}")
        self.R = R


def conformal_factor(chart, w):
    """Conformal factor R*sech(w): positive, even, decreasing in |w|."""
    return _scalar_or_array(chart.R / np.cosh(np.asarray(w, dtype=float)))
