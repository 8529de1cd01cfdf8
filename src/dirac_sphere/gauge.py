"""Gauge profiles A_u(w), effective potentials, and parameter-constraint algebra.

Two hyperbolic gauge-field families are implemented.  Model I is
sech^2 + tanh + const; under four constraint branches its first effective
potential collapses to a hyperbolic Rosen-Morse form.  Model II adds a
rational sech^2*tanh/(a1*tanh - a2) term; under the derived parameter
constraints its first effective potential matches a solvable family whose
bound states carry rational-extension Jacobi polynomials.

Closed forms are transcribed verbatim from their published expressions, so
the oracle can measure (rather than hide) any transcription gaps.  Analytic
derivatives are supplied everywhere; no numerical differentiation is used.
"""
import math
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, PoleError
from .specfun import _elementwise

__all__ = [
    "Model1Params",
    "Model2Params",
    "EffectivePotential",
    "BRANCH_LABELS",
    "model1_branches",
    "a_u_model1",
    "da_u_model1",
    "a_u_model2",
    "da_u_model2",
    "v_eff_general",
    "general_form",
    "v_eff_model1_raw",
    "v_eff_model1",
    "v_eff_model2_raw",
    "v_eff_model2",
    "model2_derive_params",
    "alpha_beta",
    "require_admissible",
    "midya_constants",
    "midya_rhs",
]

# Branch labels -> (C2, C3 - k).  The four families on which the growing
# cosh/sinh terms of the first effective potential cancel.
BRANCH_LABELS = {
    "neg-half": (-0.5, 0.0),
    "half-down": (0.5, -1.0),
    "half-up": (0.5, 1.0),
    "three-half": (1.5, 0.0),
}


def model1_branches(k):
    """The four constrained (C2, C3) pairs for wave number k, in BRANCH_LABELS order.

    Each pair zeroes both constraint polynomials (2*C2 - 1)*(C3 - k) and
    C2^2 - C2 - 3/4 + (C3 - k)^2 exactly.
    """
    return [(c2, k + dc3) for c2, dc3 in BRANCH_LABELS.values()]


class Model1Params:
    """Constants of the sech^2 + tanh + const gauge profile."""

    __slots__ = ("C1", "C2", "C3", "branch")

    def __init__(self, C1: float, C2: float, C3: float, branch: Optional[str] = None):
        self.C1, self.C2, self.C3, self.branch = C1, C2, C3, branch

    @classmethod
    def from_branch(cls, C1, k, branch):
        if branch not in BRANCH_LABELS:
            raise DomainError(f"unknown branch {branch!r}; choose one of {sorted(BRANCH_LABELS)}")
        c2, dc3 = BRANCH_LABELS[branch]
        return cls(C1=C1, C2=c2, C3=k + dc3, branch=branch)

    def constraint_residuals(self, k):
        """Residuals of the two constraint polynomials at wave number k."""
        r1 = (2.0 * self.C2 - 1.0) * (self.C3 - k)
        r2 = self.C2 * self.C2 - self.C2 - 0.75 + (self.C3 - k) ** 2
        return r1, r2

    def is_constrained(self, k):
        """Both constraint residuals within 1e-9 (1 + |k|)."""
        tol = 1e-9 * (1.0 + abs(k))
        r1, r2 = self.constraint_residuals(k)
        return abs(r1) <= tol and abs(r2) <= tol


def a_u_model1(p: Model1Params) -> Callable:
    """Gauge profile C1*sech^2(w) + C2*tanh(w) + C3; asymptotes C3 +- C2."""

    @_elementwise
    def a(w):
        return p.C1 / np.cosh(w) ** 2 + p.C2 * np.tanh(w) + p.C3

    return a


def da_u_model1(p: Model1Params) -> Callable:
    @_elementwise
    def da(w):
        s = 1.0 / np.cosh(w) ** 2
        return -2.0 * p.C1 * s * np.tanh(w) + p.C2 * s

    return da


class Model2Params:
    """Constants of the rational gauge profile, all derived from (C1, a1, a2, k).

    a1 = beta - alpha and a2 = beta + alpha identify the rational-extension
    parameters; the remaining constants follow from the closure relations
    (see model2_derive_params).  The profile has a real pole at
    tanh(w) = a2/a1 whenever |a2/a1| < 1, i.e. whenever alpha*beta < 0;
    poles records it once for every potential of the model.
    """

    __slots__ = ("C1", "a1", "a2", "k", "C2", "C3", "C4", "C5", "C6")

    def __init__(self, C1: float, a1: float, a2: float, k: float):
        if a1 == 0.0:
            raise DomainError("need a1 != 0")
        d = a1 * a1 - a2 * a2
        if d == 0.0 or abs(d) < 1e-14 * (a1 * a1 + a2 * a2):
            raise DomainError(f"need a1^2 != a2^2, got a1={a1}, a2={a2}")
        self.C1, self.a1, self.a2, self.k = C1, a1, a2, k
        self.C2 = -a1 * C1
        self.C3 = -(d - 2.0 * a1 * a2 * k) / (2.0 * d)
        self.C4 = -a2 * a2 * k / d
        self.C5 = -2.0 * a1 * C1 * self.C3
        self.C6 = 2.0 * a1 * a1 * k * C1 / d

    @property
    def alpha(self):
        return (self.a2 - self.a1) / 2.0

    @property
    def beta(self):
        return (self.a2 + self.a1) / 2.0

    @property
    def poles(self):
        """The profile's real poles: (atanh(a2/a1),) when |a2/a1| < 1, else ()."""
        r = self.a2 / self.a1
        return (math.atanh(r),) if abs(r) < 1.0 else ()


def model2_derive_params(C1, a1, a2, k) -> Model2Params:
    """Build Model2Params from the free constants via the closure relations."""
    return Model2Params(C1=C1, a1=a1, a2=a2, k=k)


def require_admissible(alpha, beta):
    """Refuse a Model-II (alpha, beta) pair unless alpha, beta > -1 and
    alpha != beta (DomainError): the one check of a sign branch and of an
    explicit pair alike."""
    if alpha <= -1.0 or beta <= -1.0:
        raise DomainError(f"branch gives alpha={alpha}, beta={beta}; both must exceed -1")
    if alpha == beta:
        raise DomainError(f"branch gives alpha == beta == {alpha}")


def alpha_beta(k, sign_a, sign_b):
    """The (alpha, beta) pair sign_a/(1-k), sign_b/(1+k), refused unless
    admissible (require_admissible).

    Rejects k = +-1 (pole) too.  Signs are the strings '+' or '-'.
    """
    signs = {"+": 1.0, "-": -1.0}
    sa, sb = signs.get(sign_a), signs.get(sign_b)
    if sa is None or sb is None:
        raise DomainError(f"signs must be '+' or '-', got {sign_a!r}, {sign_b!r}")
    if k == 1.0 or k == -1.0:
        raise PoleError(f"k = {k} is a pole of the branch formulas", location=k)
    alpha = sa / (1.0 - k)
    beta = sb / (1.0 + k)
    require_admissible(alpha, beta)
    return alpha, beta


def _pole_factor(p: Model2Params, t):
    """a1*tanh(w) - a2, the denominator of every Model-II rational term;
    PoleError when it vanishes at a sample."""
    q = p.a1 * t - p.a2
    if np.any(q == 0.0):
        raise PoleError(f"Model-II pole at tanh(w) = {p.a2 / p.a1}", location=p.poles[0])
    return q


def a_u_model2(p: Model2Params) -> Callable:
    """Rational gauge profile; raises PoleError when evaluated on its pole."""

    @_elementwise
    def a(w):
        t = np.tanh(w)
        s = 1.0 / np.cosh(w) ** 2
        q = _pole_factor(p, t)
        return p.C1 * s + p.C2 * s * t / q + p.C3 * t + p.C4

    return a


def da_u_model2(p: Model2Params) -> Callable:
    @_elementwise
    def da(w):
        t = np.tanh(w)
        s = 1.0 / np.cosh(w) ** 2
        q = _pole_factor(p, t)
        return (
            -2.0 * p.C1 * s * t
            + p.C2 * (s * (s - 2.0 * t * t) / q - p.a1 * s * s * t / (q * q))
            + p.C3 * s
        )

    return da


class EffectivePotential:
    """Potential of one transformed spinor component, called like its fn,
    which maps w (scalar or array) to the value.  The record stays, rather
    than the bare callable, because callers outside the package read fn;
    a model's real poles belong to its parameters (Model2Params.poles).
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, w):
        return self.fn(w)


def v_eff_general(A, dA, k, j) -> EffectivePotential:
    """Effective potential of component j in the conformally reduced operator.

    ((k - A)^2 + (-1)^j A') cosh^2 w + (-1)^j (A - k) cosh w sinh w
    - (3/4) cosh^2 w + 1/4, with dA the analytic derivative of A.
    """
    if j not in (1, 2):
        raise DomainError(f"component index must be 1 or 2, got {j}")

    @_elementwise
    def v(w):
        ch = np.cosh(w)
        sh = np.sinh(w)
        return general_form(A(w), dA(w), k, j, ch, sh)

    return EffectivePotential(fn=v)


def general_form(a, da, k, j, ch, sh):
    """v_eff_general's value of component j from samples at the same w: a of
    A, da of dA, ch of cosh and sh of sinh; the bits v_eff_general returns."""
    sgn = -1.0 if j == 1 else 1.0
    return ((k - a) ** 2 + sgn * da) * ch * ch + sgn * (a - k) * ch * sh - 0.75 * ch * ch + 0.25


def v_eff_model1_raw(p: Model1Params, k) -> EffectivePotential:
    """Verbatim expanded form of the first Model-I effective potential.

    Valid for unconstrained parameters; grows like cosh^2 unless the
    constraint branches are imposed.
    """

    @_elementwise
    def v(w):
        ch = np.cosh(w)
        sh = np.sinh(w)
        t = np.tanh(w)
        s = 1.0 / (ch * ch)
        return (
            -p.C2
            + 2.0 * p.C1 * p.C3
            - 2.0 * p.C1 * k
            + ((p.C3 - k) ** 2 - 0.5) * ch * ch
            + p.C1 * p.C1 * s
            + (-p.C3 + 2.0 * p.C2 * p.C3 + k - 2.0 * p.C2 * k) * ch * sh
            + (p.C2 * p.C2 - p.C2 - 0.25) * sh * sh
            + p.C1 * (1.0 + 2.0 * p.C2) * t
        )

    return EffectivePotential(fn=v)


def _require_constrained(p: Model1Params, k):
    """DomainError unless p is on a constraint branch at k, the one its label names."""
    if not p.is_constrained(k):
        r1, r2 = p.constraint_residuals(k)
        raise DomainError(
            f"parameters violate the constraint branch at k={k}: residuals ({r1}, {r2})"
        )
    c2, dc3 = BRANCH_LABELS.get(p.branch, (math.nan, math.nan))
    tol = 1e-9 * (1.0 + abs(k))
    if p.branch is not None and not (abs(p.C2 - c2) <= tol and abs(p.C3 - k - dc3) <= tol):
        raise DomainError(f"parameters at k={k} are not on the {p.branch!r} branch")


def v_eff_model1(p: Model1Params, k, j) -> EffectivePotential:
    """Constrained Model-I closed forms: hyperbolic Rosen-Morse (j=1) and its partner (j=2)."""
    _require_constrained(p, k)
    if j == 1:
        const = (p.C2 - 0.5) ** 2 + 2.0 * p.C1 * (p.C3 - k) - 0.5
        slope = p.C1 * (1.0 + 2.0 * p.C2)

        @_elementwise
        def v1(w):
            return p.C1 * p.C1 / np.cosh(w) ** 2 + slope * np.tanh(w) + const

        return EffectivePotential(fn=v1)
    if j == 2:

        @_elementwise
        def v2(w):
            ch = np.cosh(w)
            sh = np.sinh(w)
            return (
                p.C1 * p.C1 / (ch * ch)
                + p.C1 * (-1.0 + 2.0 * p.C2) * np.tanh(w)
                + 2.0 * p.C2 * ch * ch
                + 2.0 * (p.C3 - k) * ch * sh
                + (p.C2 + 0.5) ** 2
                - 2.0 * p.C1 * (p.C3 - k)
                - 0.5
            )

        return EffectivePotential(fn=v2)
    raise DomainError(f"component index must be 1 or 2, got {j}")


def v_eff_model2_raw(p: Model2Params) -> EffectivePotential:
    """Verbatim expanded form of the first Model-II effective potential."""
    k = p.k

    @_elementwise
    def v(w):
        ch = np.cosh(w)
        sh = np.sinh(w)
        t = np.tanh(w)
        s = 1.0 / (ch * ch)
        q = _pole_factor(p, t)
        return (
            0.25
            - p.C3
            + 2.0 * p.C1 * p.C4
            - 2.0 * p.C1 * k
            + (-0.75 + (k - p.C4) ** 2) * ch * ch
            + p.C1 * p.C1 * s
            + p.C3 * (p.C3 - 1.0) * sh * sh
            + (k - p.C4 + 2.0 * p.C3 * p.C4 - 2.0 * p.C3 * k) * ch * sh
            + p.C1 * (1.0 + 2.0 * p.C3) * t
            - p.C2 * s / q
            + p.a1 * p.C2 * s * t / (q * q)
            + p.C2 * p.C2 * s * t * t / (q * q)
            + 2.0 * p.C2 * (p.C4 - k) * t / q
            + 2.0 * p.C1 * p.C2 * s * t / q
            + p.C2 * (1.0 + 2.0 * p.C3) * t * t / q
        )

    return EffectivePotential(fn=v)


def _model2_const(p: Model2Params):
    """The additive constant of the closed j=1 Model-II potential; the level
    constant spectra.energy_model2_matched implies starts from it."""
    return 0.25 - p.C6 + 2.0 * p.C1 * p.C4 - 2.0 * p.C1 * p.k - p.C3 * p.C3


def v_eff_model2(p: Model2Params, j) -> EffectivePotential:
    """Constrained Model-II closed forms for components j = 1, 2 (verbatim)."""
    k = p.k
    if j == 1:
        const = _model2_const(p)

        @_elementwise
        def v1(w):
            ch = np.cosh(w)
            sh = np.sinh(w)
            t = np.tanh(w)
            s = 1.0 / (ch * ch)
            q = _pole_factor(p, t)
            return (
                const
                + ((k - p.C4) ** 2 + (p.C3 - 0.5) ** 2 - 1.0) * ch * ch
                + (k - p.C4 + 2.0 * p.C3 * p.C4 - 2.0 * p.C3 * k) * ch * sh
                + p.C1 * (1.0 + 2.0 * p.C3) * t
                - (p.C2 + p.C5) * s / q
                + (p.a2 * p.a2 * p.C1 * p.C1 - p.a1 * p.a2 * p.C1) * s / (q * q)
            )

        return EffectivePotential(fn=v1)
    if j == 2:

        @_elementwise
        def v2(w):
            ch = np.cosh(w)
            sh = np.sinh(w)
            t = np.tanh(w)
            s = 1.0 / (ch * ch)
            q = _pole_factor(p, t)
            return (
                0.25
                - p.C3
                + 2.0 * p.C1 * p.C4
                - 2.0 * p.C1 * k
                + ((k - p.C4) ** 2 - 0.75) * ch * ch
                + p.C3 * (1.0 + p.C3) * sh * sh
                + (p.C4 - k + 2.0 * p.C3 * p.C4 - 2.0 * p.C3 * k) * ch * sh
                + p.C1 * (-1.0 + 2.0 * p.C3) * t
                - p.a1 * p.C1 * s / q
                + p.a1 * p.a1 * p.C1 * (1.0 + p.C1 * t) * s * t / (q * q)
                + 2.0 * p.a1 * p.C1 * (k - p.C4) * t / q
                - 2.0 * p.a1 * p.C1 * p.C1 * s * t / q
                + p.a1 * p.C1 * (1.0 - 2.0 * p.C3) * t * t / q
            )

        return EffectivePotential(fn=v2)
    raise DomainError(f"component index must be 1 or 2, got {j}")


def midya_constants(alpha, beta, n):
    """The six constants of the solvable-model identity for level index n >= 1."""
    if alpha * beta == 0.0:
        raise DomainError("constants need alpha*beta != 0")
    if alpha <= -1 or beta <= -1:
        raise DomainError("constants need alpha, beta > -1")
    if n < 1 or int(n) != n:
        raise DomainError(f"level index must be a positive integer, got {n}")
    s, d = beta + alpha, beta - alpha
    a1 = (beta * beta - alpha * alpha) / (2.0 * alpha * beta)
    a2 = (
        n * n
        + (s - 1.0) * n
        + 0.25 * (s * s - 2.0 * s - 4.0)
        + (beta * beta + alpha * alpha) / (2.0 * alpha * beta)
    )
    a3 = (beta * beta - alpha * alpha) / 2.0
    a4 = -(beta * beta + alpha * alpha - 2.0) / 2.0
    a5 = s * d * d / (2.0 * alpha * beta)
    a6 = -2.0 * d * d
    return a1, a2, a3, a4, a5, a6


def midya_rhs(alpha, beta, n, variant="sech2") -> Callable:
    """Solvable-model right-hand side (energy minus potential) as a function of w.

    variant='sech2' carries sech^2 in the single-pole term, as the underlying
    change of variables implies; variant='sech1' is the first-power form as
    literally printed.  The consistency report runs both and records which one
    is compatible with the closed-form potential.
    """
    if variant not in ("sech2", "sech1"):
        raise DomainError(f"variant must be 'sech2' or 'sech1', got {variant!r}")
    a1c, a2c, a3c, a4c, a5c, a6c = midya_constants(alpha, beta, n)
    d, s = beta - alpha, beta + alpha

    @_elementwise
    def rhs(w):
        ch = np.cosh(w)
        sh = np.sinh(w)
        t = np.tanh(w)
        sc2 = 1.0 / (ch * ch)
        q = d * t - s
        if np.any(q == 0.0):
            raise PoleError("right-hand-side pole", location=None)
        mid = a5c * sc2 / q if variant == "sech2" else a5c * (1.0 / ch) / q
        return a6c * sc2 / (q * q) + mid + a4c * ch * ch + a3c * sh * ch + a2c + a1c * t

    return rhs
