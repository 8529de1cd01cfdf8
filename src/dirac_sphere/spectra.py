"""Closed-form spectra and eigenfunctions for both models, with physicality flags.

Energies are computed first as the dimensionless square (E*R)^2; the pair
E = -+sqrt/R exists only when the square is non-negative.  A level is
*physical* when both the closed-form square is non-negative and the printed
eigenfunction is square-integrable.  A SpectralLine stores only the square,
R and the norm verdict (with the reason when the norm diverges); the energy
pair, physicality and its reason are derived from them in one place (its
properties), so no level can carry a verdict that contradicts its own
numbers.  The two criteria disagree for Model I as printed (the Model-I
envelope exponent is negative for 0 < C1 < 1/2, so every printed
eigenfunction has a divergent norm -- the package evaluates the form
verbatim and flags it).  Each model decides norm finiteness in one
predicate, shared by its level table and its eigenfunction records:
_model1_divergence (B > 0 and s > 0) and _model2_divergence
(alpha, beta > -1 and alpha*beta > 0), each of which gives the reason a norm
diverges.

Norms are computed in t = tanh(w), where every printed eigenfunction is an
envelope (1+t)^a (1-t)^b times a polynomial or rational factor g.  The norm
integral is then the Jacobi weight (1-t)^(2b-1) (1+t)^(2a-1) against g^2:
finiteness is decided from the exponents and the poles of g when the record
is built, before any quadrature.  Only Model II's rational g is ever
integrated, by Gauss-Jacobi rules of that weight converged by node doubling,
and only when something first reads the norm: the `verify` residuals are
scale-free and read none.  The Model-I exponent
s = (-1 + sqrt(1 - 4 C1^2))/2 is <= 0, so its norm is never finite.
"""
import math
from functools import cached_property
from typing import Callable, Optional, Tuple

import numpy as np

from . import specfun
from .errors import DomainError, IntegrationError, PoleError
from .gauge import Model1Params, Model2Params, _model2_const, _require_constrained, midya_constants, require_admissible

__all__ = [
    "SpectralLine",
    "WaveFunctionSpec",
    "energy_model1",
    "wavefn_model1",
    "energy_model2",
    "energy_model2_matched",
    "wavefn_model2",
]


class SpectralLine:
    """One level: dimensionless (E*R)^2, the radius, and the norm verdict;
    the energy pair and physicality follow from them.  When the norm
    diverges, norm_reason says why, as the printed eigenfunction's does."""

    __slots__ = ("level", "E_sq_bar", "R", "norm_finite", "norm_reason")

    def __init__(self, level: int, E_sq_bar: float, R: float, norm_finite: bool, norm_reason: Optional[str] = None):
        self.level, self.E_sq_bar, self.R = level, E_sq_bar, R
        self.norm_finite, self.norm_reason = norm_finite, norm_reason

    @property
    def radicand_ok(self):
        return self.E_sq_bar >= 0.0

    @property
    def E_plus(self):
        return math.sqrt(self.E_sq_bar) / self.R if self.radicand_ok else None

    @property
    def E_minus(self):
        return -self.E_plus if self.radicand_ok else None

    @property
    def physical(self):
        return self.reason is None

    @property
    def reason(self):
        if not self.radicand_ok:
            return "negative-radicand"
        if not self.norm_finite:
            return "divergent-norm"
        return None


class WaveFunctionSpec:
    """First-component eigenfunction candidate on the w axis.

    eval_raw is the unnormalized printed form (1+t)^a (1-t)^b r(t) of
    t = tanh w, whose reading shares (a, b) = exponents at t = -1 and t = +1,
    the one order of every exponent pair in the package.  ratios(t, levels)
    is (r, r', r'') of that reading at every level index in levels, each an
    array with one row per level: what an operator needs to act on them
    exactly, from one recurrence table per Jacobi family up to the highest
    level's degree.  norm_finite is decided analytically when the record is
    built; when the norm diverges, norm_reason says why.  A finite norm is
    integrated by norm_quadrature (a _weighted_norm call) the first time
    norm_sq, norm_details() or eval() reads it, which raises its
    IntegrationError; the record keeps the result for every later read.
    """

    def __init__(self, eval_raw: Callable, exponents: Tuple[float, float], ratios: Callable, norm_finite: bool,
                 norm_reason: Optional[str] = None, norm_quadrature: Optional[Callable] = None):
        self.eval_raw, self.exponents, self.ratios = eval_raw, exponents, ratios
        self.norm_finite, self.norm_reason, self.norm_quadrature = norm_finite, norm_reason, norm_quadrature

    @cached_property
    def _norm(self):
        return self.norm_quadrature() if self.norm_finite else {}

    @property
    def norm_sq(self):
        return self._norm.get("norm_sq")

    def eval(self, w):
        """The printed form scaled to unit norm when the norm is finite, else eval_raw."""
        if not self.norm_finite:
            return self.eval_raw(w)
        return (1.0 / math.sqrt(self.norm_sq)) * self.eval_raw(w)

    def norm_details(self):
        """How the norm was decided, as report details (no timings): the
        divergence reason, or the rule and node count that produced norm_sq."""
        if not self.norm_finite:
            return {"norm_divergence": self.norm_reason}
        return {"norm_rule": self._norm["norm_rule"], "norm_nodes": self._norm["norm_nodes"]}


def _model1_exponents(n, p: Model1Params, k):
    """Level n's Model-I exponents (B, s), B = C1 (1 + 2 C2)/2 at t = -1 and
    s = (-1 + sqrt(1 - 4 C1^2))/2 at t = +1, once the parameters sit on a
    constraint branch, n is a level index, s is real and s - n is nonzero."""
    _require_constrained(p, k)
    if n < 0 or int(n) != n:
        raise DomainError(f"level must be a non-negative integer, got {n}")
    rad = 1.0 - 4.0 * p.C1 * p.C1
    if rad < 0.0:
        raise DomainError(f"C1 = {p.C1} gives complex exponents; need |C1| < 1/2")
    s = (-1.0 + math.sqrt(rad)) / 2.0
    if s - n == 0.0:
        raise DomainError(f"level denominator s - n vanishes at n={n} (s={s})")
    return p.C1 * (1.0 + 2.0 * p.C2) / 2.0, s


def _model1_divergence(B, s):
    """Why the Model-I norm integrand (1-t)^(2s-1) (1+t)^(2B-1) P_n^2 is not
    integrable, or "" when it is (s > 0 and B > 0)."""
    divergent = []
    if not s > 0.0:
        divergent.append(f"s = {s!r} <= 0: (1-t)^(2s-1) is not integrable at t -> 1")
    if not B > 0.0:
        divergent.append(f"B = {B!r} <= 0: (1+t)^(2B-1) is not integrable at t -> -1")
    return "; ".join(divergent)


def energy_model1(n, p: Model1Params, k, R) -> SpectralLine:
    """Closed-form Model-I level n.

    (E*R)^2 = 1/2 + 2 C1 (k - C3) - (C2 - 1/2)^2 - (s - n)^2 - (C1(1+2C2)/2)^2/(s - n)^2
    with s = (-1 + sqrt(1 - 4 C1^2))/2.  The norm verdict is that of
    wavefn_model1 (_model1_divergence), so physicality folds in both the sign
    of the square and normalizability.
    """
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R}")
    B, s = _model1_exponents(n, p, k)
    e_sq = (
        0.5
        + 2.0 * p.C1 * (k - p.C3)
        - (p.C2 - 0.5) ** 2
        - (s - n) ** 2
        - B * B / (s - n) ** 2
    )
    divergence = _model1_divergence(B, s)
    return SpectralLine(n, e_sq, R, norm_finite=not divergence, norm_reason=divergence or None)


def wavefn_model1(n, p: Model1Params, k) -> WaveFunctionSpec:
    """Printed Model-I eigenfunction, evaluated verbatim.

    (1 - tanh w)^s (1 + tanh w)^B P_n^(2s, 2B)(tanh w) with s as in the
    energy formula and B = C1 (1 + 2 C2) / 2: exponents (B, s).  As s <= 0
    for every accepted C1, the norm integral diverges at w -> +inf; the
    record is returned unnormalized with norm_finite=False and the reason.
    """
    B, s = _model1_exponents(n, p, k)
    return _printed_wavefunction(
        int(n), (B, s), lambda levels, t, d: specfun.jacobi_rows(levels, 2.0 * s, 2.0 * B, t, d),
        (1.0, 0.0), _model1_divergence(B, s),
    )


def _printed_wavefunction(level, exponents, rows, den, divergence, weight=None, degree=None):
    """The printed eigenfunction (1+t)^a (1-t)^b g(t)/den(t) of t = tanh w at
    `level`, (a, b) = exponents at t = -1 and t = +1, den = d0 + d1 t for
    den = (d0, d1) and rows(levels, t, d) the rows [g] (d = 0) or [g, g', g'']
    (d = 2) of its reading's polynomial g at every level in levels: eval_raw
    reads g as row 0, and its ratios divide the d = 2 rows by den.  Unless
    divergence gives the reason it diverges, its norm, when first read,
    integrates (g/den)^2 (numerator degree `degree`) against the Jacobi
    weight (1-t)^weight[0] (1+t)^weight[1]; Model I passes no weight, since
    its norm always diverges.  Both raise PoleError at a sample where den
    vanishes, as the gauge profile does at its pole.
    """
    a, b = exponents
    d0, d1 = den

    def den_at(t):
        d = d0 + d1 * t
        if np.any(d == 0.0):
            raise PoleError("eigenfunction envelope denominator vanishes at a sample")
        return d

    def g_at(t):
        return rows([level], t, 0)[0][0]

    @specfun._elementwise
    def raw(w):
        # (envelope * g) / den: this order keeps the sampled values as the
        # printed form has always been evaluated
        t = np.tanh(w)
        return (1.0 - t) ** b * (1.0 + t) ** a * g_at(t) / den_at(t)

    def ratios(t, levels):
        # r = g/den with den linear: r' = (g' - d1 r)/den, r'' = (g'' - 2 d1 r')/den
        g, dg, d2g = rows(levels, t, 2)
        d = den_at(t)
        r = g / d
        r1 = (dg - d1 * r) / d
        return r, r1, (d2g - 2.0 * d1 * r1) / d

    if divergence:
        return WaveFunctionSpec(raw, exponents, ratios, norm_finite=False, norm_reason=divergence)
    return WaveFunctionSpec(
        raw, exponents, ratios, norm_finite=True,
        norm_quadrature=lambda: _weighted_norm(lambda t: g_at(t) / den_at(t), *weight, degree),
    )


_NORM_RTOL = 1e-12  # agreement of two successive rules
_NORM_EXTRA_NODES = 8  # first rule: degree + this many nodes
_NORM_MAX_NODES = 512


def _weighted_norm(g, alpha, beta, degree):
    """Integral of (1-t)^alpha (1+t)^beta g(t)^2 over [-1, 1] by Gauss-Jacobi rules.

    g is rational, with numerator degree `degree` and poles off [-1, 1], so
    no finite rule is exact: rules of degree + 8 and 2 (degree + 8) nodes are
    compared and the count doubled until two successive rules agree to 1e-12
    relative; a rule past 512 nodes is never built: where one would be
    needed IntegrationError is raised, never a divergence verdict.  Returns
    norm_sq, norm_rule and norm_nodes, as WaveFunctionSpec reads them.
    """

    def rule(n):
        t, wq = specfun.gauss_jacobi(n, alpha, beta)
        return float(np.dot(wq, np.asarray(g(t), dtype=float) ** 2))

    n, nxt, prev, value = 0, degree + _NORM_EXTRA_NODES, math.nan, math.nan
    while not abs(value - prev) <= _NORM_RTOL * abs(value):
        if nxt > _NORM_MAX_NODES:
            raise IntegrationError(
                f"Gauss-Jacobi norm rule (alpha={alpha!r}, beta={beta!r}) did not "
                f"converge to {_NORM_RTOL} relative within {_NORM_MAX_NODES} nodes",
                value=value,
                error_estimate=abs(value - prev),
                panels=n,
            )
        n, nxt = nxt, 2 * nxt
        prev, value = value, rule(n)
    return {
        "norm_sq": value,
        "norm_rule": f"gauss-jacobi (alpha={alpha!r}, beta={beta!r})",
        "norm_nodes": n,
    }


def _model2_divergence(alpha, beta):
    """Why the Model-II norm integrand (1-t)^alpha (1+t)^beta (g/den)^2 is
    not integrable on [-1, 1], or "" when it is: it is iff alpha, beta > -1
    and the envelope denominator den = alpha + beta + (alpha - beta) t has
    no root in [-1, 1] (alpha*beta > 0)."""
    if alpha <= -1.0:
        return f"weight exponent alpha = {alpha!r} <= -1: (1-t)^alpha is not integrable at t = 1"
    if beta <= -1.0:
        return f"weight exponent beta = {beta!r} <= -1: (1+t)^beta is not integrable at t = -1"
    if alpha * beta > 0.0:
        return ""
    t0 = -(alpha + beta) / (alpha - beta)
    return (
        f"denominator alpha + beta + (alpha - beta) t vanishes at t = {t0!r} "
        "in [-1, 1]: the squared envelope is not integrable there"
    )


def energy_model2(m, alpha, beta, k, R) -> SpectralLine:
    """Closed-form Model-II level m >= 0 as printed.

    (E*R)^2 = (m + (a+b)/2)(m + (a+b+2)/2) + b/a - (a^2 + b^2 - 2)/4 - k^2/(1+k^2)^2.
    The level index m is offset by one from the polynomial degree (m = n - 1).
    The norm verdict is that of wavefn_model2 (_model2_divergence).
    """
    if alpha == 0.0:
        raise DomainError("energy formula needs alpha != 0")
    if m < 0 or int(m) != m:
        raise DomainError(f"level must be a non-negative integer, got {m}")
    if not R > 0:
        raise DomainError(f"radius must be positive, got {R}")
    s = alpha + beta
    e_sq = (
        (m + s / 2.0) * (m + (s + 2.0) / 2.0)
        + beta / alpha
        - (alpha * alpha + beta * beta - 2.0) / 4.0
        - k * k / (1.0 + k * k) ** 2
    )
    divergence = _model2_divergence(alpha, beta)
    return SpectralLine(int(m), e_sq, R, norm_finite=not divergence, norm_reason=divergence or None)


def energy_model2_matched(m, p: Model2Params) -> float:
    """Level constant implied by the solvable-model identity: the additive
    constant of the closed-form potential plus the level constant of the
    right-hand side at degree m + 1.

    This is the (E*R)^2 at which the rational-extension eigenfunction
    actually solves the closed-form potential (exactly when C1 = 1/k and the
    branch pair is used); the report compares it against the printed formula.
    """
    return _model2_const(p) + midya_constants(p.alpha, p.beta, int(m) + 1)[1]


def wavefn_model2(m, alpha, beta, polynomial="classical") -> WaveFunctionSpec:
    """Model-II eigenfunction at level m, in either polynomial interpretation.

    polynomial='classical' uses the ordinary Jacobi polynomial of degree m+1,
    exactly as typeset; polynomial='x1' substitutes the rational-extension
    member of the same degree.  Both share the envelope of exponents
    ((beta+1)/2, (alpha+1)/2) over alpha + beta + (alpha-beta) t, a
    denominator that vanishes inside [-1, 1] when alpha*beta <= 0; the record
    then carries a divergent norm and, in norm_reason, where the root lies.
    """
    if polynomial not in ("classical", "x1"):
        raise DomainError(f"polynomial must be 'classical' or 'x1', got {polynomial!r}")
    if m < 0 or int(m) != m:
        raise DomainError(f"level must be a non-negative integer, got {m}")
    require_admissible(alpha, beta)
    m = int(m)
    rows_fn = specfun.jacobi_rows if polynomial == "classical" else specfun.x1_rows
    # Norm integrand (1-t)^alpha (1+t)^beta (poly/den)^2; alpha, beta > -1, so it
    # is finite iff the denominator's root lies off [-1, 1] (alpha*beta > 0).
    return _printed_wavefunction(
        m, ((beta + 1.0) / 2.0, (alpha + 1.0) / 2.0),
        lambda levels, t, d: rows_fn(np.asarray(levels) + 1, alpha, beta, t, d), (alpha + beta, alpha - beta),
        _model2_divergence(alpha, beta), (alpha, beta), m + 1,
    )
