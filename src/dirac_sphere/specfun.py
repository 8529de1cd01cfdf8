"""Jacobi polynomials, their rational-extension companions, and quadrature.

Two integrators: Gauss-Jacobi rules (Golub-Welsch), which integrate against
the weight (1-x)^alpha (1+x)^beta exactly and carry the eigenfunction norms,
and an adaptive Gauss-Legendre panel quadrature for general integrands.
Everything here is a pure function; evaluation accepts scalars or numpy arrays.
"""
import functools
import math

import numpy as np

from .errors import DomainError, IntegrationError

__all__ = [
    "jacobi",
    "jacobi_rows",
    "x1_jacobi",
    "x1_rows",
    "gauss_jacobi",
    "integrate",
    "QuadResult",
]


_LOG_MAX = math.log(np.finfo(float).max)


def _scalar_or_array(val):
    """The package's return policy for functions of a scalar or an array: a
    0-d result comes back as a Python float, anything else unchanged."""
    return val if val.ndim else float(val)


def _elementwise(fn):
    """Decorate fn(x) to receive x as a float array and return by _scalar_or_array."""

    @functools.wraps(fn)
    def wrapped(x):
        return _scalar_or_array(fn(np.asarray(x, dtype=float)))

    return wrapped


def _check_index(n, alpha, beta):
    if n < 0 or int(n) != n:
        raise DomainError(f"polynomial degree must be a non-negative integer, got {n}")
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"Jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}")


def _jacobi_table(top, alpha, beta, x):
    """[P_0, P_1, ..., P_top] of P_m^(alpha,beta) at x by the ascending
    three-term recurrence: every degree of the family at the cost of the
    highest.  A divisor that rounds to 0 raises DomainError (see jacobi)."""
    x = np.asarray(x, dtype=float)
    tab = [np.ones_like(x)]
    if top:
        tab.append((alpha - beta) / 2.0 + (alpha + beta + 2.0) / 2.0 * x)
    for m in range(2, top + 1):
        s = 2.0 * m + alpha + beta
        a = 2.0 * m * (m + alpha + beta) * (s - 2.0)
        if a == 0.0:
            raise DomainError(
                f"Jacobi recurrence divisor is 0 at degree {m}: alpha + beta = "
                f"{alpha + beta!r} is -2 to rounding"
            )
        b = (s - 1.0) * (alpha * alpha - beta * beta)
        c = (s - 1.0) * s * (s - 2.0)
        d = 2.0 * (m + alpha - 1.0) * (m + beta - 1.0) * s
        tab.append(((b + c * x) * tab[m - 1] - d * tab[m - 2]) / a)
    return tab


def jacobi(n, alpha, beta, x):
    """Evaluate P_n^(alpha,beta)(x) by the ascending three-term recurrence
    (_jacobi_table's top row).

    Stable on [-1, 1] for the degrees used here: at degree 60, the most a
    report reaches, P_60 of (alpha, beta) and (alpha + 3, beta + 3) at the
    example Model-II parameters agrees with 50-digit arithmetic within
    1e-13 of its largest value on the 1344 nodes of the residual window's
    64-panel rule.  Outside [-1, 1] the value is the analytic continuation.

    Relative accuracy degrades as alpha + beta -> -2, where the recurrence
    divisor 2m (m + alpha + beta)(2m + alpha + beta - 2) at m = 2 tends to 0
    (at alpha = beta = -1 + 1e-8, P_20 on the 24-node Gauss-Jacobi rule is
    off by 6.3e-7 of its largest value, and the rule's norm of P_20 by 2.3e-5
    relative); a divisor that rounds to 0 raises DomainError.
    """
    _check_index(n, alpha, beta)
    return _scalar_or_array(_jacobi_table(int(n), alpha, beta, x)[-1])


def jacobi_rows(degrees, alpha, beta, x, d=0):
    """[P_n, P_n', ..., P_n^(d)] of P_n^(alpha,beta) at x for every n in
    degrees, each an array with one row per degree, by the parameter shift
    P_n^(j) = prod_{i=1..j} (n + alpha + beta + i)/2 * P_{n-j}^(alpha+j, beta+j),
    0 for j > n: one _jacobi_table per shifted family, up to the highest
    degree, serves every degree; the rows of P_n are jacobi's bits."""
    for n in degrees:
        _check_index(n, alpha, beta)
    degrees = [int(n) for n in degrees]
    top = max(degrees)
    tab = _jacobi_table(top, alpha, beta, x)
    out, coef = [[tab[n] for n in degrees]], [1.0] * len(degrees)
    for j in range(1, d + 1):
        tab = _jacobi_table(max(top - j, 0), alpha + j, beta + j, x)
        coef = [c * (0.5 * (n + alpha + beta + j)) for c, n in zip(coef, degrees)]
        out.append([c * tab[n - j] if j <= n else 0.0 * p for c, n, p in zip(coef, degrees, out[0])])
    return [np.array(rows) for rows in out]


def x1_jacobi(nu, alpha, beta, x):
    """Degree-nu member (nu >= 1) of the rational extension of the Jacobi family.

    The family starts at degree 1 and is orthogonal on [-1, 1] under the
    weight (1-x)^alpha (1+x)^beta / ((beta-alpha) x - (beta+alpha))^2.  With
    b = (beta+alpha)/(beta-alpha) and m = nu - 1 the member is

        [A (x - b) + 2 alpha beta / (alpha - beta)] P_m(x) + (1 - x^2) P_m'(x),

    where A = m^2 + (alpha+beta+1) m + alpha*beta and P_m is classical Jacobi.
    These are the polynomial factors of the bound states of the second
    gauge-field model; orthogonality is exercised in the test suite.  The
    value is x1_rows's one row.
    """
    return _scalar_or_array(x1_rows([nu], alpha, beta, x)[0][0])


def x1_rows(nus, alpha, beta, x, d=0):
    """[X] (d = 0) or [X, X', X''] (d = 2) of the x1_jacobi member
    X = u P_m + (1-x^2) P_m', u = A (x - b) + c, for every degree in nus
    (each >= 1), each an array with one row per degree:
    X' = A P_m + (u - 2x) P_m' + (1-x^2) P_m'' and
    X'' = (2A - 2) P_m' + (u - 4x) P_m'' + (1-x^2) P_m^(3), each P_m^(j) from
    one jacobi_rows call, one table per shifted family for every degree."""
    for nu in nus:
        if nu < 1 or int(nu) != nu:
            raise DomainError(f"degree must be a positive integer, got {nu}")
    if alpha <= -1 or beta <= -1:
        raise DomainError(f"parameters must exceed -1, got alpha={alpha}, beta={beta}")
    if alpha == beta:
        raise DomainError("rational-extension family needs alpha != beta")
    if alpha * beta == 0.0:
        raise DomainError("rational-extension family needs alpha*beta != 0")
    if d not in (0, 2):
        raise DomainError(f"derivative order must be 0 or 2, got {d}")
    x = np.asarray(x, dtype=float)
    m = np.asarray(nus).reshape((-1,) + (1,) * x.ndim) - 1
    acc = m * m + (alpha + beta + 1.0) * m + alpha * beta
    b = (beta + alpha) / (beta - alpha)
    c = 2.0 * alpha * beta / (alpha - beta)
    p = jacobi_rows(m.ravel(), alpha, beta, x, d + 1)
    u, s = acc * (x - b) + c, 1.0 - x * x
    out = [u * p[0] + s * p[1]]
    if d:
        out += [acc * p[0] + (u - 2.0 * x) * p[1] + s * p[2],
                (2.0 * acc - 2.0) * p[1] + (u - 4.0 * x) * p[2] + s * p[3]]
    return out


@functools.lru_cache(maxsize=256)
def gauss_jacobi(n, alpha, beta):
    """n-point Gauss-Jacobi rule: (nodes, weights) with sum(w f(x)) equal to
    the integral of (1-x)^alpha (1+x)^beta f(x) over [-1, 1] for every
    polynomial f of degree <= 2n - 1.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric tridiagonal
    matrix of the monic Jacobi recurrence, and the weights are mu0 times the
    squared first components of its normalized eigenvectors.  Rules are cached
    by (n, alpha, beta), without the eigenvectors (only the Galerkin basis,
    _golub_welsch, keeps those); the returned arrays are read-only.
    """
    return _golub_welsch.__wrapped__(n, alpha, beta)[0]  # the uncached solve


@functools.lru_cache(maxsize=256)
def _golub_welsch(n, alpha, beta):
    """gauss_jacobi's rule (nodes, weights), the same bits, and the matrix of
    the eigenvectors it came from, as ((nodes, weights), vectors).

    Column i of the eigenvector matrix B is the unit eigenvector at node x_i,
    so B[m, i] = sqrt(w_i) p_m(x_i) up to the sign of the column, with p_m
    the Jacobi polynomials orthonormal under the weight.  B is orthogonal; a
    product B diag(f) B^T, the rule's Galerkin matrix of f in the
    orthonormal basis p_0..p_{n-1}, does not depend on the column signs.
    Cached by (n, alpha, beta) apart from gauss_jacobi's rules; the three
    arrays are read-only.
    """
    if n < 1 or int(n) != n:
        raise DomainError(f"node count must be a positive integer, got {n}")
    _check_index(0, alpha, beta)
    n = int(n)
    ab = alpha + beta
    k = np.arange(n, dtype=float)
    s = 2.0 * k + ab
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    diag[1:] = (beta * beta - alpha * alpha) / (s[1:] * (s[1:] + 2.0))
    off = np.empty(max(n - 1, 0))
    if n > 1:
        # k = 1 written with the factor (k + a + b) cancelled: finite at a + b = -1
        off[0] = 4.0 * (1.0 + alpha) * (1.0 + beta) / ((2.0 + ab) ** 2 * (3.0 + ab))
        k2, s2 = k[2:], s[2:]
        off[1:] = (
            4.0 * k2 * (k2 + alpha) * (k2 + beta) * (k2 + ab)
            / (s2 * s2 * (s2 + 1.0) * (s2 - 1.0))
        )
    off = np.sqrt(off)
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    nodes, vecs = np.linalg.eigh(jac)
    # mu0, the weight's total mass: 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2)
    log_mu0 = (
        (ab + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(ab + 2.0)
    )
    if log_mu0 > _LOG_MAX:
        raise DomainError(
            f"the Gauss-Jacobi weight's total mass overflows at alpha={alpha}, beta={beta}"
        )
    mu0 = math.exp(log_mu0)
    weights = mu0 * vecs[0] ** 2
    for arr in (nodes, weights, vecs):
        arr.flags.writeable = False
    return (nodes, weights), vecs


class QuadResult:
    """Value and achieved error estimate of an adaptive quadrature."""

    __slots__ = ("value", "error_estimate", "panels")

    def __init__(self, value, error_estimate, panels):
        self.value = value
        self.error_estimate = error_estimate
        self.panels = panels

    def __repr__(self):
        return f"QuadResult(value={self.value!r}, error_estimate={self.error_estimate!r}, panels={self.panels})"


def _panel(f, a, b):
    # the 10- and 21-point Gauss-Legendre rules: the Jacobi weight at alpha = beta = 0
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    lo, hi = (
        half * float(np.dot(wq, f(mid + half * x)))
        for x, wq in (gauss_jacobi(10, 0.0, 0.0), gauss_jacobi(21, 0.0, 0.0))
    )
    return hi, abs(hi - lo)


def integrate(f, a, b, tol=1e-10, max_panels=4096):
    """Adaptive panel quadrature of a vectorized callable on [a, b].

    Each panel is estimated with a 10/21-point Gauss-Legendre pair; the pair
    difference drives bisection, worst panel first, until the summed error
    estimate falls below tol.  Running out of the panel budget raises
    IntegrationError carrying the partial estimate (this is the designed
    detector for divergent norm integrals).  Semi-infinite domains are the
    caller's job, via the t = tanh(w) substitution.
    """
    if not b > a:
        raise DomainError(f"need a < b, got a={a}, b={b}")
    if not tol > 0:
        raise DomainError(f"need tol > 0, got {tol}")
    val, err = _panel(f, a, b)
    panels = [(err, a, b, val)]
    count = 1
    while True:
        total_err = sum(p[0] for p in panels)
        if total_err <= tol:
            return QuadResult(sum(p[3] for p in panels), total_err, count)
        if count >= max_panels:
            raise IntegrationError(
                f"quadrature did not reach tol={tol} within {max_panels} panels "
                f"(estimate {sum(p[3] for p in panels)!r}, error {total_err!r})",
                value=sum(p[3] for p in panels),
                error_estimate=total_err,
                panels=count,
            )
        panels.sort(key=lambda p: p[0])
        _, pa, pb, _ = panels.pop()
        pm = 0.5 * (pa + pb)
        v1, e1 = _panel(f, pa, pm)
        v2, e2 = _panel(f, pm, pb)
        panels.append((e1, pa, pm, v1))
        panels.append((e2, pm, pb, v2))
        count += 1
