import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_sphere import specfun
from dirac_sphere.errors import DomainError, IntegrationError


def p2_closed(a, b, x):
    s = a + b
    return 0.125 * ((s + 3) * (s + 4) * x * x + 2 * (s + 3) * (a - b) * x + (a - b) ** 2 - (s + 4))


def test_degree_zero_and_one_closed_forms():
    assert specfun.jacobi(0, 1.0, 1 / 3, 0.7) == 1.0
    assert specfun.jacobi(1, 1.0, 1 / 3, 0.0) == pytest.approx(1 / 3, abs=1e-15)
    assert specfun.jacobi(2, 0.0, 0.0, 0.5) == pytest.approx(-0.125, abs=1e-15)


def test_derivative_examples():
    assert specfun.jacobi_rows([0], 2.0, 0.5, 0.3, 1)[1][0] == 0.0
    assert specfun.jacobi_rows([1], 1.0, 1 / 3, -0.4, 1)[1][0] == pytest.approx(5 / 3, rel=1e-14)
    assert specfun.jacobi_rows([2], 0.0, 0.0, 0.5, 1)[1][0] == pytest.approx(1.5, rel=1e-14)


def test_invalid_index_rejected():
    with pytest.raises(DomainError):
        specfun.jacobi(-1, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        specfun.jacobi(2, -1.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        specfun.jacobi(2, 0.0, -1.5, 0.0)


def test_recurrence_divisor_zero_rejected():
    # alpha + beta rounds to -2 in the m = 2 divisor: an error naming
    # alpha + beta, not -inf (degree 2) or nan (degree 5)
    a = -1 + 2.3e-16
    for n in (2, 5):
        with pytest.raises(DomainError, match=r"alpha \+ beta"):
            specfun.jacobi(n, a, a, 0.3)


def test_recurrence_divisor_error_names_the_first_zero_degree():
    # every degree's divisor is formed in one pass: the error names the
    # lowest degree whose divisor is 0 over every shifted family; at
    # alpha + beta = -4 family 0's divisor first vanishes at degree 3, and
    # family 1's (alpha + beta = -2) at degree 2
    for shifts, degree in ((0, 3), (1, 2)):
        with pytest.raises(DomainError, match=rf"divisor is 0 at degree {degree}: alpha \+ beta = -4\.0 is"):
            specfun._jacobi_table(6, -2.0, -2.0, 0.3, shifts)


def _table_degree_by_degree(top, alpha, beta, x, shifts):
    """_jacobi_table with each degree's coefficients formed in its own step."""
    x = np.asarray(x, dtype=float)
    j = np.arange(shifts + 1).reshape((-1,) + (1,) * x.ndim)
    al, be = alpha + j, beta + j
    tab = [np.ones((shifts + 1,) + x.shape)]
    if top:
        tab.append((al - be) / 2.0 + (al + be + 2.0) / 2.0 * x)
    for m in range(2, top + 1):
        s = 2.0 * m + al + be
        a = 2.0 * m * (m + al + be) * (s - 2.0)
        b = (s - 1.0) * (al * al - be * be)
        c = (s - 1.0) * s * (s - 2.0)
        d = 2.0 * (m + al - 1.0) * (m + be - 1.0) * s
        tab.append(((b + c * x) * tab[m - 1] - d * tab[m - 2]) / a)
    return tab


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.99, max_value=8.0),
    st.floats(min_value=-0.99, max_value=8.0),
    st.integers(min_value=0, max_value=70),
    st.integers(min_value=0, max_value=3),
)
def test_table_matches_the_degree_by_degree_recurrence_bitwise(a, b, top, shifts):
    x = np.cos(np.linspace(0.1, 3.0, 37))
    got = specfun._jacobi_table(top, a, b, x, shifts)
    want = _table_degree_by_degree(top, a, b, x, shifts)
    assert len(got) == len(want) == top + 1
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_outside_domain_evaluates_the_continuation():
    assert specfun.jacobi(2, 0.0, 0.0, 1.5) == pytest.approx((3 * 1.5**2 - 1) / 2, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.integers(min_value=0, max_value=2),
)
def test_recurrence_matches_closed_forms(a, b, x, n):
    closed = [1.0, (a - b) / 2 + (a + b + 2) / 2 * x, p2_closed(a, b, x)][n]
    val = specfun.jacobi(n, a, b, x)
    assert abs(val - closed) <= 1e-12 * (1 + abs(closed))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
)
def test_reflection_symmetry(n, a, b, x):
    left = specfun.jacobi(n, a, b, -x)
    right = (-1) ** n * specfun.jacobi(n, b, a, x)
    assert abs(left - right) <= 1e-12 * (1 + abs(right))


@pytest.mark.parametrize("a", [0.0, 1 / 3, 1.0])
@pytest.mark.parametrize("b", [0.0, 1 / 3, 1.0])
def test_orthogonality(a, b):
    for n in range(1, 7):
        for m in range(n):
            res = specfun.integrate(
                lambda x: (1 - x) ** a
                * (1 + x) ** b
                * specfun.jacobi(m, a, b, x)
                * specfun.jacobi(n, a, b, x),
                -1.0,
                1.0,
                tol=1e-9,
            )
            assert abs(res.value) <= 1e-8


def test_derivative_is_derivative():
    # central difference cross-check at a handful of points
    a, b, n = 0.7, -0.2, 5
    for x in (-0.8, -0.1, 0.4, 0.9):
        h = 1e-6
        fd = (specfun.jacobi(n, a, b, x + h) - specfun.jacobi(n, a, b, x - h)) / (2 * h)
        assert specfun.jacobi_rows([n], a, b, x, 1)[1][0] == pytest.approx(fd, rel=1e-7)


@pytest.mark.parametrize("a, b", [(0.7, -0.2), (1.0, 1 / 3), (-0.4, -0.7), (-0.45, -0.5), (2.5, 0.25)])
def test_derivative_helpers_match_symbolic_differentiation(a, b):
    # P', P'', P''' from the parameter shift, and X1', X1'' from them, against
    # sympy's differentiation of the explicit polynomials; (-0.45, -0.5) puts
    # alpha + beta near -1, where the shifted recurrences start at alpha + beta + 2j
    import sympy as sp

    x = sp.Symbol("x")
    pts = np.array([-0.93, -0.4, 0.0, 0.35, 0.88])
    for n in range(6):
        p = sp.jacobi(n, sp.nsimplify(a), sp.nsimplify(b), x)
        want = [sp.lambdify(x, sp.diff(p, x, j))(pts) * np.ones_like(pts) for j in range(4)]
        got = [rows[0] for rows in specfun.jacobi_rows([n], a, b, pts, 3)]
        for j in range(4):
            scale = 1.0 + np.abs(want[j]).max()
            assert np.abs(got[j] - want[j]).max() <= 1e-12 * scale, (n, j)
        nu = n + 1
        m = sp.Integer(n)
        al, be = sp.nsimplify(a), sp.nsimplify(b)
        acc = m * m + (al + be + 1) * m + al * be
        u = acc * (x - (be + al) / (be - al)) + 2 * al * be / (al - be)
        x1 = u * p + (1 - x * x) * sp.diff(p, x)
        want = [sp.lambdify(x, sp.diff(x1, x, j))(pts) * np.ones_like(pts) for j in range(3)]
        got = [rows[0] for rows in specfun.x1_rows([nu], a, b, pts, 2)]
        assert np.array_equal(got[0], specfun.x1_jacobi(nu, a, b, pts))
        for j in range(3):
            scale = 1.0 + np.abs(want[j]).max()
            assert np.abs(got[j] - want[j]).max() <= 1e-12 * scale, (nu, j)
    with pytest.raises(DomainError, match="derivative order must be 0 or 2"):
        specfun.x1_rows([2], a, b, pts, 1)


def test_x1_degree_one_is_linear_with_known_root():
    # ground member is proportional to alpha*beta*(x - b) + 2*alpha*beta/(alpha-beta)
    a, b = 1.0, 1 / 3
    root = (b + a) / (b - a) - 2 / (a - b)  # -5 for these parameters
    assert root == pytest.approx(-5.0, rel=1e-14)
    assert specfun.x1_jacobi(1, a, b, root) == pytest.approx(0.0, abs=1e-14)
    assert specfun.x1_jacobi(1, a, b, 0.0) != 0.0


@pytest.mark.parametrize("a,b", [(1.0, 1 / 3), (0.5, 0.25), (1.7, 0.4), (-0.4, -0.7)])
def test_x1_orthogonality_under_rational_weight(a, b):
    # Gauss-Jacobi nodes absorb the classical weight factor exactly, so only
    # the rational part enters the integrand (independent scipy oracle).
    from scipy.special import roots_jacobi

    x, wq = roots_jacobi(140, a, b)
    d, s = b - a, b + a
    gram = np.zeros((5, 5))
    for i in range(1, 6):
        for j in range(1, 6):
            gram[i - 1, j - 1] = np.sum(
                wq
                * specfun.x1_jacobi(i, a, b, x)
                * specfun.x1_jacobi(j, a, b, x)
                / (d * x - s) ** 2
            )
    for i in range(5):
        for j in range(i):
            assert abs(gram[i, j]) / math.sqrt(gram[i, i] * gram[j, j]) <= 1e-10


def test_x1_rejects_degenerate_parameters():
    with pytest.raises(DomainError):
        specfun.x1_jacobi(1, 0.5, 0.5, 0.0)
    with pytest.raises(DomainError):
        specfun.x1_jacobi(1, 0.0, 0.5, 0.0)
    with pytest.raises(DomainError):
        specfun.x1_jacobi(0, 1.0, 0.5, 0.0)


def test_integrate_constant():
    res = specfun.integrate(lambda x: np.ones_like(x), -1.0, 1.0, tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-12)
    assert res.error_estimate <= 1e-10


def test_integrate_jacobi_orthogonality_example():
    res = specfun.integrate(
        lambda x: (1 - x)
        * (1 + x) ** (1 / 3)
        * specfun.jacobi(1, 1.0, 1 / 3, x)
        * specfun.jacobi(2, 1.0, 1 / 3, x),
        -1.0,
        1.0,
        tol=1e-9,
    )
    assert abs(res.value) <= 1e-8


def test_integrate_sech_squared():
    res = specfun.integrate(lambda w: 1 / np.cosh(w) ** 2, -20.0, 20.0, tol=1e-10)
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_integrate_detects_divergence():
    # 1/(1-x) is not integrable at the right endpoint
    with pytest.raises(IntegrationError) as err:
        specfun.integrate(lambda x: 1.0 / (1.0 - x), -1.0, 1.0 - 1e-15, tol=1e-10, max_panels=256)
    assert err.value.value > 0  # partial estimate is carried along
    assert err.value.panels == 256


def test_integrate_argument_validation():
    with pytest.raises(DomainError):
        specfun.integrate(lambda x: x, 1.0, -1.0)
    with pytest.raises(DomainError):
        specfun.integrate(lambda x: x, -1.0, 1.0, tol=0.0)


# ------------------------------------------------------- Gauss-Jacobi rules


def h_closed(m, a, b):
    """Closed-form squared norm of P_m^(a,b) under (1-x)^a (1+x)^b."""
    if m == 0:
        return math.exp(
            (a + b + 1) * math.log(2) + math.lgamma(a + 1) + math.lgamma(b + 1) - math.lgamma(a + b + 2)
        )
    return math.exp(
        (a + b + 1) * math.log(2)
        - math.log(2 * m + a + b + 1)
        + math.lgamma(m + a + 1)
        + math.lgamma(m + b + 1)
        - math.lgamma(m + a + b + 1)
        - math.lgamma(m + 1)
    )


# Exponents in (-1, 5), kept 0.01 above -1: as alpha + beta -> -2 the
# three-term recurrence of `jacobi` (the reference values here) loses about
# eps / (alpha + beta + 2) relative accuracy, while the rule itself stays exact.
exponent = st.floats(min_value=-0.99, max_value=5.0, exclude_max=True)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=24), exponent, exponent)
def test_gauss_jacobi_integrates_squared_norms(n, a, b):
    x, wq = specfun.gauss_jacobi(n, a, b)
    for m in range(n):  # degree 2m <= 2n - 1
        p = specfun.jacobi(m, a, b, x)
        assert float(np.dot(wq, p * p)) == pytest.approx(h_closed(m, a, b), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=64), exponent, exponent)
def test_gauss_jacobi_nodes_and_weights(n, a, b):
    x, wq = specfun.gauss_jacobi(n, a, b)
    assert x.shape == wq.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.all((x > -1.0) & (x < 1.0))
    assert np.all(wq > 0)
    assert float(wq.sum()) == pytest.approx(h_closed(0, a, b), rel=1e-12)


def test_gauss_jacobi_is_cached_and_read_only():
    first = specfun.gauss_jacobi(12, 0.5, 1 / 3)
    assert specfun.gauss_jacobi(12, 0.5, 1 / 3) is first
    with pytest.raises(ValueError):
        first[0][0] = 0.0


def test_golub_welsch_basis_is_orthonormal_and_shares_the_rule():
    # the rule and the eigenvector matrix come from one cached solve, and the
    # matrix is the orthonormal basis: B B^T = I and |B[0]| = sqrt(w / mu0)
    rule, basis = specfun._golub_welsch(24, 1.0, 1 / 3)
    assert all(np.array_equal(x, y) for x, y in zip(specfun.gauss_jacobi(24, 1.0, 1 / 3), rule))
    assert specfun._golub_welsch(24, 1.0, 1 / 3)[1] is basis
    nodes, weights = rule
    assert np.abs(basis @ basis.T - np.eye(24)).max() <= 1e-13
    assert np.allclose(np.abs(basis[0]), np.sqrt(weights / weights.sum()), rtol=1e-12, atol=0)
    assert not basis.flags.writeable


def test_gauss_jacobi_caches_no_eigenvectors():
    # a quadrature rule's cache entry is its nodes and weights alone, the
    # bits of the Galerkin basis's rule; only _golub_welsch keeps the n x n
    # eigenvector matrix, and a rule asked of gauss_jacobi adds none to it
    before = specfun._golub_welsch.cache_info().currsize
    rule = specfun.gauss_jacobi(40, 0.75, -0.25)
    assert specfun.gauss_jacobi(40, 0.75, -0.25) is rule
    assert [x.shape for x in rule] == [(40,), (40,)]
    assert all(x.base is None or x.base.ndim == 1 for x in rule)
    assert specfun._golub_welsch.cache_info().currsize == before
    (nodes, weights), basis = specfun._golub_welsch(40, 0.75, -0.25)
    assert np.array_equal(nodes, rule[0]) and np.array_equal(weights, rule[1]) and basis.shape == (40, 40)


def test_jacobi_degree_60_against_mpmath():
    # a report's highest degree: P_60 of the example Model-II (alpha, beta)
    # and of (alpha + 3, beta + 3), the shift behind the X1 reading's third
    # derivative, on the 256 nodes of the largest Gauss-Jacobi rule a
    # 60-level residual of that example reads (its last levels settle at 128
    # nodes against 256), against 50-digit arithmetic: within 1e-13 of the
    # largest value
    import mpmath

    from dirac_sphere import gauge, oracle, spectra

    alpha, beta = gauge.alpha_beta(2.0, "-", "+")
    weight = oracle._residual_weight(spectra.wavefn_model2(0, alpha, beta))[:2]
    t = specfun.gauss_jacobi(256, *weight)[0]
    with mpmath.workdps(50):
        for a, b in ((alpha, beta), (alpha + 3.0, beta + 3.0)):
            want = np.array([float(mpmath.jacobi(60, a, b, mpmath.mpf(x))) for x in t])
            err = np.abs(specfun.jacobi(60, a, b, t) - want).max()
            assert err <= 1e-13 * np.abs(want).max(), (a, b)


def _jacobi_loop(n, a, b, x):
    """P_n^(a,b)(x) by the ascending recurrence, two degrees at a time: the
    reference the tables must match bit for bit."""
    p_prev, p = np.ones_like(x), (a - b) / 2.0 + (a + b + 2.0) / 2.0 * x
    if n == 0:
        return p_prev
    for m in range(2, n + 1):
        s = 2.0 * m + a + b
        c2 = 2.0 * m * (m + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c0 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
        p, p_prev = ((c1 + c0 * x) * p - c3 * p_prev) / c2, p
    return p


def test_batched_rows_match_the_loop_bitwise():
    # one table per shifted family serves every degree: each row is the bits
    # of the one-degree recurrence (its derivatives by the parameter shift),
    # and each X1 row those of a one-degree batch
    pts = np.tanh(np.linspace(-6.0, 6.0, 41))
    a, b = 1.0, 1 / 3
    degrees = [0, 1, 2, 5, 13]
    rows = specfun.jacobi_rows(degrees, a, b, pts, 3)
    x1 = specfun.x1_rows([n + 1 for n in degrees], a, b, pts, 2)
    for i, n in enumerate(degrees):
        assert np.array_equal(specfun.jacobi(n, a, b, pts), _jacobi_loop(n, a, b, pts))
        coef = 1.0
        for j in range(4):
            if j:
                coef *= 0.5 * (n + a + b + j)
            want = coef * _jacobi_loop(n - j, a + j, b + j, pts) if j <= n else 0.0 * rows[0][i]
            assert np.array_equal(rows[j][i], want), (n, j)
        for got, want in zip(x1, specfun.x1_rows([n + 1], a, b, pts, 2)):
            assert np.array_equal(got[i], want[0])


def _family_table(top, a, b, x):
    """[P_0, ..., P_top] of one family by the ascending recurrence in Python
    floats, one family per call: the table jacobi_rows built for each
    shifted family before one recurrence ran them all."""
    tab = [np.ones_like(x)]
    if top:
        tab.append((a - b) / 2.0 + (a + b + 2.0) / 2.0 * x)
    for m in range(2, top + 1):
        s = 2.0 * m + a + b
        c2 = 2.0 * m * (m + a + b) * (s - 2.0)
        c1 = (s - 1.0) * (a * a - b * b)
        c0 = (s - 1.0) * s * (s - 2.0)
        c3 = 2.0 * (m + a - 1.0) * (m + b - 1.0) * s
        tab.append(((c1 + c0 * x) * tab[m - 1] - c3 * tab[m - 2]) / c2)
    return tab


def _per_family_rows(degrees, a, b, x, d=0):
    """jacobi_rows as it was, with one _family_table per shifted family."""
    top = max(degrees)
    tab = _family_table(top, a, b, x)
    out, coef = [[tab[n] for n in degrees]], [1.0] * len(degrees)
    for j in range(1, d + 1):
        tab = _family_table(max(top - j, 0), a + j, b + j, x)
        coef = [c * (0.5 * (n + a + b + j)) for c, n in zip(coef, degrees)]
        out.append([c * tab[n - j] if j <= n else 0.0 * p for c, n, p in zip(coef, degrees, out[0])])
    return [np.array(rows) for rows in out]


def _bits(rows):
    """Each row's values as 64-bit patterns: equal lists hold the same bits,
    as float.hex would show them."""
    return [np.asarray(row, dtype=float).view(np.uint64).tolist() for row in rows]


def _report_rule_nodes():
    """The nodes of the largest Gauss-Jacobi rules the report's readings
    take at --levels 60 on both examples, and the poles and centre; then
    the Jacobi parameters of both examples' classical families, Model I's
    (2s, 2B) from its exponents (B, s) at t = -1 and t = +1."""
    from dirac_sphere import gauge, oracle, spectra

    alpha, beta = gauge.alpha_beta(2.0, "-", "+")
    m1 = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    wfs = [spectra.wavefn_model2(0, alpha, beta), spectra.wavefn_model1(0, m1, 2.0)]
    rules = [specfun.gauss_jacobi(256, *oracle._residual_weight(wf)[:2])[0] for wf in wfs]
    return np.concatenate(rules + [np.array([-1.0, 0.0, 1.0])]), (alpha, beta), tuple(2.0 * e for e in reversed(wfs[1].exponents))


def test_shared_recurrence_rows_match_the_per_family_tables_bitwise(monkeypatch):
    # one recurrence over every shifted family at once gives each row the
    # bits of that family's own table: P_n and its derivatives up to the
    # third at every degree through 61 (the rows a --levels 60 report reads),
    # and the X1 rows built from them
    x, model2, model1 = _report_rule_nodes()
    assert model1 == pytest.approx((-0.4, 0.8), abs=1e-15)  # half-up's (2s, 2B): s = -0.2, B = 0.4
    degrees = list(range(62))
    for a, b in (model2, model1, (-0.5, 0.7), (3.5, 0.25)):
        for d in range(4):
            assert _bits(specfun.jacobi_rows(degrees, a, b, x, d)) == _bits(_per_family_rows(degrees, a, b, x, d)), (a, b, d)
        assert _bits(specfun.jacobi_rows([0, 3, 61], a, b, 0.3, 3)) == _bits(_per_family_rows([0, 3, 61], a, b, 0.3, 3))
    a, b = model2
    got = [_bits(specfun.x1_rows(range(1, 63), a, b, x, d)) for d in (0, 2)]
    monkeypatch.setattr(specfun, "jacobi_rows", _per_family_rows)
    assert got == [_bits(specfun.x1_rows(range(1, 63), a, b, x, d)) for d in (0, 2)]


def test_gauss_jacobi_refuses_an_overflowing_mass():
    # the mass 2^(a+b+1) Gamma(a+1) Gamma(b+1) / Gamma(a+b+2) overflows at
    # a = 1e4: a DomainError (exit 2), not an OverflowError traceback
    with pytest.raises(DomainError, match="total mass overflows"):
        specfun.gauss_jacobi(8, 1e4, 0.5)


def test_gauss_jacobi_argument_validation():
    with pytest.raises(DomainError):
        specfun.gauss_jacobi(0, 0.0, 0.0)
    with pytest.raises(DomainError):
        specfun.gauss_jacobi(4, -1.0, 0.0)
