import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dirac_sphere import gauge
from dirac_sphere.errors import DomainError, PoleError

FIG1 = dict(C1=0.4, k=2.0, branch="half-up")  # C2 = 1/2, C3 = k + 1


def fig1_params():
    return gauge.Model1Params.from_branch(FIG1["C1"], FIG1["k"], FIG1["branch"])


def constancy(diff, lo=-4.0, hi=4.0, n=2001):
    w = np.linspace(lo, hi, n)
    d = diff(w)
    return float(np.abs(d - d.mean()).max()), float(d.mean())


# ---------------------------------------------------------------- profiles


def test_a_u_model1_values_and_asymptotes():
    a = gauge.a_u_model1(fig1_params())
    assert a(0.0) == pytest.approx(3.4, rel=1e-14)
    assert a(25.0) == pytest.approx(3.0 + 0.5, rel=1e-12)  # C3 + C2
    assert a(-25.0) == pytest.approx(3.0 - 0.5, rel=1e-12)
    const = gauge.Model1Params(0.0, 0.0, 4.2)
    ac = gauge.a_u_model1(const)
    assert ac(1.3) == 4.2


def test_da_u_model1_matches_finite_difference():
    p = fig1_params()
    a, da = gauge.a_u_model1(p), gauge.da_u_model1(p)
    for w in (-2.0, -0.3, 0.0, 1.1, 3.0):
        fd = (a(w + 1e-6) - a(w - 1e-6)) / 2e-6
        assert da(w) == pytest.approx(fd, rel=1e-8, abs=1e-10)


def test_model1_branches_exact():
    for k in (0.0, 2.0, 5.0):
        got = gauge.model1_branches(k)
        assert got == [(-0.5, k), (0.5, k - 1.0), (0.5, k + 1.0), (1.5, k)]
        for c2, c3 in got:
            assert (2 * c2 - 1) * (c3 - k) == 0.0
            assert c2 * c2 - c2 - 0.75 + (c3 - k) ** 2 == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-10, max_value=10))
def test_branch_constraints_hold_for_any_k(k):
    for c2, c3 in gauge.model1_branches(k):
        p = gauge.Model1Params(0.1, c2, c3)
        assert p.is_constrained(k)


# ------------------------------------------------------ general potential


def test_v_eff_general_pure_kinetic_limit():
    # A == k wipes out every gauge term
    k = 1.7
    pot1 = gauge.v_eff_general(lambda w: np.full_like(np.asarray(w, float), k),
                               lambda w: np.zeros_like(np.asarray(w, float)), k, 1)
    pot2 = gauge.v_eff_general(lambda w: np.full_like(np.asarray(w, float), k),
                               lambda w: np.zeros_like(np.asarray(w, float)), k, 2)
    assert pot1(0.0) == pytest.approx(-0.5, abs=1e-15)
    for w in (-2.0, 0.7, 3.1):
        expected = -0.75 * math.cosh(w) ** 2 + 0.25
        assert pot1(w) == pytest.approx(expected, rel=1e-14)
        assert pot2(w) == pytest.approx(expected, rel=1e-14)


def test_v_eff_general_matches_expanded_form_pointwise():
    p = fig1_params()
    gen = gauge.v_eff_general(gauge.a_u_model1(p), gauge.da_u_model1(p), FIG1["k"], 1)
    raw = gauge.v_eff_model1_raw(p, FIG1["k"])
    assert raw(1.0) == pytest.approx(gen(1.0), rel=1e-10)
    metric, mean = constancy(lambda w: raw(w) - gen(w))
    assert metric <= 1e-9
    assert abs(mean) <= 1e-9  # the expansion is an exact identity


def test_factorization_identities_hold_for_every_profile():
    # D = cosh d/dw + f, f = cosh (A - k) + sinh/2, factors both general
    # potentials for any A(w) and k (Cooper, Khare & Sukhatme, Phys. Rep. 251,
    # 267 (1995), sec. 2): Dt D carries V_1 = f^2 - (cosh f)' and D Dt
    # carries V_2 = f^2 + cosh f' - sinh f - cosh^2
    import sympy as sp

    w, k = sp.symbols("w k", real=True)
    ch, sh = sp.cosh(w), sp.sinh(w)

    def v_general(A, j):  # the formula of gauge.v_eff_general
        s = -1 if j == 1 else 1
        return (
            ((k - A) ** 2 + s * sp.diff(A, w)) * ch**2
            + s * (A - k) * ch * sh
            - sp.Rational(3, 4) * ch**2
            + sp.Rational(1, 4)
        )

    def zero(expr):
        return sp.expand(expr.rewrite(sp.exp)) == 0

    A = sp.Function("A")(w)
    f = ch * (A - k) + sh / 2
    df = sp.diff(f, w)
    assert zero(df - (sh * (A - k) + ch * sp.diff(A, w) + ch / 2))  # the report's f'
    assert zero(f**2 - sh * f - ch * df - v_general(A, 1))
    assert zero(f**2 + ch * df - sh * f - ch**2 - v_general(A, 2))

    # the transcription above is the code's formula: Model-I half-up profile
    p = fig1_params()
    profile = p.C1 / ch**2 + p.C2 * sp.tanh(w) + p.C3
    x = np.linspace(-4.0, 4.0, 201)
    for j in (1, 2):
        printed = sp.lambdify(w, v_general(profile, j).subs(k, FIG1["k"]), "numpy")(x)
        code = gauge.v_eff_general(gauge.a_u_model1(p), gauge.da_u_model1(p), FIG1["k"], j)(x)
        assert np.abs(printed - code).max() <= 1e-12 * np.abs(code).max()


def test_expanded_form_term_deletion():
    # C1 = 0, C2 = 0, C3 = k: only the kinetic-reduction terms survive
    k = 2.0
    raw = gauge.v_eff_model1_raw(gauge.Model1Params(0.0, 0.0, k), k)
    for w in (-1.5, 0.0, 2.5):
        expected = -0.5 * math.cosh(w) ** 2 - 0.25 * math.sinh(w) ** 2
        assert raw(w) == pytest.approx(expected, rel=1e-13, abs=1e-13)


def test_expanded_form_sinh_coefficient_root():
    # at C2 = (1 + sqrt(2))/2 and C3 = k the sinh^2 growth cancels
    k = 1.0
    c2 = (1 + math.sqrt(2)) / 2
    raw = gauge.v_eff_model1_raw(gauge.Model1Params(0.0, c2, k), k)
    for w in (-3.0, 1.0, 3.5):
        assert raw(w) + 0.5 * math.cosh(w) ** 2 + c2 == pytest.approx(0.0, abs=1e-10)


# ----------------------------------------------------- model-1 closed forms


def test_v_eff_model1_value_at_origin():
    pot = gauge.v_eff_model1(fig1_params(), FIG1["k"], 1)
    assert pot(0.0) == pytest.approx(0.46, rel=1e-14)
    assert pot(30.0) == pytest.approx(0.3 + 0.8, rel=1e-14)
    assert pot(-30.0) == pytest.approx(0.3 - 0.8, rel=1e-14)


def test_v_eff_model1_neg_half_branch_has_no_slope():
    p = gauge.Model1Params.from_branch(0.3, 2.0, "neg-half")
    pot = gauge.v_eff_model1(p, 2.0, 1)
    assert pot(4.0) == pytest.approx(pot(-4.0), rel=1e-12)


def test_v_eff_model1_j2_grows_in_positive_domain():
    pot = gauge.v_eff_model1(fig1_params(), FIG1["k"], 2)
    vals = [pot(w) for w in (2.0, 4.0, 6.0)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[2] > 1e3


def test_v_eff_model1_requires_constraint():
    with pytest.raises(DomainError, match="violate the constraint branch"):
        gauge.v_eff_model1(gauge.Model1Params(0.3, 0.4, 1.0), 2.0, 1)
    # on the half-down branch at k = 4, but labelled half-up or with a label
    # no table knows
    for p in (
        gauge.Model1Params.from_branch(0.4, 2.0, "half-up"),
        gauge.Model1Params(0.4, 0.5, 3.0, branch="bogus"),
    ):
        assert p.is_constrained(4.0)
        with pytest.raises(DomainError, match="are not on the"):
            gauge.v_eff_model1(p, 4.0, 1)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(gauge.BRANCH_LABELS)),
    st.floats(min_value=1e-3, max_value=0.499),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_closed_form_gap_is_constant(branch, c1, k):
    p = gauge.Model1Params.from_branch(c1, k, branch)
    raw = gauge.v_eff_model1_raw(p, k)
    closed = gauge.v_eff_model1(p, k, 1)
    metric, mean = constancy(lambda w: raw(w) - closed(w))
    scale = 1.0 + abs(mean)
    assert metric <= 1e-9 * scale


def test_closed_form_gap_values_per_branch():
    # measured bookkeeping gaps (expanded minus closed), w-independent
    expected = {"neg-half": -0.5, "half-down": 0.5, "half-up": 0.5, "three-half": -2.5}
    for branch, gap in expected.items():
        p = gauge.Model1Params.from_branch(0.2, 2.0, branch)
        raw = gauge.v_eff_model1_raw(p, 2.0)
        closed = gauge.v_eff_model1(p, 2.0, 1)
        _, mean = constancy(lambda w: raw(w) - closed(w))
        assert mean == pytest.approx(gap, abs=1e-10)


# ----------------------------------------------------------- model 2


def test_model2_derive_params_examples():
    p = gauge.model2_derive_params(0.7, -2 / 3, 4 / 3, 2.0)
    assert p.C3 == pytest.approx(5 / 6, abs=1e-14)
    assert p.C4 == pytest.approx(8 / 3, abs=2e-14)
    assert p.C2 == pytest.approx((2 / 3) * 0.7, abs=1e-14)
    assert p.C5 == pytest.approx((10 / 9) * 0.7, abs=1e-14)
    assert p.C6 == pytest.approx(-(4 / 3) * 0.7, abs=1e-14)


def test_model2_derive_params_k_zero():
    p = gauge.model2_derive_params(0.3, -2 / 3, 4 / 3, 0.0)
    assert p.C4 == 0.0
    assert p.C6 == 0.0


def test_model2_degenerate_rejected():
    with pytest.raises(DomainError, match=r"need a1\^2 != a2\^2"):
        gauge.model2_derive_params(0.1, 1.0, 1.0, 2.0)
    with pytest.raises(DomainError, match="need a1 != 0"):
        gauge.model2_derive_params(0.1, 0.0, 1.0, 2.0)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_alpha_beta_round_trip(alpha, beta, k):
    assume(abs(alpha - beta) > 1e-3)
    assume(abs(alpha * beta) > 1e-3)
    p = gauge.model2_derive_params(0.2, beta - alpha, beta + alpha, k)
    assert p.alpha == pytest.approx(alpha, abs=1e-14 * (1 + abs(alpha)))
    assert p.beta == pytest.approx(beta, abs=1e-14 * (1 + abs(beta)))


def test_alpha_beta_branches():
    assert gauge.alpha_beta(2.0, "-", "+") == pytest.approx((1.0, 1 / 3), rel=1e-14)
    with pytest.raises(PoleError):
        gauge.alpha_beta(1.0, "+", "+")
    with pytest.raises(PoleError):
        gauge.alpha_beta(-1.0, "+", "+")
    for sa in "+-":
        for sb in "+-":
            with pytest.raises(DomainError, match="branch gives alpha"):
                gauge.alpha_beta(0.0, sa, sb)
    # signs are the strings '+' and '-' only; no number or bool stands for one
    for sign in (True, 1, -1, 1.0, False):
        with pytest.raises(DomainError, match="signs must be"):
            gauge.alpha_beta(2.0, sign, "+")
        with pytest.raises(DomainError, match="signs must be"):
            gauge.alpha_beta(2.0, "-", sign)


def test_a_u_model2_reduces_to_model1_when_rational_term_off():
    # C2 = 0 requires C1 = 0 under the closure relations; then the profile is
    # tanh + const and must agree with the model-1 evaluator pointwise.
    p2 = gauge.model2_derive_params(0.0, -2 / 3, 4 / 3, 2.0)
    assert p2.C2 == 0.0
    p1 = gauge.Model1Params(C1=0.0, C2=p2.C3, C3=p2.C4)
    a2, a1 = gauge.a_u_model2(p2), gauge.a_u_model1(p1)
    for w in np.linspace(-3, 3, 13):
        assert a2(w) == pytest.approx(a1(w), abs=1e-14)


def test_a_u_model2_pole_branches():
    # alpha = 1, beta = 1/3: pole ratio a2/a1 = -2, off the real axis
    p = gauge.model2_derive_params(0.5, 1 / 3 - 1.0, 1 / 3 + 1.0, 2.0)
    assert p.poles == ()
    # alpha = 1, beta = -1/3: pole at artanh(-1/2)
    ps = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)
    (w0,) = ps.poles
    assert w0 == pytest.approx(math.atanh(-0.5), rel=1e-14)
    a = gauge.a_u_model2(ps)
    with pytest.raises(PoleError):
        a(w0)


def test_da_u_model2_matches_finite_difference():
    p = gauge.model2_derive_params(0.5, -2 / 3, 4 / 3, 2.0)
    a, da = gauge.a_u_model2(p), gauge.da_u_model2(p)
    for w in (-2.0, -0.5, 0.0, 1.5, 3.0):
        fd = (a(w + 1e-6) - a(w - 1e-6)) / 2e-6
        assert da(w) == pytest.approx(fd, rel=1e-6, abs=1e-8)


def test_model2_expanded_matches_general():
    p = gauge.model2_derive_params(0.3, -2 / 3, 4 / 3, 2.0)
    gen = gauge.v_eff_general(gauge.a_u_model2(p), gauge.da_u_model2(p), 2.0, 1)
    raw = gauge.v_eff_model2_raw(p)
    metric, mean = constancy(lambda w: raw(w) - gen(w))
    assert metric <= 1e-9
    assert abs(mean) <= 1e-9


def test_model2_closed_gap_is_twice_c6():
    p = gauge.model2_derive_params(0.1, -2 / 3, 4 / 3, 2.0)
    raw = gauge.v_eff_model2_raw(p)
    closed = gauge.v_eff_model2(p, 1)
    metric, mean = constancy(lambda w: raw(w) - closed(w))
    assert metric <= 1e-9 * (1 + abs(mean))
    assert mean == pytest.approx(2 * p.C6, abs=1e-10)


def test_model2_closed_j1_cosh_coefficient():
    # coefficient of cosh^2 is (k - C4)^2 + (C3 - 1/2)^2 - 1; at moderate w the
    # ratio V/cosh^2 approaches that coefficient plus the cosh*sinh one
    p = gauge.model2_derive_params(0.5, -2 / 3, 4 / 3, 2.0)
    closed = gauge.v_eff_model2(p, 1)
    coef_ch2 = (2.0 - p.C4) ** 2 + (p.C3 - 0.5) ** 2 - 1.0
    coef_chsh = 2.0 - p.C4 + 2 * p.C3 * p.C4 - 2 * p.C3 * 2.0
    assert coef_ch2 == pytest.approx(-4 / 9, rel=1e-13)
    w = 9.0
    ratio = closed(w) / math.cosh(w) ** 2
    assert ratio == pytest.approx(coef_ch2 + coef_chsh * math.tanh(w), abs=1e-6)


def test_model2_j2_reduces_when_c1_off():
    # C1 = 0 kills every rational term of the second closed form
    p = gauge.model2_derive_params(0.0, -2 / 3, 4 / 3, 2.0)
    closed2 = gauge.v_eff_model2(p, 2)
    k = 2.0
    for w in (-2.0, 0.3, 1.7):
        ch, sh, t = math.cosh(w), math.sinh(w), math.tanh(w)
        expected = (
            0.25 - p.C3
            + ((k - p.C4) ** 2 - 0.75) * ch * ch
            + p.C3 * (1 + p.C3) * sh * sh
            + (p.C4 - k + 2 * p.C3 * p.C4 - 2 * p.C3 * k) * ch * sh
        )
        assert closed2(w) == pytest.approx(expected, rel=1e-13)


# ------------------------------------------------------------ solvable rhs


def test_midya_constants_values():
    a1, a2, a3, a4, a5, a6 = gauge.midya_constants(1.0, 1 / 3, 1)
    assert a1 == pytest.approx(-4 / 3, rel=1e-14)
    assert a2 == pytest.approx(16 / 9, rel=1e-14)
    assert a3 == pytest.approx(-4 / 9, rel=1e-14)
    assert a4 == pytest.approx(4 / 9, rel=1e-14)
    assert a5 == pytest.approx(8 / 9, rel=1e-14)
    assert a6 == pytest.approx(-8 / 9, rel=1e-14)


def test_midya_constants_degenerate_inputs():
    with pytest.raises(DomainError):
        gauge.midya_constants(0.0, 1.0, 1)
    with pytest.raises(DomainError):
        gauge.midya_constants(1.0, 0.5, 0)


def test_midya_rhs_value_at_origin():
    rhs = gauge.midya_rhs(1.0, 1 / 3, 1)
    assert rhs(0.0) == pytest.approx(19 / 18, rel=1e-13)
    # both variants agree at w = 0 where sech = sech^2 = 1
    rhs1 = gauge.midya_rhs(1.0, 1 / 3, 1, variant="sech1")
    assert rhs1(0.0) == pytest.approx(rhs(0.0), rel=1e-14)


def test_midya_rhs_diverges_like_cosh_squared():
    # the growth coefficient is A4 -+ A3 at w -> -+inf; on the branch pair
    # A3 = -A4 so only the left side diverges
    a3, a4 = gauge.midya_constants(1.0, 1 / 3, 1)[2:4]
    rhs = gauge.midya_rhs(1.0, 1 / 3, 1)
    w = -12.0
    assert rhs(w) == pytest.approx((a4 - a3) * math.cosh(w) ** 2, rel=1e-3)
    assert a4 - a3 == pytest.approx(8 / 9, rel=1e-13)


def test_midya_identity_closes_at_matching_c1():
    # with C1 = 1/k on the branch pair, potential + rhs is w-independent
    k = 2.0
    al, be = gauge.alpha_beta(k, "-", "+")
    p = gauge.model2_derive_params(1 / k, be - al, be + al, k)
    closed = gauge.v_eff_model2(p, 1)
    rhs = gauge.midya_rhs(al, be, 1)
    w = np.linspace(-4, 4, 2001)
    s = closed(w) + rhs(w)
    assert float(np.abs(s - s.mean()).max()) <= 1e-9
    assert s.mean() == pytest.approx(8 / 3, abs=1e-10)
    # printed single-power variant does not close
    rhs1 = gauge.midya_rhs(al, be, 1, variant="sech1")
    s1 = closed(w) + rhs1(w)
    assert float(np.abs(s1 - s1.mean()).max()) > 1e-3


def test_midya_constants_vanish_at_equal_parameters():
    # difference-built constants vanish when the two parameters coincide
    a1, _, a3, _, a5, a6 = gauge.midya_constants(0.7, 0.7, 2)
    assert a1 == 0.0 and a3 == 0.0 and a5 == 0.0 and a6 == 0.0
