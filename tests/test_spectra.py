import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirac_sphere import gauge, spectra, specfun
from dirac_sphere.errors import DomainError, IntegrationError, PoleError


def fig1_params():
    return gauge.Model1Params.from_branch(0.4, 2.0, "half-up")


def near_critical_params():
    return gauge.Model1Params.from_branch(0.4999, 2.0, "half-down")  # C3 = k - 1


def _assert_ratio_reads_eval_raw(wf, level):
    # eval_raw reads its polynomial as row 0 of the reading's rows and the
    # residuals read r = g/den from the same rows: the envelope times r is
    # the printed form eval_raw samples
    w = np.linspace(-6.0, 6.0, 121)
    t = np.tanh(w)
    a, b = wf.exponents  # at t = -1 and t = +1
    got = (1.0 - t) ** b * (1.0 + t) ** a * wf.ratios(t, [level])[0][0]
    want = wf.eval_raw(w)
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), level


# ------------------------------------------------------------- model 1


def test_energy_model1_fig1_radicand():
    line = spectra.energy_model1(0, fig1_params(), 2.0, 1.0)
    assert line.E_sq_bar == pytest.approx(-4.34, abs=1e-12)
    assert not line.physical
    assert line.reason == "negative-radicand"
    assert line.E_plus is None and line.E_minus is None


def test_energy_model1_near_critical_value():
    # frozen from the closed-form arithmetic with s = (-1 + sqrt(1 - 4 C1^2))/2
    line = spectra.energy_model1(0, near_critical_params(), 2.0, 1.0)
    assert line.E_sq_bar == pytest.approx(0.2188852659724667, abs=1e-12)
    # the radicand is positive, but the printed eigenfunction has s < 0
    assert not line.physical
    assert line.reason == "divergent-norm"
    assert line.E_plus == pytest.approx(0.4678517564063073, abs=1e-12)
    assert line.E_minus == -line.E_plus


def test_energy_model1_rejects_large_c1():
    p = gauge.Model1Params.from_branch(0.6, 2.0, "half-up")
    with pytest.raises(DomainError, match="complex exponents"):
        spectra.energy_model1(0, p, 2.0, 1.0)


def test_energy_model1_zero_denominator():
    # s = 0: a non-physical construction (exit 2 at the CLI), not a crash
    p = gauge.Model1Params.from_branch(0.0, 2.0, "half-up")
    with pytest.raises(DomainError, match="denominator"):
        spectra.energy_model1(0, p, 2.0, 1.0)


def test_energy_model1_requires_constraint():
    with pytest.raises(DomainError, match="violate the constraint branch"):
        spectra.energy_model1(0, gauge.Model1Params(0.3, 0.1, 0.0), 2.0, 1.0)
    # half-up parameters at k = 2 sit on the half-down branch at k = 4
    with pytest.raises(DomainError, match="are not on the 'half-up' branch"):
        spectra.energy_model1(0, gauge.Model1Params.from_branch(0.4, 2.0, "half-up"), 4.0, 1.0)


def test_energy_model1_radicand_count():
    lines = [spectra.energy_model1(n, near_critical_params(), 2.0, 1.0) for n in range(4)]
    assert [ln.radicand_ok for ln in lines] == [True, False, False, False]
    # the printed envelope exponent is negative, so no level is normalizable
    assert all(ln.norm_finite is False for ln in lines)
    assert all(not ln.physical for ln in lines)
    assert lines[0].reason == "divergent-norm"
    assert lines[1].reason == "negative-radicand"


@pytest.mark.parametrize("branch", ["neg-half", "half-down", "half-up", "three-half"])
def test_energy_model1_norm_verdict_matches_wavefn(branch):
    # one predicate decides both records, on every branch (neg-half has B = 0)
    p = gauge.Model1Params.from_branch(0.3, 2.0, branch)
    for n in range(3):
        line = spectra.energy_model1(n, p, 2.0, 1.0)
        assert line.norm_finite is spectra.wavefn_model1(n, p, 2.0).norm_finite


def test_wavefn_model1_prefactor_values():
    wf = spectra.wavefn_model1(0, fig1_params(), 2.0)
    assert wf.eval_raw(0.0) == pytest.approx(1.0, rel=1e-14)
    w_half = math.atanh(0.5)
    assert wf.eval_raw(w_half) == pytest.approx(1.3509600385206135, rel=1e-12)
    assert wf.norm_finite is False
    assert wf.norm_sq is None
    # unnormalized fallback: eval is the raw form
    assert wf.eval(0.3) == wf.eval_raw(0.3)
    for n in range(4):
        _assert_ratio_reads_eval_raw(spectra.wavefn_model1(n, fig1_params(), 2.0), n)


# ------------------------------------------------------------- model 2


def test_energy_model2_frozen_values():
    l0 = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1.0)
    assert l0.E_sq_bar == pytest.approx(113 / 75, abs=1e-12)
    assert l0.E_plus == pytest.approx(math.sqrt(113 / 75), abs=1e-12)
    l1 = spectra.energy_model2(1, 1.0, 1 / 3, 2.0, 1.0)
    assert l1.E_sq_bar == pytest.approx(4.84, abs=1e-12)
    assert l1.E_plus * 1.0 == pytest.approx(2.2, abs=1e-12)
    assert l1.physical


def test_energy_model2_monotone_in_level():
    vals = [spectra.energy_model2(m, 1.0, 1 / 3, 2.0, 1.0).E_sq_bar for m in range(7)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k", [2.0, 3.0, 5.0])
def test_energy_model2_radicand_positive_at_valid_branches(k):
    alpha, beta = gauge.alpha_beta(k, "-", "+")
    for m in range(11):
        assert spectra.energy_model2(m, alpha, beta, k, 1.0).E_sq_bar > 0.0


def test_energy_model2_matched_value():
    p = gauge.model2_derive_params(0.5, 1 / 3 - 1.0, 1 / 3 + 1.0, 2.0)
    assert spectra.energy_model2_matched(0, p) == pytest.approx(8 / 3, rel=1e-13)
    assert spectra.energy_model2_matched(1, p) == pytest.approx(6.0, rel=1e-13)
    assert spectra.energy_model2_matched(2, p) == pytest.approx(34 / 3, rel=1e-13)


def test_wavefn_model2_origin_value():
    wf = spectra.wavefn_model2(0, 1.0, 1 / 3)
    assert wf.eval_raw(0.0) == pytest.approx(0.25, rel=1e-14)
    assert wf.norm_finite


def test_wavefn_model2_normalization():
    for variant in ("classical", "x1"):
        wf = spectra.wavefn_model2(0, 1.0, 1 / 3, polynomial=variant)
        res = specfun.integrate(lambda w: wf.eval(w) ** 2, -25.0, 25.0, tol=1e-9)
        assert res.value == pytest.approx(1.0, abs=1e-7)
        for m in range(4):
            _assert_ratio_reads_eval_raw(spectra.wavefn_model2(m, 1.0, 1 / 3, polynomial=variant), m)


def test_wavefn_model2_envelope_decay():
    alpha, beta = 1.0, 1 / 3
    wf = spectra.wavefn_model2(0, alpha, beta)
    # decay rates e^{-(alpha+1) w} on the right, e^{(beta+1) w} on the left
    r = wf.eval_raw(9.0) / wf.eval_raw(8.0)
    assert math.log(abs(r)) == pytest.approx(-(alpha + 1.0), abs=1e-3)
    l = wf.eval_raw(-9.0) / wf.eval_raw(-8.0)
    assert math.log(abs(l)) == pytest.approx(-(beta + 1.0), abs=1e-3)


def test_wavefn_model2_pole_branch_flagged():
    wf = spectra.wavefn_model2(0, 1.0, -1 / 3)
    assert wf.norm_reason is not None
    assert wf.norm_finite is False
    # denominator zero at tanh w = -1/2
    assert "-0.5" in wf.norm_reason or "0.5" in wf.norm_reason


@pytest.mark.parametrize("polynomial", ["classical", "x1"])
def test_wavefn_model2_raises_on_envelope_pole(polynomial):
    # alpha + beta = 0: the envelope denominator (alpha - beta) t vanishes at
    # w = 0, where the printed form raises as the gauge profile does, rather
    # than returning an infinity; off the pole it samples as before
    wf = spectra.wavefn_model2(1, 0.5, -0.5, polynomial=polynomial)
    with pytest.raises(PoleError):
        wf.eval(np.array([-1.0, 0.0, 1.0]))
    assert np.all(np.isfinite(wf.eval(np.array([-1.0, 1.0]))))


def test_energy_model2_pole_branch_not_physical():
    # (+, -) at k = 0.5: alpha = 2, beta = -2/3, so the envelope denominator
    # has its root in [-1, 1] and no level of the table is normalizable
    line = spectra.energy_model2(0, 2.0, -2 / 3, 0.5, 1.0)
    assert line.radicand_ok and line.norm_finite is False
    assert line.physical is False
    assert line.reason == "divergent-norm"
    assert spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1.0).physical is True


@pytest.mark.parametrize(
    "alpha, beta, reason",
    [(-1.5, -0.5, "(1-t)^alpha is not integrable at t = 1"),
     (-0.5, -1.0, "(1+t)^beta is not integrable at t = -1")],
)
def test_energy_model2_weight_exponent_below_minus_one_not_physical(alpha, beta, reason):
    # alpha*beta > 0 keeps the denominator's root off [-1, 1], but a weight
    # exponent <= -1 still leaves the norm integrand non-integrable at an end
    line = spectra.energy_model2(0, alpha, beta, 2.0, 1.0)
    assert line.norm_finite is False and line.physical is False
    assert line.reason == "divergent-norm" and reason in line.norm_reason


@pytest.mark.parametrize("alpha, beta", [(2.0, -2 / 3), (1.0, 1 / 3), (-0.5, -0.25), (0.5, -0.9)])
def test_energy_model2_norm_verdict_matches_wavefn(alpha, beta):
    line = spectra.energy_model2(0, alpha, beta, 2.0, 1.0)
    assert line.norm_finite is spectra.wavefn_model2(0, alpha, beta).norm_finite


def test_spectral_line_derives_its_verdict():
    line = spectra.SpectralLine(2, 4.0, 2.0, norm_finite=True)
    assert (line.E_plus, line.E_minus, line.physical, line.reason) == (1.0, -1.0, True, None)
    negative = spectra.SpectralLine(0, -1.0, 1.0, norm_finite=False)
    assert negative.E_plus is None and negative.E_minus is None
    assert negative.reason == "negative-radicand" and not negative.physical
    divergent = spectra.SpectralLine(0, 1.0, 1.0, norm_finite=False)
    assert divergent.E_plus == 1.0 and divergent.reason == "divergent-norm" and not divergent.physical


def test_wavefn_model2_rejects_bad_variant():
    with pytest.raises(DomainError):
        spectra.wavefn_model2(0, 1.0, 1 / 3, polynomial="chebyshev")


# --------------------------------------------------------- scaling and pairs


def test_r_scaling_invariance():
    for R in (0.5, 1.0, 2.0, 10.0):
        line = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, R)
        assert line.E_plus * R == pytest.approx(math.sqrt(113 / 75), abs=1e-14)
        assert line.E_minus == -line.E_plus


def test_energy_vanishes_for_large_sphere():
    line = spectra.energy_model2(0, 1.0, 1 / 3, 2.0, 1e6)
    assert abs(line.E_plus) < 1e-5
    line1 = spectra.energy_model1(0, near_critical_params(), 2.0, 1e6)
    assert abs(line1.E_plus) < 1e-5


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=0.1, max_value=1000.0))
def test_e_sq_bar_independent_of_radius(R):
    a = spectra.energy_model2(1, 1.0, 1 / 3, 2.0, R).E_sq_bar
    b = spectra.energy_model2(1, 1.0, 1 / 3, 2.0, 1.0).E_sq_bar
    assert a == b


# ------------------------------------------------------------------ norms


def _mp_weighted(alpha, beta, h):
    """Integral of (1-t)^alpha (1+t)^beta h(t) over [-1, 1] by mpmath tanh-sinh.

    Each half is mapped so the endpoint power becomes smooth: 1 + t = v^(1/(beta+1))
    on [-1, 0] and 1 - t = u^(1/(alpha+1)) on [0, 1]; the weight then cancels
    against the Jacobian (tanh-sinh alone misses (1+t)^-0.9 at the 1e-3 level).
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        left = mp.quad(lambda v: (2 - v ** (1 / (b + 1))) ** a * h(v ** (1 / (b + 1)) - 1), [0, 1])
        right = mp.quad(lambda u: (2 - u ** (1 / (a + 1))) ** b * h(1 - u ** (1 / (a + 1))), [0, 1])
        return float(left / (b + 1) + right / (a + 1))


def _mp_norm_sq(m, alpha, beta, polynomial):
    """Independent norm^2 of the Model-II eigenfunction: the weight (alpha, beta)
    against (poly/den)^2, with mpmath's own Jacobi values."""
    mp = pytest.importorskip("mpmath")
    a, b = mp.mpf(alpha), mp.mpf(beta)

    def poly(t):
        if polynomial == "classical":
            return mp.jacobi(m + 1, a, b, t)
        acc = m * m + (a + b + 1) * m + a * b
        shift = (b + a) / (b - a)
        c = 2 * a * b / (a - b)
        dp = (m + a + b + 1) / 2 * mp.jacobi(m - 1, a + 1, b + 1, t) if m else 0
        return (acc * (t - shift) + c) * mp.jacobi(m, a, b, t) + (1 - t * t) * dp

    return _mp_weighted(alpha, beta, lambda t: (poly(t) / (a + b + (a - b) * t)) ** 2)


@pytest.mark.parametrize("k", [1.05, 1.5, 2.0, 20.0])
@pytest.mark.parametrize("polynomial", ["classical", "x1"])
def test_wavefn_model2_norms_finite_and_exact(k, polynomial):
    # Regression: large norms (k = 20 and k = 1.05, x1 levels m >= 3) used to
    # be reported as divergent because an absolute quadrature tolerance could
    # not be met at that size.
    alpha, beta = gauge.alpha_beta(k, "-", "+")
    w = np.linspace(-40.0, 40.0, 8001)
    for m in range(12):
        wf = spectra.wavefn_model2(m, alpha, beta, polynomial=polynomial)
        assert wf.norm_finite, (m, wf.norm_reason)
        details = wf.norm_details()
        assert wf.norm_reason is None and details["norm_nodes"] >= m + 2
        assert wf.norm_sq == pytest.approx(_mp_norm_sq(m, alpha, beta, polynomial), rel=1e-10)
        # the normalized form has unit norm on the w axis (trapezoid rule)
        assert float(np.sum(wf.eval(w) ** 2) * (w[1] - w[0])) == pytest.approx(1.0, rel=1e-9)
        assert details == {"norm_rule": f"gauss-jacobi (alpha={alpha!r}, beta={beta!r})",
                           "norm_nodes": details["norm_nodes"]}


def test_divergence_reasons_are_analytic():
    wf1 = spectra.wavefn_model1(0, fig1_params(), 2.0)
    assert not wf1.norm_finite
    assert wf1.norm_reason.startswith("s = ") and "t -> 1" in wf1.norm_reason
    assert wf1.norm_details() == {"norm_divergence": wf1.norm_reason}
    wf2 = spectra.wavefn_model2(0, 1.0, -1 / 3)
    assert not wf2.norm_finite and wf2.norm_details() == {"norm_divergence": wf2.norm_reason}
    assert "t = -0.5" in wf2.norm_reason
    # a root on the boundary (beta = 0) is not integrable either
    assert not spectra.wavefn_model2(0, 1.0, 0.0).norm_finite


def test_unresolved_norm_raises_integration_error(monkeypatch):
    # alpha*beta > 0, so each norm is finite.  At m = 0, beta = 1e-9 the pole
    # at t0 ~ -1 - 2e-9 is too close to the interval for any rule within the
    # node cap; at m = 300 the second rule alone (2 (m + 9) nodes) is past the
    # cap.  Either way no rule past the cap is built.
    built, gauss_jacobi = [], specfun.gauss_jacobi
    monkeypatch.setattr(
        specfun, "gauss_jacobi", lambda n, a, b: built.append(n) or gauss_jacobi(n, a, b)
    )
    for m, beta, polynomial in ((0, 1e-9, "classical"), (300, 1 / 3, "x1")):
        built.clear()
        wf = spectra.wavefn_model2(m, 1.0, beta, polynomial=polynomial)
        # the record is built with its analytic verdict alone: no rule yet
        assert wf.norm_finite and not built, (m, built)
        with pytest.raises(IntegrationError) as err:
            wf.norm_sq
        assert built and max(built) <= spectra._NORM_MAX_NODES, (m, built)
        assert err.value.panels <= spectra._NORM_MAX_NODES


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("polynomial", ["classical", "x1"])
def test_norm_is_integrated_once_on_first_read(k, polynomial, monkeypatch):
    # building a record integrates nothing; its first norm read runs the one
    # _weighted_norm call every later read (norm_sq, norm_details(), eval())
    # shares, with the values a direct call gives, bit for bit
    alpha, beta = gauge.alpha_beta(k, "-", "+")
    calls, weighted_norm = [], spectra._weighted_norm

    def counted(*args):
        calls.append(args[1:])
        return weighted_norm(*args)

    monkeypatch.setattr(spectra, "_weighted_norm", counted)
    m = 3
    wf = spectra.wavefn_model2(m, alpha, beta, polynomial=polynomial)
    assert calls == []
    norm_sq, details = wf.norm_sq, wf.norm_details()
    w = np.linspace(-3.0, 3.0, 7)
    values = wf.eval(w)
    assert calls == [(alpha, beta, m + 1)]
    poly = specfun.jacobi if polynomial == "classical" else specfun.x1_jacobi
    direct = weighted_norm(
        lambda t: poly(m + 1, alpha, beta, t) / (alpha + beta + (alpha - beta) * t), alpha, beta, m + 1
    )
    assert norm_sq == direct["norm_sq"]
    assert details == {"norm_rule": direct["norm_rule"], "norm_nodes": direct["norm_nodes"]}
    assert np.array_equal(values, (1.0 / math.sqrt(direct["norm_sq"])) * wf.eval_raw(w))
