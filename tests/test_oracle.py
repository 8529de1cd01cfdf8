import json
import math

import numpy as np
import pytest

from dirac_sphere import gauge, oracle, spectra
from dirac_sphere.errors import DomainError, SingularPotentialError, ZeroModeError

ONES = lambda w: np.ones_like(np.asarray(w, dtype=float))
ZERO = lambda w: np.zeros_like(np.asarray(w, dtype=float))
COSH2 = lambda w: np.cosh(np.asarray(w, dtype=float)) ** 2


def box_matrix(N):
    return oracle.build_sl_matrix(ONES, ZERO, oracle.Grid(math.pi / 2, N))


def m2_params(C1=0.5, k=2.0):
    alpha, beta = gauge.alpha_beta(k, "-", "+")
    return gauge.model2_derive_params(C1, beta - alpha, beta + alpha, k)


def test_grid_validation():
    with pytest.raises(DomainError):
        oracle.Grid(0.0, 100)
    with pytest.raises(DomainError):
        oracle.Grid(1.0, 2)
    for L in (math.inf, math.nan):
        with pytest.raises(DomainError):
            oracle.Grid(L, 5)
    g = oracle.Grid(2.0, 399)
    assert g.h == pytest.approx(4.0 / 400)
    assert len(g.points()) == 399


def test_box_eigenvalues():
    pairs = oracle.eig_lowest(box_matrix(1999), 3)
    vals = [v for v, _ in pairs]
    assert vals == pytest.approx([1.0, 4.0, 9.0], abs=1e-3)


def test_box_refinement_ratio():
    exact = np.array([1.0, 4.0, 9.0])
    v1 = np.array([v for v, _ in oracle.eig_lowest(box_matrix(499), 3)])
    v2 = np.array([v for v, _ in oracle.eig_lowest(box_matrix(999), 3)])
    ratio = (v1 - exact) / (v2 - exact)
    assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


def test_eigenvector_normalization_and_orthogonality():
    grid = oracle.Grid(math.pi / 2, 799)
    m = oracle.build_sl_matrix(ONES, ZERO, grid)
    pairs = oracle.eig_lowest(m, 4)
    for i, (_, vi) in enumerate(pairs):
        assert grid.h * np.dot(vi, vi) == pytest.approx(1.0, rel=1e-12)
        # deterministic sign: first appreciable component positive
        nz = np.nonzero(np.abs(vi) > 1e-12 * np.abs(vi).max())[0]
        assert vi[nz[0]] > 0
        for j, (_, vj) in enumerate(pairs):
            if i < j:
                assert abs(grid.h * np.dot(vi, vj)) < 1e-10


def test_curved_kinetic_matrix_nonnegative():
    m = oracle.build_sl_matrix(COSH2, ZERO, oracle.Grid(6.0, 801))
    vals = oracle.eig_lowest(m, 3)
    assert vals[0][0] > 0.0


def test_matrix_symmetry_is_structural():
    m = oracle.build_sl_matrix(COSH2, ZERO, oracle.Grid(4.0, 301))
    d = m.dense()
    assert np.abs(d - d.T).max() == 0.0


def test_truncation_stability_bound_state():
    # -phi'' - 5 sech^2(w) phi with flat kinetic term: one deep bound state
    q = lambda w: -5.0 / np.cosh(np.asarray(w, dtype=float)) ** 2
    h = 0.005
    vals = []
    for L in (12.0, 14.0):
        N = int(round(2 * L / h)) - 1
        m = oracle.build_sl_matrix(ONES, q, oracle.Grid(L, N))
        vals.append(oracle.eig_lowest(m, 1)[0][0])
    assert abs(vals[0] - vals[1]) < 1e-6


def test_singular_potential_rejected():
    p = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)  # pole inside
    pot = gauge.v_eff_model2(p, 1)
    with pytest.raises(SingularPotentialError) as err:
        oracle.build_sl_matrix(COSH2, pot.fn, oracle.Grid(6.0, 801), q_poles=pot.poles)
    assert err.value.location == pytest.approx(math.atanh(-0.5), rel=1e-12)


def test_nonfinite_potential_rejected():
    def q(w):
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        out[np.abs(w - 1.0) < 1e-3] = np.inf
        return out

    with pytest.raises(SingularPotentialError):
        oracle.build_sl_matrix(ONES, q, oracle.Grid(2.0, 1999))


# ----------------------------------------------------------- factorization


def test_compose_isospectrality_model_profiles():
    grid = oracle.Grid(4.0, 401)
    a1 = gauge.a_u_model1(gauge.Model1Params.from_branch(0.4, 2.0, "half-up"))
    m1, m2 = oracle.compose_factorized(a1, 2.0, grid)
    metric, floor, _ = oracle.isospectrality_metric(m1, m2)
    assert metric <= 1e-8
    a2 = gauge.a_u_model2(m2_params())
    m1, m2 = oracle.compose_factorized(a2, 2.0, grid)
    metric, _, _ = oracle.isospectrality_metric(m1, m2)
    assert metric <= 1e-8


def test_compose_trivial_profile_identical_spectra():
    # A == k with the bare convention: D is the pure first-difference kinetic
    # factor, so both compositions have identical spectra
    grid = oracle.Grid(3.0, 199)
    conv = oracle.FactorizationConvention(half_sinh=False)
    k = 1.3
    m1, m2 = oracle.compose_factorized(
        lambda w: np.full_like(np.asarray(w, dtype=float), k), k, grid, conv
    )
    s1, s2 = oracle.eig_values(m1), oracle.eig_values(m2)
    assert np.abs(s1 - s2).max() <= 1e-10 * max(1.0, np.abs(s1).max())


def test_compose_matches_dense_composition():
    grid = oracle.Grid(3.0, 101)
    a = gauge.a_u_model1(gauge.Model1Params.from_branch(0.3, 1.0, "neg-half"))
    m1, m2 = oracle.compose_factorized(a, 1.0, grid)
    from dirac_sphere.oracle import _first_order_diagonals

    fa, fb, fc = _first_order_diagonals(a, 1.0, grid, oracle.FactorizationConvention())
    D = np.diag(fa) + np.diag(fb, 1) + np.diag(fc, -1)
    assert np.abs(m1.dense() - D @ D.T).max() <= 1e-9
    assert np.abs(m2.dense() - D.T @ D).max() <= 1e-9


# ----------------------------------------------------------- residuals


def test_verify_eigenpair_box_mode():
    L, N = math.pi / 2, 3999
    grid = oracle.Grid(L, N)
    lam = (math.pi / (2 * L)) ** 2
    phi = lambda w: np.sin(math.pi * (np.asarray(w, dtype=float) + L) / (2 * L))
    res = oracle.verify_eigenpair(ZERO, phi, lam, grid, p_fn=ONES)
    assert res <= 1e-5


def test_verify_eigenpair_negative_control():
    grid = oracle.Grid(math.pi / 2, 999)
    lam = (math.pi / (2 * grid.L)) ** 2
    rng = np.random.default_rng(3)
    noise = rng.normal(size=grid.N)
    res = oracle.verify_eigenpair(ZERO, noise, lam, grid, p_fn=ONES)
    assert res > 1e-2


def test_verify_eigenpair_x1_candidate():
    # the rational-extension eigenfunction solves the closed potential at the
    # identity-implied level, not at the printed one
    p = m2_params()
    pot = gauge.v_eff_model2(p, 1)
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="x1")
    grid = oracle.Grid(12.0, 4001)
    matched = spectra.energy_model2_matched(0, p)
    res_good = oracle.verify_eigenpair(pot, wf, matched, grid, window=8.0)
    res_bad = oracle.verify_eigenpair(
        pot, wf, spectra.energy_model2(0, p.alpha, p.beta, 2.0, 1.0).E_sq_bar, grid, window=8.0
    )
    assert res_good < 5e-3
    assert res_bad > 0.5


def test_derive_partner_component():
    p = m2_params()
    grid = oracle.Grid(12.0, 4001)
    pot1 = gauge.v_eff_model2(p, 1)
    m = oracle.build_sl_matrix(COSH2, pot1.fn, grid, q_poles=pot1.poles)
    lam, vec = oracle.eig_lowest(m, 1)[0]
    E = math.sqrt(abs(lam))
    a = gauge.a_u_model2(p)
    partner = oracle.derive_partner_component(vec, E, a, 2.0, 1.0, grid)
    assert partner.component == 2
    assert partner.norm_sq is not None and np.isfinite(partner.norm_sq)
    # global phase leaves the norm unchanged
    partner_neg = oracle.derive_partner_component(-vec, E, a, 2.0, 1.0, grid)
    assert partner_neg.norm_sq == pytest.approx(partner.norm_sq, rel=1e-12)
    with pytest.raises(ZeroModeError):
        oracle.derive_partner_component(vec, 0.0, a, 2.0, 1.0, grid)


def test_derive_partner_sign_convention_flips():
    p = m2_params()
    grid = oracle.Grid(6.0, 801)
    a = gauge.a_u_model2(p)
    phi = lambda w: np.exp(-np.asarray(w, dtype=float) ** 2)
    base = oracle.derive_partner_component(phi, 1.0, a, 2.0, 1.0, grid)
    flipped = oracle.derive_partner_component(
        phi, 1.0, a, 2.0, 1.0, grid,
        convention=oracle.FactorizationConvention(sign_k=-1, sign_A=1, half_sinh=True),
    )
    w = grid.points()
    assert not np.allclose(base.eval(w), flipped.eval(w))


# ----------------------------------------------------------- reports


def test_report_deterministic():
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    grid = oracle.Grid(8.0, 1201)
    r1 = oracle.consistency_report(1, p, 2.0, 1.0, grid, levels=2)
    r2 = oracle.consistency_report(1, p, 2.0, 1.0, grid, levels=2)
    assert json.dumps(r1.as_dict()) == json.dumps(r2.as_dict())


def test_report_model_mismatch_rejected():
    p = m2_params()
    with pytest.raises(DomainError):
        oracle.consistency_report(1, p, 2.0, 1.0, oracle.Grid(6.0, 801))
    with pytest.raises(DomainError):
        oracle.consistency_report(2, p, 3.0, 1.0, oracle.Grid(6.0, 801))


def test_report_aborts_on_singular_branch():
    p = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)
    with pytest.raises(SingularPotentialError):
        oracle.consistency_report(2, p, 2.0, 1.0, oracle.Grid(6.0, 801), levels=2)


def test_report_corrupt_hook_fails_forced_claim():
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    rep = oracle.consistency_report(
        1, p, 2.0, 1.0, oracle.Grid(6.0, 801), levels=2, corrupt_forced=True
    )
    assert rep.forced_failures()
    bad = {c.claim_id for c in rep.forced_failures()}
    assert "f.isospectrality" in bad or "f.matrix-symmetry" in bad


def test_derive_partner_model1_physical_case():
    # near-critical Model-I level: partner has finite norm; its residual
    # against the second-component closed potential is computable (recorded,
    # not asserted small)
    p = gauge.Model1Params.from_branch(0.4999, 2.0, "half-down")
    grid = oracle.Grid(12.0, 4001)
    pot1 = gauge.v_eff_model1(p, 2.0, 1)
    m = oracle.build_sl_matrix(COSH2, pot1.fn, grid)
    lam, vec = oracle.eig_lowest(m, 1)[0]
    E = math.sqrt(abs(lam))
    partner = oracle.derive_partner_component(
        vec, E, gauge.a_u_model1(p), 2.0, 1.0, grid
    )
    assert partner.norm_sq is not None and math.isfinite(partner.norm_sq)
    pot2 = gauge.v_eff_model1(p, 2.0, 2)
    res = oracle.verify_eigenpair(pot2, partner, lam, grid, window=8.0)
    assert math.isfinite(res)


@pytest.mark.parametrize("model", [1, 2])
def test_report_residuals_match_verify_eigenpair_bitwise(model):
    # the report reuses its assembled j=1 matrix and one sampled vector per
    # wavefunction; the numbers must be exactly those of the public routine
    k, R, grid = 2.0, 1.0, oracle.Grid(8.0, 801)
    if model == 1:
        p = gauge.Model1Params.from_branch(0.4, k, "half-up")
        pot = gauge.v_eff_model1(p, k, 1)
    else:
        p = m2_params(C1=1 / k, k=k)
        pot = gauge.v_eff_model2(p, 1)
    rep = oracle.consistency_report(model, p, k, R, grid, levels=3)
    for m in range(3):
        if model == 1:
            claim = rep.claim(f"d.eigenfunction.m{m}")
            wf = spectra.wavefn_model1(m, p, k)
            assert claim.metric == oracle.verify_eigenpair(pot, wf, claim.details["lambda"], grid, window=8.0)
            assert "norm_divergence" in claim.details
            continue
        for variant in ("classical", "x1"):
            claim = rep.claim(f"d.eigenfunction.{variant}.m{m}")
            wf = spectra.wavefn_model2(m, p.alpha, p.beta, polynomial=variant)
            d = claim.details
            assert claim.metric == oracle.verify_eigenpair(pot, wf, d["lambda_printed"], grid, window=8.0)
            assert d["residual_at_identity_energy"] == oracle.verify_eigenpair(
                pot, wf, d["lambda_identity"], grid, window=8.0
            )
            assert d["norm_rule"].startswith("gauss-jacobi") and d["norm_nodes"] == wf.norm_nodes


_SHARED_HEAD = [
    ("f.matrix-symmetry", ()),
    ("f.isospectrality", ("zero_floor", "n_below_floor")),
    ("conventions.factorization-match", ("per_convention", "best_convention")),
    ("a.veff1-expansion", ("additive_constant",)),
    ("b.veff1-constrained", ("additive_constant",)),
    ("b.veff2-constrained", ("additive_constant",)),
]
_PARTNER = ("e1", "e2_shifted", "unshifted_deviation")
_M2_EIGEN = (
    "lambda_printed", "residual_at_identity_energy", "lambda_identity",
    "window", "norm_finite", "norm_rule", "norm_nodes",
)
_REPORT_LAYOUT = {
    1: _SHARED_HEAD
    + [(f"c.spectrum.m{n}", ("closed_form", "oracle", "radicand_ok")) for n in range(3)]
    + [(f"d.eigenfunction.m{n}", ("lambda", "window", "norm_finite", "norm_divergence")) for n in range(3)]
    + [("e.partner.m1", _PARTNER), ("e.partner.m2", _PARTNER)]
    + [("g.local-energy-constancy", ("mean_local_energy", "closed_form_level0"))],
    2: _SHARED_HEAD
    + [
        (f"c.spectrum.m{n}", ("closed_form", "oracle", "identity_matched", "oracle_minus_matched"))
        for n in range(3)
    ]
    + [(f"d.eigenfunction.{v}.m{n}", _M2_EIGEN) for n in range(3) for v in ("classical", "x1")]
    + [("e.partner.m1", _PARTNER), ("e.partner.m2", _PARTNER)]
    + [
        (f"g.midya-rhs.{v}", ("implied_level0", "printed_level0", "implied_minus_printed"))
        for v in ("sech2", "sech1")
    ],
}


@pytest.mark.parametrize("model", [1, 2])
def test_report_layout_pinned(model):
    # claim ids, their order and the order of keys inside details are the
    # report's format; numbers are left to the value tests
    k = 2.0
    if model == 1:
        p = gauge.Model1Params.from_branch(0.4, k, "half-up")
    else:
        p = m2_params(C1=1 / k, k=k)
    rep = oracle.consistency_report(model, p, k, 1.0, oracle.Grid(8.0, 801), levels=3)
    layout = [(c["claim_id"], tuple(c["details"])) for c in rep.as_dict()["claims"]]
    assert layout == _REPORT_LAYOUT[model]
