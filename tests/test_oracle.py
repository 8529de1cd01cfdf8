import json
import math
import re
import sys

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dirac_sphere import gauge, oracle, spectra
from dirac_sphere.errors import ConstraintError, DomainError, SingularPotentialError

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ONES = lambda w: np.ones_like(np.asarray(w, dtype=float))
ZERO = lambda w: np.zeros_like(np.asarray(w, dtype=float))
COSH2 = lambda w: np.cosh(np.asarray(w, dtype=float)) ** 2


def box_matrix(N):
    return oracle.build_sl_matrix(ONES, ZERO, oracle.Grid(math.pi / 2, N))


def entry_scale(m):
    """Largest |entry| of a tridiagonal SLMatrix."""
    return max(np.abs(m.diag).max(), np.abs(m.off).max())


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
    vals = oracle.eig_lowest(box_matrix(1999), 3)
    assert vals == pytest.approx([1.0, 4.0, 9.0], abs=1e-3)


def test_box_refinement_ratio():
    exact = np.array([1.0, 4.0, 9.0])
    v1 = oracle.eig_lowest(box_matrix(499), 3)
    v2 = oracle.eig_lowest(box_matrix(999), 3)
    ratio = (v1 - exact) / (v2 - exact)
    assert np.all(ratio > 3.5) and np.all(ratio < 4.5)


def test_eig_lowest_matches_eigenpair_solve_bitwise():
    # the report's levels rest on this: asking for eigenvalues only returns
    # exactly the eigenvalues of scipy's eigenpair solve of the same selection
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    closed1 = gauge.v_eff_model1(p, 2.0, 1)
    m1 = oracle.build_sl_matrix(COSH2, closed1, oracle.Grid(12.0, 4001))
    for m, count in ((box_matrix(1999), 3), (m1, 4)):
        vals = oracle.eig_lowest(m, count)
        ref = eigh_tridiagonal(m.diag, m.off, select="i", select_range=(0, count - 1))[0]
        assert vals.shape == (count,) and np.array_equal(vals, ref)
    # the full spectra f.isospectrality compares: the N=401/402 compositions,
    # one config per model, equal to scipy's eigenvalue-only solve
    for params in (p, m2_params(C1=1 / 2.0, k=2.0)):
        spec = oracle.model_spec(params, 2.0, 1.0)
        for m in oracle.compose_factorized(spec.A, 2.0, oracle._COMPOSE_GRID):
            ref = eigh_tridiagonal(m.diag, m.off, eigvals_only=True)
            assert np.array_equal(oracle.eig_values(m), ref)


@pytest.mark.parametrize("band, value", [("diag", math.nan), ("off", math.inf)])
def test_solves_refuse_non_finite_bands(band, value):
    m = box_matrix(99)
    getattr(m, band)[10] = value
    for solve in (lambda m: oracle.eig_lowest(m, 3), oracle.eig_values):
        with pytest.raises(DomainError, match="not finite"):
            solve(m)


def test_solves_refuse_lapack_failure(lapack_failure):
    m = box_matrix(99)
    with pytest.raises(DomainError, match=r"dstebz failed \(info=1\)"):
        oracle.eig_lowest(m, 3)
    with pytest.raises(DomainError, match=r"dstevd failed \(info=1\)"):
        oracle.eig_values(m)


def test_missing_lapack_extension_names_its_path(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        oracle.eig_values(box_matrix(9))


def _closed_matrix(pot, grid, poles=()):
    return oracle.build_sl_matrix(COSH2, pot, grid, q_poles=poles)


def test_bisection_tol_bounds_eig_lowest():
    # the default tolerance, not the grid, limits the report's oracle levels:
    # each level lies within bisection_tol of a solve to 1e-11
    k, default = 2.0, oracle.Grid(12.0, 4001)
    p1 = gauge.Model1Params.from_branch(0.4, k, "half-up")
    p2 = m2_params(C1=1 / k, k=k)
    cases = [(gauge.v_eff_model1(p1, k, j), default, ()) for j in (1, 2)]
    cases += [(gauge.v_eff_model2(p2, j), default, p2.poles) for j in (1, 2)]
    cases += [(gauge.v_eff_model1(p1, k, 1), oracle.Grid(12.0, 16001), ())]
    for pot, grid, poles in cases:
        m = _closed_matrix(pot, grid, poles)
        tol = oracle.bisection_tol(m)
        tight = eigh_tridiagonal(
            m.diag, m.off, eigvals_only=True, select="i", select_range=(0, 7), tol=1e-11
        )
        assert np.abs(oracle.eig_lowest(m, 8) - tight).max() <= tol
    assert oracle.bisection_tol(_closed_matrix(cases[0][0], default)) == pytest.approx(0.16, rel=0.01)


def test_eig_lowest_count_range():
    m = box_matrix(99)
    for count in (0, m.order + 1):
        with pytest.raises(DomainError):
            oracle.eig_lowest(m, count)


def test_curved_kinetic_matrix_nonnegative():
    m = oracle.build_sl_matrix(COSH2, ZERO, oracle.Grid(6.0, 801))
    vals = oracle.eig_lowest(m, 3)
    assert vals[0] > 0.0


def test_truncation_stability_bound_state():
    # -phi'' - 5 sech^2(w) phi with flat kinetic term: one deep bound state
    q = lambda w: -5.0 / np.cosh(np.asarray(w, dtype=float)) ** 2
    h = 0.005
    vals = []
    for L in (12.0, 14.0):
        N = int(round(2 * L / h)) - 1
        m = oracle.build_sl_matrix(ONES, q, oracle.Grid(L, N))
        vals.append(oracle.eig_lowest(m, 1)[0])
    assert abs(vals[0] - vals[1]) < 1e-6


def test_singular_potential_rejected():
    p = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)  # pole inside
    pot = gauge.v_eff_model2(p, 1)
    with pytest.raises(SingularPotentialError) as err:
        oracle.build_sl_matrix(COSH2, pot, oracle.Grid(6.0, 801), q_poles=p.poles)
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


def test_compose_zero_f_profile_is_flux_kinetic():
    # A = k - tanh(w)/2 makes f = cosh (A - k) + sinh/2 vanish, so Dt*D is the
    # bare flux-form kinetic operator on the nodes
    grid = oracle.Grid(3.0, 199)
    k = 1.3
    a = lambda w: k - 0.5 * np.tanh(np.asarray(w, dtype=float))
    dtd, ddt = oracle.compose_factorized(a, k, grid)
    kin = oracle.build_sl_matrix(COSH2, ZERO, grid)
    assert dtd.order == grid.N and ddt.order == grid.N + 1
    scale = entry_scale(kin)
    assert np.abs(dtd.diag - kin.diag).max() <= 1e-12 * scale
    assert np.abs(dtd.off - kin.off).max() <= 1e-12 * scale


def test_compose_matches_dense_composition():
    grid = oracle.Grid(3.0, 101)
    a = gauge.a_u_model1(gauge.Model1Params.from_branch(0.3, 1.0, "neg-half"))
    dtd, ddt = oracle.compose_factorized(a, 1.0, grid)
    # D from its defining stencil: cosh (phi_{j+1} - phi_j)/h + f (phi_j + phi_{j+1})/2
    # at the half points, phi = 0 on the walls
    wh = grid.half_points()
    f = np.cosh(wh) * (a(wh) - 1.0) + 0.5 * np.sinh(wh)
    D = np.zeros((grid.N + 1, grid.N))
    for r in range(grid.N + 1):
        if r < grid.N:
            D[r, r] = np.cosh(wh[r]) / grid.h + f[r] / 2
        if r > 0:
            D[r, r - 1] = -np.cosh(wh[r]) / grid.h + f[r] / 2

    def dense(m):
        return np.diag(m.diag) + np.diag(m.off, 1) + np.diag(m.off, -1)

    scale = entry_scale(dtd)
    assert np.abs(dense(dtd) - D.T @ D).max() <= 1e-13 * scale
    assert np.abs(dense(ddt) - D @ D.T).max() <= 1e-13 * scale


def test_matrix_symmetry_checks_products():
    # the forced product check sees one wrong band entry wherever it sits: the
    # first, middle or last entry of either band of either composition
    grid = oracle.Grid(4.0, 401)
    a = gauge.a_u_model1(gauge.Model1Params.from_branch(0.4, 2.0, "half-up"))
    dtd, ddt = oracle.compose_factorized(a, 2.0, grid)
    assert oracle._product_defect(a, 2.0, grid, dtd, ddt) <= 1e-13
    for which in (0, 1):
        for band in ("diag", "off"):
            size = getattr((dtd, ddt)[which], band).size
            for i in (0, size // 2, size - 1):
                pair = oracle.compose_factorized(a, 2.0, grid)
                getattr(pair[which], band)[i] *= 1.0 + 1e-6
                defect = oracle._product_defect(a, 2.0, grid, *pair)
                assert defect > 1e-10, (which, band, i, defect)


def test_isospectrality_counts_one_kernel_vector():
    grid = oracle.Grid(4.0, 401)
    a = gauge.a_u_model2(m2_params())
    dtd, ddt = oracle.compose_factorized(a, 2.0, grid)
    metric, floor, n_below = oracle.isospectrality_metric(dtd, ddt)
    assert metric <= 1e-8 and n_below == 1
    # one more row without one more kernel vector fails outright
    padded = oracle.SLMatrix(np.append(dtd.diag, 1e3), np.append(dtd.off, 0.0))
    metric, _, _ = oracle.isospectrality_metric(dtd, padded)
    assert metric == math.inf
    with pytest.raises(DomainError):
        oracle.isospectrality_metric(
            dtd, oracle.SLMatrix(np.zeros(grid.N + 2), np.zeros(grid.N + 1))
        )


@pytest.mark.parametrize("branch", ["neg-half", "half-up"])
def test_factorization_match_second_order(branch):
    # Dt*D against the flux-form j=1 operator of the general potential: the
    # one-to-one gap of the five lowest eigenvalues is a discretization error
    # and falls like h^2
    p = gauge.Model1Params.from_branch(0.4, 2.0, branch)
    a, da = gauge.a_u_model1(p), gauge.da_u_model1(p)
    v1 = gauge.v_eff_general(a, da, 2.0, 1)
    gaps = []
    for n in (801, 1603):
        grid = oracle.Grid(6.0, n)
        dtd, _ = oracle.compose_factorized(a, 2.0, grid)
        got = oracle.eig_lowest(dtd, 5)
        sl1 = oracle.build_sl_matrix(COSH2, v1.fn, grid)
        ref = oracle.eig_lowest(sl1, 5)
        gaps.append(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
    assert gaps[0] <= 2e-4
    assert gaps[0] >= 3.5 * gaps[1]


# ----------------------------------------------------------- residuals


def test_verify_eigenpair_box_mode():
    L, N = math.pi / 2, 3999
    grid = oracle.Grid(L, N)
    lam = (math.pi / (2 * L)) ** 2
    phi = np.sin(math.pi * (grid.points() + L) / (2 * L))
    m = oracle.build_sl_matrix(ONES, ZERO, grid)
    (res,) = oracle.verify_eigenpair(m, grid, phi, [lam])
    assert res <= 1e-5


def test_verify_eigenpair_negative_control():
    grid = oracle.Grid(math.pi / 2, 999)
    lam = (math.pi / (2 * grid.L)) ** 2
    rng = np.random.default_rng(3)
    noise = rng.normal(size=grid.N)
    m = oracle.build_sl_matrix(ONES, ZERO, grid)
    (res,) = oracle.verify_eigenpair(m, grid, noise, [lam])
    assert res > 1e-2
    # the routine refuses a vector it cannot judge
    w = grid.points()
    for vec, window, message in (
        (noise[:-1], None, "shape"),
        (np.where(w == w[grid.N // 2], np.nan, noise), None, "not finite"),
        (np.zeros(grid.N), None, "identically"),
        (np.where(np.abs(w) > 0.5, noise, 0.0), 0.5, "residual window"),
    ):
        with pytest.raises(DomainError, match=message):
            oracle.verify_eigenpair(m, grid, vec, [lam], window=window)


def test_verify_eigenpair_x1_candidate():
    # the rational-extension eigenfunction solves the closed potential at the
    # identity-implied level, not at the printed one
    p = m2_params()
    pot = gauge.v_eff_model2(p, 1)
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="x1")
    grid = oracle.Grid(12.0, 4001)
    m = oracle.build_sl_matrix(COSH2, pot, grid, q_poles=p.poles)
    matched = spectra.energy_model2_matched(0, p)
    printed = spectra.energy_model2(0, p.alpha, p.beta, 2.0, 1.0).E_sq_bar
    res_good, res_bad = oracle.verify_eigenpair(
        m, grid, wf.eval(grid.points()), [matched, printed], window=8.0
    )
    assert res_good < 5e-3
    assert res_bad > 0.5


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
    # half-up parameters at k = 2 sit on the half-down branch at k = 4
    p1 = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    with pytest.raises(ConstraintError):
        oracle.consistency_report(1, p1, 4.0, 1.0, oracle.Grid(6.0, 801))


def test_report_aborts_on_singular_branch():
    p = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)
    with pytest.raises(SingularPotentialError):
        oracle.consistency_report(2, p, 2.0, 1.0, oracle.Grid(6.0, 801), levels=2)


def test_report_corrupt_hook_fails_forced_claim(forced_fault):
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    rep = oracle.consistency_report(1, p, 2.0, 1.0, oracle.Grid(6.0, 801), levels=2)
    bad = {c.claim_id for c in rep.forced_failures()}
    assert bad == {"f.isospectrality", "f.matrix-symmetry"}


@pytest.mark.parametrize("model, levels", [(1, 3), (2, 3), (1, 1)])
def test_report_partner_claims(model, levels):
    # e.partner.mN pairs the c.* oracle level N of j=1 with level N-1 of j=2
    k, grid = 2.0, oracle.Grid(6.0, 801)
    p = gauge.Model1Params.from_branch(0.4, k, "half-up") if model == 1 else m2_params(C1=1 / k, k=k)
    rep = oracle.consistency_report(model, p, k, 1.0, grid, levels=levels)
    partners = [c for c in rep.claims if c.claim_id.startswith("e.")]
    assert [c.claim_id for c in partners] == [f"e.partner.m{m}" for m in range(1, levels)]
    spec = oracle.model_spec(p, k, 1.0)
    tol1 = oracle.bisection_tol(_closed_matrix(spec.closed1, grid, spec.poles))
    tol2 = oracle.bisection_tol(_closed_matrix(spec.closed2, grid, spec.poles))
    for n in range(levels):
        assert rep.claim(f"c.spectrum.m{n}").details["oracle_tol"] == tol1
    for m, c in enumerate(partners, start=1):
        assert c.details["e1"] == rep.claim(f"c.spectrum.m{m}").details["oracle"]
        assert c.metric == abs(c.details["e1"] - c.details["e2_shifted"])
        assert c.details["oracle_tol"] == max(tol1, tol2)


@pytest.mark.parametrize("model", [1, 2])
def test_report_residuals_match_verify_eigenpair_bitwise(model, monkeypatch):
    # the report reuses its assembled j=1 matrix and one sampled vector per
    # wavefunction, through the public routine: one call per level and
    # reading, and exactly the numbers of a call on a matrix built here
    k, R, grid = 2.0, 1.0, oracle.Grid(8.0, 801)
    if model == 1:
        p = gauge.Model1Params.from_branch(0.4, k, "half-up")
        m1 = _closed_matrix(gauge.v_eff_model1(p, k, 1), grid)
    else:
        p = m2_params(C1=1 / k, k=k)
        m1 = _closed_matrix(gauge.v_eff_model2(p, 1), grid, p.poles)
    routine, calls = oracle.verify_eigenpair, []

    def counted(*args, **kwargs):
        calls.append(args)
        return routine(*args, **kwargs)

    monkeypatch.setattr(oracle, "verify_eigenpair", counted)
    rep = oracle.consistency_report(model, p, k, R, grid, levels=3)
    assert len(calls) == (3 if model == 1 else 6)

    def residual(wf, lam):
        return routine(m1, grid, wf.eval(grid.points()), [lam], window=8.0)[0]

    for m in range(3):
        if model == 1:
            claim = rep.claim(f"d.eigenfunction.m{m}")
            wf = spectra.wavefn_model1(m, p, k)
            assert claim.metric == residual(wf, claim.details["lambda"])
            assert "norm_divergence" in claim.details
            continue
        for variant in ("classical", "x1"):
            claim = rep.claim(f"d.eigenfunction.{variant}.m{m}")
            wf = spectra.wavefn_model2(m, p.alpha, p.beta, polynomial=variant)
            d = claim.details
            assert claim.metric == residual(wf, d["lambda_printed"])
            assert d["residual_at_identity_energy"] == residual(wf, d["lambda_identity"])
            assert d["norm_rule"].startswith("gauss-jacobi") and d["norm_nodes"] == wf.norm_nodes


_SHARED_HEAD = [
    ("f.matrix-symmetry", ()),
    ("f.isospectrality", ("zero_floor", "n_below_floor")),
    ("conventions.factorization-match", ("convention", "match_j2")),
    ("a.veff1-expansion", ("additive_constant",)),
    ("b.veff1-constrained", ("additive_constant",)),
    ("b.veff2-constrained", ("additive_constant",)),
]
_PARTNER = ("e1", "e2_shifted", "unshifted_deviation", "oracle_tol")
_M2_EIGEN = (
    "lambda_printed", "residual_at_identity_energy", "lambda_identity",
    "window", "norm_finite", "norm_rule", "norm_nodes",
)
_REPORT_LAYOUT = {
    1: _SHARED_HEAD
    + [(f"c.spectrum.m{n}", ("closed_form", "oracle", "radicand_ok", "oracle_tol")) for n in range(3)]
    + [(f"d.eigenfunction.m{n}", ("lambda", "window", "norm_finite", "norm_divergence")) for n in range(3)]
    + [("e.partner.m1", _PARTNER), ("e.partner.m2", _PARTNER)]
    + [("g.local-energy-constancy", ("mean_local_energy", "closed_form_level0"))],
    2: _SHARED_HEAD
    + [
        (
            f"c.spectrum.m{n}",
            ("closed_form", "oracle", "identity_matched", "oracle_minus_matched", "oracle_tol"),
        )
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
    claims = rep.as_dict()["claims"]
    layout = [(c["claim_id"], tuple(c["details"])) for c in claims]
    assert layout == _REPORT_LAYOUT[model]
    # each claim record carries the same keys in the same order; only the
    # forced and the constancy claims have a threshold
    for c in claims:
        assert list(c) == _CLAIM_KEYS, c["claim_id"]
        family = c["claim_id"].split(".")[0]
        if family in ("f", "a", "b"):
            assert isinstance(c["tolerance"], float), c["claim_id"]
        else:
            assert family in ("conventions", "c", "d", "e", "g") and c["tolerance"] is None


_CLAIM_KEYS = ["claim_id", "paper_ref", "description", "metric", "tolerance", "verdict", "grid", "details"]


@pytest.mark.parametrize(
    "claim_id, metric, tolerance, verdict",
    [
        ("f.x", 1e-8, 1e-8, "pass"),
        ("f.x", 1.5e-8, 1e-8, "fail"),
        ("f.x", math.nan, 1e-8, "fail"),
        ("f.x", math.inf, 1e-8, "fail"),
        ("a.x", 1.0, 1e-9, "recorded"),
        ("c.x", 0.0, None, "recorded"),
        ("g.x", math.nan, None, "recorded"),
    ],
)
def test_claim_decides_its_verdict(claim_id, metric, tolerance, verdict):
    c = oracle.Claim(claim_id, "ref", "desc", metric, grid={}, tolerance=tolerance)
    assert c.verdict == verdict
    assert c.as_dict()["verdict"] == verdict
