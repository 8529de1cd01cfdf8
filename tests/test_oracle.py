import _thread
import collections
import copy
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from dirac_sphere import gauge, oracle, spectra
from dirac_sphere.errors import DomainError, PoleError

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
    # asking for the lowest eigenvalues returns exactly the first ones of the
    # full spectrum, which equals scipy's eigenvalue-only solve bit for bit
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    closed1 = gauge.v_eff_model1(p, 2.0, 1)
    m1 = oracle.build_sl_matrix(COSH2, closed1, oracle.Grid(12.0, 4001))
    for m, count in ((box_matrix(1999), 3), (m1, 4)):
        every = oracle.eig_values(m)
        vals = oracle.eig_lowest(m, count)
        assert vals.shape == (count,) and np.array_equal(vals, every[:count])
        assert np.array_equal(every, eigh_tridiagonal(m.diag, m.off, eigvals_only=True))
    # the full spectra f.isospectrality compares: the N=401/402 compositions,
    # one config per model, equal to scipy's eigenvalue-only solve
    for params in (p, m2_params(C1=1 / 2.0, k=2.0)):
        spec = oracle.model_spec(params, 2.0, 1.0)
        for m in oracle.compose_factorized(spec.A, 2.0, oracle._COMPOSE_GRID):
            ref = eigh_tridiagonal(m.diag, m.off, eigvals_only=True)
            assert np.array_equal(oracle.eig_values(m), ref)


def test_eig_lowest_resolves_graded_levels():
    # the closed j=1 potential on |w| <= 12: the cosh^2 kinetic term grades
    # the diagonal from 6e4 at the centre to 4e14 at the walls, so a solve
    # that stops at an absolute tolerance of eps times the largest
    # Gershgorin bound (about 0.1), as bisection at its default tolerance
    # does, blurs levels of order one; the lowest three stay within 1e-3
    # relative of scipy's MRRR solve (stemr)
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    m = oracle.build_sl_matrix(COSH2, gauge.v_eff_model1(p, 2.0, 1), oracle.Grid(12.0, 4001))
    ref = eigh_tridiagonal(
        m.diag, m.off, eigvals_only=True, select="i", select_range=(0, 2), lapack_driver="stemr"
    )
    assert np.all(np.abs(oracle.eig_lowest(m, 3) - ref) <= 1e-3 * np.abs(ref))


@pytest.mark.parametrize("band, value", [("diag", math.nan), ("off", math.inf)])
def test_solves_refuse_non_finite_bands(band, value):
    m = box_matrix(99)
    getattr(m, band)[10] = value
    for solve in (lambda m: oracle.eig_lowest(m, 3), oracle.eig_values):
        with pytest.raises(DomainError, match="not finite"):
            solve(m)


def test_solves_refuse_lapack_failure(lapack_failure):
    m = box_matrix(99)
    for solve in (lambda m: oracle.eig_lowest(m, 3), oracle.eig_values):
        with pytest.raises(DomainError, match=r"dsbev failed \(info=1\)"):
            solve(m)
    with pytest.raises(DomainError, match=r"dsbev failed \(info=1\)"):
        oracle._band_eigenvalues(np.ones((2, 9)))


_COMPOSE_CASES = [(gauge.Model1Params.from_branch(0.4, 2.0, b), 2.0) for b in ("neg-half", "half-down", "half-up", "three-half")]
_COMPOSE_CASES += [(m2_params(C1=1 / k, k=k), k) for k in (1.5, 2.0, 3.0, 4.0)]


@pytest.mark.parametrize("params, k", _COMPOSE_CASES)
def test_eig_values_equals_dstevd_bitwise(params, k):
    # eig_values runs _flapack's dsbev on a band of width one, so
    # isospectrality_metric reads the bits of dstevd, which runs the same
    # tridiagonal iteration without eigenvectors, and of dsbev, both called
    # through scipy.linalg's own route, on both compositions of D
    from scipy.linalg import lapack

    spec = oracle.model_spec(params, k, 1.0)
    for m in oracle.compose_factorized(spec.A, k, oracle._COMPOSE_GRID):
        ref, _, info = lapack.dstevd(m.diag, m.off, compute_v=0)
        assert info == 0 and np.array_equal(oracle.eig_values(m), ref)
        band, _, info = lapack.dsbev(np.vstack([m.diag, np.append(m.off, 0.0)]), compute_v=0, lower=1)
        assert info == 0 and np.array_equal(band, ref)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_band_eigenvalues_equal_f2py_dsbev_bitwise(n):
    # the Galerkin solves' dsbev, from the path-loaded _flapack, against the
    # same routine through scipy.linalg's own route, on a full lower band in
    # either memory order, which is left as it was
    from scipy.linalg import lapack

    rng = np.random.default_rng(n)
    band = rng.standard_normal((n, n))
    ref, _, info = lapack.dsbev(band, compute_v=0, lower=1)
    assert info == 0
    for layout in (band, np.asfortranarray(band)):
        kept = layout.copy()
        assert np.array_equal(oracle._band_eigenvalues(layout), ref)
        assert np.array_equal(layout, kept)


def test_missing_lapack_extension_names_its_path(tmp_path, monkeypatch):
    import importlib.machinery
    import importlib.util

    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if name == "scipy" else None)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        oracle.eig_values(box_matrix(9))


def _child_env():
    """The environment for a child interpreter that imports this package's source."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


_RETRY_PROBE = """
import json, sys
import numpy as np
from dirac_sphere import oracle
load, seen = oracle._load_flapack, []
def fails_once():
    seen.append("scipy" in sys.modules)
    if len(seen) == 1:
        raise ImportError("the bundled LAPACK library is not on the search path")
    return load()
oracle._load_flapack = fails_once
m = oracle.SLMatrix(diag=np.linspace(1.0, 9.0, 60) ** 2, off=np.full(59, -2.5))
values = oracle.eig_values(m)
from scipy.linalg import lapack
ref, _, info = lapack.dstevd(m.diag, m.off, compute_v=0)
one = sys.modules["scipy.linalg._flapack"] is lapack._flapack
print(json.dumps([seen, info, bool(np.array_equal(values, ref)), one]))
"""


def test_lapack_load_retries_once_after_scipy_init():
    # on Windows wheels only scipy's package init puts the bundled LAPACK
    # library on the search path: a by-path load that fails runs
    # `import scipy` and loads once more
    res = subprocess.run(
        [sys.executable, "-c", _RETRY_PROBE], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [[False, True], 0, True, True]


def _closed_matrix(pot, grid):
    return oracle.build_sl_matrix(COSH2, pot, grid)


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


def test_nonfinite_potential_rejected():
    def q(w):
        w = np.asarray(w, dtype=float)
        out = np.zeros_like(w)
        out[np.abs(w - 1.0) < 1e-3] = np.inf
        return out

    with pytest.raises(PoleError, match="potential is not finite at w = "):
        oracle.build_sl_matrix(ONES, q, oracle.Grid(2.0, 1999))


def test_overflowing_kinetic_coefficient_rejected_without_warning():
    # cosh^2 overflows from |w| ~ 355.6: the refusal, not a RuntimeWarning
    # (an error under this module's filter), ends the assembly
    grid = oracle.Grid(400.0, 101)
    with pytest.raises(PoleError, match=r"p\(w\) must be positive and finite") as info:
        oracle.build_sl_matrix(COSH2, ZERO, grid)
    # the refusal names the first half point where p is not finite
    assert info.value.location == grid.half_points()[0] == -396.078431372549
    assert f"at w = {info.value.location}" in str(info.value)
    # a p that is finite but not positive is named the same way
    with pytest.raises(PoleError, match="is not at w = ") as info:
        step = lambda w: np.where(np.asarray(w) > 0.5, -1.0, 1.0)
        oracle.build_sl_matrix(step, ZERO, oracle.Grid(1.0, 9))
    assert 0.5 < info.value.location < 1.0


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


class _FailingOrders:
    # f2py's dsbev failing, with info = the order, on the matrices of given orders
    def __init__(self, flapack, orders):
        self.flapack, self.orders = flapack, orders

    def dsbev(self, band, **options):
        order = band.shape[1]
        if order in self.orders:
            return np.zeros(order), np.zeros((1, 1)), order
        return self.flapack.dsbev(band, **options)


@pytest.mark.parametrize("start", ["threaded", "inline", "never"])
@pytest.mark.parametrize("failing, raised", [({401}, 401), ({402}, 402), ({401, 402}, 401)])
def test_isospectrality_failure_raises_in_argument_order(monkeypatch, start, failing, raised):
    # a failed solve raises, m1's first when both fail: the two spectra are
    # solved one after the other, m1's first, so a failed m1 solves no m2.
    # No thread is started, whether a started one would run alongside, run
    # to its end at once, or never run
    fake = _FailingOrders(oracle._flapack(), failing)
    monkeypatch.setattr(oracle, "_flapack", lambda: fake)
    a = gauge.a_u_model2(m2_params())
    dtd, ddt = oracle.compose_factorized(a, 2.0, oracle._COMPOSE_GRID)
    begun, started, solve = [], [], oracle.eig_values

    def counted(m):
        begun.append(m.order)
        return solve(m)

    start_new_thread, thread_start = _thread.start_new_thread, threading.Thread.start

    def tracked_new_thread(function, args, *rest):
        started.append(function)
        {"threaded": lambda: start_new_thread(function, args, *rest),
         "inline": lambda: function(*args), "never": lambda: None}[start]()

    def tracked_start(thread):
        started.append(thread)
        {"threaded": lambda: thread_start(thread), "inline": thread.run,
         "never": lambda: None}[start]()

    monkeypatch.setattr(oracle, "eig_values", counted)
    monkeypatch.setattr(_thread, "start_new_thread", tracked_new_thread)
    monkeypatch.setattr(threading.Thread, "start", tracked_start)
    with pytest.raises(DomainError, match=rf"dsbev failed \(info={raised}\)"):
        oracle.isospectrality_metric(dtd, ddt)
    assert begun == ([401] if 401 in failing else [401, 402])
    assert started == []


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


def _one_level(wf, level, V, lams):
    """verify_eigenpair on one level: its (readings, gaps, nodes, measure),
    or the error that refused it, raised."""
    res, gap, nodes, measure = oracle.verify_eigenpair(wf, [level], V, [lams])
    return res[0].tolist(), gap[0].tolist(), nodes, measure


def _on_rule_alone(wf, level, V, lams, n):
    """One level's readings at its level constants lams on the n-node rule,
    evaluated alone, on its own sample of V."""
    alpha, beta, lift = oracle._residual_weight(wf)
    rule = oracle.gauss_jacobi(n, alpha, beta)
    sample = oracle._sampled(V, [rule], {}, None)
    (res,) = oracle._residual_terms(wf, [level], sample, np.reshape(np.asarray(lams, dtype=float), (1, -1)), [rule], lift)
    return res[0]


def _bent(wf, ratios):
    """wf with its reading's ratios(t, levels) replaced."""
    return spectra.WaveFunctionSpec(
        wf.eval_raw, wf.exponents, ratios, wf.norm_finite, wf.norm_reason, wf.norm_quadrature
    )


def _model2_readings(k, m, variant):
    """verify_eigenpair of a Model-II reading at its printed and identity
    levels, and the distance between the two levels."""
    p = m2_params(C1=1 / k, k=k)
    wf = spectra.wavefn_model2(m, p.alpha, p.beta, polynomial=variant)
    printed = spectra.energy_model2(m, p.alpha, p.beta, k, 1.0).E_sq_bar
    matched = spectra.energy_model2_matched(m, p)
    return _one_level(wf, m, gauge.v_eff_model2(p, 1), [printed, matched]), abs(printed - matched)


def test_verify_eigenpair_negative_control():
    # the classical reading of the printed Model-II form is no eigenfunction
    # at either level constant: its residual at the identity level stays >= 1
    for k in (1.5, 2.0, 3.0, 4.0):
        for m in range(4):
            ((at_printed, at_identity), _, _, _), _ = _model2_readings(k, m, "classical")
            assert at_printed >= 1.0 and at_identity >= 1.0, (k, m)


def test_verify_eigenpair_x1_candidate():
    # the rational-extension eigenfunction solves the closed potential exactly
    # at the identity-implied level, not at the printed one; the continuum
    # residual in L^2(dw) reads rounding (at most 3.4e-14 here), no
    # discretization error. At the printed level it reads the level offset
    # itself (0.2225 at k = 3)
    for k in (1.5, 2.0, 3.0, 4.0):
        for m in range(4):
            ((at_printed, at_identity), gap, nodes, measure), offset = _model2_readings(k, m, "x1")
            assert at_identity <= 1e-13 and at_printed >= 0.2, (k, m)
            assert at_printed == pytest.approx(offset, rel=1e-9), (k, m)
            assert nodes == 16 and max(gap) <= 1e-6 and measure == "dw", (k, m)


def test_verify_eigenpair_refusals():
    p = m2_params()
    pot = gauge.v_eff_model2(p, 1)
    wf = spectra.wavefn_model2(1, p.alpha, p.beta, polynomial="x1")
    # a potential sample that is not finite names its w
    with pytest.raises(PoleError, match="potential is not finite at w = ") as info:
        _one_level(wf, 1, lambda w: np.where(w > 1.0, np.inf, pot(w)), [1.0])
    assert info.value.location > 1.0
    # an eigenfunction sample, or H applied to it, that is not finite names its w
    ratios = wf.ratios
    bent = _bent(wf, lambda t, levels: tuple(np.where(t > 0.5, np.nan, x) for x in ratios(t, levels)))
    with pytest.raises(PoleError, match="eigenfunction is not finite at w = "):
        _one_level(bent, 1, pot, [1.0])
    bent = _bent(wf, lambda t, levels: (*ratios(t, levels)[:2], np.where(t < 0.0, np.inf, 0.0)))
    with pytest.raises(PoleError, match="H applied to the eigenfunction is not finite at w = "):
        _one_level(bent, 1, pot, [1.0])
    # an eigenfunction that vanishes on the rule cannot be judged
    zero = _bent(wf, lambda t, levels: tuple(np.zeros((len(levels), t.size)) for _ in range(3)))
    with pytest.raises(DomainError, match="^eigenfunction vanishes on the rule$"):
        _one_level(zero, 1, pot, [1.0])


def test_verify_eigenpair_refuses_an_envelope_with_no_measure():
    # a reading whose exponent 2b - 1 at t = +1 is -2.2 even lifted to the
    # sphere's area (-1.2) has no Jacobi weight: no rule is built, and the
    # call itself refuses, naming the exponent at each pole and the weight
    wf = spectra.wavefn_model1(0, gauge.Model1Params.from_branch(0.4, 2.0, "half-up"), 2.0)
    synthetic = spectra.WaveFunctionSpec(wf.eval_raw, (0.4, -0.6), wf.ratios, False, "synthetic")
    with pytest.raises(DomainError, match=re.escape(
        "no residual measure for the envelope exponents 0.4 at t = -1 and -0.6 at t = +1: the "
        "sphere-area weight (1-t)^-1.2 (1+t)^0.8 is not integrable, so phi is not "
        "square-integrable on the sphere")):
        oracle.verify_eigenpair(synthetic, [0], lambda w: 0.0 * w, [[1.0]])


def test_verify_eigenpair_node_cap(monkeypatch):
    # readings that never agree double the nodes up to the Galerkin cap, then refuse
    p = m2_params()
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="x1")
    pot = gauge.v_eff_model2(p, 1)
    seen = []
    rules = oracle.gauss_jacobi

    def counted(n, alpha, beta):
        seen.append(n)
        return rules(n, alpha, beta)

    monkeypatch.setattr(oracle, "gauss_jacobi", counted)
    monkeypatch.setattr(oracle, "_RESIDUAL_TOL", -1.0)
    with pytest.raises(DomainError, match="rules of 128 and 256 nodes differ by .*, and 512 is past the cap of 256"):
        _one_level(wf, 0, pot, [1.0])
    # each rule is read once: the reading on 2n serves the next comparison
    assert seen == [16, 32, 64, 128, 256]


def test_verify_eigenpair_evaluates_each_rule_once_for_every_level(monkeypatch):
    # one call serves all 60 levels of a reading: each rule is evaluated
    # once for every level, 16 and 32 nodes in one pass on one potential
    # sample and each rule past the pair alone, and the reading doubles
    # until every level agrees (the last at 128 against 256 nodes), so
    # every level records that one rule
    k = 2.0
    p = m2_params(C1=1 / k, k=k)
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="classical")
    pot = gauge.v_eff_model2(p, 1)
    lams = [[spectra.energy_model2(m, p.alpha, p.beta, k, 1.0).E_sq_bar] for m in range(60)]
    terms, seen, sampled = oracle._residual_terms, [], []

    def counted(wf, levels, sample, lams, rules, lift):
        seen.append((tuple(t.size for t, _ in rules), len(levels)))
        return terms(wf, levels, sample, lams, rules, lift)

    def potential(w):
        sampled.append(np.size(w))
        return pot(w)

    monkeypatch.setattr(oracle, "_residual_terms", counted)
    res, gap, nodes, measure = oracle.verify_eigenpair(wf, range(60), potential, lams)
    assert seen == [((16, 32), 60), ((64,), 60), ((128,), 60), ((256,), 60)]
    assert sampled == [16 + 32, 64, 128, 256]
    assert res.shape == gap.shape == (60, 1) and nodes == 128 and measure == "dw"


def test_residual_rule_integrates_in_the_readings_measure():
    # the rule's weight is E^2 (1-t^2)^(lift - 1), E the envelope: Model II's
    # exponents give lift 0, and the rule's sum of r^2 is the L^2(dw) norm of
    # phi that the record's own Gauss-Jacobi norm integrates; Model I's give
    # lift 1, and its weights sum to the sphere-area integral of E^2,
    # 2^(2s + 2B + 1) Gamma(2s + 1) Gamma(2B + 1) / Gamma(2s + 2B + 2)
    p = m2_params()
    wf = spectra.wavefn_model2(2, p.alpha, p.beta, polynomial="classical")
    alpha, beta, lift = oracle._residual_weight(wf)
    assert lift == 0 and (alpha, beta) == pytest.approx((p.alpha, p.beta), abs=1e-15)
    t, q = oracle.gauss_jacobi(64, alpha, beta)
    r = wf.ratios(t, [2])[0][0]
    assert float(np.dot(q, r * r)) == pytest.approx(wf.norm_sq, rel=1e-12)
    for branch in gauge.BRANCH_LABELS:
        wf = spectra.wavefn_model1(1, gauge.Model1Params.from_branch(0.4, 2.0, branch), 2.0)
        b, s = wf.exponents  # B at t = -1, s at t = +1
        alpha, beta, lift = oracle._residual_weight(wf)
        assert lift == 1 and (alpha, beta) == pytest.approx((2 * s, 2 * b), abs=1e-15)
        area = 2 ** (2 * s + 2 * b + 1) * math.gamma(2 * s + 1) * math.gamma(2 * b + 1)
        area /= math.gamma(2 * s + 2 * b + 2)
        assert float(oracle.gauss_jacobi(16, alpha, beta)[1].sum()) == pytest.approx(area, rel=1e-13), branch


# ----------------------------------------------------------- Jacobi-Galerkin oracle


def _galerkin(params, k, count):
    spec = oracle.model_spec(params, k, 1.0)
    return oracle.galerkin_levels(spec.closed1, oracle.partner_exponents(spec.ends, k).j1, count, spec.poles)


def test_galerkin_model1_half_up_levels():
    # the benchmark's Chebyshev-collocation reference (n = 128 against 256)
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    g = _galerkin(p, 2.0, 4)
    assert g.levels == pytest.approx([2.3954946, 6.39933824, 12.3907119, 20.38667641], abs=1e-7)
    # V / cosh^2 -> 0 at both ends: nu = -1 there, and the exponents are 1
    assert oracle.partner_exponents(oracle.model_spec(p, 2.0, 1.0).ends, 2.0).j1 == (1.0, 1.0) and g.n == 16
    assert np.all(g.gap <= 1e-9 * (1.0 + np.abs(g.levels)))


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0])
def test_galerkin_model2_equals_identity_levels(k):
    # on (-, +) at C1 = 1/k the x1 eigenfunctions solve the closed j=1
    # potential at the level constants the solvable identity implies
    p = m2_params(C1=1 / k, k=k)
    g = _galerkin(p, k, 12)
    matched = [spectra.energy_model2_matched(m, p) for m in range(12)]
    assert np.abs(g.levels - matched).max() <= 1e-9


def test_galerkin_doubles_until_converged():
    # k = 1.1: the exponent at t = +1 is 5.5, and the 16- and 32-function
    # bases disagree; 32 and 64 agree, so the 32-function levels are returned
    k = 1.1
    p = m2_params(C1=1 / k, k=k)
    g = _galerkin(p, k, 4)
    assert oracle.partner_exponents(oracle.model_spec(p, k, 1.0).ends, k).j1[1] == pytest.approx(5.5) and g.n == 32
    matched = np.array([spectra.energy_model2_matched(m, p) for m in range(4)])
    assert np.all(g.gap <= 1e-9 * (1.0 + np.abs(g.levels)))
    assert np.all(np.abs(g.levels - matched) <= 1e-9 * (1.0 + matched))


def test_galerkin_cap_refusal(monkeypatch):
    # with the cap at 32 functions, k = 1.1 (which needs the 64-function
    # check) is refused instead of reported
    monkeypatch.setattr(oracle, "_GALERKIN_CAP", 32)
    with pytest.raises(DomainError, match="did not converge: bases of 16 and 32 functions"):
        _galerkin(m2_params(C1=1 / 1.1, k=1.1), 1.1, 4)


def test_galerkin_refuses_a_profile_outside_its_convergence_class():
    # tanh(w/2) = t / (1 + sqrt(1 - t^2)) is not analytic in t at the poles,
    # so the polynomial basis converges only algebraically there: both general
    # potentials of A = 0.3 + 0.5 tanh(w/2) are refused at the cap (bases of
    # 128 and 256 differ by 5.4e-7 for j=1 and 1.3e-4 for j=2), never
    # reported.  A = 0.3 + 0.5 tanh w, rational in t with the same end
    # values, converges at 16 functions.  Not every tanh(w/2) profile is
    # refused: 0.2 + 0.8 tanh(w/2) at k = 3 converges for j=1 at 128
    k = 2.0
    exps = oracle.partner_exponents((-0.2, 0.8), k)
    components = ((1, exps.j1), (2, exps.j2))
    half = (lambda w: 0.3 + 0.5 * np.tanh(w / 2), lambda w: 0.25 / np.cosh(w / 2) ** 2)
    for j, e in components:
        with pytest.raises(DomainError, match="did not converge: bases of 128 and 256 functions"):
            oracle.galerkin_levels(gauge.v_eff_general(*half, k, j), e, 4)
    whole = (lambda w: 0.3 + 0.5 * np.tanh(w), lambda w: 0.5 / np.cosh(w) ** 2)
    control = [oracle.galerkin_levels(gauge.v_eff_general(*whole, k, j), e, 4) for j, e in components]
    assert [g.n for g in control] == [16, 16] and exps.zero_level == "neither"
    assert np.abs(control[0].levels - control[1].levels).max() <= 1e-9


def test_galerkin_level_count_range():
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    # 2 * max(16, 2 * 60 + 8) = 256, the cap: 60 is the most levels it serves
    assert oracle.GALERKIN_MAX_LEVELS == 60
    assert _galerkin(p, 2.0, 60).n == 128
    for count in (0, 61):
        with pytest.raises(DomainError, match=r"level count must be in \[1, 60\]"):
            _galerkin(p, 2.0, count)
        with pytest.raises(DomainError, match=r"level count must be in \[1, 60\]"):
            oracle.consistency_report(p, 2.0, 1.0, levels=count)


_POLE_REFUSAL = r"potential pole at w = .*: the gauge profile is singular there"


def test_galerkin_refuses_a_pole_beyond_every_grid():
    # alpha * beta < 0 puts the pole at tanh w = a2/a1 inside (-1, 1); at
    # beta = -1e-6 it sits at w = -6.91, beyond every grid the report builds
    # (L = 4 and the user's 6): the report refuses it with the one pole
    # message, and the oracle, called directly, refuses it too
    alpha, beta = 1.0, -1e-6
    p = gauge.model2_derive_params(0.5, beta - alpha, beta + alpha, 2.0)
    assert p.poles[0] == pytest.approx(-6.9077552789)
    with pytest.raises(PoleError, match=_POLE_REFUSAL) as info:
        oracle.consistency_report(p, 2.0, 1.0, levels=2)
    assert info.value.location == p.poles[0]
    spec = oracle.model_spec(p, 2.0, 1.0)
    with pytest.raises(PoleError, match="Jacobi-Galerkin oracle needs V finite") as info:
        oracle.galerkin_levels(spec.closed1, (1.0, 1.0), 2, spec.poles)
    assert info.value.location == p.poles[0]


def test_galerkin_refuses_a_closed_form_off_the_general_one(monkeypatch):
    # the exponents come from the general form's end values; a closed j=1
    # form that is not that form plus a constant is refused, not solved
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    spec_of = oracle._model1_spec

    def bent(params, k, R):
        spec = copy.copy(spec_of(params, k, R))
        closed1 = spec.closed1
        spec.closed1 = gauge.EffectivePotential(lambda w: closed1(w) + 1e-6 * np.tanh(w))
        return spec

    monkeypatch.setattr(oracle, "_model1_spec", bent)
    with pytest.raises(DomainError, match="differs from the general form by more than a constant"):
        oracle.consistency_report(p, 2.0, 1.0, levels=2)


def test_galerkin_constancy_spread_is_relative_to_the_potential():
    # near k = 1 the Model-II potential reaches 7e6 on the |w| <= 4 sample,
    # and the closed and general forms differ by a constant only to the
    # rounding of that size (absolute a.* spread 3.8e-9 at k = 1.01): the
    # a.*/b.* spreads are read relative to 1 + max |general form|, so they sit
    # below their 1e-9 tolerance, and the levels still meet the doubling rule
    for k in (1.01, 1.02):
        rep = oracle.consistency_report(m2_params(C1=1 / k, k=k), k, 1.0, levels=2)
        for claim_id in ("a.veff1-expansion", "b.veff1-constrained"):
            c = rep.claim(claim_id)
            assert c.metric <= c.tolerance == 1e-9, (k, claim_id)
        d = rep.claim("c.spectrum.m1").details
        assert abs(d["oracle_minus_matched"]) <= 1e-9 * (1.0 + d["oracle"])


@pytest.mark.parametrize(
    "branch, j2, zero_level",
    [
        ("half-up", (0.5, 1.5), "neither"),
        ("half-down", (1.5, 0.5), "neither"),
        ("neg-half", (0.5, 0.5), "j=2"),
        ("three-half", (1.5, 1.5), "j=1"),
    ],
    ids=["half-up", "half-down", "neg-half", "three-half"],
)
def test_partner_exponents_model1(branch, j2, zero_level):
    # V_1 / cosh^2 -> 0 at both ends on every branch: |nu_1| = 1 and a_1 = 1;
    # j=2 takes a_1 -+ 1/2, whichever is a root of its own pair
    k = 2.0
    spec = oracle.model_spec(gauge.Model1Params.from_branch(0.4, k, branch), k, 1.0)
    exps = oracle.partner_exponents(spec.ends, k)
    assert exps.j1 == pytest.approx((1.0, 1.0), abs=1e-12)
    assert exps.j2 == pytest.approx(j2, abs=1e-12)
    assert exps.zero_level == zero_level


def test_partner_exponents_model2():
    # (-, +) at k = 2: nu_1 = -1/3 at t = -1, so a_1 = 2/3 and j=2 takes the
    # non-principal root 1/6 of nu_2 = 2/3; at t = +1 nu_1 = -1, b_2 = 3/2
    k = 2.0
    spec = oracle.model_spec(m2_params(C1=1 / k, k=k), k, 1.0)
    exps = oracle.partner_exponents(spec.ends, k)
    assert exps.j1 == pytest.approx((2 / 3, 1.0), abs=1e-12)
    assert exps.j2 == pytest.approx((1 / 6, 1.5), abs=1e-12)
    assert exps.zero_level == "neither"


def test_partner_exponents_refuse_the_log_case():
    # nu_1 = k - A_- - 1/2 = 0: a_1 = 1/2, and both 0 and 1 are j=2 roots
    with pytest.raises(DomainError, match=r"no unique exponent at t = -1 .*the log case"):
        oracle.partner_exponents((1.5, 0.0), 2.0)
    # on a model: (+, +) at k = (sqrt 5 - 1)/2 has nu_1 = 0 at t = +1, to rounding
    k = (math.sqrt(5.0) - 1.0) / 2.0
    alpha, beta = gauge.alpha_beta(k, "+", "+")
    p = gauge.model2_derive_params(1 / k, beta - alpha, beta + alpha, k)
    with pytest.raises(DomainError, match=r"no unique exponent at t = \+1 .*the log case"):
        oracle.consistency_report(p, k, 1.0, levels=2)


_BLAS_PROBE = """
import json
from dirac_sphere import gauge, oracle
out = []
for k, count, j in ((2.0, 4, 1), (1.1, 12, 1), (1.5, 60, 1), (1.5, 60, 2)):
    a, b = gauge.alpha_beta(k, "-", "+")
    p = gauge.model2_derive_params(1 / k, b - a, b + a, k)
    spec = oracle.model_spec(p, k, 1.0)
    exps = oracle.partner_exponents(spec.ends, k)
    V = spec.closed1 if j == 1 else gauge.v_eff_general(spec.A, spec.dA, k, 2)
    g = oracle.galerkin_levels(V, exps.j1 if j == 1 else exps.j2, count)
    out.append([g.n, [float(x).hex() for x in g.levels], [float(x).hex() for x in g.gap]])
print(json.dumps(out))
"""


def test_galerkin_levels_bitwise_across_blas_threads():
    # fresh processes, one per thread count: the 60-level case builds the
    # 128- and 256-function matrices, large enough for BLAS to split, once
    # for j=1 and once for j=2 on its image-of-D exponents
    src = os.path.dirname(os.path.dirname(os.path.abspath(oracle.__file__)))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        res = subprocess.run([sys.executable, "-c", _BLAS_PROBE], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        runs.append(json.loads(res.stdout))
    assert runs[0] == runs[1]
    assert [n for n, _, _ in runs[0]] == [16, 64, 128, 128]


# ----------------------------------------------------------- reports


def test_report_deterministic():
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    r1 = oracle.consistency_report(p, 2.0, 1.0, levels=2)
    r2 = oracle.consistency_report(p, 2.0, 1.0, levels=2)
    assert json.dumps(r1.as_dict()) == json.dumps(r2.as_dict())


def test_report_model_mismatch_rejected():
    # the report takes no model: the parameter type selects it, so only a
    # wave number the parameters were not derived at can disagree with them
    p = m2_params()
    with pytest.raises(DomainError, match="wave number mismatch"):
        oracle.consistency_report(p, 3.0, 1.0)
    # half-up parameters at k = 2 sit on the half-down branch at k = 4
    p1 = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    with pytest.raises(DomainError, match="are not on the 'half-up' branch"):
        oracle.consistency_report(p1, 4.0, 1.0)


def test_report_aborts_on_singular_branch(monkeypatch):
    # the pole at w = -0.549: the report refuses it with one message, before
    # any matrix is assembled
    def never(*args, **kwargs):
        raise AssertionError("a matrix was assembled for a model with a real pole")

    monkeypatch.setattr(oracle, "compose_factorized", never)
    monkeypatch.setattr(oracle, "build_sl_matrix", never)
    p = gauge.model2_derive_params(0.5, -1 / 3 - 1.0, -1 / 3 + 1.0, 2.0)
    with pytest.raises(PoleError) as info:
        oracle.consistency_report(p, 2.0, 1.0, levels=2)
    assert str(info.value) == (
        f"potential pole at w = {p.poles[0]}: the gauge profile is singular there, so "
        "no report operator is defined across it"
    )
    assert info.value.location == pytest.approx(math.atanh(-0.5), rel=1e-12)


def test_report_corrupt_hook_fails_forced_claim(forced_fault):
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    rep = oracle.consistency_report(p, 2.0, 1.0, levels=2)
    bad = {c.claim_id for c in rep.forced_failures()}
    assert bad == {"f.isospectrality", "f.matrix-symmetry"}


def test_forced_fault_fails_both_forced_claims_and_no_residual(forced_fault):
    # the forced claims read the one sample of A that compose_factorized and
    # the product check share; a fault in the composition fails both on
    # Model II too, while every d.* number is still its level's reading on
    # its rule alone
    k = 2.0
    p = _report_params(2, k)
    rep = oracle.consistency_report(p, k, 1.0, levels=3)
    assert {c.claim_id for c in rep.forced_failures()} == {"f.isospectrality", "f.matrix-symmetry"}
    _assert_residuals_read_their_rule_alone(rep, 2, p, k)


def test_isospectrality_fails_on_principal_j2_exponents(monkeypatch):
    # the j=2 levels on the principal roots of its own Frobenius pairs are
    # not D*Dt's: on Model II (-,+) at k = 1.5 they miss the j=1 levels by
    # far more than the Galerkin gap, which the image-of-D exponents read
    k = 1.5
    p = m2_params(C1=1 / k, k=k)
    iso = oracle.consistency_report(p, k, 1.0, levels=4).claim("f.isospectrality")
    assert iso.verdict == "pass" and iso.metric <= 1e-9
    image = oracle.partner_exponents

    def principal(ends, k):
        exps = image(ends, k)
        nu2 = [k - A - 0.5 * eps for A, eps in zip(ends, (-1.0, 1.0))]
        return oracle.PartnerExponents(exps.j1, tuple((1.0 + abs(nu)) / 2.0 for nu in nu2), exps.zero_level)

    monkeypatch.setattr(oracle, "partner_exponents", principal)
    iso = oracle.consistency_report(p, k, 1.0, levels=4).claim("f.isospectrality")
    assert iso.verdict == "fail" and iso.metric > 0.1, iso.metric
    assert iso.details["exponents_j2"] == list(principal(oracle.model_spec(p, k, 1.0).ends, k).j2)


@pytest.mark.parametrize("branch, zero", [("neg-half", "j=2"), ("three-half", "j=1")])
def test_isospectrality_reads_the_zero_level(branch, zero):
    # the component whose kernel has its exponents carries one unpaired
    # level, which reads 0 at rounding, the same component e.* names
    p = gauge.Model1Params.from_branch(0.4, 2.0, branch)
    rep = oracle.consistency_report(p, 2.0, 1.0, levels=4)
    iso = rep.claim("f.isospectrality")
    assert iso.details["zero_level"] == rep.claim("e.partner.m1").details["zero_level"] == zero
    assert abs(iso.details["zero_reading"]) <= 1e-12 and iso.verdict == "pass", iso.details


def test_model2_readings_sample_the_potential_once_per_rule(monkeypatch):
    # the classical and X1 readings share their envelope exponents, so their
    # Gauss-Jacobi rules: the closed j=1 potential is sampled once on the
    # 16- and 32-node pair, beside the Galerkin solve's own sample of its
    # 16- and 32-function pair and the constancy sample, and every d.*
    # number is still its level's reading on its rule alone
    sizes = collections.Counter()
    factory = oracle.v_eff_model2

    def make(p, j):
        pot = factory(p, j)

        def fn(w):
            sizes[np.size(w)] += j == 1
            return pot(w)

        return gauge.EffectivePotential(fn)

    monkeypatch.setattr(oracle, "v_eff_model2", make)
    p = _report_params(2)
    rep = oracle.consistency_report(p, 2.0, 1.0, levels=4)
    assert {c.grid["nodes"] for c in rep.claims if c.claim_id.startswith("d.")} == {16}
    # Galerkin and residuals each read 16 and 32 nodes, in one sample each
    assert sizes == {oracle._CONSTANCY_GRID["n_pts"]: 1, 16 + 32: 2}, sizes
    monkeypatch.setattr(oracle, "v_eff_model2", factory)
    _assert_residuals_read_their_rule_alone(rep, 2, p, 2.0)


@pytest.mark.parametrize(
    "model, k, branch",
    [(1, 2.0, b) for b in ("neg-half", "half-down", "half-up", "three-half")]
    + [(2, k, None) for k in (1.5, 2.0, 3.0, 4.0)],
)
def test_factorization_match_reads_the_continuum_identity(model, k, branch, monkeypatch):
    # V_1 = f^2 - sinh f - cosh f' and V_2 = f^2 + cosh f' - sinh f - cosh^2
    # hold for every A, so both readings are rounding; an f bent away from
    # the general potentials shows in both
    p = gauge.Model1Params.from_branch(0.4, k, branch) if model == 1 else m2_params(C1=1 / k, k=k)

    def match():
        rep = oracle.consistency_report(p, k, 1.0, levels=1)
        c = rep.claim("conventions.factorization-match")
        assert c.grid == oracle._CONSTANCY_GRID and c.details["convention"] == oracle._D_NAME
        return c.metric, c.details["match_j2"]

    assert max(match()) <= 1e-12
    factor_f = oracle._factor_f
    monkeypatch.setattr(oracle, "_factor_f", lambda A, k, w: factor_f(A, k, w) + 1e-3 * np.sinh(w))
    assert min(match()) > 1e-6


def _partners(rep):
    return [c for c in rep.claims if c.claim_id.startswith("e.")]


# The component whose kernel has its exponents, and so carries the unpaired
# zero level, per config: it shifts the pairing by one level. Every config
# runs at 12 levels; the cases named (model-levels) run the report's example
# configs at 3 levels and at the one level that has no partner to pair
_PARTNER_CASES = [
    (1, 2.0, "neg-half", "j=2", 12),
    (1, 2.0, "half-down", "neither", 12),
    (1, 2.0, "half-up", "neither", 12),
    (1, 2.0, "three-half", "j=1", 12),
] + [(2, k, None, "neither", 12) for k in (1.5, 2.0, 3.0, 4.0)] + [
    pytest.param(1, 2.0, "half-up", "neither", 3, id="1-3"),
    pytest.param(2, 2.0, None, "neither", 3, id="2-3"),
    pytest.param(1, 2.0, "half-up", "neither", 1, id="1-1"),
]

# |flux level - c.* Galerkin level| on Grid(6, 801), levels 1-2, measured at
# most 2.7e-4 on the four Model-I branches and 0.30 on Model II (at k = 4: its
# j=1 states decay slowly enough for the wall at L = 6 to shift them)
_FLUX_CROSS_CHECK = {1: 5e-4, 2: 0.35}


@pytest.mark.parametrize("model, k, branch, zero_level, levels", _PARTNER_CASES)
def test_report_partner_claims(model, k, branch, zero_level, levels):
    # e.partner.mN pairs the Galerkin levels of Dt*D (general j=1 potential,
    # principal exponents) and D*Dt (general j=2, image-of-D exponents) past
    # the zero level of the component whose kernel has its exponents; every
    # pair agrees within 1e-9, and both levels are those of the two general
    # solves, bit for bit
    grid = oracle.Grid(6.0, 801)
    p = gauge.Model1Params.from_branch(0.4, k, branch) if model == 1 else m2_params(C1=1 / k, k=k)
    rep = oracle.consistency_report(p, k, 1.0, levels=levels)
    partners = _partners(rep)
    assert [c.claim_id for c in partners] == [f"e.partner.m{m}" for m in range(1, levels)]
    # one level has no partner to pair
    assert not _partners(oracle.consistency_report(p, k, 1.0, levels=1))
    spec = oracle.model_spec(p, k, 1.0)
    exps = oracle.partner_exponents(spec.ends, k)
    assert exps.zero_level == zero_level
    g1, g2 = (
        oracle.galerkin_levels(gauge.v_eff_general(spec.A, spec.dA, k, j), e, levels)
        for j, e in ((1, exps.j1), (2, exps.j2))
    )
    # the unpaired level is the zero level of D's or Dt's kernel
    shift = {"j=1": 1, "j=2": -1, "neither": 0}[zero_level]
    if shift:
        assert abs((g1 if shift == 1 else g2).levels[0]) <= 1e-12
    offset = sum(rep.claim(i).details["additive_constant"] for i in ("a.veff1-expansion", "b.veff1-constrained"))
    for m, c in enumerate(partners, start=1):
        i1, i2 = m - max(-shift, 0), m - max(shift, 0)
        d = c.details
        assert (d["e1"], d["e2"], d["zero_level"]) == (g1.levels[i1], g2.levels[i2], zero_level)
        assert d["n"] == [g1.n, g2.n] and d["gap_2n"] == [g1.gap[i1], g2.gap[i2]]
        assert d["exponents_j1"] == list(exps.j1) and d["exponents_j2"] == list(exps.j2)
        assert (d["rule_j1"], d["rule_j2"]) == ("principal", "image-of-D")
        assert c.grid == {"n": max(d["n"])}
        assert c.metric == abs(d["e1"] - d["e2"]) <= 1e-9
    # f.isospectrality reads the same pairing: its metric, recomputed from
    # the pairs the e.* claims record (with the ground pair on "neither",
    # which no e.* claim names) and the zero level it reports, is its own
    iso = rep.claim("f.isospectrality")
    zero = iso.details["zero_reading"]
    pairs = [(c.details["e1"], c.details["e2"]) for c in partners]
    if shift:
        assert zero == (g1 if shift == 1 else g2).levels[0]
    else:
        assert zero is None
        pairs.insert(0, (g1.levels[0], g2.levels[0]))
    e1, e2 = np.array(pairs).T
    paired = np.max(np.abs(e1 - e2) / (1.0 + np.abs(e1)), initial=0.0)
    unpaired = 0.0 if zero is None else abs(zero) / (1.0 + max(np.abs(g1.levels).max(), np.abs(g2.levels).max()))
    assert iso.metric == max(paired, unpaired) <= iso.tolerance
    assert iso.details["n"] == [g1.n, g2.n] and iso.grid == {"n": max(g1.n, g2.n)}
    # the closed j=1 solve (c.*) against the general one: at every level the
    # general form's levels are the c.* ones shifted by the a.* and b.veff1
    # additive constants (closed1 - gen1)
    for n in range(levels):
        galerkin = rep.claim(f"c.spectrum.m{n}").details["oracle"]
        assert abs(g1.levels[n] - (galerkin - offset)) <= 1e-9 * (1.0 + abs(galerkin)), n
    # a cross-check by another method: flux solves of the closed j=1
    # potential on the grid sit near the c.* levels
    flux = oracle.eig_lowest(_closed_matrix(spec.closed1, grid), 3)
    for n in range(1, min(levels, 3)):
        assert abs(flux[n] - rep.claim(f"c.spectrum.m{n}").details["oracle"]) <= _FLUX_CROSS_CHECK[model]


@pytest.mark.parametrize("k", [1.5, 2.0, 3.0, 4.0])
def test_partner_pairing_within_the_galerkin_error_estimates(k):
    # at 4 levels the bases stop at 16 functions, where the doubling rule
    # allows 1e-9 (1 + |level|); at k = 1.5 the fourth j=1 level sits 4.4e-9 from
    # its 32-function value, and the pairing reads that gap, not more
    rep = oracle.consistency_report(m2_params(C1=1 / k, k=k), k, 1.0, levels=4)
    for c in _partners(rep):
        assert c.metric <= sum(c.details["gap_2n"]) + 1e-12, c.claim_id


def test_partner_claims_fail_on_principal_j2_exponents(monkeypatch):
    # on Model II the j=2 exponent at t = -1 is the non-principal root 1/6
    # (0 < |nu_2| < 1, limit circle); the principal root 5/6 picks another
    # extension of D*Dt, whose levels do not pair with Dt*D's
    exponents_of = oracle.partner_exponents

    def principal(ends, k):
        nu2 = [k - A - 0.5 * eps for A, eps in zip(ends, (-1.0, 1.0))]
        e = exponents_of(ends, k)
        return oracle.PartnerExponents(e.j1, tuple((1.0 + abs(nu)) / 2.0 for nu in nu2), e.zero_level)

    monkeypatch.setattr(oracle, "partner_exponents", principal)
    k = 2.0
    rep = oracle.consistency_report(m2_params(C1=1 / k, k=k), k, 1.0, levels=4)
    assert rep.claim("e.partner.m1").details["exponents_j2"] == pytest.approx([5 / 6, 1.5])
    assert min(c.metric for c in _partners(rep)) > 1e-3


def _report_params(model, k=2.0):
    return gauge.Model1Params.from_branch(0.4, k, "half-up") if model == 1 else m2_params(C1=1 / k, k=k)


def _assert_residuals_read_their_rule_alone(rep, model, p, k):
    """Every d.* number of rep is its level's reading on the claim's rule
    evaluated alone, on the same eigenfunction and closed j=1 potential, bit
    for bit, and its gap_2n the distance to the reading on twice the nodes;
    every level of a reading records the same rule."""
    pot = gauge.v_eff_model1(p, k, 1) if model == 1 else gauge.v_eff_model2(p, 1)
    for variant in ("classical",) if model == 1 else ("classical", "x1"):
        infix = "" if model == 1 else f"{variant}."
        claims = [rep.claim(f"d.eigenfunction.{infix}m{m}") for m in range(rep.levels)]
        (nodes,) = {c.grid["nodes"] for c in claims}
        for m, claim in enumerate(claims):
            d = claim.details
            if model == 1:
                wf, lams, got = spectra.wavefn_model1(m, p, k), [d["lambda"]], [claim.metric]
            else:
                wf = spectra.wavefn_model2(m, p.alpha, p.beta, polynomial=variant)
                lams = [d["lambda_printed"], d["lambda_identity"]]
                got = [claim.metric, d["residual_at_identity_energy"]]
            lo, hi = (_on_rule_alone(wf, m, pot, lams, n) for n in (nodes, 2 * nodes))
            assert got == lo.tolist() and d["gap_2n"] == np.abs(lo - hi).tolist(), claim.claim_id
            assert d["nodes"] == nodes and d["measure"] == ("sphere-area" if model == 1 else "dw")
            if model == 1:
                assert "norm_divergence" in d
            else:
                # the residual is scale-free: the report records the norm's
                # analytic verdict and no quadrature
                assert d["norm_finite"] is wf.norm_finite is True
                assert "norm_rule" not in d and "norm_nodes" not in d


@pytest.mark.parametrize("model", [1, 2])
def test_report_residuals_match_verify_eigenpair_bitwise(model, monkeypatch):
    # the d.* numbers come from the public routine, one call per reading
    # with every level and both level constants, and each level's numbers
    # are exactly its readings on the reading's rule evaluated alone here,
    # on the same eigenfunction and closed j=1 potential
    k, R = 2.0, 1.0
    p = _report_params(model, k)
    routine, calls = oracle.verify_eigenpair, []

    def counted(wf, levels, V, lams, samples=None):
        calls.append((list(levels), np.shape(lams)))
        return routine(wf, levels, V, lams, samples)

    monkeypatch.setattr(oracle, "verify_eigenpair", counted)
    rep = oracle.consistency_report(p, k, R, levels=3)
    assert calls == ([([0, 1, 2], (3, 1))] if model == 1 else [([0, 1, 2], (3, 2))] * 2)
    _assert_residuals_read_their_rule_alone(rep, model, p, k)


@pytest.mark.parametrize("model, nodes", [(1, {64}), (2, {16, 128})])
def test_report_residuals_at_60_levels_read_one_rule_per_reading(model, nodes):
    # at the most levels a report serves, every level of a reading records
    # the one rule the reading settles on: Model I's at 64 nodes, Model
    # II's classical at 128 and its X1 at 16
    from dirac_sphere import cli

    path = os.path.join(os.path.dirname(__file__), "..", "examples", f"model{model}.json")
    cfg = cli.parse_config(cli._read_config(path))
    p = cfg.params()
    rep = oracle.consistency_report(p, cfg.k, cfg.R, levels=60)
    assert {c.grid["nodes"] for c in rep.claims if c.claim_id.startswith("d.")} == nodes
    _assert_residuals_read_their_rule_alone(rep, model, p, cfg.k)


def _bits(x):
    """The 64-bit patterns of x's floats."""
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


def _outcome(fn, *args):
    """fn(*args) as bit patterns, or the package error it raised as
    (type, message, location)."""
    try:
        return [_bits(x) if isinstance(x, (list, np.ndarray)) else x for x in fn(*args)]
    except (DomainError, PoleError) as err:
        return type(err), str(err), getattr(err, "location", None)


def _residuals_rule_by_rule(wf, levels, V, lams):
    """verify_eigenpair's (readings, gap, n, measure), or the error it
    raised, with every rule evaluated alone for each level in turn, on its
    own sample of V."""
    lams = np.asarray(lams, dtype=float).reshape(len(levels), -1)

    def alone(n):
        return np.array([_on_rule_alone(wf, m, V, row, n) for m, row in zip(levels, lams)])

    def doubled():
        res, gap, n = oracle._doubled(
            lambda ns: [alone(n) for n in ns], oracle._RESIDUAL_NODES, oracle._GALERKIN_CAP,
            oracle._RESIDUAL_TOL, "eigenpair residuals", "rules of {} and {} nodes",
        )
        return res, gap, n, oracle._MEASURES[oracle._residual_weight(wf)[2]]

    return _outcome(doubled)


def _galerkin_size_by_size(V, exponents, count, poles=()):
    """galerkin_levels's (levels, gap, n) with every basis size solved
    alone, on its own sample of V; poles, which galerkin_levels only
    checks, is taken so its arguments can be passed on."""
    a, b = exponents
    return _outcome(
        oracle._doubled, lambda ns: [oracle._galerkin_eigenvalues(V, a, b, (n,))[0][:count] for n in ns],
        max(16, 2 * count + 8), oracle._GALERKIN_CAP, oracle._GALERKIN_TOL, "Jacobi-Galerkin levels",
        "bases of {} and {} functions",
    )


def _m2_signs(k, sign_a, sign_b):
    alpha, beta = gauge.alpha_beta(k, sign_a, sign_b)
    return gauge.model2_derive_params(1 / k, beta - alpha, beta + alpha, k)


def _frobenius_root(printed, principal):
    """Which Frobenius root of the closed j=1 potential's pair
    (principal, 1 - principal) a printed envelope exponent is, within
    _ROOT_TOL: "principal", "non-principal" or None."""
    if abs(printed - principal) <= oracle._ROOT_TOL:
        return "principal"
    if abs(printed + principal - 1.0) <= oracle._ROOT_TOL:
        return "non-principal"
    return None


@pytest.mark.parametrize(
    "params, k, roots",
    [(gauge.Model1Params.from_branch(0.4, 2.0, b), 2.0, (r, None))
     for b, r in (("neg-half", "non-principal"), ("half-down", None), ("half-up", None), ("three-half", None))]
    + [(_m2_signs(k, "-", "+"), k, ("principal", "principal")) for k in (1.5, 2.0, 3.0, 4.0)]
    + [(_m2_signs(k, "+", "-"), k, ("non-principal", "non-principal")) for k in (2.5, 3.0, 5.0)],
)
def test_printed_exponents_against_the_galerkin_ones_pole_by_pole(params, k, roots):
    # every exponent pair is ordered (t = -1, t = +1), so a printed reading's
    # envelope exponents and the c.* basis's principal ones compare pole by
    # pole.  (-,+) prints the principal roots, equal to rounding but not to
    # the bit (1.0 against 1.0000000000000004 at k = 2); (+,-) the
    # non-principal ones, 1 - principal within one ulp of 1; Model I's
    # s = -0.2 at t = +1 is never a root of {0, 1}, and its B at t = -1 is
    # the root 0 on neg-half (C2 = -1/2) alone
    spec = oracle.model_spec(params, k, 1.0)
    principal = oracle.partner_exponents(spec.ends, k).j1
    for reading, (_, wavefn) in spec.eigenfunctions.items():
        printed = wavefn(0).exponents
        assert tuple(map(_frobenius_root, printed, principal)) == roots, (reading, printed, principal)
        for e, p, root in zip(printed, principal, roots):
            if root == "non-principal":
                assert abs(e + p - 1.0) <= 2.0 ** -52, (reading, e, p)


@pytest.mark.parametrize("model", [1, 2])
def test_report_builds_one_eigenfunction_record_per_reading(model, monkeypatch):
    # a 12-level report builds each reading's eigenfunction record once,
    # level 0's, which evaluates the residuals of every level, and every
    # level reads the reading-wide norm verdict from it: Model II's two
    # readings make two wavefn_model2 calls, not 24; Model I's one reading
    # and the ground state of g.local-energy-constancy make two
    # wavefn_model1 calls, not 13
    name = f"wavefn_model{model}"
    made, wavefn = [], getattr(oracle, name)
    monkeypatch.setattr(oracle, name, lambda *args, **kw: made.append(args[0]) or wavefn(*args, **kw))
    rep = oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=12)
    assert made == [0, 0]
    assert len([c for c in rep.claims if c.claim_id.startswith("d.")]) == 12 * model


@pytest.mark.parametrize(
    "model, k, signs, levels",
    [(m, 2.0, None, lv) for m in (1, 2) for lv in (4, 12, 60)]
    + [(2, k, ("+", "-"), 12) for k in (2.5, 3.0, 5.0)],
)
def test_paired_rules_read_the_bits_of_each_rule_alone(model, k, signs, levels, monkeypatch):
    # the first n/2n pair of a doubling is evaluated in one pass over both
    # rules' nodes; every residual and Galerkin level of the report is still
    # the 64-bit pattern of the same rule or basis evaluated alone
    p = _m2_signs(k, *signs) if signs else _report_params(model, k)
    calls = {"verify_eigenpair": [], "galerkin_levels": []}
    for name, log in calls.items():
        def recorded(*args, _fn=getattr(oracle, name), _log=log, **kw):
            out = _fn(*args, **kw)
            _log.append((args, kw, out))
            return out

        monkeypatch.setattr(oracle, name, recorded)
    oracle.consistency_report(p, k, 1.0, levels=levels)
    assert len(calls["verify_eigenpair"]) == model and len(calls["galerkin_levels"]) == 3
    for (wf, lvs, V, lams, _), _, got in calls["verify_eigenpair"]:
        assert _outcome(lambda: got) == _residuals_rule_by_rule(wf, list(lvs), V, lams)
    for args, kw, got in calls["galerkin_levels"]:
        assert [_bits(got.levels), _bits(got.gap), got.n] == _galerkin_size_by_size(*args, **kw)


@pytest.mark.parametrize("bad_rule", [0, 1])
def test_paired_rules_refuse_as_each_rule_alone(bad_rule):
    # a potential that is not finite on one node of the n rule only, or of
    # the 2n rule only, raises the PoleError that rule raises alone, with
    # its message and location, from the one pass over both rules' nodes
    p = m2_params()
    pot = gauge.v_eff_model2(p, 1)
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="x1")
    alpha, beta, _ = oracle._residual_weight(wf)
    rule = oracle.gauss_jacobi((16, 32)[bad_rule], alpha, beta)
    bad = np.arctanh(rule[0][5])
    sizes = []

    def poisoned(w):
        sizes.append(np.size(w))
        return np.where(w == bad, np.inf, pot(w))

    with pytest.raises(PoleError) as alone:
        oracle._sampled(poisoned, [rule], {}, None)
    assert alone.value.location == bad
    lams = [[spectra.energy_model2_matched(m, p)] for m in range(3)]
    with pytest.raises(PoleError) as paired:
        oracle.verify_eigenpair(wf, range(3), poisoned, lams)
    assert (str(paired.value), paired.value.location) == (str(alone.value), alone.value.location)
    assert sizes == [(16, 32)[bad_rule], 16 + 32]
    # the Galerkin oracle raises what that size's basis raises alone
    exps = oracle.partner_exponents(oracle.model_spec(p, 2.0, 1.0).ends, 2.0).j1
    a, b = exps
    basis_nodes = oracle._golub_welsch((16, 32)[bad_rule], 2.0 * b - 1.0, 2.0 * a - 1.0)[0][0]
    bad = np.arctanh(basis_nodes[5])
    with pytest.raises(PoleError) as alone:
        oracle._galerkin_eigenvalues(poisoned, a, b, ((16, 32)[bad_rule],))
    with pytest.raises(PoleError) as paired:
        oracle.galerkin_levels(poisoned, exps, 4)
    assert (str(paired.value), paired.value.location) == (str(alone.value), alone.value.location)
    assert paired.value.location == bad


@pytest.mark.parametrize("nan_level, zero_level", [(1, 3), (3, 1)])
def test_report_raises_the_first_refused_level(monkeypatch, nan_level, zero_level):
    # every level's residuals come from one call, which checks each rule
    # level by level: of two broken levels, the lower one's error leaves
    # the report
    wavefn = oracle.wavefn_model1

    def broken(n, p, k):
        wf = wavefn(n, p, k)

        def ratios(t, levels):
            r, r1, r2 = (x.copy() for x in wf.ratios(t, levels))
            for i, m in enumerate(levels):
                if m == nan_level:
                    r[i, t > 0.5] = np.nan
                if m == zero_level:
                    r[i], r1[i], r2[i] = 0.0, 0.0, 0.0
            return r, r1, r2

        return _bent(wf, ratios)

    monkeypatch.setattr(oracle, "wavefn_model1", broken)
    p = gauge.Model1Params.from_branch(0.4, 2.0, "half-up")
    if nan_level < zero_level:
        # the first node with tanh w > 0.5 of the 16-node rule of half-up's
        # sphere-area weight (1-t)^(2s) (1+t)^(2B), s = -0.2 and B = 0.4
        w0 = 0.55253531303957
        t = oracle.gauss_jacobi(16, *oracle._residual_weight(wavefn(0, p, 2.0))[:2])[0]
        assert w0 == float(np.arctanh(t[t > 0.5][0]))
        with pytest.raises(PoleError, match=re.escape(f"eigenfunction is not finite at w = {w0}")) as info:
            oracle.consistency_report(p, 2.0, 1.0, levels=5)
        assert info.value.location == w0
    else:
        with pytest.raises(DomainError, match="^eigenfunction vanishes on the rule$"):
            oracle.consistency_report(p, 2.0, 1.0, levels=5)


def test_report_raises_the_refused_rule_of_the_first_reading(monkeypatch):
    # Model II at k = 1.5 and 12 levels: the classical reading settles on
    # 32 nodes, so it reads the 64-node rule, and no other sample of the
    # closed j=1 potential has 64 points.  With that potential not finite
    # on 64-point samples only, the classical reading, evaluated before any
    # d.* claim, raises the 64-node rule's PoleError, naming its first node,
    # and the X1 reading is never evaluated
    k = 1.5
    p = m2_params(C1=1 / k, k=k)
    clean = oracle.consistency_report(p, k, 1.0, levels=12)
    nodes = [c.grid["nodes"] for c in clean.claims if c.claim_id.startswith("d.eigenfunction.")]
    assert nodes == [32, 16] * 12
    closed, routine, calls = oracle.v_eff_model2, oracle.verify_eigenpair, []

    def poisoned(p, j):
        v = closed(p, j)
        return v if j == 2 else lambda w: np.full(64, np.inf) if np.size(w) == 64 else v(w)

    monkeypatch.setattr(oracle, "v_eff_model2", poisoned)
    monkeypatch.setattr(oracle, "verify_eigenpair", lambda *args: calls.append(args) or routine(*args))
    w0 = -3.779736069446877
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="classical")
    assert w0 == float(np.arctanh(oracle.gauss_jacobi(64, *oracle._residual_weight(wf)[:2])[0][0]))
    with pytest.raises(PoleError, match=re.escape(f"potential is not finite at w = {w0}")) as info:
        oracle.consistency_report(p, k, 1.0, levels=12)
    assert info.value.location == w0
    assert len(calls) == 1


def test_residual_rule_is_the_first_every_level_agrees_on():
    # examples/model2.json at 12 levels: every level of the classical reading
    # records the 32-node rule, and 16 would not do: there at least one
    # level's 16- and 32-node readings differ by more than 1e-6 (1 + reading)
    from dirac_sphere import cli

    cfg = cli.parse_config(cli._read_config(os.path.join(os.path.dirname(__file__), "..", "examples", "model2.json")))
    p = cfg.params()
    rep = oracle.consistency_report(p, cfg.k, cfg.R, levels=12)
    claims = [c for c in rep.claims if c.claim_id.startswith("d.eigenfunction.classical.")]
    assert [c.details["nodes"] for c in claims] == [32] * 12
    pot = gauge.v_eff_model2(p, 1)
    lo, hi = (
        np.array([
            _on_rule_alone(
                spectra.wavefn_model2(m, p.alpha, p.beta, polynomial="classical"), m, pot,
                [c.details["lambda_printed"], c.details["lambda_identity"]], n,
            )
            for m, c in enumerate(claims)
        ])
        for n in (16, 32)
    )
    assert np.any(np.abs(lo - hi) > oracle._RESIDUAL_TOL * (1.0 + np.abs(lo)))


def test_report_assembles_no_flux_matrix(monkeypatch):
    # the report reads no grid: with build_sl_matrix refusing, both models'
    # reports still complete, and only the forced claims' compositions assemble
    def never(*args, **kwargs):
        raise AssertionError("the report assembled a flux matrix")

    monkeypatch.setattr(oracle, "build_sl_matrix", never)
    for model in (1, 2):
        rep = oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
        assert all(c.verdict == "pass" for c in rep.claims if c.claim_id.startswith("f."))


@pytest.mark.parametrize("branch", ["neg-half", "half-down", "half-up", "three-half"])
def test_report_model1_residuals_finite_on_every_branch(branch):
    # the printed Model-I form is no eigenfunction: its continuum residuals
    # in the sphere's area measure are far above rounding (at least 0.689,
    # neg-half's level 0), finite and settled on the first rule on every branch
    rep = oracle.consistency_report(gauge.Model1Params.from_branch(0.4, 2.0, branch), 2.0, 1.0, levels=4)
    for m in range(4):
        c = rep.claim(f"d.eigenfunction.m{m}")
        assert math.isfinite(c.metric) and c.metric > 0.5, c.claim_id
        assert c.grid == {"nodes": 16} and c.details["measure"] == "sphere-area", c.claim_id
        assert max(c.details["gap_2n"]) <= 1e-6 * (1.0 + c.metric)
    g = rep.claim("g.local-energy-constancy")
    assert math.isfinite(g.metric) and math.isfinite(g.details["mean_local_energy"])


@pytest.mark.parametrize("n", [1, 2, 16, 256])
def test_galerkin_band_holds_each_subdiagonal(n, monkeypatch):
    # the band dsbev reads holds the Galerkin matrix's d-th subdiagonal in
    # row d, from column 0, and zeros past its end; the matrix is built here
    # as B diag(q) B^T plus the Jacobi operator's diagonal, B the rule's
    # eigenvector matrix
    bands, solve = [], oracle._band_eigenvalues

    def captured(band):
        bands.append(band.copy())
        return solve(band)

    monkeypatch.setattr(oracle, "_band_eigenvalues", captured)
    a, b = 0.9, 1.4
    alpha, beta = 2.0 * b - 1.0, 2.0 * a - 1.0
    (t, _), basis = oracle._golub_welsch(n, alpha, beta)

    def pot(w):
        return 3.0 / np.cosh(w) ** 2 - 1.0

    (levels,) = oracle._galerkin_eigenvalues(pot, a, b, (n,))
    q = pot(np.arctanh(t)) - a * (a - 1.0) * (1.0 - t) / (1.0 + t) - b * (b - 1.0) * (1.0 + t) / (1.0 - t)
    h = (basis * (q + 2.0 * a * b)) @ basis.T
    m = np.arange(n)
    h[m, m] += m * (m + alpha + beta + 1.0)
    (band,) = bands
    assert band.shape == (n, n)
    for d in range(n):
        assert np.array_equal(band[d, : n - d], np.diagonal(h, -d))
        assert not band[d, n - d :].any()
    assert np.array_equal(levels, solve(band))


def test_report_solves_three_galerkin_series(monkeypatch):
    # f.isospectrality solves the general j=1 and j=2 potentials, c.* the
    # closed j=1 one; e.* reads the pairing of the two general solves, so no
    # solve is made twice
    routine, calls = oracle.galerkin_levels, []

    w = np.array([0.3])

    def counted(*args, **kwargs):
        calls.append((float(args[0](w)[0]), args[1]))
        return routine(*args, **kwargs)

    monkeypatch.setattr(oracle, "galerkin_levels", counted)
    for model in (1, 2):
        calls.clear()
        oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
        spec = oracle.model_spec(_report_params(model), 2.0, 1.0)
        exps = oracle.partner_exponents(spec.ends, 2.0)
        gen1, gen2 = (gauge.v_eff_general(spec.A, spec.dA, 2.0, j)(w)[0] for j in (1, 2))
        assert calls == [(gen1, exps.j1), (gen2, exps.j2), (spec.closed1(w)[0], exps.j1)], model


def _count_samples(monkeypatch, factories):
    """Patch each oracle factory named in factories (name -> label of what it
    builds, or a callable of its last argument, the component, giving the
    label) so that every function it builds counts its samples; returns the
    Counter of (label, number of points) it fills."""
    seen = collections.Counter()
    for name, label in factories.items():
        factory = getattr(oracle, name)

        def make(*args, factory=factory, label=label):
            fn, key = factory(*args), label(args[-1]) if callable(label) else label
            return lambda w: seen.update([(key, np.size(w))]) or fn(w)

        monkeypatch.setattr(oracle, name, make)
    return seen


def _general_samples(model, k):
    """A, dA and the general j=1 and j=2 potentials sampled at _CONSTANCY_W,
    each by its own gauge call."""
    p, w = _report_params(model, k), oracle._CONSTANCY_W
    A, dA = getattr(gauge, f"a_u_model{model}")(p), getattr(gauge, f"da_u_model{model}")(p)
    return A(w), dA(w), [gauge.v_eff_general(A, dA, k, j)(w) for j in (1, 2)]


@pytest.mark.parametrize("model", [1, 2])
def test_report_samples_each_potential_once_on_the_constancy_grid(model, monkeypatch):
    # conventions.*, a.*, b.* and g.* read one sample of each function on
    # _CONSTANCY_W: the profile A and dA, raw1, closed1 and closed2; the
    # general forms are read from the profile's sample, bit for bit what
    # v_eff_general returns there, and are never sampled there themselves
    seen = _count_samples(monkeypatch, {
        f"a_u_model{model}": "A",
        f"da_u_model{model}": "dA",
        "v_eff_general": lambda j: f"general.j{j}",
        f"v_eff_model{model}_raw": "raw1",
        f"v_eff_model{model}": lambda j: f"closed{j}",
    })
    forced, routine = [], oracle._forced_claims
    monkeypatch.setattr(oracle, "_forced_claims", lambda *args: forced.append(args) or routine(*args))
    oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
    n_pts = oracle._CONSTANCY_GRID["n_pts"]
    on_grid = {label: count for (label, size), count in seen.items() if size == n_pts}
    assert on_grid == {"A": 1, "dA": 1, "raw1": 1, "closed1": 1, "closed2": 1}, seen
    (_, _, (a, da, ch, sh), general, _), = forced
    want_a, want_da, want_general = _general_samples(model, 2.0)
    w = oracle._CONSTANCY_W
    for got, want in [(a, want_a), (da, want_da), (ch, np.cosh(w)), (sh, np.sinh(w))] + list(zip(general, want_general)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("model", [1, 2])
def test_forced_claims_sample_the_profile_once(model, monkeypatch):
    # compose_factorized and the product defect read one sample of A at the
    # half points of _COMPOSE_GRID; the factorization check reads f and f'
    # from the one sample of A and dA at _CONSTANCY_W, and its metrics are
    # the bits of f and f' from samples of their own
    seen = _count_samples(monkeypatch, {f"a_u_model{model}": "A", f"da_u_model{model}": "dA"})
    rep = oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
    n_pts = oracle._CONSTANCY_GRID["n_pts"]
    assert seen[("A", oracle._COMPOSE_GRID.N + 1)] == seen[("A", n_pts)] == seen[("dA", n_pts)] == 1, seen
    a, da, general = _general_samples(model, 2.0)
    w, k = oracle._CONSTANCY_W, 2.0
    ch, sh = np.cosh(w), np.sinh(w)
    f = oracle._factor_f(a, k, w)
    df = sh * (a - k) + ch * da + 0.5 * ch
    want = [
        float(np.abs(v - g).max() / (1.0 + np.abs(g).max()))
        for v, g in zip((f * f - sh * f - ch * df, f * f + ch * df - sh * f - ch * ch), general)
    ]
    c = rep.claim("conventions.factorization-match")
    assert [c.metric, c.details["match_j2"]] == want


@pytest.mark.parametrize("levels", [4, 12])
@pytest.mark.parametrize("model", [1, 2])
def test_verify_reads_no_norm(model, levels, monkeypatch):
    # the d.* residual is scale-free: no claim reads an eigenfunction norm, so
    # a norm quadrature that cannot run leaves the report whole
    def refuse(*args):
        raise AssertionError("verify integrated an eigenfunction norm")

    monkeypatch.setattr(spectra, "_weighted_norm", refuse)
    rep = oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=levels)
    eigen = [c for c in rep.claims if c.claim_id.startswith("d.")]
    assert len(eigen) == levels * model
    for c in eigen:
        assert "norm_rule" not in c.details and "norm_nodes" not in c.details, c.claim_id
        assert c.details["norm_finite"] is (model == 2), c.claim_id
        assert ("norm_divergence" in c.details) is (model == 1), c.claim_id


_SHARED_HEAD = [
    ("f.matrix-symmetry", ()),
    ("f.isospectrality", ("zero_level", "zero_reading", "exponents_j1", "exponents_j2", "n", "gap_2n")),
    ("conventions.factorization-match", ("convention", "match_j2")),
    ("a.veff1-expansion", ("additive_constant",)),
    ("b.veff1-constrained", ("additive_constant",)),
    ("b.veff2-constrained", ("additive_constant",)),
]
_PARTNER = (
    "e1", "e2", "zero_level", "solver", "exponents_j1", "rule_j1",
    "exponents_j2", "rule_j2", "n", "gap_2n",
)
_GALERKIN = ("solver", "exponents", "n", "gap_2n")
_M2_EIGEN = (
    "lambda_printed", "residual_at_identity_energy", "lambda_identity",
    "measure", "nodes", "gap_2n", "norm_finite",
)
_REPORT_LAYOUT = {
    1: _SHARED_HEAD
    + [(f"c.spectrum.m{n}", ("closed_form", "oracle", "radicand_ok") + _GALERKIN) for n in range(3)]
    + [
        (f"d.eigenfunction.m{n}", ("lambda", "measure", "nodes", "gap_2n", "norm_finite", "norm_divergence"))
        for n in range(3)
    ]
    + [("e.partner.m1", _PARTNER), ("e.partner.m2", _PARTNER)]
    + [("g.local-energy-constancy", ("mean_local_energy", "closed_form_level0"))],
    2: _SHARED_HEAD
    + [
        (
            f"c.spectrum.m{n}",
            ("closed_form", "oracle", "identity_matched", "oracle_minus_matched") + _GALERKIN,
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
    rep = oracle.consistency_report(p, k, 1.0, levels=3)
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
