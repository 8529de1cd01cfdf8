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
import time
import types

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
    # eig_values runs dsbev on a band of width one through the ctypes binding
    # of _flapack's routine pointer, so f.isospectrality reads the bits of
    # dstevd, which runs the same tridiagonal iteration without eigenvectors,
    # and of dsbev, both called through scipy's f2py wrappers, a second
    # access path, on both compositions of D
    from scipy.linalg import lapack

    spec = oracle.model_spec(params, k, 1.0)
    for m in oracle.compose_factorized(spec.A, k, oracle._COMPOSE_GRID):
        ref, _, info = lapack.dstevd(m.diag, m.off, compute_v=0)
        assert info == 0 and np.array_equal(oracle.eig_values(m), ref)
        band, _, info = lapack.dsbev(np.vstack([m.diag, np.append(m.off, 0.0)]), compute_v=0, lower=1)
        assert info == 0 and np.array_equal(band, ref)


@pytest.mark.parametrize("n", [32, 64, 128, 256])
def test_band_eigenvalues_equal_f2py_dsbev_bitwise(n):
    # the Galerkin solves' dsbev through its ctypes binding against scipy's
    # f2py wrapper of the same routine, on a full lower band in either memory order
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
    monkeypatch.setattr(oracle, "_LAPACK", None)
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if name == "scipy" else None)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg" / "_flapack"))):
        oracle.eig_values(box_matrix(9))


def _capsule(name):
    """A capsule named `name` around a dummy pointer, kept alive with it."""
    import ctypes

    new = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_void_p, ctypes.c_char_p, ctypes.c_void_p)(
        ("PyCapsule_New", ctypes.pythonapi)
    )
    target, label = ctypes.c_int(), ctypes.create_string_buffer(name.encode())
    return new(ctypes.addressof(target), label, None), (target, label)


@pytest.mark.parametrize("source", ["ilp64-module", "no-capsule", "named-capsule"])
def test_lapack_refuses_a_routine_it_cannot_vouch_for(monkeypatch, source):
    # the f2py capsule has no name and so no signature: dsbev is called only
    # from scipy's _flapack (LP64; the ILP64 build is _flapack_64) and only
    # through an unnamed capsule; anything else is refused before any call
    flapack = oracle._flapack()
    keep = None
    if source == "ilp64-module":
        fake, shown = types.SimpleNamespace(__name__="scipy.linalg._flapack_64", dsbev=flapack.dsbev), "not from"
    elif source == "no-capsule":
        fake = types.SimpleNamespace(__name__=oracle._FLAPACK, dsbev=types.SimpleNamespace())
        shown = "no function capsule"
    else:
        capsule, keep = _capsule("dsbev")
        fake = types.SimpleNamespace(__name__=oracle._FLAPACK, dsbev=types.SimpleNamespace(_cpointer=capsule))
        shown = "no function capsule"
    monkeypatch.setitem(sys.modules, "scipy.linalg._flapack", fake)
    monkeypatch.setattr(oracle, "_LAPACK", None)
    with pytest.raises(ImportError, match=shown):
        oracle.eig_values(box_matrix(9))
    del keep


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


def _start_inline(function, args):
    # the worker runs to its end before the calling thread goes on
    function(*args)


def _start_never(function, args):
    # the worker never runs: the calling thread comes to m2 first
    pass


def _metric_bits(result):
    metric, floor, n_below = result
    return float(metric).hex(), float(floor).hex(), n_below


@pytest.mark.parametrize("params, k", _COMPOSE_CASES)
def test_concurrent_isospectrality_equals_serial(params, k, monkeypatch):
    # the two spectra solved side by side read the same bits as one after the
    # other, whichever thread solves m2: metric, floor and kernel count
    spec = oracle.model_spec(params, k, 1.0)
    dtd, ddt = oracle.compose_factorized(spec.A, k, oracle._COMPOSE_GRID)
    results = [oracle.isospectrality_metric(dtd, ddt) for _ in range(3)]
    for start in (_start_inline, _start_never):
        with monkeypatch.context() as patch:
            patch.setattr(_thread, "start_new_thread", start)
            results.append(oracle.isospectrality_metric(dtd, ddt))
    assert len({_metric_bits(result) for result in results}) == 1


class _FailingOrders:
    # dsbev failing, with info = the order, on the matrices of given orders
    def __init__(self, lapack, orders):
        self.lapack, self.orders = lapack, orders

    def dsbev(self, band):
        order = band.shape[1]
        if order in self.orders:
            return np.zeros(order), order
        return self.lapack.dsbev(band)


@pytest.mark.parametrize("start", ["threaded", "inline", "never"])
@pytest.mark.parametrize("failing, raised", [({401}, 401), ({402}, 402), ({401, 402}, 401)])
def test_isospectrality_failure_raises_in_argument_order(monkeypatch, start, failing, raised):
    # a failed solve raises, m1's first when both fail, whether the worker
    # solves m2 alongside (taking it first and ending last), before the
    # calling thread begins, or not at all; no solve is still running when it
    # raises, and the worker ends
    fake = _FailingOrders(oracle._lapack(), failing)
    monkeypatch.setattr(oracle, "_lapack", lambda: fake)
    a = gauge.a_u_model2(m2_params())
    dtd, ddt = oracle.compose_factorized(a, 2.0, oracle._COMPOSE_GRID)
    begun, finished = [], []
    second_begun = threading.Event()
    solve = oracle.eig_values

    def counted(m):
        begun.append(m.order)
        try:
            if m is ddt:
                second_begun.set()
                time.sleep(0.05)
            elif start == "threaded":
                assert second_begun.wait(timeout=30)
            return solve(m)
        finally:
            finished.append(m.order)

    monkeypatch.setattr(oracle, "eig_values", counted)
    ended = threading.Event()
    start_new_thread = _thread.start_new_thread

    def tracked(function, args):
        def worker():
            try:
                function(*args)
            finally:
                ended.set()

        {"threaded": lambda: start_new_thread(worker, ()), "inline": worker, "never": ended.set}[start]()

    monkeypatch.setattr(_thread, "start_new_thread", tracked)
    with pytest.raises(DomainError, match=rf"dsbev failed \(info={raised}\)"):
        oracle.isospectrality_metric(dtd, ddt)
    assert len(finished) == len(begun) > 0
    assert ended.wait(timeout=30)


_COLD_LOAD_PROBE = """
import importlib.machinery, json, sys, threading
import numpy as np
from dirac_sphere import oracle
assert "scipy.linalg._flapack" not in sys.modules
executed = []
exec_module = importlib.machinery.ExtensionFileLoader.exec_module
def counted(self, module):
    executed.append(module.__name__)
    return exec_module(self, module)
importlib.machinery.ExtensionFileLoader.exec_module = counted
count = 8
matrices = [
    oracle.SLMatrix(diag=np.linspace(1.0, 9.0 + i, 300) ** 2, off=np.full(299, -2.5 - i))
    for i in range(count)
]
results, errors = [None] * count, []
def solve(i):
    try:
        results[i] = oracle.eig_values(matrices[i])
    except Exception as exc:
        errors.append(repr(exc))
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=solve, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
alive = sum(t.is_alive() for t in threads)
serial = [oracle.eig_values(m) for m in matrices]
equal = all(r is not None and np.array_equal(r, s) for r, s in zip(results, serial))
print(json.dumps([executed.count("scipy.linalg._flapack"), alive, errors, equal]))
"""


def test_lapack_loads_once_from_many_threads():
    # a fresh interpreter, so the loader is cold: eight threads (more than the
    # cores) make their first solve at once, with the interpreter switching
    # threads as often as it can; the extension is executed once and every
    # spectrum matches a serial one
    res = subprocess.run(
        [sys.executable, "-c", _COLD_LOAD_PROBE], capture_output=True, text=True, env=_child_env(), timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == [1, 0, [], True]


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
    """verify_eigenpair's batch of one: the level's (readings, nodes, gap),
    or the error that refused it, raised."""
    return oracle.verify_eigenpair(wf, [level], V, [lams])[0]()


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
            ((at_printed, at_identity), _, _), _ = _model2_readings(k, m, "classical")
            assert at_printed >= 1.0 and at_identity >= 1.0, (k, m)


def test_verify_eigenpair_x1_candidate():
    # the rational-extension eigenfunction solves the closed potential exactly
    # at the identity-implied level, not at the printed one; the continuum
    # residual reads rounding (the cosh^2 8 terms), no discretization error.
    # At the printed level it reads the level offset itself (0.2225 at k = 3)
    for k in (1.5, 2.0, 3.0, 4.0):
        for m in range(4):
            ((at_printed, at_identity), nodes, gap), offset = _model2_readings(k, m, "x1")
            assert at_identity <= 1e-6 and at_printed >= 0.2, (k, m)
            assert at_printed == pytest.approx(offset, rel=1e-9), (k, m)
            assert nodes == 21 * 16 and max(gap) <= 1e-6, (k, m)


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
    # an eigenfunction that vanishes on the window cannot be judged
    zero = _bent(wf, lambda t, levels: tuple(np.zeros((len(levels), t.size)) for _ in range(3)))
    with pytest.raises(DomainError, match="vanishes on the residual window"):
        _one_level(zero, 1, pot, [1.0])


def test_verify_eigenpair_panel_cap(monkeypatch):
    # readings that never agree double the panels up to the cap, then refuse
    p = m2_params()
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="x1")
    pot = gauge.v_eff_model2(p, 1)
    seen = []
    rules = oracle._window_rules

    def counted(panels):
        seen.append(panels)
        return rules(panels)

    monkeypatch.setattr(oracle, "_window_rules", counted)
    monkeypatch.setattr(oracle, "_RESIDUAL_TOL", -1.0)
    with pytest.raises(DomainError, match="128 and 256 panels differ by .*, and 512 is past the cap of 256"):
        _one_level(wf, 0, pot, [1.0])
    # each rule is read once: the reading on 2P serves the next comparison
    assert seen == [16, 32, 64, 128, 256]


def test_verify_eigenpair_evaluates_each_rule_once_for_every_level(monkeypatch):
    # one call serves all 60 levels of a reading: a rule is evaluated once,
    # the first time a level reads it, for that level and every later one
    # (27 levels settle at 16 panels, 30 at 32 and 3 at 64, so the 128-panel
    # rule serves the last three alone), while each level keeps the rule of
    # its own n/2n decision
    k = 2.0
    p = m2_params(C1=1 / k, k=k)
    wf = spectra.wavefn_model2(0, p.alpha, p.beta, polynomial="classical")
    pot = gauge.v_eff_model2(p, 1)
    lams = [[spectra.energy_model2(m, p.alpha, p.beta, k, 1.0).E_sq_bar] for m in range(60)]
    terms, seen = oracle._residual_terms, []

    def counted(wf, levels, V, lams, panels):
        seen.append((panels, levels[0], len(levels)))
        return terms(wf, levels, V, lams, panels)

    monkeypatch.setattr(oracle, "_residual_terms", counted)
    out = [thunk() for thunk in oracle.verify_eigenpair(wf, range(60), pot, lams)]
    assert seen == [(16, 0, 60), (32, 0, 60), (64, 27, 33), (128, 57, 3)]
    assert [nodes for _, nodes, _ in out] == [336] * 27 + [672] * 30 + [1344] * 3


def test_window_rules_integrate_on_the_window():
    # one rule of P panels per call: it integrates 1 and cosh^2 over
    # |w| <= 8, 16 and 8 + sinh(16)/2, and is one cached, read-only pair
    for panels in (16, 32):
        w, q = oracle._window_rules(panels)
        assert w.size == q.size == 21 * panels
        assert np.abs(w).max() < 8.0 and float(q.sum()) == pytest.approx(16.0, rel=1e-14)
        assert float(np.dot(q, np.cosh(w) ** 2)) == pytest.approx(math.sinh(16.0) / 2 + 8.0, rel=1e-12)
        assert oracle._window_rules(panels)[0] is w and not any(a.flags.writeable for a in (w, q))


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
    g = oracle.galerkin_levels(V, exps.j1 if j == 1 else exps.j2, count, drift=0.0)
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
    # pair agrees within 1e-9.  The j=1 levels are the c.* solve's, shifted
    # by the a.* and b.veff1 additive constants (closed1 - gen1)
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
        closed = rep.claim(f"c.spectrum.m{i1}").details
        assert d["e1"] == closed["oracle"] - offset
        assert d["n"][0] == closed["n"] and d["gap_2n"][0] == closed["gap_2n"]
        assert abs(d["e1"] - g1.levels[i1]) <= 1e-9 * (1.0 + abs(g1.levels[i1]))
        assert (d["e2"], d["zero_level"]) == (g2.levels[i2], zero_level)
        assert d["exponents_j1"] == list(exps.j1) and d["exponents_j2"] == list(exps.j2)
        assert (d["rule_j1"], d["rule_j2"]) == ("principal", "image-of-D")
        assert d["n"][1] == g2.n and c.grid == {"n": max(d["n"])}
        assert c.metric == abs(d["e1"] - d["e2"]) <= 1e-9
    # a cross-check by another method: flux solves of the closed j=1
    # potential on the grid sit near the c.* levels, and the general form's
    # levels are those shifted by the a.* and b.veff1 additive constants
    flux = oracle.eig_lowest(_closed_matrix(spec.closed1, grid), 3)
    for n in range(1, min(levels, 3)):
        galerkin = rep.claim(f"c.spectrum.m{n}").details["oracle"]
        assert abs(flux[n] - galerkin) <= _FLUX_CROSS_CHECK[model]
        assert abs(g1.levels[n] - (galerkin - offset)) <= 1e-9 * (1.0 + abs(galerkin))


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


def _assert_residuals_match_one_level_calls(rep, model, p, k):
    """Every d.* number of rep equals a one-level verify_eigenpair call on
    the same eigenfunction and closed j=1 potential, bit for bit."""
    pot = gauge.v_eff_model1(p, k, 1) if model == 1 else gauge.v_eff_model2(p, 1)
    for m in range(rep.levels):
        if model == 1:
            claim = rep.claim(f"d.eigenfunction.m{m}")
            res, nodes, gap = _one_level(spectra.wavefn_model1(m, p, k), m, pot, [claim.details["lambda"]])
            assert (claim.metric, claim.details["nodes"], claim.details["gap_2n"]) == (res[0], nodes, gap)
            assert claim.grid == {"w_lo": -8.0, "w_hi": 8.0, "nodes": nodes}
            assert "norm_divergence" in claim.details
            continue
        for variant in ("classical", "x1"):
            claim = rep.claim(f"d.eigenfunction.{variant}.m{m}")
            wf = spectra.wavefn_model2(m, p.alpha, p.beta, polynomial=variant)
            d = claim.details
            res, nodes, gap = _one_level(wf, m, pot, [d["lambda_printed"], d["lambda_identity"]])
            assert [claim.metric, d["residual_at_identity_energy"]] == res
            assert (d["nodes"], d["gap_2n"]) == (nodes, gap)
            assert claim.grid == {"w_lo": -8.0, "w_hi": 8.0, "nodes": nodes} and d["window"] == 8.0
            # the residual is scale-free: the report records the norm's analytic
            # verdict and no quadrature
            assert d["norm_finite"] is wf.norm_finite is True
            assert "norm_rule" not in d and "norm_nodes" not in d


@pytest.mark.parametrize("model", [1, 2])
def test_report_residuals_match_verify_eigenpair_bitwise(model, monkeypatch):
    # the d.* numbers come from the public routine, one call per reading
    # with every level and both level constants, and each level's numbers
    # are exactly those of a one-level call made here on the same
    # eigenfunction and closed j=1 potential
    k, R = 2.0, 1.0
    p = _report_params(model, k)
    routine, calls = oracle.verify_eigenpair, []

    def counted(wf, levels, V, lams):
        calls.append((list(levels), np.shape(lams)))
        return routine(wf, levels, V, lams)

    monkeypatch.setattr(oracle, "verify_eigenpair", counted)
    rep = oracle.consistency_report(p, k, R, levels=3)
    assert calls == ([([0, 1, 2], (3, 1))] if model == 1 else [([0, 1, 2], (3, 2))] * 2)
    _assert_residuals_match_one_level_calls(rep, model, p, k)


@pytest.mark.parametrize("model, nodes", [(1, {336, 672}), (2, {336, 672, 1344})])
def test_report_residuals_at_60_levels_match_one_level_calls(model, nodes):
    # at the most levels a report serves, the levels of one reading settle
    # on rules of different sizes, each on its own: a level that agrees at
    # 16 panels records 336 nodes however many another level needs
    from dirac_sphere import cli

    path = os.path.join(os.path.dirname(__file__), "..", "examples", f"model{model}.json")
    cfg = cli.parse_config(cli._read_config(path))
    p = cfg.params()
    rep = oracle.consistency_report(p, cfg.k, cfg.R, levels=60)
    assert {c.grid["nodes"] for c in rep.claims if c.claim_id.startswith("d.")} == nodes
    _assert_residuals_match_one_level_calls(rep, model, p, cfg.k)


@pytest.mark.parametrize("nan_level, zero_level", [(1, 3), (3, 1)])
def test_report_raises_the_first_refused_level(monkeypatch, nan_level, zero_level):
    # every level's residuals come from one call, but a level's error is
    # raised when its claim is built: of two broken levels, the lower one's
    # error leaves the report, as it did when each level had its own call
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
        w0 = 0.5727809270804475  # the first node of 16 panels with tanh w > 0.5
        assert w0 == oracle._window_rules(16)[0][np.tanh(oracle._window_rules(16)[0]) > 0.5][0]
        with pytest.raises(PoleError, match=re.escape(f"eigenfunction is not finite at w = {w0}")) as info:
            oracle.consistency_report(p, 2.0, 1.0, levels=5)
        assert info.value.location == w0
    else:
        with pytest.raises(DomainError, match="^eigenfunction vanishes on the residual window$"):
            oracle.consistency_report(p, 2.0, 1.0, levels=5)


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
    # are large, but finite and converged on every branch
    rep = oracle.consistency_report(gauge.Model1Params.from_branch(0.4, 2.0, branch), 2.0, 1.0, levels=4)
    for m in range(4):
        c = rep.claim(f"d.eigenfunction.m{m}")
        assert math.isfinite(c.metric) and c.metric > 1.0, c.claim_id
        assert max(c.details["gap_2n"]) <= 1e-6 * (1.0 + c.metric)
    g = rep.claim("g.local-energy-constancy")
    assert math.isfinite(g.metric) and math.isfinite(g.details["mean_local_energy"])


def test_report_solves_two_galerkin_series(monkeypatch):
    # c.* solves the closed j=1 potential and e.* reuses it, shifted by the
    # constant closed1 - gen1; only the general j=2 potential needs its own
    routine, calls = oracle.galerkin_levels, []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return routine(*args, **kwargs)

    monkeypatch.setattr(oracle, "galerkin_levels", counted)
    for model in (1, 2):
        calls.clear()
        oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
        exps = oracle.partner_exponents(oracle.model_spec(_report_params(model), 2.0, 1.0).ends, 2.0)
        assert calls == [exps.j1, exps.j2], model


@pytest.mark.parametrize("model", [1, 2])
def test_report_samples_each_potential_once_on_the_constancy_grid(model, monkeypatch):
    # conventions.*, a.*, b.* and g.* read one sample of each potential on
    # _CONSTANCY_W: gen1 and gen2 (the general forms), raw1, closed1, closed2
    seen = collections.Counter()

    def counting(name, factory):
        def make(*args):
            pot = factory(*args)
            label = name if name.endswith("raw") else f"{name}.j{args[-1]}"

            def fn(w):
                seen[label] += np.size(w) == oracle._CONSTANCY_GRID["n_pts"]
                return pot(w)

            return gauge.EffectivePotential(fn)

        return make

    names = ("v_eff_general", f"v_eff_model{model}", f"v_eff_model{model}_raw")
    for name in names:
        monkeypatch.setattr(oracle, name, counting(name, getattr(oracle, name)))
    oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
    general, closed, raw = names
    want = [f"{general}.j1", f"{general}.j2", raw, f"{closed}.j1", f"{closed}.j2"]
    assert seen == {label: 1 for label in want}


@pytest.mark.parametrize("model", [1, 2])
def test_forced_claims_sample_the_profile_once(model, monkeypatch):
    # compose_factorized and the product defect read one sample of A at the
    # half points of _COMPOSE_GRID
    sizes = []
    factory = getattr(oracle, f"a_u_model{model}")

    def make(*args):
        a = factory(*args)
        return lambda w: sizes.append(np.size(w)) or a(w)

    monkeypatch.setattr(oracle, f"a_u_model{model}", make)
    oracle.consistency_report(_report_params(model), 2.0, 1.0, levels=4)
    assert sizes.count(oracle._COMPOSE_GRID.N + 1) == 1, sizes


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
    ("f.isospectrality", ("zero_floor", "n_below_floor")),
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
    "window", "nodes", "gap_2n", "norm_finite",
)
_REPORT_LAYOUT = {
    1: _SHARED_HEAD
    + [(f"c.spectrum.m{n}", ("closed_form", "oracle", "radicand_ok") + _GALERKIN) for n in range(3)]
    + [
        (f"d.eigenfunction.m{n}", ("lambda", "window", "nodes", "gap_2n", "norm_finite", "norm_divergence"))
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
