"""Independent numerical ground truth for the transformed Dirac eigenproblems.

The c.* and e.* levels come from galerkin_levels, a Jacobi-Galerkin solve in
t = tanh w, where -(cosh^2 w phi')' + V phi becomes -(1-t^2) phi'' + V phi on
(-1, 1).  Its basis (1+t)^a (1-t)^b p_m(t) carries Frobenius exponents a, b
that follow from the gauge profile's end values (partner_exponents, never a
fit): the principal ones for j=1, for j=2 the exponents of D's image.  The
orthonormal Jacobi polynomials p_m are read from the eigenvectors of
specfun's Golub-Welsch solve; the basis doubles until n and 2n functions
agree, up to a cap, so every level carries its own error estimate.  Its
symmetric matrix goes to LAPACK dsbev, whose result does not depend on the
BLAS thread count.

The d.* residuals (verify_eigenpair) apply the operator to the printed
eigenfunction exactly and integrate over |w| <= 8: the report reads no grid.
One call serves every level of a reading: each quadrature rule is evaluated
once for the levels that may read it (one tanh, potential sample, envelope
and recurrence table per Jacobi family), while each level doubles its rule
on its own and any error it meets is raised when its claim is built.
The forced checks discretize it with a conservative (flux-form) finite-
difference scheme on a uniform grid over [-L, L] with Dirichlet walls.
Every flux-form matrix is symmetric tridiagonal and is stored as its
diagonal and off-diagonal arrays (SLMatrix diag, off), so real spectra are
structural; the solves return eigenvalues only.  Every spectrum, Galerkin
or flux-form (a band of width one), is solved by LAPACK dsbev, the one
routine the package binds.  Its address comes from scipy's f2py extension
_flapack, loaded by path on the first solve, and it is called through
ctypes, which releases the GIL: the commands that never solve do not load
scipy, verify runs neither scipy's package init nor scipy.linalg's, and the
two spectra of the forced isospectrality check are solved side by side on
two threads.

The first-order operator D = cosh d/dw + f, f = cosh (A - k) + sinh/2, that
factors the general j=1 potential is discretized on the staggered grid (nodes
to half points); Dt*D then carries exactly the flux-form kinetic stencil, and
the two compositions Dt*D and D*Dt share their nonzero spectrum -- the forced
isospectrality check.  The forced matrix-symmetry check compares their
assembled bands with D and Dt applied in turn as bidiagonal maps, read
through three probe vectors, in O(N) and with no dense product.  The same f
ties D to the general potentials through two continuum identities, which the
report samples with no eigensolve.  One consistency-report engine attaches a
verdict to every closed-form formula of both gauge models; each model enters
it as a small spec of its formulas (potentials, levels, eigenfunction
readings and solvable-structure identity), so both reports share every claim
family.  model_spec is the one place where a parameter set selects its model;
the CLI commands read their curves, levels, eigenfunctions and poles from the
same spec; a real pole is refused before any claim.

Verdict policy (applied by Claim alone): mathematically forced claims (f.*)
must PASS; transcription claims are always 'recorded' with their metric,
because the closed forms contain apparent typos that this package is meant to
expose, not hide.
"""
import _thread
import ctypes
import functools
import math
import os
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import DiracSphereError, DomainError, PoleError
from .gauge import (
    EffectivePotential,
    Model1Params,
    Model2Params,
    a_u_model1,
    a_u_model2,
    da_u_model1,
    da_u_model2,
    midya_rhs,
    v_eff_general,
    v_eff_model1,
    v_eff_model1_raw,
    v_eff_model2,
    v_eff_model2_raw,
)
from .specfun import _golub_welsch, gauss_jacobi
from .spectra import (
    energy_model1,
    energy_model2,
    energy_model2_matched,
    wavefn_model1,
    wavefn_model2,
)

__all__ = [
    "Grid",
    "SLMatrix",
    "build_sl_matrix",
    "eig_lowest",
    "eig_values",
    "compose_factorized",
    "GALERKIN_MAX_LEVELS",
    "GalerkinLevels",
    "PartnerExponents",
    "partner_exponents",
    "galerkin_levels",
    "verify_eigenpair",
    "Claim",
    "VerificationReport",
    "consistency_report",
    "model_spec",
]

_EPS = np.finfo(float).eps


class Grid:
    """Uniform interior grid on [-L, L] with Dirichlet boundaries at +-L."""

    __slots__ = ("L", "N")

    def __init__(self, L: float, N: int):
        if not 0.0 < L < math.inf:
            raise DomainError(f"grid half-width must be positive and finite, got {L}")
        if N < 3 or int(N) != N:
            raise DomainError(f"need at least 3 interior points, got {N}")
        self.L, self.N = L, N

    @property
    def h(self):
        return 2.0 * self.L / (self.N + 1)

    def points(self):
        return -self.L + self.h * np.arange(1, self.N + 1)

    def half_points(self):
        return -self.L + self.h * (np.arange(0, self.N + 1) + 0.5)


class SLMatrix:
    """Symmetric tridiagonal matrix: diag (order entries) and off, the
    order - 1 entries next to it.

    The order is grid.N on the nodes, or grid.N + 1 for D*Dt on the half
    points; the matrix does not carry its grid.
    """

    __slots__ = ("diag", "off")

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        self.diag, self.off = diag, off

    @property
    def order(self):
        return self.diag.size

    def matvec(self, x):
        y = self.diag * x
        y[1:] += self.off * x[:-1]
        y[:-1] += self.off * x[1:]
        return y


def build_sl_matrix(p_fn, q_fn, grid: Grid) -> SLMatrix:
    """Flux-form discretization of -(p(w) phi')' + q(w) phi on the grid.

    Row i couples p at the half points w_{i +- 1/2}:
       (M phi)_i = [p_{i+1/2}(phi_i - phi_{i+1}) + p_{i-1/2}(phi_i - phi_{i-1})]/h^2
                   + q(w_i) phi_i.
    Non-finite samples, or a p that is not positive, raise PoleError naming
    the first such w, whatever the warnings filter: p and q are sampled with
    numpy's warnings off.
    """
    w, wh = grid.points(), grid.half_points()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ph = np.asarray(p_fn(wh), dtype=float)
        bad = ~(np.isfinite(ph) & (ph > 0.0))
        if np.any(bad):
            w0 = float(wh[bad][0])
            raise PoleError(
                f"p(w) must be positive and finite on the grid, and is not at w = {w0}",
                location=w0,
            )
        qv = _require_finite(w, np.asarray(q_fn(w), dtype=float), "potential")
        h2 = grid.h * grid.h
        return SLMatrix(diag=(ph[:-1] + ph[1:]) / h2 + qv, off=-ph[1:-1] / h2)


def _require_finite(w, values, what):
    """values, sampled at w, unless one is not finite: then PoleError naming
    the first such w."""
    bad = ~np.isfinite(values)
    if np.any(bad):
        w0 = float(w[bad][0])
        raise PoleError(f"{what} is not finite at w = {w0}", location=w0)
    return values


_FLAPACK = "scipy.linalg._flapack"


class _Lapack:
    """dsbev from scipy's f2py extension _flapack, the one LAPACK routine the
    oracle calls, as a ctypes function: the call runs without the GIL, so two
    threads solve side by side.

    The f2py routine object carries, in _cpointer, a capsule with no name
    around the address of LAPACK's own dsbev, so there is no C signature to
    check.  Two things are checked instead, before any call: the module is
    scipy's _flapack, whose routines take 32-bit integers by scipy's own
    contract (get_lapack_funcs(ilp64=False) serves them; the 64-bit-integer
    build is _flapack_64), and dsbev._cpointer is a capsule with no name, as
    f2py makes it.  Otherwise ImportError says which check failed.
    """

    def __init__(self, flapack):
        name = getattr(flapack, "__name__", None)
        if name != _FLAPACK:
            raise ImportError(f"dsbev must come from {_FLAPACK}, not from {name!r}", name=_FLAPACK)
        capsule = getattr(flapack.dsbev, "_cpointer", None)
        is_capsule = ctypes.PYFUNCTYPE(ctypes.c_int, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_IsValid", ctypes.pythonapi)
        )
        if not is_capsule(capsule, None):
            raise ImportError(f"{_FLAPACK}.dsbev carries no function capsule in _cpointer", name=_FLAPACK)
        get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi)
        )
        i, d = ctypes.POINTER(ctypes.c_int), ctypes.POINTER(ctypes.c_double)
        prototype = ctypes.CFUNCTYPE(None, ctypes.c_char_p, ctypes.c_char_p, i, i, d, i, d, d, i, d, i)
        self._dsbev = prototype(get_pointer(capsule, None))

    def dsbev(self, band):
        """(values, info): all eigenvalues, ascending, of the symmetric band
        matrix whose lower band (row d the d-th subdiagonal) band holds, and
        LAPACK's INFO.  band is copied, so no caller's array is overwritten."""
        ab = np.array(band, dtype=float, order="F")
        if ab.ndim != 2:
            raise ValueError(f"expected a band of two dimensions, got shape {ab.shape}")
        kd, n = ab.shape[0] - 1, ab.shape[1]
        w, work, info = np.empty(n), np.empty(max(1, 3 * n - 2)), ctypes.c_int()
        # each array as a ctypes array over its data (ab's a Fortran-order
        # view), which the routine writes; each integer by reference
        ab_p, w_p, work_p = ((ctypes.c_double * a.size).from_buffer(a.ravel(order="F")) for a in (ab, w, work))
        n_p, kd_p, ldab_p, ldz_p = (ctypes.byref(ctypes.c_int(i)) for i in (n, kd, kd + 1, 1))
        z = ctypes.byref(ctypes.c_double())  # not referenced: no eigenvectors
        self._dsbev(b"N", b"L", n_p, kd_p, ab_p, ldab_p, w_p, z, ldz_p, work_p, ctypes.byref(info))
        return w, info.value


def _load_flapack():
    """scipy's _flapack extension, loaded by path from the scipy package's
    directory, which importlib finds without importing scipy."""
    import importlib.machinery
    import importlib.util

    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed", name="scipy")
    paths = [
        os.path.join(d, "linalg", "_flapack" + suffix)
        for d in spec.submodule_search_locations
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        raise ImportError(f"scipy's LAPACK extension is missing: {paths[0]}", name=_FLAPACK, path=paths[0])
    loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
    loader.exec_module(module)
    return module


def _flapack():
    """scipy's f2py LAPACK extension module, _flapack.

    It is loaded by path, so no scipy module runs: neither scipy's package
    init nor scipy.linalg's, which pulls in numpy.f2py, numpy.testing and
    numpy.polynomial.  Should the load fail, `import scipy` runs the
    distributor init (on Windows wheels it puts the bundled LAPACK DLL on the
    search path) and the load is tried once more.  The module is registered
    under its own name, as an import would, so a later `import scipy.linalg`
    reuses it, and one that scipy.linalg loaded first is reused here.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        try:
            module = _load_flapack()
        except ImportError:
            import scipy  # noqa: F401

            module = _load_flapack()
        sys.modules[_FLAPACK] = module
    return module


_LAPACK_LOCK = threading.Lock()
_LAPACK = None  # the loaded _Lapack, once per process


def _lapack():
    """scipy's LAPACK dsbev (_Lapack), from its f2py extension _flapack,
    loaded once per process under a lock, so threads that solve at once load
    the extension once."""
    global _LAPACK
    with _LAPACK_LOCK:
        if _LAPACK is None:
            _LAPACK = _Lapack(_flapack())
        return _LAPACK


def _bands(m: SLMatrix):
    """m's two bands, refused with DomainError unless every entry is finite."""
    if not (np.isfinite(m.diag).all() and np.isfinite(m.off).all()):
        raise DomainError(f"matrix bands of order {m.order} are not finite")
    return m.diag, m.off


def eig_lowest(m: SLMatrix, count: int):
    """The `count` algebraically smallest eigenvalues, as an ascending array:
    the first `count` of eig_values, bit for bit.  Non-finite bands or a
    LAPACK failure raise DomainError.
    """
    if count < 1 or count > m.order:
        raise DomainError(f"count must be in [1, {m.order}], got {count}")
    return eig_values(m)[:count]


def eig_values(m: SLMatrix):
    """All eigenvalues, ascending: LAPACK dsbev on the two bands, a band of
    width one (_band_eigenvalues).

    On a band of width one dsbev skips the reduction and runs the same
    root-free QL/QR iteration as dstevd on a tridiagonal matrix when no
    eigenvectors are asked for, so the bits are dstevd's; the drivers' norm
    test rescales only a matrix whose largest entry lies outside
    [1.5e-146, 7e145], and every flux-form matrix lies inside.  The call runs
    without the GIL (_Lapack).  Non-finite bands or a LAPACK failure raise
    DomainError.
    """
    diag, off = _bands(m)
    return _band_eigenvalues(np.stack((diag, np.append(off, 0.0))))


# The first-order operator of the factorization, as recorded in the report.
_D_NAME = "staggered cosh*d/dw + cosh*(A-k) + sinh/2"


def _factor_f(a, k, w):
    """f = cosh (A - k) + sinh/2 at w, the multiplier of D = cosh d/dw + f,
    from a, the sample of A at w."""
    return np.cosh(w) * (a - k) + 0.5 * np.sinh(w)


def _staggered_factor(A, k, grid: Grid):
    """The two nonzero diagonals of the staggered (N+1) x N operator D.

    (D phi)_r = lo[r] phi_{r-1} + up[r] phi_r on half point r = 0..N (node
    indices from 0), i.e. cosh (phi_r - phi_{r-1})/h + f (phi_{r-1} + phi_r)/2
    with cosh and f (_factor_f) sampled at the half point.  The walls hold
    phi at zero, so lo[0] = up[N] = 0.
    """
    wh = grid.half_points()
    c = np.cosh(wh)
    f = _factor_f(np.asarray(A(wh), dtype=float), k, wh)
    lo = -c / grid.h + 0.5 * f
    up = c / grid.h + 0.5 * f
    lo[0] = 0.0
    up[-1] = 0.0
    return lo, up


def compose_factorized(A, k, grid: Grid):
    """Return (Dt D on the N nodes, D Dt on the N+1 half points), tridiagonal.

    D is the staggered first-order operator of _staggered_factor.  In the
    continuum Dt D is the j=1 operator -(cosh^2 phi')' + V_1 phi of
    v_eff_general and D Dt its j=2 partner; on the grid Dt D carries exactly
    the kinetic stencil of build_sl_matrix(cosh^2, ...), and D Dt has a
    one-vector kernel besides the nonzero spectrum the two share (the forced
    invariant).  Both are assembled entry-wise from the diagonals of D.
    """
    lo, up = _staggered_factor(A, k, grid)
    return (
        SLMatrix(diag=up[:-1] ** 2 + lo[1:] ** 2, off=up[1:-1] * lo[1:-1]),
        SLMatrix(diag=up**2 + lo**2, off=lo[1:] * up[:-1]),
    )


def _band_deviation(m: SLMatrix, product):
    """max |product - m| / max |m| over every band entry of m, where product
    applies the matrix m should equal to a vector.

    Three probes recover a tridiagonal matrix in O(order): the unit vectors
    summed with stride 3 at offsets 0, 1 and 2.  Row i of M p meets exactly
    one of columns i-1, i, i+1 of a probe, so each entry of M p is one band
    entry of M, and the three probes between them reach all of them.
    """
    dev = 0.0
    for offset in range(3):
        p = np.zeros(m.order)
        p[offset::3] = 1.0
        dev = max(dev, np.abs(product(p) - m.matvec(p)).max())
    return float(dev / max(np.abs(m.diag).max(), np.abs(m.off).max()))


def _product_defect(A, k, grid: Grid, dtd: SLMatrix, ddt: SLMatrix):
    """Deviation of the assembled compositions from D and Dt applied in turn.

    D and Dt act as bidiagonal maps built from _staggered_factor's lo and up;
    each composition is probed as in _band_deviation, relative to the
    largest band entry of its matrix.
    """
    lo, up = _staggered_factor(A, k, grid)

    def d(x):  # N nodes -> N + 1 half points
        y = up * np.append(x, 0.0)
        y[1:] += lo[1:] * x
        return y

    def dt(y):  # N + 1 half points -> N nodes
        return up[:-1] * y[:-1] + lo[1:] * y[1:]

    return max(
        _band_deviation(dtd, lambda x: dt(d(x))), _band_deviation(ddt, lambda y: d(dt(y)))
    )


def isospectrality_metric(m1: SLMatrix, m2: SLMatrix):
    """Max relative deviation between matched sorted spectra above the
    numerical-zero floor.

    Eigenvalues below floor = 1e8 * eps * max|spectrum| cannot be certified
    at 1e-8 relative accuracy by the tridiagonal solver, so they are treated
    as the common numerical kernel.  The orders may differ by one (D*Dt
    carries one more row than Dt*D); the counts below the floor must then
    differ by exactly that one, so the same number of eigenvalues is left
    above it.  Returns (metric, floor, larger count below the floor).

    The two spectra are computed side by side: m2's on a worker thread, m1's
    on the calling one, each a dsbev call that runs without the GIL
    (eig_values).  The worker is started without waiting for it to run, and
    whichever thread comes to m2 first solves it: the calling thread waits
    only for a worker that has begun, so a worker that the system is slow to
    schedule costs at most the serial time.  At N = 401 the pair takes 4.2 ms on two
    CPUs against 7.2 ms for two serial solves, and 7.4 ms against 7.1 ms on
    one CPU, where the two threads share it.  Both bands are checked before
    the worker starts, and a failed solve raises in argument order, m1's
    first.
    """
    if abs(m1.order - m2.order) > 1:
        raise DomainError(f"orders {m1.order} and {m2.order} differ by more than one")
    for m in (m1, m2):
        _bands(m)
    _lapack()
    claim = threading.Lock()  # taken by whichever thread solves m2
    solved = threading.Lock()  # held until a worker that took m2 is done
    solved.acquire()
    second = []  # the worker's spectrum of m2, or the error its solve raised

    def solve_second():
        if claim.acquire(blocking=False):
            try:
                second.append(eig_values(m2))
            except BaseException as exc:  # raised on the calling thread below
                second.append(exc)
            finally:
                solved.release()

    _thread.start_new_thread(solve_second, ())
    try:
        s1 = eig_values(m1)
    finally:
        if not claim.acquire(blocking=False):
            solved.acquire()
    if second:
        (s2,) = second
        if isinstance(s2, BaseException):
            raise s2
    else:  # the worker had not begun: m2 is solved here
        s2 = eig_values(m2)
    scale = max(np.abs(s1).max(), np.abs(s2).max())
    floor = 1e8 * _EPS * scale
    above1 = s1[np.abs(s1) > floor]
    above2 = s2[np.abs(s2) > floor]
    n_below = max(s1.size - above1.size, s2.size - above2.size)
    if above1.size != above2.size:
        return float("inf"), floor, n_below
    if not above1.size:
        return 0.0, floor, n_below
    return float((np.abs(above1 - above2) / np.abs(above1)).max()), floor, n_below


def _doubled(read, n, cap, tol, what, sizes):
    """(read(n), |read(n) - read(2n)|, n) for the first n, doubling from the
    one given, at which every reading agrees with 2n's within
    tol (1 + |reading|); each read(n) is taken once.  A 2n past cap raises
    DomainError naming the last two sizes (sizes formats them), the gap and
    the cap; the first 2n must not be past it.
    """
    lo = read(n)
    while 2 * n <= cap:
        hi = read(2 * n)
        gap = np.abs(lo - hi)
        if np.all(gap <= tol * (1.0 + np.abs(lo))):
            return lo, gap, n
        n, lo = 2 * n, hi
    raise DomainError(
        f"{what} did not converge: {sizes.format(n // 2, n)} differ by {float(gap.max()):.3e}, "
        f"and {2 * n} is past the cap of {cap}"
    )


# The Jacobi-Galerkin oracle: bases of n and 2n functions, doubled from
# max(16, 2 levels + 8) until the two agree; 2n never exceeds the cap.
_GALERKIN_CAP = 256
_GALERKIN_TOL = 1e-9
GALERKIN_MAX_LEVELS = (_GALERKIN_CAP // 2 - 8) // 2


class GalerkinLevels:
    """The lowest levels of a Jacobi-Galerkin solve and how they were found.

    levels come from the basis of n functions; gap holds their distances to
    the levels of the 2n basis, one per level.
    """

    __slots__ = ("levels", "gap", "n")

    def __init__(self, levels: np.ndarray, gap: np.ndarray, n: int):
        self.levels, self.gap, self.n = levels, gap, n


def _galerkin_eigenvalues(V, a, b, n):
    """All n eigenvalues of -(1-t^2) phi'' + V phi in the basis
    (1+t)^a (1-t)^b p_m(t), m < n, with p_m the Jacobi polynomials of
    (alpha, beta) = (2b - 1, 2a - 1) orthonormal under their weight.

    The basis turns the operator into the Jacobi operator, diagonal with
    m (m + alpha + beta + 1), plus the bounded potential
    q = V - a(a-1)(1-t)/(1+t) - b(b-1)(1+t)/(1-t) + 2ab; q enters as
    B diag(q) B^T over the n-node Gauss-Jacobi rule, B its eigenvector
    matrix, so the basis is orthonormal with no polynomial evaluated.  V
    maps w = artanh t to the potential; a sample that is not finite raises
    PoleError naming its w.
    """
    alpha, beta = 2.0 * b - 1.0, 2.0 * a - 1.0
    (t, _), basis = _golub_welsch(n, alpha, beta)
    w = np.arctanh(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = _require_finite(w, np.asarray(V(w), dtype=float), "potential")
    q = v - a * (a - 1.0) * (1.0 - t) / (1.0 + t) - b * (b - 1.0) * (1.0 + t) / (1.0 - t)
    q += 2.0 * a * b
    h = (basis * q) @ basis.T
    m = np.arange(n)
    h[m, m] += m * (m + alpha + beta + 1.0)
    i, j = np.tril_indices(n)
    band = np.zeros((n, n), order="F")  # h's lower triangle as one full band
    band[i - j, j] = h[i, j]
    return _band_eigenvalues(band)


def _band_eigenvalues(band):
    """All eigenvalues, ascending, of the symmetric band matrix whose lower
    band (row d the d-th subdiagonal) band holds: LAPACK dsbev, which serves
    every spectrum, a Galerkin matrix (one full band) and a flux-form one
    (a band of width one, eig_values) alike.

    dsbev reduces the band to tridiagonal form by Givens rotations alone, so
    its result is the same bits for every BLAS thread count; the blocked
    reduction behind numpy.linalg.eigvalsh is not (its levels differ in the
    last bits between 1 and 2 OpenBLAS threads at 256 rows).  A LAPACK
    failure raises DomainError.
    """
    w, info = _lapack().dsbev(band)
    if info:
        raise DomainError(f"LAPACK dsbev failed (info={info})")
    return w


# An image-of-D exponent and a Frobenius root, or two exponents, agree
# within this
_ROOT_TOL = 1e-12


class PartnerExponents:
    """The Galerkin envelope exponents (a, b) at t = -1 and t = +1 of the two
    components, and which one carries the unpaired zero level.

    j1 holds the principal roots, j2 at each pole the root of its own pair
    that is the exponent of D phi for a j=1 state phi; zero_level is "j=1",
    "j=2" or "neither".
    """

    __slots__ = ("j1", "j2", "zero_level")

    def __init__(self, j1: Tuple[float, float], j2: Tuple[float, float], zero_level: str):
        self.j1, self.j2, self.zero_level = j1, j2, zero_level


def partner_exponents(ends, k) -> PartnerExponents:
    """The exponents of both components, from the gauge profile's end values
    ends (A at t = -1, A at t = +1); never from the numbers of a solve.

    At the end eps = -+1, nu_1 = k - A_eps + eps/2 and nu_2 = k - A_eps - eps/2
    fix the Frobenius pairs (1 +- |nu_j|)/2 of the general potentials.  j=1
    takes the principal root a_1 = (1 + |nu_1|)/2; j=2 takes whichever of
    a_1 -+ 1/2 is a root of its own pair, and raises DomainError where both
    are or neither is (nu_1 = 0, the log case).  The kernel of D,
    exp(int (k - A) - tanh/2 dw), has the exponents (nu_2,-/2, -nu_2,+/2);
    the kernel of Dt, exp(int (A - k) - tanh/2 dw), has
    (-nu_1,-/2, nu_1,+/2): a component carries the zero level iff its
    kernel has that component's exponents at both poles.
    """
    signs = (-1.0, 1.0)
    nu1 = [k - A + 0.5 * eps for A, eps in zip(ends, signs)]
    nu2 = [k - A - 0.5 * eps for A, eps in zip(ends, signs)]
    j1 = tuple((1.0 + abs(nu)) / 2.0 for nu in nu1)
    j2 = []
    for a1, n1, n2, eps in zip(j1, nu1, nu2, signs):
        roots = ((1.0 - abs(n2)) / 2.0, (1.0 + abs(n2)) / 2.0)
        image = [e for e in (a1 - 0.5, a1 + 0.5) if min(abs(e - r) for r in roots) <= _ROOT_TOL]
        if len(image) != 1:
            raise DomainError(
                f"the image of D has no unique exponent at t = {eps:+.0f} (nu_1 = {n1:.6g}, "
                f"candidates {a1 - 0.5:.6g} and {a1 + 0.5:.6g}, j=2 roots {roots[0]:.6g} and "
                f"{roots[1]:.6g}): the log case nu_1 = 0 is not served"
            )
        j2.append(image[0])

    def matches(kernel, exponents):
        return all(abs(x - e) <= _ROOT_TOL for x, e in zip(kernel, exponents))

    zero = "neither"
    if matches((nu2[0] / 2.0, -nu2[1] / 2.0), j1):
        zero = "j=1"
    elif matches((-nu1[0] / 2.0, nu1[1] / 2.0), j2):
        zero = "j=2"
    return PartnerExponents(j1=j1, j2=tuple(j2), zero_level=zero)


def galerkin_levels(V, exponents, count, poles=(), drift=0.0) -> GalerkinLevels:
    """The `count` lowest levels of the operator -(cosh^2 phi')' + V phi.

    In t = tanh w the operator is -(1-t^2) phi'' + V phi on (-1, 1).
    exponents are the envelope exponents (a, b) at t = -1 and t = +1
    (partner_exponents), which belong to the general potential of a
    component; they hold for V only while V differs from that potential by
    a constant: drift is the measured spread of that difference relative to
    1 + max |V|, and one past 1e-9 raises DomainError rather than guess the
    exponents.  The basis grows from max(16, 2 count + 8) functions by
    doubling until the levels of n and 2n functions agree within
    1e-9 (1 + |level|), and the n levels are returned.  A 2n past 256 raises
    DomainError, as does a count past GALERKIN_MAX_LEVELS; a real pole (one
    in poles) raises PoleError first, since it lies inside (-1, 1) whatever
    the grid.
    """
    if poles:
        raise PoleError(
            f"potential pole at w = {poles[0]}: the Jacobi-Galerkin oracle needs V finite "
            "on the whole line",
            location=poles[0],
        )
    if not 1 <= count <= GALERKIN_MAX_LEVELS:
        raise DomainError(f"level count must be in [1, {GALERKIN_MAX_LEVELS}], got {count}")
    if not drift <= _GALERKIN_TOL:
        raise DomainError(
            f"the potential differs from the general form by more than a constant "
            f"(spread {drift:.3e} of 1 + max |V| > {_GALERKIN_TOL:g}): the end values do not "
            "fix its Frobenius exponents"
        )
    a, b = exponents
    levels, gap, n = _doubled(
        lambda n: _galerkin_eigenvalues(V, a, b, n)[:count], max(16, 2 * count + 8),
        _GALERKIN_CAP, _GALERKIN_TOL, "Jacobi-Galerkin levels", "bases of {} and {} functions",
    )
    return GalerkinLevels(levels=levels, gap=gap, n=n)


# The d.* residuals: 21-point Gauss-Legendre panels on |w| <= 8, 16 and 32
# of them first, doubled until two readings agree; never past the cap
_RESIDUAL_WINDOW = 8.0
_RESIDUAL_PANELS = 16
_RESIDUAL_MAX_PANELS = 256
_RESIDUAL_TOL = 1e-6


@functools.lru_cache(maxsize=None)
def _window_rules(panels):
    """(w, q): the nodes and weights of `panels` equal 21-point Gauss-Legendre
    panels on |w| <= 8; read-only."""
    x, q = gauss_jacobi(21, 0.0, 0.0)
    edges = np.linspace(-_RESIDUAL_WINDOW, _RESIDUAL_WINDOW, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1])[:, None], 0.5 * np.diff(edges)[:, None]
    w, q = (mid + half * x).ravel(), (half * q).ravel()
    for arr in (w, q):  # cached: every caller shares these arrays
        arr.flags.writeable = False
    return w, q


def _local_terms(wf, levels, t, v):
    """(r, K), one row per level index in levels, with phi = E r and
    H phi = E K at t = tanh w for the levels of wf's reading, E = (1-t)^a (1+t)^b
    the envelope and H phi = -(1-t^2) phi_tt + V phi, V sampled as v: exact,
    from phi_tt = E (r'' + 2 L r' + (L^2 + L') r) with L = -a/(1-t) + b/(1+t)."""
    a, b = wf.exponents
    r, r1, r2 = wf.ratios(t, levels)
    dlog = -a / (1.0 - t) + b / (1.0 + t)
    d2log = -a / (1.0 - t) ** 2 - b / (1.0 + t) ** 2
    return r, -(1.0 - t * t) * (r2 + 2.0 * dlog * r1 + (dlog * dlog + d2log) * r) + v * r


def _sampled_once(V):
    """V, sampled once per node set, which its size names: a _window_rules
    set, or the half points of _COMPOSE_GRID."""
    samples = {}

    def sampled(w):
        if w.size not in samples:
            samples[w.size] = V(w)
        return samples[w.size]

    return sampled


def _deferred(fn, *args):
    """fn(*args), evaluated now and returned as a thunk: calling it gives the
    value, or raises the package error fn raised (any other exception
    propagates at once)."""
    try:
        value = fn(*args)
    except DiracSphereError as err:  # re-raised by the thunk, never dropped
        error = err

        def refused():
            raise error

        return refused
    return lambda: value


def verify_eigenpair(wf, levels, V, lams):
    """Relative residuals ||(H - lam) phi|| / ||phi|| in L^2(|w| <= 8) of the
    printed eigenfunctions phi of wf's reading (wf a WaveFunctionSpec of any
    of its levels) at each level index in levels, one per level constant in
    that level's row of lams, under H phi = -(cosh^2 phi')' + V phi, applied
    exactly.

    Each level's readings are taken on P and 2P panels (_window_rules) from
    P = 16, P doubled by _doubled while any two differ by more than
    1e-6 (1 + reading); every level stops at its own P.  A rule is
    evaluated once, the first time a level reads it, for that level and
    every later one: one tanh, potential sample, envelope and recurrence
    table per Jacobi family serve all of them and their level constants.  A
    rule whose evaluation raises refuses the level that read it, and the
    next level to read it evaluates it again.
    Returns one thunk per level, to be called when its claim is built: it
    gives (readings on P panels, node count 21 P, each reading's distance to
    2P), or raises what refused that level.  A 2P past 256, or a phi that
    vanishes on the window, raises DomainError; a sample that is not finite
    raises PoleError naming its w.
    """
    levels = list(levels)
    lams = np.asarray(lams, dtype=float).reshape(len(levels), -1)
    rules = {}

    def reading(panels, i):
        # levels settle in order, so a rule is evaluated for the first level
        # that reads it and every later one; each level reads its own row
        if panels not in rules:
            rules[panels] = i, _residual_terms(wf, levels[i:], V, lams[i:], panels)
        first, terms = rules[panels]
        return _residual_reading(terms, i - first)

    def level(i):
        res, gap, panels = _doubled(
            lambda panels: reading(panels, i), _RESIDUAL_PANELS, _RESIDUAL_MAX_PANELS, _RESIDUAL_TOL,
            "eigenpair residuals", "{} and {} panels",
        )
        return res.tolist(), _window_rules(panels)[0].size, gap.tolist()

    return [_deferred(level, i) for i in range(len(levels))]


def _residual_terms(wf, levels, V, lams, panels):
    """What every level of verify_eigenpair reads on `panels` panels, each
    array with one row per level: (w, q, phi, E K, whether each row of either
    is finite, phi^2, (E (K - lam r))^2 per level constant), E the envelope
    and H phi = E K.  A potential sample that is not finite raises PoleError
    naming its w."""
    w, q = _window_rules(panels)
    t = np.tanh(w)
    a, b = wf.exponents
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        v = _require_finite(w, np.asarray(V(w), dtype=float), "potential")
        r, k_r = _local_terms(wf, levels, t, v)
        env = (1.0 - t) ** a * (1.0 + t) ** b
        phi, h_phi = env * r, env * k_r
        finite = np.isfinite(phi).all(axis=1) & np.isfinite(h_phi).all(axis=1)
        off = env * (k_r[:, None] - lams[:, :, None] * r[:, None])
        return w, q, phi, h_phi, finite, phi**2, off**2


def _residual_reading(terms, i):
    """Row i's readings from terms, what _residual_terms returned: a sample
    of phi or H phi that is not finite raises PoleError naming its w, and a
    phi that vanishes on the window DomainError."""
    w, q, phi, h_phi, finite, phi_sq, off_sq = terms
    if not finite[i]:
        _require_finite(w, phi[i], "eigenfunction")
        _require_finite(w, h_phi[i], "H applied to the eigenfunction")
    norm = np.dot(q, phi_sq[i])
    if norm == 0.0:
        raise DomainError("eigenfunction vanishes on the residual window")
    return np.array([math.sqrt(np.dot(q, sq) / norm) for sq in off_sq[i]])


class Claim:
    """One verified statement: metric against tolerance, with provenance.

    The one place a verdict is decided: a forced claim (id f.*) passes iff
    metric <= tolerance, so a NaN or infinite metric fails; every other claim
    is 'recorded'.  tolerance is None for a claim with no threshold.
    """

    __slots__ = ("claim_id", "paper_ref", "description", "metric", "tolerance", "verdict", "grid", "details")

    def __init__(self, claim_id: str, paper_ref: str, description: str, metric: float, grid: Dict[str, float],
                 details: Optional[Dict[str, object]] = None, *, tolerance: Optional[float] = None):
        self.claim_id, self.paper_ref, self.description, self.metric = claim_id, paper_ref, description, metric
        self.tolerance, self.grid, self.details = tolerance, grid, {} if details is None else details
        self.verdict = "recorded"
        if claim_id.startswith("f."):
            self.verdict = "pass" if metric <= tolerance else "fail"

    def as_dict(self):
        """The fields in __slots__ order, as one shallow dict (the grid and
        details dicts themselves, not copies)."""
        return {name: getattr(self, name) for name in Claim.__slots__}


class VerificationReport:
    """All claims for one model at one configuration, in fixed order."""

    __slots__ = ("model", "k", "R", "levels", "params", "claims")

    def __init__(self, model: int, k: float, R: float, levels: int, params: Dict[str, float], claims: List[Claim]):
        self.model, self.k, self.R, self.levels, self.params, self.claims = model, k, R, levels, params, claims

    def as_dict(self):
        out = {name: getattr(self, name) for name in VerificationReport.__slots__}
        out["claims"] = [c.as_dict() for c in self.claims]
        return out

    def forced_failures(self):
        return [c for c in self.claims if c.verdict == "fail"]

    def claim(self, claim_id):
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)


_CONSTANCY_GRID = {"w_lo": -4.0, "w_hi": 4.0, "n_pts": 2001}


# The w of the uniform sample _CONSTANCY_GRID, on which each potential of a
# report is sampled once; read-only
_CONSTANCY_W = np.linspace(_CONSTANCY_GRID["w_lo"], _CONSTANCY_GRID["w_hi"], _CONSTANCY_GRID["n_pts"])
_CONSTANCY_W.flags.writeable = False


def _constancy(d):
    """max |d - mean d| and the mean, over d sampled at _CONSTANCY_W."""
    mean = float(d.mean())
    return float(np.abs(d - mean).max()), mean


_CONSTANCY_TOL = 1e-9
_ISO_TOL = 1e-8
_PRODUCT_TOL = 1e-12
_COMPOSE_GRID = Grid(4.0, 401)


class _ModelSpec:
    """What one gauge model brings to its report: the formulas and the words.

    Every claim family is built from these fields by _model_report, the same
    way for both models, and the CLI commands read their curves, levels and
    eigenfunctions from the same fields.  poles holds the model's real poles
    as its parameters fix them, which every matrix and curve reads; ends
    holds the profile's end values, which fix the Galerkin exponents.
    Callables take the level index; eigenfunctions maps each polynomial
    reading's name to (description, level -> WaveFunctionSpec), in report order.
    """

    __slots__ = (
        "model", "params", "A", "dA", "raw1", "closed1", "closed2", "poles", "ends", "b_descriptions",
        "printed", "implied", "spectrum_details", "printed_key", "eigenfunctions", "identity_claims",
    )

    def __init__(
        self,
        model: int,
        params: Dict[str, object],
        A: Callable,
        dA: Callable,
        raw1: EffectivePotential,
        closed1: EffectivePotential,
        closed2: EffectivePotential,
        poles: Tuple[float, ...],  # Model2Params.poles, or () for Model I
        ends: Tuple[float, float],  # A at t = -1 and at t = +1
        b_descriptions: Tuple[str, str],
        printed: Callable,  # level -> SpectralLine of the printed spectrum
        implied: Callable,  # level -> level constant implied by the identity, or None
        spectrum_details: Callable,  # (line, oracle, implied) -> extra c.* details
        printed_key: str,  # d.* details key of the printed level constant
        eigenfunctions: Dict[str, Tuple[str, Callable]],
        identity_claims: Callable,  # (printed level-0 constant, closed1 at _CONSTANCY_W) -> the g.* claims
    ):
        self.model, self.params, self.A, self.dA = model, params, A, dA
        self.raw1, self.closed1, self.closed2, self.poles, self.ends = raw1, closed1, closed2, poles, ends
        self.b_descriptions, self.printed, self.implied = b_descriptions, printed, implied
        self.spectrum_details, self.printed_key = spectrum_details, printed_key
        self.eigenfunctions, self.identity_claims = eigenfunctions, identity_claims


def consistency_report(params, k, R, levels: int = 4) -> VerificationReport:
    """Assemble the full verification report for the model of params.

    Claim families: forced linear-algebra invariants (f.*), the continuum
    identities of the factorization (conventions.*), transcription constancy
    checks (a.*, b.*, each spread relative to 1 + max |general form|),
    closed-form spectrum versus Jacobi-Galerkin eigenvalues (c.*, grid
    {"n": basis size}), continuum eigenfunction residuals (d.*, grid
    {"w_lo": -8, "w_hi": 8, "nodes": quadrature nodes}), the pairing of the
    Jacobi-Galerkin levels of the general j=1 and j=2 potentials, Dt*D and
    D*Dt, past the unpaired zero level of the component partner_exponents
    names (e.*, grid {"n": basis size}), and the model's solvable-structure
    identity (g.*).  Both models run through one assembler over the spec
    model_spec selects by the type of params.  A level count past
    GALERKIN_MAX_LEVELS raises DomainError, and a real pole (spec.poles)
    PoleError, before any claim is computed; nu_1 = 0 at a pole, where the
    image of D has no unique exponent, raises DomainError.  Forced claims
    must pass; everything else is recorded with a finite metric and the grid
    it was measured on.
    """
    spec = model_spec(params, k, R)
    if not 1 <= levels <= GALERKIN_MAX_LEVELS:
        raise DomainError(f"level count must be in [1, {GALERKIN_MAX_LEVELS}], got {levels}")
    if spec.poles:
        reason = "the gauge profile is singular there, so no report operator is defined across it"
        raise PoleError(f"potential pole at w = {spec.poles[0]}: {reason}", location=spec.poles[0])
    return _model_report(spec, k, R, levels)


def model_spec(params, k, R) -> _ModelSpec:
    """The formulas of the model a parameter set belongs to.

    The one place where parameters select their model: the report and every
    CLI command read the model's formulas from the spec returned here.
    """
    if isinstance(params, Model1Params):
        return _model1_spec(params, k, R)
    if not isinstance(params, Model2Params):
        raise DomainError(f"expected Model1Params or Model2Params, got {type(params).__name__}")
    if params.k != k:
        raise DomainError(f"wave number mismatch: params carry k={params.k}, report got k={k}")
    return _model2_spec(params, k, R)


def _gdict(g: Grid):
    return {"L": g.L, "N": g.N}


def _forced_claims(A, dA, k, gen1, gen2):
    """Forced claims on the factorization, then the continuum identities that
    tie its f to gen1/gen2, the general-form j=1/j=2 potentials (not the
    printed closed forms) sampled at _CONSTANCY_W."""
    claims = []
    # one sample of A at the half points serves both compose_factorized and
    # _product_defect
    a_half = _sampled_once(A)
    dtd, ddt = compose_factorized(a_half, k, _COMPOSE_GRID)
    defect = _product_defect(a_half, k, _COMPOSE_GRID, dtd, ddt)
    claims.append(
        Claim(
            claim_id="f.matrix-symmetry",
            paper_ref="sl-operator.flux-discretization",
            description=(
                "the symmetric tridiagonal bands of Dt*D and D*Dt equal the staggered D "
                "and Dt applied in turn, read through three stride-3 probe vectors "
                "(max deviation relative to the largest band entry)"
            ),
            metric=defect,
            tolerance=_PRODUCT_TOL,
            grid=_gdict(_COMPOSE_GRID),
        )
    )

    metric, floor, n_zero = isospectrality_metric(dtd, ddt)
    claims.append(
        Claim(
            claim_id="f.isospectrality",
            paper_ref="factorization.first-order",
            description=(
                "nonzero spectra of Dt*D (nodes) and D*Dt (half points) agree "
                "(forced); eigenvalues below the numerical-zero floor are excluded "
                "and counted, D*Dt's one-vector kernel among them"
            ),
            metric=metric,
            tolerance=_ISO_TOL,
            grid=_gdict(_COMPOSE_GRID),
            details={"zero_floor": floor, "n_below_floor": n_zero},
        )
    )

    # Dt*D and D*Dt carry V_1 = f^2 - sinh f - cosh f' and
    # V_2 = f^2 + cosh f' - sinh f - cosh^2 exactly, for every A
    w = _CONSTANCY_W
    a = np.asarray(A(w), dtype=float)
    ch, sh = np.cosh(w), np.sinh(w)
    f = _factor_f(a, k, w)
    df = sh * (a - k) + ch * dA(w) + 0.5 * ch
    match = []
    for v, g in ((f * f - sh * f - ch * df, gen1), (f * f + ch * df - sh * f - ch * ch, gen2)):
        match.append(float(np.abs(v - g).max() / (1.0 + np.abs(g).max())))
    claims.append(
        Claim(
            "conventions.factorization-match",
            "factorization.first-order",
            "general j=1 potential against V_1 = f^2 - sinh f - cosh f', that of Dt*D with the "
            "f the forced claims assemble (max deviation relative to 1 + max |V_1|); match_j2 "
            "reads j=2 against V_2 = f^2 + cosh f' - sinh f - cosh^2, that of D*Dt.  Both hold "
            "for every A: a reading above rounding is a transcription defect",
            match[0],
            _CONSTANCY_GRID,
            {"convention": _D_NAME, "match_j2": match[1]},
        )
    )
    return claims


def _model_report(spec: _ModelSpec, k, R, levels):
    """The claims of one model in report order, built from its spec.

    The potentials are sampled once on _CONSTANCY_W, in report order, before
    the first claim; everything else is evaluated in report order, so the
    first claim an invalid configuration breaks is the one that raises.  A
    model with more than one eigenfunction reading names each in its d.*
    claim ids.
    """
    ref = f"model{spec.model}"
    gen1 = v_eff_general(spec.A, spec.dA, k, 1)
    gen2 = v_eff_general(spec.A, spec.dA, k, 2)
    # each potential sampled once at _CONSTANCY_W, serving every claim that reads it
    pots = (gen1, gen2, spec.raw1, spec.closed1, spec.closed2)
    g1, g2, r1, c1, c2 = (np.asarray(v(_CONSTANCY_W), dtype=float) for v in pots)
    claims = _forced_claims(spec.A, spec.dA, k, g1, g2)

    b1, b2 = spec.b_descriptions
    drift, mean_of = {}, {}
    for claim_id, formula, description, diff, gen in (
        (
            "a.veff1-expansion",
            "veff1.expanded",
            "expanded first-component potential minus the general form (identity up to constant)",
            r1 - g1,
            g1,
        ),
        ("b.veff1-constrained", "veff1.closed", b1, c1 - r1, g1),
        ("b.veff2-constrained", "veff2.closed", b2, c2 - g2, g2),
    ):
        # the spread is read against the size of the component's potential,
        # whose rounding it cannot beat (near k = 1 Model II's reaches 7e6)
        spread, mean_of[claim_id] = _constancy(diff)
        drift[claim_id] = spread / (1.0 + np.abs(gen).max())
        claims.append(
            Claim(
                claim_id=claim_id,
                paper_ref=f"{ref}.{formula}",
                description=f"{description}; spread relative to 1 + max |general form|",
                metric=float(drift[claim_id]),
                tolerance=_CONSTANCY_TOL,
                grid=_CONSTANCY_GRID,
                details={"additive_constant": mean_of[claim_id]},
            )
        )

    exps = partner_exponents(spec.ends, k)
    # closed1 - gen1 = (closed1 - raw1) + (raw1 - gen1) is constant when the
    # a.* and b.veff1 spreads both are, up to the rounding of V's own size
    gal = galerkin_levels(
        spec.closed1, exps.j1, levels, drift=float(max(drift["a.veff1-expansion"], drift["b.veff1-constrained"]))
    )

    printed, implied = [], []
    for n in range(levels):
        line = spec.printed(n)
        printed.append(line.E_sq_bar)
        implied.append(spec.implied(n))
        level = gal.levels[n]
        claims.append(
            Claim(
                f"c.spectrum.m{n}",
                f"{ref}.spectrum.closed",
                "closed-form level constant vs the Jacobi-Galerkin eigenvalue of the closed "
                "j=1 potential (basis of n functions; gap_2n is its distance to the 2n basis)",
                abs(line.E_sq_bar - level),
                {"n": gal.n},
                {
                    "closed_form": line.E_sq_bar,
                    "oracle": level,
                    **spec.spectrum_details(line, level, implied[n]),
                    "solver": "jacobi-galerkin",
                    "exponents": list(exps.j1),
                    "n": gal.n,
                    "gap_2n": gal.gap[n],
                },
            )
        )

    v1 = _sampled_once(spec.closed1)
    lams = [(lam,) if matched is None else (lam, matched) for lam, matched in zip(printed, implied)]
    residuals = {}
    for n in range(levels):
        lam, matched = printed[n], implied[n]
        for reading, (description, wavefn) in spec.eigenfunctions.items():
            infix = f"{reading}." if len(spec.eigenfunctions) > 1 else ""
            wf = wavefn(n)
            if not n:  # one call per reading: every level's residuals, each raised at its claim
                residuals[reading] = verify_eigenpair(wf, range(levels), v1, lams)
            res, nodes, gap = residuals[reading][n]()
            details = {spec.printed_key: lam}
            if matched is not None:
                details.update(residual_at_identity_energy=res[1], lambda_identity=matched)
            # the residual is scale-free, so no norm is read: only its analytic verdict
            details.update(window=_RESIDUAL_WINDOW, nodes=nodes, gap_2n=gap, norm_finite=wf.norm_finite)
            if not wf.norm_finite:
                details.update(norm_divergence=wf.norm_reason)
            claims.append(
                Claim(
                    f"d.eigenfunction.{infix}m{n}",
                    f"{ref}.eigenfunction.closed",
                    description,
                    res[0],
                    {"w_lo": -_RESIDUAL_WINDOW, "w_hi": _RESIDUAL_WINDOW, "nodes": nodes},
                    details,
                )
            )

    # D*Dt and Dt*D share their nonzero levels; the component whose kernel
    # has its exponents carries one more, the zero level, which stays unpaired.
    # The general j=1 levels are the c.* ones less closed1 - gen1 (a.* and
    # b.veff1 additive constants), so only j=2 needs a solve of its own
    offset = mean_of["a.veff1-expansion"] + mean_of["b.veff1-constrained"]
    part = [gal, galerkin_levels(gen2, exps.j2, levels)]
    shift = {"j=1": 1, "j=2": -1, "neither": 0}[exps.zero_level]
    for m in range(1, levels):
        i1, i2 = m - max(-shift, 0), m - max(shift, 0)
        e1, e2 = part[0].levels[i1] - offset, part[1].levels[i2]
        claims.append(
            Claim(
                f"e.partner.m{m}",
                "partner.level-pairing",
                "Jacobi-Galerkin levels of the general j=1 and j=2 potentials (Dt*D and D*Dt), "
                "paired past the unpaired zero level of the component whose kernel has its "
                "exponents; the j=1 levels are the c.* ones less the a.* and b.veff1 additive "
                "constants (basis of n functions each; gap_2n is each level's distance to 2n)",
                abs(e1 - e2),
                {"n": max(g.n for g in part)},
                {
                    "e1": e1,
                    "e2": e2,
                    "zero_level": exps.zero_level,
                    "solver": "jacobi-galerkin",
                    "exponents_j1": list(exps.j1),
                    "rule_j1": "principal",
                    "exponents_j2": list(exps.j2),
                    "rule_j2": "image-of-D",
                    "n": [part[0].n, part[1].n],
                    "gap_2n": [part[0].gap[i1], part[1].gap[i2]],
                },
            )
        )

    claims.extend(spec.identity_claims(printed[0], c1))
    return VerificationReport(
        model=spec.model, k=k, R=R, levels=levels, params=spec.params, claims=claims
    )


def _model1_spec(p: Model1Params, k, R) -> _ModelSpec:
    def identity_claims(level0, v1):
        # Solvable-structure identity: for a true eigenfunction the local energy
        # (H phi)/phi is constant; evaluated exactly for the printed ground state.
        r, k_r = _local_terms(wavefn_model1(0, p, k), [0], np.tanh(_CONSTANCY_W), v1)
        metric, mean = _constancy(k_r[0] / r[0])
        return [
            Claim(
                "g.local-energy-constancy",
                "model1.eigenfunction.closed",
                "local energy (H phi)/phi of the printed ground state under the "
                "closed j=1 potential; constant iff the printed pair solves the operator",
                metric,
                _CONSTANCY_GRID,
                {"mean_local_energy": mean, "closed_form_level0": level0},
            )
        ]

    return _ModelSpec(
        model=1,
        params={name: getattr(p, name) for name in ("C1", "C2", "C3", "branch")},
        A=a_u_model1(p),
        dA=da_u_model1(p),
        raw1=v_eff_model1_raw(p, k),
        closed1=v_eff_model1(p, k, 1),
        closed2=v_eff_model1(p, k, 2),
        poles=(),
        ends=(p.C3 - p.C2, p.C3 + p.C2),
        b_descriptions=(
            "Rosen-Morse closed form minus the constrained expanded form; the constant gap is the bookkeeping discrepancy",
            "second-component closed form minus the constrained general form",
        ),
        printed=lambda n: energy_model1(n, p, k, R),
        implied=lambda n: None,
        spectrum_details=lambda line, oracle, implied: {"radicand_ok": line.radicand_ok},
        printed_key="lambda",
        eigenfunctions={
            "classical": (
                "windowed eigenpair residual of the printed eigenfunction at the printed level constant",
                lambda n: wavefn_model1(n, p, k),
            ),
        },
        identity_claims=identity_claims,
    )


def _model2_spec(p: Model2Params, k, R) -> _ModelSpec:
    alpha, beta = p.alpha, p.beta

    def identity_claims(level0, v1):
        claims = []
        for variant in ("sech2", "sech1"):
            metric, mean = _constancy(v1 + midya_rhs(alpha, beta, 1, variant=variant)(_CONSTANCY_W))
            claims.append(
                Claim(
                    f"g.midya-rhs.{variant}",
                    "model2.solvable-rhs",
                    "closed j=1 potential plus the solvable-model right-hand side "
                    f"({variant} single-pole term); constant iff the identity holds, "
                    "and the constant is the implied ground level",
                    metric,
                    _CONSTANCY_GRID,
                    {
                        "implied_level0": mean,
                        "printed_level0": level0,
                        "implied_minus_printed": mean - level0,
                    },
                )
            )
        return claims

    def reading(variant):
        return (
            f"windowed eigenpair residual of the {variant} polynomial "
            "interpretation at the printed level constant",
            lambda m: wavefn_model2(m, alpha, beta, polynomial=variant),
        )

    return _ModelSpec(
        model=2,
        params={
            name: getattr(p, name)
            for name in ("C1", "a1", "a2", "k", "alpha", "beta", "C2", "C3", "C4", "C5", "C6")
        },
        A=a_u_model2(p),
        dA=da_u_model2(p),
        raw1=v_eff_model2_raw(p),
        closed1=v_eff_model2(p, 1),
        closed2=v_eff_model2(p, 2),
        poles=p.poles,
        ends=(p.C4 - p.C3, p.C4 + p.C3),
        b_descriptions=(
            "closed rational form minus the constrained expanded form; the add-and-subtract bookkeeping gap",
            "second-component closed form minus the constrained general form (any w-dependence is a transcription defect)",
        ),
        printed=lambda m: energy_model2(m, alpha, beta, k, R),
        implied=lambda m: energy_model2_matched(m, p),
        spectrum_details=lambda line, oracle, implied: {
            "identity_matched": implied,
            "oracle_minus_matched": oracle - implied,
        },
        printed_key="lambda_printed",
        eigenfunctions={variant: reading(variant) for variant in ("classical", "x1")},
        identity_claims=identity_claims,
    )
