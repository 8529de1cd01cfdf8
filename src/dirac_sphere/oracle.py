"""Independent numerical ground truth for the transformed Dirac eigenproblems.

The c.* and e.* levels, and those of the forced isospectrality check, come
from galerkin_levels, a Jacobi-Galerkin solve in t = tanh w, where
-(cosh^2 w phi')' + V phi becomes -(1-t^2) phi'' + V phi on (-1, 1).  Its
basis (1+t)^a (1-t)^b p_m(t) carries Frobenius exponents a, b that follow
from the gauge profile's end values (partner_exponents, never a fit): the
principal ones for j=1, for j=2 the exponents of D's image.  The
orthonormal Jacobi polynomials p_m are read from the eigenvectors of
specfun's Golub-Welsch solve; the basis doubles until n and 2n functions
agree, up to a cap, so every level carries its own error estimate.  Its
symmetric matrix goes to LAPACK dsbev, whose result does not depend on the
BLAS thread count.

The d.* residuals (verify_eigenpair) apply the operator to the printed
eigenfunction exactly and integrate over the whole line on Gauss-Jacobi
rules whose weight carries the envelope: the report reads no grid.  One call
per reading doubles one rule for all its levels, as the Galerkin bases
double, and evaluates each rule once for all of them (one potential sample
and recurrence table per Jacobi family, the sample shared with readings on
the same rule).  The flux-form checks discretize the operator with a
conservative finite-difference scheme on a uniform grid over [-L, L] with
Dirichlet walls.  Every flux-form matrix is symmetric tridiagonal and is
stored as its diagonal and off-diagonal arrays (SLMatrix diag, off), so real
spectra are structural; the solves return eigenvalues only.  Every spectrum,
Galerkin or flux-form (a band of width one), is solved by LAPACK dsbev, the
one routine the package calls, through scipy's f2py extension _flapack,
loaded by path on the first solve: the commands that never solve do not
load scipy, and verify runs neither scipy's package init nor scipy.linalg's.

The first-order operator D = cosh d/dw + f, f = cosh (A - k) + sinh/2, that
factors the general j=1 potential, makes the two general potentials partners:
Dt*D is the j=1 operator and D*Dt the j=2 one, so their levels pair up past
one unpaired zero level -- the forced isospectrality check, read on the
Galerkin levels of both, whose pairs the e.* claims record.  On the
staggered grid (nodes to half points) Dt*D carries exactly the flux-form
kinetic stencil; the forced matrix-symmetry check compares the assembled
bands of Dt*D and D*Dt with D and Dt applied in turn as bidiagonal maps,
read through three probe vectors, in O(N) and with no dense product.  The
same f ties D to the general potentials through two continuum identities,
which the report samples with no eigensolve.  One consistency-report engine
attaches a verdict to every closed-form formula of both gauge models; each
model enters it as a small spec of its formulas (potentials, levels,
eigenfunction readings and solvable-structure identity), so both reports
share every claim family.  model_spec is the one place where a parameter set
selects its model; the CLI commands read their curves, levels,
eigenfunctions and poles from the same spec; a real pole is refused before
any claim.

Verdict policy (applied by Claim alone): mathematically forced claims (f.*)
must PASS; transcription claims are always 'recorded' with their metric,
because the closed forms contain apparent typos that this package is meant to
expose, not hide.
"""
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError, PoleError
from .gauge import (
    EffectivePotential,
    Model1Params,
    Model2Params,
    a_u_model1,
    a_u_model2,
    da_u_model1,
    da_u_model2,
    general_form,
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
        """The product with x, or with each row of x (shape (..., order))."""
        y = self.diag * x
        y[..., 1:] += self.off * x[..., :-1]
        y[..., :-1] += self.off * x[..., 1:]
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
    [1.5e-146, 7e145], and every flux-form matrix lies inside.  Non-finite
    bands or a LAPACK failure raise DomainError.
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
    applies the matrix m should equal to each row of a (3, order) array.

    Three probes recover a tridiagonal matrix in O(order): the unit vectors
    summed with stride 3 at offsets 0, 1 and 2, read in one pass as the rows
    of one array.  Row i of M p meets exactly one of columns i-1, i, i+1 of a
    probe, so each entry of M p is one band entry of M, and the three probes
    between them reach all of them.
    """
    p = np.zeros((3, m.order))
    for offset in range(3):
        p[offset, offset::3] = 1.0
    dev = np.abs(product(p) - m.matvec(p)).max()
    return float(dev / max(np.abs(m.diag).max(), np.abs(m.off).max()))


def _product_defect(A, k, grid: Grid, dtd: SLMatrix, ddt: SLMatrix):
    """Deviation of the assembled compositions from D and Dt applied in turn.

    D and Dt act as bidiagonal maps built from _staggered_factor's lo and up;
    each composition is probed as in _band_deviation, relative to the
    largest band entry of its matrix.
    """
    lo, up = _staggered_factor(A, k, grid)

    def d(x):  # N nodes -> N + 1 half points, row by row
        y = up * np.concatenate((x, np.zeros((len(x), 1))), axis=1)
        y[:, 1:] += lo[1:] * x
        return y

    def dt(y):  # N + 1 half points -> N nodes, row by row
        return up[:-1] * y[:, :-1] + lo[1:] * y[:, 1:]

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

    The two spectra are two eig_values calls, m1's first, so a failed solve
    raises in argument order.  The report does not call this: its
    f.isospectrality pairs continuum levels, and acceptance criterion 6
    checks the staggered compositions with it.
    """
    if abs(m1.order - m2.order) > 1:
        raise DomainError(f"orders {m1.order} and {m2.order} differ by more than one")
    s1, s2 = eig_values(m1), eig_values(m2)
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
    """(reading at n, |reading at n - reading at 2n|, n) for the first n,
    doubling from the one given, at which every reading agrees with 2n's
    within tol (1 + |reading|).  read(ns) gives the readings at the sizes
    ns, in order: first at (n, 2n), so both can be taken in one pass, then
    at each next 2n alone; no size is read twice.  A 2n past cap raises
    DomainError naming the last two sizes (sizes formats them), the gap and
    the cap; the first 2n must not be past it.
    """
    lo, *ahead = read((n, 2 * n))
    while 2 * n <= cap:
        hi = ahead.pop() if ahead else read((2 * n,))[0]
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


def _galerkin_eigenvalues(V, a, b, sizes):
    """All n eigenvalues of -(1-t^2) phi'' + V phi in the basis
    (1+t)^a (1-t)^b p_m(t), m < n, with p_m the Jacobi polynomials of
    (alpha, beta) = (2b - 1, 2a - 1) orthonormal under their weight, for
    each basis size n in sizes, one array per size.

    The basis turns the operator into the Jacobi operator, diagonal with
    m (m + alpha + beta + 1), plus the bounded potential
    q = V - a(a-1)(1-t)/(1+t) - b(b-1)(1+t)/(1-t) + 2ab; q enters as
    B diag(q) B^T over the n-node Gauss-Jacobi rule, B its eigenvector
    matrix, so the basis is orthonormal with no polynomial evaluated.  V,
    mapping w = artanh t to the potential, is sampled and q formed once on
    every size's nodes joined in order, and each size solves its own
    matrix; a sample that is not finite raises PoleError naming the first
    such w.
    """
    alpha, beta = 2.0 * b - 1.0, 2.0 * a - 1.0
    rules = [_golub_welsch(n, alpha, beta) for n in sizes]
    t, _, v = _sampled(V, [rule for rule, _ in rules], {}, None)
    q = v - a * (a - 1.0) * (1.0 - t) / (1.0 + t) - b * (b - 1.0) * (1.0 + t) / (1.0 - t)
    q += 2.0 * a * b
    out = []
    for n, (_, basis), q_n in zip(sizes, rules, np.split(q, np.cumsum(sizes)[:-1])):
        h = np.zeros((2 * n, n))  # the matrix on top of n zero rows
        np.matmul(basis * q_n, basis.T, out=h[:n])
        m = np.arange(n)
        h[m, m] += m * (m + alpha + beta + 1.0)
        # row d of the view reads h[j + d, j] at column j, the d-th
        # subdiagonal (zeros below the matrix, since j + d < 2n): the band
        band = np.lib.stride_tricks.as_strided(h, (n, n), (h.strides[0], h.strides[0] + h.strides[1]))
        out.append(_band_eigenvalues(band))
    return out


def _band_eigenvalues(band):
    """All eigenvalues, ascending, of the symmetric band matrix whose lower
    band (row d the d-th subdiagonal) band holds: LAPACK dsbev, which serves
    every spectrum, a Galerkin matrix (one full band) and a flux-form one
    (a band of width one, eig_values) alike.

    dsbev reduces the band to tridiagonal form by Givens rotations alone, so
    its result is the same bits for every BLAS thread count; the blocked
    reduction behind numpy.linalg.eigvalsh is not (its levels differ in the
    last bits between 1 and 2 OpenBLAS threads at 256 rows).  The routine is
    scipy's f2py wrapper from _flapack, told not to overwrite band, so no
    caller's array is changed.  A LAPACK failure raises DomainError.
    """
    w, _, info = _flapack().dsbev(band, compute_v=0, lower=1, overwrite_ab=0)
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


def galerkin_levels(V, exponents, count, poles=()) -> GalerkinLevels:
    """The `count` lowest levels of the operator -(cosh^2 phi')' + V phi.

    In t = tanh w the operator is -(1-t^2) phi'' + V phi on (-1, 1).
    exponents are the envelope exponents (a, b) at t = -1 and t = +1
    (partner_exponents), which belong to the general potential of a
    component; they hold for V only while V differs from that potential by
    a constant, which the caller checks.  The basis grows from
    max(16, 2 count + 8) functions by doubling until the levels of n and 2n
    functions agree within 1e-9 (1 + |level|), and the n levels are
    returned.  The first two bases share one sample of V
    (_galerkin_eigenvalues), each still solving its own matrix; a basis past
    the pair is read alone.  A 2n past 256 raises
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
    a, b = exponents
    levels, gap, n = _doubled(
        lambda sizes: [e[:count] for e in _galerkin_eigenvalues(V, a, b, sizes)], max(16, 2 * count + 8),
        _GALERKIN_CAP, _GALERKIN_TOL, "Jacobi-Galerkin levels", "bases of {} and {} functions",
    )
    return GalerkinLevels(levels=levels, gap=gap, n=n)


# The d.* residuals: Gauss-Jacobi rules of 16 and 32 nodes first, doubled
# until two readings agree; never past the Galerkin cap
_RESIDUAL_NODES = 16
_RESIDUAL_TOL = 1e-6
_MEASURES = ("dw", "sphere-area")  # by lift


def _residual_weight(wf):
    """(2b - 1 + lift, 2a - 1 + lift, lift), (a, b) = wf.exponents at t = -1
    and t = +1: the Jacobi weight (1-t)^alpha (1+t)^beta of the measure wf's
    reading is read in.  lift is 0, the operator's own dw = dt/(1-t^2), when
    2a - 1, 2b - 1 > -1, else 1, the sphere's area sech^2 w dw = dt; a weight
    that is still not a Jacobi weight raises DomainError naming both poles."""
    a, b = wf.exponents
    lift = 0 if min(2.0 * b - 1.0, 2.0 * a - 1.0) > -1.0 else 1
    alpha, beta = 2.0 * b - 1.0 + lift, 2.0 * a - 1.0 + lift
    if not min(alpha, beta) > -1.0:
        raise DomainError(
            f"no residual measure for the envelope exponents {a!r} at t = -1 and {b!r} at t = +1: "
            f"the sphere-area weight (1-t)^{alpha:.6g} (1+t)^{beta:.6g} is not integrable, so phi "
            "is not square-integrable on the sphere"
        )
    return alpha, beta, lift


def _local_terms(wf, levels, t, v):
    """(r, K), one row per level index in levels, with phi = E r and
    H phi = E K at t = tanh w for the levels of wf's reading: E = (1+t)^a (1-t)^b,
    (a, b) = wf.exponents, H phi = -(1-t^2) phi_tt + V phi with V sampled as v,
    exactly, by phi_tt = E (r'' + 2 L r' + (L^2 + L') r), L = a/(1+t) - b/(1-t)."""
    a, b = wf.exponents
    r, r1, r2 = wf.ratios(t, levels)
    dlog = -b / (1.0 - t) + a / (1.0 + t)
    d2log = -b / (1.0 - t) ** 2 - a / (1.0 + t) ** 2
    return r, -(1.0 - t * t) * (r2 + 2.0 * dlog * r1 + (dlog * dlog + d2log) * r) + v * r


def verify_eigenpair(wf, levels, V, lams, samples=None):
    """Relative residuals ||(H - lam) phi|| / ||phi|| of the printed
    eigenfunctions phi of wf's reading (wf a WaveFunctionSpec of any of its
    levels) at each level index in levels, one per level constant in that
    level's row of lams, under H phi = -(cosh^2 phi')' + V phi, applied
    exactly.

    With phi = E r and H phi = E K (_local_terms, E = (1+t)^a (1-t)^b the
    envelope of wf.exponents (a, b) at t = -1 and t = +1) and the n-node
    Gauss-Jacobi rule (t_i, q_i) of its weight (_residual_weight), each reading is
    sqrt(sum q_i (1-t_i^2)^(2 lift) (K_i - lam r_i)^2 / sum q_i r_i^2): that
    of H - lam in L^2(dw) at lift 0, of sech^2 w (H - lam) in L^2 of the
    sphere's area at lift 1, over the whole line.  The readings of every
    level and constant are taken together on rules of n and 2n nodes from
    n = 16, n doubled by _doubled, as the Galerkin bases are, until every
    two agree within 1e-6 (1 + reading).  Each rule is evaluated once for
    all of them: one potential sample and recurrence table per Jacobi family.
    The rules of 16 and 32 nodes are evaluated in one pass over their joined
    nodes, 16's first, and each later rule alone; the sums stay per rule, so
    every reading has the bits of its rule alone.  samples, a dict that
    calls with the same V may share, keeps V sampled on each pass's nodes by
    its (sizes, alpha, beta), so readings with the same envelope exponents
    sample V once per pass.
    Returns (readings on n nodes, their distances to 2n, n, the measure,
    "dw" or "sphere-area"), the arrays with one row per level and one column
    per constant.  Raises DomainError for a 2n past 256 or a phi that
    vanishes on a rule, PoleError naming its w for a sample that is not
    finite.
    """
    alpha, beta, lift = _residual_weight(wf)
    levels = list(levels)
    lams = np.asarray(lams, dtype=float).reshape(len(levels), -1)
    samples = {} if samples is None else samples

    def read(ns):
        rules = [gauss_jacobi(n, alpha, beta) for n in ns]
        return _residual_terms(wf, levels, _sampled(V, rules, samples, (ns, alpha, beta)), lams, rules, lift)

    res, gap, n = _doubled(
        read, _RESIDUAL_NODES, _GALERKIN_CAP, _RESIDUAL_TOL, "eigenpair residuals", "rules of {} and {} nodes"
    )
    return res, gap, n, _MEASURES[lift]


def _sampled(V, rules, samples, key):
    """(t, w = artanh t, V at w) on the nodes t of the rules (t, q), joined
    in order: samples[key] when there, else sampled and kept there.  A
    sample that is not finite raises PoleError naming the first such w and
    is not kept."""
    if key not in samples:
        t = np.concatenate([t for t, _ in rules])
        w = np.arctanh(t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            samples[key] = t, w, _require_finite(w, np.asarray(V(w), dtype=float), "potential")
    return samples[key]


def _residual_terms(wf, levels, sample, lams, rules, lift):
    """verify_eigenpair's readings on each Gauss-Jacobi rule (t, q) in
    rules, one array per rule with one row per level and one column per
    level constant, from sample = (t, w = artanh t, V at w) on the rules'
    nodes joined in order.  r and K come from one pass over the joined
    nodes, the sums from each rule's own part, one np.dot per level and
    constant.  Rule by rule and level by level, a sample of phi or H phi
    that is not finite raises PoleError naming its w, and a phi that
    vanishes on the rule DomainError."""
    t_all, w_all, v = sample
    out, at = [], 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        r_all, k_all = _local_terms(wf, levels, t_all, v)
        for t, q in rules:
            part = slice(at, at + t.size)
            at += t.size
            w, r, k_r = w_all[part], r_all[:, part], k_all[:, part]
            finite = np.isfinite(r).all(axis=1) & np.isfinite(k_r).all(axis=1)
            off = (1.0 - t * t) ** lift * (k_r[:, None] - lams[:, :, None] * r[:, None])
            rows = []
            for ok, r_i, k_i, r_sq, off_sq in zip(finite, r, k_r, r * r, off * off):
                if not ok:
                    _require_finite(w, r_i, "eigenfunction")
                    _require_finite(w, k_i, "H applied to the eigenfunction")
                norm = np.dot(q, r_sq)
                if norm == 0.0:
                    raise DomainError("eigenfunction vanishes on the rule")
                rows.append([math.sqrt(np.dot(q, sq) / norm) for sq in off_sq])
            out.append(np.array(rows))
    return out


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

    Claim families: forced invariants of the factorization (f.*: the
    staggered compositions' bands, and the pairing of the general j=1 and
    j=2 Galerkin levels with the zero level read, grid {"n": basis size}),
    the continuum identities of the factorization (conventions.*),
    transcription constancy checks (a.*, b.*, each spread relative to
    1 + max |general form|),
    closed-form spectrum versus Jacobi-Galerkin eigenvalues (c.*, grid
    {"n": basis size}), continuum eigenfunction residuals in each reading's
    own measure (d.*, grid {"nodes": the Gauss-Jacobi nodes of the one rule
    all levels of the reading settle on}), the pairing of
    the Jacobi-Galerkin levels of the general j=1 and j=2 potentials, Dt*D
    and D*Dt, past the unpaired zero level of the component
    partner_exponents names (e.*, grid {"n": basis size}), and the model's
    solvable-structure identity (g.*).  Both models run through one assembler over the spec
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


def _forced_claims(A, k, profile, general, isospectrality):
    """The forced claims, f.matrix-symmetry on the staggered factorization
    and the f.isospectrality claim given (_partner_claims); then the continuum
    identities that tie the staggered f to general, the general-form j=1 and
    j=2 potentials (not the printed closed forms) sampled at _CONSTANCY_W.
    profile holds A, dA, cosh and sinh sampled there, from which both f and
    general are read."""
    claims = []
    # one sample of A at the half points, the only points either reads,
    # serves both compose_factorized and _product_defect
    a_half = A(_COMPOSE_GRID.half_points())

    def at_half(w):
        return a_half

    dtd, ddt = compose_factorized(at_half, k, _COMPOSE_GRID)
    defect = _product_defect(at_half, k, _COMPOSE_GRID, dtd, ddt)
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
            grid={"L": _COMPOSE_GRID.L, "N": _COMPOSE_GRID.N},
        )
    )

    claims.append(isospectrality)

    # Dt*D and D*Dt carry V_1 = f^2 - sinh f - cosh f' and
    # V_2 = f^2 + cosh f' - sinh f - cosh^2 exactly, for every A
    a, da, ch, sh = profile
    f = _factor_f(a, k, _CONSTANCY_W)
    df = sh * (a - k) + ch * da + 0.5 * ch
    match = []
    for v, g in zip((f * f - sh * f - ch * df, f * f + ch * df - sh * f - ch * ch), general):
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


def _partner_claims(exps, partner):
    """(f.isospectrality, the e.partner.mN claims) from one pairing of
    partner, the Jacobi-Galerkin levels of the general j=1 and j=2
    potentials (solved on exps.j1 and exps.j2), the continuum Dt*D and D*Dt.

    D*Dt and Dt*D share their nonzero levels; the component whose kernel has
    its exponents (exps.zero_level) carries one more, the zero level 0,
    which stays unpaired.  f.isospectrality asks every pair to agree and the
    zero level to read 0: its metric is the larger of
    max |e1 - e2| / (1 + |e1|) over the pairs and
    |zero level| / (1 + max |level|), the second 0 with no zero level
    ("neither", where every level pairs).  Each pair past level 0 is also
    recorded as e.partner.mN, named by its higher level.
    """
    lam1, lam2 = (g.levels for g in partner)
    m = np.arange(lam1.size - (exps.zero_level != "neither"))
    i1, i2 = m + (exps.zero_level == "j=1"), m + (exps.zero_level == "j=2")
    e1, e2 = lam1[i1], lam2[i2]
    zero = {"j=1": lam1, "j=2": lam2}.get(exps.zero_level, [None])[0]
    paired = np.max(np.abs(e1 - e2) / (1.0 + np.abs(e1)), initial=0.0)
    unpaired = 0.0 if zero is None else abs(zero) / (1.0 + max(np.abs(lam1).max(), np.abs(lam2).max()))
    n = max(g.n for g in partner)
    iso = Claim(
        claim_id="f.isospectrality",
        paper_ref="factorization.first-order",
        description=(
            "Jacobi-Galerkin levels of the general j=1 (principal exponents) and j=2 "
            "(image-of-D exponents) potentials, the continuum Dt*D and D*Dt, agree past the "
            "unpaired zero level, which reads 0 (forced): the larger of max |e1 - e2| / (1 + |e1|) "
            "over the paired levels and |zero level| / (1 + max |level|)"
        ),
        metric=float(np.maximum(paired, unpaired)),
        tolerance=_ISO_TOL,
        grid={"n": n},
        details={
            "zero_level": exps.zero_level,
            "zero_reading": None if zero is None else float(zero),
            "exponents_j1": list(exps.j1),
            "exponents_j2": list(exps.j2),
            "n": [g.n for g in partner],
            "gap_2n": [float(g.gap.max()) for g in partner],
        },
    )
    partners = [
        Claim(
            f"e.partner.m{max(a, b)}",
            "partner.level-pairing",
            "Jacobi-Galerkin levels of the general j=1 and j=2 potentials (Dt*D and D*Dt), "
            "paired past the unpaired zero level of the component whose kernel has its "
            "exponents: the pairs f.isospectrality reads (basis of n functions each; gap_2n is "
            "each level's distance to 2n)",
            abs(x1 - x2),
            {"n": n},
            {
                "e1": x1,
                "e2": x2,
                "zero_level": exps.zero_level,
                "solver": "jacobi-galerkin",
                "exponents_j1": list(exps.j1),
                "rule_j1": "principal",
                "exponents_j2": list(exps.j2),
                "rule_j2": "image-of-D",
                "n": [partner[0].n, partner[1].n],
                "gap_2n": [partner[0].gap[a], partner[1].gap[b]],
            },
        )
        for a, b, x1, x2 in zip(i1, i2, e1, e2)
        if max(a, b)
    ]
    return iso, partners


def _model_report(spec: _ModelSpec, k, R, levels):
    """The claims of one model in report order, built from its spec.

    The profile A, dA and the potentials are sampled once on _CONSTANCY_W
    (the general forms read from the profile's sample, as v_eff_general
    would), and the general j=1 and j=2 levels solved and paired, before the
    first claim (f.isospectrality, the second, and every e.* claim read that
    one pairing).  Each eigenfunction reading is evaluated once, for every
    level, in one verify_eigenpair call before the d.* claims, in spec order;
    everything else is evaluated in report order.  A model with more than one
    eigenfunction reading names each in its d.* claim ids.
    """
    ref = f"model{spec.model}"
    # each function sampled once at _CONSTANCY_W, serving every claim that reads it
    a, da, r1, c1, c2 = (
        np.asarray(v(_CONSTANCY_W), dtype=float) for v in (spec.A, spec.dA, spec.raw1, spec.closed1, spec.closed2)
    )
    ch, sh = np.cosh(_CONSTANCY_W), np.sinh(_CONSTANCY_W)
    g1, g2 = (general_form(a, da, k, j, ch, sh) for j in (1, 2))
    # the Galerkin levels of the general potentials, the continuum Dt*D and
    # D*Dt, in one pairing that f.isospectrality and e.* read
    exps = partner_exponents(spec.ends, k)
    gen1, gen2 = (v_eff_general(spec.A, spec.dA, k, j) for j in (1, 2))
    iso, partners = _partner_claims(
        exps, [galerkin_levels(gen1, exps.j1, levels), galerkin_levels(gen2, exps.j2, levels)]
    )
    claims = _forced_claims(spec.A, k, (a, da, ch, sh), (g1, g2), iso)

    b1, b2 = spec.b_descriptions
    drift = {}
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
        spread, mean = _constancy(diff)
        drift[claim_id] = float(spread / (1.0 + np.abs(gen).max()))
        claims.append(
            Claim(
                claim_id=claim_id,
                paper_ref=f"{ref}.{formula}",
                description=f"{description}; spread relative to 1 + max |general form|",
                metric=drift[claim_id],
                tolerance=_CONSTANCY_TOL,
                grid=_CONSTANCY_GRID,
                details={"additive_constant": mean},
            )
        )

    # closed1 - gen1 = (closed1 - raw1) + (raw1 - gen1) is constant when the
    # a.* and b.veff1 spreads both are, up to the rounding of V's own size;
    # only then do the general form's end values fix the c.* exponents
    drift1 = max(drift["a.veff1-expansion"], drift["b.veff1-constrained"])
    if not drift1 <= _GALERKIN_TOL:
        raise DomainError(
            f"the potential differs from the general form by more than a constant "
            f"(spread {drift1:.3e} of 1 + max |V| > {_GALERKIN_TOL:g}): the end values do not "
            "fix its Frobenius exponents"
        )
    gal = galerkin_levels(spec.closed1, exps.j1, levels)

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

    lams = [(lam,) if matched is None else (lam, matched) for lam, matched in zip(printed, implied)]
    # each reading evaluated once, for every level, on one V sample per
    # Gauss-Jacobi rule, shared by readings whose envelope exponents, and
    # so rules, coincide (Model II's classical and X1)
    readings, samples = [], {}
    for reading, (description, wavefn) in spec.eigenfunctions.items():
        wf = wavefn(0)
        res, gap, nodes, measure = verify_eigenpair(wf, range(levels), spec.closed1, lams, samples)
        infix = f"{reading}." if len(spec.eigenfunctions) > 1 else ""
        readings.append((infix, description, wf, res.tolist(), gap.tolist(), nodes, measure))
    for n in range(levels):
        for infix, description, wf, res, gap, nodes, measure in readings:
            details = {spec.printed_key: printed[n]}
            if implied[n] is not None:
                details.update(residual_at_identity_energy=res[n][1], lambda_identity=implied[n])
            # the residual is scale-free, so no norm is read: only its analytic verdict
            details.update(measure=measure, nodes=nodes, gap_2n=gap[n], norm_finite=wf.norm_finite)
            if not wf.norm_finite:
                details.update(norm_divergence=wf.norm_reason)
            claims.append(
                Claim(
                    f"d.eigenfunction.{infix}m{n}",
                    f"{ref}.eigenfunction.closed",
                    description,
                    res[n][0],
                    {"nodes": nodes},
                    details,
                )
            )

    claims.extend(partners)
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
                "eigenpair residual of the printed eigenfunction at the printed level constant, "
                "in the sphere's area measure on its Gauss-Jacobi rule",
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
            f"eigenpair residual of the {variant} polynomial interpretation at the printed "
            "level constant, in L^2(dw) on its Gauss-Jacobi rule",
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
