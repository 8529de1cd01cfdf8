"""Independent numerical ground truth for the transformed Dirac eigenproblems.

The second-order operator -(cosh^2 w phi')' + V(w) phi is discretized with a
conservative (flux-form) finite-difference scheme on a uniform grid over
[-L, L] with Dirichlet walls.  Every oracle matrix is symmetric tridiagonal
and is stored as its diagonal and off-diagonal arrays (SLMatrix diag, off),
so real spectra are structural and one tridiagonal eigensolver serves every
solve; the solves return eigenvalues only.  They call LAPACK's dstebz and
dstevd from scipy's compiled _flapack extension, loaded by path on the first
solve: the commands that never solve do not load scipy, and verify never runs
scipy.linalg's package init.  The report's levels come from bisection at
LAPACK's default tolerance (bisection_tol, recorded as oracle_tol in the c.*
and e.* claims), which exceeds the grid's discretization error at the default
L and N.

The first-order operator D = cosh d/dw + f, f = cosh (A - k) + sinh/2, that
factors the general j=1 potential is discretized on the staggered grid (nodes
to half points); Dt*D then carries exactly the flux-form kinetic stencil, and
the two compositions Dt*D and D*Dt share their nonzero spectrum -- the forced
isospectrality check.  The forced matrix-symmetry check compares their
assembled bands with D and Dt applied in turn as bidiagonal maps, read
through three probe vectors, in O(N) and with no dense product.  One
consistency-report engine attaches a verdict to every closed-form formula of
both gauge models; each model enters it as a small spec of its formulas
(potentials, levels, eigenfunction readings and solvable-structure
identity), so both reports share every claim family.  model_spec is the one
place where a parameter set selects its model; the CLI commands read their
curves, levels, eigenfunctions and poles from the same spec.  verify_eigenpair
is the one routine that forms an eigenpair residual; the report calls it on
the j=1 matrix it assembled.

Verdict policy (applied by Claim alone): mathematically forced claims (f.*)
must PASS; transcription claims are always 'recorded' with their metric,
because the closed forms contain apparent typos that this package is meant to
expose, not hide.
"""
import math
import os
import sys
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError, SingularPotentialError
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
from .spectra import (
    _model1_exponents,
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
    "bisection_tol",
    "compose_factorized",
    "verify_eigenpair",
    "Claim",
    "VerificationReport",
    "consistency_report",
    "model_spec",
]

_EPS = np.finfo(float).eps


def _cosh2(w):
    return np.cosh(w) ** 2


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on [-L, L] with Dirichlet boundaries at +-L."""

    L: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.L < math.inf:
            raise DomainError(f"grid half-width must be positive and finite, got {self.L}")
        if self.N < 3 or int(self.N) != self.N:
            raise DomainError(f"need at least 3 interior points, got {self.N}")

    @property
    def h(self):
        return 2.0 * self.L / (self.N + 1)

    def points(self):
        return -self.L + self.h * np.arange(1, self.N + 1)

    def half_points(self):
        return -self.L + self.h * (np.arange(0, self.N + 1) + 0.5)


@dataclass
class SLMatrix:
    """Symmetric tridiagonal matrix: diag (order entries) and off, the
    order - 1 entries next to it.

    The order is grid.N on the nodes, or grid.N + 1 for D*Dt on the half
    points; the matrix does not carry its grid.
    """

    diag: np.ndarray
    off: np.ndarray

    @property
    def order(self):
        return self.diag.size

    def matvec(self, x):
        y = self.diag * x
        y[1:] += self.off * x[:-1]
        y[:-1] += self.off * x[1:]
        return y


def build_sl_matrix(p_fn, q_fn, grid: Grid, q_poles: Sequence[float] = ()) -> SLMatrix:
    """Flux-form discretization of -(p(w) phi')' + q(w) phi on the grid.

    Row i couples p at the half points w_{i +- 1/2}:
       (M phi)_i = [p_{i+1/2}(phi_i - phi_{i+1}) + p_{i-1/2}(phi_i - phi_{i-1})]/h^2
                   + q(w_i) phi_i.
    Declared poles of q inside [-L, L], or non-finite samples, raise
    SingularPotentialError naming the location.
    """
    for w0 in q_poles:
        if abs(w0) < grid.L:
            raise SingularPotentialError(
                f"potential pole at w = {w0} lies inside [-{grid.L}, {grid.L}]",
                location=w0,
            )
    w = grid.points()
    ph = np.asarray(p_fn(grid.half_points()), dtype=float)
    if np.any(~np.isfinite(ph)) or np.any(ph <= 0.0):
        raise SingularPotentialError("p(w) must be positive and finite on the grid")
    qv = np.asarray(q_fn(w), dtype=float)
    bad = ~np.isfinite(qv)
    if np.any(bad):
        raise SingularPotentialError(
            f"potential is not finite at w = {w[bad][0]}", location=float(w[bad][0])
        )
    h2 = grid.h * grid.h
    return SLMatrix(diag=(ph[:-1] + ph[1:]) / h2 + qv, off=-ph[1:-1] / h2)


_FLAPACK = "scipy.linalg._flapack"


def _lapack():
    """scipy's compiled LAPACK wrappers, the _flapack extension, once per process.

    `import scipy` runs the distributor init (on Windows wheels it registers
    the DLL directory); the extension is then loaded by path, so scipy.linalg's
    package init, which pulls in numpy.f2py, numpy.testing and
    numpy.polynomial, never runs.  The module is registered under its own
    name, as an import would, so a later `import scipy.linalg` reuses it.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        import importlib.machinery
        import importlib.util

        import scipy

        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack" + suffix)
        if not os.path.isfile(path):
            raise ImportError(f"scipy's LAPACK extension is missing: {path}", name=_FLAPACK, path=path)
        loader = importlib.machinery.ExtensionFileLoader(_FLAPACK, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_FLAPACK, loader))
        loader.exec_module(module)
        sys.modules[_FLAPACK] = module
    return module


def _bands(m: SLMatrix):
    """m's two bands, refused with DomainError unless every entry is finite."""
    if not (np.isfinite(m.diag).all() and np.isfinite(m.off).all()):
        raise DomainError(f"matrix bands of order {m.order} are not finite")
    return m.diag, m.off


def eig_lowest(m: SLMatrix, count: int):
    """The `count` algebraically smallest eigenvalues, as an ascending array.

    Bisection by LAPACK dstebz at its default tolerance (tol=0), the routine
    scipy's eigh_tridiagonal calls for an index selection: the same numbers
    bit for bit, with or without eigenvectors.  Each is accurate to
    bisection_tol(m).  Non-finite bands or a LAPACK failure raise DomainError.
    """
    if count < 1 or count > m.order:
        raise DomainError(f"count must be in [1, {m.order}], got {count}")
    diag, off = _bands(m)
    found, w, _, _, info = _lapack().dstebz(diag, off, 2, 0.0, 0.0, 1, count, 0.0, "E")
    if info:
        raise DomainError(f"LAPACK dstebz failed (info={info})")
    return w[:found]


def eig_values(m: SLMatrix):
    """All eigenvalues, ascending: LAPACK dstevd, the routine
    eigh_tridiagonal calls for a full spectrum.  Non-finite bands or a LAPACK
    failure raise DomainError."""
    diag, off = _bands(m)
    w, _, info = _lapack().dstevd(diag, off, compute_v=0)
    if info:
        raise DomainError(f"LAPACK dstevd failed (info={info})")
    return w


def bisection_tol(m: SLMatrix):
    """The absolute tolerance eig_lowest's bisection stops at.

    With tol=0, LAPACK's stebz uses eps * max(|gl|, |gu|) over the
    Gershgorin bounds [gl, gu] of the whole matrix: with cosh^2(L)/h^2 in
    the kinetic stencil this, not the grid, is the accuracy floor of the
    report's oracle levels (about 0.16 at L=12, N=4001).
    """
    radius = np.zeros(m.order)
    radius[:-1] += np.abs(m.off)
    radius[1:] += np.abs(m.off)
    return _EPS * max(abs((m.diag - radius).min()), abs((m.diag + radius).max()))


# The first-order operator of the factorization, as recorded in the report.
_D_NAME = "staggered cosh*d/dw + cosh*(A-k) + sinh/2"


def _staggered_factor(A, k, grid: Grid):
    """The two nonzero diagonals of the staggered (N+1) x N operator D.

    (D phi)_r = lo[r] phi_{r-1} + up[r] phi_r on half point r = 0..N (node
    indices from 0), i.e. cosh (phi_r - phi_{r-1})/h + f (phi_{r-1} + phi_r)/2
    with cosh and f = cosh (A - k) + sinh/2 sampled at the half point.  The
    walls hold phi at zero, so lo[0] = up[N] = 0.
    """
    wh = grid.half_points()
    c = np.cosh(wh)
    f = c * (np.asarray(A(wh), dtype=float) - k) + 0.5 * np.sinh(wh)
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
    """
    if abs(m1.order - m2.order) > 1:
        raise DomainError(f"orders {m1.order} and {m2.order} differ by more than one")
    s1 = eig_values(m1)
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


def verify_eigenpair(m: SLMatrix, grid: Grid, vec, lams, window: Optional[float] = None):
    """Relative residuals ||M vec - lam vec|| / ||vec||, one per level
    constant lam in lams, of a vector sampled on the nodes of grid against
    the matrix m assembled there (build_sl_matrix); M vec is formed once.

    The row next to each Dirichlet wall is dropped unless vec has decayed
    below 1e-10 of its max there (the wall assumes a zero neighbor).  An
    optional window keeps only |w| <= window: the flux scheme's truncation
    error grows with cosh^2 toward the walls, so a windowed residual is the
    meaningful adjudicator for slowly decaying or growing candidates.  A
    vector of the wrong shape, not finite, or zero on the kept rows raises
    DomainError.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (grid.N,):
        raise DomainError(f"grid function must have shape ({grid.N},), got {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise DomainError("wavefunction is not finite on the grid")
    keep = np.ones(grid.N, dtype=bool)
    peak = np.abs(vec).max()
    if peak == 0.0:
        raise DomainError("wavefunction vanishes identically on the grid")
    if abs(vec[0]) > 1e-10 * peak:
        keep[0] = False
    if abs(vec[-1]) > 1e-10 * peak:
        keep[-1] = False
    if window is not None:
        keep &= np.abs(grid.points()) <= window
    denom = np.linalg.norm(vec[keep])
    if denom == 0.0:
        raise DomainError("wavefunction vanishes on the residual window")
    mv = m.matvec(vec)
    return [float(np.linalg.norm((mv - lam * vec)[keep]) / denom) for lam in lams]


def _shallow(record):
    """A dataclass's fields in declaration order, as one dict of the values
    themselves (a shallow dict: the grid and details dicts are not copied)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


@dataclass
class Claim:
    """One verified statement: metric against tolerance, with provenance.

    The one place a verdict is decided: a forced claim (id f.*) passes iff
    metric <= tolerance, so a NaN or infinite metric fails; every other claim
    is 'recorded'.  tolerance is None for a claim with no threshold.
    """

    claim_id: str
    paper_ref: str
    description: str
    metric: float
    tolerance: Optional[float] = field(default=None, kw_only=True)
    verdict: str = field(init=False)
    grid: Dict[str, float]
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.verdict = "recorded"
        if self.claim_id.startswith("f."):
            self.verdict = "pass" if self.metric <= self.tolerance else "fail"

    def as_dict(self):
        return _shallow(self)


@dataclass
class VerificationReport:
    """All claims for one model at one configuration, in fixed order."""

    model: int
    k: float
    R: float
    levels: int
    params: Dict[str, float]
    claims: List[Claim]

    def as_dict(self):
        out = _shallow(self)
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


def _constancy(diff_fn):
    """max |d(w) - mean d| and the mean, over the uniform sample _CONSTANCY_GRID."""
    w = np.linspace(_CONSTANCY_GRID["w_lo"], _CONSTANCY_GRID["w_hi"], _CONSTANCY_GRID["n_pts"])
    d = np.asarray(diff_fn(w), dtype=float)
    mean = float(d.mean())
    return float(np.abs(d - mean).max()), mean


_CONSTANCY_TOL = 1e-9
_ISO_TOL = 1e-8
_PRODUCT_TOL = 1e-12
_COMPOSE_GRID = Grid(4.0, 401)
_CONVENTION_GRID = Grid(6.0, 801)
_RESIDUAL_WINDOW = 8.0


@dataclass(frozen=True)
class _ModelSpec:
    """What one gauge model brings to its report: the formulas and the words.

    Every claim family is built from these fields by _model_report, the same
    way for both models, and the CLI commands read their curves, levels and
    eigenfunctions from the same fields.  poles holds the model's real poles
    as its parameters fix them, which every matrix and curve reads.
    Callables take the level index; eigenfunctions maps each polynomial
    reading's name to (description, level -> WaveFunctionSpec), in report order.
    """

    model: int
    params: Dict[str, object]
    A: Callable
    dA: Callable
    raw1: EffectivePotential
    closed1: EffectivePotential
    closed2: EffectivePotential
    poles: Tuple[float, ...]  # Model2Params.poles, or () for Model I
    b_descriptions: Tuple[str, str]
    printed: Callable  # level -> SpectralLine of the printed spectrum
    implied: Callable  # level -> level constant implied by the identity, or None
    spectrum_details: Callable  # (line, oracle, implied) -> extra c.* details
    printed_key: str  # d.* details key of the printed level constant
    eigenfunctions: Dict[str, Tuple[str, Callable]]
    identity_claims: Callable  # printed level-0 constant -> the g.* claims


def consistency_report(model, params, k, R, grid: Grid, levels: int = 4) -> VerificationReport:
    """Assemble the full verification report for one model.

    Claim families: forced linear-algebra invariants (f.*), the match of the
    staggered factorization to the operators, transcription constancy checks
    (a.*, b.*), closed-form spectrum versus oracle eigenvalues (c.*),
    eigenfunction residuals (d.*, over |w| <= 8), partner-level pairing (e.*),
    and the model's solvable-structure identity (g.*).  Both models run
    through one assembler over the spec model_spec selects, which must be
    that of `model`.  Forced claims must pass; everything else is recorded
    with a finite metric and the grid it was measured on.
    """
    spec = model_spec(params, k, R)
    if model != spec.model:
        raise DomainError(f"model {model} does not match model-{spec.model} parameters")
    return _model_report(spec, k, R, grid, levels)


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


def _lowest_match(vals, ref):
    """Max relative distance between two ascending eigenvalue arrays, one to one."""
    return float(np.max(np.abs(vals - ref) / (1.0 + np.abs(ref))))


def _forced_claims(A, k, gen_v1, gen_v2, poles):
    """Forced claims on the factorization, then its match to the operators.

    gen_v1/gen_v2 are the general-form j=1/j=2 potentials and poles the
    model's real poles: the match compares the compositions of D with the
    transformed operators themselves, not with the printed closed forms.
    """
    claims = []
    dtd, ddt = compose_factorized(A, k, _COMPOSE_GRID)
    defect = _product_defect(A, k, _COMPOSE_GRID, dtd, ddt)
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

    sl1 = build_sl_matrix(_cosh2, gen_v1, _CONVENTION_GRID, q_poles=poles)
    sl2 = build_sl_matrix(_cosh2, gen_v2, _CONVENTION_GRID, q_poles=poles)
    dtd, ddt = compose_factorized(A, k, _CONVENTION_GRID)
    claims.append(
        Claim(
            "conventions.factorization-match",
            "factorization.first-order",
            "five lowest eigenvalues of Dt*D against the flux-form j=1 operator of the "
            "general potential, one to one (relative to 1 + |value|); match_j2 compares "
            "D*Dt above its one-vector kernel with the flux-form j=2 operator, and its "
            "gap does not shrink with h but moves with L (a boundary and extension "
            "effect of the half-point grid, not doubling)",
            _lowest_match(eig_lowest(dtd, 5), eig_lowest(sl1, 5)),
            _gdict(_CONVENTION_GRID),
            {
                "convention": _D_NAME,
                "match_j2": _lowest_match(eig_lowest(ddt, 6)[1:], eig_lowest(sl2, 5)),
            },
        )
    )
    return claims


def _model_report(spec: _ModelSpec, k, R, grid, levels):
    """The claims of one model in report order, built from its spec.

    Formulas are evaluated in report order, so the first claim an invalid
    configuration breaks is the one that raises.  A model with more than one
    eigenfunction reading names each in its d.* claim ids.
    """
    ref = f"model{spec.model}"
    gen1 = v_eff_general(spec.A, spec.dA, k, 1)
    gen2 = v_eff_general(spec.A, spec.dA, k, 2)
    raw1, closed1, closed2 = spec.raw1, spec.closed1, spec.closed2
    claims = _forced_claims(spec.A, k, gen1, gen2, spec.poles)

    b1, b2 = spec.b_descriptions
    for claim_id, formula, description, diff_fn in (
        (
            "a.veff1-expansion",
            "veff1.expanded",
            "expanded first-component potential minus the general form (identity up to constant)",
            lambda w: raw1(w) - gen1(w),
        ),
        ("b.veff1-constrained", "veff1.closed", b1, lambda w: closed1(w) - raw1(w)),
        ("b.veff2-constrained", "veff2.closed", b2, lambda w: closed2(w) - gen2(w)),
    ):
        metric, mean = _constancy(diff_fn)
        claims.append(
            Claim(
                claim_id=claim_id,
                paper_ref=f"{ref}.{formula}",
                description=description,
                metric=metric,
                tolerance=_CONSTANCY_TOL,
                grid=_CONSTANCY_GRID,
                details={"additive_constant": mean},
            )
        )

    sl1 = build_sl_matrix(_cosh2, closed1, grid, q_poles=spec.poles)
    e1, tol1 = eig_lowest(sl1, levels), bisection_tol(sl1)
    sl2 = build_sl_matrix(_cosh2, closed2, grid, q_poles=spec.poles)
    e2, tol2 = eig_lowest(sl2, levels), bisection_tol(sl2)

    printed, implied = [], []
    for n in range(levels):
        line = spec.printed(n)
        printed.append(line.E_sq_bar)
        implied.append(spec.implied(n))
        claims.append(
            Claim(
                f"c.spectrum.m{n}",
                f"{ref}.spectrum.closed",
                "closed-form level constant vs oracle eigenvalue of the closed j=1 potential",
                abs(line.E_sq_bar - e1[n]),
                _gdict(grid),
                {
                    "closed_form": line.E_sq_bar,
                    "oracle": e1[n],
                    **spec.spectrum_details(line, e1[n], implied[n]),
                    "oracle_tol": tol1,
                },
            )
        )

    for n in range(levels):
        lam, matched = printed[n], implied[n]
        lams = (lam,) if matched is None else (lam, matched)
        for reading, (description, wavefn) in spec.eigenfunctions.items():
            infix = f"{reading}." if len(spec.eigenfunctions) > 1 else ""
            wf = wavefn(n)
            res = verify_eigenpair(sl1, grid, wf.eval(grid.points()), lams, _RESIDUAL_WINDOW)
            details = {spec.printed_key: lam}
            if matched is not None:
                details.update(residual_at_identity_energy=res[1], lambda_identity=matched)
            details.update(window=_RESIDUAL_WINDOW, norm_finite=wf.norm_finite)
            details.update(wf.norm_details())
            claims.append(
                Claim(
                    f"d.eigenfunction.{infix}m{n}",
                    f"{ref}.eigenfunction.closed",
                    description,
                    res[0],
                    _gdict(grid),
                    details,
                )
            )

    for m in range(1, levels):
        claims.append(
            Claim(
                f"e.partner.m{m}",
                "partner.level-pairing",
                "oracle spectra of the two components paired with the one-level shift",
                abs(e1[m] - e2[m - 1]),
                _gdict(grid),
                {
                    "e1": e1[m],
                    "e2_shifted": e2[m - 1],
                    "unshifted_deviation": abs(e1[m] - e2[m]),
                    "oracle_tol": max(tol1, tol2),
                },
            )
        )

    claims.extend(spec.identity_claims(printed[0]))
    return VerificationReport(
        model=spec.model, k=k, R=R, levels=levels, params=spec.params, claims=claims
    )


def _model1_spec(p: Model1Params, k, R) -> _ModelSpec:
    closed1 = v_eff_model1(p, k, 1)

    def identity_claims(level0):
        # Solvable-structure identity: for a true eigenfunction the local energy
        # (H phi)/phi is constant; evaluated analytically for the printed ground state.
        s, B = _model1_exponents(0, p, k)

        def local_energy(w):
            t = np.tanh(np.asarray(w, dtype=float))
            dlog = -s / (1.0 - t) + B / (1.0 + t)
            d2log = -s / (1.0 - t) ** 2 - B / (1.0 + t) ** 2
            return -(1.0 - t * t) * (dlog * dlog + d2log) + closed1(w)

        metric, mean = _constancy(local_energy)
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
        closed1=closed1,
        closed2=v_eff_model1(p, k, 2),
        poles=(),
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
    closed1 = v_eff_model2(p, 1)

    def identity_claims(level0):
        claims = []
        for variant in ("sech2", "sech1"):
            rhs = midya_rhs(alpha, beta, 1, variant=variant)
            metric, mean = _constancy(lambda w: closed1(w) + rhs(w))
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
        closed1=closed1,
        closed2=v_eff_model2(p, 2),
        poles=p.poles,
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
