"""Independent accuracy reference for the Model-I first component.

With t = tanh w the transformed operator -(cosh^2 w phi')' + V(w) phi becomes
-(1 - t^2) phi'' + V(t) phi on the compact interval (-1, 1), and the
square-integrable solutions vanish at t = +-1.  A Chebyshev collocation of
that form (Trefethen, Spectral Methods in MATLAB, 2000) converges
spectrally for the Model-I j=1 potential, which is a polynomial in t.  It uses
numpy and the public gauge.v_eff_model1 potential only; it never calls the
oracle.

Model II and both j=2 components do not converge this way (their potentials
grow like cosh^2 w), so they have no reference.
"""
import numpy as np

SELF_CHECK_N = (128, 256)
SELF_CHECK_TOL = 1e-9


class ReferenceError(RuntimeError):
    """The collocation failed its own convergence check."""


def _cheb(n):
    """Chebyshev points x_j = cos(j pi / n) and the differentiation matrix."""
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.hstack([2.0, np.ones(n - 1), 2.0]) * (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return d, x


def collocation_levels(potential, n, count):
    """Lowest `count` eigenvalues of -(1-t^2) phi'' + V phi, phi(+-1) = 0.

    `potential` maps w to V(w); it is sampled at w = artanh(t) on the
    interior Chebyshev points.
    """
    d, x = _cheb(n)
    t = x[1:-1]
    d2 = (d @ d)[1:-1, 1:-1]
    v = np.asarray(potential(np.arctanh(t)), dtype=float)
    a = -(1.0 - t * t)[:, None] * d2 + np.diag(v)
    ev = np.linalg.eigvals(a)
    ev = ev[np.argsort(ev.real)][:count]
    if np.max(np.abs(ev.imag)) > SELF_CHECK_TOL:
        raise ReferenceError(f"complex eigenvalue at n={n}: {ev}")
    return ev.real


def model1_reference(gauge, C1, k, branch, count):
    """Converged j=1 levels 0..count-1 and the n=128 / n=256 disagreement.

    Raises ReferenceError when the two resolutions disagree by more than
    SELF_CHECK_TOL, so an unconverged number never becomes a reference.
    """
    params = gauge.Model1Params.from_branch(C1, k, branch)
    pot = gauge.v_eff_model1(params, k, 1).fn
    coarse, fine = (collocation_levels(pot, n, count) for n in SELF_CHECK_N)
    gap = float(np.max(np.abs(coarse - fine)))
    if not gap <= SELF_CHECK_TOL:
        raise ReferenceError(
            f"model 1 {branch} C1={C1} k={k}: n={SELF_CHECK_N[0]} and n={SELF_CHECK_N[1]} "
            f"disagree by {gap:.3e} > {SELF_CHECK_TOL:g}"
        )
    return fine, gap
