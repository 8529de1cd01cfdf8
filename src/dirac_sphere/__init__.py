"""Exact solutions of the conformally reduced Dirac operator on the sphere
under hyperbolic gauge fields, cross-checked against an independent
Sturm-Liouville finite-difference oracle.

The package evaluates the published closed forms verbatim (potentials,
spectra, eigenfunctions for both gauge-field models), and the oracle module
attaches a pass/fail/recorded verdict to each of them.  It is used by module
(`from dirac_sphere import oracle`); importing the package loads none of its
modules, and each module's __all__ lists its public names.
"""

__version__ = "0.1.0"
