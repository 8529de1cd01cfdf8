"""Exact solutions of the conformally reduced Dirac operator on the sphere
under hyperbolic gauge fields, cross-checked against an independent
Sturm-Liouville finite-difference oracle.

The package evaluates the published closed forms verbatim (potentials,
spectra, eigenfunctions for both gauge-field models), and the oracle module
attaches a pass/fail/recorded verdict to each of them.
"""
from .errors import (
    ComplexExponentError,
    ConfigError,
    ConstraintError,
    DegenerateParametersError,
    DiracSphereError,
    DomainError,
    IntegrationError,
    InvalidBranchError,
    PoleError,
    SingularPotentialError,
)
from .geometry import SphereChart, conformal_factor, v_from_w, w_from_v
from .gauge import (
    BRANCH_LABELS,
    EffectivePotential,
    Model1Params,
    Model2Params,
    a_u_model1,
    a_u_model2,
    alpha_beta,
    da_u_model1,
    da_u_model2,
    midya_constants,
    midya_rhs,
    model1_branches,
    model2_derive_params,
    v_eff_general,
    v_eff_model1,
    v_eff_model1_raw,
    v_eff_model2,
    v_eff_model2_raw,
)
from .oracle import (
    Claim,
    Grid,
    SLMatrix,
    VerificationReport,
    build_sl_matrix,
    compose_factorized,
    consistency_report,
    eig_lowest,
    eig_values,
    verify_eigenpair,
)
from .specfun import integrate, jacobi, jacobi_deriv, x1_jacobi
from .spectra import (
    SpectralLine,
    WaveFunctionSpec,
    energy_model1,
    energy_model2,
    energy_model2_matched,
    wavefn_model1,
    wavefn_model2,
)

__version__ = "0.1.0"
