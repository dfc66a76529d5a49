"""Buckling spectra of clamped caps.

A small numerical laboratory for the clamped buckling eigenvalue problem

    Delta^2 u = -Lambda * Delta u  in Omega,   u = du/dnu = 0  on the boundary,

where Omega is a geodesic cap on the unit n-sphere or a ball in R^n.
Separation into harmonic sectors reduces each problem to a radial
fourth-order pencil with half-bandwidth 3, discretised with C^1 Hermite
cubics.  A banded solver brackets its lowest eigenvalues by LDL^T inertia
counts (Sylvester's law) and multisection, which certify each eigenvalue's
index, and finds the eigenvectors by inverse iteration with a banded LU.
Exact oracles check the pipeline: squared Bessel zeros on flat disks and a
hypergeometric Wronskian on spherical caps.  On top of the spectra the package
evaluates a family of eigenvalue inequalities and reconstructs, by
quadrature, the variational identities behind the second-eigenvalue gap
bound for spherical caps.
"""

from .domain import (
    CapDomain,
    Geometry,
    QuadratureRule,
    SectorIndex,
    gauss_legendre_rule,
    harmonic_multiplicity,
    make_cap,
    make_sector,
    radial_weight,
    sector_operator_apply,
    surface_area,
)
from .fem import Mesh, OperatorPencil, assemble_sector_forms, build_mesh, eval_radial_solution
from .eigensolve import (
    Eigenpair,
    Spectrum,
    SpectrumEntry,
    TruncationError,
    assemble_spectrum,
    bessel_j,
    bessel_zero,
    cap_eigenvalue,
    solve_pencil,
    solve_sector,
    solve_spectrum,
)
from .bounds import (
    BoundReport,
    ashbaugh_check,
    bound_report,
    chen_qian_bound,
    cheng_yang_check,
    cor12_bound,
    hile_yeh_bound,
    hlc_k1_bound,
    huang_li_cao_check,
    ppw_bound,
    thm11_bound,
    wang_xia_check,
    wang_xia_implied_gap,
)
from .prooflab import (
    IdentityReport,
    RadialEigenfunction,
    TrialFunction,
    bracket_norm_sum,
    build_trial,
    d_alpha_sum,
    ground_state,
    identity_quadratic_sum,
    identity_bilaplacian_sum,
    orthogonality_residual,
    polar_shift_tensor_check,
    rr_quotient,
    run_identity_suite,
    sum_grad_trial_sq,
    trial_coefficient,
)

__version__ = "0.1.0"
